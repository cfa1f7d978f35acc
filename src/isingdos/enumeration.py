"""Exhaustive walk of the configuration space into the g(M, E) histogram.

The walk is one aligned top-bit range per symmetry orbit of the top
column(s) or layer(s), each weighted by its orbit's size
(`LatticeSpec.top_orbits`); a lattice too small for ranges of 2^18
configurations walks [0, 2^N) whole.  `make_shards` cuts the ranges, in
order, into one near-equal shard of (range, weight) pairs per walker, and
`enumerate_shard` walks each range in aligned blocks of 2^k indices
H*2^k + L.  The anti-aligned bond masks of the 2^k low parts L (per
periodic axis, the index XOR its masked rotation, packed into uint64 words)
are tabulated once per shard; the masks are linear over GF(2), so a block
XORs its base's words into the table, takes one vector popcount per word
and bins (spin excess, exchange energy) with one bincount.  Only the
base's bonds that cross the block's boundary change that histogram; the
rest shift it.  Blocks whose bases agree on those bonds form a boundary
class (multi-spin coding, Jacobs & Rebbi 1981, cut once like Beale's 1996
transfer matrix), and each chunk of bases bins each of its classes once; a
block that a shard's boundary cuts goes through the same split with its
rows of the table.  Each range's table is multiplied by its weight once,
after its walk.  Counts are exact integers and the shard tables add
elementwise, so the total is bit-identical for any shard count or order
of addition.  Like the ranks of an MPI program, at most one walker per
usable CPU walks one shard each: the caller walks shard 0, as rank 0
would, and walker j is a child that `os.fork` starts for the call.  A
worker writes one reply to a bare pipe: a tag byte, its walk's seconds,
then its bare int64 table, which the caller adds to its own."""

import os
import signal
import struct
import time
from collections import Counter
from itertools import groupby

import numpy as np

from .histogram import DoSHistogram
from .lattice import LatticeSpec

# Blocks of 2^12 indices keep the table and each step's temporaries in L2.
# 2^13 walks 5x5 ~20% faster but lifts a shard worker's peak RSS by
# 0.1-0.25 MB (2^14: ~0.5 MB), which counts once per worker (2-vCPU x86,
# numpy 2.4).
BLOCK_BITS = 12
#: Block bases whose scalars are computed in one vectorized step, and whose
#: classes are grouped together.
BASE_CHUNK = 256
# One uint64 bond word of a packed int.
WORD = (1 << 64) - 1


def _check_count(name, count, spec):
    # A shard or worker count: an int, not a bool, in [1, 2^N].
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if not 1 <= count <= spec.num_configs:
        raise ValueError(f"{name} must be in [1, 2^{spec.num_spins}], got {count}")


def make_shards(spec: LatticeSpec, num_shards: int) -> list[list[tuple[range, int]]]:
    """Cut the walk, spec.top_orbits, in order, into num_shards shards.

    A shard is a list of (range, weight) pairs.  Of the walk's S indices,
    shard i walks S // num_shards, plus one for i < S % num_shards,
    contiguous in walk order; each part of a range keeps its weight.  Where
    the walk is [0, 2^N) whole, shard i is [(range, 1)].  Deterministic for
    fixed inputs.
    """
    _check_count("num_shards", num_shards, spec)
    walk = spec.top_orbits
    base, extra = divmod(sum(len(r) for r, _ in walk), num_shards)
    rest, shards, rng = iter(walk), [], range(0)
    for i in range(num_shards):
        shard, want = [], base + (i < extra)
        while want:
            if not rng:
                rng, weight = next(rest)
            shard.append((rng[:want], weight))
            rng, want = rng[want:], want - len(shard[-1][0])
        shards.append(shard)
    return shards


# -- the vectorized walk ----------------------------------------------------

def enumerate_shard(spec: LatticeSpec, shard) -> DoSHistogram:
    """g(M, E) of a shard's (range, weight) pairs: each range's table times its weight.

    A shard is as make_shards gives it: ranges of step 1 in [0, 2^N), each
    with a positive int weight; a plain walk of [a, b) is [(range(a, b), 1)].
    The low table is built once for all ranges, and each range's table is
    weighted once, after its walk, not at each class it adds.
    """
    for rng, weight in shard:
        if (rng.step != 1 or not 0 <= rng.start <= rng.stop <= spec.num_configs
                or isinstance(weight, bool) or not isinstance(weight, int)
                or weight < 1):
            raise ValueError(f"shard piece ({rng}, {weight!r}) invalid for "
                             f"2^{spec.num_spins} configurations")
    n, b = spec.num_spins, spec.num_bonds
    k = min(BLOCK_BITS, n)
    size = 1 << k
    # Index H*2^k + L: the bond words of L come from the table, those of the
    # base H*2^k are scalars XORed into it, and the up spins of both add.
    # key = ups*(B+1) + anti is the flat (spin excess, energy) cell.
    low = np.arange(size, dtype=np.uint64)
    table = spec.bond_words(low)
    key_low = np.bitwise_count(low).astype(np.intp) * (b + 1)
    cells = (n + 1) * (b + 1)
    total = np.zeros(cells, dtype=np.int64)

    # The bonds R that cross a block's boundary: the words of the block mask.
    support = [np.uint64(r) for r in spec.bond_words(size - 1)]

    def bin_blocks(bases, lo=0, hi=size):
        # Adds rows [lo, hi) of the blocks at the uint64 bases to flat.
        # A base's words s are zero on the bonds inside the block and every
        # row's words t on the bonds with no end in it, so only R separates
        # class from shift: popcount(t ^ s) = popcount(t ^ (s & R)) +
        # popcount(s & ~R).  A block's histogram is that of its class s & R,
        # shifted by popcount(s & ~R) anti-aligned bonds, and each class is
        # binned once.
        shifts = np.bitwise_count(bases).astype(np.intp) * (b + 1)
        # A class's key is its words packed in one int, word i at bit 64i.
        keys = [0] * len(bases)
        for i, (scalar, r) in enumerate(zip(spec.bond_words(bases), support)):
            cls = scalar & r
            shifts += np.bitwise_count(scalar ^ cls)
            keys = [key | word << 64 * i for key, word in zip(keys, cls.tolist())]
        # Blocks per (class, shift), keyed key * cells + shift: sorted, each
        # class's shifts come together, so one class histogram is alive at a
        # time.
        blocks = Counter([key * cells + shift
                          for key, shift in zip(keys, shifts.tolist())])
        for key, group in groupby(sorted(blocks), lambda cell: cell // cells):
            anti = np.bitwise_count(table[0][lo:hi] ^ (key & WORD))
            for i, word in enumerate(table[1:], 1):
                anti += np.bitwise_count(word[lo:hi] ^ (key >> 64 * i & WORD))
            counts = np.bincount(key_low[lo:hi] + anti)
            for cell in group:
                shift, times = cell % cells, blocks[cell]
                flat[shift:shift + counts.size] += (counts if times == 1
                                                    else times * counts)

    for rng, weight in shard:
        start, end = rng.start, rng.stop
        flat = np.zeros(cells, dtype=np.int64)  # this range's table
        # A block cut at the range's start or end bins its rows of the table.
        first, stop = -(-start >> k), end >> k  # heads of the whole blocks
        for piece in (range(start, min(end, first << k)),
                      range(max(first, stop) << k, end)):
            if piece:
                base = piece.start >> k << k
                bin_blocks(np.array([base], dtype=np.uint64),
                           piece.start - base, piece.stop - base)
        for head in range(first, stop, BASE_CHUNK):
            bases = np.arange(head, min(head + BASE_CHUNK, stop), dtype=np.uint64)
            bin_blocks(bases << np.uint64(k))
        total += weight * flat
    counts = total.reshape(n + 1, b + 1)
    if spec.coupling < 0:
        # E = J * (2*anti - B): column `anti` is the energy index for J > 0,
        # and J < 0 mirrors the energy axis.
        counts = counts[:, ::-1].copy()
    return DoSHistogram(spec, counts)


def merge(parts) -> DoSHistogram:
    """Elementwise sum, in any order, of a nonempty list of histograms of one spec."""
    parts = list(parts)
    if not parts:
        raise ValueError("merge needs at least one part")
    spec = parts[0].spec
    if any(p.spec != spec for p in parts):
        raise ValueError("cannot merge histograms of different lattices")
    return DoSHistogram(spec, sum(p.counts for p in parts))


# -- parallel driver ---------------------------------------------------------

def available_parallelism() -> int:
    """Usable CPU count (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A shard worker raised, exited without its reply, or replied the wrong size.

    Its first line names the worker and, if it raised, its exception's first line.
    """


def _walk(spec, shard):
    # The int64 counts of a shard's table and the seconds its walk took.
    t0 = time.perf_counter()
    counts = enumerate_shard(spec, shard).counts
    return counts, time.perf_counter() - t0


def _shard_worker(spec, shard, fd):
    # Walks a shard in a forked child and writes one reply to the pipe end
    # fd: a tag byte 0, the walk's seconds as float64, then its int64 table
    # in C order (a forked worker pays RSS for each code path it is first to
    # touch, so no other numpy call); if the walk raised, a tag byte 1, then
    # as UTF-8 text the first line of its exception and its traceback.
    try:
        counts, seconds = _walk(spec, shard)
        reply = b"\0" + struct.pack("d", seconds) + counts.tobytes()
    except Exception as exc:
        import traceback  # only a failed walk needs it
        head = traceback.format_exception_only(exc)[0].partition("\n")[0]
        reply = f"\1{head}\n{traceback.format_exc()}".encode(errors="backslashreplace")
    with open(fd, "wb") as pipe:
        pipe.write(reply)


def full_dos_timed(spec: LatticeSpec, workers: int | None = None):
    """Complete density of states plus timing.

    min(workers, available_parallelism()) walkers, or one where os has no
    fork, each walk one shard of make_shards(spec, walkers).  The caller
    walks shard 0; walker j is a child that os.fork starts before the caller
    walks, and every one is killed and reaped before the call ends.  The
    caller reads the replies in walker order.  Its own exception is raised
    as it is; a worker that raised, exited without replying or replied the
    wrong size raises WorkerError, whose first line names the worker and,
    if it raised, its exception's first line, then the worker's traceback.
    Returns (histogram, wall_seconds, per_worker_seconds), the last each
    walker's walk seconds.
    """
    if workers is None:
        # Auto mode walks a lattice of at most one block serially.
        workers = (available_parallelism()
                   if spec.num_configs > 1 << BLOCK_BITS else 1)
    _check_count("workers", workers, spec)
    walkers = min(workers, available_parallelism() if hasattr(os, "fork") else 1)
    shards = make_shards(spec, walkers)
    # Unread read ends and unreaped workers, by walker.
    seconds, reads, pids = [None] * walkers, {}, {}
    t0 = time.perf_counter()
    try:
        for j in range(1, walkers):
            reads[j], write = os.pipe()
            try:
                pids[j] = os.fork()
            except BaseException:
                os.close(write)
                raise
            if not pids[j]:  # the worker: it never returns into the caller's stack
                code = 1
                try:
                    for fd in reads.values():  # its own among them
                        os.close(fd)
                    _shard_worker(spec, shards[j], write)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)  # so the worker's exit ends the pipe
        counts, seconds[0] = _walk(spec, shards[0])
        # No worker waits on another, so reading in walker order cannot stall.
        for j in range(1, walkers):
            with open(reads.pop(j), "rb") as pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[j], 0)[1])
            del pids[j]  # only now: the finally reaps what is still here
            if not reply:
                raise WorkerError(f"shard worker {j} exited with code "
                                  f"{code} without a result")
            if reply[0]:  # the walk raised: its headline, then its traceback
                detail = reply[1:].decode(errors="replace").rstrip()
                raise WorkerError(f"shard worker {j} raised {detail}")
            if len(reply) != 9 + counts.nbytes:
                raise WorkerError(f"shard worker {j} replied {len(reply)} "
                                  f"bytes, not the {9 + counts.nbytes} of a "
                                  f"tag, a float64 and a {counts.shape} table")
            (seconds[j],) = struct.unpack_from("d", reply, 1)
            counts += np.frombuffer(reply, np.int64, offset=9).reshape(counts.shape)
    finally:
        for fd in reads.values():
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    return DoSHistogram(spec, counts), wall, seconds


def full_dos(spec: LatticeSpec, workers: int | None = None) -> DoSHistogram:
    """Complete density of states: full_dos_timed without the timing."""
    hist, _, _ = full_dos_timed(spec, workers)
    return hist
