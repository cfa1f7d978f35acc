"""Exhaustive walk of the configuration space into the g(M, E) histogram.

The walk is one aligned top-bit range per symmetry orbit of the top
column(s) or layer(s), each weighted by its orbit's size
(`LatticeSpec.top_orbits`); a lattice too small for ranges of 2^18
configurations walks [0, 2^N) whole.  `make_shards` cuts the ranges, in
order, into one near-equal shard of (range, weight) pairs per worker, and
`enumerate_shard` walks each range in aligned blocks of 2^k indices
H*2^k + L.  The anti-aligned bond masks of the 2^k low parts L (per
periodic axis, the index XOR its masked rotation, packed into uint64 words)
are tabulated once per shard; the masks are linear over GF(2), so a block
XORs its base's words into the table, takes one vector popcount per word
and bins (spin excess, exchange energy) with one bincount.  Only the base's bonds that
cross the block's boundary change that histogram; the rest shift it.
Blocks whose bases agree on those bonds form a boundary class (multi-spin
coding, Jacobs & Rebbi 1981, cut once like Beale's 1996 transfer matrix),
and each chunk of bases bins each of its classes once.  Each range's table
is multiplied by its weight once, after its walk.  Counts are exact
integers and the shard tables add elementwise, so the total is
bit-identical for any shard count or order of addition.  Like the fixed
ranks of an MPI program, at most one walker per usable CPU takes every
walkers-th shard; the caller is walker 0, as rank 0 is, and each other
walker is a forked process.  A worker pipes back one message: each walk's
seconds as a float64, then the bare int64 sum of its tables in C order,
which the caller adds to its own.  Only a failed walk's exception and
traceback are pickled."""

import os
import pickle
import struct
import time
from collections import Counter

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
    contiguous in walk order; each part of a range keeps its weight.  On a
    lattice walked whole, shard i is [(range, 1)].  Deterministic for fixed
    inputs.
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

    def block_counts(words, lo=0, hi=size):
        # Histogram of ups*(B+1) + anti over table rows [lo, hi) XOR the
        # scalar bond words, packed in one int with word i at bit 64i.
        anti = np.bitwise_count(table[0][lo:hi] ^ (words & WORD))
        for i, word in enumerate(table[1:], 1):
            anti += np.bitwise_count(word[lo:hi] ^ (words >> 64 * i & WORD))
        return np.bincount(key_low[lo:hi] + anti)

    def add(counts, shift, times=1):
        flat[shift:shift + counts.size] += counts if times == 1 else times * counts

    # The bonds R that cross a block's boundary: the words of the block mask.
    support = [np.uint64(r) for r in spec.bond_words(size - 1)]
    for rng, weight in shard:
        start, end = rng.start, rng.stop
        flat = np.zeros(cells, dtype=np.int64)  # this range's table
        # Partial blocks at the range's cuts, each on its own.
        first, stop = -(-start >> k), end >> k  # heads of the whole blocks
        for piece in (range(start, min(end, first << k)),
                      range(max(first, stop) << k, end)):
            if piece:
                base = piece.start >> k << k
                words = sum(word << 64 * i
                            for i, word in enumerate(spec.bond_words(base)))
                add(block_counts(words, piece.start - base, piece.stop - base),
                    base.bit_count() * (b + 1))

        # Whole blocks.  A base's words s are zero on the bonds inside the
        # block and the table's words t on the bonds with no end in it, so
        # only R separates class from shift: popcount(t ^ s) =
        # popcount(t ^ (s & R)) + popcount(s & ~R).  A block's histogram is
        # that of its class s & R, shifted by popcount(s & ~R) anti-aligned
        # bonds.  Each chunk of bases bins each of its classes once.
        for head in range(first, stop, BASE_CHUNK):
            bases = (np.arange(head, min(head + BASE_CHUNK, stop), dtype=np.uint64)
                     << np.uint64(k))
            shifts = np.bitwise_count(bases).astype(np.intp) * (b + 1)
            scalars = spec.bond_words(bases)
            # A class's key is its words packed like block_counts takes them.
            keys = None
            for i, (scalar, r) in enumerate(zip(scalars, support)):
                cls = scalar & r
                shifts += np.bitwise_count(scalar ^ cls)
                words = cls.tolist()
                keys = words if keys is None else [
                    key | word << 64 * i for key, word in zip(keys, words)]
            # Blocks per (class, shift), keyed key * cells + shift: sorted,
            # each class's shifts come together, so one class histogram is
            # alive at a time.
            blocks = Counter([key * cells + shift
                              for key, shift in zip(keys, shifts.tolist())])
            binned = None
            for cell in sorted(blocks):
                key, shift = divmod(cell, cells)
                if key != binned:
                    binned, counts = key, block_counts(key)
                add(counts, shift, blocks[cell])
        total += flat if weight == 1 else weight * flat
    counts = total.reshape(n + 1, b + 1)
    if spec.coupling < 0:
        # E = J * (2*anti - B): column `anti` is the energy index for J > 0,
        # and J < 0 mirrors the energy axis.
        counts = counts[:, ::-1].copy()
    return DoSHistogram(spec, counts)


def merge(parts) -> DoSHistogram:
    """Elementwise sum of shard histograms (order-independent).

    Args:
        parts: nonempty list of histograms sharing one spec.
    """
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


class RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a shard worker."""


def _walk(spec, shards):
    # The summed int64 counts of the shards' tables and each walk's seconds.
    counts, seconds = 0, []
    for shard in shards:
        t0 = time.perf_counter()
        counts = counts + enumerate_shard(spec, shard).counts
        seconds.append(time.perf_counter() - t0)
    return counts, seconds


def _shard_worker(spec, shards, conn):
    # Walks its shards in its own process.  Replies with one message: each
    # walk's seconds as a float64, then the int64 counts of their summed
    # table in C order.  No other numpy call: a forked worker pays RSS for
    # each code path it is first to touch, ~0.4 MB to pickle a histogram.
    # If a walk raised, an empty message, then (the pickled exception, or
    # None if it does not pickle, and its formatted traceback).
    try:
        counts, seconds = _walk(spec, shards)
        conn.send_bytes(struct.pack(f"{len(seconds)}d", *seconds)
                        + counts.tobytes())
    except Exception as exc:
        import traceback  # only a failed walk needs it
        try:
            pickled = pickle.dumps(exc)
        except Exception:
            pickled = None
        conn.send_bytes(b"")
        conn.send((pickled, traceback.format_exc()))
    conn.close()


def full_dos_timed(spec: LatticeSpec, workers: int | None = None):
    """Complete density of states plus timing.

    make_shards cuts the walk, spec.top_orbits, into one shard per worker,
    and enumerate_shard walks each.  min(workers, available_parallelism())
    walkers take every walkers-th shard: walker j walks shards j, j +
    walkers, ...  The caller is walker 0, and each other walker is a
    process started for this call before the caller walks, so `workers` W
    starts min(W, P) - 1 processes on P usable CPUs.  An exception in the
    caller's own walk is raised as it is; only a worker's exception is
    raised with its traceback chained as a RemoteTraceback.  A worker that
    exits without replying, or replies with a message of the wrong size,
    raises RuntimeError.

    Returns:
        (histogram, wall_seconds, per_worker_seconds) where the per-worker
        list holds each shard's own enumeration interval, in shard order.
    """
    if workers is None:
        # Auto mode walks a lattice of at most one block serially.
        workers = (available_parallelism()
                   if spec.num_configs > 1 << BLOCK_BITS else 1)
    _check_count("workers", workers, spec)
    shards = make_shards(spec, workers)
    walkers = min(workers, available_parallelism())
    shape = spec.num_spins + 1, spec.num_bonds + 1
    seconds, pending = [None] * workers, {}
    t0 = time.perf_counter()
    try:
        if walkers > 1:
            # Imported here: a serial walk never loads multiprocessing (~0.5 MB).
            from multiprocessing import Pipe, Process
            from multiprocessing.connection import wait
            for j in range(1, walkers):
                recv, send = Pipe(duplex=False)
                proc = Process(target=_shard_worker,
                               args=(spec, shards[j::walkers], send), daemon=True)
                pending[recv] = j, proc
                # Only the worker holds the sending end, so its exit ends the pipe.
                with send:
                    proc.start()
        counts, seconds[::walkers] = _walk(spec, shards[::walkers])
        while pending:
            for recv in wait(list(pending)):
                try:
                    reply = recv.recv_bytes()
                    failure = None if reply else recv.recv()
                except EOFError:
                    reply = None
                j, proc = pending.pop(recv)
                recv.close()
                proc.join()
                if reply is None:
                    raise RuntimeError(f"shard worker {j} exited with code "
                                       f"{proc.exitcode} without a result")
                if failure is not None:  # a walk raised
                    pickled, detail = failure
                    try:
                        exc = pickle.loads(pickled)
                    except Exception:
                        exc = RuntimeError(f"shard worker {j} raised an "
                                           f"exception that cannot be rebuilt")
                    raise exc from RemoteTraceback(detail)
                walked = len(shards[j::walkers])
                size = 8 * walked + 8 * shape[0] * shape[1]
                if len(reply) != size:
                    raise RuntimeError(f"shard worker {j} replied {len(reply)} "
                                       f"bytes, not the {size} of {walked} "
                                       f"float64 and a {shape} table")
                seconds[j::walkers] = struct.unpack_from(f"{walked}d", reply)
                counts = counts + np.frombuffer(
                    reply, np.int64, offset=8 * walked).reshape(shape)
    finally:
        for recv, (_, proc) in pending.items():
            recv.close()
            if proc.pid is not None:  # started
                proc.terminate()
                proc.join()
    wall = time.perf_counter() - t0
    return DoSHistogram(spec, counts), wall, seconds


def full_dos(spec: LatticeSpec, workers: int | None = None) -> DoSHistogram:
    """Complete density of states: full_dos_timed without the timing."""
    hist, _, _ = full_dos_timed(spec, workers)
    return hist
