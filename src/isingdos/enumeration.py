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
integers and `merge` adds the shard tables elementwise, so the total is
bit-identical for any shard count or merge order.  With several workers,
the caller walks shard 0 itself, as rank 0 of an MPI program does, and
each other shard runs in a forked process of its own, at most one per
usable CPU but the caller's alive at a time.  A worker pipes back one
message: its walk's seconds as a float64, then its bare int64 table in C
order, which the caller rebuilds against its own spec.  Only a failed
walk's exception and traceback are pickled."""

import os
import pickle
import struct
import time
from collections import Counter
from itertools import islice

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


def _shard_worker(spec, shard, conn):
    # Walks the shard's (range, weight) pairs in its own process.  Replies
    # with one message: the walk's seconds as a float64, then its table's
    # int64 counts in C order.  No other numpy call: a forked worker pays
    # RSS for each code path it is first to touch, ~0.4 MB to pickle a
    # histogram.  If the walk raised, an empty message, then (the pickled
    # exception, or None if it does not pickle, and its formatted traceback).
    try:
        t0 = time.perf_counter()
        counts = enumerate_shard(spec, shard).counts
        conn.send_bytes(struct.pack("d", time.perf_counter() - t0)
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
    and enumerate_shard walks each.  With more than one worker, the caller
    walks shard 0 and each other shard runs in its own process, started
    for this call, so `workers` W starts W - 1 processes; at most
    max(1, available_parallelism() - 1) of them run at a time, however many
    shards `workers` asks for.  An exception in the caller's own walk is
    raised as it is; only a worker's exception is raised with its traceback
    chained as a RemoteTraceback.  A worker that exits without replying, or
    replies with a table of the wrong size, raises RuntimeError.

    Returns:
        (histogram, wall_seconds, per_worker_seconds) where the per-worker
        list holds each shard's own enumeration interval, the caller's
        walk of shard 0 first.
    """
    if workers is None:
        # Auto mode walks a lattice of at most one block serially.
        workers = (available_parallelism()
                   if spec.num_configs > 1 << BLOCK_BITS else 1)
    _check_count("workers", workers, spec)
    shards = make_shards(spec, workers)
    t0 = time.perf_counter()
    if workers == 1:
        hist = enumerate_shard(spec, shards[0])
        results = [(hist, time.perf_counter() - t0)]
    else:
        results = _run_shards(spec, shards)
    wall = time.perf_counter() - t0
    return merge(hist for hist, _ in results), wall, [secs for _, secs in results]


def _run_shards(spec, shards):
    """(histogram, seconds) of each shard: shard 0 walked here, each other forked.

    The first workers start before the caller walks shard 0.  At most
    max(1, available_parallelism() - 1) workers are alive besides the
    caller; the next shard starts when a worker's reply has been read and
    the worker joined.
    """
    # Imported here: a serial walk never loads multiprocessing (~0.5 MB).
    from multiprocessing import Pipe, Process
    from multiprocessing.connection import wait

    shape = spec.num_spins + 1, spec.num_bonds + 1
    size = 8 + 8 * shape[0] * shape[1]
    results = [None] * len(shards)
    # The caller walks shard 0, so one CPU fewer is left for workers.
    slots = max(1, available_parallelism() - 1)
    todo, pending = islice(enumerate(shards), 1, None), {}
    try:
        while True:
            for i, shard in islice(todo, slots - len(pending)):
                recv, send = Pipe(duplex=False)
                proc = Process(target=_shard_worker, args=(spec, shard, send),
                               daemon=True)
                pending[recv] = i, proc
                # Only the worker holds the sending end, so its exit ends the pipe.
                with send:
                    proc.start()
            if results[0] is None:  # the first workers run: walk shard 0 here
                t0 = time.perf_counter()
                hist = enumerate_shard(spec, shards[0])
                results[0] = hist, time.perf_counter() - t0
            if not pending:
                return results
            for recv in wait(list(pending)):
                try:
                    reply = recv.recv_bytes()
                    failure = None if reply else recv.recv()
                except EOFError:
                    reply = None
                i, proc = pending.pop(recv)
                recv.close()
                proc.join()
                if reply is None:
                    raise RuntimeError(f"shard worker {i} exited with code "
                                       f"{proc.exitcode} without a result")
                if failure is not None:  # the walk raised
                    pickled, detail = failure
                    try:
                        exc = pickle.loads(pickled)
                    except Exception:
                        exc = RuntimeError(f"shard worker {i} raised an "
                                           f"exception that cannot be rebuilt")
                    raise exc from RemoteTraceback(detail)
                if len(reply) != size:
                    raise RuntimeError(f"shard worker {i} replied {len(reply)} "
                                       f"bytes, not the {size} of a {shape} "
                                       f"table")
                (seconds,) = struct.unpack_from("d", reply)
                counts = np.frombuffer(reply, np.int64, offset=8).reshape(shape)
                results[i] = DoSHistogram(spec, counts), seconds
    finally:
        for recv, (_, proc) in pending.items():
            recv.close()
            if proc.pid is not None:  # started
                proc.terminate()
                proc.join()


def full_dos(spec: LatticeSpec, workers: int | None = None) -> DoSHistogram:
    """Complete density of states: the caller and `workers` - 1 shard processes."""
    hist, _, _ = full_dos_timed(spec, workers)
    return hist
