"""Exhaustive sharded walk of the configuration space and the g(M, E) histogram.

The 2^N indices split into contiguous, near-equal `range` shards, each walked
in aligned blocks of 2^k indices H*2^k + L.  The anti-aligned bond masks of
the 2^k low parts L (per periodic axis, the index XOR its masked rotation,
packed into uint64 words) are tabulated once per shard; the masks are linear
over GF(2), so a block XORs its base's words into the table, takes one vector
popcount per word and bins (spin excess, exchange energy) with one bincount.
Only the base's bond bits that touch a low site change that histogram; the
rest shift it.  Blocks whose bases agree on those bits form a boundary class
(multi-spin coding, Jacobs & Rebbi 1981, cut once like Beale's 1996 transfer
matrix), and each chunk of bases bins each of its classes once.  Counts are
exact integers and `merge` adds the shard tables elementwise, so the total is
bit-identical for any shard count or merge order.  With several workers, each
shard runs in a forked process of its own that pipes its table back."""

import os
import pickle
import time
from collections import Counter

import numpy as np

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


def make_shards(spec: LatticeSpec, num_shards: int) -> list[range]:
    """Partition [0, 2^N) into num_shards contiguous ranges of near-equal size.

    Sizes differ by at most one; the first (2^N mod num_shards) shards get
    the extra index.  Deterministic for fixed inputs.
    """
    total = spec.num_configs
    if not 1 <= num_shards <= total:
        raise ValueError(
            f"num_shards must be in [1, 2^{spec.num_spins}], got {num_shards}"
        )
    base, extra = divmod(total, num_shards)
    cuts = [i * base + min(i, extra) for i in range(num_shards + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


class DoSHistogram:
    """Exact density of states g(M, E) on a dense (N+1) x (B+1) grid.

    Row m_idx = (M + N)/2 counts configurations with spin excess M; column
    e_idx holds exchange energy E = |J| * (2*e_idx - B).  Counts are int64,
    exact up to the 2^40 configuration cap.  Cells whose (M, E) parity is
    unreachable are structurally zero.
    """

    def __init__(self, spec: LatticeSpec, counts: np.ndarray | None = None):
        n, b = spec.num_spins, spec.num_bonds
        if counts is None:
            counts = np.zeros((n + 1, b + 1), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (n + 1, b + 1):
                raise ValueError(
                    f"counts shape {counts.shape} != {(n + 1, b + 1)}"
                )
        self.spec = spec
        self.counts = counts

    # -- index mapping ----------------------------------------------------

    @property
    def energy_scale(self):
        """|J|: spacing of the energy grid in physical units."""
        return abs(self.spec.coupling)

    def m_index(self, m: int) -> int:
        """Row of spin excess m; m must have the parity of N."""
        n = self.spec.num_spins
        if (m + n) % 2 or not -n <= m <= n:
            raise ValueError(f"spin excess {m} invalid for N={n}")
        return (m + n) // 2

    def e_index(self, energy) -> int:
        """Column of exchange energy; energy must sit on the |J| grid."""
        b = self.spec.num_bonds
        scale = self.energy_scale
        try:
            unit = energy if scale == 1 else energy / scale
            iu = int(round(unit))
        except (OverflowError, ValueError):  # inf, nan, or past float range
            raise ValueError(f"energy {energy} is not a finite number") from None
        if abs(unit - iu) > 1e-9 or (iu + b) % 2 or not -b <= iu <= b:
            raise ValueError(
                f"energy {energy} not on the even grid within [-{b}, {b}] "
                f"(units of |J|={scale})"
            )
        return (iu + b) // 2

    def m_value(self, m_idx: int) -> int:
        return 2 * m_idx - self.spec.num_spins

    def e_value(self, e_idx: int):
        unit = 2 * e_idx - self.spec.num_bonds
        scale = self.energy_scale
        return unit if scale == 1 else scale * unit

    # -- queries -----------------------------------------------------------

    def total(self) -> int:
        """Sum of all counts; 2^N for a complete enumeration."""
        return int(self.counts.sum())

    def count(self, m: int, energy) -> int:
        """g(M, E) for one cell; off-grid (M, E) count zero configurations."""
        try:
            return int(self.counts[self.m_index(m), self.e_index(energy)])
        except ValueError:
            return 0

    def cells(self) -> list[tuple[int, int, int]]:
        """Nonzero (count, M, E) triples, sorted by M descending then E ascending."""
        out = []
        for m_idx in range(self.counts.shape[0] - 1, -1, -1):
            row = self.counts[m_idx]
            for e_idx in np.nonzero(row)[0]:
                out.append((int(row[e_idx]), self.m_value(m_idx),
                            self.e_value(int(e_idx))))
        return out

    def __eq__(self, other):
        if not isinstance(other, DoSHistogram):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.counts, other.counts)

    __hash__ = None


# -- the vectorized walk ----------------------------------------------------

def enumerate_shard(spec: LatticeSpec, shard: range,
                    block_bits: int = BLOCK_BITS) -> DoSHistogram:
    """Classify every configuration index in the shard's range into g(M, E).

    Args:
        spec:   lattice geometry and coupling.
        shard:  range of configuration indices to walk, step 1.
        block_bits: log2 of the aligned block of indices that shares one
                table of low-index bond words (clamped to N).

    Returns:
        Partial histogram counting exactly the shard's configurations.
    """
    start, end = shard.start, shard.stop
    if shard.step != 1 or not 0 <= start <= end <= spec.num_configs:
        raise ValueError(f"shard {shard} invalid for 2^{spec.num_spins} "
                         f"configurations")
    n, b = spec.num_spins, spec.num_bonds
    k = min(block_bits, n)
    size = 1 << k
    # Index H*2^k + L: the bond words of L come from the table, those of the
    # base H*2^k are scalars XORed into it, and the up spins of both add.
    # key = ups*(B+1) + anti is the flat (spin excess, energy) cell.
    low = np.arange(size, dtype=np.uint64)
    table = spec.bond_words(low)
    key_low = np.bitwise_count(low).astype(np.intp) * (b + 1)
    cells = (n + 1) * (b + 1)
    flat = np.zeros(cells, dtype=np.int64)

    def block_counts(words, lo=0, hi=size):
        # Histogram of ups*(B+1) + anti over table rows [lo, hi) XOR the
        # scalar bond words, packed in one int with word i at bit 64i.
        anti = np.bitwise_count(table[0][lo:hi] ^ (words & WORD))
        for i, word in enumerate(table[1:], 1):
            anti += np.bitwise_count(word[lo:hi] ^ (words >> 64 * i & WORD))
        return np.bincount(key_low[lo:hi] + anti)

    def add(counts, shift, times=1):
        flat[shift:shift + counts.size] += counts if times == 1 else times * counts

    # Partial blocks at the shard's cuts, each on its own.
    first, stop = -(-start >> k), end >> k  # heads of the whole blocks
    for piece in ([range(start, end)] if first > stop else
                  [range(start, first << k), range(stop << k, end)]):
        if piece:
            base = piece.start >> k << k
            words = sum(word << 64 * i
                        for i, word in enumerate(spec.bond_words(base)))
            add(block_counts(words, piece.start - base, piece.stop - base),
                base.bit_count() * (b + 1))

    # Whole blocks.  The table's words lie inside the support R, the bond
    # bits that touch a low site, so popcount(t ^ s) = popcount(t ^ (s & R))
    # + popcount(s & ~R): a block's histogram is that of its class s & R,
    # shifted by popcount(s & ~R) anti-aligned bonds.  Each chunk of bases
    # bins each of its classes once.
    support = [np.uint64(r) for r in spec.bond_support(size - 1)]
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
        # Blocks per (class, shift), keyed key * cells + shift: sorted, each
        # class's shifts come together, so one class histogram is alive at
        # a time.
        blocks = Counter([key * cells + shift
                          for key, shift in zip(keys, shifts.tolist())])
        binned = None
        for cell in sorted(blocks):
            key, shift = divmod(cell, cells)
            if key != binned:
                binned, counts = key, block_counts(key)
            add(counts, shift, blocks[cell])
    counts = flat.reshape(n + 1, b + 1)
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
    # Runs in the shard's own process.  Replies (histogram, its own
    # interval), or if the walk raised, (the pickled exception, or None if
    # it does not pickle, and its formatted traceback).
    try:
        t0 = time.perf_counter()
        hist = enumerate_shard(spec, shard)
        reply = hist, time.perf_counter() - t0
    except Exception as exc:
        import traceback  # only a failed walk needs it
        try:
            pickled = pickle.dumps(exc)
        except Exception:
            pickled = None
        reply = pickled, traceback.format_exc()
    conn.send(reply)
    conn.close()


def full_dos_timed(spec: LatticeSpec, workers: int | None = None):
    """Complete density of states plus timing.

    With more than one worker, each shard runs in its own process, started
    for this call.  An exception in a worker is raised here, its traceback
    chained as a RemoteTraceback; a worker that exits without replying
    raises RuntimeError.

    Returns:
        (histogram, wall_seconds, per_worker_seconds) where the per-worker
        list holds each worker's own enumeration interval.
    """
    if workers is None:
        # Auto mode walks a lattice of at most one block serially.
        workers = (available_parallelism()
                   if spec.num_configs > 1 << BLOCK_BITS else 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    """(histogram, seconds) of each shard, each walked in a process of its own."""
    # Imported here: a serial walk never loads multiprocessing (~0.5 MB).
    from multiprocessing import Pipe, Process
    from multiprocessing.connection import wait

    pending = {}
    try:
        for i, shard in enumerate(shards):
            recv, send = Pipe(duplex=False)
            proc = Process(target=_shard_worker, args=(spec, shard, send),
                           daemon=True)
            try:
                proc.start()
            except BaseException:
                recv.close()
                raise
            finally:
                # Only the worker may hold the sending end, so its exit
                # ends the pipe.
                send.close()
            pending[recv] = i, proc
        results = [None] * len(shards)
        while pending:
            for recv in wait(list(pending)):
                try:
                    reply = recv.recv()
                except EOFError:
                    reply = None
                i, proc = pending.pop(recv)
                recv.close()
                proc.join()
                if reply is None:
                    raise RuntimeError(f"shard worker {i} exited with code "
                                       f"{proc.exitcode} without a result")
                value, detail = reply
                if isinstance(detail, str):  # the walk raised
                    try:
                        exc = pickle.loads(value)
                    except Exception:
                        exc = RuntimeError(f"shard worker {i} raised an "
                                           f"exception that cannot be rebuilt")
                    raise exc from RemoteTraceback(detail)
                results[i] = reply
        return results
    finally:
        for recv, (_, proc) in pending.items():
            recv.close()
            proc.terminate()
            proc.join()


def full_dos(spec: LatticeSpec, workers: int | None = None) -> DoSHistogram:
    """Complete density of states using `workers` parallel shard processes."""
    hist, _, _ = full_dos_timed(spec, workers)
    return hist
