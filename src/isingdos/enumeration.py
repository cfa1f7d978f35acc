"""Exhaustive sharded walk of the configuration space and the g(M, E) histogram.

The 2^N indices split into contiguous, near-equal shards, each walked in
aligned blocks of 2^k indices H*2^k + L.  The anti-aligned bond masks of
the 2^k low parts L (per periodic axis, the index XOR its masked rotation,
packed into uint64 words) are tabulated once per shard; the masks are linear
over GF(2), so a block XORs its base's words into the table, takes one vector
popcount per word and bins (spin excess, exchange energy) with one bincount.
Counts are exact integers and shard results merge by elementwise addition,
so the total is bit-identical for any shard count or merge order."""

import os
import time
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .lattice import LatticeSpec

# Blocks of 2^12 indices keep the table and each step's temporaries in L2.
# 2^13 walks 5x5 ~20% faster but lifts a pool worker's peak RSS by 0.1-0.25 MB
# (2^14: ~0.5 MB), which counts once per worker (2-vCPU x86, numpy 2.4).
BLOCK_BITS = 12
#: Block bases whose scalars are computed in one vectorized step.
BASE_CHUNK = 256


@dataclass(frozen=True)
class Shard:
    """Half-open range [start_index, end_index) of configuration indices."""

    shard_id: int
    num_shards: int
    start_index: int
    end_index: int

    @property
    def size(self) -> int:
        return self.end_index - self.start_index


def make_shards(spec: LatticeSpec, num_shards: int) -> list[Shard]:
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
    shards = []
    start = 0
    for i in range(num_shards):
        size = base + (1 if i < extra else 0)
        shards.append(Shard(shard_id=i, num_shards=num_shards,
                            start_index=start, end_index=start + size))
        start += size
    return shards


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
        unit = energy if scale == 1 else energy / scale
        iu = int(round(unit))
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

    def magnetization_marginal(self, m: int) -> int:
        """Total count at fixed spin excess, summed over energies."""
        return int(self.counts[self.m_index(m)].sum())

    def __eq__(self, other):
        if not isinstance(other, DoSHistogram):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.counts, other.counts)

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, DoSHistogram):
            return NotImplemented
        if self.spec != other.spec:
            raise ValueError("cannot add histograms of different lattices")
        return DoSHistogram(self.spec, self.counts + other.counts)


# -- the vectorized walk ----------------------------------------------------

def enumerate_shard(spec: LatticeSpec, shard: Shard,
                    block_bits: int = BLOCK_BITS) -> DoSHistogram:
    """Classify every configuration index in the shard's range into g(M, E).

    Args:
        spec:   lattice geometry and coupling.
        shard:  half-open index range to walk.
        block_bits: log2 of the aligned block of indices that shares one
                table of low-index bond words (clamped to N).

    Returns:
        Partial histogram counting exactly the shard's configurations.
    """
    start, end = shard.start_index, shard.end_index
    if not 0 <= start <= end <= spec.num_configs:
        raise ValueError(f"shard range [{start}, {end}) "
                         f"invalid for 2^{spec.num_spins} configurations")
    n, b = spec.num_spins, spec.num_bonds
    k = min(block_bits, n)
    size = 1 << k
    # Index H*2^k + L: the bond words of L come from the table, those of the
    # base H*2^k are scalars XORed into it, and the up spins of both add.
    # key = ups*(B+1) + anti is the flat (spin excess, energy) cell.
    low = np.arange(size, dtype=np.uint64)
    table = spec.bond_words(low)
    key_low = np.bitwise_count(low).astype(np.intp) * (b + 1)
    flat = np.zeros((n + 1) * (b + 1), dtype=np.int64)
    last = (end + size - 1) >> k  # one past the last block the shard meets
    for first in range(start >> k, last, BASE_CHUNK):
        heads = range(first, min(first + BASE_CHUNK, last))
        bases = np.arange(heads.start, heads.stop, dtype=np.uint64) << np.uint64(k)
        offsets = (np.bitwise_count(bases).astype(np.intp) * (b + 1)).tolist()
        for h, off, *scalars in zip(heads, offsets, *spec.bond_words(bases)):
            lo, hi = max(start - (h << k), 0), min(end - (h << k), size)
            anti = np.bitwise_count(table[0][lo:hi] ^ scalars[0])
            for word, scalar in zip(table[1:], scalars[1:]):
                anti += np.bitwise_count(word[lo:hi] ^ scalar)
            counts = np.bincount(key_low[lo:hi] + anti)
            flat[off:off + counts.size] += counts
    counts = flat.reshape(n + 1, b + 1)
    if spec.coupling < 0:
        # E = J * (2*anti - B): column `anti` is the energy index for J > 0,
        # and J < 0 mirrors the energy axis.
        counts = counts[:, ::-1].copy()
    return DoSHistogram(spec, counts)


def merge(parts, spec: LatticeSpec | None = None) -> DoSHistogram:
    """Elementwise sum of shard histograms (order-independent).

    Args:
        parts: histograms sharing one spec.
        spec:  required when parts is empty (yields the zero histogram).
    """
    parts = list(parts)
    if not parts:
        if spec is None:
            raise ValueError("merge of no parts needs an explicit spec")
        return DoSHistogram(spec)
    if spec is not None and parts[0].spec != spec:
        raise ValueError("declared spec does not match the parts")
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


# -- parallel driver ---------------------------------------------------------

def available_parallelism() -> int:
    """Usable CPU count (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shard_worker(args):
    # Runs in a worker process; each worker reports its own interval.
    spec, shard, block_bits = args
    t0 = time.perf_counter()
    hist = enumerate_shard(spec, shard, block_bits=block_bits)
    return hist.counts, time.perf_counter() - t0


def full_dos_timed(spec: LatticeSpec, workers: int | None = None,
                   block_bits: int = BLOCK_BITS):
    """Complete density of states plus timing.

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
    jobs = [(spec, s, block_bits) for s in shards]
    t0 = time.perf_counter()
    if workers == 1:
        results = [_shard_worker(jobs[0])]
    else:
        with Pool(processes=workers) as pool:
            results = pool.map(_shard_worker, jobs)
    wall = time.perf_counter() - t0
    total = results[0][0].copy()
    for counts, _ in results[1:]:
        total += counts
    return DoSHistogram(spec, total), wall, [secs for _, secs in results]


def full_dos(spec: LatticeSpec, workers: int | None = None) -> DoSHistogram:
    """Complete density of states using `workers` parallel shard processes."""
    hist, _, _ = full_dos_timed(spec, workers)
    return hist
