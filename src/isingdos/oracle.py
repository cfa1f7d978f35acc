"""Deliberately naive reference engine: explicit spin arrays and neighbor loops.

Nothing here touches the split-index kernel or its axis masks.  One
definition gives a configuration's (M, E): `decode_spins` site by site, then
`oracle_magnetization` and `oracle_energy` spin by spin and bond by bond (the
full walk runs the same cores, with the spec's lookups fetched once).
Per-index checks, the full DoS and brute-force Z all run it, so agreement
with the fast engine is evidence, not tautology.  Slow; capped at 24 spins.
"""

import collections
import functools
import math

from .histogram import DoSHistogram
from .lattice import LatticeSpec

#: Full enumeration with per-site Python loops stays tolerable up to here.
ORACLE_MAX_SPINS = 24


def site_order(spec: LatticeSpec) -> list[tuple[int, int, int]]:
    """(row, col, layer) triples in row-major order, one per spin array slot."""
    return [(r, c, l)
            for r in range(spec.rows)
            for c in range(spec.cols)
            for l in range(spec.depth)]


@functools.lru_cache(maxsize=64)
def _bit_positions(spec: LatticeSpec) -> tuple[int, ...]:
    # Shared index convention: bit of site (r, c, l) within the global index.
    return tuple((l * spec.cols + c) * spec.rows + r
                 for r, c, l in site_order(spec))


def decode_spins(spec: LatticeSpec, index: int) -> list[int]:
    """Decode a configuration index into +/-1 spins, one per (row, col, layer)."""
    if not 0 <= index < spec.num_configs:
        raise ValueError(f"index {index} outside [0, 2^{spec.num_spins})")
    return _spins(_bit_positions(spec), index)


def _spins(positions, index):
    return [1 if (index >> p) & 1 else -1 for p in positions]


@functools.lru_cache(maxsize=64)
def bond_pairs(spec: LatticeSpec) -> tuple[tuple[int, int], ...]:
    """Every periodic nearest-neighbor bond exactly once, as spin-array index pairs.

    Each site is paired with its +1 neighbor along every axis (rows, cols,
    and layers when depth > 1), so an axis of length 2 contributes the
    same pair of sites twice -- the two distinct bonds of a periodic ring
    of two.
    """
    sites = site_order(spec)
    pairs = []
    for here, (r, c, l) in enumerate(sites):
        pairs.append((here, sites.index(((r + 1) % spec.rows, c, l))))
        pairs.append((here, sites.index((r, (c + 1) % spec.cols, l))))
        if spec.depth > 1:
            pairs.append((here, sites.index((r, c, (l + 1) % spec.depth))))
    return tuple(pairs)


def oracle_energy(spins, spec: LatticeSpec):
    """E = -J * sum over bonds of S_i * S_j, each bond counted once."""
    return _energy(spins, spec.coupling, bond_pairs(spec))


def _energy(spins, coupling, pairs):
    return -coupling * sum(spins[i] * spins[j] for i, j in pairs)


def oracle_magnetization(spins) -> int:
    """Spin excess M = sum of all spin values."""
    return sum(spins)


def _walk(spec: LatticeSpec):
    """(M, E) of every configuration in index order, by the per-index definition."""
    n = spec.num_spins
    if n > ORACLE_MAX_SPINS:
        raise ValueError(
            f"{n} spins exceeds the oracle cap of {ORACLE_MAX_SPINS}"
        )
    # The spec's lookups, once per walk rather than once per configuration.
    positions, pairs = _bit_positions(spec), bond_pairs(spec)
    for index in range(spec.num_configs):
        spins = _spins(positions, index)
        yield oracle_magnetization(spins), _energy(spins, spec.coupling, pairs)


def oracle_full_dos(spec: LatticeSpec) -> DoSHistogram:
    """Exact g(M, E) by brute enumeration of all 2^N configurations.

    Raises:
        ValueError: if the lattice has more than ORACLE_MAX_SPINS spins.
    """
    hist = DoSHistogram(spec)
    for (m, e), count in collections.Counter(_walk(spec)).items():
        hist.counts[hist.m_index(m), hist.e_index(e)] += count
    return hist


def brute_force_log_z(spec: LatticeSpec, h: float, temperature: float) -> float:
    """log of the partition function by direct summation of exp(-H/T).

    One Boltzmann term per configuration, H = E - h*M, summed with fsum.
    No log-sum-exp shift: this is the deliberately plain route, usable
    wherever exp(-H/T) stays within float range.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    return math.log(math.fsum(math.exp(-(e - h * m) / temperature)
                              for m, e in _walk(spec)))
