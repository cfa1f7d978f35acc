"""Deliberately naive reference engine: explicit spin arrays and neighbor loops.

Nothing here touches the bit-word kernels or their tables.  Configurations
are decoded site by site, energies are summed bond by bond, and the full
density of states is accumulated one configuration at a time.  Agreement
with the fast engine is therefore evidence, not tautology.  Slow on
purpose; capped at 24 spins.
"""

import functools
import math

from .enumeration import DoSHistogram
from .lattice import LatticeSpec

#: Full enumeration with per-site Python loops stays tolerable up to here.
ORACLE_MAX_SPINS = 24


def site_order(spec: LatticeSpec) -> list[tuple[int, int, int]]:
    """(row, col, layer) triples in row-major order, one per spin array slot."""
    return [(r, c, l)
            for r in range(spec.rows)
            for c in range(spec.cols)
            for l in range(spec.depth)]


def _bit_position(spec, r, c, l):
    # Shared index convention: bit of site (r, c, l) within the global index.
    return (l * spec.cols + c) * spec.rows + r


def decode_spins(spec: LatticeSpec, index: int) -> list[int]:
    """Decode a configuration index into +/-1 spins, one per (row, col, layer)."""
    if not 0 <= index < spec.num_configs:
        raise ValueError(f"index {index} outside [0, 2^{spec.num_spins})")
    return [1 if (index >> _bit_position(spec, r, c, l)) & 1 else -1
            for r, c, l in site_order(spec)]


@functools.lru_cache(maxsize=64)
def bond_pairs(spec: LatticeSpec) -> tuple[tuple[int, int], ...]:
    """Every periodic nearest-neighbor bond exactly once, as spin-array index pairs.

    Each site is paired with its +1 neighbor along every axis (rows, cols,
    and layers when depth > 1), so an axis of length 2 contributes the
    same pair of sites twice -- the two distinct bonds of a periodic ring
    of two.
    """
    flat = {}
    for i, rcl in enumerate(site_order(spec)):
        flat[rcl] = i
    pairs = []
    for r, c, l in site_order(spec):
        here = flat[(r, c, l)]
        pairs.append((here, flat[((r + 1) % spec.rows, c, l)]))
        pairs.append((here, flat[(r, (c + 1) % spec.cols, l)]))
        if spec.depth > 1:
            pairs.append((here, flat[(r, c, (l + 1) % spec.depth)]))
    return tuple(pairs)


def oracle_energy(spins, spec: LatticeSpec):
    """E = -J * sum over bonds of S_i * S_j, each bond counted once."""
    return -spec.coupling * sum(spins[i] * spins[j] for i, j in bond_pairs(spec))


def oracle_magnetization(spins) -> int:
    """Spin excess M = sum of all spin values."""
    return sum(spins)


def _walk(spec: LatticeSpec):
    """(M, E) of every configuration in index order, spin by spin and bond by bond."""
    n = spec.num_spins
    if n > ORACLE_MAX_SPINS:
        raise ValueError(
            f"{n} spins exceeds the oracle cap of {ORACLE_MAX_SPINS}"
        )
    positions = [_bit_position(spec, r, c, l) for r, c, l in site_order(spec)]
    pairs = bond_pairs(spec)
    for index in range(spec.num_configs):
        spins = [1 if (index >> p) & 1 else -1 for p in positions]
        yield sum(spins), -spec.coupling * sum(spins[i] * spins[j] for i, j in pairs)


def oracle_full_dos(spec: LatticeSpec) -> DoSHistogram:
    """Exact g(M, E) by brute enumeration of all 2^N configurations.

    Raises:
        ValueError: if the lattice has more than ORACLE_MAX_SPINS spins.
    """
    hist = DoSHistogram(spec)
    for m, e in _walk(spec):
        hist.counts[hist.m_index(m), hist.e_index(e)] += 1
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
