"""Exact thermodynamics from a density of states at arbitrary field and temperature.

Z(h, T) = sum over cells of g(M, E) * exp(-(E - h*M)/T), with k_B = 1 and
T in units of J.  All sums run in the log domain (max-shifted
exponentials), so nothing overflows even at T = 0.01 for 40 spins, where
the bare Boltzmann factor would exceed any float.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from .enumeration import DoSHistogram


@dataclass(frozen=True)
class ThermoPoint:
    """Observables of one (h, T) evaluation.

    free_energy        F = -T log Z
    internal_energy    U = <H>
    specific_heat      C = (<H^2> - <H>^2) / T^2
    mean_magnetization <M>
    susceptibility     chi = (<M^2> - <M>^2) / T
    """

    field: float
    temperature: float
    log_z: float
    free_energy: float
    internal_energy: float
    specific_heat: float
    mean_magnetization: float
    susceptibility: float


def _cell_arrays(dos):
    """(g, M, E) float64 arrays over nonzero cells (counts are exact in float64)."""
    m_idx, e_idx = np.nonzero(dos.counts)
    g = dos.counts[m_idx, e_idx].astype(np.float64)
    m = (2 * m_idx - dos.spec.num_spins).astype(np.float64)
    e = (2 * e_idx - dos.spec.num_bonds).astype(np.float64) * dos.energy_scale
    return g, m, e


def partition_point(dos: DoSHistogram, h: float, temperature: float) -> ThermoPoint:
    """Evaluate log Z and the standard observables at one (h, T).

    Args:
        dos: complete density of states (total count must be 2^N).
        h:   external field, same units as J.
        temperature: T > 0 in units of J (k_B = 1).

    Raises:
        ValueError: for a non-finite h, T <= 0 or non-finite, an
            incomplete/malformed histogram, or an observable outside the
            float range (say |h*N| or |J*B| near 1e308, or T near 1e-310).
    """
    if not math.isfinite(h):
        raise ValueError(f"field h must be finite, got {h}")
    if not (0 < temperature < math.inf):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    if dos.total() != dos.spec.num_configs:
        raise ValueError(
            f"histogram total {dos.total()} != 2^{dos.spec.num_spins}; "
            f"not a complete density of states"
        )
    # Overflow shows up as inf or NaN in the result, checked below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, m, e = _cell_arrays(dos)
        energy = e - h * m
        x = -energy / temperature
        shift = x.max()
        w = g * np.exp(x - shift)
        s = w.sum()
        log_z = float(shift + np.log(s))
        p = w / s
        u = float(p @ energy)
        mean_m = float(p @ m)
        # Central-moment form keeps the variances nonnegative by construction.
        var_e = p @ (energy - u) ** 2
        var_m = p @ (m - mean_m) ** 2
        specific_heat = float(var_e / np.float64(temperature) ** 2)
        susceptibility = float(var_m / temperature)

    point = ThermoPoint(
        field=h,
        temperature=temperature,
        log_z=log_z,
        free_energy=-temperature * log_z,
        internal_energy=u,
        specific_heat=specific_heat,
        mean_magnetization=mean_m,
        susceptibility=susceptibility,
    )
    if not all(map(math.isfinite, astuple(point))):
        raise ValueError(f"observables at h={h}, T={temperature} fall outside "
                         f"the float range")
    return point


def thermo_sweep(dos: DoSHistogram, h: float, temps) -> list[ThermoPoint]:
    """partition_point at each temperature of a strictly increasing grid."""
    temps = list(temps)
    if not temps:
        raise ValueError("temperature list must be nonempty")
    if any(t <= 0 for t in temps):
        raise ValueError("all temperatures must be > 0")
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise ValueError("temperatures must be strictly increasing")
    return [partition_point(dos, h, t) for t in temps]
