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


def partition_point(dos: DoSHistogram, h: float, temperature: float) -> ThermoPoint:
    """Observables at one (h, T): the one-point case of `thermo_sweep`."""
    return thermo_sweep(dos, h, [temperature])[0]


def thermo_sweep(dos: DoSHistogram, h: float, temps) -> list[ThermoPoint]:
    """log Z and the standard observables at field h over a temperature grid.

    The inputs are checked, and the cells of g(M, E) tabulated, once per sweep.

    Args:
        dos: complete density of states (total count must be 2^N).
        h:   external field, same units as J.
        temps: nonempty, strictly increasing grid of finite T > 0, in units
            of J (k_B = 1).

    Raises:
        ValueError: for a non-finite h, a bad grid, an incomplete/malformed
            histogram, or an observable outside the float range (say |h*N|
            or |J*B| near 1e308, or T near 1e-310).
    """
    temps = list(temps)
    if not math.isfinite(h):
        raise ValueError(f"field h must be finite, got {h}")
    if not temps:
        raise ValueError("temperature list must be nonempty")
    for t in temps:
        if not (0 < t < math.inf):
            raise ValueError(f"temperature must be finite and > 0, got {t}")
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise ValueError("temperatures must be strictly increasing")
    if dos.total() != dos.spec.num_configs:
        raise ValueError(
            f"histogram total {dos.total()} != 2^{dos.spec.num_spins}; "
            f"not a complete density of states"
        )

    points = []
    # Overflow shows up as inf or NaN in the result, checked below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # (g, M, E - hM) over nonzero cells; counts are exact in float64.
        m_idx, e_idx = np.nonzero(dos.counts)
        g = dos.counts[m_idx, e_idx].astype(np.float64)
        m = (2 * m_idx - dos.spec.num_spins).astype(np.float64)
        e = (2 * e_idx - dos.spec.num_bonds).astype(np.float64) * dos.energy_scale
        energy = e - h * m
        for temperature in temps:
            x = -energy / temperature
            shift = x.max()
            w = g * np.exp(x - shift)
            s = w.sum()
            log_z = float(shift + np.log(s))
            p = w / s
            u = float(p @ energy)
            mean_m = float(p @ m)
            # Central moments keep the variances nonnegative.  A cell whose
            # weight underflowed to 0 adds 0, not 0 * inf = NaN.
            var_e = p @ np.where(p > 0, (energy - u) ** 2, 0.0)
            var_m = p @ (m - mean_m) ** 2
            point = ThermoPoint(
                field=h,
                temperature=temperature,
                log_z=log_z,
                free_energy=-temperature * log_z,
                internal_energy=u,
                specific_heat=float(var_e / np.float64(temperature) ** 2),
                mean_magnetization=mean_m,
                susceptibility=float(var_m / temperature),
            )
            if not all(map(math.isfinite, astuple(point))):
                raise ValueError(f"observables at h={h}, T={temperature} fall "
                                 f"outside the float range")
            points.append(point)
    return points
