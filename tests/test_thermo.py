import math
from dataclasses import astuple

import pytest

from isingdos import (
    DoSHistogram,
    LatticeSpec,
    full_dos,
    partition_point,
    thermo_sweep,
)


def closed_form_2x2_z(t):
    return 2 * math.exp(8 / t) + 12 + 2 * math.exp(-8 / t)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_2x2_closed_form(dos2x2, t):
    pt = partition_point(dos2x2, 0.0, t)
    assert math.exp(pt.log_z) == pytest.approx(closed_form_2x2_z(t), rel=1e-12)


def test_high_temperature_limit(dos4x4):
    pt = partition_point(dos4x4, 0.0, 1e6)
    assert pt.log_z == pytest.approx(16 * math.log(2), rel=1e-3)
    # U tends to the flat average of E over all configurations (here 0).
    assert abs(pt.internal_energy) < 1e-3
    assert abs(pt.mean_magnetization) < 1e-12


def test_ground_state_dominance_at_low_temperature(dos4x4):
    pt = partition_point(dos4x4, 0.0, 0.1)
    assert pt.internal_energy == pytest.approx(-32, abs=1e-6)
    assert pt.log_z == pytest.approx(320 + math.log(2), abs=1e-6)


@pytest.mark.parametrize("dims", [(2, 3, 1), (3, 3, 1), (4, 4, 1)])
def test_low_temperature_limits_small_lattices(dims):
    spec = LatticeSpec(*dims)
    dos = full_dos(spec, workers=1)
    pt = partition_point(dos, 0.0, 0.05)
    assert pt.internal_energy == pytest.approx(-spec.num_bonds, abs=1e-6)
    assert pt.specific_heat == pytest.approx(0.0, abs=1e-6)
    assert pt.specific_heat >= 0


def test_extreme_low_temperature_stays_finite(dos4x4):
    pt = partition_point(dos4x4, 0.0, 0.02)
    assert math.isfinite(pt.log_z)
    assert pt.log_z == pytest.approx(32 / 0.02 + math.log(2), rel=1e-9)


def test_field_symmetry(dos4x4):
    for h in (0.5, 2.0):
        plus = partition_point(dos4x4, h, 1.0)
        minus = partition_point(dos4x4, -h, 1.0)
        assert plus.log_z == pytest.approx(minus.log_z, abs=1e-12)
        assert plus.mean_magnetization == pytest.approx(
            -minus.mean_magnetization, abs=1e-12)


def test_field_flip_negates_magnetization_2x2(dos2x2):
    plus = partition_point(dos2x2, 2.0, 1.0)
    minus = partition_point(dos2x2, -2.0, 1.0)
    assert plus.mean_magnetization == pytest.approx(
        -minus.mean_magnetization, abs=1e-12)
    assert plus.mean_magnetization > 0


def test_log_z_bounds(dos4x4):
    # Ground term alone and the flat upper bound bracket log Z.
    for h, t in [(0.0, 0.7), (0.5, 1.3), (1.0, 3.0)]:
        pt = partition_point(dos4x4, h, t)
        h_min = min(e - h * m for _, m, e in dos4x4.cells())
        assert pt.log_z >= -h_min / t
        assert pt.log_z <= 16 * math.log(2) + (-h_min / t) + 1e-12


def test_free_energy_relation(dos4x4):
    pt = partition_point(dos4x4, 0.0, 1.7)
    assert pt.free_energy == pytest.approx(-1.7 * pt.log_z, rel=1e-15)


def test_sweep_matches_pointwise(dos4x4):
    (single,) = thermo_sweep(dos4x4, 0.0, [1.0])
    assert single == partition_point(dos4x4, 0.0, 1.0)


def test_sweep_specific_heat_has_single_interior_peak(dos4x4):
    temps = [0.5 * i for i in range(1, 11)]
    points = thermo_sweep(dos4x4, 0.0, temps)
    c = [p.specific_heat for p in points]
    assert all(x >= 0 for x in c)
    assert all(p.susceptibility >= 0 for p in points)
    assert max(abs(p.mean_magnetization) for p in points) <= 1e-12
    maxima = [i for i in range(1, len(c) - 1)
              if c[i - 1] < c[i] and c[i] > c[i + 1]]
    assert len(maxima) == 1
    assert c[maxima[0]] > c[0] and c[maxima[0]] > c[-1]


def test_sweep_validates_grid(dos2x2):
    with pytest.raises(ValueError):
        thermo_sweep(dos2x2, 0.0, [])
    with pytest.raises(ValueError):
        thermo_sweep(dos2x2, 0.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        thermo_sweep(dos2x2, 0.0, [2.0, 1.0])
    with pytest.raises(ValueError):
        thermo_sweep(dos2x2, 0.0, [-1.0, 1.0])


def test_rejects_nonpositive_temperature(dos2x2):
    with pytest.raises(ValueError, match="temperature"):
        partition_point(dos2x2, 0.0, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        partition_point(dos2x2, 0.0, -1.0)


@pytest.mark.parametrize("h,t", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                 (0.0, math.nan), (0.0, math.inf)])
def test_rejects_non_finite_field_or_temperature(dos2x2, h, t):
    with pytest.raises(ValueError, match="finite"):
        partition_point(dos2x2, h, t)


def test_rejects_incomplete_histogram():
    partial = DoSHistogram(LatticeSpec(2, 2))
    partial.counts[0, 0] = 3
    with pytest.raises(ValueError, match="complete"):
        partition_point(partial, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coupling,h,t", [(1, 1e308, 1.0), (1e308, 0.0, 1.0),
                                          (1, 0.0, 1e-310), (1, 0.0, 1e308)],
                         ids=["huge-field", "huge-coupling", "subnormal-temperature",
                              "huge-free-energy"])
def test_rejects_observables_past_float_range(coupling, h, t):
    dos = full_dos(LatticeSpec(2, 2, coupling=coupling), workers=1)
    with pytest.raises(ValueError, match="outside the float range"):
        partition_point(dos, h, t)


# Only the ground cells carry weight; every other cell's weight underflows to
# 0 while its squared deviation from U overflows, and must add 0 to C.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coupling,h,energy,magnetization", [
    (1, 1e200, -4e200, 4.0), (1e200, 0.0, -8e200, 0.0)],
    ids=["huge-field", "huge-coupling"])
def test_far_cells_add_nothing_to_the_variance(coupling, h, energy, magnetization):
    dos = full_dos(LatticeSpec(2, 2, coupling=coupling), workers=1)
    pt = partition_point(dos, h, 1.0)
    assert all(map(math.isfinite, astuple(pt)))
    assert pt.internal_energy == energy
    assert pt.specific_heat == 0.0
    assert pt.mean_magnetization == magnetization


@pytest.mark.filterwarnings("error")
def test_huge_temperature_stays_finite(dos2x2):
    pt = partition_point(dos2x2, 0.0, 1e300)
    assert all(map(math.isfinite, astuple(pt)))
    assert pt.log_z == pytest.approx(4 * math.log(2))
    assert pt.free_energy == pytest.approx(-1e300 * 4 * math.log(2))
