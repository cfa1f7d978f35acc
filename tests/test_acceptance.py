"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; integer comparisons are exact.
"""

import contextlib
import math
import time

import pytest

from isingdos import (
    LatticeSpec,
    available_parallelism,
    format_dos_csv,
    full_dos,
    partition_point,
    read_dos,
    run_bench,
    thermo_sweep,
)
from isingdos.cli import main as cli_main
from isingdos.oracle import brute_force_log_z

from dos4x4_reference import REFERENCE_4X4_CELLS


@contextlib.contextmanager
def criterion(number, title, notes=None):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    suffix = f" ({'; '.join(notes)})" if notes else ""
    print(f"criterion {number} ({title}): PASS{suffix}")


def test_criterion_1_reference_table_exact(tmp_path):
    notes = []
    with criterion(1, "4x4 reference table, cell-exact", notes):
        out = tmp_path / "dos4x4.csv"
        t0 = time.perf_counter()
        assert cli_main(["dos", "--rows", "4", "--cols", "4",
                         "--out", str(out)]) == 0
        elapsed = time.perf_counter() - t0
        dos = read_dos(str(out))
        assert dos.total() == 65536
        cells = dos.cells()
        assert len(cells) == 80  # every occupied cell of the 4x4 spectrum
        assert cells == REFERENCE_4X4_CELLS
        assert dos.count(16, -32) == 1
        assert dos.count(14, -24) == 16
        assert dos.count(2, 0) == 3680
        assert dos.count(0, 0) == 4356
        assert dos.count(0, 32) == 2
        assert dos.count(-8, -8) == 736
        assert elapsed < 5.0  # sanity bound; expected well under a second
        notes.append(f"{elapsed:.2f}s end to end")


def test_criterion_2_binomial_marginals(dos4x4):
    with criterion(2, "binomial marginals, exact"):
        def marginal(m):
            return int(dos4x4.counts[dos4x4.m_index(m)].sum())

        for m in range(-16, 17, 2):
            assert marginal(m) == math.comb(16, (16 + m) // 2)
        assert marginal(0) == 12870
        assert marginal(6) == 4368
        assert marginal(12) == 120


def test_criterion_3_oracle_equivalence(oracle_dos):
    lattices = [(2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1),
                (3, 4, 1), (4, 4, 1), (2, 2, 2), (2, 2, 3)]
    with criterion(3, "oracle equivalence on eight lattices, cell-exact"):
        for dims in lattices:
            spec = LatticeSpec(*dims)
            assert full_dos(spec, workers=1) == oracle_dos(spec), dims


@pytest.mark.parametrize("dims", [(4, 4, 1), (3, 4, 1)])
def test_criterion_4_shard_determinism(dims):
    with criterion(4, f"shard determinism on {dims[0]}x{dims[1]}"):
        spec = LatticeSpec(*dims)
        baseline = full_dos(spec, workers=1)
        for workers in (2, 3, 4, 8):
            assert full_dos(spec, workers=workers) == baseline, workers


def test_criterion_5_thermodynamic_limits(dos4x4, dos2x2):
    with criterion(5, "thermodynamic limits and 2x2 closed form"):
        pt = partition_point(dos4x4, 0.0, 1e6)
        assert abs(pt.log_z - 16 * math.log(2)) <= 1e-3 * 16 * math.log(2)
        assert abs(pt.mean_magnetization) <= 1e-12

        pt = partition_point(dos4x4, 0.0, 0.1)
        assert abs(pt.internal_energy - (-32)) <= 1e-6
        assert abs(pt.mean_magnetization) <= 1e-12

        sweep = thermo_sweep(dos4x4, 0.0, [0.5 * i for i in range(1, 11)])
        for point in sweep:
            assert point.specific_heat >= 0
            assert point.susceptibility >= 0
            assert abs(point.mean_magnetization) <= 1e-12

        for t in (0.5, 1.0, 2.0):
            closed = 2 * math.exp(8 / t) + 12 + 2 * math.exp(-8 / t)
            z = math.exp(partition_point(dos2x2, 0.0, t).log_z)
            assert abs(z - closed) <= 1e-12 * closed


def test_criterion_6_brute_force_partition_equivalence(dos4x4):
    notes = []
    with criterion(6, "brute-force Z equals DoS-based log Z", notes):
        worst = 0.0
        small = LatticeSpec(2, 3)
        small_dos = full_dos(small, workers=1)
        for h in (0.0, 0.5):
            for t in (0.5, 1.0, 2.0, 5.0):
                diff = abs(brute_force_log_z(LatticeSpec(4, 4), h, t)
                           - partition_point(dos4x4, h, t).log_z)
                worst = max(worst, diff)
                diff = abs(brute_force_log_z(small, h, t)
                           - partition_point(small_dos, h, t).log_z)
                worst = max(worst, diff)
        assert worst <= 1e-10
        notes.append(f"max |dlogZ| {worst:.2e}")


def test_criterion_7_scaling_shape():
    notes = []
    with criterion(7, "scaling shape", notes):
        # The time per configuration does not rise from 4x4 to 4x5 to 5x5:
        # a walk of every configuration costs at most ~N 2^N, and the orbit
        # and piece walks less.  Slack 1.5 takes host noise and an N 2^N
        # walk (25/20).  Each wall is the least of 9 runs, the lattices
        # taking turns, so a slow phase of a shared host slows all three.
        lattices = [(4, 4), (4, 5), (5, 5)]
        walls = dict.fromkeys(lattices, math.inf)
        for _ in range(9):
            for dims in lattices:
                record = run_bench(LatticeSpec(*dims), [1], repeats=1)[0]
                walls[dims] = min(walls[dims], record.wall_seconds)
        ns = [walls[dims] * 1e9 / 2 ** (dims[0] * dims[1]) for dims in lattices]
        for smaller, larger in zip(ns, ns[1:]):
            assert larger <= 1.5 * smaller, ns
        notes.append("ns per configuration " + ", ".join(
            f"{r}x{c} {v:.3g}" for (r, c), v in zip(lattices, ns)))

        cores = available_parallelism()
        if cores >= 4:
            records = run_bench(LatticeSpec(5, 5), [1, 4], repeats=3)
            speedup = records[1].speedup_vs_one
            assert speedup >= 2.8
            notes.append(f"5x5 speedup at 4 workers {speedup:.2f}")
        else:
            notes.append(
                f"speedup sub-check SKIPPED: machine exposes {cores} cores, "
                f"criterion applies on >= 4")


def test_criterion_8_robustness(tmp_path, dos4x4, capsys):
    with criterion(8, "documented error paths"):
        # degenerate periodic axis -> validation failure (1)
        assert cli_main(["dos", "--rows", "1", "--cols", "5", "--out", "-"]) == 1
        assert "degenerate periodic axis" in capsys.readouterr().err

        # spin count above the cap -> validation failure (1), cap named
        assert cli_main(["dos", "--rows", "5", "--cols", "9", "--out", "-"]) == 1
        assert "cap of 40" in capsys.readouterr().err

        # T <= 0 -> validation failure (1)
        good = tmp_path / "dos.csv"
        good.write_text(format_dos_csv(dos4x4), encoding="utf-8")
        assert cli_main(["thermo", str(good), "--tmin", "0", "--tmax", "1"]) == 1
        assert "error: validation:" in capsys.readouterr().err

        # malformed DoS file -> parse failure (1) with the line number
        bad = tmp_path / "bad.csv"
        bad.write_text(good.read_text().replace("4356,0,0", "4356,0"))
        assert cli_main(["verify", str(bad)]) == 1
        assert "error: parse: line" in capsys.readouterr().err

        # corrupted but parseable counts -> check failure (1), check named
        off = tmp_path / "off.csv"
        off.write_text(good.read_text().replace("4356,0,0", "4357,0,0"))
        assert cli_main(["verify", str(off)]) == 1
        assert "check-failed: total-count" in capsys.readouterr().err

        # zero in a worker list -> usage error (2)
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--rows", "3", "--cols", "3", "--workers", "1,0"])
        assert exc.value.code == 2

        # unwritable output -> I/O error (3)
        assert cli_main(["dos", "--rows", "2", "--cols", "2", "--workers", "1",
                         "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3
        assert "error: io:" in capsys.readouterr().err
