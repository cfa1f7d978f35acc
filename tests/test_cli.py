import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from isingdos import DoSHistogram, LatticeSpec, ResultMismatchError, \
    format_dos_csv, full_dos, parse_dos, read_dos
from isingdos import cli
from isingdos.cli import main

from conftest import DOS_2X2_CELLS

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


# -- dos ------------------------------------------------------------------------

def test_dos_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "dos.csv"
    assert run_cli("dos", "--rows", "3", "--cols", "3",
                   "--workers", "1", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "N=9 spins, B=18 bonds, 512 configurations" in captured.out
    assert read_dos(str(out)) == full_dos(LatticeSpec(3, 3), workers=1)


def test_dos_stdout_mode(capsys):
    assert run_cli("dos", "--rows", "2", "--cols", "2",
                   "--workers", "1", "--out", "-") == 0
    captured = capsys.readouterr()
    data_lines = captured.out.splitlines()[2:]
    assert len(data_lines) == len(DOS_2X2_CELLS)
    # summary moves to stderr so stdout stays parseable
    assert "configurations" in captured.err
    assert parse_dos(captured.out).cells() == DOS_2X2_CELLS


def test_dos_auto_workers_walk_tiny_lattice_serially(capsys):
    assert run_cli("dos", "--rows", "2", "--cols", "2", "--out", "-") == 0
    captured = capsys.readouterr()
    assert "16 configurations, 1 worker(s)" in captured.err
    assert parse_dos(captured.out).cells() == DOS_2X2_CELLS


def test_dos_json_flag(tmp_path):
    out = tmp_path / "dos.json"
    assert run_cli("dos", "--rows", "2", "--cols", "3",
                   "--workers", "1", "--out", str(out), "--json") == 0
    assert read_dos(str(out)) == full_dos(LatticeSpec(2, 3), workers=1)


def test_dos_rejects_degenerate_axis(capsys):
    assert run_cli("dos", "--rows", "1", "--cols", "5", "--out", "-") == 1
    assert "error: validation: degenerate periodic axis" in capsys.readouterr().err


def test_dos_rejects_over_spin_cap(capsys):
    assert run_cli("dos", "--rows", "5", "--cols", "9", "--out", "-") == 1
    assert "cap of 40" in capsys.readouterr().err


@pytest.mark.parametrize("coupling", ["nan", "inf", "-inf"])
def test_dos_rejects_non_finite_coupling(tmp_path, capsys, coupling):
    out = tmp_path / "dos.csv"
    assert run_cli("dos", "--rows", "2", "--cols", "2", "--workers", "1",
                   f"--coupling={coupling}", "--out", str(out)) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: validation:")
    assert "finite" in first
    assert not out.exists()


def test_dos_unwritable_path_is_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "dos.csv"
    assert run_cli("dos", "--rows", "2", "--cols", "2",
                   "--workers", "1", "--out", str(missing)) == 3
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: io:")
    assert f"'{missing}'" in first and ".partial" not in first


def test_dos_rejects_zero_workers():
    with pytest.raises(SystemExit) as exc:
        run_cli("dos", "--rows", "2", "--cols", "2", "--workers", "0",
                "--out", "-")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["dos", "bench"])
def test_more_workers_than_configurations_is_validation_error(command, capsys):
    argv = ["--out", "-"] if command == "dos" else []
    assert run_cli(command, "--rows", "2", "--cols", "2", "--workers", "17",
                   *argv) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first == "error: validation: workers must be in [1, 2^4], got 17"


# -- verify -----------------------------------------------------------------------

@pytest.fixture()
def dos4x4_file(tmp_path, dos4x4):
    path = tmp_path / "dos4x4.csv"
    path.write_text(format_dos_csv(dos4x4), encoding="utf-8")
    return path


@pytest.fixture
def dos2x2_file(tmp_path, dos2x2):
    path = tmp_path / "dos2x2.csv"
    path.write_text(format_dos_csv(dos2x2), encoding="utf-8")
    return path


def test_verify_passes_good_file(dos4x4_file, capsys):
    assert run_cli("verify", str(dos4x4_file)) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_flags_perturbed_count(dos4x4_file, capsys):
    text = dos4x4_file.read_text().replace("4356,0,0", "4357,0,0")
    dos4x4_file.write_text(text)
    assert run_cli("verify", str(dos4x4_file)) == 1
    captured = capsys.readouterr()
    assert "FAIL total-count" in captured.out
    assert captured.err.startswith("error: check-failed: total-count")


def test_verify_flags_odd_anti_aligned_count(tmp_path, dos4x4, capsys):
    # One M = 0 configuration moved to a column of odd anti-aligned bond count.
    counts = dos4x4.counts.copy()
    counts[8, 8] -= 1
    counts[8, 9] += 1
    path = tmp_path / "dos.csv"
    path.write_text(format_dos_csv(DoSHistogram(dos4x4.spec, counts)), encoding="utf-8")
    assert run_cli("verify", str(path)) == 1
    captured = capsys.readouterr()
    assert "FAIL energy-grid" in captured.out and "FAIL total-count" not in captured.out
    assert captured.err == "error: check-failed: energy-grid\n"


def test_verify_reports_parse_line_on_truncated_file(dos4x4_file, capsys):
    lines = dos4x4_file.read_text().splitlines()
    lines[6] = lines[6].rsplit(",", 1)[0]
    dos4x4_file.write_text("\n".join(lines))
    assert run_cli("verify", str(dos4x4_file)) == 1
    assert "error: parse: line 7" in capsys.readouterr().err


_HEAD_2X2 = '"rows": 2, "cols": 2, "depth": 1, "N": 4, "B": 8, "version": 1'
MALFORMED = {
    "csv-infinite-energy": "# rows=2 cols=2 depth=1 J=1 N=4 B=8 version=1\n"
                           "count,M,E\n1,4,inf\n",
    "json-infinite-energy": '{%s, "J": 1, "cells": [[1, 4, Infinity]]}' % _HEAD_2X2,
    "json-cells-not-a-list": '{%s, "J": 1, "cells": 5}' % _HEAD_2X2,
    "json-string-coupling": '{%s, "J": "1", "cells": []}' % _HEAD_2X2,
    "json-bool-count": '{%s, "J": 1, "cells": [[true, 4, -8]]}' % _HEAD_2X2,
    "csv-count-past-int64": "# rows=2 cols=2 depth=1 J=1 N=4 B=8 version=1\n"
                            "count,M,E\n99999999999999999999999,4,-8\n",
    "json-nested-too-deeply": '{"cells": %s}' % ("[" * 100_000 + "]" * 100_000),
    "csv-not-utf8": b"# rows=2 cols=2 depth=1 J=1 N=4 B=8 version=1\n"
                    b"count,M,E\n1,4,-8\xff\n",
    "csv-header-token-without-equals": "# rows=2 cols=2 depth=1 J=1 N=4 B=8 "
                                       "version=1 spins\ncount,M,E\n",
    "csv-header-missing-key": "# rows=2 cols=2 depth=1 N=4 B=8 version=1\n"
                              "count,M,E\n",
    "csv-spin-count-off-geometry": "# rows=2 cols=2 depth=1 J=1 N=5 B=8 "
                                   "version=1\ncount,M,E\n",
    "json-two-item-cell": '{%s, "J": 1, "cells": [[1, 4]]}' % _HEAD_2X2,
    "json-top-level-list": "[1, 4, -8]\n",
}


@pytest.mark.parametrize("command", [["verify"],
                                     ["thermo", "--tmin", "1", "--tmax", "1"]],
                         ids=["verify", "thermo"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_is_parse_error(tmp_path, capsys, command, name):
    path = tmp_path / "dos.txt"
    content = MALFORMED[name]
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert run_cli(command[0], str(path), *command[1:]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error: parse:")


def test_json_top_level_list_is_read_as_json(tmp_path, capsys):
    path = tmp_path / "dos.json"
    path.write_text(MALFORMED["json-top-level-list"])
    assert run_cli("verify", str(path)) == 1
    assert capsys.readouterr().err.splitlines()[0] == \
        "error: parse: line 1: expected a JSON object"


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "absent.csv")) == 3
    assert "error: io:" in capsys.readouterr().err


# -- thermo -----------------------------------------------------------------------

def test_thermo_high_t_single_point(dos4x4_file, capsys):
    assert run_cli("thermo", str(dos4x4_file), "--tmin", "1000000",
                   "--tmax", "1000000") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T,h,log_Z,F,U,C,M_mean,chi"
    log_z = float(lines[1].split(",")[2])
    assert log_z == pytest.approx(16 * math.log(2), rel=1e-3)


def test_thermo_2x2_closed_form(tmp_path, dos2x2, capsys):
    path = tmp_path / "dos2x2.csv"
    path.write_text(format_dos_csv(dos2x2), encoding="utf-8")
    assert run_cli("thermo", str(path), "--tmin", "1", "--tmax", "1") == 0
    log_z = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    expected = math.log(2 * math.exp(8) + 12 + 2 * math.exp(-8))
    assert log_z == pytest.approx(expected, abs=1e-12)


def test_thermo_sweep_zero_field_magnetization(dos4x4_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("thermo", str(dos4x4_file), "--tmin", "0.5", "--tmax", "5.0",
                   "--tstep", "0.5", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    for ln in lines[1:]:
        assert abs(float(ln.split(",")[6])) <= 1e-12


def test_thermo_rejects_bad_temperatures(dos4x4_file, capsys):
    assert run_cli("thermo", str(dos4x4_file), "--tmin", "0",
                   "--tmax", "1") == 1
    assert "error: validation:" in capsys.readouterr().err
    assert run_cli("thermo", str(dos4x4_file), "--tmin", "1", "--tmax", "2",
                   "--tstep", "-0.5") == 1
    assert run_cli("thermo", str(dos4x4_file), "--tmin", "2", "--tmax", "1") == 1


@pytest.mark.parametrize("argv,detail", [
    (("--tmax", "1", "--field", "nan"), "field must be finite, got nan"),
    (("--tmax", "inf"), "tmax must be finite, got inf"),
])
def test_thermo_rejects_non_finite_input(dos2x2_file, capsys, argv, detail):
    assert run_cli("thermo", str(dos2x2_file), "--tmin", "1", *argv) == 1
    assert capsys.readouterr().err.splitlines()[0] == f"error: validation: {detail}"


# Observables past the float range: |h*M| or |E| near 1e308, or 1/T overflowing.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coupling,argv,point", [
    ("1", ("--field", "1e308", "--tmin", "1", "--tmax", "1"), "h=1e+308, T=1.0"),
    ("1e308", ("--tmin", "1", "--tmax", "1"), "h=0.0, T=1.0"),
    ("1", ("--tmin", "1e-310", "--tmax", "1e-310"), "h=0.0, T=1e-310"),
], ids=["huge-field", "huge-coupling", "subnormal-temperature"])
def test_thermo_rejects_observables_past_float_range(tmp_path, capsys, coupling,
                                                     argv, point):
    path = tmp_path / "dos.csv"
    assert run_cli("dos", "--rows", "2", "--cols", "2", "--coupling", coupling,
                   "--out", str(path)) == 0
    capsys.readouterr()
    assert run_cli("thermo", str(path), *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: validation: observables at {point} fall "
                            f"outside the float range\n")


@pytest.mark.filterwarnings("error")
def test_thermo_huge_temperature_stays_finite(dos2x2_file, capsys):
    assert run_cli("thermo", str(dos2x2_file), "--tmin", "1e300",
                   "--tmax", "1e300") == 0
    values = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]
    assert all(map(math.isfinite, values))
    assert values[2] == pytest.approx(4 * math.log(2))  # log Z -> N log 2


# U, C and <M> of a 2x2 lattice: exact where only the ground cells carry
# weight, the T = 1 closed form scaled by J = T otherwise.
HUGE_BUT_FINITE = [
    ("1", ("--field", "1e200", "--tmin", "1", "--tmax", "1"),
     [-4e200, 0.0, 4.0], 0),
    ("1e300", ("--tmin", "1e300", "--tmax", "1e300"),
     [-7.98392834374676e300, 0.12832932745715867, 0.0], 1e-12),
]


@pytest.mark.filterwarnings("error")
def test_thermo_huge_field_stays_finite(tmp_path, capsys):
    path = tmp_path / "dos.csv"
    for coupling, argv, expected, rel in HUGE_BUT_FINITE:
        assert run_cli("dos", "--rows", "2", "--cols", "2", "--coupling",
                       coupling, "--out", str(path)) == 0
        capsys.readouterr()
        assert run_cli("thermo", str(path), *argv) == 0
        values = [float(v)
                  for v in capsys.readouterr().out.splitlines()[1].split(",")]
        assert all(map(math.isfinite, values))
        assert values[4:7] == pytest.approx(expected, rel=rel, abs=0)  # U, C, <M>


def test_thermo_rejects_oversized_grid(dos2x2_file, capsys):
    assert run_cli("thermo", str(dos2x2_file), "--tmin", "1", "--tmax", "1e12",
                   "--tstep", "1e-3") == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "error: validation: temperature grid of 1e+15 steps exceeds "
        "1000000 points")


# -- oracle-check --------------------------------------------------------------------

def test_oracle_check_3x3(capsys):
    assert run_cli("oracle-check", "--rows", "3", "--cols", "3") == 0
    assert "OK" in capsys.readouterr().out


def test_oracle_check_3d(capsys):
    assert run_cli("oracle-check", "--rows", "2", "--cols", "2",
                   "--depth", "2") == 0


def test_oracle_check_over_cap(capsys):
    assert run_cli("oracle-check", "--rows", "5", "--cols", "5") == 1
    assert "oracle cap" in capsys.readouterr().err


def test_oracle_check_reports_mismatching_cells(monkeypatch, capsys):
    # The engine's table with one configuration moved from (M=0, E=0) to
    # (M=0, E=8): two cells differ from the oracle's.
    def moved(spec):
        counts = full_dos(spec, workers=1).counts.copy()
        counts[2, 4] -= 1
        counts[2, 8] += 1
        return DoSHistogram(spec, counts)

    monkeypatch.setattr(cli, "full_dos", moved)
    assert run_cli("oracle-check", "--rows", "2", "--cols", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ("  (M=0, E=0): engine=3 oracle=4\n"
                            "  (M=0, E=8): engine=3 oracle=2\n")
    assert captured.err == "error: check-failed: 2 mismatching cells\n"


# -- bench ------------------------------------------------------------------------

def test_bench_report(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--rows", "3", "--cols", "3",
                   "--workers", "1,2", "--repeats", "1",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rows,cols,depth,N,workers,wall_seconds,speedup"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:5] == ["3", "3", "1", "9", "1"]
    assert float(first[6]) == 1.0


def test_bench_result_mismatch_is_check_failure(monkeypatch, capsys):
    def mismatch(spec, workers, repeats):
        raise ResultMismatchError("2-worker run disagrees with the 1-worker "
                                  "result on 3x3x1")

    monkeypatch.setattr(cli, "run_bench", mismatch)
    assert run_cli("bench", "--rows", "3", "--cols", "3",
                   "--workers", "1,2") == 1
    assert capsys.readouterr().err == (
        "error: check-failed: 2-worker run disagrees with the 1-worker "
        "result on 3x3x1\n")


def test_bench_rejects_zero_worker_in_list():
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--rows", "3", "--cols", "3", "--workers", "1,0")
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# -- installed entry point -----------------------------------------------------------

def _run_python(*argv):
    # The checkout's sources come first, also when the package is not
    # installed.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def _run_module(*argv):
    return _run_python("-m", "isingdos.cli", *argv)


def test_console_script_round_trip(tmp_path):
    out = tmp_path / "dos.csv"
    proc = _run_module("dos", "--rows", "2", "--cols", "3", "--workers", "1",
                       "--out", str(out))
    assert proc.returncode == 0
    proc = _run_module("verify", str(out))
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4


def test_console_script_usage_error():
    proc = _run_module()
    assert proc.returncode == 2


# A CLI run whose walk is patched: {} holds the patch's lines, which see the
# walk's pieces; main's exit status is kept only if no child outlived it.
PATCHED_WALK = """
import os, sys, time
from isingdos import cli, enumeration
real = enumeration.enumerate_shard
def walk(spec, pieces):
{}
    return real(spec, pieces)
enumeration.enumerate_shard = walk
enumeration.available_parallelism = lambda: 2
status = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(status)
sys.exit(4)
"""


def test_dead_worker_is_a_worker_error(tmp_path):
    # The forked worker's walk exits with code 3 before it replies.
    out = tmp_path / "dos.csv"
    dead = PATCHED_WALK.format("    if pieces[0][0].start:\n        os._exit(3)")
    proc = _run_python("-c", dead, "dos", "--rows", "4", "--cols", "4",
                       "--workers", "2", "--out", str(out))
    assert proc.stderr.splitlines()[0] == (
        "error: worker: shard worker 1 exited with code 3 without a result")
    assert proc.returncode == 1
    assert not out.exists()


def test_worker_memory_error_is_a_worker_error(tmp_path):
    # The forked worker's walk runs out of memory.
    out = tmp_path / "dos.csv"
    starved = PATCHED_WALK.format("    if pieces[0][0].start:\n"
                                  "        raise MemoryError('no room for the walk')")
    proc = _run_python("-c", starved, "dos", "--rows", "4", "--cols", "4",
                       "--workers", "2", "--out", str(out))
    lines = proc.stderr.splitlines()
    assert lines[0] == ("error: worker: shard worker 1 raised "
                        "MemoryError: no room for the walk")
    assert lines[1].startswith("Traceback")
    assert proc.returncode == 1
    assert not out.exists()


def test_caller_memory_error_is_a_memory_error(tmp_path):
    # The caller's own walk runs out of memory while the worker walks.
    out = tmp_path / "dos.csv"
    starved = PATCHED_WALK.format("    if not pieces[0][0].start:\n"
                                  "        raise MemoryError('no room for the walk')")
    proc = _run_python("-c", starved, "dos", "--rows", "4", "--cols", "4",
                       "--workers", "2", "--out", str(out))
    assert proc.stderr.splitlines() == ["error: memory: no room for the walk"]
    assert proc.returncode == 1
    assert not out.exists()


def test_ctrl_c_is_an_interrupted_error(tmp_path):
    # Ctrl-C reaches the caller's walk while the forked worker still walks.
    out = tmp_path / "dos.csv"
    interrupted = PATCHED_WALK.format("    if not pieces[0][0].start:\n"
                                      "        raise KeyboardInterrupt\n"
                                      "    time.sleep(30)")
    proc = _run_python("-c", interrupted, "dos", "--rows", "4", "--cols", "4",
                       "--workers", "2", "--out", str(out))
    assert proc.stderr.splitlines()[0] == "error: interrupted: keyboard interrupt"
    assert proc.returncode == 130
    assert not out.exists()


def test_dos_never_writes_a_table_that_fails_its_checks(tmp_path):
    # The walk miscounts one configuration: the table fails verify_dos, and
    # neither --out nor a partial file is written.
    out = tmp_path / "dos.csv"
    miscounted = PATCHED_WALK.format("    hist = real(spec, pieces)\n"
                                     "    hist.counts[0, 0] += 1\n"
                                     "    return hist")
    proc = _run_python("-c", miscounted, "dos", "--rows", "4", "--cols", "4",
                       "--workers", "1", "--out", str(out))
    lines = proc.stderr.splitlines()
    assert lines[0] == ("error: check-failed: total-count,binomial-marginals,"
                        "flip-symmetry")
    assert "FAIL total-count: 65537 != 2^16 = 65536" in lines
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_dos_replaces_out_whole_or_not_at_all(tmp_path):
    # Interrupted after the table is written but before it is renamed over
    # --out: the old file stays as it was, and no partial file is left.
    out = tmp_path / "dos.csv"
    out.write_text("old table\n", encoding="utf-8")
    cut = PATCHED_WALK.format("    def replace(src, dst):\n"
                              "        raise KeyboardInterrupt\n"
                              "    cli.os.replace = replace")
    proc = _run_python("-c", cut, "dos", "--rows", "4", "--cols", "4",
                       "--workers", "1", "--out", str(out))
    assert proc.stderr.splitlines() == ["error: interrupted: keyboard interrupt"]
    assert proc.returncode == 130
    assert out.read_text(encoding="utf-8") == "old table\n"
    assert list(tmp_path.iterdir()) == [out]
    # Uninterrupted, the same run replaces it with the table.
    proc = _run_python("-c", PATCHED_WALK.format(""), "dos", "--rows", "4",
                       "--cols", "4", "--workers", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert read_dos(str(out)) == full_dos(LatticeSpec(4, 4), workers=1)
    assert list(tmp_path.iterdir()) == [out]


def test_dos_writes_a_fifo_in_place(tmp_path):
    # A FIFO --out (as /dev/stdout or a process substitution can be) gets
    # the table and stays a FIFO; nothing else is made beside it.
    fifo = tmp_path / "dos.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli("dos", "--rows", "2", "--cols", "2", "--workers", "1",
                       "--out", str(fifo)) == 0
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert parse_dos(text).cells() == DOS_2X2_CELLS
    assert list(tmp_path.iterdir()) == [fifo]


def test_dos_writes_through_a_symlink_and_keeps_a_file_mode(tmp_path):
    # A symlinked --out stays a link to its file, which gets the table; a
    # regular --out keeps its mode across the rename.
    table = tmp_path / "table.csv"
    table.write_text("old table\n", encoding="utf-8")
    link = tmp_path / "dos.csv"
    link.symlink_to(table)
    assert run_cli("dos", "--rows", "2", "--cols", "2", "--workers", "1",
                   "--out", str(link)) == 0
    assert link.is_symlink() and link.resolve() == table
    assert parse_dos(table.read_text()).cells() == DOS_2X2_CELLS
    table.chmod(0o640)
    assert run_cli("dos", "--rows", "2", "--cols", "2", "--workers", "1",
                   "--out", str(table)) == 0
    assert stat.S_IMODE(table.stat().st_mode) == 0o640
    assert sorted(tmp_path.iterdir()) == [link, table]


# -- walkers, not requested workers -------------------------------------------------

def test_dos_reports_the_walkers_that_ran(capsys, two_cpus):
    assert run_cli("dos", "--rows", "4", "--cols", "4", "--workers", "16",
                   "--out", "-") == 0
    assert "65536 configurations, 2 worker(s)" in capsys.readouterr().err


def test_bench_rows_count_the_walkers_that_ran(tmp_path, two_cpus):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--rows", "3", "--cols", "3", "--workers", "1,2,8",
                   "--repeats", "1", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["1", "2"]
