import math
import subprocess
import sys

import pytest

from isingdos import LatticeSpec, full_dos, parse_dos, read_dos, write_dos
from isingdos.cli import main

from conftest import DOS_2X2_CELLS


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
    assert "error: io:" in capsys.readouterr().err


def test_dos_rejects_zero_workers():
    with pytest.raises(SystemExit) as exc:
        run_cli("dos", "--rows", "2", "--cols", "2", "--workers", "0",
                "--out", "-")
    assert exc.value.code == 2


# -- verify -----------------------------------------------------------------------

@pytest.fixture()
def dos4x4_file(tmp_path, dos4x4):
    path = tmp_path / "dos4x4.csv"
    write_dos(dos4x4, str(path))
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


def test_verify_reports_parse_line_on_truncated_file(dos4x4_file, capsys):
    lines = dos4x4_file.read_text().splitlines()
    lines[6] = lines[6].rsplit(",", 1)[0]
    dos4x4_file.write_text("\n".join(lines))
    assert run_cli("verify", str(dos4x4_file)) == 1
    assert "error: parse: line 7" in capsys.readouterr().err


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
    write_dos(dos2x2, str(path))
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


def test_bench_rejects_zero_worker_in_list():
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--rows", "3", "--cols", "3", "--workers", "1,0")
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# -- installed entry point -----------------------------------------------------------

def test_console_script_round_trip(tmp_path):
    out = tmp_path / "dos.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "isingdos.cli", "dos", "--rows", "2", "--cols", "3",
         "--workers", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "isingdos.cli", "verify", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4


def test_console_script_usage_error():
    proc = subprocess.run([sys.executable, "-m", "isingdos.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
