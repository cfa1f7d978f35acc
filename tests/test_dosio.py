import json
from fractions import Fraction

import numpy as np
import pytest

from isingdos import (
    DosFileError,
    LatticeSpec,
    format_dos_csv,
    format_dos_json,
    full_dos,
    parse_dos,
    read_dos,
    thermo_sweep,
)
from isingdos.dosio import parse_dos_csv, parse_dos_json


def test_csv_round_trip_exact(dos4x4):
    parsed = parse_dos_csv(format_dos_csv(dos4x4))
    assert parsed == dos4x4
    assert parsed.spec == dos4x4.spec


def test_csv_header_carries_metadata(dos2x2):
    text = format_dos_csv(dos2x2)
    assert text.splitlines()[0] == "# rows=2 cols=2 depth=1 J=1 N=4 B=8 version=1"
    assert text.splitlines()[1] == "count,M,E"


def test_round_trip_3d_and_negative_coupling():
    for spec in (LatticeSpec(2, 2, 2), LatticeSpec(2, 3, coupling=-1)):
        dos = full_dos(spec, workers=1)
        assert parse_dos_csv(format_dos_csv(dos)) == dos
        assert parse_dos_json(format_dos_json(dos)) == dos


# A non-integral J round-trips, and J given as a numpy scalar or a Fraction
# is kept as the plain int or float it equals, so files carry a number and
# thermo gets a float.
@pytest.mark.parametrize("coupling,plain", [
    (2.5, 2.5), (np.int64(-1), -1), (np.int64(2), 2), (np.float32(0.5), 0.5),
    (Fraction(1, 2), 0.5),
], ids=["non-integral", "int64-minus-1", "int64-2", "float32-half",
        "fraction-half"])
def test_coupling_round_trips_as_a_plain_number(coupling, plain):
    spec = LatticeSpec(2, 2, coupling=coupling)
    assert type(spec.coupling) is type(plain) and spec.coupling == plain
    dos = full_dos(spec, workers=1)
    text = format_dos_csv(dos)
    assert text.splitlines()[0].split()[4] == f"J={plain}"
    assert parse_dos_csv(text) == dos
    assert parse_dos_json(format_dos_json(dos)) == dos
    expected = full_dos(LatticeSpec(2, 2, coupling=plain), workers=1)
    temps = [0.5, 1.0, 2.0]
    assert thermo_sweep(dos, 0.25, temps) == thermo_sweep(expected, 0.25, temps)


def test_rows_sorted_m_desc_e_asc(dos4x4):
    lines = format_dos_csv(dos4x4).splitlines()[2:]
    triples = [tuple(int(x) for x in ln.split(",")) for ln in lines]
    keys = [(-m, e) for _, m, e in triples]
    assert keys == sorted(keys)
    assert len(set((m, e) for _, m, e in triples)) == len(triples)
    assert all(c > 0 for c, _, _ in triples)


def test_json_round_trip_and_sniffing(dos4x4):
    text = format_dos_json(dos4x4)
    assert parse_dos(text) == dos4x4
    assert parse_dos(format_dos_csv(dos4x4)) == dos4x4


def test_file_round_trip(tmp_path, dos4x4):
    path = tmp_path / "dos.csv"
    path.write_text(format_dos_csv(dos4x4), encoding="utf-8")
    assert read_dos(str(path)) == dos4x4
    jpath = tmp_path / "dos.json"
    jpath.write_text(format_dos_json(dos4x4), encoding="utf-8")
    assert read_dos(str(jpath)) == dos4x4


def _lines(dos):
    return format_dos_csv(dos).splitlines()


def test_parse_error_missing_header(dos2x2):
    body = "\n".join(_lines(dos2x2)[1:])
    with pytest.raises(DosFileError) as err:
        parse_dos_csv(body)
    assert err.value.line == 1


def test_parse_error_bad_version(dos2x2):
    lines = _lines(dos2x2)
    lines[0] = lines[0].replace("version=1", "version=9")
    with pytest.raises(DosFileError, match="version"):
        parse_dos_csv("\n".join(lines))


def test_parse_error_inconsistent_geometry(dos2x2):
    lines = _lines(dos2x2)
    lines[0] = lines[0].replace("B=8", "B=10")
    with pytest.raises(DosFileError, match="B=10"):
        parse_dos_csv("\n".join(lines))


def test_parse_error_non_finite_coupling(dos2x2):
    lines = _lines(dos2x2)
    lines[0] = lines[0].replace("J=1 ", "J=nan ")
    with pytest.raises(DosFileError, match="finite") as err:
        parse_dos_csv("\n".join(lines))
    assert err.value.line == 1


def test_parse_error_missing_column_header(dos2x2):
    lines = _lines(dos2x2)
    del lines[1]
    with pytest.raises(DosFileError) as err:
        parse_dos_csv("\n".join(lines))
    assert err.value.line == 2


def test_parse_error_truncated_row_reports_line(dos4x4):
    lines = _lines(dos4x4)
    lines[10] = lines[10].rsplit(",", 1)[0]  # drop the E field mid-row
    with pytest.raises(DosFileError) as err:
        parse_dos_csv("\n".join(lines))
    assert err.value.line == 11
    assert "line 11" in str(err.value)


def test_read_error_not_utf8_reports_line(tmp_path, dos4x4):
    data = format_dos_csv(dos4x4).encode("utf-8").split(b"\n")
    data[10] += b"\xff"
    path = tmp_path / "dos.csv"
    path.write_bytes(b"\n".join(data))
    with pytest.raises(DosFileError) as err:
        read_dos(str(path))
    assert err.value.line == 11
    assert "UTF-8" in str(err.value)


def test_parse_error_non_numeric_field(dos2x2):
    lines = _lines(dos2x2)
    lines[2] = "one,4,-8"
    with pytest.raises(DosFileError) as err:
        parse_dos_csv("\n".join(lines))
    assert err.value.line == 3


def test_parse_error_off_grid_energy(dos2x2):
    lines = _lines(dos2x2)
    lines[2] = "1,4,-7"  # odd energy for B=8
    with pytest.raises(DosFileError) as err:
        parse_dos_csv("\n".join(lines))
    assert err.value.line == 3


def test_parse_error_duplicate_cell(dos2x2):
    lines = _lines(dos2x2)
    lines.append(lines[2])
    with pytest.raises(DosFileError, match="duplicate"):
        parse_dos_csv("\n".join(lines))


def test_parse_error_nonpositive_count(dos2x2):
    lines = _lines(dos2x2)
    lines[2] = "0,4,-8"
    with pytest.raises(DosFileError, match="positive"):
        parse_dos_csv("\n".join(lines))


def test_parse_error_invalid_json():
    with pytest.raises(DosFileError):
        parse_dos('{"rows": 2,')
    # Text opening with "[" is JSON too, so a top-level list is reported as
    # what it is, not as a CSV file missing its header; empty text is still
    # a CSV file missing its header.
    with pytest.raises(DosFileError, match="expected a JSON object"):
        parse_dos(" [1, 4, -8]")
    with pytest.raises(DosFileError, match="expected '# rows="):
        parse_dos("")
    with pytest.raises(DosFileError, match="cells"):
        parse_dos('{"rows": 2, "cols": 2, "depth": 1, "J": 1, '
                  '"N": 4, "B": 8, "version": 1}')


@pytest.mark.parametrize("key,value,match", [
    ("cells", [[True, 4, -8]], "count"),
    ("cells", [[1, False, -8]], "M"),
    ("cells", [[1, 4, "-8"]], "E"),
    ("J", True, "real number"),
    ("version", True, "version"),
], ids=["bool-count", "bool-M", "string-E", "bool-J", "bool-version"])
def test_parse_error_json_bool_or_string_field(dos2x2, key, value, match):
    # JSON true/false would otherwise pass as the ints 1 and 0.
    obj = json.loads(format_dos_json(dos2x2))
    obj[key] = value
    with pytest.raises(DosFileError, match=match):
        parse_dos_json(json.dumps(obj))
