"""Stable on-disk formats for density-of-states tables.

CSV (version 1):

    # rows=4 cols=4 depth=1 J=1 N=16 B=32 version=1
    count,M,E
    1,16,-32
    16,14,-24
    ...

One row per nonzero cell, sorted by M descending then E ascending; counts
are exact positive integers and (M, E) pairs are unique.  The JSON variant
carries the same header fields plus a "cells" list of [count, M, E] rows.
"""

import json

from .histogram import DoSHistogram
from .lattice import LatticeSpec

FORMAT_VERSION = 1


class DosFileError(Exception):
    """Unparseable or inconsistent DoS file; `line` is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt_number(x):
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x)


def _header_fields(dos):
    spec = dos.spec
    return [("rows", spec.rows), ("cols", spec.cols), ("depth", spec.depth),
            ("J", spec.coupling), ("N", spec.num_spins), ("B", spec.num_bonds),
            ("version", FORMAT_VERSION)]


def format_dos_csv(dos: DoSHistogram) -> str:
    """Render a histogram in the version-1 CSV format."""
    header = "# " + " ".join(f"{k}={_fmt_number(v)}" for k, v in _header_fields(dos))
    lines = [header, "count,M,E"]
    for count, m, e in dos.cells():
        lines.append(f"{count},{m},{_fmt_number(e)}")
    return "\n".join(lines) + "\n"


def format_dos_json(dos: DoSHistogram) -> str:
    """Render a histogram as a single JSON object with the same fields."""
    obj = dict(_header_fields(dos))
    obj["cells"] = [[count, m, e] for count, m, e in dos.cells()]
    return json.dumps(obj, indent=2) + "\n"


def _parse_number(text, line, what):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise DosFileError(line, f"{what} {text!r} is not a number") from None


def _build_spec(fields, line):
    for key in ("rows", "cols", "depth", "J", "N", "B", "version"):
        if key not in fields:
            raise DosFileError(line, f"header is missing {key}=")
    if fields["version"] != FORMAT_VERSION:
        raise DosFileError(line, f"unsupported format version {fields['version']}")
    for key in ("rows", "cols", "depth", "N", "B", "version"):
        if not isinstance(fields[key], int) or isinstance(fields[key], bool):
            raise DosFileError(line, f"{key}={fields[key]} must be an integer")
    try:
        spec = LatticeSpec(rows=fields["rows"], cols=fields["cols"],
                           depth=fields["depth"], coupling=fields["J"])
    except ValueError as exc:
        raise DosFileError(line, str(exc)) from None
    if fields["N"] != spec.num_spins:
        raise DosFileError(line, f"N={fields['N']} inconsistent with geometry "
                                 f"(expected {spec.num_spins})")
    if fields["B"] != spec.num_bonds:
        raise DosFileError(line, f"B={fields['B']} inconsistent with geometry "
                                 f"(expected {spec.num_bonds})")
    return spec


def _add_cell(hist, seen, count, m, e, line):
    # JSON true/false are Python bools, which are ints.
    if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
        raise DosFileError(line, f"count {count} must be a positive integer")
    if count > hist.spec.num_configs:
        raise DosFileError(line, f"count {count} exceeds 2^{hist.spec.num_spins}")
    if not isinstance(m, int) or isinstance(m, bool):
        raise DosFileError(line, f"M {m} must be an integer")
    if not isinstance(e, (int, float)) or isinstance(e, bool):
        raise DosFileError(line, f"E {e!r} must be a number")
    try:
        cell = (hist.m_index(m), hist.e_index(e))
    except ValueError as exc:
        raise DosFileError(line, str(exc)) from None
    if cell in seen:
        raise DosFileError(line, f"duplicate cell (M={m}, E={e})")
    seen.add(cell)
    hist.counts[cell] = count


def parse_dos_csv(text: str) -> DoSHistogram:
    """Parse version-1 CSV; raises DosFileError with the offending line."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise DosFileError(1, "expected '# rows=... version=...' header")
    fields = {}
    for token in lines[0][2:].split():
        if "=" not in token:
            raise DosFileError(1, f"malformed header token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = _parse_number(value, 1, key)
    spec = _build_spec(fields, 1)
    if len(lines) < 2 or lines[1].strip() != "count,M,E":
        raise DosFileError(2, "expected column header 'count,M,E'")
    hist = DoSHistogram(spec)
    seen = set()
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise DosFileError(lineno, f"expected 3 fields, got {len(parts)}")
        count = _parse_number(parts[0], lineno, "count")
        m = _parse_number(parts[1], lineno, "M")
        e = _parse_number(parts[2], lineno, "E")
        _add_cell(hist, seen, count, m, e, lineno)
    return hist


def parse_dos_json(text: str) -> DoSHistogram:
    """Parse the JSON variant; raises DosFileError with the offending line."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DosFileError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise DosFileError(1, "invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DosFileError(1, "expected a JSON object")
    cells = obj.pop("cells", None)
    if cells is None:
        raise DosFileError(1, "object is missing 'cells'")
    if not isinstance(cells, list):
        raise DosFileError(1, f"'cells' must be a list, got {cells!r}")
    spec = _build_spec(obj, 1)
    hist = DoSHistogram(spec)
    seen = set()
    for row in cells:
        if not isinstance(row, list) or len(row) != 3:
            raise DosFileError(1, f"malformed cell {row!r}")
        _add_cell(hist, seen, row[0], row[1], row[2], 1)
    return hist


def parse_dos(text: str) -> DoSHistogram:
    """Parse either format, sniffing JSON by its leading brace."""
    if text.lstrip()[:1] == "{":
        return parse_dos_json(text)
    return parse_dos_csv(text)


def read_dos(path: str) -> DoSHistogram:
    """Load a DoS file from disk; bytes that are not UTF-8 are a parse error."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse_dos(f.read())
        except UnicodeDecodeError as exc:  # exc.object holds the whole file
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise DosFileError(line, f"not valid UTF-8: {exc.reason}") from None

