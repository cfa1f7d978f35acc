"""Smoke test: each demo runs clean, and every name the README, the package
root and the benchmark harness rely on resolves, so an export cut cannot
silently break them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isingdos

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: Names benchmarks/ reads from the package root.
BENCHMARK_NAMES = [
    "LatticeSpec", "available_parallelism", "full_dos", "full_dos_timed",
    "verify_dos", "format_dos_csv", "parse_dos", "thermo_sweep", "make_shards",
    "enumerate_shard", "DoSHistogram", "merge", "build_tables", "__version__",
]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "MISMATCH" not in output and "DISAGREE" not in output, output


def test_readme_and_package_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    imports = re.findall(r"^from isingdos import (.+)$", readme, re.MULTILINE)
    assert imports
    names = [n.strip() for line in imports for n in line.split(",")]
    for name in names + list(isingdos.__all__):
        assert hasattr(isingdos, name), name


def test_benchmark_names_are_exported():
    missing = [name for name in BENCHMARK_NAMES if not hasattr(isingdos, name)]
    assert missing == []
    assert set(BENCHMARK_NAMES) - {"__version__"} <= set(isingdos.__all__)


def test_benchmark_call_forms_still_work():
    # The calls benchmarks/run.py makes, in its own forms: if one of them
    # changes shape, the benchmark breaks even though its names resolve.
    spec = isingdos.LatticeSpec(3, 4)
    hist, wall, per_worker = isingdos.full_dos_timed(spec, workers=2)
    walkers = min(2, isingdos.available_parallelism())
    assert wall > 0 and len(per_worker) == walkers and min(per_worker) > 0
    assert isingdos.verify_dos(hist).passed
    whole = isingdos.make_shards(spec, 1)[0]
    assert isingdos.enumerate_shard(spec, whole) == hist
    c = hist.counts
    halves = [isingdos.DoSHistogram(spec, c // 2),
              isingdos.DoSHistogram(spec, c - c // 2)]
    assert isingdos.merge(halves) == hist
    assert spec.num_words + len(spec.word_neighbor_pairs()) > 0
