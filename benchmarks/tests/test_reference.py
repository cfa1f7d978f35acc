"""Evidence for the pinned answers, and checks of the gate and the runner.

Run from the repository root:  python3 -m pytest -q benchmarks/tests

The pins in reference.py were taken from the engine, so they are checked
here against code that shares nothing with it: the naive oracle for every
sweep-small lattice, a transfer matrix written below for the two walk
lattices (2^25 and 2^24 configurations, beyond the oracle's reach), and
Kaufman's closed-form partition function of the finite periodic 2D lattice
(Phys. Rev. 76, 1232 (1949)) for 5x5.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import isingdos
import reference
import run
from isingdos import DoSHistogram, LatticeSpec, full_dos, oracle_full_dos, \
    partition_point, thermo_sweep, verify_dos
from tracing import Tracer
from workloads import SMALL_LATTICES, TEMPS, WORKLOAD_NAMES, build_inputs

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
WALK_LATTICES = [(5, 5, 1, 1), (2, 2, 6, -1)]


def kaufman_log_z(rows: int, cols: int, temperature: float) -> float:
    """log Z at h = 0 of the periodic rows x cols lattice with J = 1 (Kaufman 1949).

    Z = 1/2 (2 sinh 2K)^(mn/2) (P1 + P2 + P3 + P4), K = 1/T, with
    cosh g_l = cosh 2K coth 2K - cos(pi l / n) and g_0 = 2K + log tanh K.
    """
    m, n = rows, cols
    k = 1.0 / temperature
    c = math.cosh(2 * k) / math.tanh(2 * k)

    def gamma(l):
        return 2 * k + math.log(math.tanh(k)) if l == 0 else math.acosh(c - math.cos(math.pi * l / n))

    p1 = p2 = p3 = p4 = 1.0
    for r in range(n):
        odd, even = gamma(2 * r + 1), gamma(2 * r)
        p1 *= 2 * math.cosh(m * odd / 2)
        p2 *= 2 * math.sinh(m * odd / 2)
        p3 *= 2 * math.cosh(m * even / 2)
        p4 *= 2 * math.sinh(m * even / 2)
    return -math.log(2) + (m * n / 2) * math.log(2 * math.sinh(2 * k)) + math.log(p1 + p2 + p3 + p4)


def transfer_matrix_counts(rows, cols, depth, coupling) -> np.ndarray:
    """g(M, E) in the engine's (N+1) x (B+1) layout, by a transfer matrix.

    Slices run along the longest periodic axis; a slice state is an
    explicit +-1 array over the other axes.  The table is built up one
    slice at a time, keyed by (first slice, current slice), and the ring
    is closed at the end.  An axis of length 2 carries two bonds between
    the same pair of sites, as on the periodic lattice.
    """
    axes = [rows, cols] + ([depth] if depth > 1 else [])
    along = max(range(len(axes)), key=lambda a: axes[a])
    length = axes[along]
    cross = [axes[a] for a in range(len(axes)) if a != along]
    sites = list(np.ndindex(*cross))
    n, b = rows * cols * depth, len(axes) * rows * cols * depth
    states = np.array([[1 - 2 * ((s >> i) & 1) for i in range(len(sites))]
                       for s in range(1 << len(sites))])
    nbr = [(i, sites.index(tuple((x + (d == a)) % cross[d] for d, x in enumerate(site))))
           for i, site in enumerate(sites) for a in range(len(cross))]
    ups = (states == 1).sum(axis=1)
    intra = np.array([sum(int(st[i] == st[j]) for i, j in nbr) for st in states])
    inter = (states[:, None, :] == states[None, :, :]).sum(axis=2)

    count = len(states)
    table = np.zeros((count, count, n + 1, b + 1), dtype=np.int64)
    for s in range(count):
        table[s, s, ups[s], intra[s]] = 1
    for _ in range(length - 1):
        nxt = np.zeros_like(table)
        for s in range(count):
            for t in range(count):
                du, da = ups[t], intra[t] + inter[s, t]
                nxt[:, t, du:, da:] += table[:, s, :n + 1 - du, :b + 1 - da]
        table = nxt
    closed = np.zeros((n + 1, b + 1), dtype=np.int64)
    for first in range(count):
        for s in range(count):
            da = inter[s, first]
            closed[:, da:] += table[first, s, :, :b + 1 - da]
    # Column index is the aligned-bond count; E = -J (2 aligned - B).
    return closed[:, ::-1] if coupling > 0 else closed


def pinned_counts_sha(key):
    return reference.PINS[key][0]


# -- evidence for the pins ---------------------------------------------------

@pytest.mark.parametrize("key", SMALL_LATTICES, ids=lambda k: "x".join(map(str, k)))
def test_small_lattice_pin_matches_oracle(key):
    rows, cols, depth, j = key
    spec = LatticeSpec(rows, cols, depth, coupling=j)
    oracle = oracle_full_dos(spec)
    assert reference.counts_sha(oracle.counts) == pinned_counts_sha(key)
    assert full_dos(spec) == oracle


@pytest.mark.parametrize("key", WALK_LATTICES + [(3, 4, 1, 1), (2, 2, 4, -1)],
                         ids=lambda k: "x".join(map(str, k)))
def test_transfer_matrix_matches_pin(key):
    assert reference.counts_sha(transfer_matrix_counts(*key)) == pinned_counts_sha(key)


@pytest.mark.parametrize("key", WALK_LATTICES, ids=lambda k: "x".join(map(str, k)))
def test_engine_matches_walk_pin(key):
    rows, cols, depth, j = key
    dos = full_dos(LatticeSpec(rows, cols, depth, coupling=j))
    reference.check_counts(dos, verify_dos(dos))


def test_5x5_pin_matches_kaufman():
    spec = LatticeSpec(5, 5)
    dos = DoSHistogram(spec, transfer_matrix_counts(5, 5, 1, 1))
    assert reference.counts_sha(dos.counts) == pinned_counts_sha((5, 5, 1, 1))
    for t in (1.0, 2.27, 5.0):
        got = partition_point(dos, 0.0, t).log_z
        assert got == pytest.approx(kaufman_log_z(5, 5, t), rel=1e-14)


@pytest.mark.parametrize("rows,cols", [(4, 4), (3, 5), (2, 3)])
def test_kaufman_formula_matches_oracle_tables(rows, cols):
    dos = oracle_full_dos(LatticeSpec(rows, cols))
    for t in (1.0, 2.27, 5.0):
        assert partition_point(dos, 0.0, t).log_z == pytest.approx(
            kaufman_log_z(rows, cols, t), rel=1e-14)


# -- the gate ------------------------------------------------------------------

def test_gate_rejects_a_table_that_still_passes_verify_dos():
    dos = full_dos(LatticeSpec(4, 4))
    counts = dos.counts.copy()
    # Move one configuration between two energies of the M = 0 row, its own
    # mirror image: totals, marginals and flip symmetry all stay intact.
    row = np.nonzero(counts[8])[0]
    counts[8, row[0]] -= 1
    counts[8, row[1]] += 1
    bad = DoSHistogram(dos.spec, counts)
    assert verify_dos(bad).passed
    with pytest.raises(reference.GateFailure, match="SHA-256"):
        reference.check_counts(bad, verify_dos(bad))


def test_gate_rejects_a_table_failing_verify_dos():
    dos = full_dos(LatticeSpec(3, 3))
    counts = dos.counts.copy()
    counts[0, np.nonzero(counts[0])[0][0]] += 1
    bad = DoSHistogram(dos.spec, counts)
    with pytest.raises(reference.GateFailure, match="verify_dos"):
        reference.check_counts(bad, verify_dos(bad))


def test_thermo_reference_agrees_and_catches_a_wrong_table():
    dos = full_dos(LatticeSpec(3, 4))
    ref = reference.thermo_reference(dos.counts, dos.spec, 0.37, TEMPS)
    reference.check_thermo(thermo_sweep(dos, 0.37, TEMPS), ref, 144)
    other = full_dos(LatticeSpec(3, 4, coupling=-1))
    with pytest.raises(reference.GateFailure):
        reference.check_thermo(thermo_sweep(other, 0.37, TEMPS), ref, 144)


# -- inputs and the runner -------------------------------------------------------

def test_inputs_follow_the_seed():
    assert build_inputs("sweep-small", 7) == build_inputs("sweep-small", 7)
    assert build_inputs("sweep-small", 7) != build_inputs("sweep-small", 8)
    assert build_inputs("walk-2d", 1) == build_inputs("walk-2d", 2)
    for name in WORKLOAD_NAMES:
        for job in build_inputs(name, 0).jobs:
            assert reference.pin_key(job.spec) in reference.PINS


def test_reshaped_api_is_reported_absent():
    """A later engine without full_dos_timed, merge, build_tables or the
    tables argument must give absent metrics, not a crash."""
    gone = {"full_dos_timed", "merge", "build_tables", "enumerate_shard"}
    lib = types.SimpleNamespace(**{k: getattr(isingdos, k) for k in isingdos.__all__
                                   if k not in gone})
    lib.enumerate_shard = lambda spec, shard: isingdos.enumerate_shard(spec, None, shard)
    runner = run.Runner(lib, build_inputs("sweep-small", 0))
    tr = Tracer()
    job = runner.workload.jobs[0]
    runner.sweep_job(job, tr)
    serial = {}
    runner.probe_layers(runner.last_dos[reference.pin_key(job.spec)], tr, serial, False)
    metrics = run.per_layer(runner, tr, [[(0.01, 0.02, job.spec)]],
                            [[(0.01, 0.02, job.spec)]], serial, [0.1])
    for name in run.DRIVER_METRICS + ("enumeration.merge_s", "lattice.build_tables_s"):
        assert name not in metrics
        assert runner.absent[name]
    assert metrics["enumeration.enumerate_shard.ns_per_config"] > 0


def _run(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, section):
    out = _run(["--workload", "sweep-small", "--seed", "3", "--seconds", "1",
                "--trace", trace], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"] for m in declared} == set(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "walk-2d", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
