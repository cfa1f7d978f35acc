import csv
import io

import pytest

import isingdos.bench as bench_mod
from isingdos import (
    DoSHistogram,
    LatticeSpec,
    ResultMismatchError,
    emit_scaling_report,
    run_bench,
)
from isingdos.bench import BenchRecord


def read_report(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_single_worker_self_baseline():
    records = run_bench(LatticeSpec(3, 3), [1], repeats=3)
    assert len(records) == 1
    r = records[0]
    assert r.num_workers == 1
    assert r.speedup_vs_one == 1.0
    assert r.wall_seconds > 0
    assert len(r.per_worker_seconds) == 1


def test_multi_worker_records(two_cpus):
    records = run_bench(LatticeSpec(3, 3), [1, 2], repeats=2)
    assert [r.num_workers for r in records] == [1, 2]
    assert all(r.speedup_vs_one > 0 for r in records)
    assert len(records[1].per_worker_seconds) == 2


def test_baseline_without_explicit_one_worker():
    records = run_bench(LatticeSpec(2, 3), [2], repeats=1)
    assert records[0].speedup_vs_one > 0


@pytest.mark.parametrize("counts,repeats,walks,rows", [
    ([1], 3, 3, [1]), ([1, 2], 2, 4, [1, 2]), ([2], 1, 2, [2]),
    ([2], 3, 6, [2]), ([1, 2, 8, 3], 3, 8, [1, 2])],
    ids=["one-worker", "one-and-two-workers", "two-workers",
         "two-workers-repeated", "repeated-layout"])
def test_serial_runs_are_the_reference(monkeypatch, two_cpus, counts, repeats,
                                       walks, rows):
    # The `repeats` serial runs are the reference and the baseline, and
    # double as the 1-worker runs when 1 is requested.  On two usable CPUs,
    # 8 and 3 workers walk the layout of 2: one run each, no row.
    real, calls = bench_mod.full_dos_timed, []

    def counted(spec_, workers=None, **kwargs):
        calls.append(workers)
        return real(spec_, workers=workers, **kwargs)

    monkeypatch.setattr(bench_mod, "full_dos_timed", counted)
    records = run_bench(LatticeSpec(2, 3), counts, repeats=repeats)
    assert len(calls) == walks
    assert [r.num_workers for r in records] == rows


def test_validates_arguments():
    spec = LatticeSpec(2, 2)
    with pytest.raises(ValueError):
        run_bench(spec, [], repeats=1)
    with pytest.raises(ValueError):
        run_bench(spec, [1, 0], repeats=1)
    for bad in (0, 2.0, "2", True):
        with pytest.raises(ValueError, match="repeats must be a positive integer"):
            run_bench(spec, [1], repeats=bad)
    for bad in ([True], [1, 2.0]):
        with pytest.raises(ValueError, match="workers must be positive integers"):
            run_bench(spec, bad, repeats=1)


def test_mismatching_run_is_a_hard_error(monkeypatch):
    spec = LatticeSpec(2, 3)
    real = bench_mod.full_dos_timed

    def corrupted(spec_, workers=None, **kwargs):
        hist, wall, per = real(spec_, workers=workers, **kwargs)
        if workers == 2:
            bad = DoSHistogram(hist.spec, hist.counts.copy())
            bad.counts[0, 0] += 1
            return bad, wall, per
        return hist, wall, per

    monkeypatch.setattr(bench_mod, "full_dos_timed", corrupted)
    with pytest.raises(ResultMismatchError):
        run_bench(spec, [1, 2], repeats=1)


def test_report_round_trip():
    records = [
        BenchRecord(spec=LatticeSpec(4, 5), num_workers=2,
                    wall_seconds=0.25, per_worker_seconds=[0.2, 0.21],
                    speedup_vs_one=1.9),
        BenchRecord(spec=LatticeSpec(4, 4), num_workers=1,
                    wall_seconds=0.012345678901234567,
                    per_worker_seconds=[0.012], speedup_vs_one=1.0),
        BenchRecord(spec=LatticeSpec(4, 4), num_workers=4,
                    wall_seconds=0.004, per_worker_seconds=[0.004] * 4,
                    speedup_vs_one=3.0864),
    ]
    text = emit_scaling_report(records)
    lines = text.splitlines()
    assert lines[0] == "rows,cols,depth,N,workers,wall_seconds,speedup"
    assert len(lines) == 4

    rows = read_report(text)
    # ordered by (N, workers): the two 4x4 records first
    keys = [(int(r["N"]), int(r["workers"])) for r in rows]
    assert keys == [(16, 1), (16, 4), (20, 2)]
    by_key = dict(zip(keys, rows))
    for rec in records:
        row = by_key[(rec.spec.num_spins, rec.num_workers)]
        assert int(row["rows"]) == rec.spec.rows
        assert int(row["cols"]) == rec.spec.cols
        assert int(row["depth"]) == rec.spec.depth
        assert float(row["wall_seconds"]) == rec.wall_seconds
        assert float(row["speedup"]) == rec.speedup_vs_one


def test_report_starts_speedup_at_one():
    records = run_bench(LatticeSpec(2, 3), [1, 2], repeats=1)
    rows = read_report(emit_scaling_report(records))
    assert int(rows[0]["workers"]) == 1
    assert float(rows[0]["speedup"]) == 1.0


def test_empty_report_rejected():
    with pytest.raises(ValueError):
        emit_scaling_report([])

