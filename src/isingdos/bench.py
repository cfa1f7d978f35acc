"""Wall-clock scaling of the sharded enumeration across worker counts.

One monotonic clock, minimum-of-repeats aggregation, and a hard identity
check: every benchmarked run's histogram must equal the serial reference,
because the timing of a wrong answer is meaningless.
"""

from dataclasses import dataclass

from .enumeration import full_dos_timed
from .lattice import LatticeSpec


class ResultMismatchError(RuntimeError):
    """A benchmarked run produced a histogram different from the baseline."""


@dataclass
class BenchRecord:
    """Timing of one (lattice, walker count) measurement."""

    spec: LatticeSpec
    num_workers: int
    wall_seconds: float
    per_worker_seconds: list[float]
    speedup_vs_one: float


def run_bench(spec: LatticeSpec, worker_counts, repeats: int = 3) -> list[BenchRecord]:
    """Measure full-enumeration wall time for each worker count.

    Each count runs `repeats` times; the minimum wall time wins (robust to
    scheduler noise).  The serial runs (the 1-worker runs, or one extra run)
    are the reference every run must match and the speedup baseline.  A
    record's num_workers is the walkers that ran, at most the usable CPUs;
    a count that walks as many walkers as an earlier count runs once, is
    checked, and adds no record.

    Args:
        spec: lattice to enumerate.
        worker_counts: nonempty list of positive worker counts.
        repeats: runs per count, >= 1.

    Raises:
        ResultMismatchError: if any run's histogram differs from the reference.
    """
    counts = list(worker_counts)
    if not counts:
        raise ValueError("worker_counts must be nonempty")
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in counts):
        raise ValueError(f"workers must be positive integers, got {counts}")
    if isinstance(repeats, bool) or not isinstance(repeats, int) or repeats < 1:
        raise ValueError(f"repeats must be a positive integer, got {repeats!r}")

    serial = [full_dos_timed(spec, workers=1)
              for _ in range(repeats if 1 in counts else 1)]
    reference, baseline, _ = min(serial, key=lambda run: run[1])

    records = {}  # by walkers: a count that walks an earlier count's layout adds none
    for p in counts:
        runs = serial if p == 1 else [full_dos_timed(spec, workers=p)]
        walkers = len(runs[0][2])
        if walkers not in records:
            runs = runs + [full_dos_timed(spec, workers=p)
                           for _ in range(repeats - len(runs))]
            _, wall, per_worker = min(runs, key=lambda run: run[1])
            records[walkers] = BenchRecord(
                spec=spec, num_workers=walkers, wall_seconds=wall,
                per_worker_seconds=per_worker, speedup_vs_one=baseline / wall)
        if any(hist != reference for hist, _, _ in runs):
            raise ResultMismatchError(
                f"{p}-worker run disagrees with the 1-worker result "
                f"on {spec.rows}x{spec.cols}x{spec.depth}"
            )
    return list(records.values())


def emit_scaling_report(records) -> str:
    """CSV text of the records, ordered by (N, workers).

    Floats are written with repr so the report parses back exactly.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to report")
    rows = ["rows,cols,depth,N,workers,wall_seconds,speedup"]
    for r in sorted(records, key=lambda r: (r.spec.num_spins, r.num_workers)):
        s = r.spec
        rows.append(f"{s.rows},{s.cols},{s.depth},{s.num_spins},"
                    f"{r.num_workers},{r.wall_seconds!r},{r.speedup_vs_one!r}")
    return "\n".join(rows) + "\n"

