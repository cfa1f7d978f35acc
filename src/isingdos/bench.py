"""Wall-clock scaling of the sharded enumeration across worker counts.

One monotonic clock, minimum-of-repeats aggregation, and a hard identity
check: every benchmarked run's histogram must equal the 1-worker
reference, because the timing of a wrong answer is meaningless.
"""

from dataclasses import dataclass, field

from .enumeration import full_dos_timed
from .lattice import LatticeSpec


class ResultMismatchError(RuntimeError):
    """A benchmarked run produced a histogram different from the baseline."""


@dataclass
class BenchRecord:
    """Timing of one (lattice, worker count) measurement."""

    spec: LatticeSpec
    num_workers: int
    wall_seconds: float
    per_worker_seconds: list[float] = field(default_factory=list)
    speedup_vs_one: float = 0.0  # filled once the 1-worker baseline exists


def run_bench(spec: LatticeSpec, worker_counts, repeats: int = 3) -> list[BenchRecord]:
    """Measure full-enumeration wall time for each worker count.

    Each count runs `repeats` times; the minimum wall time wins (robust to
    scheduler noise).  A 1-worker reference histogram is computed first and
    every run is verified against it.

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
    if any(not isinstance(p, int) or p < 1 for p in counts):
        raise ValueError(f"worker counts must be positive integers: {counts}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    reference, ref_wall, _ = full_dos_timed(spec, workers=1)

    records = []
    for p in counts:
        runs = [full_dos_timed(spec, workers=p) for _ in range(repeats)]
        if any(hist != reference for hist, _, _ in runs):
            raise ResultMismatchError(
                f"{p}-worker run disagrees with the 1-worker result "
                f"on {spec.rows}x{spec.cols}x{spec.depth}"
            )
        _, wall, per_worker = min(runs, key=lambda run: run[1])
        records.append(BenchRecord(spec=spec, num_workers=p,
                                   wall_seconds=wall,
                                   per_worker_seconds=per_worker))

    baseline = next((r.wall_seconds for r in records if r.num_workers == 1),
                    ref_wall)
    for r in records:
        r.speedup_vs_one = baseline / r.wall_seconds
    return records


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

