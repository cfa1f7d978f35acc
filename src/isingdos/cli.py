"""Command-line interface: enumeration, verification, thermodynamics, benchmarks.

Exit codes: 0 success, 1 validation/check failure, a failed shard worker
or memory exhausted, 2 usage error, 3 I/O error, 130 interrupted (Ctrl-C).
On failure the first stderr line is machine-parseable:
``error: <category>: <detail>`` with category in {validation, parse,
check-failed, worker, memory, io, interrupted}; ``worker`` is a forked
shard worker whose walk raised (its traceback follows on the next lines),
that exited without its result or that replied malformed bytes, and
``memory`` a MemoryError in this process.  ``dos`` runs verify_dos on its
table before writing it: a table that fails is ``check-failed`` with no
file written.  Every command writes a new or regular ``--out`` file next
to its path and renames it over it, so no run leaves a partial file; a
symlink, device or FIFO (``/dev/stdout``, ``/dev/null``) is written in
place.
"""

import argparse
import contextlib
import math
import os
import stat
import sys

import numpy as np

from .bench import ResultMismatchError, emit_scaling_report, run_bench
from .dosio import DosFileError, format_dos_csv, format_dos_json, read_dos
from .enumeration import WorkerError, full_dos, full_dos_timed
from .lattice import LatticeSpec
from .oracle import oracle_full_dos
from .thermo import thermo_sweep
from .verify import verify_dos

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: Largest temperature grid `thermo` evaluates.
MAX_THERMO_POINTS = 1_000_000


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _worker_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        old = os.lstat(out)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        # A symlink, device or FIFO (/dev/stdout, /dev/null, a pipe) is
        # written in place: a rename would replace the link or the node.
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
        return
    # A new or regular file is written next to out, with its mode and,
    # where the process may give it, its owner, and renamed over it, so a
    # run that dies while writing never leaves a partial file.
    partial = f"{out}.{os.getpid()}.partial"
    try:
        f = open(partial, "x", encoding="utf-8")
    except OSError as exc:  # reported against the path the user gave
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with f:
            f.write(text)
        if old is not None:
            os.chmod(partial, stat.S_IMODE(old.st_mode))
            with contextlib.suppress(PermissionError, AttributeError):  # no chown on Windows
                os.chown(partial, old.st_uid, old.st_gid)
        os.replace(partial, out)
    except BaseException:
        os.unlink(partial)
        raise


def _spec_from_args(args) -> LatticeSpec:
    return LatticeSpec(rows=args.rows, cols=args.cols, depth=args.depth,
                       coupling=args.coupling)


def cmd_dos(args) -> int:
    spec = _spec_from_args(args)
    hist, wall, per_worker = full_dos_timed(spec, workers=args.workers)
    report = verify_dos(hist)
    if not report.passed:  # no table that fails its checks is written
        print(f"error: check-failed: {','.join(report.failed_names())}\n{report}",
              file=sys.stderr)
        return EXIT_FAIL
    text = format_dos_json(hist) if args.json else format_dos_csv(hist)
    _write_output(text, args.out)
    # With --out - the table owns stdout, so the summary moves to stderr.
    summary_stream = sys.stderr if args.out == "-" else sys.stdout
    print(f"N={spec.num_spins} spins, B={spec.num_bonds} bonds, "
          f"{hist.total()} configurations, {len(per_worker)} worker(s), "
          f"{wall:.3f} s elapsed", file=summary_stream)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_dos(read_dos(args.dos_file))
    print(report)
    if not report.passed:
        failed = ",".join(report.failed_names())
        print(f"error: check-failed: {failed}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_thermo(args) -> int:
    for name in ("field", "tmin", "tmax", "tstep"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite, got {getattr(args, name)}")
    if args.tstep <= 0:
        raise ValueError(f"tstep must be > 0, got {args.tstep}")
    if args.tmax < args.tmin:
        raise ValueError(f"tmax {args.tmax} < tmin {args.tmin}")
    # Checked as a float first: the quotient may be far past any int grid.
    steps = (args.tmax - args.tmin) / args.tstep
    if steps >= MAX_THERMO_POINTS:
        raise ValueError(f"temperature grid of {steps:.3g} steps exceeds "
                         f"{MAX_THERMO_POINTS} points")
    n_steps = int(steps + 1e-9) + 1
    temps = [args.tmin + i * args.tstep for i in range(n_steps)]
    dos = read_dos(args.dos_file)
    points = thermo_sweep(dos, args.field, temps)
    lines = ["T,h,log_Z,F,U,C,M_mean,chi"]
    for p in points:
        lines.append(f"{p.temperature!r},{p.field!r},{p.log_z!r},"
                     f"{p.free_energy!r},{p.internal_energy!r},"
                     f"{p.specific_heat!r},{p.mean_magnetization!r},"
                     f"{p.susceptibility!r}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    spec = _spec_from_args(args)
    slow = oracle_full_dos(spec)  # raises over the oracle spin cap
    fast = full_dos(spec)
    if fast == slow:
        print(f"OK: bit-kernel and naive engines agree on all "
              f"{fast.total()} configurations "
              f"({spec.rows}x{spec.cols}x{spec.depth})")
        return EXIT_OK
    diff = np.argwhere(fast.counts != slow.counts)
    print(f"error: check-failed: {len(diff)} mismatching cells", file=sys.stderr)
    for m_idx, e_idx in diff[:20]:
        m, e = fast.m_value(int(m_idx)), fast.e_value(int(e_idx))
        print(f"  (M={m}, E={e}): engine={int(fast.counts[m_idx, e_idx])} "
              f"oracle={int(slow.counts[m_idx, e_idx])}")
    return EXIT_FAIL


def cmd_bench(args) -> int:
    spec = _spec_from_args(args)
    records = run_bench(spec, args.workers, repeats=args.repeats)
    _write_output(emit_scaling_report(records), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingdos",
        description="Exact density of states and thermodynamics for finite "
                    "Ising lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lattice_args(p):
        p.add_argument("--rows", type=int, required=True,
                       help="column height (spins per lattice column)")
        p.add_argument("--cols", type=int, required=True, help="number of columns")
        p.add_argument("--depth", type=int, default=1,
                       help="layers; 1 for 2D (default), >=2 for 3D")
        p.add_argument("--coupling", type=float, default=1.0, metavar="J",
                       help="uniform exchange constant J (default 1)")

    p = sub.add_parser("dos", help="enumerate the full density of states")
    add_lattice_args(p)
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="walkers <= cores (default cores, 1 for a lattice of one block)")
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON object instead of CSV")
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("verify", help="run consistency checks on a DoS file")
    p.add_argument("dos_file", help="path to a DoS file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thermo", help="thermodynamic sweep from a DoS file")
    p.add_argument("dos_file", help="path to a DoS file")
    p.add_argument("--field", type=float, default=0.0, help="external field h")
    p.add_argument("--tmin", type=float, required=True, help="lowest T (> 0)")
    p.add_argument("--tmax", type=float, required=True, help="highest T")
    p.add_argument("--tstep", type=float, default=0.1, help="grid spacing (> 0)")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("oracle-check",
                       help="diff the enumeration engine against the naive oracle")
    add_lattice_args(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("bench", help="measure scaling across worker counts")
    add_lattice_args(p)
    p.add_argument("--workers", type=_worker_list, default=[1],
                   help="comma-separated worker counts, e.g. 1,2,4")
    p.add_argument("--repeats", type=_positive_int, default=3,
                   help="runs per worker count; minimum wall time is kept")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DosFileError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ResultMismatchError as exc:
        print(f"error: check-failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except WorkerError as exc:
        print(f"error: worker: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        # The driver has killed and reaped its workers on the way out.
        print("error: interrupted: keyboard interrupt", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process it ended


if __name__ == "__main__":
    sys.exit(main())
