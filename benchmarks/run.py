#!/usr/bin/env python3
"""isingdos benchmark: closed-loop workloads, every answer checked.

    python3 benchmarks/run.py --workload walk-2d --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
./src, so nothing needs installing.  One caller drives each workload in a
closed loop (the next call starts when the previous one returns) for
--seconds, after one untimed warm-up.  Every call passes the correctness
gate of reference.py before its time is kept.

--trace 0 prints the end-to-end metrics; --trace 1 runs traced and
untraced calls alternately and prints the per-layer metrics, the layer
self times and the tracing overhead.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; a run that fails the
gate prints no metrics and exits 1.  Each run also writes its host facts,
samples and spans to .bench_out/.
"""

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import reference
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters timed for setup_s (after one untimed one that fills
#: the bytecode cache, which users pay once, not per call).
SETUP_SPAWNS = 15
MIN_WALK_CALLS = 5
#: wall_s_p90 needs ten jobs beyond the percentile.
MIN_SWEEP_JOBS = 100
#: Failures printed in full; the rest are only counted.
SHOWN_FAILURES = 5

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import isingdos.cli
t1 = time.perf_counter()
from workloads import build_inputs
build_inputs(sys.argv[3], int(sys.argv[4]))
print(t1 - t0)
"""

# Gated end-to-end metrics.  Time is read at the 90th percentile: on a
# shared host the speed of serial walks switches between a fast and a slow
# state for tens of seconds at a time, so the median of a run depends on
# the mix while the 90th percentile reads the slow state, which every run
# reaches (NOTES.md has the figures).
END_TO_END_UNITS = {"wall_s_p90": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded with every untraced run, not gated.
INFO_UNITS = {"ns_per_config_core": "ns", "wall_s": "s", "ns_per_config_core_p90": "ns"}

PER_LAYER_UNITS = {
    "enumeration.enumerate_shard.ns_per_config": "ns",
    "enumeration.kernel_evals_per_config": "count",
    "enumeration.ns_per_kernel_eval": "ns",
    "enumeration.driver.overhead_s": "s",
    "enumeration.driver.shards": "count",
    "enumeration.driver.busy_share": "share",
    "enumeration.driver.imbalance": "ratio",
    "enumeration.driver.worker_slowdown": "ratio",
    "enumeration.merge_s": "s",
    "enumeration.verify_dos_s": "s",
    "lattice.build_tables_s": "s",
    "dosio.format_dos_csv_s": "s",
    "dosio.parse_dos_s": "s",
    "dosio.bytes": "bytes",
    "thermo.thermo_sweep_s": "s",
    "thermo.us_per_point": "us",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that time functions ROADMAP plans to reshape or remove; when the
# call no longer fits they are reported absent, with the reason.
DRIVER_METRICS = ("enumeration.driver.overhead_s", "enumeration.driver.shards",
                  "enumeration.driver.busy_share", "enumeration.driver.imbalance",
                  "enumeration.driver.worker_slowdown")
SHARD_METRICS = ("enumeration.enumerate_shard.ns_per_config",
                 "enumeration.ns_per_kernel_eval",
                 "enumeration.driver.worker_slowdown")


def load_library():
    """Import isingdos from ./src of this checkout, or exit 2."""
    if not (SRC / "isingdos" / "__init__.py").is_file():
        print(f"error: no isingdos sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import isingdos
    if Path(isingdos.__file__).resolve().parent != SRC / "isingdos":
        print(f"error: imported isingdos from {isingdos.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return isingdos


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


_NO_SPAN = nullcontext()


def span_of(tr):
    """The span context factory of a tracer, or a no-op one for untraced calls."""
    return tr.span if tr is not None else (lambda name: _NO_SPAN)


class Runner:
    def __init__(self, lib, workload):
        self.lib = lib
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.absent = {}
        self._thermo_refs = {}
        self.driver_calls = []  # (outer wall, per-worker seconds, spec)
        self.csv_bytes = []
        self.last_dos = {}  # pin key -> last histogram that passed the gate

    # -- the gate -----------------------------------------------------------

    def gated(self, op, *args):
        """op(*args), or None when it raised or failed the gate (counted as failed)."""
        self.attempted += 1
        try:
            return op(*args)
        except Exception as exc:  # each failed op is counted and the run fails
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"FAILED op {self.attempted}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            return None

    def thermo_ref(self, dos, h):
        key = (reference.pin_key(dos.spec), h)
        if key not in self._thermo_refs:
            from workloads import TEMPS
            self._thermo_refs[key] = reference.thermo_reference(
                dos.counts, dos.spec, h, TEMPS)
        return self._thermo_refs[key]

    # -- one call of each workload kind ---------------------------------------

    def enumerate_job(self, job, tr):
        """full_dos for the job; traced, it goes through full_dos_timed if it fits."""
        if tr is None:
            return self.lib.full_dos(job.spec, workers=job.workers)
        timed = getattr(self.lib, "full_dos_timed", None)
        if timed is None:
            self.mark_absent(DRIVER_METRICS, "isingdos.full_dos_timed no longer exists")
        elif DRIVER_METRICS[0] not in self.absent:
            try:
                t0 = time.perf_counter()
                with tr.span("enumeration.full_dos_timed"):
                    dos, _, per_worker = timed(job.spec, workers=job.workers)
                self.driver_calls.append(
                    (time.perf_counter() - t0, list(per_worker), job.spec))
                return dos
            except (TypeError, ValueError) as exc:
                self.mark_absent(DRIVER_METRICS, f"full_dos_timed call failed: {exc!r}")
        with tr.span("enumeration.full_dos"):
            return self.lib.full_dos(job.spec, workers=job.workers)

    def walk_call(self, job, tr=None):
        """Seconds of one full_dos call, after its answer passed the gate."""
        span = span_of(tr)
        with span("bench.call"):
            t0 = time.perf_counter()
            dos = self.enumerate_job(job, tr)
            wall = time.perf_counter() - t0
        with span("bench.gate"), span("enumeration.verify_dos"):
            report = self.lib.verify_dos(dos)
        reference.check_counts(dos, report)
        self.last_dos[reference.pin_key(dos.spec)] = dos
        return wall, wall

    def sweep_job(self, job, tr=None):
        """(full_dos seconds, job seconds) of one CLI-like job, after the gate."""
        from workloads import TEMPS
        lib, span = self.lib, span_of(tr)
        with span("bench.job"):
            t0 = time.perf_counter()
            dos = self.enumerate_job(job, tr)
            t1 = time.perf_counter()
            with span("enumeration.verify_dos"):
                report = lib.verify_dos(dos)
            with span("dosio.format_dos_csv"):
                text = lib.format_dos_csv(dos)
            with span("dosio.parse_dos"):
                parsed = lib.parse_dos(text)
            sweeps = []
            for h in job.fields:
                with span("thermo.thermo_sweep"):
                    sweeps.append(lib.thermo_sweep(parsed, h, TEMPS))
            t2 = time.perf_counter()
        reference.check_counts(dos, report)
        reference.check_csv(dos, text, parsed)
        for h, points in zip(job.fields, sweeps):
            self.check_thermo(dos, h, points)
        self.csv_bytes.append(len(text.encode()))
        self.last_dos[reference.pin_key(dos.spec)] = dos
        return t1 - t0, t2 - t0

    def check_thermo(self, dos, h, points):
        reference.check_thermo(points, self.thermo_ref(dos, h), dos.spec.num_spins ** 2)

    # -- probes of single layers (traced run only) ---------------------------

    def mark_absent(self, names, reason):
        for name in names:
            self.absent.setdefault(name, reason)

    def probe(self, names, op):
        """Run a probe of an API that may change; on a mismatch mark names absent.

        A probe whose answer is wrong still fails the run: GateFailure passes.
        """
        try:
            op()
        except reference.GateFailure:
            raise
        except Exception as exc:  # the API moved: report it, do not crash
            self.mark_absent(names, f"{type(exc).__name__}: {exc}")

    def probe_layers(self, dos, tr, serial_s, io_and_thermo):
        """Time build_tables, enumerate_shard and merge on one gated histogram.

        With io_and_thermo (the walks, whose calls do neither) also time a
        CSV round trip and one thermo sweep at h = 0 on it.
        """
        from workloads import TEMPS
        lib, spec, key = self.lib, dos.spec, reference.pin_key(dos.spec)
        tables = None

        def build():
            nonlocal tables
            with tr.span("lattice.build_tables"):
                tables = lib.build_tables(spec.rows)

        def shard():
            whole = lib.make_shards(spec, 1)[0]
            if "tables" not in inspect.signature(lib.enumerate_shard).parameters:
                args = (spec, whole)
            elif tables is None:
                raise RuntimeError("enumerate_shard takes tables but build_tables is absent")
            else:
                args = (spec, tables, whole)
            t0 = time.perf_counter()
            with tr.span("enumeration.enumerate_shard"):
                part = lib.enumerate_shard(*args)
            serial_s[key] = time.perf_counter() - t0
            reference.check_counts(part, lib.verify_dos(part))

        def merge():
            c = dos.counts
            parts = [lib.DoSHistogram(spec, c // 2), lib.DoSHistogram(spec, c - c // 2)]
            with tr.span("enumeration.merge"):
                merged = lib.merge(parts)
            if merged != dos:
                raise reference.GateFailure(f"merge of two halves changed the table on {key}")

        with tr.span("bench.probe"):
            self.probe(("lattice.build_tables_s",), build)
            self.probe(SHARD_METRICS, shard)
            self.probe(("enumeration.merge_s",), merge)
            if io_and_thermo:
                with tr.span("dosio.format_dos_csv"):
                    text = lib.format_dos_csv(dos)
                with tr.span("dosio.parse_dos"):
                    parsed = lib.parse_dos(text)
                reference.check_csv(dos, text, parsed)
                self.csv_bytes.append(len(text.encode()))
                with tr.span("thermo.thermo_sweep"):
                    points = lib.thermo_sweep(parsed, 0.0, TEMPS)
                self.check_thermo(dos, 0.0, points)


def spawn_setups(workload_name, seed, count):
    """(spawn wall seconds, child-measured import seconds) of `count` fresh interpreters."""
    walls, imports = [], []
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR),
           workload_name, str(seed)]
    for i in range(count + 1):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        wall = time.perf_counter() - t0
        if i:  # the first fills the bytecode cache
            walls.append(wall)
            imports.append(float(out.stdout.strip()))
    return walls, imports


def _run_text(cmd, **kw):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20, **kw)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def host_facts(lib):
    import numpy
    facts = {"nproc": os.cpu_count(), "usable_cpus": lib.available_parallelism(),
             "cpu_model": None, "l2_cache": None,
             "python": platform.python_version(), "numpy": numpy.__version__,
             "isingdos": lib.__version__}
    for line in (_run_text(["lscpu"]) or "").splitlines():
        label, _, value = line.partition(":")
        if label.strip() == "Model name":
            facts["cpu_model"] = value.strip()
        elif label.strip() == "L2 cache":
            facts["l2_cache"] = value.strip()
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    commit = _run_text(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env)
    facts["git_commit"] = commit.strip() if commit else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def measure(runner, call, jobs, seconds, minimum, tr_alternate):
    """Closed loop over whole rounds of jobs until the deadline.

    Returns one list of (enumeration s, job s, spec) per round; with
    tr_alternate, odd rounds run traced and come back in the second list.
    """
    rounds, traced_rounds = [], []
    deadline = time.perf_counter() + seconds
    done = 0
    while time.perf_counter() < deadline or (done < minimum and not runner.failed):
        tr = tr_alternate if tr_alternate is not None and len(rounds) > len(traced_rounds) else None
        kept = []
        for job in jobs:
            times = runner.gated(call, job, tr)
            if times is not None:
                kept.append(times + (job.spec,))
        (traced_rounds if tr is not None else rounds).append(kept)
        done += len(jobs)
    return rounds, traced_rounds


def end_to_end(workload, rounds):
    """ns per configuration per core of each round (enumeration seconds x
    workers / configurations), and wall seconds of each call or job; the
    median and the 90th percentile of both."""
    job_walls = [job_s for r in rounds for _, job_s, _ in r]
    workers = max(workload.pool_workers, 1)
    per_round_ns = [1e9 * workers * sum(e for e, _, _ in r) / sum(s.num_configs for _, _, s in r)
                    for r in rounds]
    return {"ns_per_config_core": median(per_round_ns), "wall_s": median(job_walls),
            "ns_per_config_core_p90": p90(per_round_ns), "wall_s_p90": p90(job_walls)}


def per_layer(runner, tr, untraced, traced, serial, imports):
    m = {}
    jobs = runner.workload.jobs
    weight = sum(j.spec.num_configs for j in jobs)
    kevals = sum((j.spec.num_words + len(j.spec.word_neighbor_pairs())) * j.spec.num_configs
                 for j in jobs)
    m["enumeration.kernel_evals_per_config"] = kevals / weight
    if serial:
        total_s = sum(serial.values())
        m["enumeration.enumerate_shard.ns_per_config"] = 1e9 * total_s / weight
        m["enumeration.ns_per_kernel_eval"] = 1e9 * total_s / kevals
    if runner.driver_calls:
        over, busy, imb, slow = [], [], [], []
        for wall, per, spec in runner.driver_calls:
            over.append(wall - max(per))
            busy.append(sum(per) / (len(per) * wall))
            imb.append(max(per) / (sum(per) / len(per)))
            key = reference.pin_key(spec)
            if key in serial:
                slow.append(sum(per) / serial[key])
        m["enumeration.driver.overhead_s"] = median(over)
        m["enumeration.driver.shards"] = median(len(p) for _, p, _ in runner.driver_calls)
        m["enumeration.driver.busy_share"] = median(busy)
        m["enumeration.driver.imbalance"] = median(imb)
        if slow:
            m["enumeration.driver.worker_slowdown"] = median(slow)
    for metric, span in (("enumeration.merge_s", "enumeration.merge"),
                         ("enumeration.verify_dos_s", "enumeration.verify_dos"),
                         ("lattice.build_tables_s", "lattice.build_tables"),
                         ("dosio.format_dos_csv_s", "dosio.format_dos_csv"),
                         ("dosio.parse_dos_s", "dosio.parse_dos"),
                         ("thermo.thermo_sweep_s", "thermo.thermo_sweep")):
        if tr.durations(span):
            m[metric] = median(tr.durations(span))
    from workloads import TEMPS
    if "thermo.thermo_sweep_s" in m:
        m["thermo.us_per_point"] = 1e6 * m["thermo.thermo_sweep_s"] / len(TEMPS)
    if runner.csv_bytes:
        m["dosio.bytes"] = median(runner.csv_bytes)
    m["cli.import_s"] = median(imports)
    m["trace.overhead_s"] = (median([c[1] for r in traced for c in r])
                             - median([c[1] for r in untraced for c in r]))
    # A probe that broke inside its span still left a duration behind.
    return {k: v for k, v in m.items() if k not in runner.absent}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    from workloads import WORKLOAD_NAMES, build_inputs
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    workload = build_inputs(args.workload, args.seed)
    runner = Runner(lib, workload)
    sweep = args.workload == "sweep-small"
    call = runner.sweep_job if sweep else runner.walk_call
    minimum = MIN_SWEEP_JOBS if sweep else MIN_WALK_CALLS

    # Warm-up: one untimed round, gated like the rest.
    for job in workload.jobs:
        runner.gated(call, job)

    tr = Tracer() if args.trace else None
    rounds, traced = measure(runner, call, workload.jobs, args.seconds, minimum, tr)
    metrics, layer_self = {}, {}
    if not args.trace:
        # Read peak RSS before any set-up interpreter joins the children.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        samples = sum(len(r) for r in rounds)
        if not runner.failed:
            metrics = end_to_end(workload, rounds)
            walls, _ = spawn_setups(args.workload, args.seed, SETUP_SPAWNS)
            metrics["setup_s"] = median(walls)
            # getrusage gives the largest child, in KiB: count it per pool worker.
            metrics["peak_rss_mb"] = (rss + workload.pool_workers * child_rss) / 1024
    else:
        samples = sum(len(r) for r in traced)
        serial = {}
        for dos in runner.last_dos.values():
            runner.gated(runner.probe_layers, dos, tr, serial, not sweep)
        if not runner.failed:
            _, imports = spawn_setups(args.workload, args.seed, 3)
            metrics = per_layer(runner, tr, rounds, traced, serial, imports)
            layer_self = {k: v / samples for k, v in tr.layer_self_seconds(
                "bench.job" if sweep else "bench.call").items()}

    correct = runner.failed == 0 and samples > 0
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report, info = {}, {}
    if correct:
        for name, unit in units.items():
            if name in metrics:
                report[name] = {"value": metrics[name], "unit": unit}
            else:
                report[name] = {"value": None, "unit": unit,
                                "absent": runner.absent.get(name, "not measured")}
        if not args.trace:
            info = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in INFO_UNITS.items()}

    facts = host_facts(lib)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples} timed {'jobs' if sweep else 'calls'}"
          + ("" if sweep else " (exhaustive walk: the seed changes nothing)"))
    print("host " + json.dumps(facts))
    print(f"failed_ops_share {runner.failed / max(runner.attempted, 1)!r} "
          f"({runner.failed} of {runner.attempted})")
    for name, entry in (info | report).items():
        shown = entry["value"] if entry["value"] is not None else "absent: " + entry["absent"]
        print(f"{name} {shown} {entry['unit']}")
    if layer_self:
        print("self seconds per traced " + ("job" if sweep else "call") + ": "
              + json.dumps(layer_self))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": facts, "metrics": info | report,
              "attempted": runner.attempted, "failed": runner.failed,
              "samples": [[e, j] for r in rounds for e, j, _ in r],
              "layer_self_s_per_call": layer_self,
              "spans": tr.records() if tr else []}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
