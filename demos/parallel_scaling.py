#!/usr/bin/env python3
"""Sharded parallel enumeration: determinism first, speed second.

The walk, one range of the top bits per symmetry orbit of the top column,
each weighted by the orbit's size, splits in order into near-equal shards of
(range, weight) pairs, one per walker, at most one walker per usable CPU:
the caller walks shard 0 and each other walker is a forked process, so 8
workers on 2 CPUs fork one process.  Each partial histogram is an exact
integer table, so the merged result is bit-identical no matter how many
workers ran.  The short benchmark at the end rechecks that while measuring wall
times.
"""

import sys

from isingdos import (
    LatticeSpec,
    available_parallelism,
    emit_scaling_report,
    full_dos,
    make_shards,
    run_bench,
)

spec = LatticeSpec(5, 5)
print(f"lattice {spec.rows}x{spec.cols}: 2^{spec.num_spins} configurations, "
      f"{len(spec.top_orbits)} top ranges walked")

print("\nshard layout for 3 walkers, (range, weight) pairs:")
for i, shard in enumerate(make_shards(spec, 3)):
    print(f"  shard {i}: walks {sum(len(r) for r, _ in shard)} configurations")
    for r, weight in shard:
        print(f"    [{r.start:8d}, {r.stop:8d})  weight {weight}")

baseline = full_dos(spec, workers=1)
for p in (2, 3, 8):
    assert full_dos(spec, workers=p) == baseline
print("\nmerged histograms for 2, 3, 8 workers are cell-identical to serial")

cores = available_parallelism()
counts = sorted({1, 2, cores})
bench_spec = LatticeSpec(4, 6)
print(f"\nbenchmark on {cores} available cores, worker counts {counts} "
      f"(4x6: 2^24 configurations, {len(bench_spec.top_orbits)} top ranges "
      f"walked):")
records = run_bench(bench_spec, counts, repeats=3)
sys.stdout.write(emit_scaling_report(records))
print("(every timed run above was verified against the serial histogram)")
