#!/usr/bin/env python3
"""Sharded parallel enumeration: determinism first, speed second.

The index space [0, 2^N) splits into contiguous near-equal shards, one per
worker process; each partial histogram is an exact integer table, so the
merged result is bit-identical no matter how many workers ran.  The short
benchmark at the end rechecks that while measuring wall times.
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

spec = LatticeSpec(4, 4)
print(f"lattice {spec.rows}x{spec.cols}: 2^{spec.num_spins} configurations")

print("\nshard layout for 3 workers:")
for i, s in enumerate(make_shards(spec, 3)):
    print(f"  shard {i}: [{s.start:6d}, {s.stop:6d})  size {len(s)}")

baseline = full_dos(spec, workers=1)
for p in (2, 3, 8):
    assert full_dos(spec, workers=p) == baseline
print("\nmerged histograms for 2, 3, 8 workers are cell-identical to serial")

cores = available_parallelism()
counts = sorted({1, 2, cores})
print(f"\nbenchmark on {cores} available cores, worker counts {counts} "
      f"(4x6: 2^24 configurations, a second or so per serial run):")
records = run_bench(LatticeSpec(4, 6), counts, repeats=3)
sys.stdout.write(emit_scaling_report(records))
print("(every timed run above was verified against the serial histogram)")
