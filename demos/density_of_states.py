#!/usr/bin/env python3
"""Enumerate the exact density of states g(M, E) of a small Ising lattice.

Walks all 2^N spin configurations of a periodic 4x4 lattice with the
split-index walk, prints the resulting table grouped by spin excess, and
runs the built-in consistency checks (total count, binomial marginals,
+-M symmetry, energy grid).
"""

import time

from isingdos import LatticeSpec, full_dos, verify_dos

spec = LatticeSpec(rows=4, cols=4)
print(f"lattice: {spec.rows}x{spec.cols}, N={spec.num_spins} spins, "
      f"B={spec.num_bonds} periodic bonds, J={spec.coupling}")
print(f"configuration space: 2^{spec.num_spins} = {spec.num_configs}")

t0 = time.perf_counter()
dos = full_dos(spec, workers=1)
print(f"enumerated in {time.perf_counter() - t0:.3f} s\n")

print(f"{len(dos.cells())} occupied (M, E) cells:")
print(f"{'M':>4} | (count @ E) ...")
last_m = None
for count, m, e in dos.cells():
    if m != last_m:
        if last_m is not None:
            print()
        print(f"{m:>4} |", end="")
        last_m = m
    print(f" {count}@{e}", end="")
print("\n")

print("ground states:", dos.count(16, -32) + dos.count(-16, -32),
      "at E =", -spec.num_bonds)
print("maximal-energy states:", dos.count(0, 32), "at E = +32 (checkerboards)")
print()
print(verify_dos(dos))
