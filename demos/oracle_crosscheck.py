#!/usr/bin/env python3
"""Cross-validate the enumeration engine against a deliberately naive oracle.

The oracle decodes every configuration into an explicit +-1 spin array and
sums bonds one by one; it shares no code with the split-index walk.  On
lattices small enough to brute-force, both engines must agree cell for
cell -- in 2D, in 3D, and for antiferromagnetic coupling.
"""

from isingdos import LatticeSpec, full_dos, oracle_full_dos

print(f"{'lattice':>10} {'configs':>8} {'cells':>6}  verdict")
for dims in [(2, 2, 1), (3, 3, 1), (2, 4, 1), (4, 4, 1), (2, 2, 2), (2, 2, 3)]:
    spec = LatticeSpec(*dims)
    fast = full_dos(spec, workers=1)
    slow = oracle_full_dos(spec)
    verdict = "identical" if fast == slow else "MISMATCH"
    name = f"{dims[0]}x{dims[1]}" + (f"x{dims[2]}" if dims[2] > 1 else "")
    print(f"{name:>10} {fast.total():>8} {len(fast.cells()):>6}  {verdict}")

# Antiferromagnet: J = -1 swaps which states sit at the bottom of the spectrum.
anti = LatticeSpec(4, 4, coupling=-1)
fast, slow = full_dos(anti, workers=1), oracle_full_dos(anti)
print(f"\n4x4 with J = -1: engines {'agree' if fast == slow else 'DISAGREE'}")
e_min = min(e for _, _, e in fast.cells())
ground = sum(c for c, m, e in fast.cells() if e == e_min)
print(f"ground level E = {e_min} holds {ground} states "
      f"(the two checkerboards), not the two aligned states")
