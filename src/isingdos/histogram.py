"""The exact density of states g(M, E), the one table type of the package.

The fast walk and the oracle each fill it without depending on the other;
the DoS file formats write and parse it, and the thermodynamics and the
verification checks read it.
"""

import numpy as np

from .lattice import LatticeSpec


class DoSHistogram:
    """Exact density of states g(M, E) on a dense (N+1) x (B+1) grid.

    Row m_idx = (M + N)/2 counts configurations with spin excess M; column
    e_idx holds exchange energy E = |J| * (2*e_idx - B).  Counts are int64,
    exact up to the 2^40 configuration cap.  Cells whose (M, E) parity is
    unreachable are structurally zero.
    """

    def __init__(self, spec: LatticeSpec, counts: np.ndarray | None = None):
        n, b = spec.num_spins, spec.num_bonds
        if counts is None:
            counts = np.zeros((n + 1, b + 1), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (n + 1, b + 1):
                raise ValueError(
                    f"counts shape {counts.shape} != {(n + 1, b + 1)}"
                )
        self.spec = spec
        self.counts = counts

    # -- index mapping ----------------------------------------------------

    @property
    def energy_scale(self):
        """|J|: spacing of the energy grid in physical units."""
        return abs(self.spec.coupling)

    def m_index(self, m: int) -> int:
        """Row of spin excess m; m must have the parity of N."""
        n = self.spec.num_spins
        if (m + n) % 2 or not -n <= m <= n:
            raise ValueError(f"spin excess {m} invalid for N={n}")
        return (m + n) // 2

    def e_index(self, energy) -> int:
        """Column of exchange energy; energy must sit on the |J| grid."""
        b = self.spec.num_bonds
        scale = self.energy_scale
        try:
            unit = energy if scale == 1 else energy / scale
            iu = int(round(unit))
        except (OverflowError, ValueError):  # inf, nan, or past float range
            raise ValueError(f"energy {energy} is not a finite number") from None
        if abs(unit - iu) > 1e-9 or (iu + b) % 2 or not -b <= iu <= b:
            raise ValueError(
                f"energy {energy} not on the even grid within [-{b}, {b}] "
                f"(units of |J|={scale})"
            )
        return (iu + b) // 2

    def m_value(self, m_idx: int) -> int:
        return 2 * m_idx - self.spec.num_spins

    def e_value(self, e_idx: int):
        unit = 2 * e_idx - self.spec.num_bonds
        scale = self.energy_scale
        return unit if scale == 1 else scale * unit

    # -- queries -----------------------------------------------------------

    def total(self) -> int:
        """Sum of all counts; 2^N for a complete enumeration."""
        return int(self.counts.sum())

    def count(self, m: int, energy) -> int:
        """g(M, E) for one cell; off-grid (M, E) count zero configurations."""
        try:
            return int(self.counts[self.m_index(m), self.e_index(energy)])
        except ValueError:
            return 0

    def cells(self) -> list[tuple[int, int, int]]:
        """Nonzero (count, M, E) triples, sorted by M descending then E ascending."""
        out = []
        for m_idx in range(self.counts.shape[0] - 1, -1, -1):
            row = self.counts[m_idx]
            for e_idx in np.nonzero(row)[0]:
                out.append((int(row[e_idx]), self.m_value(m_idx),
                            self.e_value(int(e_idx))))
        return out

    def __eq__(self, other):
        if not isinstance(other, DoSHistogram):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.counts, other.counts)

    __hash__ = None
