"""Bit layout of finite Ising lattices and the axis-rotation masks of the kernel.

A spin configuration is a single integer index in [0, 2^N).  The spin at
(row r, col c, layer l) is bit (l*cols + c)*rows + r of the index, so each
lattice column (a run of `rows` spins) occupies one contiguous bit field;
bit value 1 means spin up (S = +1), 0 means spin down (S = -1).

Each periodic axis is a masked rotation of the whole index
(`LatticeSpec.axis_rotations`); XORed with the index it marks the axis's
anti-aligned bonds, packed into uint64 words for the split-index walk by
`LatticeSpec.bond_words`.

Specs are immutable, so they can be shared freely across worker processes.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Hard cap on total spins: the configuration index must fit comfortably
#: in an unsigned 64-bit integer.
MAX_SPINS = 40

#: Largest column height build_tables accepts (2^16 entries per table).
# Kept: benchmarks/run.py's lattice.build_tables_s probe calls build_tables.
TABLE_ROWS_CAP = 16


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry and coupling of a periodic Ising lattice.

    rows:     column height n (spins per bit-word), >= 2
    cols:     number of columns, >= 2
    depth:    number of layers; 1 for 2D, >= 2 for 3D
    coupling: uniform exchange constant J (default +1; negative for
              antiferromagnetic runs; zero is rejected)
    """

    rows: int
    cols: int
    depth: int = 1
    coupling: float = 1

    def __post_init__(self):
        for name in ("rows", "cols", "depth"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.rows < 2 or self.cols < 2:
            raise ValueError(
                f"degenerate periodic axis: rows and cols must be >= 2, "
                f"got rows={self.rows} cols={self.cols}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        n = self.rows * self.cols * self.depth
        if n > MAX_SPINS:
            raise ValueError(
                f"{n} spins exceeds the cap of {MAX_SPINS} "
                f"(2^N must fit a 64-bit index with headroom)"
            )
        j = self.coupling
        if isinstance(j, bool) or not isinstance(j, numbers.Real):
            raise ValueError(f"coupling J must be a real number, got {j!r}")
        if not math.isfinite(j):
            raise ValueError(f"coupling J must be finite, got {j}")
        if j == 0:
            raise ValueError("coupling J must be nonzero")
        # Keep J integral when it is one: energies then stay exact ints.
        if isinstance(j, float) and j.is_integer():
            object.__setattr__(self, "coupling", int(j))

    @property
    def num_spins(self) -> int:
        """Total spin count N."""
        return self.rows * self.cols * self.depth

    @property
    def num_bonds(self) -> int:
        """Total periodic nearest-neighbor bond count B: 2N in 2D, 3N in 3D."""
        return (2 if self.depth == 1 else 3) * self.num_spins

    # Kept: benchmarks/run.py computes kernel_evals_per_config from it.
    @property
    def num_words(self) -> int:
        """Number of column bit-words per configuration."""
        return self.cols * self.depth

    @property
    def num_configs(self) -> int:
        """Size of the configuration space, 2^N."""
        return 1 << self.num_spins

    @cached_property
    def axis_rotations(self) -> tuple[tuple[int, int, int, int], ...]:
        """(shift, keep, back, wrap) per periodic axis: rows, cols, layers in 3D.

        ``((x << shift) & keep) | ((x >> back) & wrap)`` moves every spin of
        index x one step along the axis, periodically: `wrap` marks the
        sites at coordinate 0 and `keep` the other N bits.  The popcount of
        x XOR that counts the axis's anti-aligned bonds; on a length-2 axis
        each site meets its one neighbour from both sides, the double bond.
        """
        n = self.num_spins
        out = []
        axes = [(1, self.rows), (self.rows, self.cols)]
        if self.depth > 1:
            axes.append((self.rows * self.cols, self.depth))
        for stride, length in axes:
            wrap = sum(((1 << stride) - 1) << b
                       for b in range(0, n, stride * length))
            out.append((stride, ((1 << n) - 1) ^ wrap, stride * (length - 1), wrap))
        return tuple(out)

    def bond_words(self, x: np.ndarray) -> list[np.ndarray]:
        """Anti-aligned bond masks of the uint64 indices x, packed in words.

        Each periodic axis gives the N-bit mask x XOR (x moved one step
        along the axis); the masks sit as many to a uint64 word as fit.  The
        map is linear over GF(2): for H and L with disjoint bits, the words
        of H | L are the words of H XOR the words of L.
        """
        return self._pack([moved ^ x for moved in self._moved(x)])

    def bond_support(self, low: int) -> list[int]:
        """Bond bits that touch a site of the mask `low`, packed like bond_words.

        Per axis that is low | (low moved one step): the union of the words
        of every index whose set bits lie in `low`.
        """
        return self._pack([moved | low for moved in self._moved(low)])

    def _moved(self, x):
        # x with every spin moved one step along each periodic axis in turn.
        for shift, keep, back, wrap in self.axis_rotations:
            yield (x << shift) & keep | (x >> back) & wrap

    def _pack(self, masks):
        # Per-axis N-bit masks, as many to a 64-bit word as fit.
        n = self.num_spins
        per_word, words = 64 // n, []
        for i, mask in enumerate(masks):
            if i % per_word:
                words[-1] |= mask << n * (i % per_word)
            else:
                words.append(mask)
        return words

    # Kept: benchmarks/run.py computes kernel_evals_per_config from it.
    def word_neighbor_pairs(self) -> list[tuple[int, int]]:
        """Periodic inter-word bond pairs: the col axis, plus the layer axis in 3D.

        For an axis of length 2 the same two words appear in both orders,
        the double bond a periodic length-2 axis carries.
        """
        pairs = []
        for layer in range(self.depth):
            base = layer * self.cols
            for c in range(self.cols):
                pairs.append((base + c, base + (c + 1) % self.cols))
        if self.depth > 1:
            for layer in range(self.depth):
                for c in range(self.cols):
                    pairs.append((layer * self.cols + c,
                                  ((layer + 1) % self.depth) * self.cols + c))
        return pairs


# Kept: build_tables returns it.
@dataclass(frozen=True, eq=False)
class KernelTables:
    """Popcount and circular-shift tables for columns of `rows` spins.

    popcount_table[j] = number of set bits of j (the bit-word weights);
    shift_table[j]    = circular left shift of the rows significant bits
                        of j by one position.
    Both tables have 2^rows entries and are read-only.
    """

    rows: int
    mask: int
    popcount_table: np.ndarray = field(repr=False)
    shift_table: np.ndarray = field(repr=False)


# Kept: benchmarks/run.py times it as lattice.build_tables_s.
def build_tables(rows: int) -> KernelTables:
    """Precompute the popcount and circular-shift tables for one column height.

    Args:
        rows: column height n; tables are only built for 2 <= rows <= 16
              (65536 entries each at most).

    Returns:
        KernelTables with int64 tables of length 2^rows.
    """
    if not 2 <= rows <= TABLE_ROWS_CAP:
        raise ValueError(
            f"tables support 2 <= rows <= {TABLE_ROWS_CAP}, got {rows}"
        )
    size = 1 << rows
    mask = size - 1
    # popcount by doubling: counts for [0, 2^k) extend to [2^k, 2^{k+1})
    # by adding the new high bit.
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(rows):
        pc = np.concatenate([pc, pc + 1])
    j = np.arange(size, dtype=np.int64)
    shift = ((j << 1) | (j >> (rows - 1))) & mask
    return KernelTables(rows=rows, mask=mask, popcount_table=pc, shift_table=shift)
