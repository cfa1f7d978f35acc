"""Bit layout of finite Ising lattices and exact per-configuration kernels.

A spin configuration is a single integer index in [0, 2^N).  Each lattice
column (a run of `rows` spins) occupies one contiguous bit field of the
index, so a configuration decodes into `cols * depth` small bit-words.
Bit r of word w is the spin at row r of that column; bit value 1 means
spin up (S = +1), 0 means spin down (S = -1).

Word order is column-major over the (col, layer) grid: word w = layer*cols + col.
Each periodic axis is a masked rotation of the whole index
(`LatticeSpec.axis_rotations`); XORed with the index it marks the axis's
anti-aligned bonds, packed into uint64 words for the split-index walk by
`LatticeSpec.bond_words`.  The scalar table, shift and XOR kernels below
classify one decoded configuration.

All types are immutable and all kernels are pure functions, so specs and
tables can be shared freely across worker processes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

#: Hard cap on total spins: the configuration index must fit comfortably
#: in an unsigned 64-bit integer.
MAX_SPINS = 40

#: Lookup tables are built only up to 2^16 entries; taller columns use
#: direct bit counting and on-the-fly circular shifts.
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
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling J must be finite, got {self.coupling}")
        if self.coupling == 0:
            raise ValueError("coupling J must be nonzero")
        # Keep J integral when it is one: energies then stay exact ints.
        j = self.coupling
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

    @property
    def num_words(self) -> int:
        """Number of column bit-words per configuration."""
        return self.cols * self.depth

    @property
    def num_configs(self) -> int:
        """Size of the configuration space, 2^N."""
        return 1 << self.num_spins

    @property
    def word_mask(self) -> int:
        """Mask of the rows significant bits of one column word."""
        return (1 << self.rows) - 1

    @property
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
        n = self.num_spins
        per_word, words = 64 // n, []
        for i, (shift, keep, back, wrap) in enumerate(self.axis_rotations):
            d = ((x << shift) & keep | (x >> back) & wrap) ^ x
            if i % per_word:
                words[-1] |= d << n * (i % per_word)
            else:
                words.append(d)
        return words

    def word_neighbor_pairs(self) -> list[tuple[int, int]]:
        """Periodic inter-word bond pairs: the col axis, plus the layer axis in 3D.

        Each pair (a, b) contributes one XOR-kernel evaluation; for an axis
        of length 2 the same two words appear in both orders, which is
        exactly the double bond a periodic length-2 axis carries.
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


@dataclass(frozen=True)
class Configuration:
    """One spin configuration: its global index and decoded column words."""

    index: int
    words: tuple[int, ...]


def decode_config(spec: LatticeSpec, index: int) -> Configuration:
    """Split a configuration index into its column bit-words."""
    if not 0 <= index < spec.num_configs:
        raise ValueError(f"index {index} outside [0, 2^{spec.num_spins})")
    mask = spec.word_mask
    words = tuple((index >> (w * spec.rows)) & mask for w in range(spec.num_words))
    return Configuration(index=index, words=words)


def encode_words(spec: LatticeSpec, words) -> int:
    """Inverse of decode_config: pack column words back into an index."""
    if len(words) != spec.num_words:
        raise ValueError(f"expected {spec.num_words} words, got {len(words)}")
    index = 0
    for w, word in enumerate(words):
        if not 0 <= word <= spec.word_mask:
            raise ValueError(f"word {word:#x} has stray bits above row {spec.rows}")
        index |= word << (w * spec.rows)
    return index


@dataclass(frozen=True, eq=False)
class KernelTables:
    """Cached per-word kernels for columns of `rows` spins.

    popcount_table[j] = number of set bits of j (the bit-word weights);
    shift_table[j]    = circular left shift of the rows significant bits
                        of j by one position.
    Both tables have 2^rows entries and are read-only.
    """

    rows: int
    mask: int
    popcount_table: np.ndarray = field(repr=False)
    shift_table: np.ndarray = field(repr=False)


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


def popcount(word: int) -> int:
    """Number of set bits of a nonnegative integer (masked-decrement loop)."""
    count = 0
    while word:
        word &= word - 1
        count += 1
    return count


def circular_shift(word: int, rows: int) -> int:
    """Circular left shift of the rows significant bits of word by one."""
    mask = (1 << rows) - 1
    return ((word << 1) | (word >> (rows - 1))) & mask


def spin_excess(config: Configuration, spec: LatticeSpec) -> int:
    """Spin excess M = (#up - #down) = 2*(#up) - N.

    M has the parity of N and |M| <= N; M > 0 means majority up.
    """
    ups = sum(popcount(w) for w in config.words)
    return 2 * ups - spec.num_spins


def aligned_row_bonds(word_a: int, word_b: int, tables: KernelTables) -> int:
    """Aligned-spin bonds between two neighboring columns.

    XOR marks the anti-aligned pairs; complementing within the significant
    mask leaves the aligned ones: popcount(NOT(a XOR b) AND mask).
    """
    return int(tables.popcount_table[(word_a ^ word_b) ^ tables.mask])


def aligned_column_bonds(word: int, tables: KernelTables) -> int:
    """Aligned vertical neighbor pairs within one periodic column.

    Pairs each bit with its circular-shift image:
    popcount(NOT(word XOR shift(word)) AND mask).
    """
    shifted = int(tables.shift_table[word])
    return int(tables.popcount_table[(word ^ shifted) ^ tables.mask])


def total_energy(config: Configuration, spec: LatticeSpec,
                 tables: KernelTables | None = None) -> int:
    """Exact exchange energy E = -J * (2*En - B) of one configuration.

    En is the count of aligned (positive-exchange) bonds: the shift kernel
    over every word plus the XOR kernel over every periodic neighboring
    word pair.  With J = 1 on a 2D lattice (B = 2N) this reduces to
    E = 2*(N - En).

    Args:
        config: decoded configuration valid for spec.
        spec:   lattice geometry and coupling.
        tables: kernel tables for spec.rows, or None to fall back to
                direct bit counting (required when rows > 16).
    """
    words = config.words
    if tables is not None:
        aligned = sum(aligned_column_bonds(w, tables) for w in words)
        aligned += sum(aligned_row_bonds(words[a], words[b], tables)
                       for a, b in spec.word_neighbor_pairs())
    else:
        rows, mask = spec.rows, spec.word_mask
        aligned = sum(rows - popcount(w ^ circular_shift(w, rows)) for w in words)
        aligned += sum(rows - popcount(words[a] ^ words[b])
                       for a, b in spec.word_neighbor_pairs())
    return -spec.coupling * (2 * aligned - spec.num_bonds)
