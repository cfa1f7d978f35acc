import random
from math import comb

import numpy as np
import pytest

from isingdos import LatticeSpec, build_tables, enumerate_shard
from isingdos.oracle import decode_spins, site_order

from conftest import ENGINES


def site_bit(spec, row, col, layer):
    return (layer * spec.cols + col) * spec.rows + row


def all_up(spec):
    return spec.num_configs - 1


def checkerboard(spec):
    return sum(1 << site_bit(spec, r, c, l)
               for r, c, l in site_order(spec) if (r + c + l) % 2 == 0)


def from_columns(spec, words):
    # Column word w = layer*cols + col holds rows r at bits w*rows + r.
    return sum(word << (w * spec.rows) for w, word in enumerate(words))


def moved(spec, index, step):
    # The index with the spin of every site s moved to site step(s).
    return sum(1 << site_bit(spec, *step(r, c, l))
               for r, c, l in site_order(spec)
               if index >> site_bit(spec, r, c, l) & 1)


# -- LatticeSpec --------------------------------------------------------------

def test_spec_derived_quantities():
    spec = LatticeSpec(4, 4)
    assert (spec.num_spins, spec.num_bonds, spec.num_words) == (16, 32, 4)
    spec3d = LatticeSpec(2, 3, 2)
    assert (spec3d.num_spins, spec3d.num_bonds, spec3d.num_words) == (12, 36, 6)


@pytest.mark.parametrize("dims", [(1, 5, 1), (5, 1, 1), (0, 2, 1), (2, 2, 0)])
def test_spec_rejects_degenerate_axes(dims):
    with pytest.raises(ValueError):
        LatticeSpec(*dims)


def test_spec_rejects_over_caps():
    with pytest.raises(ValueError, match="40"):
        LatticeSpec(5, 9)  # 45 spins
    with pytest.raises(ValueError, match="cap"):
        LatticeSpec(31, 2)


def test_spec_rejects_zero_coupling():
    with pytest.raises(ValueError, match="coupling"):
        LatticeSpec(2, 2, coupling=0)


@pytest.mark.parametrize("coupling", [True, False, "1", None, 1j])
def test_spec_rejects_non_real_coupling(coupling):
    # A bool J would be written as J=True, which no reader accepts.
    with pytest.raises(ValueError, match="coupling J must be a real number"):
        LatticeSpec(2, 2, coupling=coupling)


def test_spec_accepts_3d_and_boundary_sizes():
    LatticeSpec(2, 2, 2)
    LatticeSpec(4, 5, 2)  # exactly 40 spins
    LatticeSpec(20, 2)  # the tallest column a 2D lattice allows


# -- kernel tables ------------------------------------------------------------

def test_build_tables_examples():
    t = build_tables(4)
    assert t.mask == 15
    assert t.popcount_table[0b0101] == 2
    assert t.shift_table[0b1000] == 0b0001
    assert t.shift_table[0b0011] == 0b0110


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 8])
def test_table_invariants(rows):
    t = build_tables(rows)
    size = 1 << rows
    assert t.popcount_table[0] == 0
    assert t.popcount_table[t.mask] == rows
    # complement identity
    j = np.arange(size)
    assert np.array_equal(t.popcount_table[j] + t.popcount_table[j ^ t.mask],
                          np.full(size, rows))
    # shift is a popcount-preserving permutation with period rows
    assert sorted(t.shift_table.tolist()) == list(range(size))
    assert np.array_equal(t.popcount_table[t.shift_table], t.popcount_table)
    walked = j.copy()
    for _ in range(rows):
        walked = t.shift_table[walked]
    assert np.array_equal(walked, j)


@pytest.mark.parametrize("rows", [0, 1, 17, 32])
def test_build_tables_rejects_out_of_range(rows):
    with pytest.raises(ValueError, match="16"):
        build_tables(rows)


# Every boundary shape: length-2 axes on each side, 2D and 3D.
@pytest.mark.parametrize("dims", [(2, 2, 1), (3, 4, 1), (4, 2, 1), (2, 3, 2), (3, 2, 3)])
def test_block_boundary_splits_class_from_shift(dims):
    # For every low part L < 2^k and base H * 2^k, with R the words of the
    # block mask: popcount(t ^ s) = popcount(t ^ (s & R)) + popcount(s & ~R).
    spec = LatticeSpec(*dims)
    n = spec.num_spins
    for k in (1, n // 2):
        table = np.array(spec.bond_words(np.arange(1 << k, dtype=np.uint64)))
        bases = np.arange(1 << n - k, dtype=np.uint64) << np.uint64(k)
        scalars = np.array(spec.bond_words(bases))
        support = np.array(spec.bond_words(np.uint64((1 << k) - 1)))[:, None]
        t, s = table[:, :, None], scalars[:, None, :]
        cls, rest = s & support, s & ~support
        assert np.array_equal(
            np.bitwise_count(t ^ s).sum(axis=0),
            np.bitwise_count(t ^ cls).sum(axis=0)
            + np.bitwise_count(rest).sum(axis=0)), k


# -- symmetry orbits of the top unit ----------------------------------------------

# Top units of 2D columns (2 rows: double bonds) and 3D layers, square (with
# the transposition) and not, with w up to 6, TOP_BITS_CAP // 2.
ORBIT_CASES = [((2, 8, 1), 1), ((2, 8, 1), 3), ((2, 8, 1), 6), ((4, 4, 1), 2),
               ((3, 5, 1), 1), ((2, 2, 4), 2), ((3, 3, 2), 1), ((2, 3, 3), 1)]


@pytest.mark.parametrize("dims,w", ORBIT_CASES)
def test_top_symmetries_keep_each_top_range_table(dims, w):
    # Each group element permutes the unit's sites, and the top range of
    # every state walks to the same g(M, E) as the range of its image.
    spec = LatticeSpec(*dims)
    group = spec._top_group(w)
    bits = len(group[0])
    low = spec.num_spins - bits
    tables = [enumerate_shard(spec, range(t << low, (t + 1) << low))
              for t in range(1 << bits)]
    for perm in group:
        assert sorted(perm) == list(range(bits))
        for t in range(1 << bits):
            image = sum(1 << perm[i] for i in range(bits) if t >> i & 1)
            assert tables[image] == tables[t], (perm, t)


@pytest.mark.parametrize("dims,w", ORBIT_CASES + [((5, 5, 1), 1), ((4, 4, 1), 0)])
def test_orbit_walk_counts_each_top_state_once(dims, w):
    # One aligned range per orbit, in order, each starting at its orbit's
    # least state; the weights of the orbits with m up spins sum to
    # C(bits, m), so they cover every top state once and keep M.
    spec = LatticeSpec(*dims)
    walk = spec._orbit_walk(w)
    bits = w * spec.rows * (1 if spec.depth == 1 else spec.cols)
    low = spec.num_spins - bits
    firsts = [r.start >> low for r, _ in walk]
    assert firsts == sorted(set(firsts))
    assert all(r == range(t << low, (t + 1) << low)
               for t, (r, _) in zip(firsts, walk))
    by_m = [0] * (bits + 1)
    for t, (_, weight) in zip(firsts, walk):
        by_m[t.bit_count()] += weight
    assert by_m == [comb(bits, m) for m in range(bits + 1)]


@pytest.mark.parametrize("dims,w", [
    ((4, 4, 1), 0), ((4, 5, 1), 0), ((3, 6, 1), 0), ((5, 5, 1), 1),
    ((4, 6, 1), 1), ((2, 2, 6), 1), ((2, 3, 4), 1), ((5, 6, 1), 2),
    ((5, 8, 1), 2), ((2, 20, 1), 6), ((2, 2, 10), 3), ((3, 3, 4), 1),
])
def test_top_unit_width(dims, w):
    # The most units that keep 2^18 configurations per range, at most 12 bits.
    spec = LatticeSpec(*dims)
    assert spec.top_orbits == spec._orbit_walk(w)


def test_five_by_five_walks_eight_ranges():
    spec = LatticeSpec(5, 5)
    assert [len(r) for r, _ in spec.top_orbits] == [2**20] * 8
    assert [weight for _, weight in spec.top_orbits] == [1, 5, 5, 5, 5, 5, 5, 1]


# -- index layout -------------------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 2, 2), (4, 4, 1)])
def test_decode_encode_round_trip_exhaustive(dims):
    # decode_spins follows the layout the kernel's rotations assume.
    spec = LatticeSpec(*dims)
    sites = site_order(spec)
    for index in range(spec.num_configs):
        spins = decode_spins(spec, index)
        assert len(spins) == spec.num_spins and set(spins) <= {-1, 1}
        assert sum(1 << site_bit(spec, *site)
                   for site, s in zip(sites, spins) if s == 1) == index


def test_decode_rejects_out_of_range():
    spec = LatticeSpec(2, 2)
    for index in (16, -1):
        with pytest.raises(ValueError, match="outside"):
            decode_spins(spec, index)
        with pytest.raises(ValueError, match="invalid"):
            enumerate_shard(spec, range(index, index + 1))


# -- spin excess ---------------------------------------------------------------

def test_spin_excess_examples(spec4x4):
    for name, cell in ENGINES.items():
        assert cell(spec4x4, all_up(spec4x4))[0] == 16, name
        assert cell(spec4x4, 0)[0] == -16, name
        assert cell(spec4x4, 1 << 7)[0] == -14, name


def test_spin_excess_parity_and_bounds(spec4x4):
    rng = random.Random(7)
    for _ in range(200):
        index = rng.randrange(spec4x4.num_configs)
        for name, cell in ENGINES.items():
            m = cell(spec4x4, index)[0]
            assert abs(m) <= 16 and (m + 16) % 2 == 0, (name, index)


# -- bond counting ----------------------------------------------------------------
# E = -J * (2*aligned - B), with the aligned bonds of each configuration
# below counted by hand, axis by axis.

def test_aligned_row_bonds_examples():
    # 4x2: the col axis has length 2, so each row pair is a double bond, and
    # aligned = column rings + 2 * aligned row pairs; B = 16.
    spec = LatticeSpec(4, 2)
    for words, aligned in [((0b1111, 0b1111), 4 + 4 + 2 * 4),
                           ((0b1010, 0b0101), 0 + 0 + 2 * 0),
                           ((0b1100, 0b1010), 2 + 0 + 2 * 2)]:
        for name, cell in ENGINES.items():
            assert cell(spec, from_columns(spec, words))[1] == 16 - 2 * aligned, \
                (name, words)


def test_aligned_column_bonds_examples():
    # 4x2 with both columns equal: every row pair is aligned (2 * 4), so
    # E = 16 - 2 * (2 * ring + 8) = -4 * ring for the column's aligned ring.
    spec = LatticeSpec(4, 2)
    for word, ring in [(0b1111, 4), (0b1010, 0), (0b0011, 2)]:
        for name, cell in ENGINES.items():
            assert cell(spec, from_columns(spec, (word, word)))[1] == -4 * ring, \
                (name, word)


def test_column_bonds_length_two_ring():
    # rows = 2: the periodic ring of two carries a double bond.  On 2x3 with
    # equal columns every row bond is aligned (6 of B = 12), so
    # E = 12 - 2 * (3 * ring + 6) = -6 * ring.
    spec = LatticeSpec(2, 3)
    for word, ring in [(0b11, 2), (0b01, 0)]:
        for name, cell in ENGINES.items():
            assert cell(spec, from_columns(spec, (word,) * 3))[1] == -6 * ring, \
                (name, word)


# -- total energy ----------------------------------------------------------------

def test_total_energy_reference_anchors(spec4x4):
    for name, cell in ENGINES.items():
        assert cell(spec4x4, all_up(spec4x4))[1] == -32, name
        for bit in range(16):
            assert cell(spec4x4, all_up(spec4x4) ^ (1 << bit))[1] == -24, (name, bit)
        assert cell(spec4x4, checkerboard(spec4x4))[1] == 32, name


@pytest.mark.parametrize("dims", [(2, 2, 1), (3, 4, 1), (2, 2, 3)])
def test_ground_state_energy_is_minus_bonds(dims):
    spec = LatticeSpec(*dims)
    for name, cell in ENGINES.items():
        assert cell(spec, all_up(spec))[1] == -spec.num_bonds, name
        assert cell(spec, 0)[1] == -spec.num_bonds, name


def test_antiferromagnetic_coupling_flips_sign():
    anti = LatticeSpec(4, 4, coupling=-1)
    for name, cell in ENGINES.items():
        assert cell(anti, checkerboard(anti))[1] == -32, name
        assert cell(anti, all_up(anti))[1] == 32, name


def test_global_flip_symmetry(spec4x4):
    rng = random.Random(11)
    for _ in range(200):
        index = rng.randrange(spec4x4.num_configs)
        for name, cell in ENGINES.items():
            m, e = cell(spec4x4, index)
            assert cell(spec4x4, all_up(spec4x4) ^ index) == (-m, e), (name, index)


@pytest.mark.parametrize("dims", [(3, 4, 1), (2, 3, 2)])
def test_periodic_shift_invariance(dims):
    spec = LatticeSpec(*dims)
    rows, cols, depth = spec.rows, spec.cols, spec.depth
    steps = [lambda r, c, l: ((r + 1) % rows, c, l),   # roll every column by a row
             lambda r, c, l: (r, (c - 1) % cols, l),   # rotate the columns
             lambda r, c, l: (r, c, (l + 1) % depth)]  # roll the layers
    rng = random.Random(13)
    for _ in range(100):
        index = rng.randrange(spec.num_configs)
        for name, cell in ENGINES.items():
            m_e = cell(spec, index)
            for step in steps:
                assert cell(spec, moved(spec, index, step)) == m_e, (name, index)


def test_energy_parity_and_bounds(spec4x4):
    rng = random.Random(17)
    for _ in range(300):
        index = rng.randrange(spec4x4.num_configs)
        for name, cell in ENGINES.items():
            e = cell(spec4x4, index)[1]
            assert e % 2 == 0 and -32 <= e <= 32, (name, index)
