import errno
import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from isingdos import (
    DoSHistogram,
    LatticeSpec,
    enumerate_shard,
    full_dos,
    full_dos_timed,
    make_shards,
    merge,
    verify_dos,
)
from isingdos import enumeration
from isingdos.enumeration import BLOCK_BITS

from conftest import DOS_2X2_CELLS, children, oracle_cell

ROOT = Path(__file__).resolve().parents[1]


def _chosen_k(spec):
    # k of the plan that every walk of spec bins by.
    return enumeration._plan(spec.rows, spec.cols, spec.depth,
                             enumeration.BLOCK_BITS, enumeration.CELL_CAP).k


# -- sharding -----------------------------------------------------------------

# 4x4 and 2x2 walk [0, 2^N) whole (w = 0): each shard is one range of
# weight 1.

def test_make_shards_single():
    spec = LatticeSpec(4, 4)
    assert make_shards(spec, 1) == [[(range(0, 65536), 1)]]


def test_make_shards_equal_quarters():
    spec = LatticeSpec(4, 4)
    shards = make_shards(spec, 4)
    assert shards == [[(range(0, 16384), 1)], [(range(16384, 32768), 1)],
                      [(range(32768, 49152), 1)], [(range(49152, 65536), 1)]]


def test_make_shards_near_equal_split():
    spec = LatticeSpec(2, 2)
    shards = make_shards(spec, 3)
    assert [len(r) for ((r, _),) in shards] == [6, 5, 5]


def _check_cut(spec, shards):
    # The shards walk near-equal, contiguous pieces of spec.top_orbits: in
    # order, the pieces are the walk's ranges, each weight kept.
    sizes = [sum(len(r) for r, _ in shard) for shard in shards]
    assert max(sizes) - min(sizes) <= 1
    merged = []
    for r, w in (piece for shard in shards for piece in shard):
        if merged and merged[-1][1] == r.start and merged[-1][2] == w:
            merged[-1][1] = r.stop
        else:
            merged.append([r.start, r.stop, w])
    assert merged == [[r.start, r.stop, w] for r, w in spec.top_orbits]
    assert shards == make_shards(spec, len(shards))  # deterministic


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 7, 16])
def test_make_shards_partition_invariants(num_shards):
    spec = LatticeSpec(2, 2)
    shards = make_shards(spec, num_shards)
    assert len(shards) == num_shards
    _check_cut(spec, shards)


def test_make_shards_rejects_out_of_range():
    spec = LatticeSpec(2, 2)
    with pytest.raises(ValueError, match=r"num_shards must be in \[1, 2\^4\]"):
        make_shards(spec, 0)
    with pytest.raises(ValueError, match=r"num_shards must be in \[1, 2\^4\]"):
        make_shards(spec, 17)
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="num_shards must be an integer"):
            make_shards(spec, bad)


def test_one_shard_is_the_orbit_walk_a_serial_walk_runs(monkeypatch):
    # The benchmark's probe walks make_shards(spec, 1)[0]: on 5x5 that is
    # the orbit walk, and a serial full_dos walks exactly it.
    spec = LatticeSpec(5, 5)
    (shard,) = make_shards(spec, 1)
    assert shard == list(spec.top_orbits)
    real, walked = enumeration.enumerate_shard, []

    def walk(spec_, shard_):
        walked.append(shard_)
        return real(spec_, shard_)
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)
    full_dos_timed(spec, workers=1)
    assert walked == [shard]


# -- shard enumeration -----------------------------------------------------------

def test_enumerate_full_range_2x2():
    spec = LatticeSpec(2, 2)
    dos = enumerate_shard(spec, make_shards(spec, 1)[0])
    assert dos.cells() == DOS_2X2_CELLS
    assert dos.total() == 16


def test_enumerate_empty_shard():
    spec = LatticeSpec(2, 2)
    dos = enumerate_shard(spec, [(range(5, 5), 1)])
    assert dos.total() == 0
    assert not np.any(dos.counts)


def test_enumerate_touches_each_index_once():
    # Every configuration lands in exactly one cell, so the partial totals
    # count the visited indices.
    spec = LatticeSpec(3, 3)
    for shard in make_shards(spec, 5):
        part = enumerate_shard(spec, shard)
        assert part.total() == sum(len(r) for r, _ in shard)


def test_enumerate_rejects_bad_shard():
    spec = LatticeSpec(2, 2)
    # Past the end, then two stepped ranges.
    for bad in (range(0, 17), range(0, 16, 2), range(15, -1, -1)):
        with pytest.raises(ValueError, match="invalid"):
            enumerate_shard(spec, [(bad, 1)])
    # Weights that are not positive ints.
    for weight in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="invalid"):
            enumerate_shard(spec, [(range(0, 16), weight)])


def _oracle_slice(spec, shard):
    # The naive engine's g(M, E) of the shard's indices, one by one.
    expected = DoSHistogram(spec)
    for index in shard:
        m, e = oracle_cell(spec, index)
        expected.counts[expected.m_index(m), expected.e_index(e)] += 1
    return expected


def test_enumerate_tall_columns_without_tables():
    # Past the oracle's full-walk cap: check a slice of 17x2 (34 spins)
    # configuration by configuration against the naive engine.
    spec = LatticeSpec(17, 2)
    shard = range(123456, 123456 + 4096)
    dos = enumerate_shard(spec, [(shard, 1)])
    assert dos.total() == 4096
    assert dos == _oracle_slice(spec, shard)


# 5x8 packs its two 40-bit axis masks into two words and has index bits
# above 32; 2x2x6 packs three 24-bit masks into two words, with J = -1.  So
# both key their boundary classes on more than one word.  block_bits None
# walks at the lattice's own k, which is one of BLOCK_BITS.
@pytest.mark.parametrize("dims,coupling", [((5, 8, 1), 1), ((2, 2, 6), -1)])
@pytest.mark.parametrize("block_bits", [0, 1, 3, 12, *BLOCK_BITS, None])
def test_enumerate_top_slice_matches_oracle(monkeypatch, dims, coupling,
                                            block_bits):
    spec = LatticeSpec(*dims, coupling=coupling)
    if block_bits is None:
        block_bits = _chosen_k(spec)
        assert block_bits in BLOCK_BITS
    else:
        monkeypatch.setattr(enumeration, "BLOCK_BITS", (block_bits,))
    # 4096 indices near the top of the index space, straddling the block
    # boundary 5 blocks of 2^max(k, 14) below 2^N (and many more smaller
    # blocks).
    start = spec.num_configs - 5 * (1 << max(block_bits, 14)) - 2000
    shard = range(start, start + 4096)
    dos = enumerate_shard(spec, [(shard, 1)])
    assert dos.total() == 4096
    assert dos == _oracle_slice(spec, shard)
    # Cut 3 indices past a block boundary inside the slice: the pieces
    # still add up to the same histogram.
    size = 1 << block_bits
    cut = (start + 2048) // size * size + 3
    head = enumerate_shard(spec, [(range(start, cut), 1)])
    tail = enumerate_shard(spec, [(range(cut, shard.stop), 1)])
    assert merge([head, tail]) == dos


def test_enumerate_block_bits_is_invisible(monkeypatch):
    # Each BLOCK_BITS walks its own k, at most N, to the same table.
    spec = LatticeSpec(3, 4)
    shard = make_shards(spec, 1)[0]
    reference = enumerate_shard(spec, shard)
    real, walked = enumeration._Blocks.layout, set()

    def layout(blocks, m):
        walked.add(blocks.k)
        return real(blocks, m)
    monkeypatch.setattr(enumeration._Blocks, "layout", layout)
    for block_bits in (0, 1, 3, spec.num_spins, spec.num_spins + 8):
        monkeypatch.setattr(enumeration, "BLOCK_BITS", (block_bits,))
        walked.clear()
        assert enumerate_shard(spec, shard) == reference
        assert walked == {min(block_bits, spec.num_spins)}, block_bits


@pytest.mark.parametrize("dims,k", [((5, 5), 15), ((4, 6), 14), ((2, 4, 5), 16),
                                    ((2, 2, 6), 16), ((5, 8), 17), ((3, 3, 4), 17),
                                    ((19, 2), 14)])
def test_each_lattice_walks_at_its_cheapest_block_bits(dims, k):
    # 5x5 takes three whole columns; 2x4x5 two whole layers, whose boundary
    # is 16 sites of degree 1.  Without the per-base adds of the estimate,
    # 2x2x6 would walk at 14 and 5x8 at 15; without the per-piece call,
    # 19x2 at 16.
    assert _chosen_k(LatticeSpec(*dims)) == k


@pytest.mark.parametrize("dims", [(3, 3, 3), (3, 4, 2), (2, 2, 7)])
def test_tables_at_the_chosen_block_bits_equal_those_at_14(monkeypatch, dims):
    spec = LatticeSpec(*dims)
    k = _chosen_k(spec)
    assert k != 14
    chosen = full_dos(spec, workers=1)
    monkeypatch.setattr(enumeration, "BLOCK_BITS", (14,))
    assert full_dos(spec, workers=1) == chosen


def test_whole_walk_bins_each_boundary_class_once(monkeypatch):
    # One bincount per piece, whatever its boundary classes: the transform
    # over the piece's boundary sites gives every class's histogram.
    real, calls = np.bincount, []

    def bincount(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "bincount", bincount)
    spec = LatticeSpec(5, 5)
    # [0, 2^25) at 2^15-index blocks, three whole columns: the boundary
    # sites are the other two columns, each of degree 1.  Those below bit
    # 23 fit CELL_CAP (2^8 patterns of 16 * 36 cells) and site 23 would
    # double them, so 4 pieces of 2^23.
    enumerate_shard(spec, [(range(spec.num_configs), 1)])
    assert len(calls) == 4
    # The orbit walk: 8 top ranges of 2^20, each one piece.
    del calls[:]
    full_dos(spec, workers=1)
    assert len(calls) == 8


def test_couplings_of_one_lattice_share_its_plan():
    # The plan of a lattice's blocks depends on its geometry alone: J only
    # mirrors the finished table.
    enumeration._plan.cache_clear()
    full_dos(LatticeSpec(2, 3), workers=1)
    full_dos(LatticeSpec(2, 3, coupling=-1), workers=1)
    info = enumeration._plan.cache_info()
    assert (info.hits, info.misses) == (3, 1)  # the driver's and the walk's


def test_each_geometry_builds_its_plan_once():
    # Plans are kept across walks: 6 geometries walked twice build 6,
    # where a cache of the last 4 would build all 12.
    enumeration._plan.cache_clear()
    shapes = [(2, 2), (3, 3), (3, 4), (4, 4), (2, 2, 2), (2, 2, 3)]
    for _ in range(2):
        for dims in shapes:
            full_dos(LatticeSpec(*dims), workers=1)
    info = enumeration._plan.cache_info()
    assert info.misses == info.currsize == len(shapes)


def test_forked_walkers_inherit_the_plan(monkeypatch, spec4x4, two_cpus):
    # A first walk builds its plan before the driver forks, so the walker
    # inherits it rather than building its own.
    enumeration._plan.cache_clear()
    real, cached = os.fork, []

    def fork():
        cached.append(enumeration._plan.cache_info().currsize)
        return real()
    monkeypatch.setattr(os, "fork", fork)
    full_dos(spec4x4, workers=2)
    assert cached == [1]


@pytest.mark.parametrize("dims,coupling", [((5, 8, 1), 1), ((2, 2, 6), -1)])
def test_pieces_halved_to_fit_the_cell_cap_keep_the_table(monkeypatch, dims,
                                                          coupling):
    # A low cap splits each piece into more, smaller ones; every split
    # walks the same indices once.  On 5x8 the top slice of
    # test_enumerate_top_slice_matches_oracle at 2^3-index blocks (512 whole
    # blocks), against the oracle; on 2x2x6 the orbit walk at its own k,
    # against itself at the default cap.  k stays fixed as the cap falls.
    spec = LatticeSpec(*dims, coupling=coupling)
    if spec.num_spins > 24:
        start = spec.num_configs - 5 * (1 << 14) - 2000
        shard = [(range(start, start + 4096), 1)]
        expected = _oracle_slice(spec, shard[0][0])
        monkeypatch.setattr(enumeration, "BLOCK_BITS", (3,))
    else:
        shard = make_shards(spec, 1)[0]
        expected = enumerate_shard(spec, shard)
        monkeypatch.setattr(enumeration, "BLOCK_BITS", (_chosen_k(spec),))
    real, calls = np.bincount, []

    def bincount(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "bincount", bincount)
    pieces = []
    for cap in (1 << 20, 1 << 13, 1 << 12, 1 << 11, 1 << 10, 1 << 9, 1):
        monkeypatch.setattr(enumeration, "CELL_CAP", cap)
        del calls[:]
        assert enumerate_shard(spec, shard) == expected, cap
        pieces.append(len(calls))
    assert pieces == sorted(pieces) and len(set(pieces)) >= 3, pieces


# SHA-256 of the int64 tables of full_dos, each equal to
# benchmarks/tests/test_reference.py's transfer_matrix_counts for the same
# lattice (a transfer matrix that shares no code with the walk), from which
# they were pinned.  5x7 walks 2^35 configurations, 4x8 2^32.
@pytest.mark.parametrize("dims,coupling,digest", [
    ((5, 7), 1, "7f99328837bb7c60048d36d19489e4045b4cb6719543fc6882caa403053553d7"),
    ((5, 7), -1, "627636399f58b7d696571e8dbe1d67cfd9fd5de7e9c5c546774091ce51f87eb1"),
    ((4, 8), 1, "fa341a8a0f6c5cc3d9faea5d14bfa37c5d386c5447218f81aad8b96ca772cb33"),
])
def test_large_tables_keep_their_transfer_matrix_digest(dims, coupling, digest):
    counts = full_dos(LatticeSpec(*dims, coupling=coupling), workers=1).counts
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


def test_3d_table_above_24_spins_keeps_its_walk_digest():
    # A regression pin from the walk itself, not an independent check: no
    # engine that shares no code with the walk reaches 3D above 24 spins.
    # 3x3x4 (2^36 configurations) gave this SHA-256 at k = 14 and k = 17.
    counts = full_dos(LatticeSpec(3, 3, 4), workers=1).counts
    assert (hashlib.sha256(counts.tobytes()).hexdigest()
            == "90aac13fbc2863799d8736031efaddc945d74f531d48d0ff99cfb7d5e4d163bb")


# Every boundary shape the axis rotations handle: a length-2 axis on each
# side, axes of length >= 3 together, and J = -1 in 2D and 3D.
@pytest.mark.parametrize("dims,coupling", [
    ((2, 5, 1), 1), ((5, 2, 1), 1), ((2, 2, 1), 1), ((2, 2, 2), 1),
    ((3, 2, 2), 1), ((2, 3, 2), 1), ((2, 2, 3), 1), ((3, 4, 1), 1),
    ((2, 3, 3), 1), ((3, 4, 1), -1), ((2, 2, 3), -1),
])
def test_enumerate_full_range_matches_oracle(monkeypatch, dims, coupling,
                                             oracle_dos):
    spec = LatticeSpec(*dims, coupling=coupling)
    whole = make_shards(spec, 1)[0]
    expected = oracle_dos(spec)
    n = spec.num_spins
    for bits in (0, 1, 3, n, n + 1):
        monkeypatch.setattr(enumeration, "BLOCK_BITS", (bits,))
        dos = enumerate_shard(spec, whole)
        assert dos == expected
        # A shard that starts 1, 3 or 2^k - 1 indices past a block
        # boundary: the pieces still add up to the same histogram.
        size = 1 << min(bits, n)
        for past in (1, 3, size - 1):
            cut = spec.num_configs // 2 // size * size + past
            head = enumerate_shard(spec, [(range(0, cut), 1)])
            tail = enumerate_shard(spec, [(range(cut, spec.num_configs), 1)])
            assert merge([head, tail]) == dos, past


# -- symmetry-orbit walk ---------------------------------------------------------

# The orbit walk at every w the chooser gives, up to TOP_BITS_CAP // 2 = 6 at
# 2 rows, forced through the layout helper: double bonds, 2D and 3D, J = +-1,
# and a square layer, whose group holds the transposition.
@pytest.mark.parametrize("dims,coupling,ws", [
    ((2, 8, 1), 1, range(7)), ((2, 8, 1), -1, range(7)),
    ((4, 4, 1), 1, (1, 2)), ((3, 6, 1), 1, (1, 2, 3)),
    ((2, 2, 4), -1, (1, 2, 3)), ((3, 3, 2), 1, (1,)),
])
def test_orbit_walk_matches_oracle(dims, coupling, ws, oracle_dos):
    spec = LatticeSpec(*dims, coupling=coupling)
    expected = oracle_dos(spec)
    for w in ws:
        assert enumerate_shard(spec, spec._orbit_walk(w)) == expected, w


# 24 spins, past what the oracle walks in a test: against the plain walk.
@pytest.mark.parametrize("dims", [(4, 6, 1), (2, 2, 6)])
def test_orbit_walk_matches_plain_walk(dims):
    spec = LatticeSpec(*dims, coupling=-1)
    plain = enumerate_shard(spec, [(range(spec.num_configs), 1)])
    for w in (1, 2):
        assert enumerate_shard(spec, spec._orbit_walk(w)) == plain, w


@pytest.fixture(scope="module")
def plain5x5():
    spec = LatticeSpec(5, 5)
    return enumerate_shard(spec, [(range(spec.num_configs), 1)])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sharded_orbit_walk_is_bit_identical(plain5x5, workers):
    dos = full_dos(LatticeSpec(5, 5), workers=workers)
    assert np.array_equal(dos.counts, plain5x5.counts)


def test_tables_keep_their_digest_at_every_worker_count():
    # One SHA-256 over the int64 tables in this order: no worker count and
    # no change to the driver may move a single count.
    digest = hashlib.sha256()
    for spec in (LatticeSpec(5, 5), LatticeSpec(4, 6),
                 LatticeSpec(2, 2, 6, coupling=-1), LatticeSpec(4, 4)):
        for workers in (1, 2, 3, 5):
            digest.update(full_dos(spec, workers=workers).counts.tobytes())
    assert digest.hexdigest() == ("c696742c0f53323f2afba71e314b82cb"
                                  "a4a324138eb5545a810876c8c8d2a24e")


@pytest.mark.parametrize("dims", [(5, 5, 1), (2, 2, 6), (4, 4, 1)])
def test_workers_walk_near_equal_pieces_of_the_orbit_walk(dims):
    spec = LatticeSpec(*dims)
    for workers in range(1, 17):
        pieces = make_shards(spec, workers)
        assert len(pieces) == workers
        _check_cut(spec, pieces)
        if len(spec.top_orbits) == 1:  # w = 0: the plain walk's layout
            base, extra = divmod(spec.num_configs, workers)
            cuts = [i * base + min(i, extra) for i in range(workers + 1)]
            assert pieces == [[(range(lo, hi), 1)]
                              for lo, hi in zip(cuts, cuts[1:])]


def test_two_workers_walk_four_five_by_five_ranges_each():
    pieces = make_shards(LatticeSpec(5, 5), 2)
    assert [[w for _, w in piece] for piece in pieces] == [[1, 5, 5, 5],
                                                           [5, 5, 5, 1]]


# -- merging ------------------------------------------------------------------

def test_merge_of_halves_matches_full(dos2x2):
    spec = LatticeSpec(2, 2)
    parts = [enumerate_shard(spec, s) for s in make_shards(spec, 2)]
    assert merge(parts) == dos2x2


def test_merge_quarter_shards_matches_single(dos4x4, spec4x4):
    parts = [enumerate_shard(spec4x4, s) for s in make_shards(spec4x4, 4)]
    assert merge(parts) == dos4x4


def test_merge_is_order_invariant(spec4x4):
    parts = [enumerate_shard(spec4x4, s) for s in make_shards(spec4x4, 3)]
    assert merge(parts) == merge(parts[::-1])


def test_merge_rejects_mismatched_specs():
    a = DoSHistogram(LatticeSpec(2, 2))
    b = DoSHistogram(LatticeSpec(2, 3))
    with pytest.raises(ValueError):
        merge([a, b])
    with pytest.raises(ValueError):
        merge([])


# -- shard determinism across worker counts -------------------------------------

@pytest.mark.parametrize("dims", [(3, 4, 1), (4, 4, 1)])
def test_shard_count_never_changes_the_histogram(dims):
    spec = LatticeSpec(*dims)
    baseline = enumerate_shard(spec, make_shards(spec, 1)[0])
    for p in (2, 3, 4, 8):
        parts = [enumerate_shard(spec, s) for s in make_shards(spec, p)]
        assert merge(parts) == baseline


# -- histogram container ---------------------------------------------------------

def test_histogram_index_mapping(dos4x4):
    assert dos4x4.m_index(16) == 16 and dos4x4.m_index(-16) == 0
    assert dos4x4.e_index(-32) == 0 and dos4x4.e_index(32) == 32
    with pytest.raises(ValueError):
        dos4x4.m_index(3)  # wrong parity for N=16
    with pytest.raises(ValueError):
        dos4x4.e_index(-3)  # odd energy
    with pytest.raises(ValueError):
        dos4x4.e_index(34)  # out of range


def test_histogram_count_queries(dos4x4):
    assert dos4x4.count(16, -32) == 1
    assert dos4x4.count(16, -30) == 0  # off the even grid
    assert dos4x4.count(15, -32) == 0  # wrong M parity


def test_cells_sorted_m_desc_e_asc(dos4x4):
    cells = dos4x4.cells()
    keys = [(-m, e) for _, m, e in cells]
    assert keys == sorted(keys)


def test_histogram_rejects_wrong_shape():
    with pytest.raises(ValueError):
        DoSHistogram(LatticeSpec(2, 2), counts=np.zeros((3, 3), dtype=np.int64))


def test_antiferromagnetic_dos_mirrors_energy_axis():
    ferro = full_dos(LatticeSpec(2, 2), workers=1)
    anti = full_dos(LatticeSpec(2, 2, coupling=-1), workers=1)
    for count, m, e in ferro.cells():
        assert anti.count(m, -e) == count
    assert verify_dos(anti).passed


# -- verification -----------------------------------------------------------------

def test_verify_passes_on_complete_dos(dos4x4):
    report = verify_dos(dos4x4)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "total-count", "binomial-marginals", "flip-symmetry", "energy-grid"]
    assert str(report).count("PASS") == 4


def test_verify_catches_single_count_perturbation(dos4x4):
    tweaked = DoSHistogram(dos4x4.spec, dos4x4.counts.copy())
    tweaked.counts[tweaked.m_index(0), tweaked.e_index(0)] += 1
    report = verify_dos(tweaked)
    assert not report.passed
    assert "total-count" in report.failed_names()
    assert "65537 != 2^16" in str(report)


def test_verify_catches_asymmetry(dos4x4):
    tweaked = DoSHistogram(dos4x4.spec, dos4x4.counts.copy())
    tweaked.counts[tweaked.m_index(2), tweaked.e_index(0)] += 1
    tweaked.counts[tweaked.m_index(4), tweaked.e_index(0)] -= 1
    report = verify_dos(tweaked)
    assert "flip-symmetry" in report.failed_names()
    assert "total-count" not in report.failed_names()


def test_verify_catches_odd_anti_aligned_count(dos4x4):
    # Move one M = 0 configuration from column 8 to column 9, an odd number
    # of anti-aligned bonds: totals, marginals and flip symmetry all survive.
    tweaked = DoSHistogram(dos4x4.spec, dos4x4.counts.copy())
    tweaked.counts[8, 8] -= 1
    tweaked.counts[8, 9] += 1
    report = verify_dos(tweaked)
    assert report.failed_names() == ["energy-grid"]
    assert "FAIL energy-grid: (M=0, E=-14)" in str(report)


def test_energy_grid_counts_anti_aligned_bonds_for_negative_coupling():
    # 3x3x3 has B = 81 bonds, so for J < 0 a column's parity differs from
    # its anti-aligned bond count.  Both aligned states have no anti-aligned
    # bond and sit in column B; column B - 1 holds one anti-aligned bond.
    spec = LatticeSpec(3, 3, 3, coupling=-1)
    b = spec.num_bonds
    assert enumerate_shard(spec, [(range(0, 1), 1)]).counts[0, b] == 1
    dos = DoSHistogram(spec)
    dos.counts[[0, -1], b] = 1
    assert "energy-grid" not in verify_dos(dos).failed_names()
    dos.counts[[0, -1], b - 1] = 1
    assert "energy-grid" in verify_dos(dos).failed_names()


def test_verify_fails_zero_histogram():
    report = verify_dos(DoSHistogram(LatticeSpec(2, 2)))
    assert not report.passed
    assert "total-count" in report.failed_names()


# -- parallel driver ---------------------------------------------------------------

def test_full_dos_timed_reports_workers(spec4x4, dos4x4, two_cpus):
    hist, wall, per_worker = full_dos_timed(spec4x4, workers=2)
    assert hist == dos4x4
    assert wall > 0
    assert len(per_worker) == 2
    assert all(t > 0 for t in per_worker)


@pytest.mark.parametrize("dims", [(2, 2), (3, 4)])
def test_auto_workers_walk_one_block_serially(monkeypatch, dims):
    # A lattice of one block: auto mode forks nothing.
    spec = LatticeSpec(*dims)
    expected = full_dos(spec, workers=1)
    monkeypatch.setattr(os, "fork", None)
    hist, _, per_worker = full_dos_timed(spec)
    assert hist == expected and len(per_worker) == 1
    assert full_dos(spec) == expected


def test_full_dos_rejects_bad_workers(spec4x4):
    with pytest.raises(ValueError):
        full_dos(spec4x4, workers=0)
    with pytest.raises(ValueError, match=r"workers must be in \[1, 2\^16\]"):
        full_dos(spec4x4, workers=2 ** 16 + 1)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            full_dos(spec4x4, workers=bad)


@pytest.fixture
def deadline():
    # A driver that hangs fails the test instead of stalling the suite.
    def expire(signum, frame):
        raise TimeoutError("full_dos did not return")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _second_shard_fails(monkeypatch, fail):
    # A worker walks its shard's (range, weight) pieces with one
    # enumerate_shard call.
    real = enumeration.enumerate_shard

    def walk(spec, pieces):
        if pieces[0][0].start:
            fail()
        return real(spec, pieces)
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)


def _counting_forks(monkeypatch, forks):
    # Appends to forks the number of this process's children at each fork.
    real = os.fork

    def fork():
        forks.append(len(children()))
        return real()
    monkeypatch.setattr(os, "fork", fork)


def test_worker_exception_reaches_the_caller(monkeypatch, spec4x4, deadline,
                                             two_cpus):
    def fail():
        raise ArithmeticError("shard walk failed")
    _second_shard_fails(monkeypatch, fail)
    with pytest.raises(enumeration.WorkerError) as caught:
        full_dos(spec4x4, workers=2)
    # The worker's exception first, then its traceback.
    message = str(caught.value)
    assert message.splitlines()[0] == (
        "shard worker 1 raised ArithmeticError: shard walk failed")
    assert "in fail" in message
    assert not children()


def test_worker_headline_is_the_first_line_of_its_exception(monkeypatch, spec4x4,
                                                            deadline, two_cpus):
    # A message of two lines and a note (__notes__, which add_note sets
    # from Python 3.11): neither ends the headline.
    def fail():
        exc = ValueError("first line\nsecond line")
        exc.__notes__ = ["a note"]
        raise exc
    _second_shard_fails(monkeypatch, fail)
    with pytest.raises(enumeration.WorkerError) as caught:
        full_dos(spec4x4, workers=2)
    message = str(caught.value)
    assert message.splitlines()[0] == "shard worker 1 raised ValueError: first line"
    assert "second line" in message
    assert not children()


def test_failed_start_closes_every_pipe(monkeypatch, spec4x4, deadline):
    # Three usable CPUs: two workers start besides the caller, the second fails.
    ends = []

    def pipe():
        ends.extend(real_pipe())
        return ends[-2:]

    def fork():
        if len(ends) > 2:
            raise OSError("no more processes")
        return real_fork()
    real_pipe, real_fork = os.pipe, os.fork
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(enumeration, "available_parallelism", lambda: 3)
    with pytest.raises(OSError, match="no more processes"):
        full_dos(spec4x4, workers=3)
    assert len(ends) == 4
    for fd in ends:
        with pytest.raises(OSError) as caught:
            os.fstat(fd)
        assert caught.value.errno == errno.EBADF, fd
    assert not children()


def test_worker_that_dies_silently_raises(monkeypatch, spec4x4, deadline,
                                          two_cpus):
    _second_shard_fails(monkeypatch, lambda: os._exit(3))
    with pytest.raises(enumeration.WorkerError,
                       match="shard worker 1 exited with code 3"):
        full_dos(spec4x4, workers=2)
    assert not children()


def test_failed_worker_raises_while_a_later_one_still_walks(monkeypatch, spec4x4,
                                                            deadline):
    # Three usable CPUs: worker 1 dies at once, worker 2 would walk for 120 s.
    real = enumeration.enumerate_shard
    starts = [shard[0][0].start for shard in enumeration.make_shards(spec4x4, 3)]

    def walk(spec, pieces):
        if pieces[0][0].start == starts[1]:
            os._exit(3)
        if pieces[0][0].start == starts[2]:
            time.sleep(120)
        return real(spec, pieces)
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)
    monkeypatch.setattr(enumeration, "available_parallelism", lambda: 3)
    with pytest.raises(enumeration.WorkerError,
                       match="shard worker 1 exited with code 3"):
        full_dos(spec4x4, workers=3)
    assert not children()


def test_table_cells_past_int32_come_back_exact(monkeypatch, spec4x4, dos4x4,
                                                deadline, two_cpus):
    real = enumeration.enumerate_shard

    def walk(spec, pieces):
        hist = real(spec, pieces)
        if pieces[0][0].start:
            hist.counts[0, 0] += 2**40 + 1
        return hist
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)
    expected = dos4x4.counts.copy()
    expected[0, 0] += 2**40 + 1
    assert np.array_equal(full_dos(spec4x4, workers=2).counts, expected)
    assert not children()


def test_reply_of_the_wrong_length_raises(monkeypatch, spec4x4, deadline,
                                          two_cpus):
    real = enumeration._shard_worker

    def worker(spec, shard, fd):
        if shard[0][0].start:
            os.write(fd, bytes(16))
        else:
            real(spec, shard, fd)
    monkeypatch.setattr(enumeration, "_shard_worker", worker)
    with pytest.raises(enumeration.WorkerError,
                       match="shard worker 1 replied 16 bytes"):
        full_dos(spec4x4, workers=2)
    assert not children()


def test_live_workers_never_exceed_usable_cpus(monkeypatch, spec4x4, dos4x4,
                                               deadline):
    # Five workers, three usable CPUs: three walkers, two of them forked;
    # each fork finds at most the other worker alive.
    real_worker, forks = enumeration._shard_worker, []

    def worker(spec, shard, fd):
        time.sleep(0.2)
        real_worker(spec, shard, fd)
    monkeypatch.setattr(enumeration, "available_parallelism", lambda: 3)
    monkeypatch.setattr(enumeration, "_shard_worker", worker)
    _counting_forks(monkeypatch, forks)
    hist, _, per_worker = full_dos_timed(spec4x4, workers=5)
    assert hist == dos4x4 and len(per_worker) == 3
    assert len(forks) == 2 and max(forks) <= 1, forks


def _walks_by_pid(monkeypatch, walks):
    # Appends (pid, pieces) to walks at each walk; a forked worker appends
    # to its own copy of the list.
    real = enumeration.enumerate_shard

    def walk(spec, pieces):
        walks.append((os.getpid(), pieces))
        return real(spec, pieces)
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)


def test_caller_walks_shard_0_and_forks_one_process_per_other_shard(
        monkeypatch, plain5x5, two_cpus):
    spec = LatticeSpec(5, 5)
    walks, forks = [], []
    _walks_by_pid(monkeypatch, walks)
    _counting_forks(monkeypatch, forks)
    for calls in (1, 2):
        hist, _, per_worker = full_dos_timed(spec, workers=2)
        assert hist == plain5x5 and len(per_worker) == 2
        assert len(forks) == calls
    assert walks == [(os.getpid(), make_shards(spec, 2)[0])] * 2


def test_more_workers_than_cpus_fork_one_walker_per_other_cpu(
        monkeypatch, spec4x4, dos4x4, deadline, two_cpus):
    # Five workers on two usable CPUs: the walk is cut in two, the caller
    # walks the first half and one forked process the second.
    walks, forks = [], []
    _walks_by_pid(monkeypatch, walks)
    _counting_forks(monkeypatch, forks)
    hist, _, per_worker = full_dos_timed(spec4x4, workers=5)
    assert hist == dos4x4 and len(forks) == 1
    assert len(per_worker) == 2 and all(t > 0 for t in per_worker)
    assert walks == [(os.getpid(), make_shards(spec4x4, 2)[0])]
    assert not children()


def test_one_usable_cpu_walks_every_shard_in_the_caller(monkeypatch, spec4x4,
                                                        dos4x4):
    walks = []
    _walks_by_pid(monkeypatch, walks)
    monkeypatch.setattr(enumeration, "available_parallelism", lambda: 1)
    monkeypatch.setattr(os, "fork", None)
    hist, _, per_worker = full_dos_timed(spec4x4, workers=3)
    assert hist == dos4x4 and len(per_worker) == 1
    assert walks == [(os.getpid(), make_shards(spec4x4, 1)[0])]


def test_without_fork_the_caller_walks_every_shard(monkeypatch, spec4x4,
                                                   dos4x4, two_cpus):
    # Where os has no fork, two usable CPUs walk as one.
    walks = []
    _walks_by_pid(monkeypatch, walks)
    monkeypatch.delattr(os, "fork")
    hist, _, per_worker = full_dos_timed(spec4x4, workers=3)
    assert hist == dos4x4 and len(per_worker) == 1
    assert walks == [(os.getpid(), make_shards(spec4x4, 1)[0])]


@pytest.mark.parametrize("dims", [(4, 4), (5, 5)])
def test_walker_j_walks_shard_j_of_one_shard_per_walker(monkeypatch, tmp_path,
                                                        deadline, dims):
    # Eight workers on three, then five usable CPUs: the walk is cut into
    # one shard per walker, and walker j walks shard j; the caller is
    # walker 0, and forked walker j is the j-th fork.  Each walk leaves its
    # shard in a file named after its process.
    spec = LatticeSpec(*dims)
    serial = full_dos(spec, workers=1)
    real_walk, real_fork, pids = enumeration.enumerate_shard, os.fork, []

    def walk(spec_, pieces):
        (tmp_path / str(os.getpid())).write_bytes(pickle.dumps(pieces))
        return real_walk(spec_, pieces)

    def fork():
        pid = real_fork()
        pids.extend([pid] if pid else [])
        return pid
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)
    monkeypatch.setattr(os, "fork", fork)
    for cpus in (3, 5):
        monkeypatch.setattr(enumeration, "available_parallelism", lambda: cpus)
        pids.clear()
        hist, _, per_worker = full_dos_timed(spec, workers=8)
        assert hist == serial and len(per_worker) == cpus
        walks = [pickle.loads((tmp_path / str(pid)).read_bytes())
                 for pid in [os.getpid(), *pids]]
        assert walks == make_shards(spec, cpus)


@pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
def test_caller_walk_failure_is_raised_as_is_and_stops_the_workers(
        monkeypatch, spec4x4, deadline, two_cpus, error):
    def walk(spec, pieces):
        if pieces[0][0].start:  # a forked worker: it would outlive the test
            time.sleep(120)
        raise error("caller walk failed")
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)
    with pytest.raises(error, match="caller walk failed") as caught:
        full_dos(spec4x4, workers=2)
    assert caught.value.__cause__ is None and caught.value.__context__ is None
    assert not children()


def test_serial_walk_never_imports_multiprocessing():
    # Neither a serial walk and its check nor a walk with a forked worker
    # loads multiprocessing.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from isingdos import LatticeSpec, enumeration, full_dos, verify_dos\n"
            "assert verify_dos(full_dos(LatticeSpec(5, 5), workers=1)).passed\n"
            "enumeration.available_parallelism = lambda: 2\n"
            "assert verify_dos(full_dos(LatticeSpec(5, 5), workers=2)).passed\n"
            "assert 'multiprocessing' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
