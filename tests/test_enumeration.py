import numpy as np
import pytest

from isingdos import (
    DoSHistogram,
    LatticeSpec,
    decode_spins,
    enumerate_shard,
    full_dos,
    full_dos_timed,
    make_shards,
    merge,
    oracle_energy,
    oracle_full_dos,
    oracle_magnetization,
    verify_dos,
)
from isingdos import enumeration
from isingdos.enumeration import BLOCK_BITS, Shard

from conftest import DOS_2X2_CELLS


# -- sharding -----------------------------------------------------------------

def test_make_shards_single():
    spec = LatticeSpec(4, 4)
    (shard,) = make_shards(spec, 1)
    assert (shard.start_index, shard.end_index) == (0, 65536)


def test_make_shards_equal_quarters():
    spec = LatticeSpec(4, 4)
    shards = make_shards(spec, 4)
    assert [(s.start_index, s.end_index) for s in shards] == [
        (0, 16384), (16384, 32768), (32768, 49152), (49152, 65536)]


def test_make_shards_near_equal_split():
    spec = LatticeSpec(2, 2)
    shards = make_shards(spec, 3)
    assert [s.size for s in shards] == [6, 5, 5]


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 7, 16])
def test_make_shards_partition_invariants(num_shards):
    spec = LatticeSpec(2, 2)
    shards = make_shards(spec, num_shards)
    assert shards[0].start_index == 0
    assert shards[-1].end_index == spec.num_configs
    for a, b in zip(shards, shards[1:]):
        assert a.end_index == b.start_index
    sizes = [s.size for s in shards]
    assert max(sizes) - min(sizes) <= 1
    assert shards == make_shards(spec, num_shards)  # deterministic


def test_make_shards_rejects_out_of_range():
    spec = LatticeSpec(2, 2)
    with pytest.raises(ValueError):
        make_shards(spec, 0)
    with pytest.raises(ValueError):
        make_shards(spec, 17)


# -- shard enumeration -----------------------------------------------------------

def test_enumerate_full_range_2x2():
    spec = LatticeSpec(2, 2)
    dos = enumerate_shard(spec, make_shards(spec, 1)[0])
    assert dos.cells() == DOS_2X2_CELLS
    assert dos.total() == 16


def test_enumerate_empty_shard():
    spec = LatticeSpec(2, 2)
    empty = Shard(shard_id=0, num_shards=1, start_index=5, end_index=5)
    dos = enumerate_shard(spec, empty)
    assert dos.total() == 0
    assert not np.any(dos.counts)


def test_enumerate_touches_each_index_once():
    # Every configuration lands in exactly one cell, so the partial totals
    # count the visited indices.
    spec = LatticeSpec(3, 3)
    for shard in make_shards(spec, 5):
        part = enumerate_shard(spec, shard)
        assert part.total() == shard.size


def test_enumerate_rejects_bad_shard():
    spec = LatticeSpec(2, 2)
    with pytest.raises(ValueError):
        enumerate_shard(spec, Shard(0, 1, 0, 17))


def _oracle_slice(spec, shard):
    # The naive engine's g(M, E) of the shard's indices, one by one.
    expected = DoSHistogram(spec)
    for index in range(shard.start_index, shard.end_index):
        spins = decode_spins(spec, index)
        m = oracle_magnetization(spins)
        e = oracle_energy(spins, spec)
        expected.counts[expected.m_index(m), expected.e_index(e)] += 1
    return expected


def test_enumerate_tall_columns_without_tables():
    # Past the oracle's full-walk cap: check a slice of 17x2 (34 spins)
    # configuration by configuration against the naive engine.
    spec = LatticeSpec(17, 2)
    shard = Shard(shard_id=0, num_shards=1, start_index=123456,
                  end_index=123456 + 4096)
    dos = enumerate_shard(spec, shard)
    assert dos.total() == 4096
    assert dos == _oracle_slice(spec, shard)


# 5x8 packs its two 40-bit axis masks into two words and has index bits
# above 32; 2x2x6 packs three 24-bit masks into two words, with J = -1.
@pytest.mark.parametrize("dims,coupling", [((5, 8, 1), 1), ((2, 2, 6), -1)])
@pytest.mark.parametrize("block_bits", [3, BLOCK_BITS])
def test_enumerate_top_slice_matches_oracle(dims, coupling, block_bits):
    # 4096 indices near the top of the index space, straddling the block
    # boundary 5 default blocks below 2^N (and many more of 2^3).
    spec = LatticeSpec(*dims, coupling=coupling)
    start = spec.num_configs - 5 * (1 << BLOCK_BITS) - 2000
    shard = Shard(shard_id=0, num_shards=1, start_index=start,
                  end_index=start + 4096)
    dos = enumerate_shard(spec, shard, block_bits=block_bits)
    assert dos.total() == 4096
    assert dos == _oracle_slice(spec, shard)


def test_enumerate_block_bits_is_invisible():
    spec = LatticeSpec(3, 4)
    shard = make_shards(spec, 1)[0]
    reference = enumerate_shard(spec, shard)
    for block_bits in (0, 1, 3, spec.num_spins, spec.num_spins + 8):
        assert enumerate_shard(spec, shard, block_bits=block_bits) == reference


# Every boundary shape the axis rotations handle: a length-2 axis on each
# side, axes of length >= 3 together, and J = -1 in 2D and 3D.
@pytest.mark.parametrize("dims,coupling", [
    ((2, 5, 1), 1), ((5, 2, 1), 1), ((2, 2, 1), 1), ((2, 2, 2), 1),
    ((3, 2, 2), 1), ((2, 3, 2), 1), ((2, 2, 3), 1), ((3, 4, 1), 1),
    ((2, 3, 3), 1), ((3, 4, 1), -1), ((2, 2, 3), -1),
])
def test_enumerate_full_range_matches_oracle(dims, coupling):
    spec = LatticeSpec(*dims, coupling=coupling)
    whole = make_shards(spec, 1)[0]
    expected = oracle_full_dos(spec)
    n = spec.num_spins
    for bits in (0, 1, 3, n, n + 1):
        dos = enumerate_shard(spec, whole, block_bits=bits)
        assert dos == expected
        # A shard that starts 3 indices past a block boundary: the pieces
        # still add up to the same histogram.
        size = 1 << min(bits, n)
        cut = spec.num_configs // 2 // size * size + 3
        head = enumerate_shard(spec, Shard(0, 2, 0, cut), block_bits=bits)
        tail = enumerate_shard(spec, Shard(1, 2, cut, spec.num_configs),
                               block_bits=bits)
        assert merge([head, tail]) == dos


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


def test_merge_empty_with_declared_spec():
    spec = LatticeSpec(2, 2)
    dos = merge([], spec=spec)
    assert dos.total() == 0 and dos.spec == spec


def test_merge_rejects_mismatched_specs():
    a = DoSHistogram(LatticeSpec(2, 2))
    b = DoSHistogram(LatticeSpec(2, 3))
    with pytest.raises(ValueError):
        merge([a, b])
    with pytest.raises(ValueError):
        merge([a], spec=LatticeSpec(2, 3))
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


def test_histogram_addition_requires_same_spec():
    a = DoSHistogram(LatticeSpec(2, 2))
    b = DoSHistogram(LatticeSpec(2, 3))
    with pytest.raises(ValueError):
        a + b


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


def test_verify_fails_zero_histogram():
    report = verify_dos(DoSHistogram(LatticeSpec(2, 2)))
    assert not report.passed
    assert "total-count" in report.failed_names()


# -- parallel driver ---------------------------------------------------------------

def test_full_dos_timed_reports_workers(spec4x4, dos4x4):
    hist, wall, per_worker = full_dos_timed(spec4x4, workers=2)
    assert hist == dos4x4
    assert wall > 0
    assert len(per_worker) == 2
    assert all(t > 0 for t in per_worker)


@pytest.mark.parametrize("dims", [(2, 2), (3, 4)])
def test_auto_workers_walk_one_block_serially(monkeypatch, dims):
    # At most 2^BLOCK_BITS configurations: auto mode starts no pool.
    spec = LatticeSpec(*dims)
    expected = full_dos(spec, workers=1)
    monkeypatch.setattr(enumeration, "Pool", None)
    hist, _, per_worker = full_dos_timed(spec)
    assert hist == expected and len(per_worker) == 1
    assert full_dos(spec) == expected


def test_full_dos_rejects_bad_workers(spec4x4):
    with pytest.raises(ValueError):
        full_dos(spec4x4, workers=0)
