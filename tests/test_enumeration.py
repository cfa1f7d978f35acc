import multiprocessing
import os
import signal

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

from conftest import DOS_2X2_CELLS, oracle_cell


# -- sharding -----------------------------------------------------------------

def test_make_shards_single():
    spec = LatticeSpec(4, 4)
    (shard,) = make_shards(spec, 1)
    assert shard == range(0, 65536)


def test_make_shards_equal_quarters():
    spec = LatticeSpec(4, 4)
    shards = make_shards(spec, 4)
    assert shards == [range(0, 16384), range(16384, 32768),
                      range(32768, 49152), range(49152, 65536)]


def test_make_shards_near_equal_split():
    spec = LatticeSpec(2, 2)
    shards = make_shards(spec, 3)
    assert [len(s) for s in shards] == [6, 5, 5]


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 7, 16])
def test_make_shards_partition_invariants(num_shards):
    spec = LatticeSpec(2, 2)
    shards = make_shards(spec, num_shards)
    assert shards[0].start == 0
    assert shards[-1].stop == spec.num_configs
    for a, b in zip(shards, shards[1:]):
        assert a.stop == b.start
    sizes = [len(s) for s in shards]
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
    empty = range(5, 5)
    dos = enumerate_shard(spec, empty)
    assert dos.total() == 0
    assert not np.any(dos.counts)


def test_enumerate_touches_each_index_once():
    # Every configuration lands in exactly one cell, so the partial totals
    # count the visited indices.
    spec = LatticeSpec(3, 3)
    for shard in make_shards(spec, 5):
        part = enumerate_shard(spec, shard)
        assert part.total() == len(shard)


def test_enumerate_rejects_bad_shard():
    spec = LatticeSpec(2, 2)
    # Past the end, then two stepped ranges.
    for bad in (range(0, 17), range(0, 16, 2), range(15, -1, -1)):
        with pytest.raises(ValueError, match="invalid"):
            enumerate_shard(spec, bad)


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
    shard = range(start, start + 4096)
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
def test_enumerate_full_range_matches_oracle(dims, coupling, oracle_dos):
    spec = LatticeSpec(*dims, coupling=coupling)
    whole = make_shards(spec, 1)[0]
    expected = oracle_dos(spec)
    n = spec.num_spins
    for bits in (0, 1, 3, n, n + 1):
        dos = enumerate_shard(spec, whole, block_bits=bits)
        assert dos == expected
        # A shard that starts 3 indices past a block boundary: the pieces
        # still add up to the same histogram.
        size = 1 << min(bits, n)
        cut = spec.num_configs // 2 // size * size + 3
        head = enumerate_shard(spec, range(0, cut), block_bits=bits)
        tail = enumerate_shard(spec, range(cut, spec.num_configs),
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
    assert enumerate_shard(spec, range(0, 1)).counts[0, b] == 1
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
    monkeypatch.setattr(multiprocessing, "Process", None)
    hist, _, per_worker = full_dos_timed(spec)
    assert hist == expected and len(per_worker) == 1
    assert full_dos(spec) == expected


def test_full_dos_rejects_bad_workers(spec4x4):
    with pytest.raises(ValueError):
        full_dos(spec4x4, workers=0)


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


# The workers see the patched walk only when they are forked.
forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="workers are not forked")


def _second_shard_fails(monkeypatch, fail):
    real = enumeration.enumerate_shard

    def walk(spec, shard):
        if shard.start:
            fail()
        return real(spec, shard)
    monkeypatch.setattr(enumeration, "enumerate_shard", walk)


@forked
def test_worker_exception_reaches_the_caller(monkeypatch, spec4x4, deadline):
    def fail():
        raise ArithmeticError("shard walk failed")
    _second_shard_fails(monkeypatch, fail)
    with pytest.raises(ArithmeticError, match="shard walk failed") as caught:
        full_dos(spec4x4, workers=2)
    # The worker's traceback comes along, as with multiprocessing.Pool.
    cause = caught.value.__cause__
    assert isinstance(cause, enumeration.RemoteTraceback)
    assert "in fail" in str(cause) and "ArithmeticError" in str(cause)
    assert multiprocessing.active_children() == []


class TwoPartError(Exception):
    # Pickles, but its args do not rebuild it.
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@forked
def test_worker_exception_that_cannot_be_rebuilt(monkeypatch, spec4x4, deadline):
    def fail():
        raise TwoPartError("shard", "walk failed")
    _second_shard_fails(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="shard worker 1 raised") as caught:
        full_dos(spec4x4, workers=2)
    assert "TwoPartError: shard: walk failed" in str(caught.value.__cause__)
    assert multiprocessing.active_children() == []


def test_failed_start_closes_every_pipe(monkeypatch, spec4x4, deadline):
    pipes = []

    def pipe(duplex):
        ends = real_pipe(duplex)
        pipes.extend(ends)
        return ends

    def start(proc):
        if len(pipes) > 2:
            raise OSError("no more processes")
        real_start(proc)
    real_pipe, real_start = multiprocessing.Pipe, multiprocessing.Process.start
    monkeypatch.setattr(multiprocessing, "Pipe", pipe)
    monkeypatch.setattr(multiprocessing.Process, "start", start)
    with pytest.raises(OSError, match="no more processes"):
        full_dos(spec4x4, workers=2)
    assert len(pipes) == 4 and all(end.closed for end in pipes)
    assert multiprocessing.active_children() == []


@forked
def test_worker_that_dies_silently_raises(monkeypatch, spec4x4, deadline):
    _second_shard_fails(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="shard worker 1 exited with code 3"):
        full_dos(spec4x4, workers=2)
    assert multiprocessing.active_children() == []
