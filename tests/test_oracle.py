import ast
import math
import random
from pathlib import Path

import pytest

import isingdos.oracle as oracle_mod
from isingdos import (
    LatticeSpec,
    full_dos,
    oracle_full_dos,
    partition_point,
    verify_dos,
)
from isingdos.oracle import (
    ORACLE_MAX_SPINS,
    bond_pairs,
    brute_force_log_z,
    oracle_energy,
    oracle_magnetization,
)

from conftest import DOS_2X2_CELLS, kernel_cell, oracle_cell


def test_oracle_energy_examples():
    spec = LatticeSpec(4, 4)
    assert oracle_energy([1] * 16, spec) == -32
    checker = [1 if (r + c) % 2 == 0 else -1
               for r in range(4) for c in range(4)]
    assert oracle_energy(checker, spec) == 32
    assert oracle_energy([1] * 9, LatticeSpec(3, 3)) == -18


def test_oracle_magnetization_examples():
    assert oracle_magnetization([1] * 16) == 16
    assert oracle_magnetization([1] * 8 + [-1] * 8) == 0
    assert oracle_magnetization([-1] + [1] * 8) == 7


def test_bond_pairs_count_each_bond_once():
    for dims in [(2, 2, 1), (3, 4, 1), (2, 2, 2), (3, 3, 3)]:
        spec = LatticeSpec(*dims)
        assert len(bond_pairs(spec)) == spec.num_bonds


@pytest.mark.parametrize("dims", [(2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1),
                                  (2, 2, 2)])
def test_per_index_agreement_with_bit_kernels_exhaustive(dims):
    spec = LatticeSpec(*dims)
    for index in range(spec.num_configs):
        assert oracle_cell(spec, index) == kernel_cell(spec, index), index


def test_per_index_agreement_4x4_sampled():
    spec = LatticeSpec(4, 4)
    rng = random.Random(23)
    for _ in range(500):
        index = rng.randrange(spec.num_configs)
        assert oracle_cell(spec, index) == kernel_cell(spec, index), index


def test_tall_column_direct_path_agrees_with_oracle():
    # 34 spins, past the oracle's full-walk cap: sampled index by index.
    spec = LatticeSpec(17, 2)
    rng = random.Random(29)
    for _ in range(100):
        index = rng.randrange(spec.num_configs)
        assert oracle_cell(spec, index) == kernel_cell(spec, index), index


def test_oracle_full_dos_2x2_is_hand_enumeration():
    dos = oracle_full_dos(LatticeSpec(2, 2))
    assert dos.cells() == DOS_2X2_CELLS


def test_oracle_full_dos_2x2x2():
    dos = oracle_full_dos(LatticeSpec(2, 2, 2))
    assert dos.total() == 256
    assert dos.spec.num_bonds == 24
    assert dos.count(8, -24) == 1 and dos.count(-8, -24) == 1
    assert verify_dos(dos).passed


def test_oracle_full_dos_passes_verification():
    for dims in [(2, 3, 1), (3, 3, 1)]:
        assert verify_dos(oracle_full_dos(LatticeSpec(*dims))).passed


def test_oracle_rejects_over_cap():
    with pytest.raises(ValueError, match=str(ORACLE_MAX_SPINS)):
        oracle_full_dos(LatticeSpec(5, 5))  # 25 spins


def test_brute_force_log_z_matches_histogram_route():
    spec = LatticeSpec(2, 3)
    dos = full_dos(spec, workers=1)
    for h in (0.0, 0.5):
        for t in (0.5, 1.0, 2.0):
            direct = brute_force_log_z(spec, h, t)
            via_dos = partition_point(dos, h, t).log_z
            assert math.isclose(direct, via_dos, rel_tol=0, abs_tol=1e-11)


def test_brute_force_log_z_rejects_bad_temperature():
    with pytest.raises(ValueError):
        brute_force_log_z(LatticeSpec(2, 2), 0.0, 0.0)


def test_oracle_shares_no_code_with_the_fast_engine():
    # The oracle's agreement is evidence only while it stays independent.
    tree = ast.parse(Path(oracle_mod.__file__).read_text(encoding="utf-8"))
    imported, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "isingdos" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "isingdos"):
            imported |= {alias.name for alias in node.names}
            modules.add(node.module.split(".")[-1])
    assert imported == {"LatticeSpec", "DoSHistogram"}
    # Not even the fast walk's module is loaded through the oracle.
    assert modules == {"histogram", "lattice"}
    fast_path = {"axis_rotations", "bond_words", "bond_support",
                 "enumerate_shard", "full_dos", "make_shards", "merge",
                 "top_orbits", "_orbit_walk", "_top_group"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert not used & fast_path
