import functools
import glob
import os
import signal

import pytest

from isingdos import LatticeSpec, enumerate_shard, enumeration, full_dos
from isingdos.oracle import (decode_spins, oracle_energy, oracle_full_dos,
                             oracle_magnetization)

# Hand-derived complete DoS of the 2x2 periodic lattice (16 states, B = 8):
# both aligned states at E = -8, the four single-flip states per sign at
# E = 0, four adjacent-pair states at E = 0, two diagonal-pair states at +8.
DOS_2X2_CELLS = [
    (1, 4, -8),
    (4, 2, 0),
    (4, 0, 0),
    (2, 0, 8),
    (4, -2, 0),
    (1, -4, -8),
]


def kernel_cell(spec, index):
    """(M, E) of one index from the production kernel: its one-index shard."""
    cells = enumerate_shard(spec, [(range(index, index + 1), 1)]).cells()
    assert [count for count, _, _ in cells] == [1], (index, cells)
    return cells[0][1:]


def oracle_cell(spec, index):
    """(M, E) of one index from the naive engine."""
    spins = decode_spins(spec, index)
    return oracle_magnetization(spins), oracle_energy(spins, spec)


#: Every per-configuration invariant runs on both independent engines.
ENGINES = {"kernel": kernel_cell, "oracle": oracle_cell}


def children():
    """Pids of this process's children, running or unreaped (Linux /proc)."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as f:
            pids.update(map(int, f.read().split()))
    return pids


@pytest.fixture(autouse=True)
def no_child_left_alive():
    """Fail any test that leaves a child process, running or unreaped."""
    yield
    left = children()
    for pid in left:  # killed and reaped, so that the next test starts clean
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert not left, f"children {sorted(left)} outlived the test"
    with pytest.raises(ChildProcessError):  # nor one that /proc did not list
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs on any host: workers=2 or more forks one walker."""
    monkeypatch.setattr(enumeration, "available_parallelism", lambda: 2)


@pytest.fixture(scope="session")
def spec4x4():
    return LatticeSpec(4, 4)


@pytest.fixture(scope="session")
def dos4x4(spec4x4):
    return full_dos(spec4x4, workers=1)


@pytest.fixture(scope="session")
def dos2x2():
    return full_dos(LatticeSpec(2, 2), workers=1)


@pytest.fixture(scope="session")
def oracle_dos():
    """The oracle's complete g(M, E) of a spec, walked once per session."""
    return functools.cache(oracle_full_dos)
