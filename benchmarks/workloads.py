"""Workload definitions: which lattices each workload runs, built from a seed.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns.  The three walks are exhaustive 2^N enumerations,
so their seed changes nothing; the seed of `sweep-small` sets the lattice
order and the two field values of every lattice.  Why each workload exists
is written down in NOTES.md.
"""

import random
from dataclasses import dataclass

from isingdos import LatticeSpec, available_parallelism

#: Temperature grid of every thermo sweep: 0.10, 0.15, ..., 10.00 (199 points).
TEMPS = tuple(round(0.1 + 0.05 * i, 2) for i in range(199))

#: Lattices of `sweep-small`: at most 18 spins, 2D and 3D, J = +1 and -1.
#: Entries are (rows, cols, depth, coupling).
SMALL_LATTICES = (
    (2, 2, 1, 1), (3, 3, 1, 1), (3, 4, 1, 1), (4, 4, 1, 1), (3, 6, 1, 1),
    (4, 4, 1, -1), (3, 5, 1, -1),
    (2, 2, 2, 1), (2, 2, 3, 1), (2, 2, 4, 1), (2, 3, 3, 1), (2, 2, 4, -1),
)


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work: a lattice, its worker count, its fields.

    workers None means the library default (as the CLI uses it); fields is
    empty for the walks, which time the enumeration alone.
    """

    spec: LatticeSpec
    workers: int | None
    fields: tuple[float, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    #: Pool worker processes one call starts; 0 for a serial call.
    pool_workers: int
    jobs: tuple[Job, ...]


def _walk(name, spec, workers):
    return Workload(name, workers if workers > 1 else 0, (Job(spec, workers),))


def build_inputs(name: str, seed: int) -> Workload:
    """The workload's inputs; the same (name, seed) always gives the same inputs."""
    nproc = available_parallelism()
    if name == "walk-2d":
        return _walk(name, LatticeSpec(5, 5), 1)
    if name == "walk-3d-afm":
        return _walk(name, LatticeSpec(2, 2, 6, coupling=-1), 1)
    if name == "walk-sharded":
        return _walk(name, LatticeSpec(5, 5), min(2, nproc))
    if name == "sweep-small":
        rng = random.Random(seed)
        order = list(SMALL_LATTICES)
        rng.shuffle(order)
        jobs = tuple(
            Job(LatticeSpec(r, c, d, coupling=j), None,
                (round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)))
            for r, c, d, j in order)
        # The library default is one shard per core (every 2^N here >= 16).
        return Workload(name, nproc, jobs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("walk-2d", "walk-3d-afm", "walk-sharded", "sweep-small")
