"""Exact density of states and partition function for finite Ising lattices.

Configurations are enumerated exhaustively, one range of the top bits per
symmetry orbit weighted by the orbit's size, in blocks binned by XOR and
vector popcount of tabulated bond masks.  `make_shards` cuts those (range,
weight) pairs into parallel shards, `enumerate_shard` walks each, and
`full_dos` walks them in the caller and in children forked for the call
and adds their tables into an exact integer g(M, E) histogram (`merge`
adds histograms the same way); thermodynamic observables follow from it
at any field and temperature.  A deliberately naive oracle engine
cross-checks everything on small lattices.
"""

from .bench import BenchRecord, ResultMismatchError, emit_scaling_report, \
    run_bench
from .dosio import DosFileError, format_dos_csv, format_dos_json, parse_dos, \
    read_dos
from .enumeration import available_parallelism, enumerate_shard, full_dos, \
    full_dos_timed, make_shards, merge
from .histogram import DoSHistogram
from .lattice import LatticeSpec, build_tables
from .oracle import oracle_full_dos
from .thermo import ThermoPoint, partition_point, thermo_sweep
from .verify import VerificationReport, verify_dos

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "DoSHistogram", "DosFileError", "LatticeSpec",
    "ResultMismatchError", "ThermoPoint", "VerificationReport",
    "available_parallelism", "build_tables", "emit_scaling_report",
    "enumerate_shard", "format_dos_csv", "format_dos_json", "full_dos",
    "full_dos_timed", "make_shards", "merge", "oracle_full_dos", "parse_dos",
    "partition_point", "read_dos", "run_bench", "thermo_sweep", "verify_dos",
]
