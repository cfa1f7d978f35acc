"""Exact density of states and partition function for finite Ising lattices.

Configurations are enumerated exhaustively, each 64-bit index classified
whole by masked rotations and vector popcounts, in parallel shards that
merge into an exact integer g(M, E) histogram; thermodynamic observables
follow from it at any field and temperature.  A deliberately naive oracle engine
cross-checks everything on small lattices.
"""

from .bench import BenchRecord, ResultMismatchError, emit_scaling_report, \
    parse_scaling_report, run_bench
from .dosio import DosFileError, format_dos_csv, format_dos_json, parse_dos, \
    read_dos, write_dos
from .enumeration import DoSHistogram, Shard, VerificationReport, \
    available_parallelism, enumerate_shard, full_dos, full_dos_timed, \
    make_shards, merge, verify_dos
from .lattice import Configuration, KernelTables, LatticeSpec, \
    aligned_column_bonds, aligned_row_bonds, build_tables, decode_config, \
    encode_words, popcount, spin_excess, total_energy
from .oracle import brute_force_log_z, decode_spins, oracle_energy, \
    oracle_full_dos, oracle_magnetization
from .thermo import ThermoPoint, partition_point, thermo_sweep

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "Configuration", "DoSHistogram", "DosFileError",
    "KernelTables", "LatticeSpec", "ResultMismatchError", "Shard",
    "ThermoPoint", "VerificationReport", "aligned_column_bonds",
    "aligned_row_bonds", "available_parallelism", "brute_force_log_z",
    "build_tables", "decode_config", "decode_spins", "emit_scaling_report",
    "encode_words", "enumerate_shard", "format_dos_csv", "format_dos_json",
    "full_dos", "full_dos_timed", "make_shards", "merge", "oracle_energy",
    "oracle_full_dos", "oracle_magnetization", "parse_dos",
    "parse_scaling_report", "partition_point", "popcount", "read_dos",
    "run_bench", "spin_excess", "thermo_sweep", "total_energy", "verify_dos",
    "write_dos",
]
