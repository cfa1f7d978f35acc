"""Pinned answers and the correctness gate every timed call must pass.

A histogram is pinned by the SHA-256 of its count table (little-endian
int64, C order) and of its version-1 CSV text.  The pins were taken from
the seed engine and are backed by evidence that shares no code with it
(tests/test_reference.py): the naive oracle for every small lattice, a
transfer-matrix count for the two walk lattices, and Kaufman's closed-form
log Z for 5x5.  Thermo sweeps are checked against `thermo_reference`, an
implementation written here, not in the library.
"""

import hashlib

import numpy as np

#: (rows, cols, depth, J) -> (counts SHA-256, CSV SHA-256).
PINS = {
    (5, 5, 1, 1): ("03095a00b8abd2d32f96826fe493fa47bc92b2a950d748b4c14bbf5f89cf76f4",
                   "6cce2f4347bf1d3c413cbcc32d9e5c364c04eccc547fdd7c3b336571b0358435"),
    (2, 2, 6, -1): ("0b06ceb35d4b42ff14202b49b7ba8036ac9b88fc615ae932ac0b6b1e7081a2df",
                    "bb2dbb98a6c20affddf9bb729341aba945e606717e98274cb974758448265c39"),
    (2, 2, 1, 1): ("f27e47d869a845613f7739cbb1275926470830d1c770de174586f2b5c87af480",
                   "5b83336ba4ec99645e37bd102aebc78000c6a51c32edc37233731e63e5998136"),
    (3, 3, 1, 1): ("697c2b696ecc229f49ee8643ca927fca53c07ddee8e1c41a0a058bf032d95849",
                   "71c106716daa78b8bf09b146684d0396afedb21324e5b8149c41250377846232"),
    (3, 4, 1, 1): ("32d1b34c90559c8f185e9c3a59a48bec6521902695d468b8706decc942652c04",
                   "e1c5c2bcc56dab8fbad98e9e0c87500b6bd4aee15367692361faa2825dfc7d25"),
    (4, 4, 1, 1): ("5b9b43378d1efec20ce21805821ddcfaf9f0b0a927795bb84f144343e4864f9c",
                   "296586f66f573768e6d81450372e171d139923fce5f0d061812451046208e31f"),
    (3, 6, 1, 1): ("85ee61e1e6814a12c47dd517a4d881778fd47568fb5a14aea3288f3d64b9bc2f",
                   "e4ea519abba29328240a72dc92386e63f12196a33dff88cf9bd47860fd710789"),
    (4, 4, 1, -1): ("7fa6e3f763d3a8b0cfc9d1f4bcb762c59324095821cc8cb34f35774d7783cda8",
                    "72d97719fe04a25a5d10adb56598a18082743fea409d3c78e5d4409f07cb9e4e"),
    (3, 5, 1, -1): ("0cca4864e4f88d3b1f944a4f2e5893d3d6ca239011d325f6ffd963059de4da98",
                    "06613ad76dcd2c6ff4d8014178a7ee809652a461465de6a69acf384d98be3cac"),
    (2, 2, 2, 1): ("7f7e98dd11cf414babdd581e6e43048f07fee65e153571d05aee3342d9774500",
                   "2e0c11c7232d28364a0115c9f5cbc2cbcbf4b74e4f524c3ef6780a12a759c2f6"),
    (2, 2, 3, 1): ("6cb4e3edec87e5f15cd411ed021f8d1c7b798d73b364817ec1fcfdf4752c463f",
                   "53453b8b338b3569ba108106377a576abb5f6813e729b5a55db5bc7d8738b62e"),
    (2, 2, 4, 1): ("9196e41daad633031179086837fb382e32040ec979a58bef5aeb36116d1ae13e",
                   "ecb0f374cc1f8a593d234885cc135e51f0a0db9fff8c9d0e37e039b2b56c1dab"),
    (2, 3, 3, 1): ("6751b7991b64b299e6d0140c38c5caa36c8d0acd9abe933fde22c0506d92be56",
                   "f6b854c9a7bac97d358d571d82b1326512842fbe5b6659e75c5e0317853f43fb"),
    (2, 2, 4, -1): ("47f4a5be0c01a3dcb090d365626727c20cb0742068252c08a80e3bb7d9c15628",
                    "c6bdbcab3c4c7ed4c34344bf53eb85655c84d29b8d9def17c005bb49782842ca"),
}

#: Thermo agreement: float64 log-sum-exp in two summation orders.
THERMO_RTOL = 1e-9
THERMO_ATOL = 1e-9


class GateFailure(Exception):
    """An output differs from its pinned or independently computed value."""


def pin_key(spec):
    return (spec.rows, spec.cols, spec.depth, spec.coupling)


def counts_sha(counts) -> str:
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


def check_counts(dos, report):
    """Raise GateFailure unless dos passed verify_dos (its report) and matches its pin."""
    key = pin_key(dos.spec)
    if key not in PINS:
        raise GateFailure(f"no pinned reference for {key}")
    if not report.passed:
        raise GateFailure(f"verify_dos failed {report.failed_names()} on {key}")
    got = counts_sha(dos.counts)
    if got != PINS[key][0]:
        raise GateFailure(f"count table SHA-256 {got} != pinned {PINS[key][0]} on {key}")


def check_csv(dos, text: str, parsed):
    """Raise GateFailure unless the CSV text matches its pin and parses back to dos."""
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != PINS[pin_key(dos.spec)][1]:
        raise GateFailure(f"CSV SHA-256 {got} != pinned on {pin_key(dos.spec)}")
    if parsed != dos:
        raise GateFailure(f"CSV round trip changed the table on {pin_key(dos.spec)}")


def thermo_reference(counts, spec, h: float, temps) -> np.ndarray:
    """(len(temps), 6) array of log Z, F, U, C, <M>, chi over a temperature grid.

    One (cells x temperatures) matrix per sweep, all in float64 with a
    per-temperature max shift; k_B = 1, energies E = J-scaled exchange.
    """
    m_idx, e_idx = np.nonzero(counts)
    g = counts[m_idx, e_idx].astype(np.float64)[:, None]
    m = (2.0 * m_idx - spec.num_spins)[:, None]
    e = (2.0 * e_idx - spec.num_bonds)[:, None] * abs(spec.coupling)
    t = np.asarray(temps, dtype=np.float64)[None, :]
    h_energy = e - h * m
    x = -h_energy / t
    top = x.max(axis=0)
    w = g * np.exp(x - top)
    z = w.sum(axis=0)
    p = w / z
    log_z = top + np.log(z)
    u = (p * h_energy).sum(axis=0)
    mean_m = (p * m).sum(axis=0)
    c = (p * (h_energy - u) ** 2).sum(axis=0) / t[0] ** 2
    chi = (p * (m - mean_m) ** 2).sum(axis=0) / t[0]
    return np.stack([log_z, -t[0] * log_z, u, c, mean_m, chi], axis=1)


def check_thermo(points, reference: np.ndarray, scale: float):
    """Raise GateFailure unless thermo_sweep points match the reference rows.

    scale (N^2 is ample) sets the absolute floor for values that vanish,
    such as <M> at h = 0 or C at the lowest temperatures.
    """
    got = np.array([[p.log_z, p.free_energy, p.internal_energy, p.specific_heat,
                     p.mean_magnetization, p.susceptibility] for p in points])
    if got.shape != reference.shape or not np.all(np.isfinite(got)):
        raise GateFailure(f"thermo sweep gave shape {got.shape} or non-finite values")
    bad = ~np.isclose(got, reference, rtol=THERMO_RTOL, atol=THERMO_ATOL * scale)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise GateFailure(f"thermo point {i} column {j}: {got[i, j]!r} != {reference[i, j]!r}")
