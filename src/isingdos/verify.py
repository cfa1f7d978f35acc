"""Consistency checks that every complete density of states must pass.

Failures are data, not errors: the report lists the violating cells, so the
CLI can print them and exit with its check-failed code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .enumeration import DoSHistogram


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _clip(items, limit=8):
    items = list(items)
    shown = ", ".join(map(str, items[:limit]))
    if len(items) > limit:
        shown += f", ... ({len(items)} total)"
    return shown


def verify_dos(dos: DoSHistogram) -> VerificationReport:
    """Consistency checks a complete density of states must satisfy.

    total-count:        sum of counts equals 2^N.
    binomial-marginals: each per-M marginal equals C(N, (N+M)/2).
    flip-symmetry:      g(M, E) = g(-M, E) for every cell.
    energy-grid:        nonzero cells only at energies with an even number
                        of anti-aligned bonds.  Around every periodic ring
                        the spins change sign an even number of times, so
                        no configuration of any lattice has an odd count.

    Failures are data, not errors; the report lists violating cells.
    """
    spec = dos.spec
    n, b = spec.num_spins, spec.num_bonds
    checks = []

    total = dos.total()
    checks.append(CheckResult(
        "total-count", total == spec.num_configs,
        f"{total} == 2^{n}" if total == spec.num_configs
        else f"{total} != 2^{n} = {spec.num_configs}"))

    bad_m = []
    for m_idx in range(n + 1):
        got = int(dos.counts[m_idx].sum())
        want = math.comb(n, m_idx)
        if got != want:
            bad_m.append(f"M={dos.m_value(m_idx)}: {got} != {want}")
    checks.append(CheckResult(
        "binomial-marginals", not bad_m,
        f"all {n + 1} marginals match" if not bad_m else _clip(bad_m)))

    asym = np.argwhere(dos.counts != dos.counts[::-1])
    bad_sym = [f"(M={dos.m_value(mi)}, E={dos.e_value(ei)})" for mi, ei in asym]
    checks.append(CheckResult(
        "flip-symmetry", not bad_sym,
        "symmetric under M -> -M" if not bad_sym else _clip(bad_sym)))

    # Column e_idx holds e_idx anti-aligned bonds for J > 0, B - e_idx for J < 0.
    anti = np.arange(b + 1) if spec.coupling > 0 else np.arange(b, -1, -1)
    odd = np.argwhere((dos.counts != 0) & (anti % 2 == 1))
    off = [f"(M={dos.m_value(mi)}, E={dos.e_value(ei)})" for mi, ei in odd]
    parity = "even" if b % 2 == 0 else "odd"
    checks.append(CheckResult(
        "energy-grid", not off,
        f"all E {parity}, within [-{b}, {b}]" if not off else _clip(off)))

    return VerificationReport(tuple(checks))
