#!/usr/bin/env python3
"""Mutation check of the tier-1 suite: which planted faults does it catch?

Each mutant is a named string patch of the library.  For each, the script
copies the checkout's src/ and tests/, with the files the suite also reads
(demos/, README.md, pyproject.toml), to a temporary directory, applies the
patch there, runs the tier-1 suite with -x -q and reports whether it failed
(the mutant is killed) and which test failed first.  An unpatched copy runs
first and must pass.  Standard library only; run it by hand from any
directory, it takes a few minutes:

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named mutants

It exits 1 if the unpatched copy fails, a patch no longer applies, or a
mutant survives.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
#: Seconds one suite run may take; a suite still running then counts as failed.
TIMEOUT = 900
LATTICE = "src/isingdos/lattice.py"
WALK = "src/isingdos/enumeration.py"

#: name -> (what it breaks, [(file, text, replacement)]); each text must
#: occur exactly once in its file.
MUTANTS = {
    "orbit-weight-off-by-one": (
        "the second orbit's weight is one too large",
        [(LATTICE, "len(orbit)))", "len(orbit) + (len(walk) == 1)))")]),
    "orbit-dropped": (
        "the last orbit of the top states is not walked",
        [(LATTICE, "        return tuple(walk)\n",
          "        return tuple(walk[:-1] if len(walk) > 1 else walk)\n")]),
    "spin-flip-in-group": (
        "the spin flip joins each orbit to its flipped states",
        [(LATTICE, "                seen |= orbit\n",
          "                orbit |= {(1 << bits) - 1 ^ s for s in orbit}\n"
          "                seen |= orbit\n")]),
    "column-translation-in-group": (
        "a translation of the top units among themselves joins the group",
        [(LATTICE, "(1, -1), swaps, (False, True)):",
          "(1, -1), swaps, (False, True, 2)):"),
         (LATTICE, "j2 = w - 1 - j if mirror else j",
          "j2 = (j + 1) % w if mirror == 2 else w - 1 - j if mirror else j")]),
    "wrong-wrap-mask": (
        "the wrap mask misses the first site of each period",
        [(LATTICE, "wrap = sum(((1 << stride) - 1) << b",
          "wrap = sum(((1 << stride) - 2) << b")]),
    "missing-layer-axis": (
        "3D lattices lose their layer bonds",
        [(LATTICE, "        if self.depth > 1:\n            axes.append(",
          "        if self.depth < 1:\n            axes.append(")]),
    "missing-afm-mirror": (
        "J < 0 tables keep the J > 0 energy axis",
        [(WALK, "    if spec.coupling < 0:\n", "    if False:\n")]),
    "class-keys-word-0": (
        "boundary sites keep only their bonds in the first bond word",
        [(WALK, "zip(spec.bond_words(1 << q), self.support)]",
          "zip(spec.bond_words(1 << q)[:1], self.support)] + [0] * 2")]),
    "class-count-ignored": (
        "each (class, shift) is added once, whatever its base count",
        [(WALK, "cell += hist[cls] if count == 1 else count * hist[cls]",
          "cell += hist[cls]")]),
    "cut-block-rows-ignored": (
        "a block cut at a range's end bins all its rows, not its own",
        [(WALK, "add_piece(base, k, piece.start - base, piece.stop - base)",
          "add_piece(base, k)")]),
    "class-boundary-none": (
        "R = 0: no bond crosses the block boundary",
        [(WALK, "self.support = spec.bond_words((1 << k) - 1)",
          "self.support = [0 for _ in spec.bond_words((1 << k) - 1)]")]),
    "class-boundary-all": (
        "R = all bits: every bond crosses the block boundary",
        [(WALK, "self.support = spec.bond_words((1 << k) - 1)",
          "self.support = [WORD for _ in spec.bond_words((1 << k) - 1)]")]),
    "site-one-shifted-by-d": (
        "value 1 of a varying site of degree > 1 shifts pattern d by d, not deg - d",
        [(WALK, "y[0], y[1] = x[:, 0], x[:, deg]", "y[0], y[1] = x[:, 0], x[:, 0]"),
         (WALK, "y[1, :, d:] += x[:, deg - d, :-d]", "y[1, :, d:] += x[:, d, :-d]")]),
    "site-of-degree-one-unshifted": (
        "value 1 of a varying site of degree 1 adds its d = 0 counts unshifted",
        [(WALK, "                y1[1:] += copy[:-1]\n", "                y1 += copy\n")]),
    "varying-site-fixed": (
        "a piece's highest varying site is binned as fixed at its base's value",
        [(WALK, "(s for s in self.sites if s[0] < m)", "(s for s in self.sites if s[0] < m - 1)"),
         (WALK, "(1 << spec.num_spins) - (1 << m)", "(1 << spec.num_spins) - (1 << m - 1)")]),
    "cap-split-walks-half-twice": (
        "after a piece the cap cut, the walk steps half a piece and walks its second half again",
        [(WALK, "            head += 1 << m\n",
          "            head += 1 << m - (0 < m == blocks.cap - k)\n")]),
    "out-special-file-renamed": (
        "a FIFO or symlink --out is written next to it and renamed over it",
        [("src/isingdos/cli.py", "if old is not None and not stat.S_ISREG(old.st_mode):",
          "if False:")]),
    "deal-extra-to-last": (
        "make_shards gives its extra indices to the last shards, not the first",
        [(WALK, "want = [], base + (i < extra)",
          "want = [], base + (i >= num_shards - extra)")]),
    "range-weight-dropped": (
        "enumerate_shard adds each range's table with weight 1",
        [(WALK, "total += weight * flat\n", "total += flat\n")]),
    "caller-walks-shard-1": (
        "the caller walks the last shard instead of shard 0",
        [(WALK, "_walk(spec, shards[0])", "_walk(spec, shards[-1])")]),
    "caller-walks-only-shard-0": (
        "the caller walks the first (range, weight) pair of shard 0 only",
        [(WALK, "_walk(spec, shards[0])", "_walk(spec, shards[0][:1])")]),
    "worker-walks-first-shard-only": (
        "every forked worker walks shard 0",
        [(WALK, "_shard_worker(spec, shards[j], write)",
          "_shard_worker(spec, shards[0], write)")]),
    "shards-cut-per-worker": (
        "the walk is cut into one shard per requested worker, not per walker",
        [(WALK, "shards = make_shards(spec, walkers)",
          "shards = make_shards(spec, workers)")]),
    "caller-failure-orphans-worker": (
        "the driver's finally no longer kills and reaps started workers",
        [(WALK, "            os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
          "            pass\n")]),
    "worker-not-reaped": (
        "a worker that replied is never reaped",
        [(WALK, "code = os.waitstatus_to_exitcode(os.waitpid(pids[j], 0)[1])",
          "code = None")]),
    "dead-worker-accepted": (
        "an empty reply is not checked",
        [(WALK, "            if not reply:\n", "            if reply is None:\n")]),
    "worker-failure-ignored": (
        "a traceback reply is not read as one and falls through to the length check",
        [(WALK, "            if reply[0]:", "            if False:")]),
}


def apply(tree, patches):
    """Apply the patches in the copy at tree; the reason it cannot, or None."""
    for name, text, replacement in patches:
        path = tree / name
        source = path.read_text(encoding="utf-8")
        if source.count(text) != 1:
            return f"{name}: patched text found {source.count(text)} times"
        path.write_text(source.replace(text, replacement), encoding="utf-8")
    return None


def run_suite(tree):
    """(failed, first failing test or '', seconds) of tier-1 run in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p",
           "no:cacheprovider", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True, f"(suite still running after {TIMEOUT} s)", TIMEOUT
    seconds = time.perf_counter() - t0
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, first.group(1) if first else "", seconds


def check(name, patches):
    """(failed, first failing test, seconds) of one mutant, or raise ValueError."""
    with tempfile.TemporaryDirectory(prefix="isingdos-mutant-") as tmp:
        tree = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, tree / item,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / item)
        problem = apply(tree, patches)
        if problem:
            raise ValueError(f"{name}: {problem}")
        return run_suite(tree)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to run (default: all of {', '.join(MUTANTS)})")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")

    failed, first, seconds = check("unpatched", [])
    print(f"unpatched copy: {'FAILS at ' + first if failed else 'passes'} "
          f"({seconds:.0f} s)", flush=True)
    if failed:
        return 1
    survivors = 0
    print(f"{'mutant':30} {'killed':6} {'s':>4}  first failing test")
    for name in args.names or MUTANTS:
        what, patches = MUTANTS[name]
        try:
            killed, first, seconds = check(name, patches)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        survivors += not killed
        print(f"{name:30} {'yes' if killed else 'NO':6} {seconds:4.0f}  "
              f"{first or '-'}  ({what})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
