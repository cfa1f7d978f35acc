"""Exhaustive walk of the configuration space into the g(M, E) histogram.

The walk is one aligned top-bit range per symmetry orbit of the top
column(s) or layer(s), each weighted by its orbit's size
(`LatticeSpec.top_orbits`); a lattice too small for ranges of 2^18
configurations walks [0, 2^N) whole.  `make_shards` cuts the ranges, in
order, into one near-equal shard of (range, weight) pairs per walker, and
`enumerate_shard` walks each range as maximal aligned pieces of blocks of
2^k indices H*2^k + L, k the one of 14-17 whose plan the lattice's walk
costs least (`_plan`).  The anti-aligned bond masks (per periodic axis,
the index XOR its masked rotation, packed into uint64 words) are linear
over GF(2), so those of the 2^k rows L are the XOR of two half tables, and
a base H*2^k's are XORed in.  A bond between a row's site p and a boundary
site q outside the block is L_p XOR x_q: it counts the row's up ends at q
if x_q = 0 and its down ends if x_q = 1.  So one bincount per piece bins
the rows by (their up ends at each boundary site that varies within the
piece, spin excess, bonds inside the block and to the fixed sites), and a
transform over the varying sites turns that into one block histogram per
boundary class: the boundary-state factorization of Beale's 1996 transfer
matrix, cut once at the block (multi-spin coding, Jacobs & Rebbi 1981).
Each base adds its class's histogram, shifted by its up spins and its
anti-aligned bonds with no end in the block.  A piece whose patterns
would pass CELL_CAP cells is halved until they fit, and a block that a
shard's boundary cuts is a piece of its own rows.  Each range's table is
multiplied by its weight once, after its walk.  Counts are exact integers
and the shard tables add elementwise, so the total is bit-identical for
any shard count or order of addition.  Like the ranks of an MPI program,
at most one walker per usable CPU walks one shard each: the caller walks
shard 0, as rank 0 would, and walker j is a child that `os.fork` starts
for the call.  A worker writes one reply to a bare pipe: a tag byte, its
walk's seconds, then its bare int64 table, which the caller adds to its
own."""

import functools
import math
import os
import signal
import struct
import time
from collections import Counter

import numpy as np

from .histogram import DoSHistogram
from .lattice import LatticeSpec

#: The k of the blocks of 2^k indices that a lattice's walk chooses from:
#: the one whose plan costs least (`_plan`); a single k forces it.
#: 12 and 13 walked every lattice tried slower than 14 (BENCH_25.json); of
#: 14-17, 5x5 and 5x6 walk fastest at 15, 4x5 and 2x2x5 at 16, and 3x4x2
#: and most 36-40-spin lattices at 17 (2-vCPU x86, numpy 2.4;
#: BENCH_26.json).
BLOCK_BITS = (14, 15, 16, 17)
#: Most cells (boundary patterns x (k+1)(A+1), < 2^31) one piece bins: a
#: piece that would need more is halved until it fits.  In 3D the cap sets
#: the piece size: 2x4x5 at k = 16 walks pieces of 2^23 indices in 24 s at
#: 2^17 cells and of 2^32 in 1.6 s at 2^18.  Larger pieces bin and
#: transform out of cache: with each lattice at its own k, 2^18 walks the
#: 31 lattices in 9.6 s, 2^19 in 10.1 s, 2^20 in 10.7 s (BENCH_26.json).
CELL_CAP = 1 << 18
# One uint64 bond word of a Python int.
WORD = (1 << 64) - 1


def _check_count(name, count, spec):
    # A shard or worker count: an int, not a bool, in [1, 2^N].
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if not 1 <= count <= spec.num_configs:
        raise ValueError(f"{name} must be in [1, 2^{spec.num_spins}], got {count}")


def make_shards(spec: LatticeSpec, num_shards: int) -> list[list[tuple[range, int]]]:
    """Cut the walk, spec.top_orbits, in order, into num_shards shards.

    A shard is a list of (range, weight) pairs.  Of the walk's S indices,
    shard i walks S // num_shards, plus one for i < S % num_shards,
    contiguous in walk order; each part of a range keeps its weight.  Where
    the walk is [0, 2^N) whole, shard i is [(range, 1)].  Deterministic for
    fixed inputs.
    """
    _check_count("num_shards", num_shards, spec)
    walk = spec.top_orbits
    base, extra = divmod(sum(len(r) for r, _ in walk), num_shards)
    rest, shards, rng = iter(walk), [], range(0)
    for i in range(num_shards):
        shard, want = [], base + (i < extra)
        while want:
            if not rng:
                rng, weight = next(rest)
            shard.append((rng[:want], weight))
            rng, want = rng[want:], want - len(shard[-1][0])
        shards.append(shard)
    return shards


# -- the vectorized walk ----------------------------------------------------

class _Blocks:
    """A lattice's blocks of 2^k indices, as every walk of it bins them.

    Index H*2^k + L, and row L = L_hi*2^h + L_lo of its block.  The bond
    words of L are the words of L_hi XOR those of L_lo, the two half
    tables, and a base H*2^k's words are XORed in.  The bonds R that cross
    the block's boundary are the words of the block mask; a base's words
    are zero on the bonds inside the block, and a row's on the bonds with
    no end in it.
    """

    def __init__(self, spec: LatticeSpec, k: int, cell_cap: int):
        self.spec, self.k, self.h = spec, k, k // 2
        high = np.arange(1 << k - self.h, dtype=np.uint64) << np.uint64(self.h)
        low = np.arange(1 << self.h, dtype=np.uint64)
        self.halves = (spec.bond_words(high), spec.bond_words(low))
        self.ups = [np.bitwise_count(half).astype(np.intp) for half in (high, low)]
        self.grid = (len(high), len(low))
        self.support = spec.bond_words((1 << k) - 1)
        # A block histogram has (k+1) x (A+1) cells (ups, anti-aligned bonds
        # with an end in the block), A the number of such bonds.
        ends = [0] * len(self.support)
        for p in range(k):
            ends = [e | w for e, w in zip(ends, spec.bond_words(1 << p))]
        self.anti = sum(e.bit_count() for e in ends) + 1
        self.row = (k + 1) * self.anti
        # The boundary sites: each index bit q >= k whose bonds r_q meet R.
        # A bond of R is L_p XOR x_q for its one end p inside the block, so
        # the r_q are disjoint, and row L has d_q(L) = popcount(t_L & r_q)
        # anti-aligned bonds at q if x_q = 0 and deg_q - d_q(L) if x_q = 1.
        # Both counts add over the ends p in the two halves of the row.
        self.sites = []
        for q in range(k, spec.num_spins):
            bonds = [w & r for w, r in zip(spec.bond_words(1 << q), self.support)]
            deg = sum(w.bit_count() for w in bonds)
            if deg:
                self.sites.append((q, bonds, deg))
        # Pieces of at most 2^cap indices, whose patterns fit cell_cap cells.
        self.cap, self.cells = spec.num_spins, self.row
        for q, _, deg in self.sites:
            if self.cells * (deg + 1) > cell_cap:
                self.cap = q
                break
            self.cells *= deg + 1
        self.layouts = {}

    def layout(self, m):
        """The rows and bases of every piece of 2^m aligned indices, m >= k.

        The boundary sites below bit m vary within the piece and those at
        or above it are fixed.  Row L's key is pattern(d_q of the varying
        q) * row + ups * (A+1) + its bonds inside the block, the varying q
        in decreasing degree, the first the most significant digit.
        Returns (the rows' keys; the fixed sites' bonds by the half that
        holds their end, and each half table on them; the varying degrees;
        pattern cells; each base j*2^k's class, bit i its i-th varying
        site, times the table's cells plus its ups times B+1; the bases'
        words on the bonds with no end in the block).
        """
        if m not in self.layouts:
            spec, halves, b = self.spec, self.halves, self.spec.num_bonds
            varying = sorted((s for s in self.sites if s[0] < m), key=lambda s: -s[2])
            parts, cells = [ups * self.anti for ups in self.ups], self.row
            for _, bonds, deg in reversed(varying):
                for part, words in zip(parts, halves):
                    for w, r in zip(words, bonds):
                        part += np.bitwise_count(w & np.uint64(r)).astype(np.intp) * cells
                cells *= deg + 1
            keys = np.add.outer(*parts).reshape(-1)
            for hi, lo, r in zip(*halves, self.support):  # the bonds inside the block
                inside = np.uint64(WORD ^ r)
                keys += np.bitwise_count(np.bitwise_xor.outer(hi & inside, lo & inside)
                                         .reshape(-1))
            above = spec.bond_words((1 << spec.num_spins) - (1 << m))
            low = spec.bond_words((1 << self.h) - 1)  # bonds with an end in L_lo
            fixed = [r & w for r, w in zip(self.support, above)]
            fixed = ([f & ~e for f, e in zip(fixed, low)], [f & e for f, e in zip(fixed, low)])
            tables = [[w & np.uint64(f) for w, f in zip(words, bonds)]
                      for words, bonds in zip(halves, fixed)]
            j = np.arange(1 << m - self.k, dtype=np.uint64) << np.uint64(self.k)
            table = (spec.num_spins + 1) * (b + 1)
            bases = np.bitwise_count(j).astype(np.intp) * (b + 1)
            for i, (q, _, _) in enumerate(varying):
                bases += (j >> np.uint64(q) & np.uint64(1)).astype(np.intp) * (table << i)
            outside = [w & np.uint64(WORD ^ r) for w, r in zip(spec.bond_words(j), self.support)]
            self.layouts[m] = (keys, fixed, tables, [s[2] for s in varying], cells,
                               bases, outside)
        return self.layouts[m]

    def cost(self, bits):
        """Estimated seconds of a walk of one aligned range of 2^bits >= 2^k indices.

        Each piece of 2^m indices pays a call, bins its 2^k rows, bins and
        transforms its pattern cells and makes one add per base.  The
        seconds per piece, row, cell and add are a least-squares fit to
        serial walks of 31 lattices at k = 14-17 and caps 2^17-2^21; at
        2^18 cells the k it picks walks each within 1.26x of its fastest
        (2-vCPU x86, numpy 2.4; BENCH_26.json).
        """
        m = min(bits, self.cap)
        cells = self.row * math.prod(deg + 1 for q, _, deg in self.sites if q < m)
        piece = 3.0e-5 + 2.3e-9 * (1 << self.k) + 3.1e-9 * cells + 4.7e-7 * (1 << m - self.k)
        return piece * 2 ** (bits - m)


@functools.lru_cache(maxsize=16)
def _plan(rows, cols, depth, block_bits, cell_cap):
    """The blocks every walk of a rows x cols x depth lattice bins by.

    Of the k in block_bits, each clipped to N, the plan that walks a top
    range of spec.top_orbits at least cost; of equal costs, the least k.
    Keyed on geometry alone, as J only mirrors the finished table.  The 16
    slots hold the 10 geometries that a round of the benchmark's 12 small
    lattices cycles through: with 4 a serial round rebuilt every plan,
    3.2-3.6 ms against 0.9-1.0 ms.  A walked plan holds 0.14 MB (4x4) to
    2.7 MB (2x4x5), its layouts most of it, and building one adds ~0.7 ms
    to a ~2.1 ms 5x5 walk (2-vCPU x86, numpy 2.4; BENCH_27.json).
    """
    spec = LatticeSpec(rows, cols, depth)
    bits = len(spec.top_orbits[0][0]).bit_length() - 1
    return min((_Blocks(spec, k, cell_cap)
                for k in sorted({min(k, spec.num_spins) for k in block_bits})),
               key=lambda blocks: blocks.cost(bits))


def enumerate_shard(spec: LatticeSpec, shard) -> DoSHistogram:
    """g(M, E) of a shard's (range, weight) pairs: each range's table times its weight.

    A shard is as make_shards gives it: ranges of step 1 in [0, 2^N), each
    with a positive int weight; a plain walk of [a, b) is [(range(a, b), 1)].
    Each range's table is weighted once, after its walk.
    """
    for rng, weight in shard:
        if (rng.step != 1 or not 0 <= rng.start <= rng.stop <= spec.num_configs
                or isinstance(weight, bool) or not isinstance(weight, int)
                or weight < 1):
            raise ValueError(f"shard piece ({rng}, {weight!r}) invalid for "
                             f"2^{spec.num_spins} configurations")
    n, b = spec.num_spins, spec.num_bonds
    blocks = _plan(spec.rows, spec.cols, spec.depth, BLOCK_BITS, CELL_CAP)
    k, grid, anti = blocks.k, blocks.grid, blocks.anti
    # Each step over the 2^k rows writes into a buffer of this call, as a
    # temporary of 2^k rows costs a fresh mapping each time.  The rows'
    # keys and the transform's output share it: the keys are dead once
    # binned.
    spare = np.empty(max(1 << k, blocks.cells), dtype=np.intp)
    keys = spare[:1 << k]
    total = np.zeros((n + 1, b + 1), dtype=np.int64)
    flat = np.empty_like(total)  # a range's table

    def add_piece(base, m, lo=0, hi=1 << k):
        # Adds to flat the rows [lo, hi) of the blocks of the aligned piece
        # of 2^m indices at base.
        key, fixed, tables, degs, pattern, bases, outside = blocks.layout(m)
        # Each half adds its anti-aligned bonds to the fixed sites, t ^ s on
        # their bonds, along its axis of the rows.
        s = spec.bond_words(base)
        for bonds, words, axis in zip(fixed, tables, (1, 0)):
            if any(bonds):
                part = sum(np.bitwise_count(w ^ np.uint64(x & f))
                           for w, x, f in zip(words, s, bonds) if f)
                np.add(key.reshape(grid), np.expand_dims(part.astype(np.intp), axis),
                       out=keys.reshape(grid))
                key = keys
        src = np.bincount(key[lo:hi], minlength=pattern)
        # Per varying site, its axis of deg + 1 values d becomes 2: x_q = 0
        # adds the slice of d shifted by d bonds, x_q = 1 shifted by deg - d.
        # Every other term counts bonds with an end in the block off r_q, so
        # no shift carries a nonzero cell past its row of A+1, not even
        # across rows.  Site i's two values go in front of the rest, at bit
        # i of the class, so that its slices are whole 1D runs: a ufunc on
        # strided 2D views of short rows buffers (~190 KB a call) and is
        # slower.
        out, rows = spare, 1
        for deg in degs:
            x = src.reshape(rows, deg + 1, -1)
            y = out[:src.size // (deg + 1) * 2].reshape(2, rows, -1)
            y[0], y[1] = x[:, 0], x[:, deg]
            if deg == 1:  # through a copy of d = 0 in src, now free
                y0, y1 = y[0].reshape(-1), y[1].reshape(-1)
                copy = src[:y0.size]
                copy[:] = y0
                y0[1:] += y1[:-1]
                y1[1:] += copy[:-1]
            else:  # first, or after other sites of degree > 1
                for d in range(1, deg + 1):
                    y[0, :, d:] += x[:, d, :-d]
                    y[1, :, d:] += x[:, deg - d, :-d]
            src, out, rows = y.reshape(-1), src, rows * 2
        hist = src.reshape(rows, k + 1, anti)
        # Each base adds the histogram of its class, its varying sites' bits,
        # at its ups and its anti-aligned bonds with no end in the block;
        # bases of one (class, ups, bonds) are counted together.
        pairs = bases + base.bit_count() * (b + 1)
        for w, x, r in zip(outside, s, blocks.support):
            pairs += np.bitwise_count(w ^ np.uint64(x & ~r))
        for pair, count in Counter(pairs.tolist()).items():
            cls, at = divmod(pair, total.size)
            ups, bonds = divmod(at, b + 1)
            cell = flat[ups:ups + k + 1, bonds:bonds + anti]
            cell += hist[cls] if count == 1 else count * hist[cls]

    for rng, weight in shard:
        start, end = rng.start, rng.stop
        flat[:] = 0
        # A block cut at the range's start or end bins its rows of the table.
        first, stop = -(-start >> k), end >> k  # heads of the whole blocks
        for piece in (range(start, min(end, first << k)),
                      range(max(first, stop) << k, end)):
            if piece:
                base = piece.start >> k << k
                add_piece(base, k, piece.start - base, piece.stop - base)
        # The whole blocks, as maximal aligned pieces of at most 2^cap indices.
        head = first
        while head < stop:
            m = min((head & -head or 1 << n).bit_length() - 1,
                    (stop - head).bit_length() - 1, blocks.cap - k)
            add_piece(head << k, m + k)
            head += 1 << m
        total += weight * flat
    counts = total
    if spec.coupling < 0:
        # E = J * (2*anti - B): column `anti` is the energy index for J > 0,
        # and J < 0 mirrors the energy axis.
        counts = counts[:, ::-1].copy()
    return DoSHistogram(spec, counts)


def merge(parts) -> DoSHistogram:
    """Elementwise sum, in any order, of a nonempty list of histograms of one spec."""
    parts = list(parts)
    if not parts:
        raise ValueError("merge needs at least one part")
    spec = parts[0].spec
    if any(p.spec != spec for p in parts):
        raise ValueError("cannot merge histograms of different lattices")
    return DoSHistogram(spec, sum(p.counts for p in parts))


# -- parallel driver ---------------------------------------------------------

def available_parallelism() -> int:
    """Usable CPU count (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A shard worker raised, exited without its reply, or replied the wrong size.

    Its first line names the worker and, if it raised, its exception's first line.
    """


def _walk(spec, shard):
    # The int64 counts of a shard's table and the seconds its walk took.
    t0 = time.perf_counter()
    counts = enumerate_shard(spec, shard).counts
    return counts, time.perf_counter() - t0


def _shard_worker(spec, shard, fd):
    # Walks a shard in a forked child and writes one reply to the pipe end
    # fd: a tag byte 0, the walk's seconds as float64, then its int64 table
    # in C order (a forked worker pays RSS for each code path it is first to
    # touch, so no other numpy call); if the walk raised, a tag byte 1, then
    # as UTF-8 text the first line of its exception and its traceback.
    try:
        counts, seconds = _walk(spec, shard)
        reply = b"\0" + struct.pack("d", seconds) + counts.tobytes()
    except Exception as exc:
        import traceback  # only a failed walk needs it
        head = traceback.format_exception_only(exc)[0].partition("\n")[0]
        reply = f"\1{head}\n{traceback.format_exc()}".encode(errors="backslashreplace")
    with open(fd, "wb") as pipe:
        pipe.write(reply)


def full_dos_timed(spec: LatticeSpec, workers: int | None = None):
    """Complete density of states plus timing.

    min(workers, available_parallelism()) walkers, or one where os has no
    fork, each walk one shard of make_shards(spec, walkers).  The caller
    walks shard 0; walker j is a child that os.fork starts before the caller
    walks, and every one is killed and reaped before the call ends.  The
    caller reads the replies in walker order.  Its own exception is raised
    as it is; a worker that raised, exited without replying or replied the
    wrong size raises WorkerError, whose first line names the worker and,
    if it raised, its exception's first line, then the worker's traceback.
    Returns (histogram, wall_seconds, per_worker_seconds), the last each
    walker's walk seconds.
    """
    # The plan, built before any fork so that every walker inherits it.
    k = _plan(spec.rows, spec.cols, spec.depth, BLOCK_BITS, CELL_CAP).k
    if workers is None:
        # Auto mode walks a lattice of at most one block serially.
        workers = available_parallelism() if spec.num_configs > 1 << k else 1
    _check_count("workers", workers, spec)
    walkers = min(workers, available_parallelism() if hasattr(os, "fork") else 1)
    shards = make_shards(spec, walkers)
    # Unread read ends and unreaped workers, by walker.
    seconds, reads, pids = [None] * walkers, {}, {}
    t0 = time.perf_counter()
    try:
        for j in range(1, walkers):
            reads[j], write = os.pipe()
            try:
                pids[j] = os.fork()
            except BaseException:
                os.close(write)
                raise
            if not pids[j]:  # the worker: it never returns into the caller's stack
                code = 1
                try:
                    for fd in reads.values():  # its own among them
                        os.close(fd)
                    _shard_worker(spec, shards[j], write)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)  # so the worker's exit ends the pipe
        counts, seconds[0] = _walk(spec, shards[0])
        # No worker waits on another, so reading in walker order cannot stall.
        for j in range(1, walkers):
            with open(reads.pop(j), "rb") as pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[j], 0)[1])
            del pids[j]  # only now: the finally reaps what is still here
            if not reply:
                raise WorkerError(f"shard worker {j} exited with code "
                                  f"{code} without a result")
            if reply[0]:  # the walk raised: its headline, then its traceback
                detail = reply[1:].decode(errors="replace").rstrip()
                raise WorkerError(f"shard worker {j} raised {detail}")
            if len(reply) != 9 + counts.nbytes:
                raise WorkerError(f"shard worker {j} replied {len(reply)} "
                                  f"bytes, not the {9 + counts.nbytes} of a "
                                  f"tag, a float64 and a {counts.shape} table")
            (seconds[j],) = struct.unpack_from("d", reply, 1)
            counts += np.frombuffer(reply, np.int64, offset=9).reshape(counts.shape)
    finally:
        for fd in reads.values():
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    return DoSHistogram(spec, counts), wall, seconds


def full_dos(spec: LatticeSpec, workers: int | None = None) -> DoSHistogram:
    """Complete density of states: full_dos_timed without the timing."""
    hist, _, _ = full_dos_timed(spec, workers)
    return hist
