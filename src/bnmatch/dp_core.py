"""Interval subproblem table over circular arcs, with reconstruction.

The table answers, for every arc <start, start+size-1> of even size, the
best bottleneck value (squared) of a matching of exactly those points whose
diagonals form a single nested chain, and whether the closing pair was
forced.

Indexing is (start, size) rather than endpoint pairs so that the full-circle
entries (size n) are first class; an interval of size 0 contributes 0.

Values are checkpointed (Hirschberg 1975, Griewank 1992: recompute instead
of store). The fill keeps the value rows of sizes 0, 2s, 4s, ... for a
stride s, plus the full-circle row. Row r0 + d at start t depends only on
row r0 at starts t .. t + 2d, so any other value is replayed from the
checkpoint row below it on a window of at most 2s - 1 starts, with the
fill's own float operations, and comes out bit for bit as the fill computed
it. ``checkpoint_stride`` alone picks s from n, isqrt(2n) for every n, so
values take at most 8n(sqrt(n/8) + 3) bytes instead of 4n(n + 2), and
replaying a column of n/2 values costs about n * s / 2 = n * sqrt(n/2)
entry updates. Stride 1, which keeps every row, is a value that tests force.

No move is stored: ``reconstruct`` recomputes each move of its walk from
the values. Of the necessary arcs, the table keeps the diagonals (i, j)
of the candidates only, those that turn by at most 2*pi/3
(``candidate_reach``), and each one's value, its base, which the fill has
at hand where it flags the arc: no base is replayed. So the table holds
no quadratic field.

The fill, the replays of ``arc_values``, the walk of ``reconstruct``,
the candidate rule and ``solve``'s 3-chain search (``bn_search``, which
replays as ``arc_values`` does) are one call each into a compiled
kernel, ``_rowkernel.c``, which holds the recurrence's expressions once,
built on first use with the C compiler ``cc`` (``_kernel``). Every buffer
it uses is passed in, so tracemalloc sees all of its memory. Each buffer
it writes is a ctypes array (``_buffer``), which a call takes as it is,
and Python reads one through a NumPy view of it; only the coordinates go
by address. The fill goes up the table in blocks of rows, each computed
strip by strip over a few hundred starts (``fill_tile``), so a strip's
rows stay in the L1 cache, and two threads share each block's strips
where the process may use two CPUs. README gives the measured times and
memory.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import operator
import os
import platform
import subprocess
import tempfile
from dataclasses import InitVar, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import BadDomainError, KernelBuildError
from .geometry import ConvexPointSet

# the candidates' room before the fill's first call: cluster3's few fit
_ROOM = 16

# the type of every buffer the kernel writes (see _buffer)
_Cell = ctypes.c_double * 1

# the kernel's source in the package, and its compiler flags: no FMA
# contraction, and no -march, so that one library serves any x86-64 CPU
# through its target clones
_SOURCE = "_rowkernel.c"
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")


def checkpoint_stride(n: int) -> int:
    """The table's stride, isqrt(2n).

    At stride s the table keeps at most n/(2s) + 2 value rows of n
    floats, at most 8n(sqrt(n/8) + 3) bytes, and a block of s replayed
    rows holds about s^2 = 2n entries.
    """
    return math.isqrt(2 * n)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    has one (Linux), else every CPU. The fill runs min(2, this) threads."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fill_tile(n: int) -> tuple[int, int]:
    """The fill's tile (h, w): blocks of h rows, in strips of w starts.

    From n = 1026 on it is (16, 384). A strip's rows read about 8 floats a
    start over its w + 2h starts (the coordinates and edges at both ends
    of its arcs, two rows of the tile and the reach), so they stay in a
    48 KB L1 data cache. Up to n = 1024 a whole row fits that cache, and
    the fill goes row by row, (1, n): each block is one row of n starts,
    computed straight into a scratch row, so no tile is needed and no
    second thread starts. README gives the tile's timings.
    """
    return (1, n) if n <= 1024 else (16, 384)


@dataclass(frozen=True, eq=False)
class SubproblemTable:
    """Values of all even-size arcs and the candidate arcs among them.

    Row k covers arcs of size 2k, indexed by start; row 0 is the
    empty-interval convention. No move tags are stored: ``choice`` is an
    empty (0, n) array, kept only so that code summing the table's fields'
    ``nbytes`` (the benchmark's table_bytes) still runs; it can go with the
    next change to the benchmark. An arc is necessary iff its float pair
    strictly beats both float edge moves (see ``build_subproblem_table``).
    ``necessary`` holds the (i, j), j = i + 2k - 1 mod n, of every necessary
    arc (i, 2k) with 2 <= k <= ``candidate_reach(P)[i]``, a diagonal whose
    arc turns by at most 2*pi/3: the candidates, by i, then j (search order).
    ``bases[c]`` is the value of the arc ``necessary[c]``, bit for bit the
    fill's. ``S`` holds the value rows k = 0, stride, 2*stride, ... and,
    last, the full-circle row k = n/2. Read any other value with
    ``arc_values``, the table's public read; ``solve`` does not call it, as
    its search replays the same blocks inside its one kernel call. A
    replay needs the coordinates ``xs`` and ``ys`` and the fill's squared
    edge lengths ``edge2``.

    The table keeps the first six arguments of every kernel call, taken
    from its own fields when it is made (``_arg``): the addresses of xs and
    ys, which the fill passes in as ``_xy`` where it has read them, the
    buffers of edge2 and S, n and the stride. ``copy``, ``deepcopy``,
    ``pickle`` and ``dataclasses.replace`` all make a table through the
    constructor, without ``_xy`` (see ``__reduce__``), so a copy takes its
    own arrays' buffers, or their addresses where NumPy owns them.
    """

    n: int
    stride: int
    S: np.ndarray          # float64, the kept value rows, each of length n
    choice: np.ndarray     # uint8, shape (0, n): empty, see above
    necessary: np.ndarray  # intp, shape (c, 2): the (i, j) of each candidate arc
    bases: np.ndarray      # float64, shape (c,): the value of each candidate arc
    xs: np.ndarray
    ys: np.ndarray
    edge2: np.ndarray      # float64, d2(s, s+1) for every start s
    _xy: InitVar[tuple[int, int] | None] = None
    _args: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, _xy: tuple[int, int] | None) -> None:
        x, y = _xy or (_arg(self.xs), _arg(self.ys))
        object.__setattr__(self, "_args", (x, y, _arg(self.edge2), self.n, _arg(self.S),
                                           self.stride))

    def __reduce__(self):
        # through the constructor, which takes the copy's own buffers
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def arc_values(self, start: int, end: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Values of the arcs of sizes 0, 2, ..., 2*kmax (kmax <= n/2) that
        start at ``start``, and of those that end at ``end``.

        Entry k of the first array is the value of the arc of size 2k
        starting at ``start``; of the second, that of the arc of size 2k
        ending at ``end``. One kernel call replays, from each checkpoint row
        r0 <= kmax, the block of rows r0 .. r0 + stride - 1 (fewer at kmax)
        over the starts where the arcs from ``start`` lie, and the one
        where the arcs to ``end`` lie, each into one scratch of
        (stride + 1)^2 floats, the walk's block: about n * stride / 2 entry
        updates each, O(n) memory in all with the two arrays.
        """
        n, stride = self.n, self.stride
        try:
            start, end, kmax = operator.index(start), operator.index(end), operator.index(kmax)
        except TypeError as e:
            raise BadDomainError(f"start {start!r}, end {end!r}, kmax {kmax!r}: {e}") from None
        if not 0 <= kmax <= n // 2:
            raise BadDomainError(f"kmax {kmax} outside [0, {n // 2}]")
        first, last = _zeros(kmax + 1), _zeros(kmax + 1)
        _kernel().bn_arcs(*self._args, start % n, end % n, kmax, _buffer(8 * (stride + 1) ** 2),
                          first.base, last.base)
        return first, last


def _buffer(nbytes: int) -> ctypes.Array:
    """``nbytes`` zeroed bytes, at least 8, that ctypes owns: a kernel call
    takes the buffer as it is, with no address read. Each is an array of
    one float, resized: ``c_double * k`` would make a type of about 3 KB
    for each new length k, which ctypes drops when no array uses it."""
    buf = _Cell()
    if nbytes > ctypes.sizeof(buf):
        ctypes.resize(buf, nbytes)
    return buf


def _zeros(*shape: int, dtype=np.float64) -> np.ndarray:
    """A zeroed array over a ``_buffer`` of its own: its ``base``, what the
    kernel takes for it."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, _buffer(math.prod(shape) * dtype.itemsize))


def _arg(a: np.ndarray) -> ctypes.Array | int:
    """What the kernel takes for ``a``: the ``_buffer`` that ``a`` spans
    from its first byte, as ``_zeros`` makes them, else a's address, an
    int that holds no reference to ``a``."""
    base = a.base
    if isinstance(base, _Cell) and a.nbytes == ctypes.sizeof(base) and a.flags.c_contiguous:
        return base
    return a.ctypes.data


def _build(source: bytes, flags: tuple[str, ...], path: Path) -> None:
    """Compile ``source`` with ``cc flags`` into the library ``path``.

    The compiler writes a temporary file beside ``path``, which then
    replaces ``path`` in one step: processes that build at once each
    leave a whole library, and the last one's stays. Raises
    KernelBuildError with the compiler's stderr.
    """
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
        os.close(fd)
    except OSError as e:
        raise KernelBuildError(f"cannot write to {path.parent}: {e}") from e
    try:
        done = subprocess.run(["cc", *flags, "-x", "c", "-", "-o", tmp],
                              input=source, capture_output=True)
        if done.returncode:
            raise KernelBuildError(f"cc exited {done.returncode}: "
                                   + done.stderr.decode(errors="replace").strip())
        os.chmod(tmp, 0o755)  # as the compiler would have made a new file
        os.replace(tmp, path)
    except OSError as e:
        raise KernelBuildError(f"cannot run cc: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load(path: Path) -> ctypes.CDLL:
    """The library at ``path``, with the argument types of its five calls."""
    lib = ctypes.CDLL(str(path))
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    poly = [ptr, ptr, ptr, size, ptr, size]  # xs, ys, edge2, n, S, stride
    lib.bn_fill.argtypes = poly + [ptr, size, size, size, ptr, ptr, size, ptr, ptr, ptr, size]
    lib.bn_fill.restype = ctypes.c_int
    lib.bn_arcs.argtypes = poly + [size, size, size, ptr, ptr, ptr]
    lib.bn_arcs.restype = None
    lib.bn_search.argtypes = poly + [ptr, ptr, size, ctypes.c_double, ptr, ptr]
    lib.bn_search.restype = ctypes.c_double
    lib.bn_walk.argtypes = poly + [size, size, ptr, ptr]
    lib.bn_walk.restype = None
    lib.bn_reach.argtypes = [ptr, ptr, size, ptr]
    lib.bn_reach.restype = None
    return lib


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled row kernel, built on first use into the package's
    ``__pycache__`` under a name keyed by the source, the flags and the
    machine, and loaded once per process. A library that cannot be loaded,
    because it is not there or a build of another source removed it, is
    built; a build removes the libraries of other keys there, not the
    temporary files of builds under way."""
    source = resources.files(__package__).joinpath(_SOURCE).read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, *(f.encode() for f in _CFLAGS), platform.machine().encode()])).hexdigest()
    path = Path(__file__).with_name("__pycache__") / f"_rowkernel.{key[:16]}.so"
    try:
        return _load(path)
    except OSError:
        _build(source, _CFLAGS, path)
    for stale in path.parent.glob("_rowkernel.*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)
    try:
        return _load(path)
    except OSError as e:  # removed again since the build
        raise KernelBuildError(f"cannot load {path}: {e}") from e


def candidate_reach(P: ConvexPointSet) -> np.ndarray:
    """For each start s, the largest k < n/2 whose arc of 2k points from s
    turns by at most 2*pi/3, or 0 if n = 2: the one home of the candidate
    rule, one pass of two pointers in the kernel (``bn_reach``). An arc
    whose float test is within the rounding bound that ``_rowkernel.c``
    states counts in, so the reach is never below the exact rule's.
    """
    xs, ys = np.ascontiguousarray(P.xs, np.float64), np.ascontiguousarray(P.ys, np.float64)
    reach = _zeros(P.n, dtype=np.intp)
    _kernel().bn_reach(xs.ctypes.data, ys.ctypes.data, P.n, reach.base)
    return reach


def _grown(buf: ctypes.Array, keep: int, nbytes: int) -> ctypes.Array:
    """A new ``_buffer`` of ``nbytes`` that starts with the first ``keep`` bytes of ``buf``."""
    out = _buffer(nbytes)
    ctypes.memmove(out, buf, keep)
    return out


def build_subproblem_table(P: ConvexPointSet) -> SubproblemTable:
    """Fill the table for all (start, even size) in O(n^2) time.

    For an arc of size m starting at s, with d2 the squared distances:

        pair  = max(S(s+1, m-2), d2(s, s+m-1))
        left  = max(S(s+2, m-2), d2(s, s+1))
        right = max(S(s,   m-2), d2(s+m-2, s+m-1))
        S(s, m) = min(pair, left, right)

    ties pick the earliest move in (pair, left, right) order. An arc is
    necessary iff its float pair strictly beats both float edge moves,
    pair < min(left, right), so a float tie is not flagged (whether a
    rounding can so lose a candidate is open). That is tested only in the
    rows k <= max(``candidate_reach(P)``) and, at a start s, only while
    k <= reach[s]: past that the pair would have to beat 0, which it never
    does, so each arc the test flags is a candidate. There the row's value
    is the pair's, and the fill stores it with the arc's diagonal (i, j).

    One kernel call, ``bn_fill``, computes the rows; ``_rowkernel.c``
    gives its tiles (``fill_tile``), its threads and how it grows the
    candidates' arrays, and the values are the same bits on any tile and
    thread count. Its scratch is O(n) beside the candidates, which come
    out sorted by (i, j).
    """
    n = P.n
    half = n // 2
    stride = checkpoint_stride(n)
    h, w = fill_tile(n)
    xs, ys = np.ascontiguousarray(P.xs, np.float64), np.ascontiguousarray(P.ys, np.float64)
    x, y = xs.ctypes.data, ys.ctypes.data
    reach = candidate_reach(P)
    kmax = int(reach.max())  # no row above it holds a candidate
    rows = half // stride + 1 + (half % stride != 0)
    S, edge2 = _buffer(8 * rows * n), _buffer(8 * n)
    threads = min(2, usable_cpus())  # the kernel starts no worker where a block is one strip
    # each thread's rows of a block below its top, strip by strip; none where
    # a block is one row of n starts
    tile = 0 if h == 1 and w >= n else threads * 2 * min(w + 2 * h, n)
    # one scratch: two full rows, the tiles, and the state: next block's
    # first row, candidates kept, the count the block needs
    scratch = _buffer(8 * (2 * n + tile + 3))
    state = np.ndarray(3, np.intp, scratch, 8 * (2 * n + tile))
    state[0] = 1
    # room for cap candidates: their (i, j), 16 bytes each, and their values
    cap = _ROOM
    ij, values = _buffer(16 * cap), _buffer(8 * cap)
    fill = _kernel().bn_fill
    fill_args = (x, y, edge2, n, S, stride, _arg(reach), kmax, h, w, scratch,
                 ctypes.byref(scratch, 16 * n), threads, ctypes.byref(scratch, 8 * (2 * n + tile)))
    while fill(*fill_args, ij, values, cap):
        kept, cap = int(state[1]), max(2 * cap, int(state[1] + state[2]))
        ij, values = _grown(ij, 16 * kept, 16 * cap), _grown(values, 8 * kept, 8 * cap)
    count = int(state[1])
    del fill_args, reach, state, scratch  # before the sort's temporaries
    # the candidates in buffers of their own, in (i, j) order by the key i * n + j
    necessary, bases = _zeros(count, 2, dtype=np.intp), _zeros(count)
    if count:
        ij = np.ndarray((count, 2), np.intp, ij)
        order = np.argsort(ij.dot((n, 1)))
        np.take(ij, order, axis=0, out=necessary)
        np.take(np.ndarray(count, np.float64, values), order, out=bases)
    return SubproblemTable(
        n=n, stride=stride, S=np.ndarray((rows, n), np.float64, S),
        choice=np.zeros((0, n), dtype=np.uint8), necessary=necessary, bases=bases, xs=xs, ys=ys,
        edge2=np.ndarray(n, np.float64, edge2), _xy=(x, y),
    )


def one_cascade_optimum(T: SubproblemTable) -> tuple[float, int]:
    """Best full-circle entry: (squared value, achieving start).

    Ties go to the smallest start.
    """
    row = T.S[-1]
    s = int(np.argmin(row))
    return float(row[s]), s


def reconstruct(T: SubproblemTable, start: int, size: int) -> np.ndarray:
    """The size/2 pairs of the table's optimum for the arc <start, start+size-1>,
    as a (size/2, 2) intp array in the order the walk takes them.

    The pairs cover exactly the arc and their longest squared length equals
    the table's value of the arc bit for bit (the table holds actual pair
    distances, selected by min/max only). Each move is the one the fill's
    recurrence picks, from the fill's floats and in its tie order: the pair
    unless min(left, right) < pair, else the left edge unless right < left.

    No moves are stored. The walk, one kernel call, goes down one block of
    rows at a time: from the arc (s, 2k), the moves of rows r0+1 .. k, for
    the checkpoint r0 below k, need rows r0 .. k-1 only at starts s .. s +
    2(k - r0), which one block from row r0 gives. That is O(size * stride)
    time and O(stride^2) = O(n) scratch: one block's rows, in the
    (stride + 1)^2 floats ``arc_values`` uses too, beside the pairs, 16
    bytes a pair.
    """
    n = T.n
    try:
        start, size = operator.index(start), operator.index(size)
    except TypeError as e:
        raise BadDomainError(f"start {start!r}, size {size!r}: {e}") from None
    if not 0 <= start < n:
        raise BadDomainError(f"start {start} outside [0, {n})")
    if size % 2 != 0 or not 0 <= size <= n:
        raise BadDomainError(f"size {size} not even in [0, {n}]")
    pairs = _zeros(size // 2, 2, dtype=np.intp)
    _kernel().bn_walk(*T._args, start, size // 2, _buffer(8 * (T.stride + 1) ** 2), pairs.base)
    return pairs
