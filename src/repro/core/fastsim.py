"""Launch-level vectorized executors for the peeling kernels.

This module is the ``vectorized`` engine's fast path (see
:mod:`repro.gpusim.engine` and ``docs/SIMULATOR.md``).  Instead of
stepping one generator per warp through the reference scheduler, each
executor computes a whole launch — every device-memory side effect and
every cost-model tally — in one call into C (``fastsim_flush.c``: a
walk over the degree array for the scan, a turn-level replay for the
loop), which also folds the launch's stats, and returns the same
:class:`~repro.gpusim.scheduler.KernelStats` the reference interpreter
would have produced, byte for byte.

How exactness is preserved
--------------------------

*Scan* (:func:`~repro.core.scan_kernel.scan_kernel`) has no
cross-block state: each block's buffer content is its warps' hits
ordered by ``(trip, warp, lane)``, which is ascending vertex id, and
every per-trip cost is a function of the trip's lane and hit counts
alone.  Each launch (``repro_scan``) walks the degree array once in
ascending 32-vertex chunks (one chunk is one trip) to count each
block's hits and checks them, then adds up every trip's
hit-independent charges and walks the chunks with hits again to
write the buffers and add the hit-dependent charges, the same ones
per trip the reference makes.

*Loop* (:func:`~repro.core.loop_kernel.loop_kernel`) has cross-block
ordering semantics (concurrent ``atomicSub`` on shared neighbors), so
the executor replays the reference FIFO scheduler exactly — but at
*turn* granularity, with a few integer state updates per turn instead
of a generator resumption.  The expensive part of a turn (a warp's
whole adjacency sweep) is deferred into an ordered *event* list: when
a block next reads its buffer tail ``e``, the pending events are
flushed one by one in emission order, each sweeping its adjacency 32
lanes per trip with the lanes' atomics applied in lane order.  Events
never interleave: with no preemption, a warp's read -> atomicSub
window runs without a yield (events are atomic in the schedule), so
emission order is the reference's touch order, and the Fig. 6 restore
path cannot fire.  Within one trip every touched vertex is distinct,
so the degree each lane reads is the value its atomic observes —
unless an adjacency list contains duplicate neighbors, a case the
executor detects up front and declines.

Both replays add the reference's charges in their own grouping, which
is exact because every charge is on the quarter-integer grid: they
charge the shared-memory costs at the default cost model's values and
fold the global-load latency and the global atomic's base charge in
bulk, so a launch whose cost model differs there, or puts those two
off the grid, declines (see :func:`_bind`).  The *fold*
(``repro_fold``) is not regrouped: it makes ``run_kernel``'s epilogue's
double operations in its order (per-block sums in warp order, the
per-block roofline added to its SM round-robin in block order, ``max``
keeping the first of equal values), because its ``0.3`` cycles per
transaction is not dyadic.  Python builds the
:class:`~repro.gpusim.costmodel.BlockTiming` records from the fold's
per-block output only for a profiler.

The library is built once into a per-user cache with the system
``cc`` and loaded with :mod:`ctypes` at the first vectorized launch of
a process.  Where it does not load, every launch declines and the
reference interpreter serves it, which is the fallback the tests pin
the C replays against.

Fallback discipline
-------------------

An executor declines a launch by raising
:class:`~repro.gpusim.engine.FallbackToReference`, leaving no trace —
the engine then re-runs the launch on the reference interpreter.
Both executors write the device arrays in place.  The scan declines
only before its first write: its count pass checks the overflow and
every index the write pass uses.  The loop can decline mid-replay, so
the C replay logs what it overwrites — the degree ids it decremented,
each block's global buffer slots (contiguous from the block's
``e_init``), its ``gpu_count`` adds — and a decline undoes them; the
log is bounded, and a full log declines.  Shared-memory allocations
are staged in both executors.  Declined launches: warp sizes other
than 32 (lanes, trips and scan chunks are counted in 32-lane warps),
cost models off the replays' charges or with a zero issue width (the
reference's division raises), ring-buffer variants (wraparound
head/tail semantics), virtual warping (``vw > 1``), duplicate
in-adjacency neighbors, predicted buffer overflow (the reference run
raises :class:`~repro.errors.BufferOverflowError` at the exact
offending write or read, with the exact partial state), tails, buffer
slots, scanned vertices, CSR rows or neighbor ids outside their arrays
(the reference's numpy indexing raises or wraps; the C replays never
read or write out of bounds), device arrays the C replays cannot
address in place, and every launch when the library does not load.
Shared-memory exhaustion is *not* a fallback: the staged allocations
are made before the replay in
:meth:`~repro.gpusim.context.BlockState.alloc_shared` order, fire the
same memtracker callbacks, and raise the same
:class:`~repro.errors.SharedMemoryExhaustedError`.

The executors assume the CSR arrays (``offsets``/``neighbors``) are
immutable for the lifetime of the :class:`~repro.gpusim.memory.DeviceArray`
objects — true for every host program in this repository — so the
duplicate-neighbor pre-check and the native replay's CSR context can
be cached per array pair.  A scan's C context is cached on the tails
it writes; each context keeps its accumulator and fold scratch, and
each device array its address.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.core.variants import VariantConfig
from repro.errors import SharedMemoryExhaustedError
from repro.gpusim.costmodel import BlockTiming, CostModel
from repro.gpusim.engine import (
    FallbackToReference,
    VectorLaunch,
    register_vectorized_kernel,
)
from repro.gpusim.memory import DeviceArray
from repro.gpusim.scheduler import KernelStats

__all__ = ["native_flush_available", "register"]


# ---------------------------------------------------------------------------
# shared accounting
# ---------------------------------------------------------------------------


#: the launch totals ``repro_fold`` writes first in its output, in
#: :class:`KernelStats` field order; each block's issued sum and warp
#: path maximum follow them
_TOTALS = 11


def _kernel_stats(
    launch: VectorLaunch, acc: np.ndarray, out: np.ndarray
) -> KernelStats:
    """The launch's stats from the C fold's output ``out``.

    ``acc`` holds the launch's accumulators: ``issued`` and ``path``
    per warp, then per block ``mem_transactions``, ``mem_accesses``,
    ``mem_active_lanes``, ``mem_ideal_transactions``,
    ``atomic_cycles``, ``atomic_conflicts``, ``buffer_peak`` and
    ``barriers``, the fields of
    :class:`~repro.gpusim.costmodel.BlockTiming`.  The records are
    built only for a profiler (``collect_timings``).
    """
    t = out.tolist()
    timings = None
    if launch.collect_timings:
        grid = launch.grid_dim
        issued = t[_TOTALS : _TOTALS + grid]
        paths = t[_TOTALS + grid :]
        trans, accesses, lanes, ideal, atomic, conflicts, peak, barriers = (
            acc[acc.size - 8 * grid :].reshape(8, grid).tolist()
        )
        timings = tuple(
            BlockTiming(
                issued=issued[b], mem_transactions=trans[b],
                max_warp_path=paths[b], barriers=int(barriers[b]),
                atomic_conflicts=conflicts[b], buffer_peak=peak[b],
                atomic_cycles=atomic[b], mem_accesses=accesses[b],
                mem_active_lanes=lanes[b], mem_ideal_transactions=ideal[b],
            )
            for b in range(grid)
        )
    return KernelStats(
        cycles=t[0], issued=t[1], mem_transactions=t[2], barriers=int(t[3]),
        max_warp_path=t[4], atomic_conflicts=t[5], buffer_peak=t[6],
        atomic_cycles=t[7], mem_accesses=t[8], mem_active_lanes=t[9],
        mem_ideal_transactions=t[10], block_timings=timings,
        served_by="vectorized",
    )


class _StagedShared:
    """Staged per-block shared memory, replicating ``alloc_shared``.

    Only the bytes matter: the scan never reads its staging arrays and
    the C replay keeps its own windows and prefetch buffers, so what is
    kept is the names allocated and each block's byte count.
    Allocations are recorded in order; memtracker callbacks fire only
    at :meth:`commit` (end of launch, or just before re-raising
    :class:`~repro.errors.SharedMemoryExhaustedError`), so a launch
    that falls back to the reference interpreter leaves no trace.
    """

    def __init__(self, launch: VectorLaunch) -> None:
        self._spec = launch.spec
        self._memtracker = launch.memtracker
        self._allocated: Set[Tuple[int, str]] = set()
        self._bytes = [0] * launch.grid_dim
        self._log: List[Tuple[int, str, int]] = []

    def alloc(self, block: int, name: str, size: int) -> None:
        if (block, name) in self._allocated:
            return
        needed = size * self._spec.id_bytes
        if (
            self._bytes[block] + needed
            > self._spec.shared_memory_per_block_bytes
        ):
            # match the reference exactly: earlier successful allocs
            # have already notified the memtracker when this raises
            self.commit()
            raise SharedMemoryExhaustedError(
                block, name, needed, self._bytes[block],
                self._spec.shared_memory_per_block_bytes,
            )
        self._bytes[block] += needed
        self._log.append((block, name, needed))
        self._allocated.add((block, name))

    def commit(self) -> None:
        mt = self._memtracker
        if mt is not None:
            for block, name, needed in self._log:
                mt.on_shared_alloc(block, name, needed)
        self._log.clear()


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _adjacency_has_duplicates(offs: np.ndarray, nbrs: np.ndarray) -> bool:
    """True when any vertex's adjacency slice repeats a neighbor."""
    nv = offs.size - 1
    if nbrs.size < 2 or nv <= 0:
        dup = False
    else:
        # fast path: consecutive-pair diffs, masking out pairs that
        # straddle a slice boundary.  A zero diff inside a slice is a
        # duplicate outright; strictly increasing slices (the common
        # sorted-CSR case) can hold none.  Only unsorted slices need
        # the full lexsort.
        d = np.diff(nbrs)
        idx = offs[1:-1] - 1
        d[idx[(idx >= 0) & (idx < d.size)]] = 1  # neutralise boundaries
        if bool(np.any(d == 0)):
            dup = True
        elif bool(np.all(d > 0)):
            dup = False
        else:
            vid = np.repeat(
                np.arange(nv, dtype=np.int64), np.diff(offs)
            )
            # per-vertex duplicate test: sort (vertex, neighbor) pairs
            # and look for equal consecutive pairs
            order = np.lexsort((nbrs, vid))
            sv = vid[order]
            sn = nbrs[order]
            dup = bool(
                np.any((sv[1:] == sv[:-1]) & (sn[1:] == sn[:-1]))
            )
    return dup


@functools.lru_cache(maxsize=64)
def _exact_costs(cost: CostModel) -> bool:
    """Whether both executors' charges are ``cost``'s, bit for bit.

    They charge shared accesses and shared atomics at the default
    model's 1, 2 and 0.25 cycles, and fold the global-load latency and
    the global atomic's base charge in bulk (``1 + latency`` per load,
    say, where the reference adds 1, then the latency); that fold is
    exact only for quarter-integers small enough that every sum of
    them is exact.  Cached per (frozen) cost model: every launch asks.
    """
    fold = (cost.global_load_latency, cost.global_atomic_base)
    return (
        (cost.shared_access_cycles, cost.shared_atomic_base,
         cost.shared_atomic_conflict) == (1.0, 2.0, 0.25)
        and all(abs(c) <= 2.0**20 and (4.0 * c).is_integer() for c in fold)
    )


def _bind(
    names: Tuple[str, ...],
    defaults: Mapping[str, Any],
    launch: VectorLaunch,
) -> Dict[str, Any]:
    """The launch's kernel arguments by name, once its shape and cost
    model are ones both executors replay: they count lanes, trips and
    chunks in 32-lane warps, and charge as :func:`_exact_costs` says.
    The C fold divides by the issue width, where the reference's
    division by zero raises."""
    if launch.spec.warp_size != 32:
        raise FallbackToReference("warp size other than 32")
    if not _exact_costs(launch.cost):
        raise FallbackToReference("cost model off the replayed charges")
    if not launch.cost.issue_width:
        raise FallbackToReference("cost model with a zero issue width")
    if launch.block_dim < 32 or launch.grid_dim < 1:
        raise FallbackToReference("a launch without warps")
    if not launch.kwargs and len(launch.args) == len(names):
        return dict(zip(names, launch.args))  # every argument positional
    bound: Dict[str, Any] = dict(defaults)
    if len(launch.args) > len(names):
        raise FallbackToReference("unexpected extra positional arguments")
    bound.update(zip(names, launch.args))
    for key, value in launch.kwargs.items():
        if key not in names:
            raise FallbackToReference(f"unexpected keyword {key!r}")
        bound[key] = value
    missing = [n for n in names if n not in bound]
    if missing:
        raise FallbackToReference(f"missing arguments {missing!r}")
    return bound


# ---------------------------------------------------------------------------
# the native library, compiled on first use
# ---------------------------------------------------------------------------

_FLUSH_SOURCE = Path(__file__).with_name("fastsim_flush.c")
#: no -ffast-math and no FMA contraction: the compiler must neither
#: regroup nor fuse the replay's double operations
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_DIGEST = 32  # sha256 of the library, appended to the cached file


#: the last fields of both C contexts (``FOLD_FIELDS`` in the C file):
#: the accumulators, the fold's output and the fold's constants
_FOLD_FIELDS = [
    ("acc", ctypes.c_void_p), ("out", ctypes.c_void_p),
    ("num_sms", ctypes.c_int64), ("issue_width", ctypes.c_double),
    ("per_transaction", ctypes.c_double), ("per_barrier", ctypes.c_double),
]


class _ScanCtx(ctypes.Structure):
    """``scan_ctx`` of ``fastsim_flush.c``, field for field."""

    #: the ``acc`` and ``out`` arrays (see :func:`_point_scratch`)
    scratch: Tuple[np.ndarray, np.ndarray]
    shape = (0, 0)
    #: what the fold's constants were set from (see :func:`_point_scratch`)
    fold_key: Any = None

    _fields_ = [
        ("deg", ctypes.c_void_p), ("dsz", ctypes.c_int64),
        ("buf", ctypes.c_void_p), ("bsz", ctypes.c_int64),
        ("tails", ctypes.c_void_p), ("tsz", ctypes.c_int64),
        ("grid", ctypes.c_int64), ("warps", ctypes.c_int64),
        ("k", ctypes.c_int64), ("nv", ctypes.c_int64),
        ("lo", ctypes.c_int64), ("cap", ctypes.c_int64),
        ("compaction", ctypes.c_int64), *_FOLD_FIELDS,
    ]


class _LoopCtx(ctypes.Structure):
    """``loop_ctx`` of ``fastsim_flush.c``, field for field."""

    #: the CSR data ``offs`` and ``nbrs`` point into
    arrays: Tuple[np.ndarray, np.ndarray]
    #: whether an adjacency slice of that CSR repeats a neighbor
    duplicates: bool
    #: the ``acc`` and ``out`` arrays (see :func:`_point_scratch`)
    scratch: Tuple[np.ndarray, np.ndarray]
    shape = (0, 0)
    #: what the fold's constants were set from (see :func:`_point_scratch`)
    fold_key: Any = None

    _fields_ = [
        ("offs", ctypes.c_void_p), ("osz", ctypes.c_int64),
        ("nbrs", ctypes.c_void_p), ("nsz", ctypes.c_int64),
        ("deg", ctypes.c_void_p), ("dsz", ctypes.c_int64),
        ("buf", ctypes.c_void_p), ("bsz", ctypes.c_int64),
        ("tails", ctypes.c_void_p), ("gpu_count", ctypes.c_void_p),
        ("grid", ctypes.c_int64), ("warps", ctypes.c_int64),
        ("k", ctypes.c_int64), ("cap", ctypes.c_int64),
        ("scap", ctypes.c_int64), ("sm", ctypes.c_int64),
        ("prefetch", ctypes.c_int64), ("no_compaction", ctypes.c_int64),
        ("base", ctypes.c_int64), ("owned", ctypes.c_int64),
        ("lo", ctypes.c_int64), ("hi", ctypes.c_int64),
        ("gll", ctypes.c_double), ("gab", ctypes.c_double),
        ("scan_cost", ctypes.c_double), *_FOLD_FIELDS,
    ]


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


def _sha256(data: bytes) -> bytes:
    # imported here: a process that never replays a launch never loads
    # OpenSSL
    import hashlib

    return hashlib.sha256(data).digest()


def _open_verified(path: Path) -> Optional[ctypes.CDLL]:
    """Load ``path`` only if its digest trailer matches its content.

    A file this module did not finish writing (truncated, foreign, or
    from a crashed build) fails the check and is never ``dlopen``-ed.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    body, digest = data[:-_DIGEST], data[-_DIGEST:]
    if not body or _sha256(body) != digest:
        return None
    return ctypes.CDLL(str(path))


def _build(cc: str, path: Path) -> None:
    """Compile the replay to ``path``: temp file, digest, atomic rename.

    Raises :class:`OSError` when the compiler fails.
    """
    import subprocess  # only here: a cached library needs no compiler

    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, str(_FLUSH_SOURCE)],
                check=True, capture_output=True, timeout=300,
            )
        except subprocess.SubprocessError as exc:
            raise OSError(f"{cc} failed to build {path.name}") from exc
        data = Path(tmp).read_bytes()
        Path(tmp).write_bytes(data + _sha256(data))
        # concurrent builds each rename a complete file into place
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library_path(cache_dir: Path) -> Path:
    """The cached library's name: a hash of the C source, the flags and
    the machine type, so an edited source is rebuilt, never reused."""
    key = _sha256(b"\0".join([
        _FLUSH_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(),
        platform.machine().encode(),
    ])).hex()[:24]
    return cache_dir / f"fastsim-flush-{key}.so"


def _prune(cache_dir: Path, keep: Path) -> None:
    """Delete the cached libraries of other sources, flags or machines.

    Each edit of the C file or of ``_CFLAGS`` names a new library, so
    without this every edit would leave the old one behind for good.
    """
    for stale in cache_dir.glob("fastsim-flush-*.so"):
        if stale != keep:
            with contextlib.suppress(OSError):
                stale.unlink()


def _load_native(cache_dir: Path) -> Optional[ctypes.CDLL]:
    """The compiled replays from ``cache_dir``, building them if needed.

    Returns ``None`` (the reference interpreter serves every launch)
    when no ``cc`` is on ``PATH``, the build fails, or another user
    owns or can write the cache directory.
    """
    try:
        path = _library_path(cache_dir)
        cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = cache_dir.stat()
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # another user could plant a library here
        lib = _open_verified(path)
        if lib is None:
            cc = shutil.which("cc")
            if cc is None:
                return None
            _build(cc, path)
            _prune(cache_dir, path)
            lib = _open_verified(path)
    except OSError:
        return None
    if lib is None:
        return None
    for fn, ctx in ((lib.repro_scan, _ScanCtx), (lib.repro_loop, _LoopCtx)):
        fn.argtypes = [ctypes.POINTER(ctx)]
        fn.restype = ctypes.c_int
    return lib


@functools.cache
def _native_replay() -> Optional[ctypes.CDLL]:
    """The native replays, loaded at the first vectorized launch of the
    process."""
    return _load_native(_cache_dir())


def native_flush_available() -> bool:
    """True when scan and loop launches replay in C, False when the
    reference interpreter serves them.

    The C library replays a whole launch and folds its stats.  Loads
    (and on first use compiles) it; see ``docs/SIMULATOR.md``, "The
    native replays".
    """
    return _native_replay() is not None


def _address(array: DeviceArray) -> Optional[int]:
    """Where the C replay may write ``array`` in place, or ``None``
    when its data are not a writeable contiguous int64 array.

    Cached on ``array`` with the data and dtype it was checked on, so a
    launch on the same data re-checks only that they are writeable."""
    data = array.data
    cached = getattr(array, "_fastsim_addr", None)
    if (
        cached is not None and cached[0] is data and cached[1] is data.dtype
        and data.flags.writeable
    ):
        return cached[2]  # type: ignore[no-any-return]
    if not (
        data.dtype == np.int64 and data.flags.c_contiguous
        and data.flags.writeable
    ):
        return None
    addr = int(data.ctypes.data)
    with contextlib.suppress(AttributeError):
        setattr(array, "_fastsim_addr", (data, data.dtype, addr))
    return addr


def _point_scratch(ctx: Any, launch: VectorLaunch) -> bool:
    """Point ``ctx``'s accumulators and fold output at scratch arrays
    sized for ``launch``, and set the fold's constants.

    The arrays are kept on ``ctx`` (with their addresses) for the next
    launch of the same grid; the C call overwrites both.  The constants
    are set only when the cost model or the SM count differs from the
    last launch's (the model is frozen, so it is the key); returns
    whether they were, so the caller can set its own cost fields.
    """
    grid = launch.grid_dim
    warps = launch.block_dim // 32
    if ctx.shape != (grid, warps):
        ctx.scratch = (
            np.empty(2 * grid * warps + 8 * grid),
            np.empty(_TOTALS + 2 * grid),
        )
        ctx.acc = ctx.scratch[0].ctypes.data
        ctx.out = ctx.scratch[1].ctypes.data
        ctx.grid = grid
        ctx.warps = warps
        ctx.shape = (grid, warps)
    cost = launch.cost
    fold_key = (cost, launch.spec.num_sms)
    if ctx.fold_key != fold_key:
        ctx.num_sms = launch.spec.num_sms
        ctx.issue_width = cost.issue_width
        ctx.per_transaction = cost.mem_transaction_cycles
        ctx.per_barrier = cost.barrier_cycles
        ctx.fold_key = fold_key
        return True
    return False

# ---------------------------------------------------------------------------
# scan kernel: one walk over the degree array in C
# ---------------------------------------------------------------------------

_SCAN_PARAMS = (
    "k", "deg", "buf", "tails", "num_vertices", "capacity", "cfg",
    "vertex_lo",
)


_COMPACTIONS = ("none", "ballot", "block")  # ``scan_ctx.compaction``


def _scan_vectorized(launch: VectorLaunch) -> KernelStats:
    b = _bind(_SCAN_PARAMS, {"vertex_lo": 0}, launch)
    cfg: VariantConfig = b["cfg"]
    if cfg.ring_buffer:
        raise FallbackToReference("ring buffers wrap against a moving head")
    lib = _native_replay()
    if lib is None:
        raise FallbackToReference("no native scan replay")
    deg: DeviceArray = b["deg"]
    buf: DeviceArray = b["buf"]
    tails: DeviceArray = b["tails"]
    addrs = [_address(deg), _address(buf), _address(tails)]
    if None in addrs:
        raise FallbackToReference(
            "device array the C replay cannot write in place"
        )
    ctx = getattr(tails, "_fastsim_scan", None)
    if ctx is None:  # kept on the tails the scan writes
        ctx = _ScanCtx()
        with contextlib.suppress(AttributeError):
            setattr(tails, "_fastsim_scan", ctx)
    _point_scratch(ctx, launch)
    ctx.deg, ctx.buf, ctx.tails = addrs
    ctx.dsz = deg.data.size
    ctx.bsz = buf.data.size
    ctx.tsz = tails.data.size
    ctx.k = int(b["k"])
    ctx.nv = int(b["num_vertices"])
    ctx.lo = int(b["vertex_lo"])
    ctx.cap = int(b["capacity"])
    ctx.compaction = _COMPACTIONS.index(cfg.compaction)
    shared = _StagedShared(launch) if cfg.compaction == "block" else None
    if shared is not None:
        # EC allocates its two staging arrays per block, in block order,
        # before any trip writes (see docs/SIMULATOR.md)
        warps = launch.block_dim // 32
        for blk in range(launch.grid_dim):
            shared.alloc(blk, "warp_counts", warps)
            shared.alloc(blk, "warp_offsets", warps)
    code = lib.repro_scan(ctx)
    if code == 3:
        raise FallbackToReference("scan buffer overflow; reference raises")
    if code == 6:
        raise FallbackToReference("native scan replay out of memory")
    if code:
        raise FallbackToReference("scan replay index out of bounds")
    if shared is not None:
        shared.commit()
    return _kernel_stats(launch, *ctx.scratch)


# ---------------------------------------------------------------------------
# loop kernel: the turn-level replay in C
# ---------------------------------------------------------------------------

_LOOP_PARAMS = (
    "k", "offsets", "neighbors", "deg", "buf", "tails", "gpu_count",
    "capacity", "shared_capacity", "cfg", "own_range",
)


def _scan_cost(compaction: str) -> float:
    """Per-trip instruction cost of the append scheme's warp scan."""
    if compaction == "none":
        return 0.0
    return 3.0 if compaction == "ballot" else 11.0


def _csr_ctx(offsets: DeviceArray, neighbors: DeviceArray) -> _LoopCtx:
    """A ``loop_ctx`` with its CSR part and duplicate-adjacency check
    set, cached per array pair.

    Cached on ``neighbors`` and keyed on the paired ``offsets`` (CSR
    arrays are immutable in every host program here, and the key keeps
    multi-GPU slices apart); the launch fields are set on use.
    """
    cached = getattr(neighbors, "_fastsim_ctx", None)
    key = (id(offsets), offsets.data.size, neighbors.data.size)
    if cached is not None and cached[0] == key:
        return cached[1]  # type: ignore[no-any-return]
    # read-only, so int64 and contiguous copies serve if the data are not
    offs = np.ascontiguousarray(offsets.data, dtype=np.int64)
    nbrs = np.ascontiguousarray(neighbors.data, dtype=np.int64)
    ctx = _LoopCtx(
        offs=offs.ctypes.data, osz=offs.size,
        nbrs=nbrs.ctypes.data, nsz=nbrs.size,
    )
    ctx.arrays = (offs, nbrs)  # keeps the pointers valid
    ctx.duplicates = _adjacency_has_duplicates(offs, nbrs)
    with contextlib.suppress(AttributeError):
        # holding ``offsets`` keeps its id from being reused
        setattr(neighbors, "_fastsim_ctx", (key, ctx, offsets))
    return ctx


def _replay_native(
    lib: ctypes.CDLL, ctx: _LoopCtx, launch: VectorLaunch,
    bound: Dict[str, Any], addrs: List[Optional[int]],
) -> None:
    """The whole launch in one C call, on the device arrays at
    ``addrs`` (``deg``, ``buf``, ``tails``, ``gpu_count``); ``ctx``'s
    scratch then holds the folded stats."""
    cfg: VariantConfig = bound["cfg"]
    own = bound["own_range"]
    lo, hi = own if own is not None else (0, 0)
    if _point_scratch(ctx, launch):
        ctx.gll = launch.cost.global_load_latency
        ctx.gab = launch.cost.global_atomic_base
    ctx.deg, ctx.buf, ctx.tails, ctx.gpu_count = addrs
    ctx.dsz = bound["deg"].data.size
    ctx.bsz = bound["buf"].data.size
    ctx.k = int(bound["k"])
    ctx.cap = int(bound["capacity"])
    ctx.scap = int(bound["shared_capacity"])
    ctx.sm = int(cfg.shared_buffer)
    ctx.prefetch = int(cfg.prefetch)
    ctx.no_compaction = int(cfg.compaction == "none")
    ctx.base = lo
    ctx.owned = int(own is not None)
    ctx.lo = lo
    ctx.hi = hi
    ctx.scan_cost = _scan_cost(cfg.compaction)
    code = lib.repro_loop(ctx)
    if code == 1:
        raise FallbackToReference("loop buffer read overflow")
    if code == 2:
        raise FallbackToReference("frontier vertex outside CSR slice")
    if code == 3:
        raise FallbackToReference("loop buffer overflow; reference raises")
    if code == 5:
        raise FallbackToReference("loop undo log full")
    if code == 6:
        raise FallbackToReference("native loop replay out of memory")
    if code:
        raise FallbackToReference("loop replay index out of bounds")


def _loop_vectorized(launch: VectorLaunch) -> KernelStats:
    bound = _bind(_LOOP_PARAMS, {"own_range": None}, launch)
    cfg: VariantConfig = bound["cfg"]
    if cfg.ring_buffer:
        raise FallbackToReference("ring buffers wrap against a moving head")
    if cfg.virtual_warps > 1:
        raise FallbackToReference("virtual warping is not vectorized")
    if cfg.prefetch and cfg.shared_buffer:
        raise FallbackToReference("prefetch+shared-buffer combination")
    lib = _native_replay()
    if lib is None:
        raise FallbackToReference("no native loop replay")
    ctx = _csr_ctx(bound["offsets"], bound["neighbors"])
    if ctx.duplicates:
        raise FallbackToReference(
            "duplicate in-adjacency neighbors can trigger the restore path"
        )
    grid = launch.grid_dim
    warps = launch.block_dim // 32
    if bound["tails"].data.size < grid or bound["gpu_count"].data.size < 1:
        raise FallbackToReference("loop replay index out of bounds")
    addrs = [
        _address(bound[name]) for name in ("deg", "buf", "tails", "gpu_count")
    ]
    if None in addrs:
        raise FallbackToReference(
            "device array the C replay cannot write in place"
        )
    shared = None  # only SM and VP stage shared memory in the loop
    if cfg.shared_buffer or cfg.prefetch:
        shared = _StagedShared(launch)
        for blk in range(grid):  # the reference's allocation order
            if cfg.shared_buffer:
                shared.alloc(blk, "B", int(bound["shared_capacity"]))
            if cfg.prefetch:
                shared.alloc(blk, "pref0", warps)
                shared.alloc(blk, "pref1", warps)
    _replay_native(lib, ctx, launch, bound, addrs)
    if shared is not None:
        shared.commit()
    return _kernel_stats(launch, *ctx.scratch)


def register() -> None:
    """Register the executors (idempotent; runs at import)."""
    register_vectorized_kernel(scan_kernel, _scan_vectorized)
    register_vectorized_kernel(loop_kernel, _loop_vectorized)


register()
