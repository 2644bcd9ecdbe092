"""Launch-level vectorized executors for the peeling kernels.

This module is the ``vectorized`` engine's fast path (see
:mod:`repro.gpusim.engine` and ``docs/SIMULATOR.md``).  Instead of
stepping one generator per warp through the reference scheduler, each
executor computes a whole launch — every device-memory side effect and
every cost-model tally — in one pass (a walk over the hit list for the
scan, a turn-level replay for the loop), then returns the same
:class:`~repro.gpusim.scheduler.KernelStats` the reference interpreter
would have produced, byte for byte.

How exactness is preserved
--------------------------

*Scan* (:func:`~repro.core.scan_kernel.scan_kernel`) has no
cross-block state: each block's buffer content is its warps' hits
ordered by ``(trip, warp, lane)``, which is ascending vertex id, and
every per-trip cost is a function of the trip's lane and hit counts
alone.  The hit-independent charges are cached per launch shape; each
launch walks its ascending hit list once, one 32-vertex chunk (one
trip) at a time.

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

The loop replay is C (``fastsim_flush.c``), built once into a per-user
cache with the system ``cc`` and loaded with :mod:`ctypes` at the
first loop launch of a process; a launch is one call into it.  Where
the library does not load, loop launches decline and the reference
interpreter serves them, which is the fallback the tests pin the C
replay against.  Both executors charge the shared-memory costs at the
default cost model's values and fold the global-load latency and the
global atomic's base charge in bulk, so a launch whose cost model
differs there, or puts those two off the quarter-integer grid where
every sum is exact, declines too (see :func:`_bind`).

Fallback discipline
-------------------

An executor declines a launch by raising
:class:`~repro.gpusim.engine.FallbackToReference`, leaving no trace —
the engine then re-runs the launch on the reference interpreter.
Both executors write the device arrays in place.  The scan declines
only before its first write (warp size, ring buffer, argument
binding, the overflow check after the walk).  The loop can decline
mid-replay, so the C replay logs what it overwrites — the degree ids
it decremented, each block's global buffer slots (contiguous from the
block's ``e_init``), its ``gpu_count`` adds — and a decline undoes
them; the log is bounded, and a full log declines.  Shared-memory
allocations are staged in both executors.  Declined launches: warp
sizes other than 32 (lanes, trips and scan chunks are counted in
32-lane warps), cost models off the replays' charges, ring-buffer
variants (wraparound head/tail semantics), virtual warping
(``vw > 1``), duplicate in-adjacency neighbors, predicted buffer
overflow (the reference run raises
:class:`~repro.errors.BufferOverflowError` at the exact offending
write or read, with the exact partial state), tails, CSR rows or
neighbor ids outside their arrays (the reference's numpy indexing
raises or wraps; the C replay never reads or writes out of bounds),
device arrays the C replay cannot write in place, and every loop
launch when its library does not load.  Shared-memory exhaustion is
*not* a fallback: the staged allocations are made before the replay
in :meth:`~repro.gpusim.context.BlockState.alloc_shared` order, fire
the same memtracker callbacks, and raise the same
:class:`~repro.errors.SharedMemoryExhaustedError`.

The executors assume the CSR arrays (``offsets``/``neighbors``) are
immutable for the lifetime of the :class:`~repro.gpusim.memory.DeviceArray`
objects — true for every host program in this repository — so the
duplicate-neighbor pre-check and the native replay's CSR context can
be cached per array pair.
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
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

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
from repro.gpusim.vectorized import kernel_cycles

__all__ = ["native_flush_available", "register"]


# ---------------------------------------------------------------------------
# shared accounting
# ---------------------------------------------------------------------------


class _Accounting:
    """Per-warp issue/path and per-block metric accumulators.

    Mirrors what :class:`~repro.gpusim.context.WarpContext` and
    :class:`~repro.gpusim.costmodel.BlockTiming` accumulate, all in one
    array, ``values`` (the native replay's ``acc``): ``issued`` and
    ``path`` per warp, then per block ``mem_transactions``,
    ``mem_accesses``, ``mem_active_lanes``, ``mem_ideal_transactions``,
    ``atomic_cycles``, ``atomic_conflicts``, ``buffer_peak`` and
    ``barriers``.
    """

    def __init__(
        self, grid: int, warps: int, values: Optional[np.ndarray] = None
    ) -> None:
        self.grid = grid
        self.warps = warps
        self.values = (
            np.zeros(2 * grid * warps + 8 * grid) if values is None
            else values
        )

    def finish(self, launch: VectorLaunch) -> KernelStats:
        """The launch's stats, folded as ``run_kernel``'s epilogue.

        The same double operations as the reference's fold over its
        :class:`BlockTiming` records, in block order, on the
        accumulators; the records themselves are built only for a
        profiler (``collect_timings``).
        """
        grid = self.grid
        w = self.warps
        n = grid * w
        values = self.values.tolist()
        issued = [sum(values[b * w : b * w + w]) for b in range(grid)]
        paths = [max(values[n + b * w : n + b * w + w]) for b in range(grid)]
        trans, accesses, lanes, ideal, atomic, conflicts, peak, barriers = [
            values[i : i + grid] for i in range(2 * n, 2 * n + 8 * grid, grid)
        ]
        timings = None
        if launch.collect_timings:
            timings = tuple(
                BlockTiming(
                    issued=issued[b], mem_transactions=trans[b],
                    max_warp_path=paths[b], barriers=int(barriers[b]),
                    atomic_conflicts=conflicts[b], buffer_peak=peak[b],
                    atomic_cycles=atomic[b], mem_accesses=accesses[b],
                    mem_active_lanes=lanes[b],
                    mem_ideal_transactions=ideal[b],
                )
                for b in range(grid)
            )
        return KernelStats(
            cycles=kernel_cycles(
                launch.cost, issued, trans, paths, barriers,
                launch.spec.num_sms,
            ),
            issued=sum(issued),
            mem_transactions=sum(trans),
            barriers=int(sum(barriers)),
            max_warp_path=max(paths, default=0.0),
            atomic_conflicts=sum(conflicts),
            buffer_peak=max(peak, default=0.0),
            atomic_cycles=sum(atomic),
            mem_accesses=sum(accesses),
            mem_active_lanes=sum(lanes),
            mem_ideal_transactions=sum(ideal),
            block_timings=timings,
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


def _adjacency_has_duplicates(
    offsets: DeviceArray, neighbors: DeviceArray
) -> bool:
    """True when any vertex's adjacency slice repeats a neighbor.

    Cached on the ``neighbors`` array (CSR arrays are immutable in
    every host program here); the cache key ties it to the paired
    ``offsets`` array so multi-GPU slices don't collide.
    """
    key = (id(offsets), offsets.data.size, neighbors.data.size)
    cached = getattr(neighbors, "_fastsim_dup", None)
    if cached is not None and cached[0] == key:
        return bool(cached[1])
    offs = offsets.data
    nbrs = neighbors.data
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
    try:
        setattr(neighbors, "_fastsim_dup", (key, dup))
    except Exception:  # frozen/slots array: just skip the cache
        pass
    return dup


def _exact_costs(cost: CostModel) -> bool:
    """Whether both executors' charges are ``cost``'s, bit for bit.

    They charge shared accesses and shared atomics at the default
    model's 1, 2 and 0.25 cycles, and fold the global-load latency and
    the global atomic's base charge in bulk (``1 + latency`` per load,
    say, where the reference adds 1, then the latency); that fold is
    exact only for quarter-integers small enough that every sum of
    them is exact.
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
    chunks in 32-lane warps, and charge as :func:`_exact_costs` says."""
    if launch.spec.warp_size != 32:
        raise FallbackToReference("warp size other than 32")
    if not _exact_costs(launch.cost):
        raise FallbackToReference("cost model off the replayed charges")
    if launch.block_dim < 32:
        raise FallbackToReference("blocks without a warp")
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
# scan kernel: one walk over the hits
# ---------------------------------------------------------------------------

_SCAN_PARAMS = (
    "k", "deg", "buf", "tails", "num_vertices", "capacity", "cfg",
    "vertex_lo",
)


class _ScanSkeleton:
    """Hit-independent charges of one scan launch shape.

    A decomposition launches the scan kernel once per peel round with
    the same grid and vertex range — only ``k`` and the degree array
    change.  Everything that does not depend on *which* vertices hit
    (the per-trip base charges, the prologue/epilogue/barrier totals)
    is computed once here, per warp and per block, and reused, leaving
    each launch only the walk over its hits.  ``values0`` holds them
    in ``_Accounting.values`` layout.
    """

    __slots__ = ("values0",)

    def __init__(
        self, compaction: str, grid: int, warps: int, nv: int,
        vertex_lo: int, stride: int,
    ) -> None:
        gw = grid * warps
        gwids = np.arange(gw, dtype=np.int64)
        base = vertex_lo + gwids * 32
        if compaction == "block":
            # every warp makes the same trip count (barriers must line up)
            span = max(0, nv - vertex_lo)
            trips_per_warp = np.full(
                gw, max(1, -(-span // stride)), dtype=np.int64
            )
        else:
            trips_per_warp = np.maximum(0, -(-(nv - base) // stride))
        # trip enumeration: warp, block and first vertex of every trip
        trip_warp = np.repeat(gwids, trips_per_warp)
        trip_block = trip_warp // warps
        trip_t = np.arange(trip_warp.size, dtype=np.int64) - np.repeat(
            np.cumsum(trips_per_warp) - trips_per_warp, trips_per_warp
        )
        trip_first = base[trip_warp] + trip_t * stride
        trip_lanes = np.clip(nv - trip_first, 0, 32)
        has_lanes = trip_lanes > 0

        # _hit_flags charge(4) + coalesced degree read & hit-mask
        # charge(2) when lanes are in range; issued == path for every
        # base term, so one fold serves both
        t_base = 4.0 + np.where(has_lanes, 2.0, 0.0)
        if compaction == "ballot":
            t_base += 3.0  # ballot + popc + lane-mask charge, every trip
        elif compaction == "block":
            t_base += 12.0  # Hillis-Steele compaction + sstore(counts)
        warp_base = np.bincount(trip_warp, weights=t_base, minlength=gw)
        issued0 = warp_base
        path0 = warp_base.copy()
        deg_trans = np.where(
            has_lanes,
            (trip_first + trip_lanes - 1) // 32 - trip_first // 32 + 1,
            0,
        ).astype(np.float64)
        hl = has_lanes.astype(np.float64)
        trans0 = np.bincount(
            trip_block, weights=deg_trans, minlength=grid
        ) + 1.0  # + tails store
        acc0 = np.bincount(trip_block, weights=hl, minlength=grid) + 1.0
        lanes0 = np.bincount(
            trip_block, weights=trip_lanes.astype(np.float64), minlength=grid
        ) + 1.0
        ideal0 = acc0.copy()
        atomic0 = np.zeros(grid)
        barriers0 = np.full(grid, 2, dtype=np.int64)  # Line 2 + final
        w0 = np.arange(grid, dtype=np.int64) * warps
        if compaction == "block":
            # Warp 0 stages 2-3, every trip: sload(counts) + 2*log2(W)+2
            # scan charge + atomicAdd(e, total, lanes=1) + sstore(woffs)
            steps = max(1, int(np.log2(max(2, warps))))
            trips0 = trips_per_warp[w0]
            issued0[w0] += (1.0 + (2 * steps + 2) + 1.0 + 1.0) * trips0
            path0[w0] += (1.0 + (2 * steps + 2) + 2.0 + 1.0) * trips0
            atomic0 += 2.0 * trips0
            barriers0 += 3 * trips0  # three __syncthreads per trip
        # prologue smem_set("e", 0) + epilogue smem_get("e") + gstore
        issued0[w0] += 3.0
        path0[w0] += 3.0
        self.values0 = np.concatenate((
            issued0, path0, trans0, acc0, lanes0, ideal0, atomic0,
            np.zeros(2 * grid), barriers0,  # conflicts, peak: none yet
        ))


_SCAN_SKELETONS: Dict[Tuple[Any, ...], _ScanSkeleton] = {}


def _scan_skeleton(
    compaction: str, grid: int, warps: int, nv: int, vertex_lo: int,
    stride: int,
) -> _ScanSkeleton:
    key = (compaction, grid, warps, nv, vertex_lo, stride)
    skel = _SCAN_SKELETONS.get(key)
    if skel is None:
        if len(_SCAN_SKELETONS) >= 32:
            _SCAN_SKELETONS.clear()
        skel = _ScanSkeleton(compaction, grid, warps, nv, vertex_lo, stride)
        _SCAN_SKELETONS[key] = skel
    return skel


def _scan_vectorized(launch: VectorLaunch) -> KernelStats:
    b = _bind(_SCAN_PARAMS, {"vertex_lo": 0}, launch)
    cfg: VariantConfig = b["cfg"]
    if cfg.ring_buffer:
        raise FallbackToReference("ring buffers wrap against a moving head")
    k = int(b["k"])
    deg: DeviceArray = b["deg"]
    buf: DeviceArray = b["buf"]
    tails: DeviceArray = b["tails"]
    nv = int(b["num_vertices"])
    capacity = int(b["capacity"])
    vertex_lo = int(b["vertex_lo"])

    grid = launch.grid_dim
    warps = launch.block_dim // 32
    gw = grid * warps
    stride = launch.grid_dim * launch.block_dim
    skel = _scan_skeleton(cfg.compaction, grid, warps, nv, vertex_lo, stride)
    # the precomputed hit-independent charges
    acc = _Accounting(grid, warps, skel.values0.copy())
    shared = _StagedShared(launch)
    if cfg.compaction == "block":
        # EC allocates its two staging arrays per block, in block order,
        # before any trip writes (see docs/SIMULATOR.md)
        for blk in range(grid):
            shared.alloc(blk, "warp_counts", warps)
            shared.alloc(blk, "warp_offsets", warps)

    # -- the hit walk ---------------------------------------------------
    # A trip covers exactly one 32-vertex chunk (stride == gw * 32), and
    # the append order within a block — (trip, warp) ascending — is
    # ascending chunk, i.e. ascending vertex id.  So grouping the
    # (already ascending) hit list by chunk walks trips in append order:
    # buffer slots are contiguous per block and the peak is the final
    # tail.  All charges are quarter-integers summed in Python floats —
    # exact, so folding them in bulk is bit-identical to the
    # reference's per-trip charges.
    hits = (
        np.flatnonzero(deg.data[vertex_lo:nv] == k).tolist()
        if nv > vertex_lo else []
    )
    ti = [0.0] * gw
    tp = [0.0] * gw
    at_cyc = [0.0] * grid
    at_con = [0.0] * grid
    m_tr = [0.0] * grid
    m_acc = [0.0] * grid
    m_lan = [0.0] * grid
    pos = [0] * grid
    content: List[List[int]] = [[] for _ in range(grid)]
    comp = cfg.compaction
    i = 0
    n = len(hits)
    while i < n:
        chunk = hits[i] >> 5
        j = i + 1
        while j < n and hits[j] >> 5 == chunk:
            j += 1
        h = j - i
        wg = chunk % gw
        bidx = wg // warps
        if comp == "none":
            # atomicAdd(e, h): h serialised lanes + buffered gstore
            ti[wg] += 2.0
            sa = 2.0 + 0.25 * (h - 1)
            tp[wg] += sa + 1.0
            at_cyc[bidx] += sa
            at_con[bidx] += h - 1
        elif comp == "ballot":
            ti[wg] += 4.0  # atomic + shfl + charge(1) + gstore
            tp[wg] += 5.0
            at_cyc[bidx] += 2.0
        else:  # block (EC): sload(woffs) + gstore
            ti[wg] += 2.0
            tp[wg] += 2.0
        a0 = bidx * capacity + pos[bidx]
        m_tr[bidx] += (a0 + h - 1) // 32 - a0 // 32 + 1
        m_acc[bidx] += 1.0
        m_lan[bidx] += h
        pos[bidx] += h
        if vertex_lo:
            content[bidx].extend(v + vertex_lo for v in hits[i:j])
        else:
            content[bidx].extend(hits[i:j])
        i = j
    if max(pos, default=0) > capacity:
        raise FallbackToReference("scan buffer overflow; reference raises")
    # the walk's sums, row by row in ``_Accounting.values`` layout;
    # each block's peak is its final tail
    sums = ti + tp + m_tr + m_acc + m_lan + m_acc + at_cyc + at_con
    acc.values[: len(sums)] += np.asarray(sums)
    acc.values[len(sums) : len(sums) + grid] = pos  # the buffer_peak row
    # that was the last decline: the launch completes from here, so it
    # writes the device arrays in place
    for bidx, vs in enumerate(content):
        if vs:
            buf.data[bidx * capacity : bidx * capacity + len(vs)] = vs
    tails.data[:grid] = pos
    stats = acc.finish(launch)
    shared.commit()
    return stats


# ---------------------------------------------------------------------------
# loop kernel: the turn-level replay in C, compiled on first use
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


_FLUSH_SOURCE = Path(__file__).with_name("fastsim_flush.c")
#: no -ffast-math and no FMA contraction: the compiler must neither
#: regroup nor fuse the replay's double operations
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_DIGEST = 32  # sha256 of the library, appended to the cached file


class _LoopCtx(ctypes.Structure):
    """``loop_ctx`` of ``fastsim_flush.c``, field for field."""

    #: the CSR data ``offs`` and ``nbrs`` point into
    arrays: Tuple[np.ndarray, np.ndarray]

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
        ("scan_cost", ctypes.c_double), ("acc", ctypes.c_void_p),
    ]


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


def _sha256(data: bytes) -> bytes:
    # imported here: a process that never replays a loop never loads
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


def _load_native(cache_dir: Path) -> Optional[Callable[..., int]]:
    """The compiled replay from ``cache_dir``, building it if needed.

    Returns ``None`` (the reference interpreter serves loop launches)
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
    fn = lib.repro_loop
    fn.argtypes = [ctypes.POINTER(_LoopCtx)]
    fn.restype = ctypes.c_int
    return fn


@functools.cache
def _native_replay() -> Optional[Callable[..., int]]:
    """The native replay, loaded at the first loop launch of the process."""
    return _load_native(_cache_dir())


def native_flush_available() -> bool:
    """True when loop launches replay in C, False when the reference
    interpreter serves them.

    The C library replays a whole loop launch, its flushes included.
    Loads (and on first use compiles) it; see ``docs/SIMULATOR.md``,
    "The native loop replay".
    """
    return _native_replay() is not None


def _csr_ctx(offsets: DeviceArray, neighbors: DeviceArray) -> _LoopCtx:
    """A ``loop_ctx`` with its CSR part set, cached per array pair.

    Cached like the duplicate-adjacency check, on ``neighbors`` and
    keyed on the paired ``offsets`` (CSR arrays are immutable in every
    host program here); the launch fields are set on every use.
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
    with contextlib.suppress(AttributeError):
        # holding ``offsets`` keeps its id from being reused
        setattr(neighbors, "_fastsim_ctx", (key, ctx, offsets))
    return ctx


def _address(array: DeviceArray) -> Optional[int]:
    """Where the C replay may write ``array`` in place, or ``None``
    when its data are not a writeable contiguous int64 array."""
    data = array.data
    if not (
        data.dtype == np.int64 and data.flags.c_contiguous
        and data.flags.writeable
    ):
        return None
    cached = getattr(array, "_fastsim_addr", None)
    if cached is not None and cached[0] is data:
        return cached[1]  # type: ignore[no-any-return]
    addr = int(data.ctypes.data)
    with contextlib.suppress(AttributeError):
        setattr(array, "_fastsim_addr", (data, addr))
    return addr


def _replay_native(
    fn: Callable[..., int], launch: VectorLaunch, bound: Dict[str, Any],
    addrs: List[Optional[int]], acc: _Accounting,
) -> None:
    """The whole launch in one C call, on the device arrays at
    ``addrs`` (``deg``, ``buf``, ``tails``, ``gpu_count``)."""
    cfg: VariantConfig = bound["cfg"]
    own = bound["own_range"]
    lo, hi = own if own is not None else (0, 0)
    cost = launch.cost
    ctx = _csr_ctx(bound["offsets"], bound["neighbors"])
    ctx.deg, ctx.buf, ctx.tails, ctx.gpu_count = addrs
    ctx.dsz = bound["deg"].data.size
    ctx.bsz = bound["buf"].data.size
    ctx.grid = launch.grid_dim
    ctx.warps = launch.block_dim // 32
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
    ctx.gll = cost.global_load_latency
    ctx.gab = cost.global_atomic_base
    ctx.scan_cost = _scan_cost(cfg.compaction)
    ctx.acc = acc.values.ctypes.data
    code = fn(ctx)
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
    if _adjacency_has_duplicates(bound["offsets"], bound["neighbors"]):
        raise FallbackToReference(
            "duplicate in-adjacency neighbors can trigger the restore path"
        )
    grid = launch.grid_dim
    warps = launch.block_dim // 32
    if bound["tails"].data.size < grid or bound["gpu_count"].data.size < 1:
        raise FallbackToReference("loop replay index out of bounds")
    fn = _native_replay()
    if fn is None:
        raise FallbackToReference("no native loop replay")
    addrs = [
        _address(bound[name]) for name in ("deg", "buf", "tails", "gpu_count")
    ]
    if None in addrs:
        raise FallbackToReference(
            "device array the C replay cannot write in place"
        )
    shared = _StagedShared(launch)
    for blk in range(grid):  # the reference's allocation order
        if cfg.shared_buffer:
            shared.alloc(blk, "B", int(bound["shared_capacity"]))
        if cfg.prefetch:
            shared.alloc(blk, "pref0", warps)
            shared.alloc(blk, "pref1", warps)
    acc = _Accounting(grid, warps)
    _replay_native(fn, launch, bound, addrs, acc)
    stats = acc.finish(launch)
    shared.commit()
    return stats


def register() -> None:
    """Register the executors (idempotent; runs at import)."""
    register_vectorized_kernel(scan_kernel, _scan_vectorized)
    register_vectorized_kernel(loop_kernel, _loop_vectorized)


register()
