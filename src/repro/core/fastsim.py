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

The loop replay has two implementations with one behaviour: the
Python replay (``_loop_init_turn``, ``_replay_drain`` or
``_replay_prefetched``, ``_flush``, ``_final_turn``), and its
line-for-line C translation ``fastsim_flush.c``, built once into a
per-user cache with the system ``cc`` and loaded with :mod:`ctypes`
at the first loop launch of a process.  The C replay serves a whole
launch in one call whenever its library loads; the Python one serves
otherwise and is the reference the tests pin the C replay against.
Both do the same double operations in the same order (init-turn
charges, per-flush sums folded at each flush, final-turn charges at
their HEAD turn, per-turn phase counts last; no ``-ffast-math``, no
FMA contraction), so their accumulators are bit-identical under any
cost model.

Fallback discipline
-------------------

An executor declines a launch by raising
:class:`~repro.gpusim.engine.FallbackToReference`, leaving no trace —
the engine then re-runs the launch on the reference interpreter.
Both executors write the device arrays in place.  The scan declines
only before its first write (warp size, ring buffer, argument
binding, the overflow check after the walk).  The loop can decline
mid-replay, so it logs what it overwrites — the degree ids it
decremented, each block's global buffer slots (contiguous from the
block's ``e_init``), its ``gpu_count`` adds — and a decline undoes
them; the log is bounded, and a full log declines.  The Python replay
keeps its degrees in a list and writes the decrements to ``deg`` once
the launch completes.  Shared-memory blocks are staged in both
executors.  Declined launches: warp sizes other than 32 (lanes,
trips and scan chunks are counted in 32-lane warps), ring-buffer
variants (wraparound head/tail semantics), virtual warping
(``vw > 1``), duplicate in-adjacency neighbors, predicted buffer
overflow (the reference run raises
:class:`~repro.errors.BufferOverflowError` at the exact offending
write or read, with the exact partial state), and tails, CSR rows or
neighbor ids outside their arrays (the reference's numpy indexing
raises or wraps; the C replay never reads or writes out of bounds).
Shared-memory exhaustion is *not* a fallback: the staged allocations
are made before the replay in
:meth:`~repro.gpusim.context.BlockState.alloc_shared` order, fire the
same memtracker callbacks, and raise the same
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
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.core.variants import VariantConfig
from repro.errors import SharedMemoryExhaustedError
from repro.gpusim.costmodel import BlockTiming
from repro.gpusim.engine import (
    FallbackToReference,
    VectorLaunch,
    register_vectorized_kernel,
)
from repro.gpusim.memory import DeviceArray
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.vectorized import contiguous_transactions, kernel_cycles

__all__ = ["native_flush_available", "register"]


# ---------------------------------------------------------------------------
# shared accounting
# ---------------------------------------------------------------------------


#: the per-block rows of ``_Accounting.values``, in order
_BLOCK_ROWS = (
    "mem_transactions", "mem_accesses", "mem_active_lanes",
    "mem_ideal_transactions", "atomic_cycles", "atomic_conflicts",
    "buffer_peak", "barriers",
)


class _Accounting:
    """Per-warp issue/path and per-block metric accumulators.

    Mirrors what :class:`~repro.gpusim.context.WarpContext` and
    :class:`~repro.gpusim.costmodel.BlockTiming` accumulate; every
    increment is an integer or quarter-integer, so sums are exact and
    order-independent (see :mod:`repro.gpusim.vectorized`).  All of it
    lives in one array, ``values`` (the native replay's ``acc``):
    ``issued`` and ``path`` per warp, then the ``_BLOCK_ROWS`` per
    block.  Each is also an attribute of that name, a view made on
    first use.
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

    def __getattr__(self, name: str) -> np.ndarray:
        n = self.grid * self.warps
        if name == "issued":
            view = self.values[:n]
        elif name == "path":
            view = self.values[n : 2 * n]
        elif name in _BLOCK_ROWS:
            first = 2 * n + _BLOCK_ROWS.index(name) * self.grid
            view = self.values[first : first + self.grid]
        else:
            raise AttributeError(name)
        setattr(self, name, view)
        return view

    def warp_op(self, gwid: int, issued: float, path: float) -> None:
        self.issued[gwid] += issued
        self.path[gwid] += path

    def note_access(
        self, block: int, transactions: int, lanes: int
    ) -> None:
        """One warp global access: mirror ``_note_global_access``."""
        self.mem_transactions[block] += transactions
        self.mem_accesses[block] += max(1, -(-lanes // 32))
        self.mem_active_lanes[block] += lanes
        self.mem_ideal_transactions[block] += -(-lanes // 32)

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

    Allocations are recorded in order; memtracker callbacks fire only
    at :meth:`commit` (end of launch, or just before re-raising
    :class:`~repro.errors.SharedMemoryExhaustedError`), so a launch
    that falls back to the reference interpreter leaves no trace.
    """

    def __init__(self, launch: VectorLaunch) -> None:
        self._spec = launch.spec
        self._memtracker = launch.memtracker
        self.arrays: List[Dict[str, np.ndarray]] = [
            {} for _ in range(launch.grid_dim)
        ]
        self._bytes = [0] * launch.grid_dim
        self._log: List[Tuple[int, str, int]] = []

    def alloc(self, block: int, name: str, size: int) -> np.ndarray:
        arrays = self.arrays[block]
        if name in arrays:
            return arrays[name]
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
        array = np.zeros(size, dtype=np.int64)
        arrays[name] = array
        return array

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


def _bind(
    names: Tuple[str, ...],
    defaults: Mapping[str, Any],
    launch: VectorLaunch,
) -> Dict[str, Any]:
    """The launch's kernel arguments by name, once its shape is one
    both executors replay: they count lanes, trips and chunks in
    32-lane warps."""
    if launch.spec.warp_size != 32:
        raise FallbackToReference("warp size other than 32")
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
    acc.buffer_peak[:] = pos
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
# loop kernel: exact turn-level replay with batched event flushes
# ---------------------------------------------------------------------------

_LOOP_PARAMS = (
    "k", "offsets", "neighbors", "deg", "buf", "tails", "gpu_count",
    "capacity", "shared_capacity", "cfg", "own_range",
)

class _LoopBlock:
    """Per-block replay state (the kernel's shared scalars)."""

    __slots__ = (
        "idx", "s", "e", "e_init", "pn_cur", "pn_next", "parity",
        "head_s", "head_e", "head_pn", "pending", "pref",
    )

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.s = 0
        self.e = 0
        self.e_init = 0
        self.pn_cur = 0
        self.pn_next = 0
        self.parity = 0
        self.head_s = 0
        self.head_e = 0
        self.head_pn = 0
        self.pending = 0
        self.pref: Tuple[np.ndarray, np.ndarray] | None = None


class _LoopRun:
    """One loop-kernel launch replayed in Python; owns the events.

    ``buf`` and ``gpu_count`` are written in place, and each write is
    logged (``buf_undo``, ``gpu_added``) so that :meth:`undo` takes a
    declined launch back.  Degrees are read and written through a
    Python list built at the first flush (scalar speed); its
    decrements, listed in ``deg_dirty``, reach ``deg`` in
    :meth:`write_degrees`, once the launch can no longer decline.
    """

    def __init__(
        self, launch: VectorLaunch, bound: Dict[str, Any],
        acc: _Accounting, shared: _StagedShared,
    ) -> None:
        self.launch = launch
        self.cfg: VariantConfig = bound["cfg"]
        self.k = int(bound["k"])
        self.offsets: DeviceArray = bound["offsets"]
        self.neighbors: DeviceArray = bound["neighbors"]
        self.deg: DeviceArray = bound["deg"]
        self.buf: DeviceArray = bound["buf"]
        self.tails: DeviceArray = bound["tails"]
        self.gpu_count: DeviceArray = bound["gpu_count"]
        self.capacity = int(bound["capacity"])
        self.shared_capacity = int(bound["shared_capacity"])
        self.own_range: Optional[Tuple[int, int]] = bound["own_range"]
        self.base = self.own_range[0] if self.own_range is not None else 0
        self.grid = launch.grid_dim
        self.warps = launch.block_dim // 32
        self.acc = acc
        self.shared = shared.arrays
        self.deg_list: Optional[List[int]] = None
        self.deg_dirty: List[int] = []
        self.buf_undo: List[Tuple[int, np.ndarray]] = []
        self.gpu_added = 0
        self.blocks = [_LoopBlock(i) for i in range(self.grid)]
        if self.cfg.prefetch:
            for blk in self.blocks:
                arrays = self.shared[blk.idx]
                blk.pref = (arrays["pref0"], arrays["pref1"])
        # pending events, in emission order
        self.ev_block: List[int] = []
        self.ev_gwid: List[int] = []
        self.ev_slot: List[int] = []  # -1 for value events (VP)
        self.ev_value: List[int] = []

    def flush(self) -> None:
        if not self.ev_block:
            return
        _flush(self)
        self.ev_block.clear()
        self.ev_gwid.clear()
        self.ev_slot.clear()
        self.ev_value.clear()
        for block in self.blocks:
            block.pending = 0

    def undo(self) -> None:
        """Take back every logged write, newest first."""
        buf = self.buf.data
        for start, old in reversed(self.buf_undo):
            buf[start : start + old.size] = old
        self.gpu_count.data[0] -= self.gpu_added

    def write_degrees(self) -> None:
        dirty = self.deg_dirty
        if dirty:
            deg = self.deg_list
            assert deg is not None
            self.deg.data[dirty] = [deg[x] for x in dirty]


def _scalar_list(array: DeviceArray, attr: str) -> List[int]:
    """A device array as a cached Python list (scalar-read speed).

    Only used for the CSR arrays, which no kernel writes; the cache is
    keyed on size like the duplicate-adjacency cache.
    """
    key = array.data.size
    cached = getattr(array, attr, None)
    if cached is not None and cached[0] == key:
        return cached[1]  # type: ignore[no-any-return]
    lst: List[int] = array.data.tolist()
    try:
        setattr(array, attr, (key, lst))
    except AttributeError:
        pass
    return lst


def _flush(run: _LoopRun) -> None:
    """Replay all pending events in emission order, one by one.

    One event is one warp's full adjacency sweep of one frontier
    vertex (Alg. 3 Lines 12-24), replayed the way the reference
    interpreter runs it: buffer read, bounds load, then trip by trip,
    serialising the atomics in lane order.  Assumes the launch-level
    no-duplicate-adjacency guard: within one trip every touched vertex
    is distinct, so the pre-trip degree is the value each lane's
    atomic observes.  Charges are the same dyadic rationals the
    interpreter adds, accumulated in Python scalars and folded into
    the accounting arrays in one vector step per metric, so the sums
    match bit for bit.  A fallback raised mid-batch is safe: the
    caller undoes the launch's logged writes.  This is the reference
    for the C replay (``fastsim_flush.c``), which declines on exactly
    the same events with the same messages.
    """
    acc = run.acc
    cost = run.launch.cost
    gll = cost.global_load_latency
    gab = cost.global_atomic_base
    k = run.k
    grid = run.grid
    nwarps = grid * run.warps
    cap = run.capacity
    cfg = run.cfg
    sm = cfg.shared_buffer
    scap = run.shared_capacity if sm else 0
    effective = cap + scap
    compaction = cfg.compaction
    scan_cost = _scan_cost(compaction)
    offs = _scalar_list(run.offsets, "_fastsim_offs")
    osz = len(offs)
    nbrs = _scalar_list(run.neighbors, "_fastsim_nbrs")
    nsz = len(nbrs)
    if run.deg_list is None:
        run.deg_list = run.deg.data.tolist()
    deg = run.deg_list
    dsz = len(deg)
    dirty = run.deg_dirty
    buf = run.buf.data
    bsz = buf.size
    undo = run.buf_undo
    shared = run.shared
    base = run.base
    own = run.own_range
    lo, hi = own if own is not None else (0, 0)
    wi = [0.0] * nwarps  # issued
    wp = [0.0] * nwarps  # path
    bt = [0.0] * grid  # mem_transactions
    ba = [0.0] * grid  # mem_accesses
    bl = [0.0] * grid  # mem_active_lanes
    bi = [0.0] * grid  # mem_ideal_transactions
    bat = [0.0] * grid  # atomic_cycles
    bcf = [0.0] * grid  # atomic_conflicts
    bpk = [0.0] * grid  # buffer_peak (running max)
    for b, g, slot, v in zip(
        run.ev_block, run.ev_gwid, run.ev_slot, run.ev_value
    ):
        blk = run.blocks[b]
        # -- the buffer read (value events carry their vertex) ---------
        if slot >= 0:
            if sm:
                wi[g] += 5.0  # smem_get(e_init) + charge(4)
                wp[g] += 5.0
                e_init = blk.e_init
                if e_init <= slot < e_init + scap:
                    wi[g] += 1.0  # sload
                    wp[g] += 1.0
                    v = int(shared[b]["B"][slot - e_init])
                    slot = -1
                elif slot >= e_init:
                    slot -= scap  # Fig. 7: global slots above the window
            if slot >= cap:
                raise FallbackToReference("loop buffer read overflow")
            if slot >= 0:
                wi[g] += 1.0  # gload of one word
                wp[g] += 1.0 + gll
                bt[b] += 1.0
                ba[b] += 1.0
                bl[b] += 1.0
                bi[b] += 1.0
                if b * cap + slot >= bsz:
                    raise FallbackToReference(
                        "loop replay index out of bounds"
                    )
                v = int(buf[b * cap + slot])
        # -- Line 13: bounds load (two consecutive offsets words) ------
        rel = v - base
        if rel < 0 or rel + 1 >= osz:
            raise FallbackToReference("frontier vertex outside CSR slice")
        s = offs[rel]
        e = offs[rel + 1]
        if s < e and (s < 0 or e > nsz):
            raise FallbackToReference("loop replay index out of bounds")
        wi[g] += 1.0
        wp[g] += 1.0 + gll
        bt[b] += float((rel + 1) // 32 - rel // 32 + 1)
        ba[b] += 1.0
        bl[b] += 2.0
        bi[b] += 1.0
        # -- the adjacency sweep, one 32-lane trip at a time -----------
        for pos0 in range(s, e, 32):
            l = min(32, e - pos0)
            u_list = nbrs[pos0 : pos0 + l]
            if min(u_list) < 0 or max(u_list) >= dsz:
                raise FallbackToReference("loop replay index out of bounds")
            # sync_warp + neighbors gload + deg gload + charge(4)
            wi[g] += 7.0 + scan_cost
            wp[g] += 7.0 + 2.0 * gll + scan_cost
            segs = set()
            cand: List[int] = []
            newly: List[int] = []
            # every x in a trip is distinct (launch-level duplicate
            # guard), so in-loop writes never shadow a later read
            for x in u_list:
                segs.add(x >> 5)
                du = deg[x]
                if du > k:
                    cand.append(x)
                    deg[x] = du - 1
                    if du == k + 1 and (own is None or lo <= x < hi):
                        newly.append(x)
            c = len(cand)
            # the degree log holds one id per adjacency entry (the C
            # replay's is that long): a frontier of distinct vertices
            # never fills it
            if len(dirty) + c > nsz:
                raise FallbackToReference("loop undo log full")
            bt[b] += float(
                (pos0 + l - 1) // 32 - pos0 // 32 + 1 + len(segs)
            )
            ba[b] += 2.0
            bl[b] += 2.0 * l
            bi[b] += 2.0
            if c:
                dirty.extend(cand)
                # Line 21: atomicSub (distinct addresses: no conflicts)
                wi[g] += 1.0
                wp[g] += gab
                bat[b] += gab
                bt[b] += float(len({x >> 5 for x in cand}))
                ba[b] += 1.0
                bl[b] += float(c)
                bi[b] += 1.0
            nw = len(newly)
            if not nw:
                continue
            # -- append the newly-dead vertices ------------------------
            loc = blk.e
            if loc + nw > effective:
                raise FallbackToReference(
                    "loop buffer overflow; reference raises"
                )
            if compaction == "none":
                wi[g] += 1.0
                sa = 2.0 + 0.25 * (nw - 1)
                wp[g] += sa
                bat[b] += sa
                bcf[b] += float(nw - 1)
            else:
                wi[g] += 3.0  # atomic + shfl + charge
                wp[g] += 4.0
                bat[b] += 2.0
            n_sh = 0
            gl_start = b * cap + loc
            if sm:
                e_init = blk.e_init
                n_sh = min(max(e_init + scap - loc, 0), nw)
                gl_start = b * cap + max(loc, e_init + scap) - scap
                wi[g] += 5.0  # smem_get(e_init) + charge(4)
                wp[g] += 5.0
                if n_sh:
                    wi[g] += 1.0  # sstore
                    wp[g] += 1.0
                    w = loc - e_init
                    shared[b]["B"][w : w + n_sh] = newly[:n_sh]
            n_gl = nw - n_sh
            if n_gl:
                wi[g] += 1.0  # gstore
                wp[g] += 1.0
                bt[b] += float(
                    (gl_start + n_gl - 1) // 32 - gl_start // 32 + 1
                )
                ba[b] += 1.0
                bl[b] += float(n_gl)
                bi[b] += 1.0
                if gl_start + n_gl > bsz:
                    raise FallbackToReference(
                        "loop replay index out of bounds"
                    )
                undo.append(
                    (gl_start, buf[gl_start : gl_start + n_gl].copy())
                )
                buf[gl_start : gl_start + n_gl] = newly[n_sh:]
            if loc + nw > bpk[b]:
                bpk[b] = float(loc + nw)
            blk.e = loc + nw
    acc.issued += np.asarray(wi)
    acc.path += np.asarray(wp)
    acc.mem_transactions += np.asarray(bt)
    acc.mem_accesses += np.asarray(ba)
    acc.mem_active_lanes += np.asarray(bl)
    acc.mem_ideal_transactions += np.asarray(bi)
    acc.atomic_cycles += np.asarray(bat)
    acc.atomic_conflicts += np.asarray(bcf)
    np.maximum(acc.buffer_peak, np.asarray(bpk), out=acc.buffer_peak)


def _scan_cost(compaction: str) -> float:
    """Per-trip instruction cost of the append scheme's warp scan."""
    if compaction == "none":
        return 0.0
    return 3.0 if compaction == "ballot" else 11.0


# ---------------------------------------------------------------------------
# the native replay: the Python loop replay in C, compiled on first use
# ---------------------------------------------------------------------------

_FLUSH_SOURCE = Path(__file__).with_name("fastsim_flush.c")
#: no -ffast-math and no FMA contraction: the C sums must be the
#: Python replay's double operations, in the same order
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

    Returns ``None`` (the Python replay serves) when no ``cc`` is on
    ``PATH``, the build fails, or another user owns or can write the
    cache directory.
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
    """True when loop launches replay in C, False when in Python.

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
    acc: _Accounting,
) -> bool:
    """The whole launch in one C call; ``False`` leaves it to Python."""
    deg: DeviceArray = bound["deg"]
    buf: DeviceArray = bound["buf"]
    addrs = [_address(a) for a in (deg, buf, bound["tails"],
                                   bound["gpu_count"])]
    if None in addrs:
        return False
    cfg: VariantConfig = bound["cfg"]
    own = bound["own_range"]
    lo, hi = own if own is not None else (0, 0)
    cost = launch.cost
    ctx = _csr_ctx(bound["offsets"], bound["neighbors"])
    ctx.deg, ctx.buf, ctx.tails, ctx.gpu_count = addrs
    ctx.dsz = deg.data.size
    ctx.bsz = buf.data.size
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
    return True


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
    acc = _Accounting(grid, warps)
    shared = _StagedShared(launch)
    for blk in range(grid):  # the reference's allocation order
        if cfg.shared_buffer:
            shared.alloc(blk, "B", int(bound["shared_capacity"]))
        if cfg.prefetch:
            shared.alloc(blk, "pref0", warps)
            shared.alloc(blk, "pref1", warps)
    fn = _native_replay()
    if fn is None or not _replay_native(fn, launch, bound, acc):
        run = _LoopRun(launch, bound, acc, shared)
        try:
            if cfg.prefetch:
                _replay_prefetched(run)
            else:
                _replay_drain(run)
        except FallbackToReference:
            run.undo()
            raise
        run.write_degrees()
    stats = acc.finish(launch)
    shared.commit()
    return stats


def _loop_init_turn(run: _LoopRun, blk: _LoopBlock) -> None:
    """The first turn: Thread 0 loads the block's tail (Lines 1-2)."""
    acc = run.acc
    gwid = blk.idx * run.warps
    cfg = run.cfg
    e0 = int(run.tails.data[blk.idx])
    if e0 < 0:
        raise FallbackToReference("loop replay index out of bounds")
    acc.warp_op(gwid, 1.0, 1.0 + run.launch.cost.global_load_latency)
    acc.note_access(blk.idx, 1, 1)
    sets = 2 + (1 if cfg.shared_buffer else 0) + (2 if cfg.prefetch else 0)
    acc.warp_op(gwid, float(sets), float(sets))
    blk.s = 0
    blk.e = e0
    blk.e_init = e0


def _final_turn(run: _LoopRun, blk: _LoopBlock) -> None:
    """Line 26: Thread 0 folds the block tail into gpu_count, all exit."""
    acc = run.acc
    cost = run.launch.cost
    gwid = blk.idx * run.warps
    acc.warp_op(gwid, 1.0, 1.0)  # smem_get("e")
    acc.warp_op(gwid, 1.0, cost.global_atomic_base)
    acc.atomic_cycles[blk.idx] += cost.global_atomic_base
    acc.note_access(blk.idx, 1, 1)
    run.gpu_count.data[0] += blk.e
    run.gpu_added += blk.e


def _replay_drain(run: _LoopRun) -> None:
    """Exact replay of ``_drain`` (Ours/SM/BC/EC fetch loop).

    The reference scheduler's FIFO keeps every block's warps contiguous
    (barrier releases extend the queue atomically, and BODY steppers
    re-append back to back), so blocks advance through the HEAD and
    BODY phases *in lockstep, in stable block order*.  That lets the
    replay iterate whole phases instead of simulating 64 queue turns
    per round.  Two reference behaviours survive the batching:

    * the flush trigger — the first block popped at HEAD with pending
      events flushes everyone, exactly as in the turn-level schedule;
    * within-block emission order — a warp that skipped a BODY round
      (``s + wid >= e``) re-arrives at the barrier *before* that
      round's emitters, so the block's pop order permutes; ``worder``
      tracks it, because the order in which warps emit (not the slots
      they emit) fixes the order of the atomics.

    Per-turn charges (identical +5/+5 per HEAD visit, +1/+1 per
    Thread-0 BODY turn) are counted in Python ints and folded in one
    vector step afterwards — sums of exact values are order-free, so
    this is bit-identical to charging per turn.
    """
    warps = run.warps
    head_rounds = [0] * run.grid  # every live warp charges 5/5 per HEAD
    body_w0 = [0] * run.grid
    barriers = [0] * run.grid
    ev_b = run.ev_block
    ev_g = run.ev_gwid
    ev_s = run.ev_slot
    ev_v = run.ev_value
    order = list(run.blocks)
    for blk in order:
        # only Thread 0 charges here, so one init turn per block covers
        # every warp
        _loop_init_turn(run, blk)
        barriers[blk.idx] += 1  # the INIT arrival barrier
    worder = [list(range(warps)) for _ in range(run.grid)]
    while order:
        keep = []
        for blk in order:  # -- HEAD phase (Lines 4-8) ------------------
            if blk.pending:
                run.flush()
            head_rounds[blk.idx] += 1
            barriers[blk.idx] += 1
            if blk.s == blk.e:
                _final_turn(run, blk)  # Thread-0 only
            else:
                blk.head_s = blk.s
                blk.head_e = blk.e
                keep.append(blk)
        for blk in keep:  # -- BODY phase (Lines 9-12) ------------------
            body_w0[blk.idx] += 1
            s0 = blk.head_s
            e0 = blk.head_e
            blk.s = s0 + warps if s0 + warps < e0 else e0
            base = blk.idx * warps
            b = blk.idx
            wo = worder[b]
            if e0 - s0 >= warps:
                ev_b.extend([b] * warps)
                ev_g.extend([base + wid for wid in wo])
                ev_s.extend([s0 + wid for wid in wo])
                ev_v.extend([-1] * warps)
                blk.pending += warps
            else:
                stay = []
                stepped = []
                for wid in wo:
                    if s0 + wid < e0:
                        ev_b.append(b)
                        ev_g.append(base + wid)
                        ev_s.append(s0 + wid)
                        ev_v.append(-1)
                        stepped.append(wid)
                    else:
                        stay.append(wid)
                blk.pending += len(stepped)
                stay.extend(stepped)
                worder[b] = stay
            barriers[blk.idx] += 1
        order = keep
    acc = run.acc
    hr = np.repeat(np.asarray(head_rounds, dtype=np.float64), warps)
    acc.issued += 5.0 * hr
    acc.path += 5.0 * hr
    w0 = np.arange(run.grid, dtype=np.int64) * warps
    bw = np.asarray(body_w0, dtype=np.float64)
    acc.issued[w0] += bw
    acc.path[w0] += bw
    acc.barriers += np.asarray(barriers, dtype=np.float64)


def _replay_prefetched(run: _LoopRun) -> None:
    """Exact replay of ``_drain_prefetched`` (the VP pipeline).

    The same phase-lock argument as :func:`_replay_drain` applies, and
    here every warp re-queues every round (even idle lanes pass through
    the MID/TAIL phases), so the within-block pop order never permutes:
    consumers emit in plain warp order.  Each round is HEAD (flush
    check, exit test), MID (Thread-0 prefetches the next batch while
    warps 1..pn consume the previous one), TAIL (publish ``pn``, flip
    the double-buffer parity) — three barriers per round, exactly the
    reference's arrival counts.

    As in :func:`_replay_drain`, fixed per-turn charges (HEAD +4/+4,
    TAIL Thread-0 +2/+2, one sload per consumed prefetch value) are
    counted in Python ints and folded in bulk afterwards; only the
    data-dependent Thread-0 prefetch turn charges inline.
    """
    warps = run.warps
    head_rounds = [0] * run.grid
    mid_loads = [0] * (run.grid * warps)  # warps 1..head_pn: +1/+1 each
    mid_w0 = [0] * run.grid  # charge(2) + 2 smem_set: +4/+4 per MID turn
    batch_w0 = [0] * run.grid  # gload + sstore rounds: +2 / +(2+latency)
    mem_trans = [0] * run.grid
    mem_acc = [0] * run.grid
    mem_lanes = [0] * run.grid
    mem_ideal = [0] * run.grid
    tail_w0 = [0] * run.grid
    barriers = [0] * run.grid
    acc = run.acc
    cost = run.launch.cost
    buf = run.buf.data
    cap = run.capacity
    ev_b = run.ev_block
    ev_g = run.ev_gwid
    ev_s = run.ev_slot
    ev_v = run.ev_value
    order = list(run.blocks)
    for blk in order:
        _loop_init_turn(run, blk)  # Thread-0 charges only
        barriers[blk.idx] += 1  # the INIT arrival barrier
    while order:
        keep = []
        for blk in order:  # -- HEAD phase --------------------------------
            if blk.pending:
                run.flush()
            head_rounds[blk.idx] += 1
            barriers[blk.idx] += 1
            if blk.s == blk.e and blk.pn_cur == 0:
                _final_turn(run, blk)  # Thread-0 only
            else:
                blk.head_s = blk.s
                blk.head_e = blk.e
                blk.head_pn = blk.pn_cur
                keep.append(blk)
        for blk in keep:  # -- MID phase ----------------------------------
            assert blk.pref is not None
            gwid0 = blk.idx * warps
            b = blk.idx
            batch = min(warps - 1, blk.head_e - blk.head_s)
            mid_w0[b] += 1  # charge(2) + smem_set(s) + smem_set(pn_next)
            if batch > 0:
                # read_batch: one dependent gload of `batch` words,
                # then one sstore into the prefetch buffer
                start = b * cap + blk.head_s
                batch_w0[b] += 1
                mem_trans[b] += contiguous_transactions(start, batch)
                ideal = -(-batch // 32)
                mem_acc[b] += max(1, ideal)
                mem_lanes[b] += batch
                mem_ideal[b] += ideal
                if blk.head_s + batch > cap:
                    raise FallbackToReference("loop buffer read overflow")
                if start + batch > buf.size:
                    raise FallbackToReference(
                        "loop replay index out of bounds"
                    )
                blk.pref[1 - blk.parity][1 : 1 + batch] = buf[
                    start : start + batch
                ]
            blk.s = blk.head_s + batch
            blk.pn_next = batch
            if blk.head_pn:
                vals = blk.pref[blk.parity][1 : blk.head_pn + 1].tolist()
                for wid, val in enumerate(vals, 1):
                    mid_loads[gwid0 + wid] += 1
                    ev_b.append(b)
                    ev_g.append(gwid0 + wid)
                    ev_s.append(-1)
                    ev_v.append(val)
                blk.pending += blk.head_pn
            barriers[b] += 1
        for blk in keep:  # -- TAIL phase ---------------------------------
            tail_w0[blk.idx] += 1  # smem_get + smem_set: +2/+2
            blk.pn_cur = blk.pn_next
            blk.parity ^= 1  # every warp advanced `iteration`
            barriers[blk.idx] += 1  # the STEPPED re-arrival barrier
        order = keep
    hv = np.repeat(np.asarray(head_rounds, dtype=np.float64), warps)
    ml = np.asarray(mid_loads, dtype=np.float64)
    acc.issued += 4.0 * hv + ml
    acc.path += 4.0 * hv + ml
    w0 = np.arange(run.grid, dtype=np.int64) * warps
    tw = np.asarray(tail_w0, dtype=np.float64)
    mw = np.asarray(mid_w0, dtype=np.float64)
    bw = np.asarray(batch_w0, dtype=np.float64)
    acc.issued[w0] += 2.0 * tw + 4.0 * mw + 2.0 * bw
    acc.path[w0] += (
        2.0 * tw + 4.0 * mw + bw * (2.0 + cost.global_load_latency)
    )
    acc.mem_transactions += np.asarray(mem_trans, dtype=np.float64)
    acc.mem_accesses += np.asarray(mem_acc, dtype=np.float64)
    acc.mem_active_lanes += np.asarray(mem_lanes, dtype=np.float64)
    acc.mem_ideal_transactions += np.asarray(mem_ideal, dtype=np.float64)
    acc.barriers += np.asarray(barriers, dtype=np.float64)


def register() -> None:
    """Register the executors (idempotent; runs at import)."""
    register_vectorized_kernel(scan_kernel, _scan_vectorized)
    register_vectorized_kernel(loop_kernel, _loop_vectorized)


register()
