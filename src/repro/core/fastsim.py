"""Launch-level vectorized executors for the peeling kernels.

This module is the ``vectorized`` engine's fast path (see
:mod:`repro.gpusim.engine` and ``docs/SIMULATOR.md``).  Instead of
stepping one generator per warp through the reference scheduler, each
executor computes a whole launch — every device-memory side effect and
every cost-model tally — with batched numpy array operations, then
returns the same :class:`~repro.gpusim.scheduler.KernelStats` the
reference interpreter would have produced, byte for byte.

How exactness is preserved
--------------------------

*Scan* (:func:`~repro.core.scan_kernel.scan_kernel`) is closed-form:
no cross-block state is written, each block's buffer content is its
warps' hits ordered by ``(trip, warp, lane)``, and every per-trip cost
is a function of the trip's lane and hit counts alone.

*Loop* (:func:`~repro.core.loop_kernel.loop_kernel`) has cross-block
ordering semantics (concurrent ``atomicSub`` on shared neighbors), so
the executor replays the reference FIFO scheduler exactly — but at
*turn* granularity, with a few integer state updates per turn instead
of a generator resumption.  The expensive part of a turn (a warp's
whole adjacency sweep) is deferred into an ordered *event* list and
batched: when a block next reads its buffer tail ``e``, all pending
events are flushed in emission order with one numpy pass.  Candidacy
has a closed form under that order: the first ``deg0(u) - k`` touches
of a vertex ``u`` decrement it, and the touch with rank
``deg0(u) - k - 1`` observes ``k + 1`` and appends ``u`` (the
``newly`` set of Alg. 3 Line 22).  This is exact because, with no
preemption, a warp's read -> atomicSub window never interleaves
(events are atomic in the schedule), which also means the Fig. 6
restore path cannot fire — unless an adjacency list contains duplicate
neighbors, a case the executor detects up front and declines.

Fallback discipline
-------------------

All device side effects are *staged* (degree, buffer, tails, counter
copies plus staged shared-memory blocks) and committed only when the
launch completes, so an executor can decline a launch at any point by
raising :class:`~repro.gpusim.engine.FallbackToReference` with zero
observable effects — the engine then re-runs the launch on the
reference interpreter.  Declined launches: ring-buffer variants
(wraparound head/tail semantics), virtual warping (``vw > 1``),
duplicate in-adjacency neighbors, and predicted buffer overflow (the
reference run raises :class:`~repro.errors.BufferOverflowError` at the
exact offending write, with the exact partial state).  Shared-memory
exhaustion is *not* a fallback: the staged allocations replicate
:meth:`~repro.gpusim.context.BlockState.alloc_shared` order exactly,
fire the same memtracker callbacks, and raise the same
:class:`~repro.errors.SharedMemoryExhaustedError`.

The executors assume the CSR arrays (``offsets``/``neighbors``) are
immutable for the lifetime of the :class:`~repro.gpusim.memory.DeviceArray`
objects — true for every host program in this repository — so the
duplicate-neighbor pre-check can be cached per array pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

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
from repro.gpusim.vectorized import (
    assemble_stats,
    contiguous_transactions,
    grouped_distinct_segments,
)

__all__ = ["register"]


# ---------------------------------------------------------------------------
# shared accounting
# ---------------------------------------------------------------------------


class _Accounting:
    """Per-warp issue/path and per-block metric accumulators.

    Mirrors what :class:`~repro.gpusim.context.WarpContext` and
    :class:`~repro.gpusim.costmodel.BlockTiming` accumulate; every
    increment is an integer or quarter-integer, so sums are exact and
    order-independent (see :mod:`repro.gpusim.vectorized`).
    """

    def __init__(self, grid: int, warps: int) -> None:
        self.grid = grid
        self.warps = warps
        n = grid * warps
        self.issued = np.zeros(n, dtype=np.float64)
        self.path = np.zeros(n, dtype=np.float64)
        self.mem_transactions = np.zeros(grid, dtype=np.float64)
        self.mem_accesses = np.zeros(grid, dtype=np.float64)
        self.mem_active_lanes = np.zeros(grid, dtype=np.float64)
        self.mem_ideal_transactions = np.zeros(grid, dtype=np.float64)
        self.atomic_conflicts = np.zeros(grid, dtype=np.float64)
        self.atomic_cycles = np.zeros(grid, dtype=np.float64)
        self.buffer_peak = np.zeros(grid, dtype=np.float64)
        self.barriers = np.zeros(grid, dtype=np.int64)

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
        w = self.warps
        block_issued = self.issued.reshape(self.grid, w).sum(axis=1)
        block_paths = self.path.reshape(self.grid, w).max(axis=1)
        timings = [
            BlockTiming(
                issued=float(block_issued[b]),
                mem_transactions=float(self.mem_transactions[b]),
                barriers=int(self.barriers[b]),
                atomic_conflicts=float(self.atomic_conflicts[b]),
                buffer_peak=float(self.buffer_peak[b]),
                atomic_cycles=float(self.atomic_cycles[b]),
                mem_accesses=float(self.mem_accesses[b]),
                mem_active_lanes=float(self.mem_active_lanes[b]),
                mem_ideal_transactions=float(
                    self.mem_ideal_transactions[b]
                ),
            )
            for b in range(self.grid)
        ]
        max_paths = [float(block_paths[b]) for b in range(self.grid)]
        return assemble_stats(
            timings, max_paths, launch.cost, launch.spec,
            launch.collect_timings,
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


class _StagedArrays:
    """Lazy staging copies of mutable device arrays."""

    def __init__(self) -> None:
        self._staged: Dict[int, Tuple[DeviceArray, np.ndarray]] = {}

    def data(self, array: DeviceArray) -> np.ndarray:
        entry = self._staged.get(id(array))
        if entry is None:
            entry = (array, array.data.copy())
            self._staged[id(array)] = entry
        return entry[1]

    def commit(self) -> None:
        for array, copy in self._staged.values():
            array.data[:] = copy


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _segmented_exclusive_cumsum(
    values: np.ndarray, group: np.ndarray
) -> np.ndarray:
    """Exclusive running sum of ``values`` within each ``group``.

    ``group`` need not be contiguous; the original order within a group
    is preserved (the emission order the simulator semantics fix).
    """
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(group, kind="stable")
    sorted_vals = values[order]
    sorted_group = group[order]
    cs = np.cumsum(sorted_vals) - sorted_vals
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_group[1:] != sorted_group[:-1]
    base = np.where(starts, cs, 0)
    np.maximum.accumulate(base, out=base)
    seg = cs - base
    out = np.empty(values.size, dtype=np.int64)
    out[order] = seg
    return out


def _contig_trans_vec(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.gpusim.vectorized.contiguous_transactions`."""
    out = (start + length - 1) // 32 - start // 32 + 1
    return np.where(length > 0, out, 0)


def _expand_edges(
    starts: np.ndarray, degs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand per-event CSR slices to per-edge (event, offset, position)."""
    total = int(degs.sum())
    eid = np.repeat(np.arange(degs.size, dtype=np.int64), degs)
    base = _exclusive_cumsum(degs)
    off = np.arange(total, dtype=np.int64) - base[eid]
    return eid, off, starts[eid] + off


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
    args: Tuple[Any, ...],
    kwargs: Mapping[str, Any],
) -> Dict[str, Any]:
    bound: Dict[str, Any] = dict(defaults)
    if len(args) > len(names):
        raise FallbackToReference("unexpected extra positional arguments")
    bound.update(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise FallbackToReference(f"unexpected keyword {key!r}")
        bound[key] = value
    missing = [n for n in names if n not in bound]
    if missing:
        raise FallbackToReference(f"missing arguments {missing!r}")
    return bound


# ---------------------------------------------------------------------------
# scan kernel: fully closed form
# ---------------------------------------------------------------------------

_SCAN_PARAMS = (
    "k", "deg", "buf", "tails", "num_vertices", "capacity", "cfg",
    "vertex_lo",
)


class _ScanSkeleton:
    """Round-invariant structure of one scan launch shape.

    A decomposition launches the scan kernel once per peel round with
    the same grid, vertex range, and capacity — only ``k`` and the
    degree array change.  Everything that does not depend on *which*
    vertices hit (the trip enumeration, the per-trip base charges, the
    append ordering, the prologue/epilogue/barrier totals) is computed
    once here and reused, leaving each launch only the hit-dependent
    work.
    """

    __slots__ = (
        "trips_per_warp", "total_trips", "trip_base", "trip_warp",
        "trip_block", "trip_first", "trip_lanes", "order", "ord_first",
        "w0",
        "issued0", "path0", "trans0", "acc0", "lanes0", "ideal0",
        "atomic0", "barriers0",
    )

    def __init__(
        self, compaction: str, grid: int, warps: int, nv: int,
        vertex_lo: int, stride: int, capacity: int,
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
        self.trips_per_warp = trips_per_warp
        total_trips = int(trips_per_warp.sum())
        self.total_trips = total_trips
        trip_warp = np.repeat(gwids, trips_per_warp)
        trip_base = _exclusive_cumsum(trips_per_warp)
        trip_t = np.arange(total_trips, dtype=np.int64) - trip_base[trip_warp]
        trip_first = base[trip_warp] + trip_t * stride
        trip_lanes = np.clip(nv - trip_first, 0, 32)
        trip_block = trip_warp // warps
        self.trip_base = trip_base
        self.trip_warp = trip_warp
        self.trip_block = trip_block
        self.trip_first = trip_first
        self.trip_lanes = trip_lanes
        has_lanes = trip_lanes > 0

        # -- per-trip base charges (hit-independent) --------------------
        # _hit_flags charge(4) + coalesced degree read & hit-mask
        # charge(2) when lanes are in range; issued == path for every
        # base term, so one fold serves both
        t_base = 4.0 + np.where(has_lanes, 2.0, 0.0)
        if compaction == "ballot":
            t_base += 3.0  # ballot + popc + lane-mask charge, every trip
        elif compaction == "block":
            t_base += 12.0  # Hillis-Steele compaction + sstore(counts)
        warp_base = np.bincount(trip_warp, weights=t_base, minlength=gw)
        self.issued0 = warp_base.copy()
        self.path0 = warp_base.copy()
        deg_trans = np.where(
            has_lanes, _contig_trans_vec(trip_first, trip_lanes), 0
        ).astype(np.float64)
        hl = has_lanes.astype(np.float64)
        self.trans0 = np.bincount(trip_block, weights=deg_trans,
                                  minlength=grid) + 1.0  # + tails store
        self.acc0 = np.bincount(trip_block, weights=hl, minlength=grid) + 1.0
        self.lanes0 = np.bincount(
            trip_block, weights=trip_lanes.astype(np.float64), minlength=grid
        ) + 1.0
        self.ideal0 = self.acc0.copy()
        self.atomic0 = np.zeros(grid)
        self.barriers0 = np.full(grid, 2, dtype=np.int64)  # Line 2 + final
        w0 = np.arange(grid, dtype=np.int64) * warps
        self.w0 = w0
        if compaction == "block":
            # Warp 0 stages 2-3, every trip: sload(counts) + 2*log2(W)+2
            # scan charge + atomicAdd(e, total, lanes=1) + sstore(woffs)
            steps = max(1, int(np.log2(max(2, warps))))
            trips0 = trips_per_warp[w0]
            self.issued0[w0] += (1.0 + (2 * steps + 2) + 1.0 + 1.0) * trips0
            self.path0[w0] += (1.0 + (2 * steps + 2) + 2.0 + 1.0) * trips0
            self.atomic0 += 2.0 * trips0
            self.barriers0 += 3 * trips0  # three __syncthreads per trip
        # prologue smem_set("e", 0) + epilogue smem_get("e") + gstore
        self.issued0[w0] += 3.0
        self.path0[w0] += 3.0

        # -- append ordering (hit-independent) --------------------------
        # appends are ordered by (trip, warp) within each block under
        # all three schemes; hit lanes keep ascending order in a trip
        order_key = (
            trip_block * np.int64(1 << 40) + trip_t * gw + trip_warp % warps
        )
        order = np.argsort(order_key, kind="stable")
        self.order = order
        # ord_first[i]: ordered index of the first trip of the block
        # that ordered position i belongs to — turns the per-launch
        # segmented cumsum into two plain vector ops
        ob = trip_block[order]
        first = np.zeros(total_trips, dtype=np.int64)
        if total_trips:
            new_block = np.empty(total_trips, dtype=bool)
            new_block[0] = True
            new_block[1:] = ob[1:] != ob[:-1]
            idx = np.arange(total_trips, dtype=np.int64)
            first = np.maximum.accumulate(np.where(new_block, idx, 0))
        self.ord_first = first


_SCAN_SKELETONS: Dict[Tuple[Any, ...], _ScanSkeleton] = {}


def _scan_skeleton(
    compaction: str, grid: int, warps: int, nv: int, vertex_lo: int,
    stride: int, capacity: int,
) -> _ScanSkeleton:
    key = (compaction, grid, warps, nv, vertex_lo, stride, capacity)
    skel = _SCAN_SKELETONS.get(key)
    if skel is None:
        if len(_SCAN_SKELETONS) >= 32:
            _SCAN_SKELETONS.clear()
        skel = _ScanSkeleton(
            compaction, grid, warps, nv, vertex_lo, stride, capacity
        )
        _SCAN_SKELETONS[key] = skel
    return skel


def _scan_vectorized(launch: VectorLaunch) -> KernelStats:
    b = _bind(_SCAN_PARAMS, {"vertex_lo": 0}, launch.args, launch.kwargs)
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
    warps = launch.block_dim // launch.spec.warp_size
    gw = grid * warps
    stride = launch.grid_dim * launch.block_dim
    acc = _Accounting(grid, warps)
    shared = _StagedShared(launch)
    staged = _StagedArrays()
    skel = _scan_skeleton(
        cfg.compaction, grid, warps, nv, vertex_lo, stride, capacity
    )
    if cfg.compaction == "block":
        # EC allocates its two staging arrays per block, in block order,
        # before any trip writes (see docs/SIMULATOR.md)
        for blk in range(grid):
            shared.alloc(blk, "warp_counts", warps)
            shared.alloc(blk, "warp_offsets", warps)

    # -- fold in the precomputed hit-independent charges ----------------
    total_trips = skel.total_trips
    trip_warp = skel.trip_warp
    trip_block = skel.trip_block
    acc.issued += skel.issued0
    acc.path += skel.path0
    acc.mem_transactions += skel.trans0
    acc.mem_accesses += skel.acc0
    acc.mem_active_lanes += skel.lanes0
    acc.mem_ideal_transactions += skel.ideal0
    acc.atomic_cycles += skel.atomic0
    acc.barriers += skel.barriers0

    # -- hits -----------------------------------------------------------
    hit_rel = np.flatnonzero(deg.data[vertex_lo:nv] == k) if nv > vertex_lo \
        else np.zeros(0, dtype=np.int64)
    if hit_rel.size <= 4096:
        # Scalar fast path.  A trip covers exactly one 32-vertex chunk
        # (stride == gw * 32), and the append order within a block —
        # (trip, warp) ascending — is ascending chunk, i.e. ascending
        # vertex id.  So grouping the (already ascending) hit list by
        # chunk walks trips in append order: buffer slots are contiguous
        # per block and the peak is the final tail.  All charges are
        # quarter-integers summed in Python floats — exact, so folding
        # them in bulk is bit-identical to the vector path.
        hits = hit_rel.tolist()
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
            raise FallbackToReference(
                "scan buffer overflow; reference raises"
            )
        acc.issued += np.asarray(ti)
        acc.path += np.asarray(tp)
        acc.atomic_cycles += np.asarray(at_cyc)
        acc.atomic_conflicts += np.asarray(at_con)
        acc.mem_transactions += np.asarray(m_tr)
        acc.mem_accesses += np.asarray(m_acc)
        acc.mem_active_lanes += np.asarray(m_lan)
        acc.mem_ideal_transactions += np.asarray(m_acc)
        np.maximum(
            acc.buffer_peak, np.asarray(pos, dtype=np.float64),
            out=acc.buffer_peak,
        )
        buf_staged = staged.data(buf)
        for bidx, vs in enumerate(content):
            if vs:
                buf_staged[
                    bidx * capacity : bidx * capacity + len(vs)
                ] = vs
        tails_staged = staged.data(tails)
        tails_staged[:grid] = pos
        stats = acc.finish(launch)
        shared.commit()
        staged.commit()
        return stats

    hit_v = hit_rel + vertex_lo
    hit_chunk = hit_rel // 32
    hit_warp = hit_chunk % gw
    hit_trip = skel.trip_base[hit_warp] + hit_chunk // gw
    trip_hits = np.bincount(hit_trip, minlength=total_trips).astype(np.int64)
    has_hits = trip_hits > 0
    hf = has_hits.astype(np.float64)

    # -- hit-dependent per-trip charges ---------------------------------
    if cfg.compaction == "none":
        # atomicAdd(e, h) with h serialised lanes + the buffered gstore
        t_issued = hf * 2.0
        sa = np.where(has_hits, 2.0 + 0.25 * (trip_hits - 1), 0.0)
        t_path = sa + hf
        acc.atomic_cycles += np.bincount(trip_block, weights=sa,
                                         minlength=grid)
        acc.atomic_conflicts += np.bincount(
            trip_block,
            weights=np.where(has_hits, trip_hits - 1, 0).astype(np.float64),
            minlength=grid,
        )
    elif cfg.compaction == "ballot":
        t_issued = hf * 4.0  # atomic + shfl + charge(1) + gstore
        t_path = hf * (2.0 + 1.0 + 1.0 + 1.0)
        acc.atomic_cycles += np.bincount(trip_block, weights=hf * 2.0,
                                         minlength=grid)
    else:  # block (EC)
        t_issued = hf * 2.0  # sload(woffs) + gstore
        t_path = hf * 2.0
    acc.issued += np.bincount(trip_warp, weights=t_issued, minlength=gw)
    acc.path += np.bincount(trip_warp, weights=t_path, minlength=gw)

    # -- buffer positions and contents ---------------------------------
    # positions: exclusive cumsum of hits in (block, t, w) order
    order = skel.order
    th_ord = trip_hits[order]
    cs = np.cumsum(th_ord) - th_ord
    pos_in_block = cs - cs[skel.ord_first]
    trip_pos = np.empty(total_trips, dtype=np.int64)
    trip_pos[order] = pos_in_block
    final_e = np.bincount(trip_block, weights=trip_hits, minlength=grid)
    final_e = final_e.astype(np.int64)
    if int(final_e.max(initial=0)) > capacity:
        raise FallbackToReference("scan buffer overflow; reference raises")

    wr_block = trip_block[has_hits]
    wr_pos = trip_pos[has_hits]
    wr_h = trip_hits[has_hits]
    wr_trans = _contig_trans_vec(wr_block * capacity + wr_pos, wr_h)
    acc.mem_transactions += np.bincount(
        wr_block, weights=wr_trans.astype(np.float64), minlength=grid
    )
    wr_per_block = np.bincount(wr_block, minlength=grid)
    acc.mem_accesses += wr_per_block
    acc.mem_active_lanes += np.bincount(
        wr_block, weights=wr_h.astype(np.float64), minlength=grid
    )
    acc.mem_ideal_transactions += wr_per_block
    np.maximum.at(
        acc.buffer_peak, wr_block, (wr_pos + wr_h).astype(np.float64)
    )

    # buffer content: each block's hit vertices in (trip, warp, lane)
    # order == ascending vertex id within that block's chunks
    buf_staged = staged.data(buf)
    hit_block = hit_warp // warps
    hit_slot = (
        trip_pos[hit_trip]
        + _segmented_exclusive_cumsum(
            np.ones(hit_v.size, dtype=np.int64), hit_trip
        )
    )
    buf_staged[hit_block * capacity + hit_slot] = hit_v

    tails_staged = staged.data(tails)
    tails_staged[:grid] = final_e

    stats = acc.finish(launch)
    shared.commit()
    staged.commit()
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

    def __init__(self, idx: int, warps: int) -> None:
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
    """One loop-kernel launch being replayed; owns staging + events."""

    def __init__(self, launch: VectorLaunch, bound: Dict[str, Any]) -> None:
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
        self.warps = launch.block_dim // launch.spec.warp_size
        self.acc = _Accounting(self.grid, self.warps)
        self.shared = _StagedShared(launch)
        self.staged = _StagedArrays()
        self.deg_staged = self.staged.data(self.deg)
        self.buf_staged = self.staged.data(self.buf)
        # scalar-flush support: the staged degree array doubles as a
        # Python list (built lazily, kept authoritative between vector
        # flushes) when the CSR is small enough for list mirroring;
        # ``deg_dirty`` lists the entries the list holds that the array
        # does not yet, so write-back costs the decrements, not ``n``
        self.scalar_ok = (
            self.offsets.data.size <= 200_000
            and self.neighbors.data.size <= 2_000_000
        )
        self.deg_list: Optional[List[int]] = None
        self.deg_dirty: List[int] = []
        self.blocks = [_LoopBlock(i, self.warps) for i in range(self.grid)]
        # pending events, in emission order
        self.ev_block: List[int] = []
        self.ev_gwid: List[int] = []
        self.ev_slot: List[int] = []  # -1 for value events (VP)
        self.ev_value: List[int] = []

    # -- event plumbing -------------------------------------------------

    def emit(self, block: _LoopBlock, gwid: int, slot: int, value: int) -> None:
        self.ev_block.append(block.idx)
        self.ev_gwid.append(gwid)
        self.ev_slot.append(slot)
        self.ev_value.append(value)
        block.pending += 1

    def flush(self) -> None:
        if not self.ev_block:
            return
        if not _try_flush_scalar(self):
            _flush_events(self)
        self.ev_block.clear()
        self.ev_gwid.clear()
        self.ev_slot.clear()
        self.ev_value.clear()
        for block in self.blocks:
            block.pending = 0


def _resolve_slot_events(
    run: _LoopRun, ev_block: np.ndarray, ev_gwid: np.ndarray
) -> np.ndarray:
    """Resolve buffer reads for slot events + charge the read costs.

    Per-warp/per-block charges are folded with ``np.bincount`` rather
    than ``np.ufunc.at`` — both sum the same exact dyadic values, so
    the totals are bit-identical, but ``bincount`` is far cheaper on
    the small index sets a flush batch produces.
    """
    acc = run.acc
    grid = run.grid
    nwarps = grid * run.warps
    ev_slot = np.asarray(run.ev_slot, dtype=np.int64)
    values = np.asarray(run.ev_value, dtype=np.int64)
    is_slot = ev_slot >= 0
    if not np.any(is_slot):
        return values
    sl_block = ev_block[is_slot]
    sl_gwid = ev_gwid[is_slot]
    sl_slot = ev_slot[is_slot]
    if not run.cfg.shared_buffer:
        # plain view.read: one dependent gload of one word
        per_warp = np.bincount(sl_gwid, minlength=nwarps)
        acc.issued += per_warp
        acc.path += per_warp * (1.0 + run.launch.cost.global_load_latency)
        per_block = np.bincount(sl_block, minlength=grid)
        acc.mem_transactions += per_block
        acc.mem_accesses += per_block
        acc.mem_active_lanes += per_block
        acc.mem_ideal_transactions += per_block
        values[is_slot] = run.buf_staged[sl_block * run.capacity + sl_slot]
        return values
    # SM view.read: e_init fetch + Fig. 7 translation, then shared or
    # shifted-global access per event
    e_init = np.asarray(
        [run.blocks[i].e_init for i in range(run.grid)], dtype=np.int64
    )[sl_block]
    per_warp = np.bincount(sl_gwid, minlength=nwarps)
    acc.issued += per_warp * 5.0  # smem_get + charge(4)
    acc.path += per_warp * 5.0
    scap = run.shared_capacity
    in_shared = (sl_slot >= e_init) & (sl_slot < e_init + scap)
    resolved = np.empty(sl_slot.size, dtype=np.int64)
    if np.any(in_shared):
        sh_warp = np.bincount(sl_gwid[in_shared], minlength=nwarps)
        acc.issued += sh_warp  # sload
        acc.path += sh_warp
        sh_slots = sl_slot[in_shared] - e_init[in_shared]
        sh_blocks = sl_block[in_shared]
        resolved[in_shared] = np.asarray(
            [
                run.shared.arrays[blk]["B"][slot]
                for blk, slot in zip(sh_blocks, sh_slots)
            ],
            dtype=np.int64,
        ) if sh_blocks.size else np.zeros(0, dtype=np.int64)
    out_shared = ~in_shared
    if np.any(out_shared):
        g = sl_gwid[out_shared]
        blkk = sl_block[out_shared]
        gl_warp = np.bincount(g, minlength=nwarps)
        acc.issued += gl_warp
        acc.path += gl_warp * (1.0 + run.launch.cost.global_load_latency)
        gl_block = np.bincount(blkk, minlength=grid)
        acc.mem_transactions += gl_block
        acc.mem_accesses += gl_block
        acc.mem_active_lanes += gl_block
        acc.mem_ideal_transactions += gl_block
        gpos = sl_slot[out_shared].copy()
        gpos[gpos >= e_init[out_shared]] -= scap
        if int(gpos.max(initial=0)) >= run.capacity:
            raise FallbackToReference("loop buffer read overflow")
        resolved[out_shared] = run.buf_staged[blkk * run.capacity + gpos]
    values[is_slot] = resolved
    return values


#: flush batches touching at most this many edges take the scalar path
_SCALAR_EDGE_LIMIT = 4096


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


def _try_flush_scalar(run: _LoopRun) -> bool:
    """Flush a small batch by direct sequential emulation.

    A flush batch holds at most one event per warp (≤ 64), so most
    batches sweep a few hundred edges — far below the scale where the
    vectorised closed forms in :func:`_flush_events` pay for their
    fixed numpy dispatch cost.  This path replays the batch the way
    the reference interpreter does — event by event, trip by trip,
    serialising the atomics in lane order — which is *trivially*
    order-identical, and every charge is the same dyadic rational the
    vector path folds, so the sums match bit for bit.

    First a cost-free peek resolves the frontier vertices and sizes
    the batch; batches over :data:`_SCALAR_EDGE_LIMIT` edges (or with
    anything the peek cannot cheaply validate) return ``False`` and
    fall through to the vector path, which also owns raising the
    fallback errors with the correct charges applied.
    """
    if not run.scalar_ok:
        return False
    cap = run.capacity
    cfg = run.cfg
    sm = cfg.shared_buffer
    scap = run.shared_capacity if sm else 0
    buf = run.buf_staged
    # -- peek: resolve values + bounds without charging ----------------
    vals: List[int] = []
    if sm:
        shared = run.shared.arrays
        for b, slot, val in zip(run.ev_block, run.ev_slot, run.ev_value):
            if slot < 0:
                vals.append(val)
                continue
            e_init = run.blocks[b].e_init
            if e_init <= slot < e_init + scap:
                vals.append(int(shared[b]["B"][slot - e_init]))
            else:
                gpos = slot - scap if slot >= e_init else slot
                if gpos >= cap:
                    return False  # vector path raises the fallback
                vals.append(int(buf[b * cap + gpos]))
    else:
        for b, slot, val in zip(run.ev_block, run.ev_slot, run.ev_value):
            vals.append(val if slot < 0 else int(buf[b * cap + slot]))
    offs = _scalar_list(run.offsets, "_fastsim_offs")
    osz = len(offs)
    base = run.base
    bounds: List[Tuple[int, int]] = []
    total = 0
    for v in vals:
        rel = v - base
        if rel < 0 or rel + 1 >= osz:
            return False  # vector path raises the fallback
        s = offs[rel]
        e = offs[rel + 1]
        bounds.append((s, e))
        total += e - s
    if total > _SCALAR_EDGE_LIMIT:
        return False
    _flush_scalar(run, vals, bounds)
    return True


def _flush_scalar(
    run: _LoopRun, vals: List[int], bounds: List[Tuple[int, int]]
) -> None:
    """Sequential (reference-order) execution of a small flush batch.

    Assumes the launch-level no-duplicate-adjacency guard: within one
    trip every touched vertex is distinct, so the pre-trip degree
    snapshot is the value each lane's atomic observes.  Charges are
    accumulated in Python scalars and folded into the accounting
    arrays in one vector step per metric.
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
    scan_cost = 0.0 if compaction == "none" else (
        3.0 if compaction == "ballot" else 11.0
    )
    nbrs = _scalar_list(run.neighbors, "_fastsim_nbrs")
    if run.deg_list is None:
        run.deg_list = run.deg_staged.tolist()
    deg = run.deg_list
    dirty = run.deg_dirty
    buf = run.buf_staged
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
    for i, (v, (s, e)) in enumerate(zip(vals, bounds)):
        b = run.ev_block[i]
        g = run.ev_gwid[i]
        blk = run.blocks[b]
        # -- the buffer read (charges only; value came from the peek) --
        if run.ev_slot[i] >= 0:
            if sm:
                wi[g] += 5.0  # smem_get(e_init) + charge(4)
                wp[g] += 5.0
                if blk.e_init <= run.ev_slot[i] < blk.e_init + scap:
                    wi[g] += 1.0  # sload
                    wp[g] += 1.0
                else:
                    wi[g] += 1.0  # shifted gload
                    wp[g] += 1.0 + gll
                    bt[b] += 1.0
                    ba[b] += 1.0
                    bl[b] += 1.0
                    bi[b] += 1.0
            else:
                wi[g] += 1.0  # plain gload of one word
                wp[g] += 1.0 + gll
                bt[b] += 1.0
                ba[b] += 1.0
                bl[b] += 1.0
                bi[b] += 1.0
        # -- Line 13: bounds load (two consecutive offsets words) ------
        rel = v - run.base
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
            bt[b] += float(
                (pos0 + l - 1) // 32 - pos0 // 32 + 1 + len(segs)
            )
            ba[b] += 2.0
            bl[b] += 2.0 * l
            bi[b] += 2.0
            c = len(cand)
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
            if not sm:
                wi[g] += 1.0  # gstore
                wp[g] += 1.0
                start = b * cap + loc
                bt[b] += float((start + nw - 1) // 32 - start // 32 + 1)
                ba[b] += 1.0
                bl[b] += float(nw)
                bi[b] += 1.0
                buf[start : start + nw] = newly
            else:
                wi[g] += 5.0  # smem_get(e_init) + charge(4)
                wp[g] += 5.0
                n_sh = min(max(blk.e_init + scap - loc, 0), nw)
                if n_sh:
                    wi[g] += 1.0  # sstore
                    wp[g] += 1.0
                    window = run.shared.arrays[b]["B"]
                    for j in range(n_sh):
                        window[loc - blk.e_init + j] = newly[j]
                n_gl = nw - n_sh
                if n_gl:
                    wi[g] += 1.0  # gstore
                    wp[g] += 1.0
                    gl_start = b * cap + max(loc, blk.e_init + scap) - scap
                    bt[b] += float(
                        (gl_start + n_gl - 1) // 32 - gl_start // 32 + 1
                    )
                    ba[b] += 1.0
                    bl[b] += float(n_gl)
                    bi[b] += 1.0
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
    if len(dirty) > len(deg):
        # past n entries a whole-array copy is cheaper, and it bounds
        # the log's memory
        run.deg_staged[:] = deg
        dirty.clear()


def _sync_deg(run: _LoopRun) -> None:
    """Write the scalar path's decrements back to the staged array."""
    dirty = run.deg_dirty
    if dirty:
        deg = run.deg_list
        assert deg is not None
        run.deg_staged[dirty] = [deg[x] for x in dirty]
        dirty.clear()


def _flush_events(run: _LoopRun) -> None:
    """Batch-execute all pending events in emission order.

    One event is one warp's full adjacency sweep of one frontier
    vertex (Alg. 3 Lines 12-24).  See the module docstring for why the
    rank closed form reproduces the reference order exactly.
    """
    acc = run.acc
    cost = run.launch.cost
    k = run.k
    grid = run.grid
    nwarps = grid * run.warps
    _sync_deg(run)
    ev_block = np.asarray(run.ev_block, dtype=np.int64)
    ev_gwid = np.asarray(run.ev_gwid, dtype=np.int64)
    v = _resolve_slot_events(run, ev_block, ev_gwid)

    # Line 13: the bounds load (two consecutive offsets words)
    rel = v - run.base
    offs = run.offsets.data
    if int(rel.min(initial=0)) < 0 or int(rel.max(initial=-1)) + 1 >= offs.size:
        raise FallbackToReference("frontier vertex outside CSR slice")
    starts = offs[rel]
    ends = offs[rel + 1]
    ev_per_warp = np.bincount(ev_gwid, minlength=nwarps)
    acc.issued += ev_per_warp
    acc.path += ev_per_warp * (1.0 + cost.global_load_latency)
    ev_per_block = np.bincount(ev_block, minlength=grid)
    acc.mem_transactions += np.bincount(
        ev_block,
        weights=_contig_trans_vec(
            rel, np.full(rel.size, 2, dtype=np.int64)
        ).astype(np.float64),
        minlength=grid,
    )
    acc.mem_accesses += ev_per_block
    acc.mem_active_lanes += 2.0 * ev_per_block
    acc.mem_ideal_transactions += ev_per_block

    degs = (ends - starts).astype(np.int64)
    if int(degs.sum()) == 0:
        return

    # -- expand every event's adjacency slice to edge granularity ------
    eid, off, pos = _expand_edges(starts, degs)
    u = run.neighbors.data[pos]

    # trips: 32 lanes per trip, in (event, trip, lane) order — exactly
    # the global touch order of the reference schedule
    trips_per_event = -(-degs // 32)
    trip_base = _exclusive_cumsum(trips_per_event)
    gtid = trip_base[eid] + off // 32
    total_trips = int(trips_per_event.sum())
    trip_event = np.repeat(
        np.arange(degs.size, dtype=np.int64), trips_per_event
    )
    tw = np.arange(total_trips, dtype=np.int64) - trip_base[trip_event]
    trip_pos0 = starts[trip_event] + 32 * tw
    trip_l = np.minimum(32, ends[trip_event] - trip_pos0).astype(np.int64)
    trip_gwid = ev_gwid[trip_event]
    trip_block = ev_block[trip_event]

    # -- candidacy by rank (see module docstring) ----------------------
    order = np.argsort(u, kind="stable")
    su = u[order]
    bounds = np.empty(su.size, dtype=bool)
    bounds[0] = True
    bounds[1:] = su[1:] != su[:-1]
    group = np.cumsum(bounds) - 1
    rank_sorted = (
        np.arange(su.size, dtype=np.int64) - np.flatnonzero(bounds)[group]
    )
    rank = np.empty(u.size, dtype=np.int64)
    rank[order] = rank_sorted
    d0 = run.deg_staged[u]
    cand = rank < (d0 - k)
    newly = cand & (rank == d0 - k - 1)
    if run.own_range is not None:
        lo, hi = run.own_range
        newly &= (u >= lo) & (u < hi)
    np.subtract.at(run.deg_staged, u[cand], 1)
    run.deg_list = None  # stale; the next scalar flush rebuilds it

    # -- per-trip costs -------------------------------------------------
    # sync_warp + neighbors gload + deg gload + charge(4), every trip
    t_issued = np.full(total_trips, 7.0)
    t_path = np.full(
        total_trips, 7.0 + 2 * cost.global_load_latency
    )
    nbr_trans = _contig_trans_vec(trip_pos0, trip_l)
    deg_trans = grouped_distinct_segments(gtid, u, total_trips)
    trips_per_block = np.bincount(trip_block, minlength=grid)
    acc.mem_transactions += np.bincount(
        trip_block, weights=(nbr_trans + deg_trans).astype(np.float64),
        minlength=grid,
    )
    acc.mem_accesses += 2.0 * trips_per_block
    acc.mem_active_lanes += 2.0 * np.bincount(
        trip_block, weights=trip_l.astype(np.float64), minlength=grid
    )
    acc.mem_ideal_transactions += 2.0 * trips_per_block

    csel = np.flatnonzero(cand)
    if csel.size:
        trip_c = np.bincount(gtid[csel], minlength=total_trips)
        has_c = trip_c > 0
        hcf = has_c.astype(np.float64)
        # Line 21: atomicSub on the candidates (distinct addresses: no
        # conflicts, base cycles only)
        at_trans = grouped_distinct_segments(
            gtid[csel], u[csel], total_trips
        )
        t_issued += hcf
        t_path += hcf * cost.global_atomic_base
        hc_per_block = np.bincount(trip_block, weights=hcf, minlength=grid)
        acc.atomic_cycles += hc_per_block * cost.global_atomic_base
        acc.mem_transactions += np.bincount(
            trip_block, weights=at_trans.astype(np.float64), minlength=grid
        )
        acc.mem_accesses += hc_per_block
        acc.mem_active_lanes += np.bincount(
            trip_block, weights=trip_c.astype(np.float64), minlength=grid
        )
        acc.mem_ideal_transactions += hc_per_block

    compaction = run.cfg.compaction
    if compaction != "none":
        # the warp-wide scan runs on every trip, appends or not
        scan_cost = 3.0 if compaction == "ballot" else 11.0
        t_issued += scan_cost
        t_path += scan_cost
    nsel = np.flatnonzero(newly)
    per_block_nw = None
    if nsel.size:
        trip_nw = np.bincount(gtid[nsel], minlength=total_trips)
        has_nw = trip_nw > 0
        hnf = has_nw.astype(np.float64)
        if compaction == "none":
            t_issued += hnf
            sa = np.where(has_nw, 2.0 + 0.25 * (trip_nw - 1), 0.0)
            t_path += sa
            acc.atomic_cycles += np.bincount(
                trip_block, weights=sa, minlength=grid
            )
            acc.atomic_conflicts += np.bincount(
                trip_block,
                weights=np.where(has_nw, trip_nw - 1, 0).astype(np.float64),
                minlength=grid,
            )
        else:
            t_issued += hnf * 3.0  # atomic + shfl + charge
            t_path += hnf * 4.0
            acc.atomic_cycles += np.bincount(
                trip_block, weights=hnf * 2.0, minlength=grid
            )

        # -- append locations ------------------------------------------
        e_before = np.asarray(
            [blk.e for blk in run.blocks], dtype=np.int64
        )
        seg = _segmented_exclusive_cumsum(trip_nw, trip_block)
        trip_loc = e_before[trip_block] + seg
        per_block_nw = np.bincount(
            trip_block, weights=trip_nw, minlength=run.grid
        ).astype(np.int64)
        scap = run.shared_capacity if run.cfg.shared_buffer else 0
        effective = run.capacity + scap
        if np.any(
            (trip_loc + trip_nw)[has_nw] > effective
        ):
            raise FallbackToReference("loop buffer overflow; reference raises")

        # write instruction + transaction accounting per appending trip
        wr = has_nw
        wr_gwid = trip_gwid[wr]
        wr_block = trip_block[wr]
        wr_loc = trip_loc[wr]
        wr_nw = trip_nw[wr]
        if not run.cfg.shared_buffer:
            wr_warp = np.bincount(wr_gwid, minlength=nwarps)
            acc.issued += wr_warp  # gstore
            acc.path += wr_warp
            wr_trans = _contig_trans_vec(
                wr_block * run.capacity + wr_loc, wr_nw
            )
            wr_per_block = np.bincount(wr_block, minlength=grid)
            acc.mem_transactions += np.bincount(
                wr_block, weights=wr_trans.astype(np.float64), minlength=grid
            )
            acc.mem_accesses += wr_per_block
            acc.mem_active_lanes += np.bincount(
                wr_block, weights=wr_nw.astype(np.float64), minlength=grid
            )
            acc.mem_ideal_transactions += wr_per_block
        else:
            e_init = np.asarray(
                [blk.e_init for blk in run.blocks], dtype=np.int64
            )[wr_block]
            wr_warp = np.bincount(wr_gwid, minlength=nwarps)
            acc.issued += wr_warp * 5.0  # smem_get(e_init) + charge(4)
            acc.path += wr_warp * 5.0
            # locations start at >= e_init, so the split is purely
            # "below the window top goes to shared, the rest shifts
            # down by scap"
            n_sh = np.clip(e_init + scap - wr_loc, 0, wr_nw)
            any_sh = n_sh > 0
            sh_warp = np.bincount(wr_gwid[any_sh], minlength=nwarps)
            acc.issued += sh_warp  # sstore
            acc.path += sh_warp
            n_gl = wr_nw - n_sh
            any_gl = n_gl > 0
            gl_warp = np.bincount(wr_gwid[any_gl], minlength=nwarps)
            acc.issued += gl_warp  # gstore
            acc.path += gl_warp
            gl_start = (
                wr_block * run.capacity
                + np.maximum(wr_loc, e_init + scap) - scap
            )
            gl_trans = _contig_trans_vec(gl_start, n_gl)
            gl_per_block = np.bincount(wr_block[any_gl], minlength=grid)
            acc.mem_transactions += np.bincount(
                wr_block[any_gl], weights=gl_trans[any_gl].astype(np.float64),
                minlength=grid,
            )
            acc.mem_accesses += gl_per_block
            acc.mem_active_lanes += np.bincount(
                wr_block[any_gl], weights=n_gl[any_gl].astype(np.float64),
                minlength=grid,
            )
            acc.mem_ideal_transactions += gl_per_block
        np.maximum.at(
            acc.buffer_peak, wr_block, (wr_loc + wr_nw).astype(np.float64)
        )

        # -- commit the appended vertices ------------------------------
        ap_u = u[nsel]
        ap_trip = gtid[nsel]
        ap_slot = trip_loc[ap_trip] + _segmented_exclusive_cumsum(
            np.ones(ap_u.size, dtype=np.int64), ap_trip
        )
        ap_block = trip_block[ap_trip]
        if scap:
            e_init_b = np.asarray(
                [blk.e_init for blk in run.blocks], dtype=np.int64
            )[ap_block]
            in_sh = ap_slot < e_init_b + scap
            for blk_idx, slot, vtx in zip(
                ap_block[in_sh], (ap_slot - e_init_b)[in_sh], ap_u[in_sh]
            ):
                run.shared.arrays[int(blk_idx)]["B"][int(slot)] = int(vtx)
            gl = ~in_sh
            run.buf_staged[
                ap_block[gl] * run.capacity + ap_slot[gl] - scap
            ] = ap_u[gl]
        else:
            run.buf_staged[ap_block * run.capacity + ap_slot] = ap_u

    acc.issued += np.bincount(trip_gwid, weights=t_issued, minlength=nwarps)
    acc.path += np.bincount(trip_gwid, weights=t_path, minlength=nwarps)
    if per_block_nw is not None:
        for blk in run.blocks:
            blk.e += int(per_block_nw[blk.idx])


def _loop_vectorized(launch: VectorLaunch) -> KernelStats:
    bound = _bind(
        _LOOP_PARAMS, {"own_range": None}, launch.args, launch.kwargs
    )
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
    run = _LoopRun(launch, bound)
    if cfg.prefetch:
        _replay_prefetched(run)
    else:
        _replay_drain(run)
    _sync_deg(run)
    stats = run.acc.finish(launch)
    run.shared.commit()
    run.staged.commit()
    return stats


def _loop_init_turn(run: _LoopRun, gwid: int) -> None:
    """The first turn: Thread-0 prologue + buffer-view construction."""
    acc = run.acc
    blk = run.blocks[gwid // run.warps]
    wid = gwid % run.warps
    cfg = run.cfg
    if wid == 0:
        e0 = int(run.tails.data[blk.idx])
        acc.warp_op(gwid, 1.0, 1.0 + run.launch.cost.global_load_latency)
        acc.note_access(blk.idx, 1, 1)
        sets = 2 + (1 if cfg.shared_buffer else 0) + (2 if cfg.prefetch else 0)
        acc.warp_op(gwid, float(sets), float(sets))
        blk.s = 0
        blk.e = e0
        blk.e_init = e0
    if cfg.shared_buffer:
        run.shared.alloc(blk.idx, "B", run.shared_capacity)
    if cfg.prefetch:
        blk.pref = (
            run.shared.alloc(blk.idx, "pref0", run.warps),
            run.shared.alloc(blk.idx, "pref1", run.warps),
        )


def _final_turn(run: _LoopRun, gwid: int) -> None:
    """Line 26: Thread 0 folds the block tail into gpu_count, all exit."""
    blk = run.blocks[gwid // run.warps]
    if gwid % run.warps == 0:
        acc = run.acc
        cost = run.launch.cost
        acc.warp_op(gwid, 1.0, 1.0)  # smem_get("e")
        acc.warp_op(gwid, 1.0, cost.global_atomic_base)
        acc.atomic_cycles[blk.idx] += cost.global_atomic_base
        acc.note_access(blk.idx, 1, 1)
        run.staged.data(run.gpu_count)[0] += blk.e


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
      they emit) fixes the global candidacy ranks.

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
        # only Thread 0 charges here, and shared allocs dedupe per
        # block, so one init turn per block covers every warp
        _loop_init_turn(run, blk.idx * warps)
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
                _final_turn(run, blk.idx * warps)  # Thread-0 only
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
    acc.barriers += np.asarray(barriers, dtype=np.int64)


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
    ev_b = run.ev_block
    ev_g = run.ev_gwid
    ev_s = run.ev_slot
    ev_v = run.ev_value
    order = list(run.blocks)
    for blk in order:
        # Thread-0 charges + per-block shared allocs (deduped)
        _loop_init_turn(run, blk.idx * warps)
        barriers[blk.idx] += 1  # the INIT arrival barrier
    while order:
        keep = []
        for blk in order:  # -- HEAD phase --------------------------------
            if blk.pending:
                run.flush()
            head_rounds[blk.idx] += 1
            barriers[blk.idx] += 1
            if blk.s == blk.e and blk.pn_cur == 0:
                _final_turn(run, blk.idx * warps)  # Thread-0 only
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
                s0 = blk.head_s
                batch_w0[b] += 1
                mem_trans[b] += contiguous_transactions(
                    b * run.capacity + s0, batch
                )
                ideal = -(-batch // 32)
                mem_acc[b] += max(1, ideal)
                mem_lanes[b] += batch
                mem_ideal[b] += ideal
                blk.pref[1 - blk.parity][1 : 1 + batch] = run.buf_staged[
                    b * run.capacity + s0 : b * run.capacity + s0 + batch
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
    acc.barriers += np.asarray(barriers, dtype=np.int64)


def register() -> None:
    """Register the executors (idempotent; runs at import)."""
    register_vectorized_kernel(scan_kernel, _scan_vectorized)
    register_vectorized_kernel(loop_kernel, _loop_vectorized)


register()
