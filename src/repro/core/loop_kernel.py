"""The loop-phase kernel (Algorithm 3 of the paper).

Each block drains its buffer of k-shell vertices: warps fetch one
vertex each per block iteration (Fig. 5), decrement the degrees of its
neighbors with ``atomicSub`` and append neighbors whose degree drops to
exactly ``k`` — a parallel BFS over the k-shell.  Cross-block races on
a shared neighbor are resolved by the degree-restore trick of Fig. 6:
an over-decremented vertex (old value already ``<= k``) gets its
decrement cancelled on Line 24, so degrees converge to core numbers.

Variants change two things:

* *fetching* — SM reads recent frontier vertices from the block's
  shared-memory buffer (Fig. 7); VP lets Warp 0 prefetch the next
  frontier batch into shared memory while the other warps compute;
* *appending* — BC/EC batch appends with warp-level compaction instead
  of per-lane shared atomics.

Under tracing (``docs/OBSERVABILITY.md``) each launch of this kernel
appears as a ``loop_kernel`` span on the ``device`` track; its shared
and global atomic contention is tallied into the ``atomic_conflicts``
span argument, and buffer appends drive the ``buffer_peak`` watermark.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.buffers import BlockBufferView
from repro.core.compaction import warp_compact_ballot, warp_compact_hillis_steele
from repro.core.variants import VariantConfig
from repro.gpusim.context import WarpContext
from repro.gpusim.memory import DeviceArray

__all__ = ["loop_kernel"]

#: static-certificate coverage map (see ``docs/STATIC_ANALYSIS.md``):
#: every ``ctx`` function here must be named, with the bound that
#: accounts for its cost; the AST pass in ``repro.staticheck.absint``
#: fails an ``uncertified-kernel`` finding otherwise.
__staticheck__ = {
    "loop_kernel": "repro.staticheck.bounds.loop_bounds (entry point)",
    "_drain": "min(P,n)+2 iteration bound, 2 barriers/iteration",
    "_drain_virtual": "min(P,n)+2 iterations, ceil(dmax/(S/vw)) sweep trips",
    "_process_vertices_virtual": "11 issued per virtual sweep trip",
    "_drain_prefetched": "2*min(P,n)+3 iteration bound, 3 barriers/iteration",
    "_process_vertex": "sweep-trip constants: 9 base + append",
    "_append": "append constants: none=2, ballot=7, block=15 (+6 SM)",
}


def loop_kernel(
    ctx: WarpContext,
    k: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    deg: DeviceArray,
    buf: DeviceArray,
    tails: DeviceArray,
    gpu_count: DeviceArray,
    capacity: int,
    shared_capacity: int,
    cfg: VariantConfig,
    own_range: tuple[int, int] | None = None,
) -> Generator[str, None, None]:
    """Kernel ``loop(k)``: drain the k-shell by parallel BFS.

    ``own_range=(lo, hi)`` restricts buffer *appends* to vertices this
    device owns (multi-GPU partitioning); degree decrements still apply
    to every neighbor, with remote deltas aggregated by the host
    afterwards.  ``None`` (single-GPU) owns everything.
    """
    if ctx.warp_id == 0:  # Lines 1-2 (Thread 0 of the block)
        e0 = ctx.gload(tails, ctx.block_idx)
        ctx.smem_set("s", 0)
        ctx.smem_set("e", e0)
        if cfg.shared_buffer:
            ctx.smem_set("e_init", e0)
        if cfg.prefetch:
            ctx.smem_set("pn_cur", 0)
            ctx.smem_set("pn_next", 0)
    view = BlockBufferView(
        ctx,
        buf,
        capacity,
        ring=cfg.ring_buffer,
        use_shared=cfg.shared_buffer,
        shared_capacity=shared_capacity,
    )
    if cfg.prefetch:
        yield from _drain_prefetched(
            ctx, view, k, offsets, neighbors, deg, cfg, own_range
        )
    elif cfg.virtual_warps > 1:
        yield from _drain_virtual(
            ctx, view, k, offsets, neighbors, deg, cfg, own_range
        )
    else:
        yield from _drain(ctx, view, k, offsets, neighbors, deg, cfg, own_range)

    yield ctx.BARRIER  # Line 25
    if ctx.warp_id == 0:  # Line 26
        ctx.atomic_global(gpu_count, 0, ctx.smem_get("e"))


def _drain(
    ctx: WarpContext,
    view: BlockBufferView,
    k: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    deg: DeviceArray,
    cfg: VariantConfig,
    own_range: tuple[int, int] | None = None,
) -> Generator[str, None, None]:
    """Lines 3-24: the basic per-warp fetch loop (also used by SM)."""
    while True:  # Line 3
        yield ctx.BARRIER  # Line 4
        s = ctx.smem_get("s")
        e = ctx.smem_get("e")
        ctx.charge(3)  # emptiness test, warp-offset arithmetic, branch
        if s == e:  # Line 5
            break
        s_prime = s + ctx.warp_id  # Line 6
        e_prime = e
        yield ctx.BARRIER  # Line 7
        if ctx.warp_id == 0:  # Lines 9-10 (Thread 0)
            ctx.smem_set("s", min(s + ctx.warps_per_block, e))
        if s_prime >= e_prime:  # Line 8
            continue
        v = view.read(s_prime)  # Line 12
        yield from _process_vertex(
            ctx, view, v, k, offsets, neighbors, deg, cfg, own_range
        )
        yield ctx.STEP


def _drain_virtual(
    ctx: WarpContext,
    view: BlockBufferView,
    k: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    deg: DeviceArray,
    cfg: VariantConfig,
    own_range: tuple[int, int] | None = None,
) -> Generator[str, None, None]:
    """Virtual warping (Section III): each physical warp runs ``vw``
    logical warps of ``32 / vw`` lanes, so it fetches and processes
    ``vw`` frontier vertices per block iteration.  Low-degree vertices
    no longer leave most of the warp's lanes idle — the win the paper
    attributes to the technique on low-average-degree graphs."""
    vw = cfg.virtual_warps
    lane_width = ctx.warp_size // vw
    while True:
        yield ctx.BARRIER  # Line 4
        s = ctx.smem_get("s")
        e = ctx.smem_get("e")
        ctx.charge(3)
        if s == e:  # Line 5
            break
        s_prime = s + ctx.warp_id * vw  # this warp's batch of vw slots
        e_prime = e
        yield ctx.BARRIER  # Line 7
        if ctx.warp_id == 0:
            ctx.smem_set("s", min(s + ctx.warps_per_block * vw, e))
        if s_prime >= e_prime:  # Line 8
            continue
        batch = view.read_batch(
            np.arange(s_prime, min(s_prime + vw, e_prime))
        )
        yield from _process_vertices_virtual(
            ctx, view, batch, lane_width, k, offsets, neighbors, deg,
            own_range,
        )
        yield ctx.STEP


def _process_vertices_virtual(
    ctx: WarpContext,
    view: BlockBufferView,
    batch: np.ndarray,
    lane_width: int,
    k: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    deg: DeviceArray,
    own_range: tuple[int, int] | None = None,
) -> Generator[str, None, None]:
    """Lines 13-24 for ``len(batch)`` vertices in lockstep: logical
    warp ``j`` sweeps ``batch[j]``'s adjacency list with ``lane_width``
    lanes; the physical warp's trip count is the *maximum* over its
    logical warps (lockstep SIMT)."""
    base = own_range[0] if own_range is not None else 0
    idx = np.concatenate([[v - base, v - base + 1] for v in batch])
    bounds = ctx.gload(offsets, idx)
    starts = bounds[0::2].copy()
    ends = bounds[1::2]
    trips = int(np.ceil((ends - starts).max() / lane_width)) if batch.size else 0
    for _ in range(trips):
        ctx.sync_warp()  # Line 15
        # gather each logical warp's next lane_width positions
        pieces = []
        for j in range(batch.size):
            width = min(lane_width, int(ends[j] - starts[j]))
            if width > 0:
                pieces.append(np.arange(starts[j], starts[j] + width))
                starts[j] += width
        if not pieces:
            break
        pos = np.concatenate(pieces)
        u = ctx.gload(neighbors, pos)
        du = ctx.gload(deg, u)
        ctx.charge(4)
        if ctx.should_preempt():
            yield ctx.STEP
        candidates = u[du > k]  # Line 20
        if candidates.size == 0:
            continue
        old = ctx.atomic_global(deg, candidates, -1)  # Line 21
        is_new = old == k + 1
        if own_range is not None:
            is_new &= (candidates >= own_range[0]) & (
                candidates < own_range[1]
            )
        newly = candidates[is_new]  # Line 22
        over_decremented = candidates[old <= k]  # Line 24
        if over_decremented.size:
            ctx.atomic_global(deg, over_decremented, +1)
        if newly.size:  # Line 23 (basic per-lane atomic appends)
            loc = ctx.smem_atomic_add("e", int(newly.size),
                                      lanes=int(newly.size))
            view.write(loc + np.arange(newly.size), newly)


def _drain_prefetched(
    ctx: WarpContext,
    view: BlockBufferView,
    k: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    deg: DeviceArray,
    cfg: VariantConfig,
    own_range: tuple[int, int] | None = None,
) -> Generator[str, None, None]:
    """The VP pipeline: Warp 0 fetches the next frontier batch into the
    shared arrays while warps ``1..W-1`` process the previous batch.

    Double-buffered ``pref`` arrays avoid a same-iteration read/write
    race; the pipeline drains when the buffer is empty *and* nothing is
    in flight.
    """
    warps = ctx.warps_per_block
    pref = (
        ctx.smem_array("pref0", warps),
        ctx.smem_array("pref1", warps),
    )
    iteration = 0
    while True:
        yield ctx.BARRIER
        s = ctx.smem_get("s")
        e = ctx.smem_get("e")
        in_flight = ctx.smem_get("pn_cur")
        ctx.charge(1)
        if s == e and in_flight == 0:
            break
        yield ctx.BARRIER  # snapshot (s, e, pn) before anyone updates
        if ctx.warp_id == 0:
            # prefetch up to W-1 vertices for the *next* iteration
            batch = min(warps - 1, e - s)
            ctx.charge(2)
            if batch > 0:
                frontier = view.read_batch(np.arange(s, s + batch))
                ctx.sstore(
                    pref[(iteration + 1) % 2],
                    1 + np.arange(batch),
                    frontier,
                )
            ctx.smem_set("s", s + batch)
            ctx.smem_set("pn_next", batch)
        elif ctx.warp_id <= in_flight:
            v = ctx.sload(pref[iteration % 2], ctx.warp_id)
            yield from _process_vertex(
                ctx, view, int(v), k, offsets, neighbors, deg, cfg, own_range
            )
        yield ctx.BARRIER
        if ctx.warp_id == 0:
            ctx.smem_set("pn_cur", ctx.smem_get("pn_next"))
        iteration += 1
        yield ctx.STEP


def _process_vertex(
    ctx: WarpContext,
    view: BlockBufferView,
    v: int,
    k: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    deg: DeviceArray,
    cfg: VariantConfig,
    own_range: tuple[int, int] | None = None,
) -> Generator[str, None, None]:
    """Lines 13-24: the 32 lanes sweep ``v``'s adjacency list."""
    # partitioned workers store only their own slice of the CSR arrays,
    # indexed from own_range[0]
    base = own_range[0] if own_range is not None else 0
    bounds = ctx.gload(offsets, np.asarray([v - base, v - base + 1]))  # Line 13
    pos_s, pos_e = int(bounds[0]), int(bounds[1])
    while pos_s < pos_e:  # Lines 14/16
        ctx.sync_warp()  # Line 15
        pos = pos_s + ctx.lanes  # Line 17
        in_range = pos < pos_e  # Line 18
        u = ctx.gload(neighbors, pos[in_range])  # Line 19
        du = ctx.gload(deg, u)  # Line 20 (plain read)
        ctx.charge(4)  # position arithmetic, range test, degree compare
        if ctx.should_preempt():
            # fuzzing hook: widen the read->atomicSub race window
            yield ctx.STEP
        candidates = u[du > k]  # Line 20 (condition)
        newly = np.empty(0, dtype=np.int64)
        is_new = np.empty(0, dtype=bool)
        if candidates.size:
            old = ctx.atomic_global(deg, candidates, -1)  # Line 21
            is_new = old == k + 1
            if own_range is not None:
                # multi-GPU: only the owner collects a k-shell vertex;
                # other devices' crossings reach it as routed delta sums
                is_new &= (candidates >= own_range[0]) & (
                    candidates < own_range[1]
                )
            newly = candidates[is_new]  # Line 22
            over_decremented = candidates[old <= k]  # Line 24
            if over_decremented.size:
                ctx.atomic_global(deg, over_decremented, +1)
        # Line 23: appends.  The compaction variants execute their scan
        # sequence unconditionally each trip (straight-line SIMT code);
        # the basic variant only pays when a lane actually appends.
        if cfg.compaction != "none" or newly.size:
            _append(ctx, view, newly, in_range, du > k, is_new, cfg)
        pos_s += ctx.warp_size  # Line 17


def _append(
    ctx: WarpContext,
    view: BlockBufferView,
    newly: np.ndarray,
    in_range: np.ndarray,
    passed: np.ndarray,
    is_new: np.ndarray,
    cfg: VariantConfig,
) -> None:
    """Line 23 under the three append schemes.

    ``in_range``/``passed``/``is_new`` reconstruct which *lanes* append,
    which the compaction paths need for their lane flags.
    """
    count = int(newly.size)
    if cfg.compaction == "none":
        # per-lane atomicAdd(e, 1): serialised reservations
        loc = ctx.smem_atomic_add("e", count, lanes=count)
        view.write(loc + np.arange(count), newly)
        return
    flags = np.zeros(ctx.warp_size, dtype=np.int64)
    if count:
        appending_lanes = ctx.lanes[in_range][passed][is_new]
        flags[appending_lanes] = 1
    if cfg.compaction == "ballot":
        offsets, total = warp_compact_ballot(ctx, flags)
    else:  # EC uses plain Hillis-Steele warp compaction in the loop phase
        offsets, total = warp_compact_hillis_steele(ctx, flags)
    if total == 0:
        return
    loc = ctx.smem_atomic_add("e", total, lanes=1)
    loc = ctx.shfl_broadcast(loc)
    ctx.charge(1)
    view.write(loc + offsets[flags == 1], newly)
