"""A frontier BFS kernel: the contract registry's admission proof.

This module is deliberately *foreign* to the k-core pipeline — it
ships its own kernel, bounds, reachability table and host driver, and
is admitted to the full static-verification stack (site-inventory
coverage, closed-form bounds, dataflow race-freedom certificate,
differential checking) purely by registering a
:class:`~repro.staticheck.contracts.KernelContract` at import time.
No analyzer module names ``bfs_kernel``; if one did, the registry
refactor would have failed its point (``scripts/check_admission.py``
gates exactly this).

The kernel itself is a level-synchronous frontier expansion, shaped
like the peeling kernels so the same discharge catalogue applies:

* each warp strides the current frontier (one vertex per trip) and
  sweeps its adjacency list 32 lanes at a time;
* visitation is claimed with a global ``atomicAdd(visited[u], 1)`` —
  exactly one claimant per vertex ever sees ``old == 0``, which is the
  append-once argument (the frontier bound ``<= n`` of the bounds
  below);
* claimed vertices are appended to the block's slice of the
  next-frontier buffer through the same shared-tail reservation
  (``atomicAdd(e, ...)`` + :class:`~repro.core.buffers.BlockBufferView`)
  the scan kernel uses, so the reservation-disjointness proof carries
  over unchanged;
* the host assigns distances level by level from the read-back
  frontier — the device only ever touches ``visited`` atomically.

No vectorized executor is registered for this kernel
(``engine_module=None`` in the contract), so the dataflow tier's
engine-precondition certificate statically pins every launch to the
reference interpreter — and the differential checker verifies that
``KernelStats.served_by`` agrees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.core.buffers import BlockBufferView
from repro.core.run import DeviceRun
from repro.core.variants import VariantConfig
from repro.errors import ReproError
from repro.gpusim.context import WarpContext
from repro.gpusim.memory import DeviceArray
from repro.staticheck import contracts
from repro.staticheck.bounds import KernelBounds
from repro.staticheck.symbolic import CeilDiv, Const, Expr, Param

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.device import Device
    from repro.gpusim.engine import ExecutionEngine
    from repro.gpusim.spec import DeviceSpec
    from repro.graph.csr import CSRGraph
    from repro.obs.tracer import Tracer
    from repro.result import DecompositionResult

__all__ = ["bfs_kernel", "gpu_bfs", "bfs_bounds", "BFS_REACHABILITY"]

#: static-certificate coverage map (see ``docs/STATIC_ANALYSIS.md``):
#: every ``ctx`` function here must be named, with the bound that
#: accounts for its cost; the AST pass in ``repro.staticheck.absint``
#: fails an ``uncertified-kernel`` finding otherwise.
__staticheck__ = {
    "bfs_kernel": "repro.core.bfs_kernel.bfs_bounds (entry point)",
    "_bfs_expand": "5 issued/frontier trip + 8 per adjacency-sweep trip",
}


def bfs_kernel(
    ctx: WarpContext,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    visited: DeviceArray,
    frontier: DeviceArray,
    frontier_len: int,
    buf: DeviceArray,
    tails: DeviceArray,
    capacity: int,
    cfg: VariantConfig,
) -> Generator[str, None, None]:
    """One BFS level: expand ``frontier`` into the per-block buffers.

    Each warp owns every ``total_warps``-th frontier slot; claimed
    neighbors land in the warp's block buffer, whose fill count the
    block backs up to ``tails`` for the host to harvest.
    """
    if ctx.warp_id == 0:
        ctx.smem_set("e", 0)  # next-frontier tail for this block
    yield ctx.BARRIER

    view = BlockBufferView(ctx, buf, capacity, ring=cfg.ring_buffer)
    stride = ctx.num_threads // ctx.warp_size  # one vertex per warp trip
    for s in range(ctx.global_warp_id, frontier_len, stride):
        v = int(ctx.gload(frontier, s))  # coalesced: one word per warp
        yield from _bfs_expand(ctx, view, v, offsets, neighbors, visited)
        yield ctx.STEP

    yield ctx.BARRIER
    if ctx.warp_id == 0:
        # back up e to tails in global memory for the host harvest
        ctx.gstore(tails, ctx.block_idx, ctx.smem_get("e"))


def _bfs_expand(
    ctx: WarpContext,
    view: BlockBufferView,
    v: int,
    offsets: DeviceArray,
    neighbors: DeviceArray,
    visited: DeviceArray,
) -> Generator[str, None, None]:
    """The 32 lanes sweep ``v``'s adjacency list, claiming neighbors."""
    bounds = ctx.gload(offsets, np.asarray([v, v + 1]))
    pos_s, pos_e = int(bounds[0]), int(bounds[1])
    ctx.charge(3)  # loop counter, frontier index arithmetic, branch
    while pos_s < pos_e:
        ctx.sync_warp()
        pos = pos_s + ctx.lanes
        in_range = pos < pos_e
        u = ctx.gload(neighbors, pos[in_range])
        ctx.charge(3)  # position arithmetic, range test, claim filter
        if ctx.should_preempt():
            # fuzzing hook: cross-block interleavings of the claim
            yield ctx.STEP
        # claim: exactly one claimant across the grid ever sees old == 0
        old = ctx.atomic_global(visited, u, 1)
        fresh = u[old == 0]
        if fresh.size:
            loc = ctx.smem_atomic_add("e", int(fresh.size),
                                      lanes=int(fresh.size))
            view.write(loc + np.arange(fresh.size), fresh)
        pos_s += ctx.warp_size


# ---------------------------------------------------------------------------
# the contract: bounds, layout, reachability, registration
# ---------------------------------------------------------------------------

_N = Param("n")
_ADJ = Param("adj")
_DMAX = Param("dmax")
_G = Param("G")
_W = Param("W")
_S = Param("S")
_CAP = Param("cap")

#: per warp per frontier trip: frontier gload(1) + offsets gload(1)
#: + charge(3) = 5
_BFS_TRIP = 5
#: per adjacency-sweep trip: sync_warp(1) + neighbors gload(1) +
#: charge(3) + visited atomic(1) + tail atomic(1) + view.write gstore(1)
#: = 8
_BFS_SWEEP = 8
#: prologue + epilogue (Warp 0): smem_set e + smem_get e + tails gstore
_BFS_PRO_EPI = 3


def bfs_bounds(cfg: VariantConfig) -> KernelBounds:
    """Per-launch bounds for one BFS level under ``cfg``.

    Trip-count invariants: the ``visited`` claim admits each vertex to
    exactly one frontier ever, so a launch's frontier holds at most
    ``n`` slots and each warp makes at most ``ceil(n / (G*W))`` trips;
    an adjacency sweep makes at most ``ceil(dmax / S)`` trips.
    """
    trips: Expr = CeilDiv(_N, _G * _W)
    sweeps: Expr = CeilDiv(_DMAX, _S)
    issued = _G * _W * (
        Const(_BFS_PRO_EPI)
        + (Const(_BFS_TRIP) + Const(_BFS_SWEEP) * sweeps) * trips
    )
    # per trip: frontier word (1) + offsets window (<=2 segments); per
    # sweep: neighbors window (<=2) + visited gather (<=S) + buffer
    # append (<=S, contiguous but unaligned); plus Warp 0's tails
    # write-back (1 per block)
    mem = _G * (
        _W * (Const(3) + (Const(2) + Const(2) * _S) * sweeps) * trips
        + Const(1)
    )
    barriers = _G * Const(2)
    return KernelBounds(issued, mem, barriers)


def _bfs_shared_layout(cfg: VariantConfig) -> dict[str, Expr]:
    return {"e": Const(1)}


def bfs_device_memory(cfg: VariantConfig) -> Expr:
    """Peak device memory of :func:`gpu_bfs`, in id-sized words:
    offsets (n+1) + neighbors (adj) + visited (n) + frontier (<= n) +
    per-block buffers (G*cap) + tails (G)."""
    return (_N + Const(1)) + _ADJ + _N + _N + _G * _CAP + _G


#: the declared call graph the certifier reasons over (the AST pass
#: verifies every real kernel->kernel call edge appears here)
BFS_REACHABILITY: dict[str, tuple[str, ...]] = {
    "bfs_kernel": ("_bfs_expand",),
    "_bfs_expand": (),
}


def _bfs_variants() -> dict[str, VariantConfig]:
    return {"bfs-base": VariantConfig("bfs-base")}


contracts.register_kernel_contract(contracts.KernelContract(
    name="bfs_kernel",
    program="bfs",
    module="repro.core.bfs_kernel",
    entry="bfs_kernel",
    bounds=bfs_bounds,
    shared_layout=_bfs_shared_layout,
    reachability=BFS_REACHABILITY,
    variants=_bfs_variants,
    params=("n", "adj", "dmax", "G", "W", "S", "cap"),
    helper_modules=("repro.core.buffers",),
    engine_module=None,  # no vectorized executor: reference only
    race_arguments=(
        "read-only",
        "atomic-only",
        "barrier-separated",
        "same-warp",
        "reservation-disjoint",
        "block-private",
    ),
))

contracts.register_program_contract(contracts.ProgramContract(
    name="bfs",
    kernels=("bfs_kernel",),
    device_memory=bfs_device_memory,
    variants=_bfs_variants,
    description="level-synchronous frontier BFS: one kernel launch per "
                "level, host-side distance assignment",
))


# ---------------------------------------------------------------------------
# host driver
# ---------------------------------------------------------------------------


def gpu_bfs(
    graph: "CSRGraph",
    source: int = 0,
    device: "Device | None" = None,
    spec: "DeviceSpec | None" = None,
    cost_model: "CostModel | None" = None,
    tracer: "Tracer | None" = None,
    sanitize: bool = False,
    staticheck: bool = False,
    dataflow: bool = False,
    profile: bool = False,
    memtrace: bool = False,
    engine: "str | ExecutionEngine | None" = None,
    buffer_capacity: int | None = None,
    critpath: bool = False,
) -> "DecompositionResult":
    """Run level-synchronous BFS from ``source`` on the simulator.

    The same device and instrument arguments as
    :func:`~repro.core.host.gpu_peel`, wired by the same
    :class:`~repro.core.run.DeviceRun`: ``staticheck`` arms the
    differential checker with the ``bfs`` program's certificate and
    ``dataflow`` checks every launch against the kernel's dataflow
    certificate.  The ``bfs`` contract declares no ``floors``, so
    ``critpath`` brackets its projections against a zero static floor —
    admission alone is enough, no analyzer edits.  Returns a
    :class:`~repro.result.DecompositionResult` whose ``core`` array
    holds BFS levels (``-1`` = unreachable).
    """
    n = graph.num_vertices
    if n and not 0 <= source < n:
        raise ReproError(
            f"BFS source {source} out of range for {n} vertices"
        )
    cfg = _bfs_variants()["bfs-base"]
    run = DeviceRun(
        graph, cfg, "bfs", "gpu-bfs",
        device=device, spec=spec, cost_model=cost_model, tracer=tracer,
        engine=engine, buffer_capacity=buffer_capacity,
        sanitize=sanitize, staticheck=staticheck, dataflow=dataflow,
        profile=profile, memtrace=memtrace, critpath=critpath,
    )
    dist = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return run.empty_result(dist)

    device = run.device
    grid_dim = device.spec.default_grid_dim
    capacity = buffer_capacity or device.spec.block_buffer_capacity

    offsets_d = device.malloc("offsets", graph.offsets)
    neighbors_d = device.malloc("neighbors", graph.neighbors)
    visited = np.zeros(n, dtype=np.int64)
    visited[source] = 1  # the source claims itself
    visited_d = device.malloc("visited", visited)
    buf_d = device.malloc("buf", grid_dim * capacity)
    tails_d = device.malloc("buf_tails", grid_dim)

    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        run.begin_round(level, f"level {level}")
        frontier_d = device.malloc("frontier", frontier)
        run.launch(
            bfs_kernel,
            (
                offsets_d, neighbors_d, visited_d, frontier_d,
                int(frontier.size), buf_d, tails_d, capacity, cfg,
            ),
            level,
        )
        tails = device.read_back(tails_d)
        chunks = device.read_back(buf_d)
        nxt = np.concatenate([
            chunks[b * capacity: b * capacity + int(tails[b])]
            for b in range(grid_dim)
        ]) if tails.any() else np.empty(0, dtype=np.int64)
        device.free("frontier")
        run.end_round({"level": level, "frontier": int(frontier.size)})
        level += 1
        dist[nxt] = level
        frontier = nxt

    frontiers = run.frontier_per_round
    return run.result(
        dist,
        stats={},
        counters={
            "host.levels": float(level),
            "kernel.bfs.launches": float(level),
            "frontier.peak": float(max(frontiers, default=0)),
            "frontier.total": float(sum(frontiers)),
        },
    )
