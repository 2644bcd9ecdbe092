"""Multi-GPU peeling — the paper's future-work sketch (Section VII).

"We can partition a graph among worker GPUs running our kernels, but
degree updates of border vertices would be aggregated afterwards, which
can be computed at a master GPU.  Moreover, the updates may cause new
border vertices to be in k-shell, so more than one round may be needed
to compute a k-shell."

The implementation follows that sketch with an owner-compute layout:

* vertices are partitioned into contiguous, edge-balanced ranges; each
  worker device holds its slice of the CSR arrays plus a full-length
  replica of the degree array.  The replica is *exact* for the
  worker's own vertices and *lazy* for the others (ghosts): a ghost
  only ever sits at or above its true degree, so the worker at most
  over-decrements it;
* per peel round ``k``, the *master* identifies the current k-shell
  frontier from its aggregated degree array, seeds each owner's block
  buffers with its members, and the workers run the unmodified
  ``loop`` kernel over their partition with their ownership window.
  An owned vertex whose exact replica drops to ``k`` is appended and
  peeled inside the launch, as on one GPU; ghosts are decremented but
  never appended.  The master reads back the ids each owner collected
  (one word each) and marks them dead with core ``k``;
* after each sub-round, each worker sends the master ``(id, delta)``
  pairs for the vertices whose replica moved since its last exchange.
  The master keeps a host-side copy of each replica as of that
  exchange, so the deltas are the replica minus that copy.  It drops
  pairs for dead vertices, sums the rest, clamps vertices
  over-decremented below ``k`` back to ``k`` — the cross-device
  analogue of the Fig. 6 restore trick — and sends each alive vertex
  whose degree changed to its owner only, as an ``(id, value)`` pair,
  unless the owner's replica already holds that value (the owner was
  the only device to decrement it and no clamp applied).
  Transfers and the reduction are charged per word actually moved, so
  a sub-round that touches few border vertices exchanges little;
* sub-rounds repeat while the aggregation exposes new k-shell members
  — vertices pushed to ``k`` only by other devices' decrements, exactly
  as the sketch warns ("more than one round may be needed").  With one
  device the owner holds every vertex, so each non-empty round takes
  one sub-round.  The master finds each frontier with work
  proportional to what changed, not to ``n`` per round.  It keeps a
  lazy degree-bucket queue, as BZ does: a counting sort of the initial
  degrees (charged ``n`` once), plus one entry in its new degree's
  bucket for every alive vertex an aggregation moves to a degree above
  ``k``.  The first sub-round of round ``k`` is charged the entries of
  bucket ``k``, stale ones included.  Every alive vertex outside a
  frontier sits above ``k``, so a later sub-round's new members are
  among the vertices the previous aggregation changed, and the master
  filters only those.  A filter that finds nothing carries its charge
  to the next sub-round that finds a frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

import repro.core.fastsim  # noqa: F401  (registers vectorized executors)
from repro.core.loop_kernel import loop_kernel
from repro.core.variants import VariantConfig, get_variant
from repro.errors import ReproError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device
from repro.gpusim.engine import ExecutionEngine, get_engine
from repro.gpusim.spec import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.result import DecompositionResult

if TYPE_CHECKING:
    from repro.memtrace.report import MemtraceReport

__all__ = ["multi_gpu_peel", "partition_ranges", "MultiGpuOptions"]


@dataclass(frozen=True)
class MultiGpuOptions:
    """Tunables of the multi-GPU run."""

    #: PCIe-style transfer cost for the aggregation step, cycles per
    #: transferred word (vertex id or degree value, either direction)
    transfer_cycles_per_word: float = 0.5
    #: master-side reduction cost, cycles per gathered ``(id, delta)`` pair
    reduce_cycles_per_word: float = 0.25


def partition_ranges(graph: CSRGraph, parts: int) -> list[tuple[int, int]]:
    """Contiguous vertex ranges with roughly equal edge counts."""
    if parts < 1:
        raise ReproError("need at least one partition")
    n = graph.num_vertices
    total = graph.neighbors.size
    if n == 0:
        return [(0, 0)] * parts
    targets = [round(total * (p + 1) / parts) for p in range(parts)]
    bounds = np.searchsorted(graph.offsets[1:], targets, side="left") + 1
    ranges = []
    lo = 0
    for p in range(parts):
        hi = int(min(n, max(lo, bounds[p]))) if p < parts - 1 else n
        ranges.append((lo, hi))
        lo = hi
    return ranges


def multi_gpu_peel(
    graph: CSRGraph,
    num_devices: int = 2,
    variant: str | VariantConfig = "ours",
    spec: DeviceSpec | None = None,
    cost_model: CostModel | None = None,
    options: MultiGpuOptions | None = None,
    sanitize: bool = False,
    memtrace: bool = False,
    engine: "str | ExecutionEngine | None" = None,
    critpath: bool = False,
) -> DecompositionResult:
    """Decompose ``graph`` across ``num_devices`` simulated GPUs.

    ``engine`` selects the execution engine every worker device runs
    its kernels on (see :mod:`repro.gpusim.engine`); engines are
    byte-identical, so partition results never depend on the choice.

    Returns a :class:`DecompositionResult` whose ``simulated_ms`` sums
    the parallel sub-round time (the *slowest* worker each sub-round)
    plus the aggregation steps, and whose ``peak_memory_bytes`` is the
    busiest single device — the quantity that decides whether a graph
    too big for one GPU fits a partitioned cluster.

    With ``sanitize=True`` every worker device shares one
    :class:`~repro.sanitize.racecheck.KernelSanitizer`, so the report on
    ``result.sanitizer`` aggregates findings across the whole cluster.

    With ``memtrace=True`` each worker device gets its own
    :class:`~repro.memtrace.tracker.MemoryTracker` (named ``gpu0``,
    ``gpu1``, ...); the merged
    :class:`~repro.memtrace.report.MemtraceReport` on
    ``result.memtrace`` carries one worker section per device, and
    ``stats["per_device_peak_bytes"]`` lists every worker's peak so the
    headline max is auditable.

    With ``critpath=True`` every sub-round's coordinator cost terms and
    worker kernel timings are recorded and compiled into a
    :class:`~repro.obs.critpath.CritPathReport` on ``result.critpath``:
    each round is classified compute-, straggler-, or exchange-bound,
    and the what-if table projects the speedup ceiling of free atomics,
    perfect coalescing, zero barriers, and an infinite interconnect.
    Observability only — core numbers, ``simulated_ms`` and counters are
    byte-identical with or without it.
    """
    cfg = variant if isinstance(variant, VariantConfig) else get_variant(variant)
    ranges = partition_ranges(graph, num_devices)
    spec = spec or DeviceSpec()
    opts = options or MultiGpuOptions()
    sanitizer = None
    if sanitize:
        from repro.sanitize.racecheck import KernelSanitizer

        sanitizer = KernelSanitizer()
    algorithm = f"gpu-multi{num_devices}-{cfg.name}"
    trackers = None
    if memtrace:
        from repro.memtrace.tracker import MemoryTracker

        trackers = [
            MemoryTracker(worker=f"gpu{d}") for d in range(num_devices)
        ]
        for mt in trackers:
            mt.annotate(variant=cfg.name, algorithm=algorithm)

    def _memtrace_report() -> "MemtraceReport | None":
        if trackers is None:
            return None
        from repro.memtrace.report import MemtraceReport

        return MemtraceReport.from_trackers(
            trackers, algorithm=algorithm, variant=cfg.name
        )

    n = graph.num_vertices
    if n == 0:
        if trackers is not None:
            for mt in trackers:
                mt.finish(0.0)
        return DecompositionResult(
            core=np.empty(0, dtype=np.int64),
            algorithm=algorithm,
            stats={
                "engine": get_engine(engine).name,
                "num_devices": num_devices,
                "sub_rounds": 0,
                "exchange_words": 0,
                "broadcast_words": 0,
                "partition_ranges": ranges,
                "per_device_ms": [0.0] * num_devices,
                "per_device_peak_bytes": [0] * num_devices,
            },
            sanitizer=sanitizer.report if sanitizer is not None else None,
            memtrace=_memtrace_report(),
        )

    devices = [
        Device(
            spec=spec, cost_model=cost_model, sanitizer=sanitizer,
            memtracer=trackers[d] if trackers is not None else None,
            engine=engine, name=f"gpu{d}", profile=critpath,
        )
        for d in range(num_devices)
    ]
    workers = []
    for d, (lo, hi) in enumerate(ranges):
        device = devices[d]
        # the worker's CSR slice: offsets re-based to its first vertex
        local_offsets = (
            graph.offsets[lo : hi + 1] - graph.offsets[lo]
        )
        local_neighbors = graph.neighbors[
            graph.offsets[lo] : graph.offsets[hi]
        ]
        workers.append({
            "range": (lo, hi),
            "device": device,
            "offsets": device.malloc("offsets", local_offsets),
            "neighbors": device.malloc("neighbors", local_neighbors),
            "deg": device.malloc("deg", graph.degrees),  # full replica
            # host-side copy of the replica as of its last exchange
            "base": graph.degrees.astype(np.int64),
            "buf": device.malloc(
                "buf", spec.default_grid_dim * spec.block_buffer_capacity
            ),
            "tails": device.malloc("buf_tails", spec.default_grid_dim),
            "count": device.malloc("gpu_count", 1),
        })

    capacity = spec.block_buffer_capacity
    shared_capacity = spec.shared_buffer_capacity if cfg.shared_buffer else 0
    grid_dim = spec.default_grid_dim
    cost = devices[0].cost_model
    coordinator_cycles = 0.0
    raw_rounds: list[dict] = []  # per sub-round cost terms for critpath
    alive = np.ones(n, dtype=bool)
    master_deg = graph.degrees.astype(np.int64).copy()
    removed = 0
    k = 0
    sub_rounds = 0
    exchange_words = 0
    broadcast_words = 0
    # each worker's first vertex, then n: cuts a sorted id list by owner
    owner_starts = [lo for lo, _ in ranges] + [n]
    max_rounds = graph.max_degree + 2
    # the master's lazy degree buckets, kept as entry counts (live and
    # stale): a counting sort of the initial degrees, charged n once
    bucket_entries = np.bincount(master_deg, minlength=max_rounds + 1)
    pending_cycles = float(n)  # filter work no sub-round has paid for
    while removed < n:
        if k > max_rounds:
            raise ReproError(
                f"multi-GPU peeling stalled at round {k} "
                f"({removed}/{n} removed)"
            )
        if trackers is not None:
            for mt in trackers:
                mt.set_round(k)
        # vertices the previous sub-round's aggregation changed
        changed: np.ndarray | None = None
        while True:  # sub-rounds of round k
            # master: the current k-shell frontier (clamping guarantees
            # alive degrees never sit below k, so bucket k's live entries
            # are the alive vertices of degree k; every alive vertex a
            # sub-round left unchanged still sits above k)
            if changed is None:
                frontier = np.flatnonzero(alive & (master_deg == k))
                pending_cycles += int(bucket_entries[k])
            else:
                frontier = changed[master_deg[changed] <= k]
                pending_cycles += changed.size
            if frontier.size == 0:
                break  # the next charged filter pays for this one
            filter_cycles = pending_cycles
            pending_cycles = 0.0
            sub_rounds += 1
            alive[frontier] = False
            removed += frontier.size
            coordinator_cycles += filter_cycles
            gathered: list[tuple[np.ndarray, np.ndarray]] = []
            collected: list[np.ndarray] = []
            worker_ms = []
            seed_cycles = []
            round_launches: list[dict | None] = []
            for w in workers:
                device = w["device"]
                lo, hi = w["range"]
                mine = frontier[(frontier >= lo) & (frontier < hi)]
                before_ms = device.elapsed_ms
                # seed the owner's block buffers round-robin (the role
                # the scan kernel plays on a single device)
                w["tails"].data[:] = 0
                for b in range(grid_dim):
                    share = mine[b::grid_dim]
                    w["buf"].data[
                        b * capacity : b * capacity + share.size
                    ] = share
                    w["tails"].data[b] = share.size
                seed = mine.size * opts.transfer_cycles_per_word
                seed_cycles.append(seed)
                coordinator_cycles += seed
                stats = None
                if mine.size:
                    stats = device.launch(
                        loop_kernel,
                        args=(k, w["offsets"], w["neighbors"], w["deg"],
                              w["buf"], w["tails"], w["count"], capacity,
                              shared_capacity, cfg, (lo, hi)),
                    )
                    # the replica still equals its last-exchange copy
                    # everywhere the kernel did not decrement
                    deg = w["deg"].data
                    base = w["base"]
                    touched = np.flatnonzero(deg != base)
                    gathered.append((touched, deg[touched] - base[touched]))
                    base[touched] = deg[touched]
                    # an owned replica is exact at launch, so an owned
                    # alive vertex now at k was appended and peeled here
                    own = touched[(touched >= lo) & (touched < hi)]
                    collected.append(own[alive[own] & (deg[own] == k)])
                worker_ms.append(device.elapsed_ms - before_ms)
                round_launches.append(
                    None if stats is None
                    else {"device": device.name, "kernel": "loop_kernel",
                          "stats": stats}
                )
            # ---- master aggregation of border-vertex degree updates ----
            # the owners' collected ids are read back: core = k
            peeled = np.concatenate(collected)
            alive[peeled] = False
            removed += peeled.size
            master_deg[peeled] = k
            pairs = sum(touched.size for touched, _ in gathered)
            # pairs for dead vertices are dropped: each keeps its core
            gathered = [(t[alive[t]], d[alive[t]]) for t, d in gathered]
            # sorted union by sort + adjacent compare: ~10x faster than
            # np.unique's hashing on a few thousand ids
            ids = np.sort(np.concatenate([t for t, _ in gathered]))
            first = np.ones(ids.size, dtype=bool)
            first[1:] = ids[1:] != ids[:-1]
            live = ids[first]
            pre = master_deg[live]
            for touched, delta in gathered:  # ids are unique per worker
                master_deg[touched] += delta
            # cross-device restore: an alive vertex driven below k by
            # concurrent remote decrements belongs to the k-shell
            master_deg[live] = np.maximum(master_deg[live], k)
            # decrements only lower degrees, so every alive vertex a
            # worker touched is in ``changed``.  Only its owner hears of
            # it, which keeps owned replicas exact; ghosts stay lazy
            changed = live[master_deg[live] != pre]
            values = master_deg[changed]
            cuts = np.searchsorted(changed, owner_starts)
            sent = 0
            for w, a, b in zip(workers, cuts[:-1], cuts[1:]):
                ids, vals = changed[a:b], values[a:b]
                # an owner that alone decremented a vertex already holds
                # its new value: only stale replica entries are sent
                stale = w["base"][ids] != vals
                ids, vals = ids[stale], vals[stale]
                w["deg"].data[ids] = vals
                w["base"][ids] = vals
                sent += ids.size
            # route each vertex moved above k to its new bucket; one at
            # k is in the next sub-round's filter over changed
            bucket_entries += np.bincount(
                values[values > k], minlength=bucket_entries.size
            )
            words = 2 * pairs + peeled.size + 2 * sent
            exchange_words += words
            broadcast_words += 2 * sent
            exchange_cycles = (
                words * opts.transfer_cycles_per_word
                + pairs * opts.reduce_cycles_per_word
            )
            coordinator_cycles += exchange_cycles
            # parallel workers: the sub-round costs the slowest one.
            # Per-worker cycles are recorded with the exact expression
            # the accumulator uses, so max(worker_cycles) is the same
            # float as max(worker_ms) * 1e6 * clock_ghz (scaling by a
            # positive constant preserves the argmax).
            worker_cycles = [
                ms * 1e6 * cost.clock_ghz for ms in worker_ms
            ]
            if worker_cycles:
                coordinator_cycles += max(worker_cycles)
            if critpath:
                raw_rounds.append({
                    "k": k,
                    "frontier": int(frontier.size),
                    "filter_cycles": filter_cycles,
                    "seed_cycles": seed_cycles,
                    "worker_cycles": worker_cycles,
                    "exchange_cycles": exchange_cycles,
                    "launches": round_launches,
                })
        k += 1

    core = master_deg
    total_ms = cost.cycles_to_ms(coordinator_cycles)
    cpath_report = None
    if critpath:
        from repro.obs.critpath import build_multi_critpath
        from repro.staticheck.bounds import launch_env

        cpath_report = build_multi_critpath(
            algorithm=algorithm,
            variant=cfg.name,
            num_devices=num_devices,
            rounds=raw_rounds,
            elapsed_ms=total_ms,
            spec=spec,
            cost=cost,
            transfer_cycles_per_word=opts.transfer_cycles_per_word,
            reduce_cycles_per_word=opts.reduce_cycles_per_word,
            worker_names=[d.name for d in devices],
            cfg=cfg,
            env=launch_env(
                n, len(graph.neighbors), graph.max_degree, spec, cfg, None
            ),
        )
    if trackers is not None:
        for d, device in enumerate(devices):
            device.free_all()
            trackers[d].set_round(None)
            trackers[d].finish(device.elapsed_ms)
    return DecompositionResult(
        core=core,
        algorithm=algorithm,
        simulated_ms=total_ms,
        peak_memory_bytes=max(d.peak_memory_bytes for d in devices),
        rounds=k,
        stats={
            "engine": devices[0].engine.name,
            "num_devices": num_devices,
            "sub_rounds": sub_rounds,
            "exchange_words": exchange_words,
            "broadcast_words": broadcast_words,
            "partition_ranges": ranges,
            "per_device_ms": [d.elapsed_ms for d in devices],
            "per_device_peak_bytes": [d.peak_memory_bytes for d in devices],
        },
        sanitizer=sanitizer.report if sanitizer is not None else None,
        memtrace=_memtrace_report(),
        critpath=cpath_report,
    )
