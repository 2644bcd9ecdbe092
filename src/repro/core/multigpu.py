"""Multi-GPU peeling — the paper's future-work sketch (Section VII).

"We can partition a graph among worker GPUs running our kernels, but
degree updates of border vertices would be aggregated afterwards, which
can be computed at a master GPU.  Moreover, the updates may cause new
border vertices to be in k-shell, so more than one round may be needed
to compute a k-shell."

The implementation follows that sketch with an owner-compute layout,
and keeps the master only for border aggregation:

* vertices are partitioned into contiguous, edge-balanced ranges; each
  worker device owns one range ``[lo, hi)`` and holds its slice of the
  CSR arrays plus a full-length replica of the degree array.  The
  replica is *exact* for the worker's own vertices and *lazy* for the
  others (ghosts): a ghost only ever sits at or above its true degree,
  so the worker at most over-decrements it.  Its block buffers are
  sized to its window, not to a whole GPU: a launch appends only owned
  vertices, each at most once, so each block gets ``hi - lo`` slots
  rounded up to a whole 32-slot (128-byte) segment, capped at the
  spec's ``block_buffer_capacity``.  The rounding keeps every block's
  slice segment-aligned, so transactions and cycles are those of a
  whole-GPU buffer and only the device's peak memory moves;
* each owner finds its own frontier.  Round ``k`` starts with every
  owner running the paper's ``scan`` kernel (Alg. 2) over its window
  ``[lo, hi)`` and, where the scan found a vertex (the host reads the
  block tails, as it reads ``gpu_count``), the unmodified ``loop``
  kernel (Alg. 3) with its ownership window.  An owned vertex whose
  exact replica drops to ``k`` is appended and peeled inside the
  launch, as on one GPU; ghosts are decremented but never appended.
  An owner whose window is fully peeled (its ``gpu_count`` equals
  ``hi - lo``) stops launching, as ``gpu_peel`` stops at ``n``;
* after each sub-round, each worker sends the master ``(id, delta)``
  pairs for the *ghosts* whose replica moved since its last exchange
  (a host-side copy of the replica as of that exchange gives the
  deltas).  The master sums them per id and routes each sum to the
  vertex's owner as an ``(id, sum)`` pair.  The owner applies a sum
  only where its exact replica is still above ``k`` — every owned
  vertex at or below ``k`` is already dead — and clamps the result at
  ``k``, the cross-device analogue of the Fig. 6 restore trick.
  Transfers and the reduction are charged per word actually moved, so
  a sub-round that touches few border vertices exchanges little;
* the routed ids that land on ``k`` are new k-shell members, pushed
  there only by other devices' decrements, exactly as the sketch warns
  ("more than one round may be needed").  They seed their owner's
  block buffers for a further sub-round that runs only the ``loop``
  kernel, charged one transferred word per seed; no owner re-scans.
  Sub-rounds repeat while some owner has seeds.  With one device there
  is no ghost, so each round is one sub-round, and the run makes
  ``gpu_peel``'s launches less the loop launches of the rounds whose
  scan found nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

import repro.core.fastsim  # noqa: F401  (registers vectorized executors)
from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.core.variants import VariantConfig, get_variant
from repro.errors import ReproError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device
from repro.gpusim.engine import ExecutionEngine, get_engine
from repro.gpusim.scheduler import KernelFn
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


#: block-buffer slots per 128-byte global-memory transaction (4-byte ids)
_SEGMENT_SLOTS = 32


class _Worker:
    """One worker device: its window ``[lo, hi)``, its CSR slice, the
    full-length degree replica and its block buffers, sized to the
    window."""

    def __init__(
        self, graph: CSRGraph, device: Device, lo: int, hi: int,
        cfg: VariantConfig,
    ) -> None:
        spec = device.spec
        self.device = device
        self.lo = lo
        self.hi = hi
        self.grid_dim = grid_dim = spec.default_grid_dim
        # A launch appends each owned vertex at most once and never a
        # ghost, and seed() resets the tails, so no block holds more
        # than hi - lo entries.  Rounding up to whole segments keeps
        # every transaction count, and so every cycle, unchanged.
        window = -(-max(hi - lo, 1) // _SEGMENT_SLOTS) * _SEGMENT_SLOTS
        self.capacity = min(spec.block_buffer_capacity, window)
        # the CSR slice: offsets re-based to the window's first vertex
        self.offsets = device.malloc(
            "offsets", graph.offsets[lo : hi + 1] - graph.offsets[lo]
        )
        self.neighbors = device.malloc(
            "neighbors", graph.neighbors[graph.offsets[lo] : graph.offsets[hi]]
        )
        self.deg = device.malloc("deg", graph.degrees)  # full replica
        # host-side copy of the ghost replicas as of the last exchange
        self.base = graph.degrees.astype(np.int64)
        self.buf = device.malloc("buf", grid_dim * self.capacity)
        self.tails = device.malloc("buf_tails", grid_dim)
        self.count = device.malloc("gpu_count", 1)
        if cfg.compaction != "none":
            # the scan's compaction staging, sized as gpu_peel sizes it
            device.malloc(
                "compaction_scratch",
                3 * grid_dim * spec.default_block_dim,
            )
        self.peeled = 0  # gpu_count as last read back

    def launch(
        self, kernel: KernelFn, args: tuple[Any, ...]
    ) -> dict[str, Any]:
        """Launch ``kernel`` on this device; its critpath record."""
        stats = self.device.launch(kernel, args=args)
        return {"device": self.device.name,
                "kernel": getattr(kernel, "__name__", "kernel"),
                "stats": stats}

    def seed(self, ids: np.ndarray) -> None:
        """Deal ``ids`` round-robin over the block buffers."""
        self.tails.data[:] = 0
        for b in range(self.grid_dim):
            share = ids[b :: self.grid_dim]
            start = b * self.capacity
            self.buf.data[start : start + share.size] = share
            self.tails.data[b] = share.size

    def ghost_deltas(self) -> tuple[np.ndarray, np.ndarray]:
        """The ghosts the last launch decremented, as ``(id, delta)``
        pairs: a ghost replica still equals its last-exchange copy
        wherever no kernel decremented it."""
        deg, base = self.deg.data, self.base
        moved = deg != base
        moved[self.lo : self.hi] = False  # owned entries are not tracked
        ids = moved.nonzero()[0]
        delta = deg[ids] - base[ids]
        base[ids] = deg[ids]
        return ids, delta

    def apply(self, ids: np.ndarray, sums: np.ndarray, k: int) -> np.ndarray:
        """Apply the routed ghost-delta ``sums`` to owned ``ids``;
        returns the ids that land on ``k``."""
        deg = self.deg.data
        now = deg[ids]
        # an owned vertex at or below k is dead: it keeps its core
        live = now > k
        ids = ids[live]
        # cross-device restore: a vertex driven below k by concurrent
        # remote decrements belongs to the k-shell
        now = np.maximum(now[live] + sums[live], k)
        deg[ids] = now
        return ids[now == k]


def _sum_by_id(
    gathered: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """The gathered ``(id, delta)`` pairs summed per id, as sorted ids
    and their sums (each worker's ids are unique)."""
    if len(gathered) == 1:  # one worker's ids are already sorted
        return gathered[0]
    ids = np.concatenate([ids for ids, _ in gathered])
    deltas = np.concatenate([delta for _, delta in gathered])
    order = np.argsort(ids, kind="stable")
    ids, deltas = ids[order], deltas[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    return ids[starts], np.add.reduceat(deltas, starts)


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
    too big for one GPU fits a partitioned cluster.  A device holds its
    CSR slice, a full-length degree replica and block buffers sized to
    its window (see the module docs), so the peak falls as devices are
    added; with one device it is ``gpu_peel``'s at
    ``buffer_capacity`` = ``n`` rounded up to 32 slots.
    ``stats["sub_rounds"]`` counts the sub-rounds whose frontier is not
    empty; ``exchange_words`` counts every word moved (gathered and
    routed pairs) and ``broadcast_words`` the routed ones.

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
    shared_capacity = spec.shared_buffer_capacity if cfg.shared_buffer else 0
    workers = [
        _Worker(graph, device, lo, hi, cfg)
        for device, (lo, hi) in zip(devices, ranges)
    ]

    cost = devices[0].cost_model
    coordinator_cycles = 0.0
    raw_rounds: list[dict] = []  # per sub-round cost terms for critpath
    removed = 0
    k = 0
    sub_rounds = 0
    exchange_words = 0
    broadcast_words = 0
    # each worker's first vertex, then n: cuts a sorted id list by owner
    owner_starts = [lo for lo, _ in ranges] + [n]
    max_rounds = graph.max_degree + 2
    while removed < n:
        if k > max_rounds:
            raise ReproError(
                f"multi-GPU peeling stalled at round {k} "
                f"({removed}/{n} removed)"
            )
        if trackers is not None:
            for mt in trackers:
                mt.set_round(k)
        # owner index -> the routed ids that crossed to k; None in the
        # round's first sub-round, whose frontiers the owners scan
        seeds: dict[int, np.ndarray] | None = None
        while True:  # sub-rounds of round k
            frontier = 0
            gathered: list[tuple[np.ndarray, np.ndarray]] = []
            worker_ms = []
            seed_cycles = []
            round_launches: list[list[dict[str, Any]]] = []
            for d, w in enumerate(workers):
                device = w.device
                before_ms = device.elapsed_ms
                launches: list[dict[str, Any]] = []
                seed = 0.0
                members = 0  # the frontier this worker starts from
                if seeds is None:
                    if w.peeled < w.hi - w.lo:
                        launches.append(w.launch(
                            scan_kernel,
                            (k, w.deg, w.buf, w.tails, w.hi, w.capacity,
                             cfg, w.lo),
                        ))
                        # the scan's block tails, read back
                        members = sum(device.read_back(w.tails).tolist())
                else:
                    mine = seeds.get(d)
                    if mine is not None:
                        w.seed(mine)
                        seed = mine.size * opts.transfer_cycles_per_word
                        members = mine.size
                frontier += members
                seed_cycles.append(seed)
                coordinator_cycles += seed
                if members:
                    launches.append(w.launch(
                        loop_kernel,
                        (k, w.offsets, w.neighbors, w.deg, w.buf, w.tails,
                         w.count, w.capacity, shared_capacity, cfg,
                         (w.lo, w.hi)),
                    ))
                    w.peeled = int(device.read_back(w.count)[0])
                    ghosts = w.ghost_deltas()
                    if ghosts[0].size:
                        gathered.append(ghosts)
                worker_ms.append(device.elapsed_ms - before_ms)
                round_launches.append(launches)
            removed = sum(w.peeled for w in workers)
            # ---- master aggregation of border-vertex degree updates ----
            pairs = sum(ids.size for ids, _ in gathered)
            routed = 0
            seeds = {}
            if gathered:
                ids, sums = _sum_by_id(gathered)
                routed = ids.size
                # each sum goes to the vertex's owner only, which keeps
                # owned replicas exact; ghosts stay lazy
                cuts = np.searchsorted(ids, owner_starts).tolist()
                for d, w in enumerate(workers):
                    a, b = cuts[d], cuts[d + 1]
                    if a < b:
                        crossed = w.apply(ids[a:b], sums[a:b], k)
                        if crossed.size:
                            seeds[d] = crossed
            words = 2 * pairs + 2 * routed
            exchange_words += words
            broadcast_words += 2 * routed
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
            coordinator_cycles += max(worker_cycles)
            if frontier:
                sub_rounds += 1
            if critpath:
                raw_rounds.append({
                    "k": k,
                    "frontier": frontier,
                    "seed_cycles": seed_cycles,
                    "worker_cycles": worker_cycles,
                    "exchange_cycles": exchange_cycles,
                    "launches": round_launches,
                })
            if not seeds:
                break
        k += 1

    core = np.empty(n, dtype=np.int64)
    for w in workers:  # each owner's exact replica holds its cores
        core[w.lo : w.hi] = w.device.read_back(w.deg)[w.lo : w.hi]
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
            # the capacity the largest window's launches ran with
            env=launch_env(
                n, len(graph.neighbors), graph.max_degree, spec, cfg,
                max(w.capacity for w in workers),
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
