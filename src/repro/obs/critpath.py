"""Causal critical-path analysis with what-if projections.

The rest of the observability stack (tracer, profiler, memory tracker,
run reports) is *descriptive*: it reports where cycles went.  This
module is *causal*: it reconstructs the dependency DAG of one run —
host rounds -> kernel launches -> per-block timings, and per-worker
tracks for :func:`repro.core.multigpu.multi_gpu_peel` — computes the
critical path and per-span slack, and projects what the run *would*
have cost under counterfactuals ("what if atomics were free?  if every
access coalesced perfectly?  if the interconnect were infinite?").

Three properties make the analysis trustworthy rather than indicative:

**Exact accounting.**  Every figure in a ``repro.critpath/v1`` record
is re-derivable from the record itself, and :func:`validate_critpath`
re-derives all of them with *zero tolerance* — in the style of
:func:`repro.profile.validate_profile` and
:func:`repro.obs.runreport.validate_runreport`.  Exactness is achieved
by re-running the identical float operations in the identical order
the simulator used (the scheduler's round-robin SM fold, the device's
left-to-right cycle accumulation, the coordinator's bookkeeping
order), never by comparing algebraically-equivalent rearrangements.
In particular the per-track invariant *critical-path cycles + off-path
slack == elapsed* is enforced as ``off_path == elapsed - on_path`` —
the very subtraction that produced the stored slack.

**Bracketed projections.**  Every what-if projection is clamped below
the measured time (a counterfactual that removes work can only help)
and checked against a *static floor certificate*: the contract
registry (:mod:`repro.staticheck.contracts`) lets a kernel declare
:class:`~repro.staticheck.bounds.KernelFloors` — work no counterfactual
can erase — and the projection must stay above it.  A kernel without a
floor (e.g. BFS) gets zero, keeping the bracket trivially valid, so
every kernel admitted via the registry inherits the analyzer with zero
analyzer edits.

**Causal attribution for multi-GPU.**  Each ``multi_gpu_peel``
sub-round is classified by the component that dominated it —
``compute`` (mean worker load), ``straggler`` (the gap between the
slowest and the mean worker), or ``exchange`` (seeding the crossed
vertices + the ghost-delta gather and routing) — the communication
attribution of the partitioned run.

See the "Critical path & what-if" section of ``docs/OBSERVABILITY.md``
and the CI gate ``scripts/gate.py critpath``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.gpusim.costmodel import CostModel
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.spec import DeviceSpec

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIOS",
    "ROUND_BOUND_CLASSES",
    "CritPathCollector",
    "CritPathReport",
    "build_multi_critpath",
    "kernel_floor_cycles",
    "validate_critpath",
    "render_critpath",
]

SCHEMA_VERSION = "repro.critpath/v1"

#: the counterfactuals the projection engine understands, and which
#: cost-model term each erases (see ``_project_block``):
#:
#: * ``free_atomics`` — atomic serialisation leaves the warp critical
#:   path (``latency -= atomic_cycles``, floored at zero);
#: * ``perfect_coalescing`` — every access takes its ideal transaction
#:   count (``memory -> min(memory, ideal_memory)``);
#: * ``zero_barriers`` — barrier generations cost nothing;
#: * ``infinite_interconnect`` — multi-GPU partition seeding and
#:   frontier/core exchange are free (a no-op for single-device runs);
#: * ``speed_of_light`` — all of the above at once.
SCENARIOS = (
    "free_atomics",
    "perfect_coalescing",
    "zero_barriers",
    "infinite_interconnect",
    "speed_of_light",
)

#: what dominated one multi-GPU sub-round
ROUND_BOUND_CLASSES = ("compute", "straggler", "exchange")

_BLOCK_FIELDS = (
    "compute", "memory", "latency", "barrier", "atomic", "ideal_memory",
)


# -- shared primitives -------------------------------------------------------
#
# Builder and validator both go through these helpers, so "re-derive"
# means literally re-running the same code over the stored record.


def _blocks_from_stats(
    stats: KernelStats, cost: CostModel
) -> List[List[float]]:
    """Precompute each block's cycle terms, in block order.

    A stored block is ``[compute, memory, latency, barrier, atomic,
    ideal_memory]`` — the first three are
    :meth:`CostModel.pipeline_terms` verbatim, ``barrier`` is the
    block's barrier cost (``barriers * barrier_cycles``), and the last
    two are the terms the what-if scenarios may erase (atomic stall
    cycles inside ``latency``; the perfectly-coalesced memory cost).
    """
    if stats.block_timings is None:
        raise ValueError(
            "critpath needs per-block timings: launch with a profiler "
            "attached (critpath implies profile)"
        )
    blocks: List[List[float]] = []
    for timing in stats.block_timings:
        compute, memory, latency = cost.pipeline_terms(timing)
        blocks.append([
            compute,
            memory,
            latency,
            timing.barriers * cost.barrier_cycles,
            timing.atomic_cycles,
            timing.mem_ideal_transactions * cost.mem_transaction_cycles,
        ])
    return blocks


def _scenario_flags(scenario: str) -> Tuple[bool, bool, bool, bool]:
    """``(free_atomics, perfect_coalescing, zero_barriers,
    infinite_interconnect)`` for one scenario name."""
    sol = scenario == "speed_of_light"
    return (
        sol or scenario == "free_atomics",
        sol or scenario == "perfect_coalescing",
        sol or scenario == "zero_barriers",
        sol or scenario == "infinite_interconnect",
    )


def _project_block(
    block: Sequence[float], atomics: bool, coalesce: bool, barriers: bool
) -> float:
    """One block's busy cycles under a counterfactual.

    With every flag off this reproduces
    :meth:`CostModel.block_cycles` bit for bit (same terms, same
    ``max``, same addition); each flag only ever shrinks a term, so the
    projection is monotonically below the measurement.
    """
    compute, memory, latency, barrier, atomic, ideal = block
    if atomics:
        latency = latency - atomic
        if latency < 0.0:
            latency = 0.0
    if coalesce and ideal < memory:
        memory = ideal
    if barriers:
        barrier = 0.0
    return max(compute, memory, latency) + barrier


def _fold_lanes(busies: Sequence[float], num_sms: int) -> List[float]:
    """The scheduler's round-robin SM assignment, verbatim
    (:meth:`CostModel.kernel_cycles`)."""
    lanes = [0.0] * max(1, num_sms)
    for i, busy in enumerate(busies):
        lanes[i % len(lanes)] += busy
    return lanes


def _project_launch(
    blocks: Sequence[Sequence[float]],
    num_sms: int,
    atomics: bool,
    coalesce: bool,
    barriers: bool,
) -> float:
    """One launch's kernel cycles under a counterfactual."""
    if not blocks:
        return 0.0
    return max(_fold_lanes(
        [_project_block(b, atomics, coalesce, barriers) for b in blocks],
        num_sms,
    ))


def _fold(values: Any) -> float:
    """Left-to-right float accumulation — the only summation this
    module uses, matching the simulator's ``+=`` loops."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


def _classify_round(
    seed_cycles: Sequence[float],
    worker_cycles: Sequence[float],
    exchange_cycles: float,
    num_devices: int,
) -> Dict[str, Any]:
    """Attribute one multi-GPU sub-round to its dominating component.

    * ``compute``  = mean worker load — the work an ideal, perfectly
      balanced, zero-exchange cluster would still do;
    * ``straggler`` = slowest worker minus the mean — pure imbalance;
    * ``exchange`` = seeding the crossed vertices + the ghost-delta
      gather and routing — pure communication.

    The bound class is the argmax, ties resolved in that priority
    order.  Builder and validator share this function, so the gate's
    "pin each round's class" check is a re-derivation, not a heuristic.
    """
    compute = _fold(worker_cycles) / float(num_devices)
    peak = max(worker_cycles)
    straggler = peak - compute
    exchange = _fold(seed_cycles) + exchange_cycles
    bound = "compute"
    best = compute
    if straggler > best:
        bound, best = "straggler", straggler
    if exchange > best:
        bound, best = "exchange", exchange
    return {
        "compute_cycles": compute,
        "straggler_cycles": straggler,
        "exchange_total_cycles": exchange,
        "bound": bound,
        "critical_worker": list(worker_cycles).index(peak),
    }


def kernel_floor_cycles(
    name: str,
    cfg: Any,
    env: Optional[Mapping[str, float]],
    cost: CostModel,
    num_sms: int,
    launches: int,
) -> float:
    """Static floor (in cycles) for ``launches`` launches of kernel
    ``name`` — via the contract registry, so any admitted kernel that
    declares :class:`~repro.staticheck.bounds.KernelFloors` is floored
    and every other kernel gets the trivial zero."""
    if cfg is None or env is None:
        return 0.0
    from repro.staticheck import contracts
    from repro.staticheck.bounds import floor_cycles

    try:
        contract = contracts.kernel_contract(name)
    except KeyError:
        return 0.0
    if contract.floors is None:
        return 0.0
    floors = contract.floors(cfg)
    value = floor_cycles(floors, cost, env, num_sms)
    return value * float(launches) if floors.per_launch else value


# -- what-if projection (shared by builder and validator) --------------------


def _project_single(
    record: Mapping[str, Any], scenario: str
) -> Tuple[float, Dict[str, Dict[str, float]]]:
    """Projected total cycles + per-kernel breakdown for one scenario
    over a single-device record's nodes."""
    atomics, coalesce, barriers, _ = _scenario_flags(scenario)
    num_sms = int(record["clock"]["num_sms"])
    transform = atomics or coalesce or barriers
    # fold from the device's pre-run cycles, mirroring its own
    # accumulator, so an identity scenario reproduces the measured
    # clock bit for bit
    total = record["base"]["cycles"]
    per_kernel: Dict[str, Dict[str, float]] = {}
    for node in record["nodes"]:
        measured = node["cycles"]
        if transform:
            projected = _project_launch(
                node["blocks"], num_sms, atomics, coalesce, barriers
            )
            if projected > measured:
                projected = measured
        else:
            projected = measured
        total += projected
        agg = per_kernel.setdefault(
            node["name"],
            {"measured_cycles": 0.0, "projected_cycles": 0.0},
        )
        agg["measured_cycles"] += measured
        agg["projected_cycles"] += projected
    return total, per_kernel


def _project_multi(
    record: Mapping[str, Any], scenario: str
) -> Tuple[float, Dict[str, Dict[str, float]]]:
    """Projected coordinator cycles + per-kernel breakdown for one
    scenario over a multi-GPU record's rounds.

    Follows the coordinator's accumulation order exactly (seeds,
    exchange, slowest worker), dropping the seeding and exchange terms
    under ``infinite_interconnect`` and re-timing each worker's kernels
    under the block-level flags.  A worker's launch overhead (its
    cycles beyond its kernels) is preserved; the projection is clamped
    at the measurement.
    """
    atomics, coalesce, barriers, interconnect = _scenario_flags(scenario)
    num_sms = int(record["clock"]["num_sms"])
    transform = atomics or coalesce or barriers
    total = 0.0
    per_kernel: Dict[str, Dict[str, float]] = {}
    for rnd in record["rounds"]:
        projected_workers: List[float] = []
        for worker, measured in enumerate(rnd["worker_cycles"]):
            launches = rnd["launches"][worker]
            kernels: List[float] = []
            for launch in launches:
                kernel = (
                    _project_launch(
                        launch["blocks"], num_sms, atomics, coalesce,
                        barriers,
                    )
                    if transform else launch["cycles"]
                )
                kernels.append(kernel)
                agg = per_kernel.setdefault(
                    launch["kernel"],
                    {"measured_cycles": 0.0, "projected_cycles": 0.0},
                )
                agg["measured_cycles"] += launch["cycles"]
                agg["projected_cycles"] += kernel
            if transform and launches:
                residual = measured - _fold(
                    launch["cycles"] for launch in launches
                )
                if residual < 0.0:
                    residual = 0.0
                projected = residual + _fold(kernels)
                if projected > measured:
                    projected = measured
            else:
                projected = measured
            projected_workers.append(projected)
        if not interconnect:
            for seed in rnd["seed_cycles"]:
                total += seed
            total += rnd["exchange_cycles"]
        if projected_workers:
            total += max(projected_workers)
    return total, per_kernel


def _whatif_table(
    record: Mapping[str, Any],
    kernels: Mapping[str, Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """The ranked speedup-ceiling table, one row per scenario."""
    single = record["kind"] == "single"
    clock = record["clock"]
    measured_ms = record["elapsed_ms"]
    rows: List[Dict[str, Any]] = []
    floor_fold = _fold(agg["floor_cycles"] for agg in kernels.values())
    for scenario in SCENARIOS:
        if single:
            cycles, per_kernel = _project_single(record, scenario)
            projected_ms = (
                cycles / (clock["clock_ghz"] * 1e6)
                + record["kernel_launches"]
                * clock["kernel_launch_us"] / 1000.0
            )
            floor_ms = (
                (record["base"]["cycles"] + floor_fold)
                / (clock["clock_ghz"] * 1e6)
                + record["kernel_launches"]
                * clock["kernel_launch_us"] / 1000.0
            )
        else:
            cycles, per_kernel = _project_multi(record, scenario)
            projected_ms = cycles / (clock["clock_ghz"] * 1e6)
            floor_ms = floor_fold / (clock["clock_ghz"] * 1e6)
        for name, agg in per_kernel.items():
            agg["floor_cycles"] = kernels[name]["floor_cycles"]
        rows.append({
            "scenario": scenario,
            "measured_ms": measured_ms,
            "projected_cycles": cycles,
            "projected_ms": projected_ms,
            "floor_ms": floor_ms,
            "speedup_ceiling": (
                measured_ms / projected_ms if projected_ms > 0.0 else 1.0
            ),
            "per_kernel": per_kernel,
        })
    rows.sort(key=lambda row: (-row["speedup_ceiling"], row["scenario"]))
    return rows


# -- single-device collector -------------------------------------------------


@dataclass
class CritPathCollector:
    """Accumulates the causal record of one single-device host run.

    The host calls :meth:`observe_launch` after every
    :meth:`~repro.gpusim.device.Device.launch` (with a profiler
    attached, so per-block timings ride along on the stats) and
    :meth:`build` once the device clock is final.  ``cfg``/``env`` feed
    the contract registry's floor certificates; without them every
    floor is zero.
    """

    spec: DeviceSpec
    cost: CostModel
    algorithm: str
    variant: str
    track: str = "device"
    cfg: Any = None
    env: Optional[Mapping[str, float]] = None
    base_cycles: float = 0.0
    base_launches: int = 0
    _nodes: List[Dict[str, Any]] = field(default_factory=list)

    def observe_launch(
        self, name: str, stats: KernelStats, round_index: Any = None
    ) -> None:
        """Record one kernel launch as the next node of the serial
        dependency chain."""
        node_id = len(self._nodes)
        self._nodes.append({
            "id": node_id,
            "kind": "kernel",
            "name": name,
            "round": round_index,
            "track": self.track,
            "deps": [node_id - 1] if node_id else [],
            "cycles": stats.cycles,
            "blocks": _blocks_from_stats(stats, self.cost),
        })

    def build(self, elapsed_ms: float, kernel_launches: int) -> "CritPathReport":
        """Finalise the record: lanes, slack, accounting, floors and
        the ranked what-if table."""
        num_sms = self.spec.num_sms
        window = 0.0
        total = self.base_cycles
        lane_slack_total = 0.0
        kernels: Dict[str, Dict[str, Any]] = {}
        for node in self._nodes:
            cycles = node["cycles"]
            lanes = _fold_lanes(
                [max(b[0], b[1], b[2]) + b[3] for b in node["blocks"]],
                num_sms,
            )
            node["lanes"] = [
                {
                    "sm": sm,
                    "cycles": lane,
                    "slack_cycles": cycles - lane,
                    "critical": lane == cycles,
                }
                for sm, lane in enumerate(lanes)
            ]
            node["lane_slack_cycles"] = _fold(
                cycles - lane for lane in lanes
            )
            # the chain is serial: every launch gates the next, so every
            # node is on the path and inter-node slack is zero — the
            # interesting slack lives inside the launch, across SM lanes
            node["critical"] = True
            node["slack_cycles"] = 0.0
            window += cycles
            total += cycles
            lane_slack_total += node["lane_slack_cycles"]
            agg = kernels.setdefault(node["name"], {
                "launches": 0, "cycles": 0.0, "lane_slack_cycles": 0.0,
            })
            agg["launches"] += 1
            agg["cycles"] += cycles
            agg["lane_slack_cycles"] += node["lane_slack_cycles"]
        for name, agg in kernels.items():
            agg["floor_cycles"] = kernel_floor_cycles(
                name, self.cfg, self.env, self.cost, num_sms,
                agg["launches"],
            )
        record: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": "single",
            "algorithm": self.algorithm,
            "variant": self.variant,
            "elapsed_ms": elapsed_ms,
            "kernel_launches": kernel_launches,
            "base": {
                "cycles": self.base_cycles,
                "launches": self.base_launches,
            },
            "clock": {
                "clock_ghz": self.cost.clock_ghz,
                "kernel_launch_us": self.cost.kernel_launch_us,
                "issue_width": self.cost.issue_width,
                "mem_transaction_cycles": self.cost.mem_transaction_cycles,
                "barrier_cycles": self.cost.barrier_cycles,
                "num_sms": num_sms,
            },
            "nodes": self._nodes,
            "critical_path": [node["id"] for node in self._nodes],
            "tracks": [{
                "track": self.track,
                "busy_cycles": window,
                "idle_cycles": window - window,
                "on_path_cycles": window,
                "off_path_cycles": window - window,
            }],
            "accounting": {
                "window_cycles": window,
                "total_cycles": total,
                "lane_slack_cycles": lane_slack_total,
            },
            "kernels": kernels,
            "rounds": [],
        }
        record["whatif"] = _whatif_table(record, kernels)
        return CritPathReport(record)


# -- multi-GPU builder -------------------------------------------------------


def _multi_nodes(
    rounds: Sequence[Mapping[str, Any]], num_devices: int
) -> Tuple[List[Dict[str, Any]], List[int]]:
    """The causal DAG of a multi-GPU run, derived from its rounds.

    Per sub-round: one ``seed`` node per worker (the coordinator is
    serial, so these chain), one ``worker`` node per device (gated by
    its seed; only the slowest is on the path), and an ``exchange``
    join node gated by every worker.
    """
    nodes: List[Dict[str, Any]] = []
    path: List[int] = []

    def add(node: Dict[str, Any], on_path: bool) -> int:
        node["id"] = len(nodes)
        nodes.append(node)
        if on_path:
            path.append(node["id"])
        return node["id"]

    prev_master = -1
    for rnd in rounds:
        k = rnd["k"]
        peak = max(rnd["worker_cycles"])
        critical_worker = rnd["critical_worker"]
        worker_ids: List[int] = []
        for worker in range(num_devices):
            launches = rnd["launches"][worker]
            track = launches[0]["device"] if launches else f"gpu{worker}"
            prev_master = add({
                "kind": "seed",
                "name": f"seed {track} k={k}",
                "round": k,
                "track": "master",
                "worker": worker,
                "deps": [prev_master] if prev_master >= 0 else [],
                "cycles": rnd["seed_cycles"][worker],
                "critical": True,
                "slack_cycles": 0.0,
            }, on_path=True)
            kernels = "+".join(launch["kernel"] for launch in launches)
            worker_ids.append(add({
                "kind": "worker",
                "name": f"{kernels or 'idle'} k={k}",
                "round": k,
                "track": track,
                "worker": worker,
                "deps": [prev_master],
                "cycles": rnd["worker_cycles"][worker],
                "critical": worker == critical_worker,
                "slack_cycles": peak - rnd["worker_cycles"][worker],
            }, on_path=False))
        path.append(worker_ids[critical_worker])
        prev_master = add({
            "kind": "exchange",
            "name": f"exchange k={k}",
            "round": k,
            "track": "master",
            "deps": [prev_master] + worker_ids,
            "cycles": rnd["exchange_cycles"],
            "critical": True,
            "slack_cycles": 0.0,
        }, on_path=True)
    return nodes, path


def _multi_accounting(
    rounds: Sequence[Mapping[str, Any]]
) -> float:
    """The coordinator's cycle accumulation, re-folded in its exact
    bookkeeping order: seeds, exchange, slowest worker."""
    total = 0.0
    for rnd in rounds:
        for seed in rnd["seed_cycles"]:
            total += seed
        total += rnd["exchange_cycles"]
        worker_cycles = rnd["worker_cycles"]
        if worker_cycles:
            total += max(worker_cycles)
    return total


def _multi_tracks(
    rounds: Sequence[Mapping[str, Any]],
    num_devices: int,
    total: float,
    worker_names: Sequence[str],
) -> List[Dict[str, Any]]:
    """Per-track busy/idle and on-/off-path accounting."""
    master_busy = 0.0
    worker_busy = [0.0] * num_devices
    worker_on_path = [0.0] * num_devices
    for rnd in rounds:
        for seed in rnd["seed_cycles"]:
            master_busy += seed
        master_busy += rnd["exchange_cycles"]
        for worker, cycles in enumerate(rnd["worker_cycles"]):
            worker_busy[worker] += cycles
            if worker == rnd["critical_worker"]:
                worker_on_path[worker] += cycles
    tracks = [{
        "track": "master",
        "busy_cycles": master_busy,
        "idle_cycles": total - master_busy,
        "on_path_cycles": master_busy,
        "off_path_cycles": total - master_busy,
    }]
    for worker in range(num_devices):
        tracks.append({
            "track": worker_names[worker],
            "busy_cycles": worker_busy[worker],
            "idle_cycles": total - worker_busy[worker],
            "on_path_cycles": worker_on_path[worker],
            "off_path_cycles": total - worker_on_path[worker],
        })
    return tracks


def build_multi_critpath(
    *,
    algorithm: str,
    variant: str,
    num_devices: int,
    rounds: Sequence[Dict[str, Any]],
    elapsed_ms: float,
    spec: DeviceSpec,
    cost: CostModel,
    transfer_cycles_per_word: float,
    reduce_cycles_per_word: float,
    worker_names: Sequence[str],
    cfg: Any = None,
    env: Optional[Mapping[str, float]] = None,
) -> "CritPathReport":
    """Finalise the causal record of one ``multi_gpu_peel`` run.

    ``rounds`` carries, per sub-round, the coordinator's raw cost
    components (``k``, ``frontier``, ``seed_cycles``,
    ``worker_cycles``, ``exchange_cycles``) and per worker the list of
    its launches, each ``{"device", "kernel", "stats"}``, under
    ``"launches"`` — the builder converts the stats into stored block
    terms, classifies every round, and assembles DAG, tracks,
    accounting and the what-if table.
    """
    kernels: Dict[str, Dict[str, Any]] = {}
    for rnd in rounds:
        rnd.update(_classify_round(
            rnd["seed_cycles"], rnd["worker_cycles"],
            rnd["exchange_cycles"], num_devices,
        ))
        launches: List[List[Dict[str, Any]]] = []
        for worker_launches in rnd["launches"]:
            launches.append([])
            for raw in worker_launches:
                stats = raw["stats"]
                launches[-1].append({
                    "device": raw["device"],
                    "kernel": raw["kernel"],
                    "cycles": stats.cycles,
                    "blocks": _blocks_from_stats(stats, cost),
                })
                agg = kernels.setdefault(raw["kernel"], {
                    "launches": 0, "cycles": 0.0,
                    "lane_slack_cycles": 0.0,
                })
                agg["launches"] += 1
                agg["cycles"] += stats.cycles
        rnd["launches"] = launches
    for name, agg in kernels.items():
        # a D-way partition sweeps the same total adjacency, so the
        # makespan floor is the run-level work floor spread over D
        # workers (busiest worker >= mean)
        agg["floor_cycles"] = kernel_floor_cycles(
            name, cfg, env, cost, spec.num_sms, agg["launches"],
        ) / float(num_devices)
    total = _multi_accounting(rounds)
    nodes, path = _multi_nodes(rounds, num_devices)
    histogram = {cls: 0 for cls in ROUND_BOUND_CLASSES}
    for rnd in rounds:
        histogram[rnd["bound"]] += 1
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "multi",
        "algorithm": algorithm,
        "variant": variant,
        "num_devices": num_devices,
        "elapsed_ms": elapsed_ms,
        "clock": {
            "clock_ghz": cost.clock_ghz,
            "kernel_launch_us": cost.kernel_launch_us,
            "issue_width": cost.issue_width,
            "mem_transaction_cycles": cost.mem_transaction_cycles,
            "barrier_cycles": cost.barrier_cycles,
            "num_sms": spec.num_sms,
            "transfer_cycles_per_word": transfer_cycles_per_word,
            "reduce_cycles_per_word": reduce_cycles_per_word,
        },
        "rounds": list(rounds),
        "round_bounds": histogram,
        "nodes": nodes,
        "critical_path": path,
        "tracks": _multi_tracks(
            rounds, num_devices, total, worker_names
        ),
        "accounting": {
            "window_cycles": total,
            "total_cycles": total,
        },
        "kernels": kernels,
    }
    record["whatif"] = _whatif_table(record, kernels)
    return CritPathReport(record)


# -- validation --------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_whatif(
    record: Mapping[str, Any], problems: List[str]
) -> None:
    rows = record.get("whatif")
    if not isinstance(rows, list):
        problems.append("whatif must be a list")
        return
    seen = [row.get("scenario") for row in rows]
    if sorted(seen) != sorted(SCENARIOS):
        problems.append(
            f"whatif must cover exactly {SCENARIOS}, got {seen}"
        )
        return
    ceilings = [row["speedup_ceiling"] for row in rows]
    if ceilings != sorted(ceilings, reverse=True):
        problems.append("whatif rows must be ranked by speedup ceiling")
    kernels = record["kernels"]
    floor_fold = _fold(agg["floor_cycles"] for agg in kernels.values())
    clock = record["clock"]
    for row in rows:
        scenario = row["scenario"]
        where = f"whatif[{scenario}]"
        if row["measured_ms"] != record["elapsed_ms"]:
            problems.append(
                f"{where}: measured_ms != record elapsed_ms"
            )
        if record["kind"] == "single":
            cycles, per_kernel = _project_single(record, scenario)
            projected_ms = (
                cycles / (clock["clock_ghz"] * 1e6)
                + record["kernel_launches"]
                * clock["kernel_launch_us"] / 1000.0
            )
            floor_ms = (
                (record["base"]["cycles"] + floor_fold)
                / (clock["clock_ghz"] * 1e6)
                + record["kernel_launches"]
                * clock["kernel_launch_us"] / 1000.0
            )
        else:
            cycles, per_kernel = _project_multi(record, scenario)
            projected_ms = cycles / (clock["clock_ghz"] * 1e6)
            floor_ms = floor_fold / (clock["clock_ghz"] * 1e6)
        if row["projected_cycles"] != cycles:
            problems.append(
                f"{where}: projected_cycles {row['projected_cycles']!r} "
                f"!= re-derived {cycles!r}"
            )
        if row["projected_ms"] != projected_ms:
            problems.append(
                f"{where}: projected_ms {row['projected_ms']!r} != "
                f"re-derived {projected_ms!r}"
            )
        if row["floor_ms"] != floor_ms:
            problems.append(
                f"{where}: floor_ms {row['floor_ms']!r} != re-derived "
                f"{floor_ms!r}"
            )
        if row["projected_ms"] > row["measured_ms"]:
            problems.append(
                f"{where}: projection {row['projected_ms']!r} exceeds "
                f"measured {row['measured_ms']!r}"
            )
        if row["floor_ms"] > row["projected_ms"]:
            problems.append(
                f"{where}: projection {row['projected_ms']!r} "
                f"undershoots static floor {row['floor_ms']!r}"
            )
        expected_ceiling = (
            row["measured_ms"] / row["projected_ms"]
            if row["projected_ms"] > 0.0 else 1.0
        )
        if row["speedup_ceiling"] != expected_ceiling:
            problems.append(
                f"{where}: speedup_ceiling != measured/projected"
            )
        stored_pk = row["per_kernel"]
        for name, agg in per_kernel.items():
            agg["floor_cycles"] = kernels[name]["floor_cycles"]
        if stored_pk != per_kernel:
            problems.append(
                f"{where}: per-kernel breakdown does not re-derive"
            )


def _validate_single(
    record: Mapping[str, Any], problems: List[str]
) -> None:
    clock = record["clock"]
    num_sms = int(clock["num_sms"])
    nodes = record["nodes"]
    window = 0.0
    total = record["base"]["cycles"]
    lane_slack_total = 0.0
    kernels: Dict[str, Dict[str, Any]] = {}
    for i, node in enumerate(nodes):
        where = f"nodes[{i}]"
        if node["id"] != i or node["deps"] != ([i - 1] if i else []):
            problems.append(f"{where}: broken serial dependency chain")
        if not node["critical"] or node["slack_cycles"] != 0.0:
            problems.append(
                f"{where}: a serial launch chain has every node on the "
                "path with zero slack"
            )
        cycles = node["cycles"]
        lanes = _fold_lanes(
            [max(b[0], b[1], b[2]) + b[3] for b in node["blocks"]],
            num_sms,
        )
        if cycles != max(lanes):
            problems.append(
                f"{where}: cycles {cycles!r} != busiest SM lane "
                f"{max(lanes)!r} re-derived from block terms"
            )
        stored_lanes = node["lanes"]
        if len(stored_lanes) != len(lanes):
            problems.append(f"{where}: lane count mismatch")
        else:
            for sm, lane in enumerate(lanes):
                stored = stored_lanes[sm]
                if (
                    stored["cycles"] != lane
                    or stored["slack_cycles"] != cycles - lane
                    or stored["critical"] != (lane == cycles)
                ):
                    problems.append(
                        f"{where}: lane {sm} does not re-derive"
                    )
                    break
        lane_slack = _fold(cycles - lane for lane in lanes)
        if node["lane_slack_cycles"] != lane_slack:
            problems.append(f"{where}: lane_slack_cycles mismatch")
        window += cycles
        total += cycles
        lane_slack_total += lane_slack
        agg = kernels.setdefault(node["name"], {
            "launches": 0, "cycles": 0.0, "lane_slack_cycles": 0.0,
        })
        agg["launches"] += 1
        agg["cycles"] += cycles
        agg["lane_slack_cycles"] += lane_slack
    if record["critical_path"] != [node["id"] for node in nodes]:
        problems.append(
            "critical_path must chain every launch of a serial run"
        )
    accounting = record["accounting"]
    if accounting["window_cycles"] != window:
        problems.append(
            f"accounting.window_cycles {accounting['window_cycles']!r} "
            f"!= re-folded launch cycles {window!r}"
        )
    if accounting["total_cycles"] != total:
        problems.append(
            f"accounting.total_cycles {accounting['total_cycles']!r} "
            f"!= base + re-folded launch cycles {total!r}"
        )
    if accounting["lane_slack_cycles"] != lane_slack_total:
        problems.append("accounting.lane_slack_cycles mismatch")
    launches = record["base"]["launches"] + len(nodes)
    if record["kernel_launches"] != launches:
        problems.append(
            f"kernel_launches {record['kernel_launches']} != base + "
            f"observed nodes {launches}"
        )
    elapsed = (
        total / (clock["clock_ghz"] * 1e6)
        + record["kernel_launches"] * clock["kernel_launch_us"] / 1000.0
    )
    if record["elapsed_ms"] != elapsed:
        problems.append(
            f"elapsed_ms {record['elapsed_ms']!r} != re-derived kernel "
            f"time + launch overhead {elapsed!r}"
        )
    stored_kernels = record["kernels"]
    if set(stored_kernels) != set(kernels):
        problems.append("kernels table does not match observed launches")
    else:
        for name, agg in kernels.items():
            stored = stored_kernels[name]
            agg["floor_cycles"] = stored.get("floor_cycles")
            if stored != agg:
                problems.append(
                    f"kernels[{name}]: aggregates do not re-derive"
                )
            if not _is_number(stored.get("floor_cycles")) or (
                stored["floor_cycles"] < 0.0
            ):
                problems.append(
                    f"kernels[{name}]: floor_cycles must be a "
                    "non-negative number"
                )
    tracks = record["tracks"]
    if len(tracks) != 1:
        problems.append("a single-device record has exactly one track")
    else:
        track = tracks[0]
        expected = {
            "track": track["track"],
            "busy_cycles": window,
            "idle_cycles": window - window,
            "on_path_cycles": window,
            "off_path_cycles": window - window,
        }
        if track != expected:
            problems.append(
                "track accounting does not re-derive (busy == on_path "
                "== window, idle == off_path == 0)"
            )


def _validate_multi(
    record: Mapping[str, Any], problems: List[str]
) -> None:
    clock = record["clock"]
    num_sms = int(clock["num_sms"])
    num_devices = record["num_devices"]
    rounds = record["rounds"]
    if not rounds:
        problems.append("a multi-GPU record needs at least one round")
        return
    kernels: Dict[str, Dict[str, Any]] = {}
    histogram = {cls: 0 for cls in ROUND_BOUND_CLASSES}
    for i, rnd in enumerate(rounds):
        where = f"rounds[{i}]"
        for key in ("seed_cycles", "worker_cycles", "launches"):
            if len(rnd[key]) != num_devices:
                problems.append(
                    f"{where}: {key} must have one entry per device"
                )
                return
        derived = _classify_round(
            rnd["seed_cycles"], rnd["worker_cycles"],
            rnd["exchange_cycles"], num_devices,
        )
        for key, value in derived.items():
            if rnd.get(key) != value:
                problems.append(
                    f"{where}: {key} {rnd.get(key)!r} != re-derived "
                    f"{value!r}"
                )
        if rnd["bound"] not in ROUND_BOUND_CLASSES:
            problems.append(f"{where}: unclassified round")
        else:
            histogram[rnd["bound"]] += 1
        for worker, launches in enumerate(rnd["launches"]):
            for launch in launches:
                lanes = _fold_lanes(
                    [
                        max(b[0], b[1], b[2]) + b[3]
                        for b in launch["blocks"]
                    ],
                    num_sms,
                )
                if launch["cycles"] != max(lanes):
                    problems.append(
                        f"{where}: worker {worker} launch cycles do not "
                        "re-derive from block terms"
                    )
                agg = kernels.setdefault(launch["kernel"], {
                    "launches": 0, "cycles": 0.0,
                    "lane_slack_cycles": 0.0,
                })
                agg["launches"] += 1
                agg["cycles"] += launch["cycles"]
    if record.get("round_bounds") != histogram:
        problems.append(
            f"round_bounds {record.get('round_bounds')!r} != recounted "
            f"histogram {histogram!r}"
        )
    total = _multi_accounting(rounds)
    accounting = record["accounting"]
    if accounting["total_cycles"] != total:
        problems.append(
            f"accounting.total_cycles {accounting['total_cycles']!r} "
            f"!= coordinator re-fold {total!r}"
        )
    if accounting["window_cycles"] != total:
        problems.append("accounting.window_cycles != total_cycles")
    elapsed = total / (clock["clock_ghz"] * 1e6)
    if record["elapsed_ms"] != elapsed:
        problems.append(
            f"elapsed_ms {record['elapsed_ms']!r} != re-derived "
            f"coordinator time {elapsed!r}"
        )
    worker_names = [t["track"] for t in record["tracks"][1:]]
    nodes, path = _multi_nodes(rounds, num_devices)
    if record["nodes"] != nodes:
        problems.append("nodes do not re-derive from the round records")
    if record["critical_path"] != path:
        problems.append(
            "critical_path does not re-derive from the round records"
        )
    expected_tracks = _multi_tracks(
        rounds, num_devices, total, worker_names
    )
    if record["tracks"] != expected_tracks:
        problems.append(
            "track accounting does not re-derive (busy/idle and "
            "on-/off-path folds)"
        )
    stored_kernels = record["kernels"]
    if set(stored_kernels) != set(kernels):
        problems.append("kernels table does not match worker launches")
    else:
        for name, agg in kernels.items():
            stored = stored_kernels[name]
            agg["floor_cycles"] = stored.get("floor_cycles")
            if stored != agg:
                problems.append(
                    f"kernels[{name}]: aggregates do not re-derive"
                )
            if not _is_number(stored.get("floor_cycles")) or (
                stored["floor_cycles"] < 0.0
            ):
                problems.append(
                    f"kernels[{name}]: floor_cycles must be a "
                    "non-negative number"
                )


def validate_critpath(record: Mapping[str, Any]) -> List[str]:
    """Re-derive every figure of a ``repro.critpath/v1`` record.

    Returns human-readable problem strings (empty == valid).  All
    checks are **exact**: the validator re-runs the simulator's own
    float operations in their original order over the stored raw terms
    (per-block cycle terms, per-round coordinator components) and
    requires bit-equality — no tolerance anywhere.
    """
    problems: List[str] = []
    if record.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema must be {SCHEMA_VERSION!r}, got "
            f"{record.get('schema')!r}"
        )
        return problems
    kind = record.get("kind")
    if kind not in ("single", "multi"):
        problems.append(f"kind must be 'single' or 'multi', got {kind!r}")
        return problems
    clock = record.get("clock")
    required_clock = [
        "clock_ghz", "kernel_launch_us", "issue_width",
        "mem_transaction_cycles", "barrier_cycles", "num_sms",
    ]
    if kind == "multi":
        required_clock += [
            "transfer_cycles_per_word", "reduce_cycles_per_word",
        ]
    if not isinstance(clock, dict) or not all(
        _is_number(clock.get(key)) for key in required_clock
    ):
        problems.append(
            f"clock must carry numeric {required_clock}"
        )
        return problems
    if not _is_number(record.get("elapsed_ms")):
        problems.append("elapsed_ms must be a number")
        return problems
    try:
        if kind == "single":
            _validate_single(record, problems)
        else:
            _validate_multi(record, problems)
        _check_whatif(record, problems)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(
            f"malformed record: {type(exc).__name__}: {exc}"
        )
    return problems


# -- rendering ---------------------------------------------------------------


def render_critpath(record: Mapping[str, Any]) -> str:
    """A terminal-friendly summary of one critpath record."""
    lines: List[str] = []
    kind = record["kind"]
    lines.append(
        f"critical path — {record['algorithm']} "
        f"(variant {record['variant']}, {kind})"
    )
    lines.append(
        f"  elapsed {record['elapsed_ms']:.6f} ms simulated, "
        f"{len(record['nodes'])} node(s), "
        f"{len(record['critical_path'])} on the critical path"
    )
    for track in record["tracks"]:
        lines.append(
            f"  track {track['track']:>8}: "
            f"{track['on_path_cycles']:>14.1f} cycles on path, "
            f"{track['off_path_cycles']:>12.1f} off-path slack, "
            f"{track['idle_cycles']:>12.1f} idle"
        )
    lines.append("  kernel                launches          cycles"
                 "     static floor      lane slack")
    for name, agg in record["kernels"].items():
        lines.append(
            f"  {name:<22}{agg['launches']:>8}"
            f"{agg['cycles']:>16.1f}{agg['floor_cycles']:>17.1f}"
            f"{agg['lane_slack_cycles']:>16.1f}"
        )
    if kind == "multi":
        histogram = record["round_bounds"]
        total_rounds = len(record["rounds"])
        empty = sum(1 for rnd in record["rounds"] if not rnd["frontier"])
        lines.append(
            f"  round attribution ({record['num_devices']} workers, "
            f"{total_rounds} sub-round(s), {empty} with an empty "
            "frontier): "
            + ", ".join(
                f"{histogram[cls]} {cls}-bound"
                for cls in ROUND_BOUND_CLASSES
            )
        )
    lines.append(
        f"what-if speedup ceilings (measured "
        f"{record['elapsed_ms']:.6f} ms):"
    )
    for rank, row in enumerate(record["whatif"], start=1):
        note = ""
        if kind == "single" and row["scenario"] == "infinite_interconnect":
            note = "  (single device: no interconnect)"
        lines.append(
            f"  {rank}. {row['scenario']:<22}"
            f"{row['projected_ms']:>12.6f} ms   "
            f"{row['speedup_ceiling']:>7.3f}x ceiling   "
            f"(floor {row['floor_ms']:.6f} ms){note}"
        )
    return "\n".join(lines)


# -- report facade -----------------------------------------------------------


@dataclass(frozen=True)
class CritPathReport:
    """The finished analysis: a ``repro.critpath/v1`` record plus
    validation, rendering and export, attached to results as
    ``result.critpath``."""

    record: Dict[str, Any]

    @property
    def elapsed_ms(self) -> float:
        return float(self.record["elapsed_ms"])

    @property
    def whatif(self) -> List[Dict[str, Any]]:
        return list(self.record["whatif"])

    @property
    def rounds(self) -> List[Dict[str, Any]]:
        return list(self.record["rounds"])

    def to_json(self) -> Dict[str, Any]:
        return self.record

    def validate(self) -> List[str]:
        return validate_critpath(self.record)

    def render(self) -> str:
        return render_critpath(self.record)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.record, indent=1) + "\n", encoding="utf-8"
        )
