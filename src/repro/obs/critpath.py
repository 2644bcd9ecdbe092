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

**Exact accounting.**  A ``repro.critpath/v1`` record holds *raw
terms* — what the run measured: each launch's block terms, cycles and
name, node rounds and track names; per multi-GPU round ``k``,
``frontier``, ``seed_cycles``, ``worker_cycles``, ``exchange_cycles``
and launches; each kernel's ``floor_cycles``; ``elapsed_ms``,
``kernel_launches``, ``base`` and ``clock`` — and figures derived from
them.  One function per record kind (``_derive_single``,
``_derive_multi``) builds the whole record from the raw terms.  The
builders call it, and :func:`validate_critpath` runs it again over the
stored raw terms and requires the result to equal the stored record
with *zero tolerance*, naming the path of every figure that differs.
Exactness comes from running the identical float operations in the
identical order the simulator used (the scheduler's round-robin SM
fold, the device's left-to-right cycle accumulation, the
coordinator's bookkeeping order), never algebraically-equivalent
rearrangements; the per-track *critical-path cycles + off-path slack
== elapsed* is stored as ``off_path = elapsed - on_path``, the very
subtraction.  The validator checks explicitly only what is not a
derivation: schema, kind, clock fields and scenario coverage;
per-device list lengths and at least one multi-GPU round; each
launch's ``cycles`` against its busiest SM lane re-folded from its
block terms; ``kernel_launches == base.launches + len(nodes)``;
``elapsed_ms`` against the accounting; non-negative floors; and the
bracket below.

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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.gpusim.costmodel import CostModel
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.spec import DeviceSpec
from repro.obs.shape import (
    NONNEG,
    NUMBER,
    Leaf,
    MapOf,
    one_of,
    shape_problems,
)

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

#: the cost-model fields a record's ``clock`` carries, before ``num_sms``
_COST_FIELDS = (
    "clock_ghz", "kernel_launch_us", "issue_width",
    "mem_transaction_cycles", "barrier_cycles",
)


# -- shared primitives -------------------------------------------------------


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


def _lanes(
    blocks: Sequence[Sequence[float]],
    num_sms: int,
    atomics: bool = False,
    coalesce: bool = False,
    barriers: bool = False,
) -> List[float]:
    """Each SM's busy cycles under a counterfactual: the scheduler's
    round-robin assignment of the blocks, verbatim
    (:meth:`CostModel.kernel_cycles`); the busiest lane is the launch's
    kernel cycles."""
    lanes = [0.0] * max(1, num_sms)
    for i, block in enumerate(blocks):
        lanes[i % len(lanes)] += _project_block(
            block, atomics, coalesce, barriers
        )
    return lanes


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


# -- what-if projection ------------------------------------------------------


def _cycles_to_ms(record: Mapping[str, Any], cycles: float) -> float:
    """Simulated milliseconds for ``cycles`` on the record's clock, plus
    a single-device run's launch overhead (a multi-GPU worker's cycles
    already carry its own)."""
    clock = record["clock"]
    ms: float = cycles / (clock["clock_ghz"] * 1e6)
    if record["kind"] == "single":
        ms += record["kernel_launches"] * clock["kernel_launch_us"] / 1000.0
    return ms


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
            projected = max(_lanes(
                node["blocks"], num_sms, atomics, coalesce, barriers
            ))
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
                kernel = max(_lanes(
                    launch["blocks"], num_sms, atomics, coalesce, barriers,
                )) if transform else launch["cycles"]
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


def _whatif_table(record: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The ranked speedup-ceiling table, one row per scenario."""
    single = record["kind"] == "single"
    project = _project_single if single else _project_multi
    kernels = record["kernels"]
    measured_ms = record["elapsed_ms"]
    floor_fold = _fold(agg["floor_cycles"] for agg in kernels.values())
    floor_ms = _cycles_to_ms(
        record, record["base"]["cycles"] + floor_fold if single
        else floor_fold,
    )
    rows: List[Dict[str, Any]] = []
    for scenario in SCENARIOS:
        cycles, per_kernel = project(record, scenario)
        projected_ms = _cycles_to_ms(record, cycles)
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


# -- the derivations ---------------------------------------------------------
#
# One function per record kind builds the whole record from its raw
# terms.  The builders call it on what the run measured; the validator
# calls it on the stored record, whose raw terms sit where the
# derivation reads them, and compares the result with the stored
# record figure for figure.


def _floor(
    kernels: Dict[str, Dict[str, Any]], floors: Mapping[str, Any]
) -> None:
    """Attach each kernel's stored static floor (zero for a kernel the
    record gives none, which the comparison then names)."""
    for name, agg in kernels.items():
        agg["floor_cycles"] = (
            floors[name]["floor_cycles"] if name in floors else 0.0
        )


def _derive_single(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """A single-device record from its raw terms: per node ``name``,
    ``round``, ``cycles`` and ``blocks``; the track name; per kernel
    ``floor_cycles``; ``algorithm``, ``variant``, ``elapsed_ms``,
    ``kernel_launches``, ``base`` and ``clock``."""
    num_sms = int(raw["clock"]["num_sms"])
    track = raw["tracks"][0]["track"]
    window = 0.0
    total = raw["base"]["cycles"]
    lane_slack_total = 0.0
    nodes: List[Dict[str, Any]] = []
    kernels: Dict[str, Dict[str, Any]] = {}
    for node_id, launch in enumerate(raw["nodes"]):
        cycles = launch["cycles"]
        lanes = _lanes(launch["blocks"], num_sms)
        lane_slack = _fold(cycles - lane for lane in lanes)
        nodes.append({
            "id": node_id,
            "kind": "kernel",
            "name": launch["name"],
            "round": launch["round"],
            "track": track,
            "deps": [node_id - 1] if node_id else [],
            "cycles": cycles,
            "blocks": launch["blocks"],
            "lanes": [
                {
                    "sm": sm,
                    "cycles": lane,
                    "slack_cycles": cycles - lane,
                    "critical": lane == cycles,
                }
                for sm, lane in enumerate(lanes)
            ],
            "lane_slack_cycles": lane_slack,
            # the chain is serial: every launch gates the next, so every
            # node is on the path and inter-node slack is zero — the
            # interesting slack lives inside the launch, across SM lanes
            "critical": True,
            "slack_cycles": 0.0,
        })
        window += cycles
        total += cycles
        lane_slack_total += lane_slack
        agg = kernels.setdefault(launch["name"], {
            "launches": 0, "cycles": 0.0, "lane_slack_cycles": 0.0,
        })
        agg["launches"] += 1
        agg["cycles"] += cycles
        agg["lane_slack_cycles"] += lane_slack
    _floor(kernels, raw["kernels"])
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "single",
        "algorithm": raw["algorithm"],
        "variant": raw["variant"],
        "elapsed_ms": raw["elapsed_ms"],
        "kernel_launches": raw["kernel_launches"],
        "base": raw["base"],
        "clock": raw["clock"],
        "nodes": nodes,
        "critical_path": [node["id"] for node in nodes],
        "tracks": [{
            "track": track,
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
    record["whatif"] = _whatif_table(record)
    return record


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
        node_id = node["id"] = len(nodes)
        nodes.append(node)
        if on_path:
            path.append(node_id)
        return node_id

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


#: the raw terms of one multi-GPU round, in their stored order
_ROUND_TERMS = (
    "k", "frontier", "seed_cycles", "worker_cycles", "exchange_cycles",
    "launches",
)


def _derive_multi(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """A multi-GPU record from its raw terms: per round the
    ``_ROUND_TERMS`` (each launch ``device``, ``kernel``, ``cycles`` and
    ``blocks``); the worker track names; per kernel ``floor_cycles``;
    ``algorithm``, ``variant``, ``num_devices``, ``elapsed_ms`` and
    ``clock``."""
    num_devices = raw["num_devices"]
    rounds: List[Dict[str, Any]] = []
    histogram = {cls: 0 for cls in ROUND_BOUND_CLASSES}
    kernels: Dict[str, Dict[str, Any]] = {}
    for stored in raw["rounds"]:
        rnd = {key: stored[key] for key in _ROUND_TERMS}
        rnd.update(_classify_round(
            rnd["seed_cycles"], rnd["worker_cycles"],
            rnd["exchange_cycles"], num_devices,
        ))
        histogram[rnd["bound"]] += 1
        rounds.append(rnd)
        for launches in rnd["launches"]:
            for launch in launches:
                agg = kernels.setdefault(launch["kernel"], {
                    "launches": 0, "cycles": 0.0,
                    "lane_slack_cycles": 0.0,
                })
                agg["launches"] += 1
                agg["cycles"] += launch["cycles"]
    _floor(kernels, raw["kernels"])
    nodes, path = _multi_nodes(rounds, num_devices)
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "multi",
        "algorithm": raw["algorithm"],
        "variant": raw["variant"],
        "num_devices": num_devices,
        "elapsed_ms": raw["elapsed_ms"],
        "clock": raw["clock"],
        "rounds": rounds,
        "round_bounds": histogram,
        "nodes": nodes,
        "critical_path": path,
    }
    # the coordinator's own accumulation is the projection under no
    # counterfactual
    total, _ = _project_multi(record, "measured")
    worker_names = [track["track"] for track in raw["tracks"][1:]]
    record["tracks"] = _multi_tracks(rounds, num_devices, total, worker_names)
    record["accounting"] = {"window_cycles": total, "total_cycles": total}
    record["kernels"] = kernels
    record["whatif"] = _whatif_table(record)
    return record


# -- builders ----------------------------------------------------------------


def _clock(cost: CostModel, num_sms: int) -> Dict[str, Any]:
    clock = {key: getattr(cost, key) for key in _COST_FIELDS}
    clock["num_sms"] = num_sms
    return clock


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
        self._nodes.append({
            "name": name,
            "round": round_index,
            "cycles": stats.cycles,
            "blocks": _blocks_from_stats(stats, self.cost),
        })

    def build(self, elapsed_ms: float, kernel_launches: int) -> "CritPathReport":
        """Finalise the record: lanes, slack, accounting, floors and
        the ranked what-if table."""
        launches = Counter(node["name"] for node in self._nodes)
        return CritPathReport(_derive_single({
            "algorithm": self.algorithm,
            "variant": self.variant,
            "elapsed_ms": elapsed_ms,
            "kernel_launches": kernel_launches,
            "base": {
                "cycles": self.base_cycles,
                "launches": self.base_launches,
            },
            "clock": _clock(self.cost, self.spec.num_sms),
            "nodes": self._nodes,
            "tracks": [{"track": self.track}],
            "kernels": {
                name: {"floor_cycles": kernel_floor_cycles(
                    name, self.cfg, self.env, self.cost,
                    self.spec.num_sms, count,
                )}
                for name, count in launches.items()
            },
        }))


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
    raw_rounds = [
        dict(rnd, launches=[
            [
                {
                    "device": launch["device"],
                    "kernel": launch["kernel"],
                    "cycles": launch["stats"].cycles,
                    "blocks": _blocks_from_stats(launch["stats"], cost),
                }
                for launch in launches
            ]
            for launches in rnd["launches"]
        ])
        for rnd in rounds
    ]
    counts = Counter(
        launch["kernel"]
        for rnd in raw_rounds
        for launches in rnd["launches"]
        for launch in launches
    )
    return CritPathReport(_derive_multi({
        "algorithm": algorithm,
        "variant": variant,
        "num_devices": num_devices,
        "elapsed_ms": elapsed_ms,
        "clock": dict(
            _clock(cost, spec.num_sms),
            transfer_cycles_per_word=transfer_cycles_per_word,
            reduce_cycles_per_word=reduce_cycles_per_word,
        ),
        "rounds": raw_rounds,
        "tracks": [{"track": name} for name in ("master", *worker_names)],
        # a D-way partition sweeps the same total adjacency, so the
        # makespan floor is the run-level work floor spread over D
        # workers (busiest worker >= mean)
        "kernels": {
            name: {"floor_cycles": kernel_floor_cycles(
                name, cfg, env, cost, spec.num_sms, count,
            ) / float(num_devices)}
            for name, count in counts.items()
        },
    }))


# -- validation --------------------------------------------------------------


_CLOCK: Dict[str, Leaf] = {
    **{key: NUMBER for key in (*_COST_FIELDS, "num_sms")},
    "clock_ghz": Leaf(lambda v: NUMBER.test(v) and v > 0.0, "positive"),
}
#: what must hold before a record can be re-derived at all
_SINGLE = {
    "schema": one_of(SCHEMA_VERSION),
    "kind": one_of("single", "multi"),
    "clock": _CLOCK,
    "elapsed_ms": NUMBER,
    "kernels": MapOf({"floor_cycles": NONNEG}),
}
_MULTI = {
    **_SINGLE,
    "clock": {
        **_CLOCK,
        "transfer_cycles_per_word": NUMBER,
        "reduce_cycles_per_word": NUMBER,
    },
}


def _diff(stored: Any, derived: Any, path: str) -> List[str]:
    """The path of every figure at which ``stored`` differs from
    ``derived``, e.g. ``accounting.total_cycles 1.0 != re-derived
    2.0``."""
    if isinstance(derived, dict) and isinstance(stored, Mapping):
        def where(key: Any) -> str:
            return f"{path}.{key}" if path else str(key)

        problems = [
            f"{where(key)} is not a derived field"
            for key in stored if key not in derived
        ]
        for key, value in derived.items():
            if key in stored:
                problems.extend(_diff(stored[key], value, where(key)))
            else:
                problems.append(f"{where(key)} is missing")
        return problems
    if isinstance(derived, list) and isinstance(stored, list):
        if len(stored) != len(derived):
            return [
                f"{path} has {len(stored)} entries, re-derived "
                f"{len(derived)}"
            ]
        return [
            problem
            for i, (old, new) in enumerate(zip(stored, derived))
            for problem in _diff(old, new, f"{path}[{i}]")
        ]
    if isinstance(derived, (dict, list)):
        return [
            f"{path} must be a {type(derived).__name__}, got "
            f"{type(stored).__name__}"
        ]
    if stored != derived:
        return [f"{path} {stored!r} != re-derived {derived!r}"]
    return []


def _multi_problems(record: Mapping[str, Any]) -> List[str]:
    """What a multi-GPU record needs beyond its spec before it can be
    re-derived."""
    problems: List[str] = []
    num_devices = record["num_devices"]
    if not record["rounds"]:
        problems.append("a multi-GPU record needs at least one round")
    if len(record["tracks"]) != num_devices + 1:
        problems.append("tracks must be the master's plus one per device")
    for i, rnd in enumerate(record["rounds"]):
        short = [
            key for key in ("seed_cycles", "worker_cycles", "launches")
            if len(rnd[key]) != num_devices
        ]
        if short:
            problems.append(
                f"rounds[{i}]: {', '.join(short)} must have one entry "
                "per device"
            )
            break
    return problems


def _invariant_problems(
    record: Mapping[str, Any], derived: Mapping[str, Any]
) -> List[str]:
    """The record's invariants that are not a derivation: each launch's
    cycles against its block terms, the launch count, the elapsed time
    against the accounting, scenario coverage and the bracket."""
    problems: List[str] = []
    num_sms = int(record["clock"]["num_sms"])
    if record["kind"] == "single":
        launches = [
            (f"nodes[{i}]", node) for i, node in enumerate(record["nodes"])
        ]
        expected = record["base"]["launches"] + len(record["nodes"])
        if record["kernel_launches"] != expected:
            problems.append(
                f"kernel_launches {record['kernel_launches']} != base + "
                f"observed nodes {expected}"
            )
    else:
        launches = [
            (f"rounds[{i}].launches[{worker}][{j}]", launch)
            for i, rnd in enumerate(record["rounds"])
            for worker, worker_launches in enumerate(rnd["launches"])
            for j, launch in enumerate(worker_launches)
        ]
    for where, launch in launches:
        busiest = max(_lanes(launch["blocks"], num_sms))
        if launch["cycles"] != busiest:
            problems.append(
                f"{where}.cycles {launch['cycles']!r} != busiest SM lane "
                f"{busiest!r} re-folded from its block terms"
            )
    elapsed = _cycles_to_ms(record, derived["accounting"]["total_cycles"])
    if record["elapsed_ms"] != elapsed:
        problems.append(
            f"elapsed_ms {record['elapsed_ms']!r} != {elapsed!r} "
            "re-derived from the accounting"
        )
    rows = record["whatif"]
    seen = [row["scenario"] for row in rows]
    if sorted(seen) != sorted(SCENARIOS):
        problems.append(
            f"whatif must cover exactly {SCENARIOS}, got {seen}"
        )
    for row in rows:
        if not row["floor_ms"] <= row["projected_ms"] <= row["measured_ms"]:
            problems.append(
                f"whatif[{row['scenario']}]: floor {row['floor_ms']!r} "
                f"<= projected {row['projected_ms']!r} <= measured "
                f"{row['measured_ms']!r} does not hold"
            )
    return problems


def validate_critpath(record: Any) -> List[str]:
    """Re-derive every figure of a ``repro.critpath/v1`` record.

    Returns human-readable problem strings (empty == valid).  The
    record's own derivation re-runs over its stored raw terms (per-block
    cycle terms, per-round coordinator components, floors, clock) and
    every derived figure must equal the stored one bit for bit — no
    tolerance anywhere; the remaining checks cover what is not a
    derivation.
    """
    multi = isinstance(record, dict) and record.get("kind") == "multi"
    problems = shape_problems(record, _MULTI if multi else _SINGLE, "")
    if problems:
        return problems
    try:
        problems = _multi_problems(record) if multi else []
        if not problems:
            derived = (_derive_multi if multi else _derive_single)(record)
            problems = _diff(record, derived, "")
            problems += _invariant_problems(record, derived)
    except (
        ArithmeticError, AttributeError, LookupError, TypeError, ValueError,
    ) as exc:
        problems.append(f"malformed record: {type(exc).__name__}: {exc}")
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
