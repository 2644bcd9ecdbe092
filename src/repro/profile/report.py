"""Profile aggregation, the ``repro.profile/v1`` schema, and rendering.

A :class:`ProfileReport` wraps the per-launch
:class:`~repro.profile.profiler.LaunchProfile` records of one run and
derives the two aggregations the paper's ablation discussion needs:

* **per kernel** — total cycles, bound class and efficiency figures per
  kernel function (the Table II argument is a per-kernel statement:
  the compaction variants pay extra *scan/loop instructions* while the
  frontier work stays memory-bound);
* **per round** — the same figures per peel round, which is how the
  frontier-decay regimes (the huge ``k=0`` spike vs the long tail)
  show up as bound-class shifts over a run.

``to_json()`` emits the ``repro.profile/v1`` record.  Its shape is one
spec (``_SHAPE``, checked by :mod:`repro.obs.shape`), and
:func:`validate_profile` keeps only the arithmetic of each launch,
kernel, round and summary entry whose shape holds: the dominated buckets
plus barrier cycles partition busy cycles, the max roofline term never
exceeds busy-minus-barrier and the term sum never undershoots it, and
the bound is the largest bucket; ``summary.launches`` counts the
launches.  A report whose numbers stopped agreeing with
:meth:`~repro.gpusim.costmodel.CostModel.block_cycles` fails validation
rather than silently misattributing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.shape import (
    INT,
    NAT,
    NONNEG,
    NUMBER,
    OBJECT,
    STR,
    TEXT,
    Leaf,
    MapOf,
    nullable,
    one_of,
    shape_problems,
)
from repro.profile.profiler import PIPELINES, LaunchProfile

__all__ = [
    "SCHEMA_VERSION",
    "AggregateProfile",
    "ProfileReport",
    "validate_profile",
    "validate_profile_file",
]

SCHEMA_VERSION = "repro.profile/v1"

#: relative slack for the float-sum invariants of the validator
_REL_TOL = 1e-6


@dataclass(frozen=True)
class AggregateProfile:
    """Launch profiles folded over one key (kernel, round, or the run)."""

    key: str
    launches: int
    cycles: float
    busy_cycles: float
    compute_cycles: float
    memory_cycles: float
    latency_cycles: float
    barrier_cycles: float
    bound: str
    dominated: Dict[str, float]
    achieved_occupancy: float
    divergence_efficiency: float
    coalescing_efficiency: float
    atomic_share: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "launches": self.launches,
            "cycles": self.cycles,
            "busy_cycles": self.busy_cycles,
            "terms": {
                "compute": self.compute_cycles,
                "memory": self.memory_cycles,
                "latency": self.latency_cycles,
                "barrier": self.barrier_cycles,
            },
            "bound": self.bound,
            "dominated": dict(self.dominated),
            "achieved_occupancy": self.achieved_occupancy,
            "divergence_efficiency": self.divergence_efficiency,
            "coalescing_efficiency": self.coalescing_efficiency,
            "atomic_share": self.atomic_share,
        }


def _aggregate(key: str, launches: Sequence[LaunchProfile]) -> AggregateProfile:
    busy = sum(p.busy_cycles for p in launches)
    dominated = {name: 0.0 for name in PIPELINES}
    for p in launches:
        for name, value in p.dominated.items():
            dominated[name] = dominated.get(name, 0.0) + value
    mem_accesses = sum(p.mem_accesses for p in launches)
    mem_tx = sum(p.mem_transactions for p in launches)
    occupancy = (
        sum(p.achieved_occupancy * p.busy_cycles for p in launches) / busy
        if busy
        else 0.0
    )
    # efficiencies recompute from the raw tallies, not from averaging
    # per-launch ratios, so tiny launches cannot skew them
    lanes = sum(p.mem_active_lanes for p in launches)
    ideal = sum(p.mem_ideal_transactions for p in launches)
    warp = 32.0
    return AggregateProfile(
        key=key,
        launches=len(launches),
        cycles=sum(p.cycles for p in launches),
        busy_cycles=busy,
        compute_cycles=sum(p.compute_cycles for p in launches),
        memory_cycles=sum(p.memory_cycles for p in launches),
        latency_cycles=sum(p.latency_cycles for p in launches),
        barrier_cycles=sum(p.barrier_cycles for p in launches),
        bound=max(PIPELINES, key=lambda n: dominated[n]),
        dominated=dominated,
        achieved_occupancy=occupancy,
        divergence_efficiency=lanes / (mem_accesses * warp)
        if mem_accesses
        else 1.0,
        coalescing_efficiency=ideal / mem_tx if mem_tx else 1.0,
        atomic_share=sum(p.atomic_cycles for p in launches) / busy
        if busy
        else 0.0,
    )


@dataclass(frozen=True)
class ProfileReport:
    """The full profile of one run; see the module docstring."""

    algorithm: Optional[str]
    variant: Optional[str]
    dataset: Optional[str]
    device: Dict[str, Any]
    launches: Tuple[LaunchProfile, ...]

    # -- aggregations --------------------------------------------------------

    def kernels(self) -> Dict[str, AggregateProfile]:
        """Aggregate per kernel function, in first-launch order."""
        by_kernel: Dict[str, List[LaunchProfile]] = {}
        for p in self.launches:
            by_kernel.setdefault(p.kernel, []).append(p)
        return {
            name: _aggregate(name, group)
            for name, group in by_kernel.items()
        }

    def rounds(self) -> List[AggregateProfile]:
        """Aggregate per annotated peel round, in round order."""
        by_round: Dict[int, List[LaunchProfile]] = {}
        for p in self.launches:
            if p.round_index is not None:
                by_round.setdefault(p.round_index, []).append(p)
        return [
            _aggregate(f"round k={k}", by_round[k])
            for k in sorted(by_round)
        ]

    def summary(self) -> AggregateProfile:
        """Whole-run aggregate."""
        return _aggregate("total", self.launches)

    @property
    def bound(self) -> str:
        """The run-level bound class (of :meth:`summary`)."""
        return self.summary().bound

    # -- export --------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The ``repro.profile/v1`` record."""
        return {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "variant": self.variant,
            "dataset": self.dataset,
            "device": dict(self.device),
            "launches": [p.to_json() for p in self.launches],
            "kernels": {
                name: agg.to_json() for name, agg in self.kernels().items()
            },
            "rounds": [agg.to_json() for agg in self.rounds()],
            "summary": self.summary().to_json(),
        }

    def write(self, path: "str | Path") -> None:
        """Serialise :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)

    def to_folded(self) -> str:
        """Folded-stack export; see :mod:`repro.profile.flamegraph`."""
        from repro.profile.flamegraph import to_folded

        return to_folded(self)

    def write_folded(self, path: "str | Path") -> None:
        from repro.profile.flamegraph import write_folded

        write_folded(self, path)

    # -- human-readable table ------------------------------------------------

    def render(self) -> str:
        """The ``--ncu`` console report: a speed-of-light table."""
        label = self.algorithm or "run"
        if self.dataset:
            label += f" on {self.dataset}"
        device = self.device.get("name", "device")
        lines = [
            f"Speed-of-Light: {label} ({device})",
            "=" * max(24, len(label) + len(str(device)) + 20),
        ]
        header = (
            f"{'kernel':<16} {'launches':>8} {'cycles':>12} {'bound':>8} "
            f"{'comp%':>6} {'mem%':>6} {'lat%':>6} {'barr%':>6} "
            f"{'occ':>5} {'dvrg':>5} {'coal':>5} {'atom':>5}"
        )
        lines.append(header)
        lines.append("-" * len(header))

        def row(agg: AggregateProfile) -> str:
            busy = agg.busy_cycles or 1.0
            return (
                f"{agg.key:<16} {agg.launches:>8} {agg.cycles:>12.0f} "
                f"{agg.bound:>8} "
                f"{100 * agg.compute_cycles / busy:>6.1f} "
                f"{100 * agg.memory_cycles / busy:>6.1f} "
                f"{100 * agg.latency_cycles / busy:>6.1f} "
                f"{100 * agg.barrier_cycles / busy:>6.1f} "
                f"{agg.achieved_occupancy:>5.2f} "
                f"{agg.divergence_efficiency:>5.2f} "
                f"{agg.coalescing_efficiency:>5.2f} "
                f"{agg.atomic_share:>5.2f}"
            )

        for agg in self.kernels().values():
            lines.append(row(agg))
        lines.append("-" * len(header))
        lines.append(row(self.summary()))
        rounds = self.rounds()
        if rounds:
            heaviest = sorted(
                rounds, key=lambda a: a.cycles, reverse=True
            )[:5]
            lines.append("")
            lines.append("heaviest rounds:")
            for agg in heaviest:
                lines.append(f"  {row(agg)}")
        return "\n".join(lines)


# -- validation ---------------------------------------------------------------

_FRACTION = Leaf(  # with the float slack of the sum invariants above 1
    lambda v: NUMBER.test(v) and 0.0 <= v <= 1.0 + _REL_TOL, "in [0, 1]"
)
_ENTRY = {
    "cycles": NONNEG,
    "busy_cycles": NONNEG,
    "terms": {name: NUMBER for name in (*PIPELINES, "barrier")},
    "bound": one_of(*PIPELINES),
    "dominated": MapOf(NUMBER),
    "achieved_occupancy": _FRACTION,
    "divergence_efficiency": _FRACTION,
    "coalescing_efficiency": _FRACTION,
    # atomic_share may exceed 1: atomic cycles sum over every warp,
    # while busy time only counts each block's slowest warp
    "atomic_share": NONNEG,
}
_LAUNCH = {
    **_ENTRY,
    "kernel": TEXT,
    "source": one_of("simt", "charge"),
    "index": NAT,
    "round": nullable(INT),
    "grid_dim": NAT,
    "block_dim": NAT,
    "sol_pct": MapOf(NUMBER),
}
_AGGREGATE = {**_ENTRY, "key": TEXT, "launches": NAT}
_SHAPE = {
    "schema": one_of(SCHEMA_VERSION),
    "algorithm": nullable(STR),
    "variant": nullable(STR),
    "dataset": nullable(STR),
    "device": OBJECT,
    "launches": [_LAUNCH],
    "kernels": MapOf(_AGGREGATE),
    "rounds": [_AGGREGATE],
    "summary": _AGGREGATE,
}


def _entry_problems(entry: Dict[str, Any], where: str) -> List[str]:
    """The roofline arithmetic of one launch or aggregate entry."""
    problems: List[str] = []
    busy, terms = entry["busy_cycles"], entry["terms"]
    dominated = entry["dominated"]
    tol = _REL_TOL * max(1.0, busy)
    # dominated buckets + barrier partition busy cycles
    parts = sum(dominated.values()) + terms["barrier"]
    if abs(parts - busy) > tol:
        problems.append(
            f"{where}: dominated buckets + barrier ({parts:g}) do not "
            f"partition busy_cycles ({busy:g})"
        )
    # roofline bracketing of the busy time
    roof = busy - terms["barrier"]
    pipes = [terms[name] for name in PIPELINES]
    if max(pipes) - roof > tol:
        problems.append(
            f"{where}: max pipeline term ({max(pipes):g}) exceeds busy "
            f"minus barrier ({roof:g})"
        )
    if roof - sum(pipes) > tol:
        problems.append(
            f"{where}: busy minus barrier ({roof:g}) exceeds the term "
            f"sum ({sum(pipes):g})"
        )
    # the declared bound is the largest dominated bucket
    best = max(dominated.values(), default=0.0)
    if dominated.get(entry["bound"], 0.0) < best - tol:
        problems.append(
            f"{where}: bound {entry['bound']!r} is not the largest "
            "dominated bucket"
        )
    return problems


def validate_profile(record: Any) -> List[str]:
    """Check a parsed ``repro.profile/v1`` record; return problems."""
    shape = shape_problems(record, _SHAPE, "")
    if not isinstance(record, dict):
        return shape
    problems = list(shape)
    entries = [("summary", record.get("summary"), _AGGREGATE)]
    for key, spec in (
        ("launches", _LAUNCH), ("kernels", _AGGREGATE), ("rounds", _AGGREGATE),
    ):
        group = record.get(key)
        if isinstance(group, list):
            group = dict(enumerate(group))
        if isinstance(group, dict):
            entries += [(f"{key}[{k}]", e, spec) for k, e in group.items()]
    for where, entry, spec in entries:
        if not shape_problems(entry, spec, where):
            problems += _entry_problems(entry, where)
    summary, launches = record.get("summary"), record.get("launches")
    if not shape and summary["launches"] != len(launches):
        problems.append(
            f"summary.launches ({summary['launches']}) != "
            f"len(launches) ({len(launches)})"
        )
    return problems


def validate_profile_file(path: "str | Path") -> List[str]:
    """Validate one exported profile JSON file."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return [f"{path.name}: {p}" for p in validate_profile(record)]
