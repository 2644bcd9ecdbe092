"""Closed-form launch bounds for the peeling kernels.

This module is the *semantic* half of the abstract interpretation: for
each kernel x :class:`~repro.core.variants.VariantConfig` it derives
symbolic upper bounds — :class:`~repro.staticheck.symbolic.Expr` over
the launch environment of :func:`launch_env` — on the three events the
scheduler measures per launch (:class:`~repro.gpusim.scheduler.
KernelStats`): warp-instructions ``issued``, 128-byte
``mem_transactions`` and barrier generations ``barriers``.

The derivation splits cleanly into

* **trip-count invariants** (the loop bounds of the interpretation),
  justified inline below and mirrored by the ``__staticheck__``
  annotations in the kernel modules themselves:

  - scan: every warp strides ``[base, n)`` with stride ``G*W*S``, so
    it makes at most ``ceil(n / (G*W*S))`` trips (EC pads to at least
    one trip so its per-trip barriers line up);
  - loop: each block drains at most ``F = min(P, n)`` buffer slots,
    where ``P = cap + scap`` is the hard capacity (a slot past ``P``
    raises ``BufferOverflowError`` before it is ever processed) and
    ``n`` is the append-once refinement from the dataflow pass
    (:mod:`repro.staticheck.dataflow`): the scan phase collects each
    ``deg == k`` vertex exactly once, and the loop phase appends a
    vertex only on the unique decrement that observes ``old == k+1``
    (the degree-restore walk of Fig. 6 can never raise a degree back
    to ``k+1``), so a block's buffer holds at most ``n`` distinct
    slots per launch.  Every block iteration advances the head by at
    least one slot (Warp 0 advances it by up to ``W``, but the
    trickle worst case is one fresh append per iteration), so there
    are at most ``F + 2`` iterations (``2F + 3`` for VP, whose
    pipeline may interleave one drain iteration per fetch iteration);
  - an adjacency sweep makes ``ceil(deg(v) / lane_width)`` trips,
    bounded by ``ceil(dmax / lane_width)``;

* **per-trip instruction masses**, itemised from the site inventory
  (every ``ctx`` access issues exactly one warp-instruction; ``charge``
  literals add their constants) — the numbers in ``_SCAN_TRIP`` /
  ``_SWEEP_BASE`` / ``_APPEND`` below, each annotated with the call
  sites it covers.

The bounds are *sound, not tight*: every constant rounds up (a 32-lane
gather is charged 32 transactions even when it coalesces; a branch
costs its worst side).  Tightness is the differential checker's
problem — :mod:`repro.staticheck.differential` asserts per launch that
these bounds dominate the dynamic measurement, and the hypothesis
property suite asserts it across random graphs for all variants.

The certified ordering story of Table II falls out statically: the
per-trip masses satisfy ``ours < BC < EC`` for both kernels, which is
exactly the instruction-overhead argument of the paper's ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.variants import EXTENSION_VARIANTS, VARIANTS, VariantConfig
from repro.gpusim.costmodel import CostModel
from repro.gpusim.spec import DeviceSpec
from repro.staticheck import contracts
from repro.staticheck.symbolic import CeilDiv, Const, Expr, Max, Min, Param

__all__ = [
    "KernelBounds",
    "KernelFloors",
    "launch_env",
    "scan_bounds",
    "loop_bounds",
    "scan_floors",
    "loop_floors",
    "kernel_bounds",
    "shared_footprint",
    "device_memory_bound",
    "cycles_bound",
    "ms_bound",
    "floor_cycles",
    "REACHABILITY",
    "reachable_functions",
]

# parameters (see repro.staticheck.symbolic for the catalogue)
_N = Param("n")
_ADJ = Param("adj")
_DMAX = Param("dmax")
_G = Param("G")
_W = Param("W")
_S = Param("S")
_CAP = Param("cap")
_SCAP = Param("scap")
_P = Param("P")
_T = Param("T")

#: the occupancy-aware buffer-fill refinement: a block's buffer never
#: holds more than ``min(P, n)`` slots per launch (hard capacity vs the
#: dataflow pass's append-once argument — see the module docstring)
_FILL: Expr = Min(_P, _N)


def launch_env(
    num_vertices: int,
    adjacency_len: int,
    max_degree: int,
    spec: DeviceSpec,
    cfg: VariantConfig,
    buffer_capacity: int | None = None,
) -> Dict[str, float]:
    """The evaluation environment for one graph x device x variant."""
    cap = buffer_capacity or spec.block_buffer_capacity
    scap = spec.shared_buffer_capacity if cfg.shared_buffer else 0
    return {
        "n": float(num_vertices),
        "adj": float(adjacency_len),
        "dmax": float(max_degree),
        "G": float(spec.default_grid_dim),
        "W": float(spec.warps_per_block),
        "S": float(spec.warp_size),
        "cap": float(cap),
        "scap": float(scap),
        "P": float(cap + scap),
        "R": float(max_degree + 2),
        # words per 128-byte global-memory transaction at 4-byte ids —
        # mirrors gpusim.context's coalescing granularity
        "T": 32.0,
    }


@dataclass(frozen=True)
class KernelBounds:
    """Symbolic per-launch upper bounds on the measured events."""

    issued: Expr
    mem_transactions: Expr
    barriers: Expr

    def evaluate(self, env: Mapping[str, float]) -> Dict[str, float]:
        return {
            "issued": self.issued.evaluate(env),
            "mem_transactions": self.mem_transactions.evaluate(env),
            "barriers": self.barriers.evaluate(env),
        }


# -- per-trip instruction masses (itemised from the site inventory) ---------

#: scan kernel, per warp per strided trip:
#:   _hit_flags: charge(4) + gload deg (1) + charge(1)            =  6
#:   none:   smem_atomic_add e (1) + view.write gstore (1)        = +2
#:   ballot: ballot(1)+popc(1)+charge(1) + atomic(1)+shfl(1)
#:           +charge(1) + gstore(1)                               = +7
#:   block:  Hillis-Steele charge(11) + sstore counts (1)
#:           + Warp0 [sload(1)+charge(<=12)+atomic(1)+sstore(1)]
#:           + stage 4 sload(1) + gstore(1)                       = +29
_SCAN_TRIP = {"none": 8, "ballot": 13, "block": 35}

#: loop kernel, per adjacency-sweep trip, before the append:
#:   sync_warp(1) + gload neighbors(1) + gload deg(1) + charge(4)
#:   + atomicSub(1) + restore atomicAdd(1)                        =  9
_SWEEP_BASE = 9

#: Line 23 append, per sweep trip.  ``plain`` writes straight to the
#: global buffer (gstore 1); ``shared`` is the SM position translation
#: of Fig. 7 (smem_get e_init + charge(4) + sstore + gstore = 7).
#:   none:   smem_atomic_add(1) + write
#:   ballot: ballot scan(3) + atomic(1) + shfl(1) + charge(1) + write
#:   block:  Hillis-Steele(11) + atomic(1) + shfl(1) + charge(1) + write
_APPEND = {"none": 2, "ballot": 7, "block": 15}
_WRITE_SHARED_EXTRA = 6  # Fig. 7 translation on the write path

#: fetching one buffer slot: plain gload(1); SM translation adds
#: smem_get(1) + charge(4) + sload/gload(1) (Fig. 7 read path), and
#: every fetched vertex costs one offsets gload for its bounds.
_FETCH = {"plain": 2, "shared": 7}

#: per block-iteration, per warp: smem_get s,e (2) + charge(3) +
#: Warp-0 head advance smem_set (1)
_ITER_OVERHEAD = 6
#: VP adds per iteration: Warp 0 charge(2) + read_batch gload(1) +
#: sstore pref(1) + smem_set s/pn_next (2), processors sload pref(1),
#: Warp 0 pn_cur/pn_next handoff (2) — take the union as the bound
_ITER_OVERHEAD_VP = 12
#: virtual warping adds the per-iteration batch fetch: read_batch
#: gload(1) + bounds gload(1)
_ITER_OVERHEAD_VW = 8

#: prologue + epilogue, per warp (Warp 0 does the most: tails gload +
#: up to 5 smem_set on entry; smem_get + count atomic on exit)
_PRO_EPI = 8

#: worst-case 128-byte transactions per adjacency-sweep trip: a
#: 32-lane gather of degrees (S), the atomicSub (S), the restore (S),
#: the coalesced neighbor read (2) and the buffer append (2)
def _sweep_mem(lane_gather: Expr | int = 0) -> Expr:
    base = Const(4) + Const(3) * _S
    if isinstance(lane_gather, int) and lane_gather == 0:
        return base
    return base + lane_gather


# -- scan kernel -------------------------------------------------------------


def scan_bounds(cfg: VariantConfig) -> KernelBounds:
    """Per-launch bounds for ``scan(k)`` under ``cfg``."""
    trips: Expr = CeilDiv(_N, _G * _W * _S)
    if cfg.compaction == "block":
        trips = Max(Const(1), trips)
    per_trip = Const(_SCAN_TRIP[cfg.compaction])
    issued = _G * _W * (Const(3) + per_trip * trips)
    # per trip: deg gload (<=2 segments) + buffer gstore (<=2); plus
    # Warp 0's tails write-back (1 per block)
    mem = _G * (_W * (Const(4) * trips) + Const(1))
    if cfg.compaction == "block":
        barriers = _G * (Const(2) + Const(3) * trips)
    else:
        barriers = _G * Const(2)
    return KernelBounds(issued, mem, barriers)


# -- loop kernel -------------------------------------------------------------


def loop_bounds(cfg: VariantConfig) -> KernelBounds:
    """Per-launch bounds for ``loop(k)`` under ``cfg``."""
    if cfg.virtual_warps > 1:
        return _loop_bounds_virtual(cfg)
    if cfg.prefetch:
        iters: Expr = Const(2) * _FILL + Const(3)
        overhead = _ITER_OVERHEAD_VP
        fetch = _FETCH["plain"]
        barrier_per_iter = 3
    else:
        iters = _FILL + Const(2)
        overhead = _ITER_OVERHEAD
        fetch = _FETCH["shared" if cfg.shared_buffer else "plain"]
        barrier_per_iter = 2
    sweep = _SWEEP_BASE + _APPEND[cfg.compaction]
    if cfg.shared_buffer:
        sweep += _WRITE_SHARED_EXTRA
    sweeps_per_vertex = CeilDiv(_DMAX, _S)
    per_block = (
        _W * (Const(_PRO_EPI) + Const(overhead) * iters)
        + _FILL * (Const(fetch) + Const(sweep) * sweeps_per_vertex)
    )
    issued = _G * per_block
    mem = _G * (
        Const(2)  # tails gload + count atomic
        + Const(2) * iters  # VP batch fetch / iteration slack
        + _FILL * (Const(3) + _sweep_mem() * sweeps_per_vertex)
    )
    barriers = _G * (Const(barrier_per_iter) * iters + Const(2))
    return KernelBounds(issued, mem, barriers)


def _loop_bounds_virtual(cfg: VariantConfig) -> KernelBounds:
    vw = cfg.virtual_warps
    lane_width = 32 // vw
    iters = _FILL + Const(2)
    #: per sweep trip over a batch of vw adjacency lists: sync(1) +
    #: gload u(1) + gload deg(1) + charge(4) + atomicSub(1) +
    #: restore(1) + append atomic(1) + write(1)
    sweep = Const(11)
    sweeps = CeilDiv(_DMAX, Const(lane_width))
    per_block = (
        _W * (Const(_PRO_EPI) + Const(_ITER_OVERHEAD_VW) * iters)
        + _FILL * (Const(2) + sweep * sweeps)
    )
    issued = _G * per_block
    # batch bounds gload touches 2*vw scattered offsets per instance
    mem = _G * (
        Const(2)
        + Const(2) * iters
        + _FILL * (Const(2 + 2 * vw) + _sweep_mem(Const(2 * vw)) * sweeps)
    )
    barriers = _G * (Const(2) * iters + Const(2))
    return KernelBounds(issued, mem, barriers)


def kernel_bounds(kernel: str, cfg: VariantConfig) -> KernelBounds:
    """Bounds for one kernel by scheduler name, via its registered
    :class:`~repro.staticheck.contracts.KernelContract`."""
    try:
        contract = contracts.kernel_contract(kernel)
    except KeyError:
        raise KeyError(f"no certified bounds for kernel {kernel!r}") from None
    return contract.bounds(cfg)


def _reject_ring(cfg: VariantConfig) -> None:
    """The k-core kernels' honest refusal for ring configs."""
    if cfg.ring_buffer:
        raise ValueError(
            "ring-buffer variants have no static buffer-slot bound "
            "(the tail may lap the head); certificates cover the "
            "Table II matrix and the virtual-warp extensions"
        )


def _certified_scan_bounds(cfg: VariantConfig) -> KernelBounds:
    _reject_ring(cfg)
    return scan_bounds(cfg)


def _certified_loop_bounds(cfg: VariantConfig) -> KernelBounds:
    _reject_ring(cfg)
    return loop_bounds(cfg)


# -- resource footprints -----------------------------------------------------


def shared_footprint(kernel: str, cfg: VariantConfig) -> Dict[str, Expr]:
    """Static per-block shared-memory demand, in vertex-ID slots.

    Maps allocation name -> symbolic slot count; scalars are one slot
    each.  Evaluating the sum against
    ``DeviceSpec.shared_memory_per_block_bytes`` is the fit check.
    Resolved through the kernel's registered contract.
    """
    try:
        contract = contracts.kernel_contract(kernel)
    except KeyError:
        raise KeyError(
            f"no shared-footprint model for kernel {kernel!r}"
        ) from None
    return dict(contract.shared_layout(cfg))


def _scan_shared_layout(cfg: VariantConfig) -> Dict[str, Expr]:
    slots: Dict[str, Expr] = {"e": Const(1)}
    if cfg.compaction == "block":
        slots["warp_counts"] = _W
        slots["warp_offsets"] = _W
    return slots


def _loop_shared_layout(cfg: VariantConfig) -> Dict[str, Expr]:
    slots: Dict[str, Expr] = {"s": Const(1), "e": Const(1)}
    if cfg.shared_buffer:
        slots["e_init"] = Const(1)
        slots["B"] = _SCAP
    if cfg.prefetch:
        slots["pn_cur"] = Const(1)
        slots["pn_next"] = Const(1)
        slots["pref0"] = _W
        slots["pref1"] = _W
    if cfg.compaction == "block":
        slots["warp_counts"] = _W  # block_scan_offsets staging
    return slots


def device_memory_bound(cfg: VariantConfig) -> Expr:
    """Exact peak device global memory of the host program, in bytes
    per ``id_byte`` — multiply by ``DeviceSpec.id_bytes`` and add
    ``context_overhead_bytes`` to get Table V's figure.

    offsets (n+1) + neighbors (adj) + deg (n) + per-block buffers
    (G*cap) + tails (G) + count (1) + the BC/EC vid/p/a staging arrays
    (3 * G * W * S).  SM and VP buffer in *shared* memory, which is why
    Ours/SM/VP tie at the smallest footprint in Table V.
    """
    base = (_N + Const(1)) + _ADJ + _N + _G * _CAP + _G + Const(1)
    if cfg.compaction != "none":
        base = base + Const(3) * _G * _W * _S
    return base


# -- cost-model combination --------------------------------------------------


def cycles_bound(
    bounds: KernelBounds, cost: CostModel, env: Mapping[str, float]
) -> float:
    """Numeric upper bound on one launch's kernel cycles.

    Sound over-approximation of the roofline: the busiest SM is at most
    the sum over blocks, ``max(compute, memory, path)`` at most their
    sum, and every issued instruction stalls for at most the worst
    single-instruction stall the cost model can charge.
    """
    values = bounds.evaluate(env)
    warp_size = env["S"]
    worst_stall = max(
        cost.global_load_latency,
        cost.shared_access_cycles,
        cost.global_atomic_base + cost.global_atomic_conflict * (warp_size - 1),
        cost.shared_atomic_base + cost.shared_atomic_conflict * (warp_size - 1),
    )
    return (
        values["issued"] * (1.0 / cost.issue_width + 1.0 + worst_stall)
        + values["mem_transactions"] * cost.mem_transaction_cycles
        + values["barriers"] * cost.barrier_cycles
    )


def ms_bound(
    bounds: KernelBounds, cost: CostModel, env: Mapping[str, float]
) -> float:
    """Numeric upper bound on one launch's simulated milliseconds."""
    return (
        cost.cycles_to_ms(cycles_bound(bounds, cost, env))
        + cost.kernel_launch_us / 1000.0
    )


# -- lower bounds (floor certificates) ---------------------------------------


@dataclass(frozen=True)
class KernelFloors:
    """Symbolic *lower* bounds on the measured events — the dual of
    :class:`KernelBounds`.

    Where the upper bounds certify "the kernel can never cost more than
    this", a floor certifies "no counterfactual can cost less": work the
    algorithm is obliged to do regardless of atomics, coalescing or
    barriers.  The critical-path analyzer (:mod:`repro.obs.critpath`)
    uses floors to bracket its what-if projections from below, so a
    projection that undershoots its floor is a bug in the projection,
    not an optimisation opportunity.

    ``per_launch=True`` floors scale with the launch count (e.g. every
    ``scan(k)`` must re-read all ``n`` degrees); ``per_launch=False``
    floors hold once over the whole run (e.g. the peeling loop sweeps
    each adjacency row exactly once — when its owner is removed — no
    matter how many launches that takes).
    """

    issued: Expr
    mem_transactions: Expr
    per_launch: bool = True

    def evaluate(self, env: Mapping[str, float]) -> Dict[str, float]:
        return {
            "issued": self.issued.evaluate(env),
            "mem_transactions": self.mem_transactions.evaluate(env),
        }


def scan_floors(cfg: VariantConfig) -> KernelFloors:
    """Per-launch floors for ``scan(k)``: every launch reads all ``n``
    degrees.

    ``n`` lane-reads need at least ``ceil(n / S)`` warp instructions
    (a warp instruction covers at most ``S`` lanes) and at least
    ``ceil(n / T)`` 128-byte transactions (a transaction covers at most
    ``T`` words) — independent of compaction strategy, shared buffers,
    or any what-if scenario.
    """
    return KernelFloors(
        issued=CeilDiv(_N, _S),
        mem_transactions=CeilDiv(_N, _T),
    )


def loop_floors(cfg: VariantConfig) -> KernelFloors:
    """Run-level floors for ``loop(k)``: a completed peel removes every
    vertex exactly once and its remover sweeps the full adjacency row.

    ``adj`` neighbor lane-reads across the whole run need at least
    ``ceil(adj / S)`` warp instructions and ``ceil(adj / T)``
    transactions, however the rows are split over launches, warps or
    virtual warps (``per_launch=False``).
    """
    return KernelFloors(
        issued=CeilDiv(_ADJ, _S),
        mem_transactions=CeilDiv(_ADJ, _T),
        per_launch=False,
    )


def floor_cycles(
    floors: KernelFloors, cost: CostModel, env: Mapping[str, float],
    num_sms: int,
) -> float:
    """Numeric lower bound on kernel cycles (one launch, or the whole
    run when ``floors.per_launch`` is False).

    Sound under-approximation of the roofline: the busiest SM carries
    at least the mean load (total block busy / ``num_sms``), each
    block's busy time is at least ``max(compute, memory)`` of its own
    work, and summing over blocks bounds each term by the totals —
    ``sum_i max(c_i, m_i) >= max(sum c_i, sum m_i)``.  Latency, barrier
    and atomic terms are dropped (they are exactly what the what-if
    scenarios are allowed to erase).
    """
    values = floors.evaluate(env)
    return max(
        values["issued"] / cost.issue_width,
        values["mem_transactions"] * cost.mem_transaction_cycles,
    ) / float(max(1, num_sms))


# -- reachability ------------------------------------------------------------

#: the declared call graph the certifier reasons over; the AST pass
#: (:meth:`repro.staticheck.absint.ModuleInventory.check_call_edges`)
#: verifies every real kernel->kernel call edge appears here, so a new
#: helper cannot be reached without being certified
REACHABILITY: Dict[str, Tuple[str, ...]] = {
    "scan_kernel": ("_scan_strided", "_scan_block_compaction"),
    "_scan_strided": ("_hit_flags", "warp_compact_ballot"),
    "_scan_block_compaction": (
        "_hit_flags",
        "warp_compact_hillis_steele",
        "block_scan_offsets",
    ),
    "_hit_flags": (),
    "loop_kernel": ("_drain", "_drain_virtual", "_drain_prefetched"),
    "_drain": ("_process_vertex",),
    "_drain_virtual": ("_process_vertices_virtual",),
    "_drain_prefetched": ("_process_vertex",),
    "_process_vertex": ("_append",),
    "_process_vertices_virtual": (),
    "_append": ("warp_compact_ballot", "warp_compact_hillis_steele"),
    "warp_compact_ballot": ("hillis_steele_exclusive",),
    "warp_compact_hillis_steele": ("hillis_steele_exclusive",),
    "block_scan_offsets": ("hillis_steele_exclusive",),
    "hillis_steele_exclusive": (),
}


def _kcore_prune(callee: str, cfg: VariantConfig) -> bool:
    """The abstract interpretation of the dispatch branches in
    ``scan_kernel`` / ``loop_kernel``: False = edge dead under ``cfg``."""
    if callee == "_scan_block_compaction" and cfg.compaction != "block":
        return False
    if callee == "_scan_strided" and cfg.compaction == "block":
        return False
    if callee == "_drain_prefetched" and not cfg.prefetch:
        return False
    if callee == "_drain_virtual" and cfg.virtual_warps == 1:
        return False
    if callee == "_drain" and (cfg.prefetch or cfg.virtual_warps > 1):
        return False
    if callee == "warp_compact_ballot" and cfg.compaction != "ballot":
        return False
    if callee == "warp_compact_hillis_steele" and cfg.compaction != "block":
        return False
    return True


def reachable_functions(kernel: str, cfg: VariantConfig) -> Tuple[str, ...]:
    """Transitive closure of the kernel contract's declared call graph
    from its entry, pruned by the contract's variant-dispatch rules."""
    contract = contracts.kernel_contract(kernel)
    seen: Dict[str, None] = {}
    frontier = [contract.entry]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen[name] = None
        frontier.extend(
            callee
            for callee in contract.reachability.get(name, ())
            if contract.prune(callee, cfg)
        )
    return tuple(seen)


# -- the built-in k-core contracts -------------------------------------------

#: the launch parameters of :func:`launch_env` the k-core bounds use
_KCORE_PARAMS = ("n", "adj", "dmax", "G", "W", "S", "cap", "scap", "P")

#: ring-buffer representatives whose wraparound aliasing the dataflow
#: tier *declares* unprovable (the honest-unproven set of the
#: admission gate; ``scripts/gate.py dataflow`` pins the same pair)
_RING_REPRESENTATIVES = ("ours", "bc")


def _kcore_variants() -> Dict[str, VariantConfig]:
    """The certified matrix (Table II + vw2/vw4) plus the declared
    ring representatives — the full dataflow-analyzable space."""
    configs: Dict[str, VariantConfig] = dict(VARIANTS)
    configs.update(EXTENSION_VARIANTS)
    for base in _RING_REPRESENTATIVES:
        ring = VARIANTS[base].with_ring_buffer()
        configs[ring.name] = ring
    return configs


def _ring_is_honest(cfg: VariantConfig) -> bool:
    """Ring wraparound has no static slot bound and no aliasing axiom:
    missing bounds and unproven obligations are the *correct* answer."""
    return cfg.ring_buffer


_KCORE_RACE_ARGUMENTS = (
    "read-only",
    "atomic-only",
    "barrier-separated",
    "same-warp",
    "single-instance",
    "warp-slot",
    "double-buffer-parity",
    "reservation-disjoint",
    "head-tail",
    "block-private",
)

contracts.register_kernel_contract(contracts.KernelContract(
    name="scan_kernel",
    program="kcore",
    module="repro.core.scan_kernel",
    entry="scan_kernel",
    bounds=_certified_scan_bounds,
    shared_layout=_scan_shared_layout,
    reachability=REACHABILITY,
    variants=_kcore_variants,
    prune=_kcore_prune,
    params=_KCORE_PARAMS,
    helper_modules=("repro.core.compaction", "repro.core.buffers"),
    engine_module="repro.core.fastsim",
    race_arguments=_KCORE_RACE_ARGUMENTS,
    honest_unproven=_ring_is_honest,
    floors=scan_floors,
))

contracts.register_kernel_contract(contracts.KernelContract(
    name="loop_kernel",
    program="kcore",
    module="repro.core.loop_kernel",
    entry="loop_kernel",
    bounds=_certified_loop_bounds,
    shared_layout=_loop_shared_layout,
    reachability=REACHABILITY,
    variants=_kcore_variants,
    prune=_kcore_prune,
    params=_KCORE_PARAMS,
    helper_modules=("repro.core.compaction", "repro.core.buffers"),
    engine_module="repro.core.fastsim",
    race_arguments=_KCORE_RACE_ARGUMENTS,
    honest_unproven=_ring_is_honest,
    floors=loop_floors,
))

contracts.register_program_contract(contracts.ProgramContract(
    name="kcore",
    kernels=("scan_kernel", "loop_kernel"),
    device_memory=device_memory_bound,
    variants=_kcore_variants,
    description="k-core peeling: scan(k) collects the k-shell, loop(k) "
                "drains and cascades it (Algorithms 2/3)",
))
