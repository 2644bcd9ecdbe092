"""Declarative kernel-admission contracts: the certifier's registry.

Historically the static-analysis stack knew exactly two kernels by
name — ``scan_kernel`` and ``loop_kernel`` were hardcoded into the
bounds ladder, the certificate dataclass and the dataflow analyzer.
This module replaces that with an open **contract registry**: a kernel
is *admitted* to the verification pipeline by registering a
:class:`KernelContract` that declares everything the analyzers need —

* where the kernel lives (``module`` / ``entry``) and which helper
  modules its call graph crosses into (``helper_modules``);
* its variant space (``variants``) and the symbolic launch parameters
  its bounds range over (``params``);
* the closed-form resource bounds and shared-memory layout, as
  callables over a :class:`~repro.core.variants.VariantConfig`
  (``bounds`` / ``shared_layout``);
* the declared call graph the site inventory is gathered over
  (``reachability``) and the variant-dispatch pruning of its edges
  (``prune``);
* which engine module (if any) registers a vectorized executor for it
  (``engine_module``) — ``None`` means every launch is honestly served
  by the reference interpreter;
* the race-discharge arguments its access patterns rely on
  (``race_arguments``) and the configs for which *undischarged*
  obligations are the declared-honest answer (``honest_unproven`` —
  e.g. ring-buffer wraparound, which the epoch algebra has no axiom
  for).

A :class:`ProgramContract` groups the kernels of one host program
(k-core peeling launches ``scan`` then ``loop``; BFS launches its one
frontier kernel) and owns the program-level device-memory bound.

The analyzers (:mod:`~repro.staticheck.bounds`,
:mod:`~repro.staticheck.certificate`, :mod:`~repro.staticheck.dataflow`,
:mod:`~repro.staticheck.differential`) iterate this registry instead of
importing kernel modules by name, so admitting a new kernel — see
``repro/core/bfs_kernel.py`` and the "Authoring a verifiable kernel"
guide in ``docs/STATIC_ANALYSIS.md`` — requires **zero analyzer
edits**: registration *is* admission, and ``scripts/gate.py admission``
gates in CI that every registered contract actually certifies.

This module stays dependency-light (only the variant and symbolic
types) so kernel modules can import it at registration time without
import cycles; the analyzers' own modules register the built-in k-core
contracts when they load (see the bottom of ``bounds.py``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

from repro.core.variants import VariantConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.staticheck.bounds import KernelBounds, KernelFloors
    from repro.staticheck.symbolic import Expr

__all__ = [
    "KernelContract",
    "ProgramContract",
    "register_kernel_contract",
    "register_program_contract",
    "kernel_contract",
    "program_contract",
    "all_kernel_contracts",
    "all_program_contracts",
    "certified_module_paths",
    "merged_reachability",
    "load_contracts",
]


def _never_honest(cfg: VariantConfig) -> bool:
    """Default ``honest_unproven``: every obligation must discharge."""
    return False


def _keep_all(callee: str, cfg: VariantConfig) -> bool:
    """Default ``prune``: no variant-dispatch edges to cut."""
    return True


@dataclass(frozen=True)
class KernelContract:
    """Everything the static-analysis pipeline needs to admit a kernel.

    The callables are evaluated lazily, per variant config — a contract
    never runs kernel code, it only *describes* it; the analyzers
    verify the description (coverage, call edges, race discharge,
    bound domination) and CI fails when description and code drift.
    """

    #: scheduler kernel name (``KernelStats`` attribution key)
    name: str
    #: owning program contract (``kcore``, ``bfs``, ...)
    program: str
    #: import path of the module holding the kernel's AST
    module: str
    #: entry generator function (the root of the reachability closure)
    entry: str
    #: closed-form per-launch bounds; may raise ``ValueError`` for
    #: configs with no static bound (then ``honest_unproven`` must
    #: hold for that config)
    bounds: Callable[[VariantConfig], "KernelBounds"]
    #: static shared-memory demand: allocation name -> symbolic slots
    shared_layout: Callable[[VariantConfig], Mapping[str, "Expr"]]
    #: declared call graph over bare function names; the AST pass
    #: verifies every real kernel->kernel call edge appears here
    reachability: Mapping[str, Tuple[str, ...]]
    #: the kernel's variant space, keyed by config name
    variants: Callable[[], Mapping[str, VariantConfig]]
    #: abstract interpretation of the entry's dispatch branches:
    #: ``prune(callee, cfg)`` is False when ``cfg`` makes the edge dead
    prune: Callable[[str, VariantConfig], bool] = _keep_all
    #: symbolic launch parameters the bounds range over (see
    #: :func:`repro.staticheck.bounds.launch_env`)
    params: Tuple[str, ...] = ()
    #: additional certified modules the call graph crosses into
    helper_modules: Tuple[str, ...] = ()
    #: module whose import registers a vectorized executor for this
    #: kernel (its ``FallbackToReference`` guards become the engine
    #: preconditions); ``None`` = always served by reference
    engine_module: Optional[str] = None
    #: the discharge arguments this kernel's access patterns rely on;
    #: the admission gate rejects a certificate whose proofs use an
    #: argument the contract did not declare
    race_arguments: Tuple[str, ...] = ()
    #: configs whose undischarged obligations (and missing bounds) are
    #: the declared-honest answer rather than an admission failure
    honest_unproven: Callable[[VariantConfig], bool] = _never_honest
    #: closed-form *lower* bounds on the measured events (the dual of
    #: ``bounds``): work the kernel cannot avoid under any counterfactual,
    #: used by the critical-path analyzer (:mod:`repro.obs.critpath`) to
    #: floor its what-if projections.  ``None`` (the default) means no
    #: non-trivial floor is claimed — the analyzer uses zero, which keeps
    #: every projection trivially bracketed.  Must never raise: floors
    #: hold for *every* config, including ones ``bounds`` rejects.
    floors: Optional[Callable[[VariantConfig], "KernelFloors"]] = None

    def __post_init__(self) -> None:
        if not self.name or not self.module or not self.entry:
            raise ValueError(
                "a KernelContract needs a name, a module and an entry"
            )
        if self.entry not in self.reachability:
            raise ValueError(
                f"contract {self.name!r}: entry {self.entry!r} is not a "
                "root of the declared reachability table"
            )


@dataclass(frozen=True)
class ProgramContract:
    """The kernels of one host program plus its memory bound."""

    #: program name (``kcore``, ``bfs``, ...)
    name: str
    #: member kernel names, in launch order
    kernels: Tuple[str, ...]
    #: exact peak device global memory in id-sized words (see
    #: :func:`repro.staticheck.bounds.device_memory_bound`)
    device_memory: Callable[[VariantConfig], "Expr"]
    #: the program's variant space, keyed by config name
    variants: Callable[[], Mapping[str, VariantConfig]]
    #: one-line description for renderings and reports
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.kernels:
            raise ValueError(
                "a ProgramContract needs a name and at least one kernel"
            )


_KERNEL_CONTRACTS: Dict[str, KernelContract] = {}
_PROGRAM_CONTRACTS: Dict[str, ProgramContract] = {}

#: modules whose import registers the built-in contracts; extending the
#: pipeline to a new kernel means adding its module here (or importing
#: it yourself before asking the registry) — never editing an analyzer
_BOOTSTRAP_MODULES: Tuple[str, ...] = (
    "repro.staticheck.bounds",  # registers scan_kernel/loop_kernel/kcore
    "repro.core.bfs_kernel",    # registers bfs_kernel/bfs
)


def register_kernel_contract(contract: KernelContract) -> KernelContract:
    """Admit a kernel: later registrations of the same name replace
    earlier ones (module reloads), but a name collision across
    *different* programs is a configuration error."""
    existing = _KERNEL_CONTRACTS.get(contract.name)
    if existing is not None and existing.program != contract.program:
        raise ValueError(
            f"kernel {contract.name!r} is already registered by program "
            f"{existing.program!r}; kernel names are global"
        )
    _KERNEL_CONTRACTS[contract.name] = contract
    return contract


def register_program_contract(contract: ProgramContract) -> ProgramContract:
    """Register a program; its kernels may be registered before or
    after (lookups resolve lazily)."""
    _PROGRAM_CONTRACTS[contract.name] = contract
    return contract


def load_contracts() -> None:
    """Idempotent bootstrap: import every contract-registering module."""
    for path in _BOOTSTRAP_MODULES:
        importlib.import_module(path)


def kernel_contract(name: str) -> KernelContract:
    """Contract of one admitted kernel; ``KeyError`` names the registry."""
    load_contracts()
    try:
        return _KERNEL_CONTRACTS[name]
    except KeyError:
        known = ", ".join(sorted(_KERNEL_CONTRACTS))
        raise KeyError(
            f"no contract registered for kernel {name!r} (registered: "
            f"{known}); see repro.staticheck.contracts"
        ) from None


def program_contract(name: str) -> ProgramContract:
    """Contract of one registered program."""
    load_contracts()
    try:
        return _PROGRAM_CONTRACTS[name]
    except KeyError:
        known = ", ".join(sorted(_PROGRAM_CONTRACTS))
        raise KeyError(
            f"no contract registered for program {name!r} (registered: "
            f"{known}); see repro.staticheck.contracts"
        ) from None


def all_kernel_contracts() -> Dict[str, KernelContract]:
    """Every admitted kernel, in registration order."""
    load_contracts()
    return dict(_KERNEL_CONTRACTS)


def all_program_contracts() -> Dict[str, ProgramContract]:
    """Every registered program, in registration order."""
    load_contracts()
    return dict(_PROGRAM_CONTRACTS)


def certified_module_paths() -> Tuple[str, ...]:
    """Import paths of every certified module: each contract's kernel
    module first (registration order), then the helper modules, with
    duplicates dropped — the sweep order of the coverage gate."""
    load_contracts()
    ordered: Dict[str, None] = {}
    for contract in _KERNEL_CONTRACTS.values():
        ordered.setdefault(contract.module, None)
    for contract in _KERNEL_CONTRACTS.values():
        for helper in contract.helper_modules:
            ordered.setdefault(helper, None)
    return tuple(ordered)


def merged_reachability() -> Dict[str, Tuple[str, ...]]:
    """The union of every contract's declared call graph, for the
    cross-module call-edge check.  Contracts sharing helper entries
    (scan/loop both declare the compaction helpers) must agree on
    them; a disagreement is a stale table and raises."""
    load_contracts()
    merged: Dict[str, Tuple[str, ...]] = {}
    for contract in _KERNEL_CONTRACTS.values():
        for caller, callees in contract.reachability.items():
            if caller in merged and merged[caller] != tuple(callees):
                raise ValueError(
                    f"contracts disagree on the callees of {caller!r}: "
                    f"{merged[caller]} vs {tuple(callees)}"
                )
            merged[caller] = tuple(callees)
    return merged
