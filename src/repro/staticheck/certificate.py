"""Static resource certificates: the certifier's user-facing product.

A :class:`KernelCertificate` packages, for one kernel under one
:class:`~repro.core.variants.VariantConfig`:

* the closed-form :class:`~repro.staticheck.bounds.KernelBounds` on the
  events the scheduler measures per launch;
* the static shared-memory footprint and its fit against the
  :class:`~repro.gpusim.spec.DeviceSpec` capacity;
* the site inventory of the functions the variant actually reaches —
  atomic-contention sites split shared vs global (the costmodel's
  BC/EC story), divergence sites, and coalesced vs scattered global
  accesses (the latency story behind VP's ``trackers`` win);
* the barrier sites backing the barrier bound.

A :class:`VariantCertificate` maps each kernel of one registered
program (see :mod:`repro.staticheck.contracts`) to its certificate,
plus the program's exact device-global-memory bound (Table V for
k-core).  Certificates are built entirely from the AST pass and the
symbolic bounds — nothing is executed — and are checked two ways:

* dynamically, by :mod:`repro.staticheck.differential` on every traced
  launch;
* in CI, by ``scripts/gate.py static_bounds`` against the committed
  bench JSON.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, List, Mapping, Tuple

from repro.core.variants import VariantConfig
from repro.gpusim.spec import DeviceSpec
from repro.sanitize.report import SanitizerFinding
from repro.staticheck import contracts
from repro.staticheck.absint import (
    KernelInventory,
    ModuleInventory,
    Site,
    analyze_module,
)
from repro.staticheck.bounds import (
    KernelBounds,
    kernel_bounds,
    reachable_functions,
    shared_footprint,
)
from repro.staticheck.symbolic import Expr

__all__ = [
    "KernelCertificate",
    "VariantCertificate",
    "core_inventories",
    "kernel_inventories",
    "verify_inventories",
    "certify_variant",
    "certify_program",
    "certify_all",
    "all_variant_configs",
    "render_certificates",
]


def _certified_modules() -> Tuple[ModuleType, ...]:
    """The certified modules, in the registry's analysis order."""
    return tuple(
        importlib.import_module(path)
        for path in contracts.certified_module_paths()
    )


def core_inventories() -> List[ModuleInventory]:
    """AST inventories of every certified module in the registry."""
    return [analyze_module(mod) for mod in _certified_modules()]


def kernel_inventories() -> Dict[str, KernelInventory]:
    """All certified kernel functions, keyed by bare function name.

    Names are unique across the certified modules (the coverage gate
    in :func:`verify_inventories` would flag a collision as a stale
    reachability table long before it became ambiguous here).
    """
    merged: Dict[str, KernelInventory] = {}
    for module in core_inventories():
        merged.update(module.kernels)
    return merged


def verify_inventories() -> List[SanitizerFinding]:
    """The static coverage gate over every certified module.

    Returns ``uncertified-kernel`` findings when a ``ctx`` function is
    missing from its module's ``__staticheck__`` annotation, when an
    annotation has gone stale, or when a real call edge between kernel
    functions is absent from the registry's merged reachability table.
    """
    findings: List[SanitizerFinding] = []
    merged = contracts.merged_reachability()
    for module in core_inventories():
        findings.extend(module.coverage_findings())
        findings.extend(module.check_call_edges(merged))
    return findings


def _gather_sites(
    reachable: Tuple[str, ...],
    inventories: Mapping[str, KernelInventory],
    pick,
) -> Tuple[Site, ...]:
    sites: List[Site] = []
    for name in reachable:
        inv = inventories.get(name)
        if inv is not None:
            sites.extend(pick(inv))
    return tuple(sorted(sites, key=lambda s: (s.function, s.line)))


@dataclass(frozen=True)
class KernelCertificate:
    """Static certificate of one kernel under one variant."""

    kernel: str
    variant: str
    bounds: KernelBounds
    #: shared-memory demand per block: allocation name -> symbolic slots
    shared_slots: Mapping[str, Expr]
    #: functions the variant's dispatch makes reachable from the kernel
    reachable: Tuple[str, ...]
    shared_atomic_sites: Tuple[Site, ...]
    global_atomic_sites: Tuple[Site, ...]
    barrier_sites: Tuple[Site, ...]
    divergence_sites: Tuple[Site, ...]
    coalesced_sites: Tuple[Site, ...]
    scattered_sites: Tuple[Site, ...]

    def shared_bytes(self, env: Mapping[str, float], id_bytes: int) -> int:
        """Evaluated per-block shared-memory demand in bytes."""
        slots = sum(expr.evaluate(env) for expr in self.shared_slots.values())
        return int(slots) * id_bytes

    def check_shared_fit(
        self, spec: DeviceSpec, env: Mapping[str, float]
    ) -> List[SanitizerFinding]:
        """``static-resource`` finding when the footprint cannot fit."""
        needed = self.shared_bytes(env, spec.id_bytes)
        if needed <= spec.shared_memory_per_block_bytes:
            return []
        detail = ", ".join(
            f"{name}={expr}" for name, expr in self.shared_slots.items()
        )
        return [
            SanitizerFinding(
                "static-resource",
                "error",
                f"{self.kernel}[{self.variant}]",
                f"static shared-memory footprint {needed} B exceeds the "
                f"device's {spec.shared_memory_per_block_bytes} B per block "
                f"({detail})",
            )
        ]

    def to_dict(self, env: Mapping[str, float] | None = None) -> Dict[str, object]:
        """JSON-friendly rendering (numeric bounds when ``env`` given)."""
        data: Dict[str, object] = {
            "kernel": self.kernel,
            "variant": self.variant,
            "bounds": {
                "issued": str(self.bounds.issued),
                "mem_transactions": str(self.bounds.mem_transactions),
                "barriers": str(self.bounds.barriers),
            },
            "shared_slots": {
                name: str(expr) for name, expr in self.shared_slots.items()
            },
            "reachable": list(self.reachable),
            "sites": {
                "shared_atomic": len(self.shared_atomic_sites),
                "global_atomic": len(self.global_atomic_sites),
                "barrier": len(self.barrier_sites),
                "divergence": len(self.divergence_sites),
                "coalesced": len(self.coalesced_sites),
                "scattered": len(self.scattered_sites),
            },
        }
        if env is not None:
            data["evaluated"] = self.bounds.evaluate(env)
        return data


@dataclass(frozen=True)
class VariantCertificate:
    """One program's kernel certificates plus its memory bound.

    ``kernel_certs`` is an open mapping keyed by kernel name — any
    registered program fits, not just the scan/loop pair.
    """

    variant: str
    config: VariantConfig
    #: certificate per member kernel, in the program's launch order
    kernel_certs: Mapping[str, KernelCertificate]
    #: exact peak device global memory, in id-sized words (multiply by
    #: ``id_bytes`` and add ``context_overhead_bytes``; see bounds.py)
    device_memory_words: Expr
    #: owning program contract
    program: str = "kcore"

    @property
    def kernels(self) -> Tuple[KernelCertificate, ...]:
        return tuple(self.kernel_certs.values())

    def certificate_for(self, kernel: str) -> KernelCertificate:
        try:
            return self.kernel_certs[kernel]
        except KeyError:
            raise KeyError(
                f"variant {self.variant!r} has no certificate "
                f"for kernel {kernel!r}"
            ) from None

    def device_memory_bytes(
        self, env: Mapping[str, float], spec: DeviceSpec
    ) -> int:
        words = self.device_memory_words.evaluate(env)
        return int(words) * spec.id_bytes + spec.context_overhead_bytes

    def check_fit(
        self, spec: DeviceSpec, env: Mapping[str, float]
    ) -> List[SanitizerFinding]:
        """Shared-memory fit findings of every member kernel."""
        findings: List[SanitizerFinding] = []
        for cert in self.kernels:
            findings.extend(cert.check_shared_fit(spec, env))
        return findings

    def to_dict(self, env: Mapping[str, float] | None = None) -> Dict[str, object]:
        data: Dict[str, object] = {"variant": self.variant}
        for name, cert in self.kernel_certs.items():
            data[name] = cert.to_dict(env)
        data["device_memory_words"] = str(self.device_memory_words)
        return data


def _kernel_certificate(
    kernel: str,
    cfg: VariantConfig,
    inventories: Mapping[str, KernelInventory],
) -> KernelCertificate:
    reachable = reachable_functions(kernel, cfg)
    return KernelCertificate(
        kernel=kernel,
        variant=cfg.name,
        bounds=kernel_bounds(kernel, cfg),
        shared_slots=shared_footprint(kernel, cfg),
        reachable=reachable,
        shared_atomic_sites=_gather_sites(
            reachable, inventories, lambda i: i.shared_atomic_sites
        ),
        global_atomic_sites=_gather_sites(
            reachable, inventories, lambda i: i.global_atomic_sites
        ),
        barrier_sites=_gather_sites(
            reachable, inventories, lambda i: i.barrier_sites
        ),
        divergence_sites=_gather_sites(
            reachable, inventories, lambda i: i.divergence_sites
        ),
        coalesced_sites=_gather_sites(
            reachable, inventories, lambda i: i.coalesced_sites
        ),
        scattered_sites=_gather_sites(
            reachable, inventories, lambda i: i.scattered_sites
        ),
    )


def certify_variant(
    cfg: VariantConfig,
    inventories: Mapping[str, KernelInventory] | None = None,
    program: str = "kcore",
) -> VariantCertificate:
    """Build the static certificate of one program variant.

    Raises ``ValueError`` for configs whose kernel contracts declare no
    static bound (the k-core ring-buffer variants; see
    :func:`repro.staticheck.bounds.kernel_bounds`).
    """
    if inventories is None:
        inventories = kernel_inventories()
    prog = contracts.program_contract(program)
    return VariantCertificate(
        variant=cfg.name,
        config=cfg,
        kernel_certs={
            kernel: _kernel_certificate(kernel, cfg, inventories)
            for kernel in prog.kernels
        },
        device_memory_words=prog.device_memory(cfg),
        program=program,
    )


def all_variant_configs() -> Dict[str, VariantConfig]:
    """The eleven bounds-certifiable k-core variants: Table II's nine
    plus vw2/vw4 (the contract's declared-honest ring configs, which
    have no static bound, are excluded)."""
    return _certifiable_configs("kcore")


def _certifiable_configs(program: str) -> Dict[str, VariantConfig]:
    prog = contracts.program_contract(program)
    honest = [
        contracts.kernel_contract(kernel).honest_unproven
        for kernel in prog.kernels
    ]
    return {
        name: cfg
        for name, cfg in prog.variants().items()
        if not any(pred(cfg) for pred in honest)
    }


def certify_program(
    program: str,
    inventories: Mapping[str, KernelInventory] | None = None,
) -> Dict[str, VariantCertificate]:
    """Certificates for one program's bounds-certifiable variants."""
    if inventories is None:
        inventories = kernel_inventories()
    return {
        name: certify_variant(cfg, inventories, program=program)
        for name, cfg in _certifiable_configs(program).items()
    }


def certify_all(
    inventories: Mapping[str, KernelInventory] | None = None,
) -> Dict[str, VariantCertificate]:
    """K-core certificates for all eleven variants, keyed by name."""
    return certify_program("kcore", inventories)


def render_certificates(certs: Mapping[str, VariantCertificate]) -> str:
    """Human-readable certificate dump (the ``--staticheck`` listing)."""
    lines: List[str] = [
        f"static resource certificates ({len(certs)} variants; see "
        "docs/STATIC_ANALYSIS.md for the parameter table)"
    ]
    for name in certs:
        cert = certs[name]
        lines.append(f"\nvariant {name}:")
        lines.append(
            f"  device memory (id-words): {cert.device_memory_words}"
        )
        for kc in cert.kernels:
            shared = ", ".join(
                f"{alloc}={expr}" for alloc, expr in kc.shared_slots.items()
            )
            lines.extend([
                f"  {kc.kernel}:",
                f"    issued           <= {kc.bounds.issued}",
                f"    mem_transactions <= {kc.bounds.mem_transactions}",
                f"    barriers         <= {kc.bounds.barriers}",
                f"    shared slots: {shared}",
                f"    sites: {len(kc.shared_atomic_sites)} shared-atomic, "
                f"{len(kc.global_atomic_sites)} global-atomic, "
                f"{len(kc.barrier_sites)} barrier, "
                f"{len(kc.divergence_sites)} divergence, "
                f"{len(kc.coalesced_sites)} coalesced, "
                f"{len(kc.scattered_sites)} scattered",
            ])
    return "\n".join(lines)
