"""Top-level convenience API and the algorithm registry.

``decompose(graph, algorithm=...)`` runs any program in the repository
by its Table III/IV name.  The registry is also what the benchmark
harness iterates over, so the set of names here *is* the set of columns
the paper's tables have.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, FrozenSet, Mapping, Tuple

from repro.core.fastpath import fast_decompose
from repro.core.host import gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.core.variants import variant_names
from repro.cpu.bz import bz_decompose
from repro.cpu.mpm import mpm_decompose
from repro.cpu.naive import networkx_style_decompose
from repro.cpu.park import park_decompose
from repro.cpu.pkc import pkc_decompose
from repro.errors import UnknownAlgorithmError
from repro.graph.csr import CSRGraph
from repro.result import DecompositionResult
from repro.systems.gswitch import gswitch_decompose
from repro.systems.gunrock import gunrock_decompose
from repro.systems.medusa import medusa_decompose
from repro.systems.vetga import vetga_decompose

__all__ = [
    "ALGORITHMS",
    "CAPABILITIES",
    "algorithm_names",
    "decompose",
]

#: the graph-parallel system emulations of Table III
_SYSTEM_NAMES = frozenset(
    {"vetga", "medusa-mpm", "medusa-peel", "gunrock", "gswitch"}
)

Runner = Callable[..., DecompositionResult]


def _gpu_variant_runner(variant: str) -> Runner:
    def run(graph: CSRGraph, **kwargs) -> DecompositionResult:
        return gpu_peel(graph, variant=variant, **kwargs)

    return run


def _semi_external_runner(graph: CSRGraph, **kwargs) -> DecompositionResult:
    """Spill the graph to a temporary directory and run the disk path."""
    import tempfile

    from repro.cpu.external import decompose_graph_via_disk

    with tempfile.TemporaryDirectory() as work_dir:
        return decompose_graph_via_disk(graph, work_dir, **kwargs)


def _fast_runner(
    graph: CSRGraph, sanitize: bool = False, **kwargs
) -> DecompositionResult:
    result = fast_decompose(graph)
    if not sanitize:
        return result
    # the native path launches no kernels: sanitize degrades to the
    # static lint sweep over the shipped kernel sources
    from repro.sanitize.lint import lint_repo

    return replace(result, sanitizer=lint_repo())


def _build_registry() -> Dict[str, Runner]:
    registry: Dict[str, Runner] = {
        # the paper's own program and its fast native path
        "gpu-ours": _gpu_variant_runner("ours"),
        "fast": _fast_runner,
        # CPU programs (Table IV)
        "networkx": networkx_style_decompose,
        "bz": bz_decompose,
        "park-serial": lambda g, **kw: park_decompose(g, parallel=False, **kw),
        "park": lambda g, **kw: park_decompose(g, parallel=True, **kw),
        "pkc-o-serial": lambda g, **kw: pkc_decompose(
            g, parallel=False, compact=False, **kw
        ),
        "pkc-o": lambda g, **kw: pkc_decompose(
            g, parallel=True, compact=False, **kw
        ),
        "mpm": lambda g, **kw: mpm_decompose(g, parallel=True, **kw),
        "mpm-serial": lambda g, **kw: mpm_decompose(g, parallel=False, **kw),
        "pkc-serial": lambda g, **kw: pkc_decompose(
            g, parallel=False, compact=True, **kw
        ),
        "pkc": lambda g, **kw: pkc_decompose(g, parallel=True, compact=True, **kw),
        # the Section II-C semi-external (disk-streaming) model
        "semi-external": _semi_external_runner,
        # GPU systems (Table III)
        "vetga": vetga_decompose,
        "medusa-mpm": lambda g, **kw: medusa_decompose(g, program="mpm", **kw),
        "medusa-peel": lambda g, **kw: medusa_decompose(g, program="peel", **kw),
        "gunrock": gunrock_decompose,
        "gswitch": gswitch_decompose,
        # the Section VII future-work extension
        "gpu-multi2": lambda g, **kw: multi_gpu_peel(g, num_devices=2, **kw),
        "gpu-multi4": lambda g, **kw: multi_gpu_peel(g, num_devices=4, **kw),
    }
    # the ablation variants (Table II): gpu-ours, gpu-sm, gpu-vp, ...
    for name in variant_names():
        registry.setdefault(f"gpu-{name}", _gpu_variant_runner(name))
    return registry


#: name -> runner for every program in the repository
ALGORITHMS: Dict[str, Runner] = _build_registry()

#: the single-GPU peeling variants (Table II), whose kernels launch on
#: one :class:`~repro.gpusim.device.Device` with closed-form static
#: certificates and per-block timings
_SINGLE_GPU = frozenset(f"gpu-{name}" for name in variant_names())
#: every simulated-GPU peeling runner, the multi-GPU ones included
_ALL_GPU = frozenset(name for name in ALGORITHMS if name.startswith("gpu-"))
#: the multicore CPU baselines (Table IV), modelled by
#: :class:`~repro.multicore.machine.SimulatedMulticore`
_MULTICORE_NAMES = frozenset({
    "park", "park-serial",
    "pkc", "pkc-serial", "pkc-o", "pkc-o-serial",
    "mpm", "mpm-serial",
})

#: run keyword -> the algorithms whose runner accepts it.
#:
#: * ``sanitize`` (``docs/SANITIZER.md``): the simulated-GPU kernels get
#:   the dynamic racecheck; the system emulations and the native fast
#:   path get the static lint sweep; the CPU baselines model no device.
#: * ``staticheck`` and ``dataflow`` (``docs/STATIC_ANALYSIS.md``): the
#:   single-GPU variants, whose kernels have static certificates.  The
#:   multi-GPU runner composes per-device runs the checkers do not
#:   model; ring-buffer configs reject ``staticheck`` at run time.
#: * ``profile`` (:mod:`repro.profile`): the single-GPU variants
#:   (per-launch roofline attribution), the system emulations (coarse
#:   ``source="charge"`` records) and the multicore baselines
#:   (per-epoch bound classes, ``repro.cpu-epochs/v1``).
#: * ``engine`` (``docs/SIMULATOR.md``): every runner whose kernels
#:   run on a simulated device; engines are byte-identical, so only
#:   host time changes.
#: * ``memtrace`` (:mod:`repro.memtrace`): everything that models
#:   memory — simulated device memory (GPU runners, system emulations)
#:   or modelled host working arrays (multicore baselines, the
#:   semi-external disk path).
#: * ``critpath`` (:mod:`repro.obs.critpath`): the single-GPU variants,
#:   whose per-block timings the analyzer replays, and the multi-GPU
#:   runners, whose coordinator terms it attributes per round.
CAPABILITIES: Mapping[str, FrozenSet[str]] = {
    "sanitize": _ALL_GPU | _SYSTEM_NAMES | {"fast"},
    "staticheck": _SINGLE_GPU,
    "dataflow": _SINGLE_GPU,
    "profile": _SINGLE_GPU | _SYSTEM_NAMES | _MULTICORE_NAMES,
    "engine": _ALL_GPU,
    "memtrace": (_ALL_GPU | _SYSTEM_NAMES | _MULTICORE_NAMES
                 | {"semi-external"}),
    "critpath": _SINGLE_GPU | {"gpu-multi2", "gpu-multi4"},
}


def algorithm_names() -> Tuple[str, ...]:
    """All registered program names."""
    return tuple(ALGORITHMS)


def decompose(
    graph: CSRGraph, algorithm: str = "gpu-ours", **kwargs
) -> DecompositionResult:
    """Run the named program on ``graph``.

    Args:
        graph: input graph in CSR form.
        algorithm: a registry name, e.g. ``"gpu-ours"``, ``"bz"``,
            ``"pkc"``, ``"gswitch"``; see :func:`algorithm_names`.
        **kwargs: forwarded to the program (e.g. ``time_budget_ms`` for
            the GPU systems, ``cost`` for the CPU programs).

    Returns:
        The program's :class:`~repro.result.DecompositionResult`.
    """
    try:
        runner = ALGORITHMS[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {algorithm!r}; known: "
            f"{', '.join(sorted(ALGORITHMS))}"
        ) from None
    return runner(graph, **kwargs)
