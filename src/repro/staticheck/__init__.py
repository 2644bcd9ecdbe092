"""Static kernel cost certifier (see ``docs/STATIC_ANALYSIS.md``).

An abstract-interpretation pass over the kernel ASTs that derives, per
kernel x variant, a **static resource certificate**: closed-form upper
bounds on the events the simulator measures (issued warp-instructions,
memory transactions, barrier generations), the shared-memory footprint
against the device capacity, the exact device-global-memory bound of
Table V, and site inventories (atomics shared vs global, divergence,
coalesced vs scattered access).  A differential checker asserts on
every traced launch that the certificate dominates the dynamic
measurement, and ``scripts/gate.py static_bounds`` gates CI on the
certificates against the committed bench JSON.

Package layout:

* :mod:`~repro.staticheck.contracts` — the kernel-admission registry:
  declarative :class:`~repro.staticheck.contracts.KernelContract` /
  :class:`~repro.staticheck.contracts.ProgramContract` records that
  every analyzer below iterates instead of hardcoding kernel names;
* :mod:`~repro.staticheck.symbolic` — the expression language bounds
  are written in;
* :mod:`~repro.staticheck.absint` — the AST site-inventory pass and
  the ``__staticheck__`` coverage gate;
* :mod:`~repro.staticheck.bounds` — the closed-form bounds per kernel
  x variant and the variant-reachability table;
* :mod:`~repro.staticheck.certificate` — certificate assembly;
* :mod:`~repro.staticheck.differential` — the launch-time checker;
* :mod:`~repro.staticheck.dataflow` — the dataflow tier:
  lane-uniformity abstract interpretation, barrier-epoch race-freedom
  certificates, divergence/coalescing brackets, and the static engine
  precondition analysis (with :mod:`~repro.staticheck.fixtures`
  holding the known-bad detector self-test inputs).
"""

from repro.staticheck.absint import (
    KernelInventory,
    ModuleInventory,
    SharedAlloc,
    Site,
    WAIVE_MARK,
    analyze_file,
    analyze_module,
    analyze_source,
)
from repro.staticheck.bounds import (
    KernelBounds,
    REACHABILITY,
    cycles_bound,
    device_memory_bound,
    kernel_bounds,
    launch_env,
    loop_bounds,
    ms_bound,
    reachable_functions,
    scan_bounds,
    shared_footprint,
)
from repro.staticheck.certificate import (
    KernelCertificate,
    VariantCertificate,
    all_variant_configs,
    certify_all,
    certify_program,
    certify_variant,
    core_inventories,
    kernel_inventories,
    render_certificates,
    verify_inventories,
)
from repro.staticheck.contracts import (
    KernelContract,
    ProgramContract,
    all_kernel_contracts,
    all_program_contracts,
    certified_module_paths,
    kernel_contract,
    load_contracts,
    merged_reachability,
    program_contract,
    register_kernel_contract,
    register_program_contract,
)
from repro.staticheck.dataflow import (
    DataflowCertificate,
    DataflowChecker,
    EfficiencyBracket,
    FallbackRule,
    RaceObligation,
    RaceProof,
    Uniformity,
    analyze_function,
    analyze_kernel,
    certified_combos,
    dataflow_report,
    engine_preconditions,
    predicted_tier,
    render_dataflow_certificates,
)
from repro.staticheck.differential import DifferentialChecker
from repro.staticheck.symbolic import (
    Add,
    CeilDiv,
    Const,
    Expr,
    Max,
    Min,
    Mul,
    Param,
    as_expr,
)

__all__ = [
    # contracts
    "KernelContract", "ProgramContract", "register_kernel_contract",
    "register_program_contract", "kernel_contract", "program_contract",
    "all_kernel_contracts", "all_program_contracts",
    "certified_module_paths", "merged_reachability", "load_contracts",
    # symbolic
    "Expr", "Const", "Param", "Add", "Mul", "Max", "Min", "CeilDiv",
    "as_expr",
    # absint
    "Site", "SharedAlloc", "KernelInventory", "ModuleInventory",
    "analyze_source", "analyze_file", "analyze_module", "WAIVE_MARK",
    # bounds
    "KernelBounds", "launch_env", "scan_bounds", "loop_bounds",
    "kernel_bounds", "shared_footprint", "device_memory_bound",
    "cycles_bound", "ms_bound", "REACHABILITY", "reachable_functions",
    # certificates
    "KernelCertificate", "VariantCertificate", "core_inventories",
    "kernel_inventories", "verify_inventories", "certify_variant",
    "certify_all", "certify_program", "all_variant_configs",
    "render_certificates",
    # differential
    "DifferentialChecker",
    # dataflow
    "DataflowCertificate", "DataflowChecker", "EfficiencyBracket",
    "FallbackRule", "RaceObligation", "RaceProof", "Uniformity",
    "analyze_function", "analyze_kernel", "certified_combos",
    "dataflow_report", "engine_preconditions", "predicted_tier",
    "render_dataflow_certificates",
]
