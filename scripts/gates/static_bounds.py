"""Evaluate static certificates against committed bench JSON.

With no ``table2``/``table5``, checks the committed ``repro.bench/v1``
artefacts in ``benchmarks/results/``.  Four families of checks:

1. **coverage** — the certifier's coverage gate over the kernel
   modules is clean (every ``ctx`` function annotated, every call edge
   in the reachability table) and all eleven variants certify;
2. **static ordering** — evaluated per dataset, the certificates
   themselves order ``issued(ours) <= issued(bc) <= issued(ec)`` for
   both kernels (the instruction-overhead argument of Table II), and
   the device-memory certificates make Ours/SM/VP tie while BC/EC pay
   exactly the compaction-scratch surcharge;
3. **Table II pinning** — the committed ablation rows keep
   ``ours <= bc <= ec`` per dataset, with the row winner ``ours``
   everywhere except ``trackers``, where ``vp`` wins (the paper's
   latency-boundness claim); every committed time also sits below the
   certificate's run-total ceiling ``R * (scan_ms + loop_ms)``;
4. **Table V pinning** — the committed memory rows match the exact
   device-memory certificates (Ours/SM/VP tie at the smallest
   footprint; EC/BC pay the scratch surcharge).

A kernel or cost-model change that breaks a bound, or a data change
that shifts the pinned orderings, fails the build.  See
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from pathlib import Path

from _bench_common import (
    RESULTS_DIR,
    ConfigError,
    Outcome,
    cells_by_dataset,
    load_record,
)

from repro.core.variants import VARIANTS
from repro.gpusim.costmodel import CostModel
from repro.gpusim.spec import DeviceSpec
from repro.graph import datasets
from repro.staticheck import (
    certify_all,
    launch_env,
    ms_bound,
    verify_inventories,
)

#: the Table II ordering chain the gate pins (plain variants; the +sm /
#: +vp columns follow the same chain but tie more often, so the plain
#: chain is the load-bearing claim)
_ORDERING_CHAIN = ("ours", "bc", "ec")
#: the one dataset where VP beats Ours (the paper's Table II footnote)
_VP_WINS_ON = "trackers"


def _dataset_env(name: str, spec: DeviceSpec, cfg) -> dict[str, float]:
    graph = datasets.load(name)
    return launch_env(
        graph.num_vertices, len(graph.neighbors), graph.max_degree, spec, cfg
    )


def check_coverage() -> list[str]:
    problems = [f"coverage: {finding}" for finding in verify_inventories()]
    certs = certify_all()
    if len(certs) != 11:
        problems.append(
            f"coverage: expected 11 certified variants, got {len(certs)}"
        )
    return problems


def check_static_ordering(spec: DeviceSpec) -> list[str]:
    """The certificates' own Ours <= BC <= EC instruction ordering."""
    problems: list[str] = []
    certs = certify_all()
    for dataset in datasets.dataset_names():
        for kernel in ("scan_kernel", "loop_kernel"):
            issued = {}
            for name in _ORDERING_CHAIN:
                cfg = VARIANTS[name]
                env = _dataset_env(dataset, spec, cfg)
                bounds = certs[name].certificate_for(kernel).bounds
                issued[name] = bounds.issued.evaluate(env)
            for lo, hi in zip(_ORDERING_CHAIN, _ORDERING_CHAIN[1:]):
                if issued[lo] > issued[hi]:
                    problems.append(
                        f"static ordering: {dataset} {kernel}: "
                        f"issued bound of {lo} ({issued[lo]:g}) exceeds "
                        f"{hi} ({issued[hi]:g})"
                    )
        # device-memory certificates: Ours/SM/VP tie, BC/EC pay scratch
        env = _dataset_env(dataset, spec, VARIANTS["ours"])
        mem = {
            name: certs[name].device_memory_bytes(env, spec)
            for name in ("ours", "sm", "vp", "bc", "ec")
        }
        if not (mem["ours"] == mem["sm"] == mem["vp"]):
            problems.append(
                f"static ordering: {dataset}: Ours/SM/VP device-memory "
                f"certificates do not tie: {mem}"
            )
        scratch = 3 * spec.default_grid_dim * spec.default_block_dim
        expected = mem["ours"] + scratch * spec.id_bytes
        for name in ("bc", "ec"):
            if mem[name] != expected:
                problems.append(
                    f"static ordering: {dataset}: {name} device-memory "
                    f"certificate {mem[name]} != ours + scratch {expected}"
                )
    return problems


def check_table2(path: Path, spec: DeviceSpec) -> list[str]:
    """Pin the committed ablation ordering and the run-total ceiling."""
    problems: list[str] = []
    cells = cells_by_dataset(load_record(path))
    certs = certify_all()
    cost = CostModel()
    for dataset, row in cells.items():
        ms = {name: float(value) for name, value in row.items()}
        # (a) the Ours <= BC <= EC chain, non-strict (small datasets tie)
        for lo, hi in zip(_ORDERING_CHAIN, _ORDERING_CHAIN[1:]):
            if ms[lo] > ms[hi]:
                problems.append(
                    f"{path.name}: {dataset}: {lo} ({ms[lo]}) is slower "
                    f"than {hi} ({ms[hi]}) — Ours>=BC>=EC ordering shifted"
                )
        # (b) the row winner: ours everywhere, vp strictly on trackers
        best = min(ms.values())
        if dataset == _VP_WINS_ON:
            if not ms["vp"] < ms["ours"]:
                problems.append(
                    f"{path.name}: {dataset}: vp ({ms['vp']}) no longer "
                    f"beats ours ({ms['ours']}) — the latency-boundness "
                    "claim shifted"
                )
        elif ms["ours"] > best:
            winner = min(ms, key=ms.get)
            problems.append(
                f"{path.name}: {dataset}: winner is {winner} ({best}), "
                f"not ours ({ms['ours']})"
            )
        # (c) every committed time sits under the certificate ceiling
        for name, value in ms.items():
            cfg = VARIANTS[name]
            env = _dataset_env(dataset, spec, cfg)
            rounds = env["R"]
            cert = certs[name]
            ceiling = rounds * sum(
                ms_bound(cert.certificate_for(kernel).bounds, cost, env)
                for kernel in ("scan_kernel", "loop_kernel")
            )
            if value > ceiling:
                problems.append(
                    f"{path.name}: {dataset}: committed {name} time "
                    f"{value} ms exceeds the certificate run-total "
                    f"ceiling {ceiling:.3f} ms"
                )
    return problems


def check_table5(path: Path, spec: DeviceSpec) -> list[str]:
    """Pin the committed memory rows to the device-memory certificates."""
    problems: list[str] = []
    cells = cells_by_dataset(load_record(path))
    certs = certify_all()
    mb = 1024.0 * 1024.0
    column_variant = {
        "gpu-ours": "ours", "gpu-sm": "sm", "gpu-vp": "vp",
        "gpu-ec": "ec", "gpu-bc": "bc",
    }
    for dataset, row in cells.items():
        env = _dataset_env(dataset, spec, VARIANTS["ours"])
        for column, variant in column_variant.items():
            cell = row.get(column)
            if cell in (None, "N/A"):
                continue
            committed = float(cell)
            certified = certs[variant].device_memory_bytes(env, spec) / mb
            # the table rounds to 2 decimals; the certificate is exact
            if abs(committed - certified) > 0.005 + 1e-9:
                problems.append(
                    f"{path.name}: {dataset}: {column} committed "
                    f"{committed:.2f} MB != certified {certified:.3f} MB"
                )
    return problems


def check(
    table2: "str | Path" = RESULTS_DIR / "table2_ablation.json",
    table5: "str | Path" = RESULTS_DIR / "table5_memory.json",
) -> Outcome:
    table2, table5 = Path(table2), Path(table5)
    for path in (table2, table5):
        if not path.exists():
            raise ConfigError(f"{path}: no such file")
    spec = DeviceSpec()
    problems = check_coverage()
    problems.extend(check_static_ordering(spec))
    problems.extend(check_table2(table2, spec))
    problems.extend(check_table5(table5, spec))
    return Outcome(
        problems,
        f"static bounds vs {table2.name} + {table5.name}: "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}",
    )
