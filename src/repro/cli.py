"""Command-line interface: ``python -m repro``.

Decompose an edge-list file (or a named dataset analogue) with any
registered algorithm and print core numbers or summary statistics —
the workflow a graph analyst uses the released KCoreGPU binaries for.

``--profile [FILE]`` installs a process-wide tracer (see
:mod:`repro.obs`) for the run and writes a Chrome-trace JSON (default
``trace.json``) loadable in Perfetto; every simulated device and CPU
machine the chosen algorithm builds feeds the same timeline.

``--sanitize`` runs the kernel sanitizer (see ``docs/SANITIZER.md``)
over the run: the simulated-GPU algorithms get the dynamic race
detector on every kernel launch, the system emulations and the fast
path get the static lint sweep.  The report is printed after the
summary and error findings make the exit status 1.

``--staticheck`` engages the static resource certifier (see
``docs/STATIC_ANALYSIS.md``).  On its own (no input) it prints the
symbolic certificates of all eleven kernel variants.  Combined with a
graph and a ``gpu-*`` algorithm it additionally runs the differential
checker — every launch's measured stats are asserted against the
certificate — and prints that report; error findings exit 1.

``--dataflow`` engages the static dataflow analyzer (the second tier
of ``docs/STATIC_ANALYSIS.md``).  On its own (no input) it prints the
race-freedom certificates, divergence/coalescing brackets and engine
preconditions of every kernel variant; explicit unproven obligations
exit 1.  Combined with a graph and a ``gpu-*`` algorithm it checks
every launch against the certificates — the measured efficiency must
fall inside the static bracket and the serving engine tier must match
the static prediction — and prints that report; error findings exit 1.

``--ncu [FILE]`` profiles the run with the kernel profiler (see
:mod:`repro.profile` and the "Profiling" section of
``docs/OBSERVABILITY.md``) and prints an Nsight-Compute-style
speed-of-light table — per-kernel bound classification, pipeline
utilisation, occupancy and efficiency figures.  With a ``FILE``
argument the full ``repro.profile/v1`` JSON report is written there
too (a sibling ``FILE.folded`` gets the flamegraph stacks).  The
single-GPU ``gpu-*`` peeling algorithms get per-launch roofline
attribution; the system emulations get coarse ``source="charge"``
records of their logical kernels.

``--memtrace [FILE]`` records memory telemetry (see
:mod:`repro.memtrace` and the "Memory telemetry" section of
``docs/OBSERVABILITY.md``) and prints the allocation timeline with an
exact attribution breakdown of the memory peak.  With a ``FILE``
argument the ``repro.memtrace/v1`` JSON report is written there too.
Error findings (double-free, use-after-free) make the exit status 1.
Supported for everything that models memory
(``repro.api.CAPABILITIES["memtrace"]``).

``--critpath [FILE]`` runs the causal critical-path analyzer (see the
"Critical path & what-if" section of ``docs/OBSERVABILITY.md``) and
prints the per-track slack accounting plus the ranked what-if
speedup-ceiling table — which counterfactual (free atomics, perfect
coalescing, zero barriers, infinite interconnect) buys the most, each
projection bracketed by the measured time above and the static floor
certificates below.  For the multi-GPU algorithms every sub-round is
additionally classified compute-, straggler-, or exchange-bound.
With a ``FILE`` argument the ``repro.critpath/v1`` JSON record is
written there too.  The validator re-derives the whole record exactly;
violations exit 1.  Supported for the simulated peeling algorithms
(``repro.api.CAPABILITIES["critpath"]``).

``--engine NAME`` selects the simulator execution engine for the
``gpu-*`` algorithms (``repro.api.CAPABILITIES["engine"]``):
``reference`` or ``vectorized`` (the default).  Engines are byte-identical
by contract — the same simulated milliseconds, counters and memory
peaks — so the flag only changes host wall-clock time; see
``docs/SIMULATOR.md``.

``--report [FILE]`` runs every requested algorithm with full telemetry
(trace, profile, memtrace — whatever each supports), merges the
results into one unified ``repro.runreport/v1`` record (see the "Run
reports" section of ``docs/OBSERVABILITY.md``), validates its
cross-layer consistency invariants, and prints the rendered summary.
With a ``FILE`` argument the JSON artifact is written there too.  Only
with ``--report`` may ``--algorithm`` be a comma-separated list, so a
single invocation can cover the GPU kernels, a multicore baseline and
the semi-external disk path side by side.  Invariant violations exit
1.  ``--report`` subsumes the other telemetry flags and cannot be
combined with them.

Each run flag sets one ``decompose`` keyword (``_RUN_FLAGS``) and is
accepted only by the algorithms that ``repro.api.CAPABILITIES`` lists
for that keyword; any other algorithm exits 2.

``repro obs diff OLD NEW`` compares two run-report artifacts section
by section and prints what changed (simulated time, device cycles,
memory peak, bound-class flips); regressions exit 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Sequence

import numpy as np

from repro.api import CAPABILITIES, algorithm_names, decompose
from repro.graph import datasets
from repro.gpusim.engine import DEFAULT_ENGINE, available_engines
from repro.graph.io import read_edgelist

__all__ = ["main", "build_parser"]

#: ``(flag, keyword)``: each run flag sets one ``decompose`` keyword,
#: is accepted only by the algorithms in ``CAPABILITIES[keyword]``, and
#: cannot be combined with ``--report``
_RUN_FLAGS = (
    ("--sanitize", "sanitize"),
    ("--staticheck", "staticheck"),
    ("--dataflow", "dataflow"),
    ("--ncu", "profile"),
    ("--engine", "engine"),
    ("--memtrace", "memtrace"),
    ("--critpath", "critpath"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-core decomposition (ICDE 2023 KCoreGPU reproduction)",
    )
    # not argparse-required: a bare ``--staticheck`` needs no source
    # (main() enforces the requirement for every other invocation)
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--input", "-i", metavar="FILE",
        help="edge-list file (SNAP/KONECT format, optionally .gz)",
    )
    source.add_argument(
        "--dataset", "-d", metavar="NAME",
        help="a Table I dataset analogue "
             f"({', '.join(datasets.dataset_names()[:3])}, ...)",
    )
    source.add_argument(
        "--list-datasets", action="store_true",
        help="print the dataset registry and exit",
    )
    source.add_argument(
        "--list-algorithms", action="store_true",
        help="print the algorithm registry and exit",
    )
    parser.add_argument(
        "--algorithm", "-a", default="fast",
        help="program to run (default: fast; see --list-algorithms)",
    )
    parser.add_argument(
        "--output", "-o", metavar="FILE",
        help="write 'vertex core' lines here instead of a summary",
    )
    parser.add_argument(
        "--shells", action="store_true",
        help="print the size of every k-shell",
    )
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="print the N vertices with the deepest core numbers",
    )
    parser.add_argument(
        "--engine", choices=available_engines(), default=None,
        metavar="NAME",
        help="simulator execution engine for the gpu-* algorithms "
             f"({', '.join(available_engines())}; default: "
             f"{DEFAULT_ENGINE}); engines are byte-identical, only "
             "host wall-clock time differs (see docs/SIMULATOR.md)",
    )
    parser.add_argument(
        "--profile", nargs="?", const="trace.json", default=None,
        metavar="FILE",
        help="trace the run and write a Chrome-trace/Perfetto JSON "
             "timeline here (default: trace.json)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the kernel sanitizer (race/barrier/lint checks) over "
             "the run and print its report; error findings exit 1",
    )
    parser.add_argument(
        "--ncu", nargs="?", const="-", default=None, metavar="FILE",
        help="profile the run (gpu-* algorithms only) and print the "
             "speed-of-light table; with FILE, also write the "
             "repro.profile/v1 JSON report there and the flamegraph "
             "stacks to FILE.folded",
    )
    parser.add_argument(
        "--memtrace", nargs="?", const="-", default=None, metavar="FILE",
        help="record memory telemetry (allocation lifetimes, exact peak "
             "attribution) and print the timeline; with FILE, also "
             "write the repro.memtrace/v1 JSON report there; "
             "double-free/use-after-free findings exit 1",
    )
    parser.add_argument(
        "--critpath", nargs="?", const="-", default=None, metavar="FILE",
        help="analyze the run's causal critical path and print the "
             "slack accounting and ranked what-if speedup ceilings "
             "(multi-GPU runs also get per-round straggler/exchange "
             "attribution); with FILE, also write the repro.critpath/v1 "
             "JSON record there; validation failures exit 1",
    )
    parser.add_argument(
        "--staticheck", action="store_true",
        help="print the static resource certificates of every kernel "
             "variant; with an input graph and a gpu-* algorithm, also "
             "check every launch against its certificate (differential "
             "check); error findings exit 1",
    )
    parser.add_argument(
        "--dataflow", action="store_true",
        help="print the dataflow certificates (race-freedom proofs, "
             "divergence/coalescing brackets, engine preconditions) of "
             "every kernel variant; with an input graph and a gpu-* "
             "algorithm, also check every launch against them; error "
             "findings exit 1",
    )
    parser.add_argument(
        "--report", nargs="?", const="-", default=None, metavar="FILE",
        help="run with full telemetry, merge every vertical into one "
             "validated repro.runreport/v1 record and print it; with "
             "FILE, also write the JSON artifact there; --algorithm "
             "may be a comma-separated list; invariant violations "
             "exit 1",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="with --staticheck/--dataflow/--sanitize, also write the "
             "findings as a machine-readable repro.findings/v1 "
             "artifact (the schema CI's gate scripts upload)",
    )
    return parser


def _given_run_flags(args) -> list[tuple[str, str, object]]:
    """``(flag, keyword, value)`` for every run flag given."""
    given = []
    for flag, keyword in _RUN_FLAGS:
        value = getattr(args, flag[2:])
        if value is None or value is False:
            continue
        # --engine passes its name; the others switch an instrument on
        given.append((flag, keyword, value if flag == "--engine" else True))
    return given


def _summarise(args, graph, result) -> None:
    print(f"vertices: {graph.num_vertices}")
    print(f"edges: {graph.num_edges}")
    print(f"k_max (degeneracy): {result.kmax}")
    print(f"algorithm: {result.algorithm}")
    print(f"rounds: {result.rounds}")
    if result.simulated_ms:
        print(f"simulated time: {result.simulated_ms:.3f} ms")
    if result.peak_memory_bytes:
        print(f"peak device memory: "
              f"{result.peak_memory_bytes / (1024 * 1024):.2f} MB")
    if args.shells:
        print("shell sizes:")
        for k, count in enumerate(result.shell_sizes()):
            if count:
                print(f"  k={k}: {int(count)}")
    if args.top:
        order = np.argsort(-result.core)[: args.top]
        print(f"top {args.top} vertices by core number:")
        for v in order:
            print(f"  {int(v)}: core {int(result.core[v])}")


def _write_file(path: str, write: Callable[[str], None], label: str) -> bool:
    """Write an output artifact, creating parent directories.

    Returns False (after a clear stderr message, no traceback) when the
    path is unwritable.  Delegates to the shared
    :func:`repro.obs.export.write_artifact` sink the CI gates use.
    """
    from repro.obs.export import write_artifact

    return write_artifact(path, write, label=label)


def _emit_findings(json_path: "str | None", tool: str, report) -> bool:
    """Write the ``repro.findings/v1`` artifact when ``--json`` asked."""
    if not json_path:
        return True
    from repro.sanitize.findings import write_findings

    if not _write_file(
        json_path, lambda p: write_findings(p, tool, report), "findings"
    ):
        return False
    print(f"wrote {tool} findings to {json_path}")
    return True


def _print_certificates(json_path: "str | None" = None) -> int:
    """The standalone ``--staticheck`` listing; exit 1 on coverage gaps."""
    from repro.sanitize.report import SanitizerReport
    from repro.staticheck import (
        certify_all, render_certificates, verify_inventories,
    )

    print(render_certificates(certify_all()))
    findings = verify_inventories()
    report = SanitizerReport()
    report.extend(findings)
    if not _emit_findings(json_path, "cli-staticheck", report):
        return 1
    if findings:
        print(f"\nstaticheck: {len(findings)} coverage finding(s)",
              file=sys.stderr)
        for finding in findings:
            print(f"  {finding}", file=sys.stderr)
        return 1
    return 0


def _print_dataflow_certificates(json_path: "str | None" = None) -> int:
    """The standalone ``--dataflow`` listing; exit 1 on unproven pairs.

    Both the listing and the unproven count iterate the contract
    registry (every admitted kernel over its own variant space), so a
    newly registered kernel is covered without touching the CLI.
    """
    from repro.staticheck.dataflow import (
        dataflow_report, render_dataflow_certificates,
    )

    print(render_dataflow_certificates())
    report = dataflow_report()
    if not _emit_findings(json_path, "cli-dataflow", report):
        return 1
    if report.findings:
        print(f"\ndataflow: {len(report.findings)} unproven race "
              "obligation(s)", file=sys.stderr)
        return 1
    return 0


def _obs_diff(argv: Sequence[str]) -> int:
    """``repro obs diff OLD NEW`` — compare two run-report artifacts."""
    import json

    from repro.obs.runreport import diff_runreports, validate_runreport

    if len(argv) != 2:
        print("usage: repro obs diff OLD.json NEW.json", file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read run report {path!r}: {exc}",
                  file=sys.stderr)
            return 2
        for problem in validate_runreport(record):
            print(f"warning: {path}: {problem}", file=sys.stderr)
        reports.append(record)
    rendered, regressions = diff_runreports(reports[0], reports[1])
    print(rendered)
    return 1 if regressions else 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:2] == ["obs", "diff"]:
        return _obs_diff(argv[2:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.input or args.dataset or args.list_datasets
            or args.list_algorithms):
        if args.staticheck:
            return _print_certificates(args.json)
        if args.dataflow:
            return _print_dataflow_certificates(args.json)
        parser.error(
            "one of --input/--dataset/--list-datasets/--list-algorithms "
            "is required (or bare --staticheck/--dataflow for the "
            "certificate dumps)"
        )
    if args.list_datasets:
        for name in datasets.dataset_names():
            spec = datasets.get_spec(name)
            print(f"{name}\t{spec.category}")
        return 0
    if args.list_algorithms:
        for name in sorted(algorithm_names()):
            print(name)
        return 0

    run_flags = _given_run_flags(args)
    report_algorithms: list[str] = []
    if args.report is not None:
        incompatible = ["--profile"] if args.profile is not None else []
        incompatible += [flag for flag, _, _ in run_flags]
        if incompatible:
            print("error: --report already merges every telemetry "
                  "vertical and cannot be combined with "
                  f"{', '.join(incompatible)}", file=sys.stderr)
            return 2
        report_algorithms = [a for a in args.algorithm.split(",") if a]
        unknown = [a for a in report_algorithms
                   if a not in algorithm_names()]
        if not report_algorithms or unknown:
            bad = ", ".join(repr(a) for a in unknown) or "none given"
            print(f"error: unknown algorithm(s) for --report: {bad} "
                  f"(see --list-algorithms)", file=sys.stderr)
            return 2
    elif args.algorithm not in algorithm_names():
        hint = (" (comma-separated lists need --report)"
                if "," in args.algorithm else " (see --list-algorithms)")
        print(f"error: unknown algorithm {args.algorithm!r}{hint}",
              file=sys.stderr)
        return 2
    for flag, keyword, _ in run_flags:
        supported = CAPABILITIES[keyword]
        if args.algorithm not in supported:
            print(f"error: algorithm {args.algorithm!r} does not support "
                  f"{flag} (supported: {', '.join(sorted(supported))})",
                  file=sys.stderr)
            return 2
    if args.dataset:
        try:
            graph = datasets.load(args.dataset)
        except Exception:
            print(f"error: unknown dataset {args.dataset!r} "
                  f"(see --list-datasets)", file=sys.stderr)
            return 2
    else:
        graph = read_edgelist(args.input)

    if args.report is not None:
        from repro.obs.runreport import collect_run_report

        report, _results = collect_run_report(
            graph, report_algorithms,
            dataset=args.dataset or args.input,
        )
        print(report.render())
        problems = report.validate()
        if args.report != "-":
            if not _write_file(args.report, report.write, "run report"):
                return 1
            print(f"wrote run report ({len(report.sections)} section(s)) "
                  f"to {args.report}")
        if problems:
            print(f"runreport: {len(problems)} invariant violation(s)",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        return 0

    run_kwargs = {keyword: value for _, keyword, value in run_flags}
    if args.profile:
        from repro.obs import start_tracing, stop_tracing

        tracer = start_tracing()
        wall_start = time.perf_counter()
        try:
            result = decompose(graph, args.algorithm, **run_kwargs)
        finally:
            stop_tracing()
        wall_ms = (time.perf_counter() - wall_start) * 1000.0
        tracer.span(f"decompose {args.algorithm}", 0.0, wall_ms,
                    cat="cli", track="wall", args={"clock": "wall"})
        if not _write_file(args.profile, tracer.write, "trace"):
            return 1
        print(f"wrote trace ({len(tracer.events)} events, "
              f"{len(tracer.counters)} counters) to {args.profile}")
        if tracer.counters:
            print("counters:")
            for name in sorted(tracer.counters):
                print(f"  {name}: {tracer.counters[name]:g}")
    else:
        result = decompose(graph, args.algorithm, **run_kwargs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for v, c in enumerate(result.core):
                handle.write(f"{v}\t{int(c)}\n")
        print(f"wrote {result.num_vertices} core numbers to {args.output}")
    else:
        _summarise(args, graph, result)
    if args.sanitize:
        report = result.sanitizer
        if report is None:
            print("sanitizer: no report produced", file=sys.stderr)
            return 1
        print(report.summary())
        if not _emit_findings(args.json, "cli-sanitize", report):
            return 1
        if report.errors:
            return 1
    if args.staticheck or args.dataflow:
        report = result.staticheck
        if report is None:
            print("staticheck: no report produced", file=sys.stderr)
            return 1
        print(report.summary(label="staticheck"))
        tool = "cli-staticheck" if args.staticheck else "cli-dataflow"
        if not args.sanitize:  # --sanitize already claimed the file
            if not _emit_findings(args.json, tool, report):
                return 1
        if report.errors:
            return 1
    if args.ncu is not None:
        profile = result.profile
        if profile is None:
            print("ncu: no profile produced", file=sys.stderr)
            return 1
        print(profile.render())
        if args.ncu != "-":
            if not _write_file(args.ncu, profile.write, "profile"):
                return 1
            folded = args.ncu + ".folded"
            if not _write_file(folded, profile.write_folded, "flamegraph"):
                return 1
            print(f"wrote profile ({len(profile.launches)} launches) to "
                  f"{args.ncu} and flamegraph stacks to {folded}")
    if args.memtrace is not None:
        memtrace = result.memtrace
        if memtrace is None:
            print("memtrace: no report produced", file=sys.stderr)
            return 1
        print(memtrace.render())
        if args.memtrace != "-":
            if not _write_file(args.memtrace, memtrace.write, "memtrace"):
                return 1
            print(f"wrote memtrace ({memtrace.peak_bytes} peak bytes) to "
                  f"{args.memtrace}")
        if memtrace.errors:
            return 1
    if args.critpath is not None:
        critpath = result.critpath
        if critpath is None:
            print("critpath: no report produced", file=sys.stderr)
            return 1
        print(critpath.render())
        if args.critpath != "-":
            if not _write_file(args.critpath, critpath.write, "critpath"):
                return 1
            print(f"wrote critical-path record "
                  f"({len(critpath.record['nodes'])} node(s)) to "
                  f"{args.critpath}")
        problems = critpath.validate()
        if problems:
            print(f"critpath: {len(problems)} invariant violation(s)",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
