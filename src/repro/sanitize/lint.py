"""Static AST lint for simulator kernels (``repro.sanitize.lint``).

Kernels are plain Python generator functions, so nothing stops one
from calling ``time.time()``, mutating a captured device array behind
the cost model's back, or yielding a token the scheduler has never
heard of — until it breaks at runtime on some schedule.  This pass
parses kernel modules and enforces the simulator's rules *before* a
kernel ever runs.

What counts as a kernel: any function whose first parameter is named
``ctx`` — generator functions are full kernels (or ``yield from``
helpers), plain functions are warp-level helpers (compaction
primitives, append paths).  Methods (first parameter ``self``) and
host-side functions are ignored.

Rules (detector names in :mod:`repro.sanitize.report`):

* ``illegal-yield`` — a kernel may only ``yield ctx.BARRIER`` /
  ``ctx.STEP`` (or the module-level ``BARRIER`` / ``STEP`` sentinels);
  ``yield from`` must delegate to a helper call.
* ``wall-clock`` — no ``time.*`` / ``datetime.*`` inside a kernel:
  the only clock is the simulated one.
* ``rng`` — no ``random.*`` / ``np.random.*`` inside a kernel;
  ``ctx.should_preempt()`` is the sanctioned nondeterminism hook.
* ``host-mutation`` — no subscript stores into (or augmented
  assignment of) a kernel *parameter*: device arrays are written
  through ``ctx.gstore`` / ``ctx.sstore`` so the cost model and the
  race detector see every store.
* ``unsynced-shared`` — a shared-memory write (``ctx.smem_set`` /
  ``ctx.sstore``) followed on the same straight-line path by a read of
  the same name from a different warp guard, with no ``yield
  ctx.BARRIER`` in between.  Loop bodies are analysed twice so a
  write at the bottom of a loop is checked against the read at its
  top.  Sibling branches of one ``if`` are treated as independent
  (double-buffering patterns write one branch and read the other);
  the dynamic racecheck remains authoritative for those.

Suppression: a line ending in ``# sanitize: ok`` is exempt from lint
findings (use sparingly, and say why in a comment).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.sanitize.astutil import (
    WARP_NAMES as _WARP_NAMES,
    dotted as _dotted,
    is_sentinel_yield as _is_sentinel_yield,
    iter_own_scope as _iter_own_scope,
    yields_barrier as _yields_barrier,
)
from repro.sanitize.report import SanitizerFinding, SanitizerReport

__all__ = [
    "lint_source",
    "lint_file",
    "lint_module",
    "lint_paths",
    "default_kernel_paths",
    "lint_repo",
]

#: ``ctx`` attributes that read / write / atomically update shared memory
_SHARED_READS = ("smem_get", "sload")
_SHARED_WRITES = ("smem_set", "sstore")

#: magic comment that exempts a line from lint findings
_SUPPRESS_MARK = "# sanitize: ok"


@dataclass
class _Kernel:
    node: ast.FunctionDef
    qualname: str
    is_generator: bool
    params: Set[str]  # parameters other than ctx


class _ModuleLinter:
    """Lints one parsed module; collects findings."""

    def __init__(self, tree: ast.Module, filename: str, source: str) -> None:
        self.tree = tree
        self.filename = filename
        self.findings: List[SanitizerFinding] = []
        self._seen: Set[tuple] = set()
        self._suppressed = {
            lineno
            for lineno, line in enumerate(source.splitlines(), start=1)
            if _SUPPRESS_MARK in line
        }

    # -- plumbing ----------------------------------------------------------

    def _emit(
        self,
        detector: str,
        kernel: str,
        message: str,
        lineno: int,
        severity: str = "error",
        extra_sites: Tuple[str, ...] = (),
    ) -> None:
        if lineno in self._suppressed:
            return
        key = (detector, kernel, lineno, message)
        if key in self._seen:
            return
        self._seen.add(key)
        site = f"{Path(self.filename).name}:{lineno}"
        self.findings.append(
            SanitizerFinding(
                detector, severity, kernel, message, (site,) + extra_sites
            )
        )

    # -- kernel discovery --------------------------------------------------

    def kernels(self) -> List[_Kernel]:
        found: List[_Kernel] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args.args
            if not args or args[0].arg != "ctx":
                continue
            is_gen = any(
                isinstance(sub, (ast.Yield, ast.YieldFrom))
                for sub in _iter_own_scope(node)
            )
            params = {a.arg for a in args[1:]}
            params.update(a.arg for a in node.args.kwonlyargs)
            module = Path(self.filename).stem
            found.append(_Kernel(node, f"{module}:{node.name}", is_gen, params))
        return found

    # -- rules -------------------------------------------------------------

    def run(self) -> List[SanitizerFinding]:
        for kernel in self.kernels():
            if kernel.is_generator:
                self._check_yields(kernel)
            self._check_clocks_and_rng(kernel)
            self._check_host_mutation(kernel)
            _SharedFlow(self, kernel).run()
        return self.findings

    def _check_yields(self, kernel: _Kernel) -> None:
        for node in _iter_own_scope(kernel.node):
            if isinstance(node, ast.Yield):
                if not _is_sentinel_yield(node.value, "ctx"):
                    shown = (
                        ast.unparse(node.value) if node.value is not None
                        else "<bare yield>"
                    )
                    self._emit(
                        "illegal-yield", kernel.qualname,
                        f"kernels may only yield ctx.BARRIER or ctx.STEP, "
                        f"not {shown!r}",
                        node.lineno,
                    )
            elif isinstance(node, ast.YieldFrom):
                if not isinstance(node.value, ast.Call):
                    self._emit(
                        "illegal-yield", kernel.qualname,
                        "yield from must delegate to a kernel helper call, "
                        f"not {ast.unparse(node.value)!r}",
                        node.lineno,
                    )

    def _check_clocks_and_rng(self, kernel: _Kernel) -> None:
        # only report the outermost attribute of a chain, so
        # ``datetime.datetime.now`` is one finding, not three
        inner = {
            id(node.value)
            for node in _iter_own_scope(kernel.node)
            if isinstance(node, ast.Attribute)
        }
        for node in _iter_own_scope(kernel.node):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] in ("time", "datetime"):
                self._emit(
                    "wall-clock", kernel.qualname,
                    f"kernel references {dotted} — the only clock inside a "
                    f"kernel is the simulated one (cost model cycles)",
                    node.lineno,
                )
            elif parts[0] == "random" or (
                parts[0] in ("np", "numpy")
                and len(parts) > 1
                and parts[1] == "random"
            ):
                self._emit(
                    "rng", kernel.qualname,
                    f"kernel references {dotted} — kernels must be "
                    f"deterministic; ctx.should_preempt() is the sanctioned "
                    f"schedule-fuzzing hook",
                    node.lineno,
                )

    def _check_host_mutation(self, kernel: _Kernel) -> None:
        def flag(node: ast.AST, name: str) -> None:
            self._emit(
                "host-mutation", kernel.qualname,
                f"kernel mutates captured array {name!r} directly — device "
                f"stores must go through ctx.gstore/ctx.sstore so the cost "
                f"model and race detector see them",
                node.lineno,
            )

        for node in _iter_own_scope(kernel.node):
            targets: Sequence[ast.AST]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and isinstance(
                    node, ast.AugAssign
                ):
                    if target.id in kernel.params:
                        flag(node, target.id)
                if not isinstance(target, ast.Subscript):
                    continue
                base = target.value
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr == "data"
                    and isinstance(base.value, ast.Name)
                ):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in kernel.params:
                    flag(node, base.id)


class _SharedFlow:
    """Straight-line shared-memory write -> read analysis (see module docs).

    ``pending`` maps a shared location name to ``(guard, lineno)`` of
    the latest un-barriered plain write; a read of that name under a
    *different* warp guard (or with both sides unguarded, i.e. executed
    by every warp) is flagged.  ``yield ctx.BARRIER`` and ``yield
    from`` clear pending writes.
    """

    def __init__(self, linter: _ModuleLinter, kernel: _Kernel) -> None:
        self.linter = linter
        self.kernel = kernel

    def run(self) -> None:
        self._visit(self.kernel.node.body, guard=(), pending={})

    # -- helpers -----------------------------------------------------------

    def _warp_dependent(self, test: ast.AST) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr in _WARP_NAMES:
                return True
            if isinstance(node, ast.Name) and node.id in _WARP_NAMES:
                return True
        return False

    def _shared_key(self, call: ast.Call, attr: str) -> Optional[str]:
        if not call.args:
            return None
        first = call.args[0]
        if attr in ("smem_get", "smem_set"):
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                return f"scalar:{first.value}"
            return None
        base = first
        if isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            return f"array:{base.id}"
        return None

    def _ctx_calls(self, stmt: ast.stmt) -> List[Tuple[str, ast.Call]]:
        calls: List[Tuple[str, ast.Call]] = []
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ctx"
            ):
                calls.append((node.func.attr, node))
        return calls

    # -- the walk ----------------------------------------------------------

    def _visit(self, stmts: Sequence[ast.stmt], guard: tuple, pending: dict) -> None:
        for stmt in stmts:
            if _yields_barrier(stmt, "ctx"):
                pending.clear()
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.YieldFrom
            ):
                # delegated sub-kernels carry their own barrier discipline
                pending.clear()
                continue
            if isinstance(stmt, ast.If):
                branch_tag = (
                    ast.dump(stmt.test)
                    if self._warp_dependent(stmt.test) else None
                )
                merged = dict(pending)
                for tag, body in ((("T",), stmt.body), (("F",), stmt.orelse)):
                    branch_guard = (
                        guard + ((branch_tag,) + tag,)
                        if branch_tag is not None else guard
                    )
                    branch_pending = dict(pending)
                    self._visit(body, branch_guard, branch_pending)
                    merged.update(branch_pending)
                pending.clear()
                pending.update(merged)
                continue
            if isinstance(stmt, (ast.While, ast.For)):
                # two passes so bottom-of-loop writes meet top-of-loop reads
                self._visit(stmt.body, guard, pending)
                self._visit(stmt.body, guard, pending)
                self._visit(stmt.orelse, guard, pending)
                continue
            if isinstance(stmt, (ast.With, ast.Try)):
                for body in getattr(stmt, "body", []), getattr(
                    stmt, "finalbody", []
                ):
                    self._visit(body, guard, pending)
                continue
            self._scan_statement(stmt, guard, pending)

    def _scan_statement(self, stmt: ast.stmt, guard: tuple, pending: dict) -> None:
        calls = self._ctx_calls(stmt)
        # reads first: `smem_set("x", smem_get("x"))` reads the old value
        for attr, call in calls:
            if attr not in _SHARED_READS:
                continue
            key = self._shared_key(call, attr)
            if key is None or key not in pending:
                continue
            write_guard, write_line = pending[key]
            if guard == write_guard and guard:
                continue  # same warp-restricted path: one warp, ordered
            self.linter._emit(
                "unsynced-shared", self.kernel.qualname,
                f"shared {key.split(':', 1)[1]!r} is read here but written "
                f"at line {write_line} with no barrier in between — "
                f"cross-warp readers may see stale data",
                call.lineno,
                severity="warning",
                extra_sites=(
                    f"{Path(self.linter.filename).name}:{write_line}",
                ),
            )
        for attr, call in calls:
            if attr in _SHARED_WRITES:
                key = self._shared_key(call, attr)
                if key is not None:
                    pending[key] = (guard, call.lineno)


# -- entry points -----------------------------------------------------------


def lint_source(
    source: str, filename: str = "<string>"
) -> List[SanitizerFinding]:
    """Lint kernel functions found in ``source``."""
    tree = ast.parse(source, filename=filename)
    return _ModuleLinter(tree, filename, source).run()


def lint_file(path: str | Path) -> List[SanitizerFinding]:
    """Lint one Python file."""
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_module(module) -> List[SanitizerFinding]:
    """Lint an imported module object (e.g. ``repro.core.loop_kernel``)."""
    return lint_file(module.__file__)


def default_kernel_paths(src_root: str | Path | None = None) -> List[Path]:
    """Every kernel module the repository ships: ``core/`` + ``systems/``."""
    if src_root is None:
        src_root = Path(__file__).resolve().parents[1]
    src_root = Path(src_root)
    paths: List[Path] = []
    for package in ("core", "systems"):
        paths.extend(sorted((src_root / package).glob("*.py")))
    return paths


def lint_paths(paths: Iterable[str | Path]) -> SanitizerReport:
    """Lint several files/directories into one report."""
    report = SanitizerReport()
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.glob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            report.extend(lint_file(file))
            report.modules_linted += 1
    return report


def lint_repo(src_root: str | Path | None = None) -> SanitizerReport:
    """Lint all shipped kernel modules (what ``scripts/gate.py lint`` runs)."""
    return lint_paths(default_kernel_paths(src_root))
