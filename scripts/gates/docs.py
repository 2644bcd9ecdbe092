"""The documentation stays wired to the code.

Three classes of doc rot this catches:

1. **Broken links** — every relative markdown link (``[x](docs/FOO.md)``,
   ``[y](SIMULATOR.md)``, anchors and ``examples/`` directories
   included) in the repository's top-level and ``docs/`` markdown
   pages must resolve to an existing file or directory.
2. **Phantom CLI flags** — every ``--flag`` a markdown page mentions
   in an inline-code span or fenced block must be a real flag of
   ``python -m repro`` (``repro.cli.build_parser``), so examples never
   drift from the parser.  Long options only; flags of *other* tools
   (pytest, pip, mypy) are ignored unless the line invokes
   ``python -m repro``.
3. **Phantom scripts** — every ``scripts/<name>.py`` a current page
   (README, DESIGN, EXPERIMENTS, ROADMAP, ``docs/*.md``) mentions must
   exist.  CHANGES.md records history and is skipped.
4. **Phantom keywords** — in every fenced ``python`` block, each call
   to a name imported from ``repro`` may pass only keywords its
   ``inspect.signature`` accepts.  Callees taking ``**kwargs`` are not
   checked; blocks that do not parse are counted as skipped.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from _bench_common import REPO_ROOT, ConfigError, Outcome

from repro.cli import build_parser

#: the pages the gate walks (globs, relative to the repo root)
DOC_GLOBS = ("*.md", "docs/*.md")
#: the pages whose ``scripts/*.py`` mentions must exist
SCRIPT_PAGES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
                "docs/*.md")

#: ``[text](target)`` — target captured without any ``#anchor``
_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")

#: ``--long-flag`` tokens on lines that invoke the repro CLI
_FLAG = re.compile(r"(--[a-z][a-z0-9-]+)")
_CLI_LINE = re.compile(r"python -m repro\b|^repro\b")

#: ``scripts/<name>.py`` mentions, not preceded by another path part
_SCRIPT = re.compile(r"(?<![\w./-])scripts/[\w/]+\.py\b")

#: fenced ``python`` blocks; group 1 is the code
_PY_BLOCK = re.compile(r"^```python[ \t]*\n(.*?)^```", re.M | re.S)


def _pages(root: Path, globs: tuple[str, ...]) -> List[Path]:
    files: List[Path] = []
    for pattern in globs:
        files.extend(sorted(root.glob(pattern)))
    return files


def _cli_flags() -> Set[str]:
    """The long option strings ``python -m repro`` actually accepts."""
    flags: Set[str] = set()
    for action in build_parser()._actions:
        flags.update(
            opt for opt in action.option_strings if opt.startswith("--")
        )
    return flags


def check_links(
    root: Path, path: Path, text: str, problems: List[str]
) -> int:
    checked = 0
    for match in _LINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue  # external URL: out of scope (offline CI)
        checked += 1
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            line = text[: match.start()].count("\n") + 1
            rel = path.relative_to(root)
            problems.append(f"{rel}:{line}: broken link -> {target}")
    return checked


def check_cli_flags(
    root: Path, path: Path, text: str, known: Set[str], problems: List[str]
) -> int:
    checked = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not _CLI_LINE.search(line):
            continue
        for flag in _FLAG.findall(line):
            checked += 1
            if flag not in known:
                rel = path.relative_to(root)
                problems.append(
                    f"{rel}:{lineno}: unknown repro CLI flag {flag}"
                )
    return checked


def check_scripts(
    root: Path, path: Path, text: str, problems: List[str]
) -> None:
    for lineno, line in enumerate(text.splitlines(), 1):
        for script in _SCRIPT.findall(line):
            if not (root / script).is_file():
                rel = path.relative_to(root)
                problems.append(f"{rel}:{lineno}: no such script {script}")


def _repro_imports(tree: ast.Module) -> Dict[str, Any]:
    """Local name -> object for each ``from repro... import`` in a block."""
    names: Dict[str, Any] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "repro"):
            continue
        for alias in node.names:
            try:
                module = importlib.import_module(node.module)
                obj = getattr(module, alias.name, None)
                if obj is None:  # a submodule not yet imported
                    obj = importlib.import_module(
                        f"{node.module}.{alias.name}"
                    )
            except ImportError:
                continue  # a missing module is not a keyword problem
            names[alias.asname or alias.name] = obj
    return names


def _callee(func: ast.expr, names: Dict[str, Any]) -> Optional[Any]:
    """The object a call's ``a.b.c`` function expression names."""
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return None
    obj = names[func.id]
    for part in reversed(parts):
        obj = getattr(obj, part, None)
    return obj


def _accepted(obj: Any) -> Optional[Set[str]]:
    """Keyword names ``obj`` accepts; ``None`` when not checkable."""
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return None
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}


def check_keywords(
    root: Path, path: Path, text: str, problems: List[str]
) -> Tuple[int, int, int]:
    """(calls checked, blocks parsed, blocks skipped) on one page."""
    calls = blocks = skipped = 0
    for match in _PY_BLOCK.finditer(text):
        try:
            tree = ast.parse(match.group(1))
        except SyntaxError:
            skipped += 1
            continue
        blocks += 1
        first = text[: match.start(1)].count("\n") + 1
        names = _repro_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            obj = _callee(node.func, names)
            accepted = None if obj is None else _accepted(obj)
            if accepted is None:
                continue
            calls += 1
            for kw in node.keywords:
                if kw.arg is not None and kw.arg not in accepted:
                    rel = path.relative_to(root)
                    line = first + node.lineno - 1
                    problems.append(
                        f"{rel}:{line}: {ast.unparse(node.func)}() has "
                        f"no keyword {kw.arg}="
                    )
    return calls, blocks, skipped


def check(root: Path = REPO_ROOT) -> Outcome:
    root = Path(root)
    pages = _pages(root, DOC_GLOBS)
    if not pages:
        raise ConfigError("no markdown files found")
    known_flags = _cli_flags()
    problems: List[str] = []
    n_links = n_flags = n_calls = n_blocks = n_skipped = 0
    for path in pages:
        text = path.read_text(encoding="utf-8")
        n_links += check_links(root, path, text, problems)
        n_flags += check_cli_flags(root, path, text, known_flags, problems)
        calls, blocks, skipped = check_keywords(root, path, text, problems)
        n_calls += calls
        n_blocks += blocks
        n_skipped += skipped
    for path in _pages(root, SCRIPT_PAGES):
        check_scripts(root, path, path.read_text(encoding="utf-8"), problems)
    if problems:
        return Outcome(problems, f"check_docs: {len(problems)} problem(s)")
    return Outcome(
        problems,
        f"check_docs: OK ({n_links} links, {n_flags} CLI flag "
        f"mentions, {n_calls} repro calls in {n_blocks} python blocks, "
        f"{n_skipped} unparsable blocks skipped)",
    )
