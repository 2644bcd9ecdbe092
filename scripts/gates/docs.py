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
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Set

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


def check(root: Path = REPO_ROOT) -> Outcome:
    root = Path(root)
    pages = _pages(root, DOC_GLOBS)
    if not pages:
        raise ConfigError("no markdown files found")
    known_flags = _cli_flags()
    problems: List[str] = []
    n_links = n_flags = 0
    for path in pages:
        text = path.read_text(encoding="utf-8")
        n_links += check_links(root, path, text, problems)
        n_flags += check_cli_flags(root, path, text, known_flags, problems)
    for path in _pages(root, SCRIPT_PAGES):
        check_scripts(root, path, path.read_text(encoding="utf-8"), problems)
    if problems:
        return Outcome(problems, f"check_docs: {len(problems)} problem(s)")
    return Outcome(
        problems,
        f"check_docs: OK ({n_links} links, {n_flags} CLI flag "
        f"mentions across the markdown pages)",
    )
