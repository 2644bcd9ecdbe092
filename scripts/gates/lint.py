"""Static lint pass over every shipped kernel module.

With no ``paths``, lints every kernel generator function in
``src/repro/core`` and ``src/repro/systems``.  Explicit paths may be
files or directories of ``.py`` sources; repeated or overlapping paths
(a file given twice, or a file plus a directory containing it) are
deduplicated so each module is linted — and reported — once.  The
rules (illegal yields, wall clock, RNG, host-array mutation,
barrier-free shared read-back) live in :mod:`repro.sanitize.lint`; see
``docs/SANITIZER.md`` for the catalogue and the ``# sanitize: ok``
suppression marker.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional

from _bench_common import ConfigError, Outcome

from repro.sanitize.lint import default_kernel_paths, lint_paths


def resolve_targets(targets: Iterable["str | Path"]) -> List[Path]:
    """Expand paths to a deduplicated list of ``.py`` files."""
    seen: set[Path] = set()
    paths: List[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.exists():
            candidates = [path]
        else:
            raise ConfigError(f"{path}: no such file or directory")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                paths.append(candidate)
    return paths


def check(paths: Optional[Iterable["str | Path"]] = None) -> Outcome:
    report = lint_paths(
        default_kernel_paths() if paths is None else resolve_targets(paths)
    )
    problems = [
        str(finding)
        for _, group in sorted(report.by_detector().items())
        for finding in group
    ]
    return Outcome(problems, report.summary())
