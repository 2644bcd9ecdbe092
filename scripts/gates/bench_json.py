"""Validate bench JSON artefacts against the ``repro.bench/v1`` schema.

With no ``targets``, validates every ``*.json`` in
``benchmarks/results/`` (and flags ``.txt`` tables missing their JSON
sibling).  Targets may be files or directories.  The logic lives in
:mod:`repro.bench.schema`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List

from _bench_common import RESULTS_DIR, Outcome

from repro.bench.schema import validate_file, validate_results_dir


def check(targets: Iterable["str | Path"] = (RESULTS_DIR,)) -> Outcome:
    problems: List[str] = []
    checked = 0
    for target in targets:
        path = Path(target)
        if path.is_dir():
            checked += len(list(path.glob("*.json")))
            problems.extend(validate_results_dir(path))
        elif path.exists():
            checked += 1
            problems.extend(validate_file(path))
        else:
            problems.append(f"{path}: no such file or directory")
    return Outcome(
        problems,
        f"checked {checked} record(s): {'FAIL' if problems else 'OK'}",
    )
