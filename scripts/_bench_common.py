"""Shared plumbing for the CI gates run by ``scripts/gate.py``.

Every gate needs the same things: the repo layout (``REPO_ROOT`` /
``RESULTS_DIR``), an import path that reaches ``src/repro`` without
installation (:func:`bootstrap`), committed JSON records loaded with a
clean configuration error (:func:`load_record`) and ``repro.bench/v1``
tables turned into a ``dataset -> column -> cell`` mapping
(:func:`cells_by_dataset`).  A gate returns its findings as an
:class:`Outcome`; the runner does the printing, the exit status, the
trajectory and the artifacts.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def bootstrap() -> None:
    """Make ``import repro`` work from an uninstalled checkout."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


bootstrap()
import numpy as np  # noqa: E402

from repro.api import decompose  # noqa: E402  (needs bootstrap)


class ConfigError(Exception):
    """A broken gate input (missing or malformed file, unknown name).

    Distinct from a failed check: the runner exits 2, not 1.
    """


class Baseline(NamedTuple):
    """A committed baseline file and its parsed record."""

    path: Path
    record: Dict[str, Any]


@dataclass
class Outcome:
    """What one gate found.

    ``trajectory`` maps a dataset to the payload a dated
    ``repro.bench-trajectory/v1`` record carries for it (``cycles``,
    ``peaks``, ``runreport`` or ``critpath``).  ``artifacts`` maps a CI
    artifact file name to a function that writes it to a given path.
    ``baseline`` is the re-pinned baseline record of an ``update`` run.
    """

    problems: List[str]
    summary: str
    trajectory: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    artifacts: Dict[str, Callable[[str], None]] = field(default_factory=dict)
    baseline: Optional[Dict[str, Any]] = None


def load_record(path: "str | Path") -> Dict[str, Any]:
    """Load one committed JSON record (a JSON object).

    Raises :class:`ConfigError` when the file is missing, is not valid
    JSON or is not an object.
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: record must be a JSON object")
    return record


def cells_by_dataset(record: Dict[str, Any]) -> Dict[str, Dict[str, str]]:
    """``repro.bench/v1`` table -> ``{dataset: {column: cell}}``.

    The first column of a bench table is the dataset label; the
    remaining columns are zipped against each row's cells.
    """
    columns = record["columns"][1:]
    return {
        row["dataset"]: dict(zip(columns, row["cells"]))
        for row in record["rows"]
    }


def check_byte_identity(
    graph: Any, name: str, instrumented: Any, where: str, label: str
) -> List[str]:
    """A plain rerun of ``name`` must be byte-identical to the
    ``instrumented`` result: instruments observe, they never change
    cores, simulated time, counters or peaks."""
    problems: List[str] = []
    plain = decompose(graph, name)
    if not np.array_equal(plain.core, instrumented.core):
        problems.append(f"{where}: cores differ with {label} on")
    if plain.simulated_ms != instrumented.simulated_ms:
        problems.append(
            f"{where}: simulated_ms drifted with {label} on "
            f"({plain.simulated_ms!r} != {instrumented.simulated_ms!r})"
        )
    if dict(plain.counters) != dict(instrumented.counters):
        problems.append(f"{where}: counters drifted with {label} on")
    if plain.peak_memory_bytes != instrumented.peak_memory_bytes:
        problems.append(
            f"{where}: peak_memory_bytes drifted with {label} on"
        )
    return problems
