"""Shared fixtures: reference graphs and ground-truth core numbers."""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.bz import bz_core_numbers
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.examples import fig1_graph, k_clique, path_graph, triangle

#: for tests that need the vectorized engine's C replays: without a
#: compiler the reference interpreter serves every scan and loop launch
needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


@pytest.fixture
def fig1():
    """The paper's Fig. 1 example: ``(graph, expected_core_numbers)``."""
    return fig1_graph()


@pytest.fixture
def fig1_graph_only():
    return fig1_graph()[0]


def small_graph_battery() -> list[tuple[str, CSRGraph]]:
    """A diverse battery of small graphs for agreement tests.

    Covers: empty/trivial graphs, trees (core 1), cliques, structured
    graphs with known cores, random graphs of several shapes, isolated
    vertices, and skew.
    """
    return [
        ("empty", CSRGraph.empty(0)),
        ("isolated", CSRGraph.empty(5)),
        ("single-edge", CSRGraph.from_edges([(0, 1)])),
        ("triangle", triangle()),
        ("path", path_graph(20)),
        ("clique6", k_clique(6)),
        ("fig1", fig1_graph()[0]),
        ("star", CSRGraph.from_edges([(0, i) for i in range(1, 30)])),
        ("ring-of-cliques", gen.ring_of_cliques(4, 5)),
        ("grid", gen.grid_2d(6, 7)),
        ("tree", gen.random_tree(60, seed=1)),
        ("er-sparse", gen.erdos_renyi(120, 3.0, seed=2)),
        ("er-dense", gen.erdos_renyi(80, 14.0, seed=3)),
        ("ba", gen.barabasi_albert(100, 4, seed=4)),
        ("powerlaw", gen.power_law_configuration(150, 2.3, d_min=2, seed=5)),
        ("planted", gen.planted_core(150, core_size=25, core_degree=10, seed=6)),
        ("hubs", gen.hub_and_spokes(200, num_hubs=2, seed=7)),
        ("clique+leaf", CSRGraph.from_edges(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)]
        )),
    ]


@pytest.fixture(scope="session")
def gate():
    """``scripts/gate.py``, the CI gate runner, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "gate.py"
    spec = importlib.util.spec_from_file_location("gate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


BATTERY = small_graph_battery()
BATTERY_IDS = [name for name, _ in BATTERY]


@pytest.fixture(params=BATTERY, ids=BATTERY_IDS)
def battery_graph(request):
    """Parametrised over the whole battery: ``(graph, reference_core)``."""
    _, graph = request.param
    return graph, bz_core_numbers(graph)


@pytest.fixture
def er_graph():
    """A moderate random graph with its reference decomposition."""
    graph = gen.erdos_renyi(250, 6.0, seed=11)
    return graph, bz_core_numbers(graph)


def assert_cores_equal(core: np.ndarray, reference: np.ndarray, label: str = ""):
    """Readable comparison helper for core-number arrays."""
    core = np.asarray(core)
    reference = np.asarray(reference)
    assert core.shape == reference.shape, (
        f"{label}: shape {core.shape} != {reference.shape}"
    )
    if not np.array_equal(core, reference):
        bad = np.flatnonzero(core != reference)
        detail = ", ".join(
            f"v{int(v)}: got {int(core[v])}, want {int(reference[v])}"
            for v in bad[:8]
        )
        raise AssertionError(
            f"{label}: {bad.size} wrong core numbers ({detail})"
        )
