"""Multi-GPU extension tests (the paper's Section VII sketch)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.multigpu import MultiGpuOptions, multi_gpu_peel, partition_ranges
from repro.core.variants import VARIANTS
from repro.cpu.bz import bz_core_numbers
from repro.errors import BufferOverflowError, ReproError
from repro.gpusim.device import Device
from repro.gpusim.spec import DeviceSpec
from repro.graph import datasets
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.examples import k_clique, path_graph
from tests.conftest import BATTERY, BATTERY_IDS, assert_cores_equal
from tests.properties.test_engines import (
    assert_stats_identical,
    multi_gpu_launches,
)

#: worker-side observables, re-captured when each owner began scanning
#: its own window for its frontier; rewrite with
#: ``PYTHONPATH=src python -m tests.core.test_multigpu`` only for a
#: change that is meant to move the workers
WORKER_PIN = (
    Path(__file__).resolve().parent / "golden" / "multigpu_worker_side.json"
)
PIN_DEVICES = (2, 3, 4)


class TestPartitioning:
    def test_ranges_cover_and_are_disjoint(self, er_graph):
        graph, _ = er_graph
        ranges = partition_ranges(graph, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == graph.num_vertices
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_edge_balance(self):
        graph = gen.erdos_renyi(500, 8.0, seed=3)
        ranges = partition_ranges(graph, 4)
        loads = [
            int(graph.offsets[hi] - graph.offsets[lo]) for lo, hi in ranges
        ]
        assert max(loads) < 2 * (sum(loads) / len(loads))

    def test_single_partition(self, fig1):
        graph, _ = fig1
        assert partition_ranges(graph, 1) == [(0, graph.num_vertices)]

    def test_invalid_parts(self, fig1):
        with pytest.raises(ReproError):
            partition_ranges(fig1[0], 0)

    def test_hub_graph_skewed_partitions(self):
        """Edge balancing gives the hub's partition fewer vertices."""
        graph = gen.hub_and_spokes(400, num_hubs=1, seed=1)
        ranges = partition_ranges(graph, 2)
        first = ranges[0][1] - ranges[0][0]
        second = ranges[1][1] - ranges[1][0]
        assert first < second  # hub is vertex 0


class TestCorrectness:
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_device_counts(self, er_graph, devices):
        graph, reference = er_graph
        result = multi_gpu_peel(graph, num_devices=devices)
        assert_cores_equal(result.core, reference, f"multi-{devices}")

    def test_battery_two_devices(self, battery_graph):
        graph, reference = battery_graph
        result = multi_gpu_peel(graph, num_devices=2)
        assert_cores_equal(result.core, reference, "multi-2")

    def test_variant_composition(self, er_graph):
        graph, reference = er_graph
        result = multi_gpu_peel(graph, num_devices=2, variant="bc")
        assert_cores_equal(result.core, reference, "multi-2-bc")
        assert result.algorithm == "gpu-multi2-bc"

    def test_empty_graph(self):
        result = multi_gpu_peel(CSRGraph.empty(0), num_devices=2)
        assert result.num_vertices == 0
        # the same stats keys as a non-empty run, at zero
        assert result.stats == {
            "engine": "vectorized",
            "num_devices": 2,
            "sub_rounds": 0,
            "exchange_words": 0,
            "broadcast_words": 0,
            "partition_ranges": [(0, 0), (0, 0)],
            "per_device_ms": [0.0, 0.0],
            "per_device_peak_bytes": [0, 0],
        }
        nonempty = multi_gpu_peel(path_graph(3), num_devices=2)
        assert result.stats.keys() == nonempty.stats.keys()

    @pytest.mark.parametrize("devices", [0, -3])
    @pytest.mark.parametrize("n", [0, 3])
    def test_needs_a_device(self, devices, n):
        """An empty graph is validated like any other."""
        with pytest.raises(ReproError, match="at least one partition"):
            multi_gpu_peel(path_graph(n), num_devices=devices)

    def test_border_heavy_graph(self):
        """A graph whose dense core straddles the partition boundary —
        maximum cross-device conflict on the shared neighbors."""
        clique = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        graph = CSRGraph.from_edges(clique)
        reference = bz_core_numbers(graph)
        result = multi_gpu_peel(graph, num_devices=4)
        assert_cores_equal(result.core, reference, "multi-4 clique")


class TestReporting:
    def test_subrounds_at_least_rounds(self, fig1):
        graph, _ = fig1
        result = multi_gpu_peel(graph, num_devices=2)
        # every non-empty round needs at least one sub-round
        assert result.stats["sub_rounds"] >= result.kmax

    @pytest.mark.parametrize("name", ["web-Google"] + BATTERY_IDS)
    def test_one_owner_peels_each_shell_in_one_sub_round(self, name):
        """With one device the owner holds every vertex, so it collects
        the whole k-shell inside the launch: one sub-round per
        non-empty round, that is, per distinct core number."""
        graph = dict(_pin_graphs())[name]
        result = multi_gpu_peel(graph, num_devices=1)
        cores = bz_core_numbers(graph)
        assert_cores_equal(result.core, cores, name)
        assert result.stats["sub_rounds"] == np.unique(cores).size, name

    def test_per_device_metrics(self, er_graph):
        graph, _ = er_graph
        result = multi_gpu_peel(graph, num_devices=3)
        assert len(result.stats["per_device_ms"]) == 3
        assert result.peak_memory_bytes > 0

    def test_aggregation_costs_scale_with_devices(self, er_graph):
        """More devices, more transfer/merge work per sub-round — at
        this scale communication dominates (the reason the paper calls
        multi-GPU future work, not a free win)."""
        graph, _ = er_graph
        two = multi_gpu_peel(graph, num_devices=2)
        four = multi_gpu_peel(graph, num_devices=4)
        assert four.simulated_ms > two.simulated_ms

    def test_custom_options(self, fig1):
        graph, _ = fig1
        cheap = multi_gpu_peel(
            graph, num_devices=2,
            options=MultiGpuOptions(transfer_cycles_per_word=0.0,
                                    reduce_cycles_per_word=0.0),
        )
        costly = multi_gpu_peel(
            graph, num_devices=2,
            options=MultiGpuOptions(transfer_cycles_per_word=50.0,
                                    reduce_cycles_per_word=10.0),
        )
        assert costly.simulated_ms > cheap.simulated_ms

    def test_registry_entry(self, fig1):
        from repro.api import decompose

        graph, expected = fig1
        result = decompose(graph, "gpu-multi2")
        for v, c in expected.items():
            assert result.core[v] == c


class TestSparseExchange:
    """Per-sub-round scan, seed and exchange charges, worked by hand.

    Round 0 finds nothing on these graphs: every owner with vertices
    left scans its window, finds no vertex of degree 0 and launches no
    loop, which is a recorded round of frontier 0 with no exchange.

    On the path 0-1-2 both leaves form round 1's frontier.  At 2
    devices the ranges are ``(0, 2), (2, 3)``: the centre's owner also
    holds leaf 0, so its exact replica drops to ``k = 1`` and the
    centre is appended and peeled inside the launch.  Only the other
    leaf's worker decrements a ghost, the centre: one ``(id, delta)``
    pair, which the master routes to the owner as one ``(id, sum)``
    pair, and the owner drops it (its replica is at ``k``, so the
    centre is dead).  At 4 devices the ranges are ``(0, 1), (1, 2),
    (2, 2), (2, 3)``: the centre's owner holds no leaf, so the master
    sums two pairs to ``-2``, routes one, and the owner clamps the
    centre from 0 back to ``k``.  The centre landed on ``k``, so it
    seeds its owner's second sub-round: one word, and a loop launch
    that touches nothing.
    """

    OPTS = MultiGpuOptions()

    @pytest.mark.parametrize("devices", [2, 4])
    def test_hand_worked_path(self, devices):
        graph = path_graph(3)
        result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
        t = self.OPTS.transfer_cycles_per_word
        r = self.OPTS.reduce_cycles_per_word
        # the centre: a ghost of one leaf's worker, or of both
        gathered = 1 if devices == 2 else 2
        routed = 1
        words = 2 * gathered + 2 * routed
        rounds = [
            (rnd["k"], rnd["frontier"], rnd["exchange_cycles"])
            for rnd in result.critpath.record["rounds"]
        ]
        expected = [(0, 0, 0.0), (1, 2, words * t + gathered * r)]
        if devices == 4:
            expected.append((1, 1, 0.0))
            assert result.critpath.record["rounds"][2]["seed_cycles"] == [
                0.0, t, 0.0, 0.0,
            ]
        assert rounds == expected
        assert result.stats["exchange_words"] == words
        assert result.stats["broadcast_words"] == 2 * routed
        assert result.stats["sub_rounds"] == len(expected) - 1

    #: per case, its edges and per device count the expected ``(k,
    #: frontier, kernels per worker, seed_cycles, (exchange words,
    #: gathered pairs))`` rows: ``C`` is a worker's scan that found
    #: nothing, ``S`` its scan and loop
    C = ["scan_kernel"]
    S = ["scan_kernel", "loop_kernel"]
    CASES = {
        # the path 0-1-2 plus a disjoint K4 (3-6).  Every round scans,
        # the empty rounds 0 and 2 included, and only an owner whose
        # scan found a vertex launches its loop.  The path lies in
        # worker 0's range at every device count, so its centre is
        # peeled inside round 1's launch; at 4 devices (ranges (0, 3),
        # (3, 5), (5, 6), (6, 7)) that finishes worker 0, which
        # launches nothing after.  The K4 sits at k = 3 exactly, so its
        # sweeps decrement nothing and no ghost moves
        "empty-round": (
            [(0, 1), (1, 2)]
            + [(a, b) for a in range(3, 7) for b in range(a + 1, 7)],
            {
                1: [(0, 0, [C], [0.0], (0, 0)),
                    (1, 2, [S], [0.0], (0, 0)),
                    (2, 0, [C], [0.0], (0, 0)),
                    (3, 4, [S], [0.0], (0, 0))],
                2: [(0, 0, [C, C], [0.0] * 2, (0, 0)),
                    (1, 2, [S, C], [0.0] * 2, (0, 0)),
                    (2, 0, [C, C], [0.0] * 2, (0, 0)),
                    (3, 4, [S, S], [0.0] * 2, (0, 0))],
                4: [(0, 0, [C, C, C, C], [0.0] * 4, (0, 0)),
                    (1, 2, [S, C, C, C], [0.0] * 4, (0, 0)),
                    (2, 0, [[], C, C, C], [0.0] * 4, (0, 0)),
                    (3, 4, [[], S, S, S], [0.0] * 4, (0, 0))],
            },
        ),
        # the star with centre 0 and leaves 1 and 2.  One owner's scan
        # finds both leaves and the centre drops to k inside the launch
        # (no scan hit, so not in the frontier).  At 2 devices (ranges
        # (0, 1), (1, 3)) the leaves' worker decrements the centre's
        # ghost once (its lazy replica stops at k): one pair gathered
        # and routed, and the owner's 2 - 1 lands on k, which seeds a
        # loop-only sub-round on the owner alone, charged one word.  At
        # 4 devices (ranges (0, 1), (1, 1), (1, 2), (2, 3)) each leaf's
        # worker sends a pair, the master sums them to -2 and routes
        # one, the owner clamps 2 - 2 = 0 back to k, and worker 1 owns
        # nothing and never launches
        "crossing": (
            [(0, 1), (0, 2)],
            {
                1: [(0, 0, [C], [0.0], (0, 0)),
                    (1, 2, [S], [0.0], (0, 0))],
                2: [(0, 0, [C, C], [0.0] * 2, (0, 0)),
                    (1, 2, [C, S], [0.0] * 2, (4, 1)),
                    (1, 1, [["loop_kernel"], []], [0.5, 0.0], (0, 0))],
                4: [(0, 0, [C, [], C, C], [0.0] * 4, (0, 0)),
                    (1, 2, [C, [], S, S], [0.0] * 4, (6, 2)),
                    (1, 1, [["loop_kernel"], [], [], []],
                     [0.5, 0.0, 0.0, 0.0], (0, 0))],
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_owner_scans_and_crossing_seeds_by_hand(self, case, devices):
        edges, expected = self.CASES[case]
        graph = CSRGraph.from_edges(edges)
        result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
        t = self.OPTS.transfer_cycles_per_word
        r = self.OPTS.reduce_cycles_per_word
        rows = [
            (rnd["k"], rnd["frontier"],
             [[launch["kernel"] for launch in launches]
              for launches in rnd["launches"]],
             rnd["seed_cycles"], rnd["exchange_cycles"])
            for rnd in result.critpath.record["rounds"]
        ]
        assert rows == [
            (k, frontier, kernels, seeds, words * t + pairs * r)
            for k, frontier, kernels, seeds, (words, pairs)
            in expected[devices]
        ]
        assert_cores_equal(result.core, bz_core_numbers(graph), case)

    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_an_owner_is_not_sent_what_it_holds(self, devices):
        """The triangle 0-1-2 with a leaf 3 on vertex 2: round 1 peels
        the leaf, whose worker decrements vertex 2 from 3 to 2.  At 1
        and 2 devices that worker owns vertex 2, so its exact replica
        took the decrement and nothing is sent: 0 words.  At 4 devices
        vertex 2 has another owner: one pair gathered and one routed,
        4 words.  Round 2 scans the triangle; at 2 devices worker 0
        peels 0 and 1 and decrements its lazy ghost of vertex 2 once,
        at 4 devices workers 0 and 1 each do, and the routed sum finds
        vertex 2 dead on its owner."""
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
        t = self.OPTS.transfer_cycles_per_word
        r = self.OPTS.reduce_cycles_per_word
        pairs = {1: (0, 0), 2: (0, 1), 4: (1, 2)}[devices]
        rows = [
            (rnd["k"], rnd["frontier"], rnd["exchange_cycles"])
            for rnd in result.critpath.record["rounds"]
        ]
        assert rows == [(0, 0, 0.0)] + [
            (k, frontier, (2 * p + 2 * (p > 0)) * t + p * r)
            for k, frontier, p in ((1, 1, pairs[0]), (2, 3, pairs[1]))
        ]
        assert result.stats["broadcast_words"] == 2 * sum(
            p > 0 for p in pairs
        )
        assert_cores_equal(result.core, bz_core_numbers(graph), "sent")

    def test_idle_worker_gathers_nothing(self):
        """At 4 devices worker 2 owns no vertex: it never launches.
        Worker 1 scans its window in round 1 but finds nothing, so it
        launches no loop and gathers no pair.  The two leaves' workers
        each send one pair for the centre, and the one routed sum goes
        to the centre's owner alone."""
        four = multi_gpu_peel(path_graph(3), num_devices=4, critpath=True)
        assert four.stats["partition_ranges"][2] == (2, 2)
        first = four.critpath.record["rounds"][1]
        assert first["k"] == 1
        assert [len(launches) for launches in first["launches"]] == [
            2, 1, 0, 2,
        ]
        assert all(
            not rnd["launches"][2] for rnd in four.critpath.record["rounds"]
        )
        gathered, routed = 2, 1  # the centre, from each leaf's worker
        assert four.stats["broadcast_words"] == 2 * routed
        assert four.stats["exchange_words"] == 2 * gathered + 2 * routed


def window_capacity(spec, lo, hi):
    """A worker's per-block buffer slots: its window rounded up to
    whole 32-slot segments, at most the spec's capacity."""
    return min(spec.block_buffer_capacity, -(-max(hi - lo, 1) // 32) * 32)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_one_device_is_gpu_peel(variant):
    """One owner holds every vertex, so it has no ghost and makes
    ``gpu_peel``'s launches, with the same allocations at its window's
    buffer capacity, less the loop launch of each round whose scan
    found nothing: the launches left match ``gpu_peel``'s field for
    field, both at that capacity and at the default one (the sizing
    moves memory and nothing else).  The coordinator adds no seed or
    exchange charge, so ``simulated_ms`` is ``gpu_peel``'s less those
    loop launches (kernel cycles plus launch overhead), to the rounding
    of the per-round sum."""
    graph = datasets.load("web-Google")
    spec = DeviceSpec()
    cap_w = window_capacity(spec, 0, graph.num_vertices)
    assert cap_w < spec.block_buffer_capacity
    sized_device = Device()
    sized = gpu_peel(
        graph, variant=variant, device=sized_device, profile=True,
        options=GpuPeelOptions(buffer_capacity=cap_w),
    )
    device = Device()
    single = gpu_peel(graph, variant=variant, device=device, profile=True)
    one, log = multi_gpu_launches(graph, 1, variant, "vectorized")
    for peel in (sized, single):
        assert np.array_equal(one.core, peel.core)
        assert one.rounds == peel.rounds
    assert one.peak_memory_bytes == sized.peak_memory_bytes
    assert one.peak_memory_bytes < single.peak_memory_bytes
    assert one.stats["exchange_words"] == 0
    empty = [
        2 * r + 1
        for r, frontier in enumerate(single.stats["frontier_per_round"])
        if not frontier
    ]
    assert empty, "web-Google has rounds that find no vertex"
    for launch_log in (sized_device.launch_log, device.launch_log):
        kept = [s for i, s in enumerate(launch_log) if i not in empty]
        assert_stats_identical(kept, [stats for _, stats in log])
    cost = device.cost_model
    skipped_ms = sum(
        cost.cycles_to_ms(device.launch_log[i].cycles)
        + cost.kernel_launch_us / 1000.0
        for i in empty
    )
    assert one.simulated_ms == pytest.approx(
        single.simulated_ms - skipped_ms, rel=1e-12
    )
    assert one.stats["per_device_ms"][0] == pytest.approx(
        one.simulated_ms, rel=1e-12
    )
    rounds = one.critpath.record["rounds"]
    assert len(rounds) == single.rounds
    assert all(
        rnd["seed_cycles"] == [0.0] and rnd["exchange_cycles"] == 0.0
        for rnd in rounds
    )


# -- exchange bound -----------------------------------------------------------

@st.composite
def graphs_with_gaps(draw):
    """A random part, disjoint cliques and isolated vertices, relabelled
    at random: the cliques' degrees leave peel rounds with no frontier,
    and the relabelling spreads every part over the partitions."""
    n = draw(st.integers(min_value=0, max_value=16))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
        if pairs else []
    )
    for size in draw(
        st.lists(st.integers(min_value=2, max_value=8), max_size=3)
    ):
        edges += [
            (n + i, n + j) for i in range(size) for j in range(i + 1, size)
        ]
        n += size
    n += draw(st.integers(min_value=0, max_value=3))
    assume(n > 0)
    label = draw(st.permutations(range(n)))
    return CSRGraph.from_edges(
        [(label[a], label[b]) for a, b in edges], num_vertices=n
    )


@given(graphs_with_gaps(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_exchange_is_bounded_by_ghost_pairs(graph, devices):
    """The master routes one ``(id, sum)`` pair per distinct gathered
    ghost id, so routed pairs never exceed gathered ones; with one
    device there is no ghost and nothing is exchanged.  Every word is
    one of those pairs' two: ``exchange_words = 2·gathered +
    2·routed`` and ``broadcast_words = 2·routed``."""
    result = multi_gpu_peel(graph, num_devices=devices)
    assert_cores_equal(result.core, bz_core_numbers(graph), "exchange")
    routed_words = result.stats["broadcast_words"]
    gathered_words = result.stats["exchange_words"] - routed_words
    assert routed_words <= gathered_words
    if devices == 1:
        assert result.stats["exchange_words"] == 0


@st.composite
def sparse_random_graphs(draw):
    """Random graphs big enough that a k-shell spans several partitions
    and is reached across several borders."""
    return gen.erdos_renyi(
        draw(st.integers(min_value=30, max_value=120)),
        draw(st.floats(min_value=2.0, max_value=8.0)),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )


@given(
    st.one_of(graphs_with_gaps(), sparse_random_graphs()),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_agrees_with_bz_at_every_device_count(graph, devices):
    """Owners peel inside the launch while ghosts stay lazy: the cores
    must not depend on how many devices share the graph.  An owner
    whose replica of its own vertices went stale would re-append dead
    vertices; the random graphs reach that within a few examples."""
    result = multi_gpu_peel(graph, num_devices=devices)
    assert_cores_equal(result.core, bz_core_numbers(graph), f"multi-{devices}")


# -- worker buffers sized to the window ---------------------------------------

def expected_worker_peaks(graph, ranges, cfg, spec):
    """Each worker's bytes: context, CSR slice, degree replica, block
    buffers at its window's capacity, tails and ``gpu_count``, plus the
    scan's compaction staging for BC/EC."""
    n = graph.num_vertices
    peaks = []
    for lo, hi in ranges:
        slots = (
            (hi - lo + 1)
            + int(graph.offsets[hi] - graph.offsets[lo])
            + n
            + spec.default_grid_dim * window_capacity(spec, lo, hi)
            + spec.default_grid_dim
            + 1
        )
        if cfg.compaction != "none":
            slots += 3 * spec.default_grid_dim * spec.default_block_dim
        peaks.append(spec.context_overhead_bytes + spec.id_bytes * slots)
    return peaks


def assert_exact_worker_peaks(graph, devices, variant):
    """Every worker holds exactly :func:`expected_worker_peaks`, and a
    worker whose window is empty never launches."""
    spec = DeviceSpec()
    result, log = multi_gpu_launches(graph, devices, variant, "vectorized")
    ranges = result.stats["partition_ranges"]
    assert result.stats["per_device_peak_bytes"] == expected_worker_peaks(
        graph, ranges, VARIANTS[variant], spec
    )
    assert result.peak_memory_bytes == max(
        result.stats["per_device_peak_bytes"]
    )
    launched = {name for name, _ in log}
    for d, (lo, hi) in enumerate(ranges):
        if hi == lo:
            assert f"gpu{d}" not in launched
    assert_cores_equal(result.core, bz_core_numbers(graph), variant)


@given(
    graphs_with_gaps(),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(list(VARIANTS)),
)
@settings(max_examples=40, deadline=None)
def test_worker_peaks_are_exact(graph, devices, variant):
    assert_exact_worker_peaks(graph, devices, variant)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_web_google_worker_peaks_are_exact(variant):
    graph = datasets.load("web-Google")
    for devices in range(1, 9):
        assert_exact_worker_peaks(graph, devices, variant)


def test_eight_devices_hold_under_half_a_gpu():
    """web-Google's busiest worker at 8 devices holds at most half of
    one GPU's peak."""
    graph = datasets.load("web-Google")
    single = gpu_peel(graph)
    eight = multi_gpu_peel(graph, num_devices=8)
    assert 2 * eight.peak_memory_bytes <= single.peak_memory_bytes


ALL_BUFFERINGS = [
    cfg for base in VARIANTS.values()
    for cfg in (base, base.with_ring_buffer())
]


@pytest.mark.parametrize(
    "cfg", ALL_BUFFERINGS, ids=[cfg.name for cfg in ALL_BUFFERINGS]
)
@pytest.mark.parametrize("case", ["star", "clique"])
def test_a_full_window_fits_one_block(case, cfg):
    """64 vertices, all inside block 0's first stride (512 threads), so
    one block receives the whole frontier.  The star's scan collects its
    63 leaves and its loop appends the centre; the clique's scan
    collects all 64 at k = 63.  Either way block 0 fills all
    ``round_up(64, 32) = 64`` slots of a one-device worker exactly, and
    no variant overflows at any device count."""
    if case == "star":
        graph = CSRGraph.from_edges([(0, leaf) for leaf in range(1, 64)])
    else:
        graph = k_clique(64)
    assert window_capacity(DeviceSpec(), 0, graph.num_vertices) == 64
    for devices in (1, 2, 3, 4):
        result, log = multi_gpu_launches(graph, devices, cfg, "vectorized")
        assert_cores_equal(result.core, bz_core_numbers(graph), cfg.name)
        if devices == 1:
            assert max(stats.buffer_peak for _, stats in log) == 64


@pytest.mark.parametrize("variant", ["ours", "sm"])
def test_a_spec_capacity_below_the_window_still_overflows(variant):
    """A spec capacity smaller than the window is kept, so the scan
    overflows it with the same typed error as a whole-GPU buffer."""
    spec = DeviceSpec(block_buffer_capacity=8)
    with pytest.raises(BufferOverflowError) as raised:
        multi_gpu_peel(k_clique(64), num_devices=1, variant=variant, spec=spec)
    assert raised.value.block == 0
    assert raised.value.capacity == 8


# -- worker side pinned across aggregation changes ---------------------------

def _pin_graphs():
    return [("web-Google", datasets.load("web-Google"))] + BATTERY


def _core_digest(core):
    data = np.asarray(core, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


def worker_side(graph, devices):
    """Everything the workers decide: the coordinator's exchange and
    seed costs are deliberately absent."""
    result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
    rounds = result.critpath.record["rounds"] if result.critpath else []
    worker_cycles = json.dumps([r["worker_cycles"] for r in rounds])
    return {
        "core_sha256": _core_digest(result.core),
        "sub_rounds": result.stats.get("sub_rounds"),
        "per_device_ms": result.stats.get("per_device_ms"),
        "per_device_peak_bytes": result.stats.get("per_device_peak_bytes"),
        "frontiers": [r["frontier"] for r in rounds],
        "worker_cycles_sha256": hashlib.sha256(
            worker_cycles.encode()
        ).hexdigest(),
    }


@pytest.mark.parametrize("devices", PIN_DEVICES)
def test_worker_side_matches_pin(devices):
    pinned = json.loads(WORKER_PIN.read_text(encoding="utf-8"))
    for name, graph in _pin_graphs():
        key = f"{name}/{devices}"
        observed = worker_side(graph, devices)
        assert observed == pinned[key], key
        assert observed["core_sha256"] == _core_digest(
            bz_core_numbers(graph)
        ), key


if __name__ == "__main__":
    WORKER_PIN.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(f'{name}/{d}')}: "
        f"{json.dumps(worker_side(graph, d), sort_keys=True)}"
        for name, graph in _pin_graphs()
        for d in PIN_DEVICES
    ]
    WORKER_PIN.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )
