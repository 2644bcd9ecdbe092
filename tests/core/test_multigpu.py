"""Multi-GPU extension tests (the paper's Section VII sketch)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.multigpu import MultiGpuOptions, multi_gpu_peel, partition_ranges
from repro.cpu.bz import bz_core_numbers
from repro.errors import ReproError
from repro.graph import datasets
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.examples import path_graph
from tests.conftest import BATTERY, BATTERY_IDS, assert_cores_equal

#: worker-side observables, re-captured when owners began peeling
#: their own k-shell inside the launch; rewrite with
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
    """Per-sub-round filter and exchange charges, worked by hand.

    On the path 0-1-2 both leaves form round 1's first frontier and
    sit on different workers, so each worker decrements the centre in
    its replica and sends one ``(id, delta)`` pair for it.  At 2
    devices the ranges are ``(0, 2), (2, 3)``: the centre's owner also
    holds leaf 0, so its exact replica drops to ``k = 1`` and the
    centre is appended and peeled inside the launch.  The master reads
    back its id (one word), drops both pairs of the now dead centre
    and broadcasts nothing.  At 4 devices the ranges are ``(0, 1),
    (1, 2), (2, 2), (2, 3)``: the centre's owner holds no leaf, so the
    master sums the two pairs to a degree of 0, clamps it back to
    ``k`` and sends that one changed vertex to its owner only.  The
    second sub-round filters only that vertex, finds it in the
    1-shell, and its sweep touches nothing.

    The master's degree buckets are built by a counting sort charged
    ``n``.  Round 0 reads the empty bucket 0 and finds nothing, so the
    build is carried to round 1's first filter, which reads bucket 1's
    two leaves.
    """

    OPTS = MultiGpuOptions()

    @pytest.mark.parametrize("devices", [2, 4])
    def test_hand_worked_path(self, devices):
        graph = path_graph(3)
        result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
        t = self.OPTS.transfer_cycles_per_word
        r = self.OPTS.reduce_cycles_per_word
        n = graph.num_vertices
        gathered = 2  # the centre, once from each leaf's worker
        # the centre: collected by its owner, or clamped and sent to it
        collected, changed = (1, 0) if devices == 2 else (0, 1)
        words = 2 * gathered + collected + 2 * changed
        build, bucket0, bucket1 = n, 0, 2
        rounds = [
            (rnd["k"], rnd["frontier"], rnd["filter_cycles"],
             rnd["exchange_cycles"])
            for rnd in result.critpath.record["rounds"]
        ]
        expected = [
            (1, 2, float(build + bucket0 + bucket1),
             words * t + gathered * r),
        ]
        if changed:
            expected.append((1, 1, float(changed), 0.0))
        assert rounds == expected
        assert result.stats["exchange_words"] == words
        assert result.stats["broadcast_words"] == 2 * changed

    #: graph edges and the expected ``(k, frontier, filter_cycles)`` rows
    BUCKET_CASES = {
        # the path 0-1-2 plus a disjoint K4 (vertices 3-6): round 1 pays
        # the build (n = 7), the empty bucket 0 and bucket 1's two
        # leaves.  The path lies in worker 0's range at every device
        # count, so the centre is collected inside the launch and
        # nothing changes.  The centre's initial entry in bucket 2 is
        # stale by round 2, which finds nothing; round 3 pays for that
        # entry plus the K4's four in bucket 3
        "empty-round": (
            [(0, 1), (1, 2)]
            + [(a, b) for a in range(3, 7) for b in range(a + 1, 7)],
            [(1, 2, 7.0 + 0 + 2), (3, 4, 1.0 + 4)],
        ),
        # the triangle 0-1-2 with a leaf 3 on vertex 2: round 1 pays the
        # build (n = 4) and bucket 1's leaf; removing it lowers vertex 2
        # to degree 2, which routes one entry to bucket 2.  The filter
        # over that changed vertex finds nothing and is carried, so
        # round 2 pays 1 plus bucket 2's three entries
        "routed": (
            [(0, 1), (0, 2), (1, 2), (2, 3)],
            [(1, 1, 4.0 + 0 + 1), (2, 3, 1.0 + 3)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(BUCKET_CASES))
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_bucket_reads_by_hand(self, case, devices):
        edges, expected = self.BUCKET_CASES[case]
        graph = CSRGraph.from_edges(edges)
        result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
        rows = [
            (rnd["k"], rnd["frontier"], rnd["filter_cycles"])
            for rnd in result.critpath.record["rounds"]
        ]
        assert rows == expected
        assert_cores_equal(result.core, bz_core_numbers(graph), case)

    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_an_owner_is_not_sent_what_it_holds(self, devices):
        """The triangle 0-1-2 with a leaf 3 on vertex 2: round 1 peels
        the leaf, whose worker decrements vertex 2 from 3 to 2 and
        sends one pair.  At 1 and 2 devices that worker owns vertex 2
        too, so its replica already holds 2 and nothing is sent back:
        2 words.  At 4 devices vertex 2 has another owner, which is
        sent the new value: 4 words."""
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
        t = self.OPTS.transfer_cycles_per_word
        r = self.OPTS.reduce_cycles_per_word
        sent = 0 if devices < 4 else 1
        first = result.critpath.record["rounds"][0]
        assert (first["k"], first["frontier"]) == (1, 1)
        assert first["exchange_cycles"] == (2 + 2 * sent) * t + r
        # round 2 peels the triangle whole: no alive vertex changes
        assert result.stats["broadcast_words"] == 2 * sent
        assert_cores_equal(result.core, bz_core_numbers(graph), "sent")

    def test_idle_worker_gathers_nothing(self):
        """At 4 devices worker 2 owns no vertex and workers 1 and 2 own
        no first-sub-round frontier: they launch nothing and add no
        gathered pair.  The one changed vertex, the clamped centre, is
        sent to its owner alone, so the idle devices add no broadcast
        words either."""
        four = multi_gpu_peel(path_graph(3), num_devices=4, critpath=True)
        assert four.stats["partition_ranges"][2] == (2, 2)
        first = four.critpath.record["rounds"][0]
        assert [launch is None for launch in first["launches"]] == [
            False, True, True, False,
        ]
        gathered, changed = 2, 1  # the centre, from each leaf's worker
        assert four.stats["broadcast_words"] == 2 * changed
        assert four.stats["exchange_words"] == 2 * gathered + 2 * changed


# -- work-efficient frontier --------------------------------------------------

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
def test_filter_work_is_bounded_by_changes(graph, devices):
    """The master's frontier filters examine at most the initial
    bucket entries, one routed entry per changed vertex and each
    sub-round's changed vertices once: ``2n + 2·Σ|changed|``, whatever
    the number of rounds.  Every changed vertex was touched by some
    worker, so ``|changed|`` is at most the sub-round's gathered pairs,
    and ``2·Σpairs`` plus the read-back words is what the exchange
    charges beyond the broadcast."""
    result = multi_gpu_peel(graph, num_devices=devices, critpath=True)
    assert_cores_equal(result.core, bz_core_numbers(graph), "bucketed")
    filtered = sum(
        rnd["filter_cycles"] for rnd in result.critpath.record["rounds"]
    )
    n = graph.num_vertices
    gathered_words = (
        result.stats["exchange_words"] - result.stats["broadcast_words"]
    )
    assert filtered <= 2 * n + gathered_words


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


# -- worker side pinned across aggregation changes ---------------------------

def _pin_graphs():
    return [("web-Google", datasets.load("web-Google"))] + BATTERY


def _core_digest(core):
    data = np.asarray(core, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


def worker_side(graph, devices):
    """Everything the workers decide: the coordinator's exchange and
    filter costs are deliberately absent."""
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
