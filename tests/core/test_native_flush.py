"""The vectorized engine's native replays (``core/fastsim_flush.c``).

Three things are pinned here.  Loading: the library is compiled once
into a per-user cache, reused from there, never loaded from a file it
did not finish writing, and its absence (no compiler) silently leaves
the reference interpreter serving every launch; a scan or loop launch
is one call into it.  Fallbacks: each condition on which a replay
declines a launch fires with its message, leaves no trace (also when
the loop replay declines after earlier flushes wrote the device
arrays), the engine then serves the launch by reference, and the
outcome is the reference interpreter's.  The C source: warning-free
under strict flags, and free of undefined behaviour on those cases
under UBSan.  The byte-identity of the replays and the interpreter on
generated graphs is in ``tests/properties/test_engines.py``.
"""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import fastsim
from repro.core.host import gpu_peel
from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.core.variants import VARIANTS, get_variant
from repro.gpusim.device import Device
from repro.gpusim.engine import (
    FallbackToReference,
    ReferenceEngine,
    VectorLaunch,
)
from repro.gpusim.spec import DeviceSpec
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.examples import fig1_graph, k_clique
from repro.memtrace.tracker import MemoryTracker
from tests.conftest import needs_cc
from tests.properties.test_engines import assert_byte_identical


# -- loading and caching ------------------------------------------------------

@needs_cc
def test_native_flush_loads_with_a_compiler():
    """Where ``cc`` exists the C replay must serve: a broken build would
    otherwise leave every loop launch to the interpreter without
    failing anything."""
    assert fastsim.native_flush_available()


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """A process without ``cc`` on ``PATH`` and with an empty library
    cache: the native replays do not load."""
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    monkeypatch.setattr(fastsim, "_cache_dir", lambda: tmp_path / "cache")
    fastsim._native_replay.cache_clear()
    yield
    fastsim._native_replay.cache_clear()


def test_no_compiler_serves_loop_launches_by_reference(no_compiler):
    """Without ``cc`` every scan and loop launch declines, silently,
    and the interpreter serves it with the same results."""
    graph = gen.barabasi_albert(150, 4, seed=3)
    ref = gpu_peel(graph, variant="sm", engine="reference")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not fastsim.native_flush_available()
        vec = gpu_peel(graph, variant="sm", engine="vectorized")
    assert_byte_identical(ref, vec)
    assert "engine.served.vectorized" not in vec.counters
    assert vec.counters["engine.served.reference"] \
        == vec.counters["kernel.scan.launches"] \
        + vec.counters["kernel.loop.launches"]


def test_no_compiler_warnings_name_the_missing_replay(no_compiler):
    """A ``dataflow=True`` run reports each launch the analysis
    predicted vectorized as an ``engine-precondition`` warning, whose
    candidates lead with the declining kernel's own rules: the
    missing replay comes first, not the shared argument checks."""
    result = gpu_peel(fig1_graph()[0], variant="ours", dataflow=True)
    warned = {
        f.kernel.split("[")[0]: f.message
        for f in result.staticheck.findings
        if f.detector == "engine-precondition"
    }
    assert sorted(warned) == ["loop_kernel", "scan_kernel"]
    for kernel, message in warned.items():
        replay = kernel.split("_")[0]
        candidates = message.split("(candidates: ")[1]
        assert candidates.startswith(
            f"_{replay}_vectorized:"
        ), candidates
        assert f"(no native {replay} replay)" in candidates.split(";")[0]
    assert all(f.severity == "warning" for f in result.staticheck.findings)


class _Spy:
    """The native library, counting the calls into each replay."""

    def __init__(self, lib):
        self.calls = {"repro_scan": [], "repro_loop": []}
        for name, calls in self.calls.items():
            setattr(self, name, self._spy(getattr(lib, name), calls))

    @staticmethod
    def _spy(fn, calls):
        def call(ctx):
            calls.append(ctx.k)
            return fn(ctx)
        return call


def _spied_run(variant, monkeypatch):
    """A vectorized run of ``variant`` and the spy on its C calls."""
    spy = _Spy(fastsim._native_replay())
    monkeypatch.setattr(fastsim, "_native_replay", lambda: spy)
    result = gpu_peel(
        gen.barabasi_albert(200, 4, seed=5), variant=variant,
        engine="vectorized",
    )
    scans = result.counters["kernel.scan.launches"]
    loops = result.counters["kernel.loop.launches"]
    assert result.counters["engine.served.vectorized"] == scans + loops
    return result, spy


@needs_cc
@pytest.mark.parametrize("variant", ("ours", "sm", "vp", "ec"))
def test_a_loop_launch_is_one_native_call(variant, monkeypatch):
    """The whole replay, its flushes and stats fold included, is one C
    call."""
    result, spy = _spied_run(variant, monkeypatch)
    loops = result.counters["kernel.loop.launches"]
    assert len(spy.calls["repro_loop"]) == loops > 1


@needs_cc
@pytest.mark.parametrize("variant", ("ours", "bc", "ec"))
def test_a_scan_launch_is_one_native_call(variant, monkeypatch):
    """The walk, its writes and the stats fold are one C call, per
    compaction scheme."""
    result, spy = _spied_run(variant, monkeypatch)
    scans = result.counters["kernel.scan.launches"]
    assert len(spy.calls["repro_scan"]) == scans > 1


@needs_cc
def test_a_second_load_reuses_the_cached_library(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert fastsim._load_native(cache) is not None
    assert cache.stat().st_mode & 0o777 == 0o700
    built = sorted(p.name for p in cache.iterdir())
    assert len(built) == 1 and built[0].endswith(".so")  # no temp left

    def no_build(cc, path):
        raise AssertionError("rebuilt a cached library")

    monkeypatch.setattr(fastsim, "_build", no_build)
    assert fastsim._load_native(cache) is not None
    assert sorted(p.name for p in cache.iterdir()) == built


@needs_cc
def test_a_build_prunes_stale_libraries(tmp_path):
    """A build deletes the libraries of earlier sources or flags, and
    nothing else in the cache directory."""
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    stale = cache / "fastsim-flush-0123456789abcdef01234567.so"
    stale.write_bytes(b"an old build")
    others = [cache / "notes.txt", cache / "fastsim-flush-notes.txt",
              cache / "other-lib.so"]
    for other in others:
        other.write_text("keep")
    assert fastsim._load_native(cache) is not None
    assert not stale.exists()
    assert fastsim._library_path(cache).exists()
    assert all(other.read_text() == "keep" for other in others)


def test_a_cache_others_can_write_is_refused(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o777)
    assert fastsim._load_native(cache) is None
    assert not any(cache.iterdir())  # nothing built, nothing loaded


@needs_cc
@pytest.mark.parametrize("damage", ["truncated", "foreign"])
def test_a_damaged_cache_file_is_never_loaded(tmp_path, damage):
    """The cache file is rebuilt, not ``dlopen``-ed: a foreign library
    whose constructor leaves a marker file never runs."""
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    cached = fastsim._library_path(cache)
    fastsim._build("cc", cached)
    good = cached.read_bytes()
    marker = tmp_path / "constructor-ran"
    if damage == "truncated":
        cached.write_bytes(good[: len(good) // 2])
    else:
        src = tmp_path / "foreign.c"
        src.write_text(
            "#include <stdio.h>\n"
            "__attribute__((constructor)) static void mark(void)\n"
            f'{{ FILE *f = fopen("{marker}", "w"); if (f) fclose(f); }}\n'
            "int repro_loop(void) { return 0; }\n"
        )
        subprocess.run(
            ["cc", "-shared", "-fPIC", "-o", str(cached), str(src)],
            check=True,
        )
    assert fastsim._load_native(cache) is not None
    assert not marker.exists()
    assert cached.read_bytes() == good


# -- the loop fallbacks ---------------------------------------------------------

#: the loop replay the decline cases run through, named in their ids
REPLAYS = ("native",)


def _doctored(case):
    """``(arrays, k, capacity, variant)`` of a loop launch on the clique
    K8 that reaches ``case``.  Block 0's buffer holds the frontier; the
    other blocks are empty."""
    graph = k_clique(8)  # every degree 7: at k = 1 a sweep appends nothing
    a = {
        "offsets": graph.offsets.copy(),
        "neighbors": graph.neighbors.copy(),
        "deg": graph.degrees.astype(np.int64),
    }
    k, cap, variant = 1, 4, "ours"
    frontier = [0]
    if case == "read-overflow":
        # SM: a tail past the block's capacity makes warp `cap` read a
        # global slot above it
        variant, frontier = "sm", [0, 2, 4, 6, 7]
    elif case == "global-read-overflow":
        # the same tail without SM: warp `cap` reads the next block's
        # first slot, where the reference raises
        frontier = [0, 2, 4, 6, 7]
    elif case == "outside-slice":
        frontier = [8]  # a frontier id past the CSR slice
    elif case == "append-overflow":
        k, cap = 6, 1  # vertex 0's sweep drops all 7 neighbors to k
    elif case == "neighbor-out-of-bounds":
        a["neighbors"][0] = 8  # vertex 0's first neighbor is no vertex
    elif case == "negative-neighbor":
        a["neighbors"][0] = -1  # numpy indexing wraps it to vertex 7
    elif case == "offsets-out-of-bounds":
        a["offsets"][-1] += 3  # vertex 7's row runs past the neighbors
        frontier = [7]
    buf = np.zeros(4 * cap, dtype=np.int64)
    buf[: len(frontier)] = frontier
    tails = np.array([len(frontier), 0, 0, 0])
    a.update(buf=buf, buf_tails=tails, gpu_count=np.zeros(1, np.int64))
    return a, k, cap, variant


def _loop_args(dev, arrays, k, cap, variant):
    """The arrays on ``dev`` and the loop kernel's arguments."""
    a = {name: dev.malloc(name, data) for name, data in arrays.items()}
    cfg = get_variant(variant)
    scap = dev.spec.shared_buffer_capacity if cfg.shared_buffer else 0
    return a, (k, a["offsets"], a["neighbors"], a["deg"], a["buf"],
               a["buf_tails"], a["gpu_count"], cap, scap, cfg)


def _launch(engine, doctored, spec=None):
    """One loop launch: its stats and final arrays, or what it raised."""
    dev = Device(spec=spec, engine=engine)
    a, args = _loop_args(dev, *doctored)
    try:
        stats = dev.launch(loop_kernel, args=args)
    except Exception as exc:  # the reference's own error is the outcome
        return (type(exc), str(exc)), None
    return stats, {name: arr.data.tolist() for name, arr in a.items()}


FALLBACKS = {
    "read-overflow": "loop buffer read overflow",
    "global-read-overflow": "loop buffer read overflow",
    "outside-slice": "frontier vertex outside CSR slice",
    "append-overflow": "loop buffer overflow; reference raises",
    "neighbor-out-of-bounds": "loop replay index out of bounds",
    "negative-neighbor": "loop replay index out of bounds",
    "offsets-out-of-bounds": "loop replay index out of bounds",
}


@needs_cc
@pytest.mark.parametrize("replay", REPLAYS)
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_each_loop_fallback_fires_and_reference_serves(
    case, replay, monkeypatch
):
    """The reference interpreter completes the negative neighbor (its
    numpy indexing wraps) and raises its own error on every other case
    (``BufferOverflowError`` or ``IndexError``); the spy shows it, not
    the executor, ran each launch the engine served."""
    doctored = _doctored(case)
    expected = _launch("reference", doctored)
    dev = Device()
    a, args = _loop_args(dev, *doctored)
    launch = VectorLaunch(
        spec=dev.spec, cost=dev.cost_model,
        grid_dim=dev.spec.default_grid_dim,
        block_dim=dev.spec.default_block_dim, args=args,
    )
    served = []
    run = ReferenceEngine.run

    def spy(self, *args, **kwargs):
        served.append(args[0].__name__)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ReferenceEngine, "run", spy)
    with pytest.raises(FallbackToReference, match=re.escape(FALLBACKS[case])):
        fastsim._loop_vectorized(launch)
    observed = _launch("vectorized", doctored)
    # declined with zero observable effects, then served by reference
    arrays = doctored[0]
    assert all(np.array_equal(a[n].data, arrays[n]) for n in arrays)
    assert served == ["loop_kernel"]
    assert observed == expected
    if case == "negative-neighbor":
        assert observed[0].served_by == "reference"


def _late(case, variant):
    """``(arrays, k, capacity, variant)`` of a loop launch that declines
    in the flush that sweeps vertex 1, after an earlier flush has
    decremented degrees and appended two vertices to the buffer and
    block 1 has added its tail to ``gpu_count``."""
    # 0's sweep drops 1 and 2 to k = 1; 1's sweep then drops 3, 4 and
    # 5, three appends that overflow a buffer of 4 (5 with SM's window
    # of 1); block 1 sweeps 6, which only decrements 7
    graph = CSRGraph.from_edges(
        [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (6, 7)]
    )
    a = {
        "offsets": graph.offsets.copy(),
        "neighbors": graph.neighbors.copy(),
        "deg": np.array([1, 2, 2, 2, 2, 2, 1, 5], dtype=np.int64),
    }
    if case == "neighbor-out-of-bounds":
        a["neighbors"][graph.offsets[2] - 1] = 8  # 1's last neighbor
    cap = 4
    buf = np.full(4 * cap, -7, dtype=np.int64)
    buf[0] = 0
    buf[cap] = 6
    a.update(buf=buf, buf_tails=np.array([1, 1, 0, 0]),
             gpu_count=np.array([3], dtype=np.int64))
    return a, 1, cap, variant


LATE = {
    "append-overflow": "loop buffer overflow; reference raises",
    "neighbor-out-of-bounds": "loop replay index out of bounds",
}


class _SharedLog:
    """A memtracker that records the shared allocations it is told of."""

    def __init__(self):
        self.log = []

    def on_shared_alloc(self, block, name, nbytes):
        self.log.append((block, name, nbytes))


@needs_cc
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_the_memtracker_hears_the_reference_shared_allocations(
    variant, monkeypatch
):
    """Served vectorized or by reference, a run tells the memtracker
    the same shared allocations in the same order: EC's scan staging,
    SM's ``B`` windows and VP's prefetch buffers, and nothing for the
    launches that stage no shared memory."""
    heard = []
    hear = MemoryTracker.on_shared_alloc

    def record(self, block, name, nbytes):
        heard.append((block, name, nbytes))
        hear(self, block, name, nbytes)

    monkeypatch.setattr(MemoryTracker, "on_shared_alloc", record)
    graph = gen.barabasi_albert(120, 3, seed=1)
    logs = {}
    for engine in ("reference", "vectorized"):
        heard.clear()
        result = gpu_peel(graph, variant=variant, engine=engine, memtrace=True)
        served = result.counters.get(f"engine.served.{engine}", 0)
        assert served == result.counters["device.kernel_launches"], engine
        logs[engine] = list(heard)
    assert logs["vectorized"] == logs["reference"]
    cfg = VARIANTS[variant]
    assert bool(logs["reference"]) == (
        cfg.compaction == "block" or cfg.shared_buffer or cfg.prefetch
    )


@needs_cc
@pytest.mark.parametrize("replay", REPLAYS)
@pytest.mark.parametrize("variant", ("ours", "sm", "vp"))
@pytest.mark.parametrize("case", sorted(LATE))
def test_a_late_decline_leaves_no_trace(case, variant, replay, monkeypatch):
    """A replay that declines after writing the device arrays undoes
    every write: ``deg``, ``buf``, the tails, ``gpu_count`` and the
    memtracker are as they were, and the engine serves the launch by
    reference."""
    spec = DeviceSpec(shared_buffer_capacity=1)
    doctored = _late(case, variant)
    expected = _launch("reference", doctored, spec)
    dev = Device(spec=spec)
    a, args = _loop_args(dev, *doctored)
    before = {name: arr.data.copy() for name, arr in a.items()}
    memtracker = _SharedLog()
    launch = VectorLaunch(
        spec=dev.spec, cost=dev.cost_model,
        grid_dim=dev.spec.default_grid_dim,
        block_dim=dev.spec.default_block_dim, args=args,
        memtracker=memtracker,
    )
    served = []
    run = ReferenceEngine.run

    def spy(self, *args, **kwargs):
        served.append(args[0].__name__)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ReferenceEngine, "run", spy)
    with pytest.raises(FallbackToReference, match=re.escape(LATE[case])):
        fastsim._loop_vectorized(launch)
    observed = _launch("vectorized", doctored, spec)
    for name, arr in a.items():
        assert arr.data.tobytes() == before[name].tobytes(), name
    assert memtracker.log == []
    assert served == ["loop_kernel"]
    assert observed == expected


#: a device array the C replay cannot write in place, made so after
#: ``malloc``; each still serves the reference interpreter (the loop
#: kernel only reads the tails)
UNADDRESSABLE = {
    "read-only": ("buf_tails", lambda data: _read_only(data)),
    "strided": ("deg", lambda data: np.repeat(data, 2)[::2]),
    "int32": ("buf", lambda data: data.astype(np.int32)),
}


def _read_only(data):
    data.setflags(write=False)
    return data


def _unaddressable(dev, case):
    """A K8 sweep on ``dev`` (SM, so the launch stages shared memory)
    with one array doctored as ``case`` says."""
    arrays, k, cap, _ = _doctored("none")
    a, args = _loop_args(dev, arrays, k, cap, "sm")
    name, doctor = UNADDRESSABLE[case]
    a[name].data = doctor(a[name].data)
    return a, args


@needs_cc
@pytest.mark.parametrize("case", sorted(UNADDRESSABLE))
def test_an_array_the_replay_cannot_write_is_served_by_reference(case):
    """The replay writes ``deg``, ``buf`` and ``gpu_count`` in place
    and reads the tails there, so a launch whose arrays are not all
    writeable contiguous ``int64`` declines before its first write or
    shared allocation, and the interpreter serves it."""
    dev = Device()
    a, args = _unaddressable(dev, case)
    before = {name: arr.data.tolist() for name, arr in a.items()}
    memtracker = _SharedLog()
    launch = VectorLaunch(
        spec=dev.spec, cost=dev.cost_model,
        grid_dim=dev.spec.default_grid_dim,
        block_dim=dev.spec.default_block_dim, args=args,
        memtracker=memtracker,
    )
    with pytest.raises(FallbackToReference, match="cannot write in place"):
        fastsim._loop_vectorized(launch)
    assert {name: arr.data.tolist() for name, arr in a.items()} == before
    assert memtracker.log == []
    outcomes = {}
    for engine in ("reference", "vectorized"):
        dev = Device(engine=engine)
        a, args = _unaddressable(dev, case)
        stats = dev.launch(loop_kernel, args=args)
        outcomes[engine] = (
            stats, {name: arr.data.tolist() for name, arr in a.items()}
        )
    assert outcomes["vectorized"] == outcomes["reference"]
    assert outcomes["vectorized"][0].served_by == "reference"
    assert outcomes["vectorized"][1]["deg"] != before["deg"]  # it swept


# -- the scan fallbacks ---------------------------------------------------------

#: how each scan case doctors the launch: the arrays' sizes and dtypes,
#: ``num_vertices`` and the capacity (40 vertices of degree 1, all
#: hits at k = 1 in block 0's two 32-vertex chunks)
SCAN_FALLBACKS = {
    "overflow": "scan buffer overflow; reference raises",
    "short-tails": "scan replay index out of bounds",
    "short-buf": "scan replay index out of bounds",
    "vertices-past-deg": "scan replay index out of bounds",
    "int32-deg": "device array the C replay cannot write in place",
    "strided-deg": "device array the C replay cannot write in place",
}


def _scan_args(dev, case):
    """The arrays of a doctored EC scan launch on ``dev`` (EC, so the
    launch stages shared memory) and the kernel's arguments."""
    deg = np.ones(40, dtype=np.int64)
    buf = np.full(4 * 64, -7, dtype=np.int64)
    tails = np.full(4, -7, dtype=np.int64)
    nv, cap = 40, 64
    if case == "overflow":
        cap = 16  # block 0's 40 hits overflow it
    elif case == "short-tails":
        tails = tails[:2]  # four blocks write a tail each
    elif case == "short-buf":
        buf = buf[:30]  # block 0's slots 30..39 are past the end
    elif case == "short-buf-fits":
        buf = buf[:45]  # shorter than grid * capacity, yet the hits fit
    elif case == "vertices-past-deg":
        nv = 50
    a = {name: dev.malloc(name, data) for name, data in
         (("deg", deg), ("buf", buf), ("buf_tails", tails))}
    if case == "int32-deg":
        a["deg"].data = a["deg"].data.astype(np.int32)
    elif case == "strided-deg":
        a["deg"].data = np.repeat(a["deg"].data, 2)[::2]
    return a, (1, a["deg"], a["buf"], a["buf_tails"], nv, cap,
               get_variant("ec"))


def _scan_launch(engine, case):
    """One scan launch: its stats and final arrays, or what it raised."""
    dev = Device(engine=engine)
    a, args = _scan_args(dev, case)
    try:
        stats = dev.launch(scan_kernel, args=args)
    except Exception as exc:  # the reference's own error is the outcome
        return (type(exc), str(exc)), None
    return stats, {name: arr.data.tolist() for name, arr in a.items()}


@needs_cc
@pytest.mark.parametrize("case", sorted(SCAN_FALLBACKS))
def test_each_scan_fallback_fires_and_reference_serves(case, monkeypatch):
    """The scan checks its overflow and every index before its first
    write: a declined launch leaves the arrays and the memtracker as
    they were, and the engine serves it by reference, which completes
    (a deg the replay cannot read) or raises its own error."""
    dev = Device()
    a, args = _scan_args(dev, case)
    before = {name: arr.data.tobytes() for name, arr in a.items()}
    memtracker = _SharedLog()
    launch = VectorLaunch(
        spec=dev.spec, cost=dev.cost_model,
        grid_dim=dev.spec.default_grid_dim,
        block_dim=dev.spec.default_block_dim, args=args,
        memtracker=memtracker,
    )
    with pytest.raises(
        FallbackToReference, match=re.escape(SCAN_FALLBACKS[case])
    ):
        fastsim._scan_vectorized(launch)
    assert {n: arr.data.tobytes() for n, arr in a.items()} == before
    assert memtracker.log == []
    served = []
    run = ReferenceEngine.run

    def spy(self, *args, **kwargs):
        served.append(args[0].__name__)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ReferenceEngine, "run", spy)
    observed = _scan_launch("vectorized", case)
    assert served == ["scan_kernel"]
    assert observed == _scan_launch("reference", case)
    if case in ("int32-deg", "strided-deg"):
        assert observed[0].served_by == "reference"  # it completed
    else:
        assert observed[1] is None  # the reference raised


@needs_cc
@pytest.mark.parametrize("variant", ("ours", "bc", "ec"))
@pytest.mark.parametrize("window", ((37, 300), (0, 2100), (300, 300)))
def test_a_scan_window_matches_reference(variant, window):
    """The scan over ``[vertex_lo, num_vertices)``: an offset window
    whose warps start mid-chunk, more vertices than one sweep of the
    grid's warps (2,048) covers, and an empty window."""
    lo, nv = window
    deg = np.random.default_rng(5).integers(0, 4, 2100)
    outcomes = {}
    for engine in ("reference", "vectorized"):
        dev = Device(engine=engine)
        a = {name: dev.malloc(name, data) for name, data in (
            ("deg", deg.copy()), ("buf", np.full(4 * 800, -7)),
            ("buf_tails", np.full(4, -7)),
        )}
        stats = dev.launch(scan_kernel, args=(
            2, a["deg"], a["buf"], a["buf_tails"], nv, 800,
            get_variant(variant), lo,
        ))
        outcomes[engine] = (
            dataclasses.replace(stats, served_by="reference"),
            {name: arr.data.tolist() for name, arr in a.items()},
        )
        assert stats.served_by == engine
    assert outcomes["vectorized"] == outcomes["reference"]


@needs_cc
def test_a_short_buffer_the_hits_fit_is_replayed():
    """Only the slots a scan writes must lie in ``buf``: a buffer
    shorter than grid x capacity that holds them is replayed, with the
    reference's outcome."""
    observed = _scan_launch("vectorized", "short-buf-fits")
    assert observed[0].served_by == "vectorized"
    expected = _scan_launch("reference", "short-buf-fits")
    assert dataclasses.replace(observed[0], served_by="reference") \
        == expected[0]
    assert observed[1] == expected[1]


@needs_cc
def test_the_c_source_compiles_without_warnings():
    proc = subprocess.run(
        ["cc", "-fsyntax-only", "-std=c99", "-Wall", "-Wextra",
         "-Wpedantic", "-Werror", str(fastsim._FLUSH_SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@needs_cc
def test_the_replay_has_no_undefined_behaviour(tmp_path):
    """The big-hub (single and multi-GPU), big-scan and
    doctored-decline cases, through a library built with UBSan that
    aborts at the first report, in a child process."""
    root = Path(__file__).resolve().parents[2]
    script = f"""
import sys
from pathlib import Path

import pytest

from repro.core import fastsim

fastsim._CFLAGS += ("-fsanitize=undefined", "-fno-sanitize-recover=all")
fastsim._cache_dir = lambda: Path({str(tmp_path / "cache")!r})
assert fastsim.native_flush_available()
sys.exit(pytest.main([
    "-q", "-p", "no:cacheprovider",
    "tests/gpusim/test_engine.py::test_big_hub_flush_matches_reference",
    "tests/gpusim/test_engine.py::test_big_hub_multi_gpu_matches_reference",
    "tests/core/test_native_flush.py::"
    "test_each_loop_fallback_fires_and_reference_serves",
    "tests/core/test_native_flush.py::test_a_late_decline_leaves_no_trace",
    "tests/gpusim/test_engine.py::test_big_scan_matches_reference",
    "tests/core/test_native_flush.py::"
    "test_each_scan_fallback_fires_and_reference_serves",
    "tests/core/test_native_flush.py::"
    "test_a_short_buffer_the_hits_fit_is_replayed",
]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True,
        text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "runtime error" not in proc.stderr


def test_a_launch_without_warps_is_served_by_reference():
    """``block_dim=0`` passes the engine's whole-warps check, but a
    replay without warps would never advance a block past its tail:
    both executors decline it, and the interpreter runs no warp."""
    stats = {}
    for engine in ("reference", "vectorized"):
        dev = Device(engine=engine)
        _, args = _loop_args(dev, *_doctored("none"))
        stats[engine] = dev.launch(loop_kernel, args=args, block_dim=0)
    assert stats["vectorized"] == stats["reference"]
    assert stats["vectorized"].served_by == "reference"
