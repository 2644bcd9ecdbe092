"""The vectorized engine's native loop flush (``core/fastsim_flush.c``).

Two things are pinned here.  Loading: the library is compiled once
into a per-user cache, reused from there, never loaded from a file it
did not finish writing, and its absence (no compiler) silently leaves
the Python flush serving.  Fallbacks: each condition on which a flush
declines a loop launch fires in both flushes with the same message,
the engine then serves the launch by reference, and the outcome is
the reference interpreter's.  The byte-identity of the two flushes on
generated graphs is in ``tests/properties/test_engines.py``.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import warnings

import numpy as np
import pytest

from repro.core import fastsim
from repro.core.host import gpu_peel
from repro.core.loop_kernel import loop_kernel
from repro.core.variants import get_variant
from repro.gpusim.device import Device
from repro.gpusim.engine import (
    FallbackToReference,
    ReferenceEngine,
    VectorLaunch,
)
from repro.graph import generators as gen
from repro.graph.examples import k_clique
from tests.properties.test_engines import (
    FLUSHES,
    assert_byte_identical,
    use_flush,
)

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


# -- loading and caching ------------------------------------------------------

@needs_cc
def test_native_flush_loads_with_a_compiler():
    """Where ``cc`` exists the C flush must serve: a broken build would
    otherwise fall back to Python without failing anything."""
    assert fastsim.native_flush_available()


def test_no_compiler_serves_the_python_flush(tmp_path, monkeypatch):
    graph = gen.barabasi_albert(150, 4, seed=3)
    native = gpu_peel(graph, variant="sm", engine="vectorized")
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    monkeypatch.setattr(fastsim, "_cache_dir", lambda: tmp_path / "cache")
    fastsim._native_flush.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not fastsim.native_flush_available()
            python = gpu_peel(graph, variant="sm", engine="vectorized")
    finally:
        fastsim._native_flush.cache_clear()
    assert_byte_identical(native, python)
    assert python.counters == native.counters
    launches = python.counters["kernel.scan.launches"] \
        + python.counters["kernel.loop.launches"]
    assert python.counters["engine.served.vectorized"] == launches


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
            "int repro_flush(void) { return 0; }\n"
        )
        subprocess.run(
            ["cc", "-shared", "-fPIC", "-o", str(cached), str(src)],
            check=True,
        )
    assert fastsim._load_native(cache) is not None
    assert not marker.exists()
    assert cached.read_bytes() == good


# -- the loop fallbacks, in both flushes ---------------------------------------

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


def _launch(engine, doctored):
    """One loop launch: its stats and final arrays, or what it raised."""
    dev = Device(engine=engine)
    a, args = _loop_args(dev, *doctored)
    try:
        stats = dev.launch(loop_kernel, args=args)
    except Exception as exc:  # the reference's own error is the outcome
        return (type(exc), str(exc)), None
    return stats, {name: arr.data.tolist() for name, arr in a.items()}


FALLBACKS = {
    "read-overflow": "loop buffer read overflow",
    "outside-slice": "frontier vertex outside CSR slice",
    "append-overflow": "loop buffer overflow; reference raises",
    "neighbor-out-of-bounds": "loop replay index out of bounds",
    "negative-neighbor": "loop replay index out of bounds",
    "offsets-out-of-bounds": "loop replay index out of bounds",
}


@pytest.mark.parametrize("flush", FLUSHES)
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_each_loop_fallback_fires_and_reference_serves(
    case, flush, monkeypatch
):
    """The reference interpreter completes the negative neighbor (its
    numpy indexing wraps) and raises its own error on every other case
    (``BufferOverflowError`` or ``IndexError``); the spy shows it, not
    the executor, ran each launch the engine served."""
    if flush == "native" and not fastsim.native_flush_available():
        pytest.skip("no C compiler: the native flush cannot load")
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
    with use_flush(flush):
        with pytest.raises(
            FallbackToReference, match=re.escape(FALLBACKS[case])
        ):
            fastsim._loop_vectorized(launch)
        observed = _launch("vectorized", doctored)
    # declined with zero observable effects, then served by reference
    arrays = doctored[0]
    assert all(np.array_equal(a[n].data, arrays[n]) for n in arrays)
    assert served == ["loop_kernel"]
    assert observed == expected
    if case == "negative-neighbor":
        assert observed[0].served_by == "reference"
