"""Single-device drivers pinned across refactors of their wiring.

``gpu_peel`` and ``gpu_bfs`` share one run driver for device set-up,
instrument wiring, per-launch observation and result assembly.  This
pin records everything those drivers return — cores, simulated time,
peak, counters, stats, both report summaries and digests of the
instrument records — so a change to the wiring that moves any of it
fails here.  Rewrite with
``PYTHONPATH=src python -m tests.core.test_single_device_pin`` only for
a change that is meant to move these results.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.bfs_kernel import gpu_bfs
from repro.core.host import gpu_peel
from repro.core.variants import get_variant
from repro.gpusim.device import Device
from repro.graph.examples import fig1_graph
from tests.conftest import BATTERY

PIN = Path(__file__).resolve().parent / "golden" / "single_device_outputs.json"

_GRAPHS = ["fig1", "er-sparse", "planted"]
_VARIANTS = {
    "ours": get_variant("ours"),
    "vp": get_variant("vp"),
    "ec": get_variant("ec"),
    "ours+ring": get_variant("ours").with_ring_buffer(),
}
_ALL = ("sanitize", "staticheck", "dataflow", "report", "critpath")
_BFS = ("sanitize", "staticheck", "dataflow", "profile", "memtrace",
        "critpath")


def _graph(name):
    return dict(BATTERY)[name] if name != "fig1" else fig1_graph()[0]


def _digest(record):
    if record is None:
        return None
    text = json.dumps(record.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def observe(result):
    """The pinned fields of one driver result."""
    return {
        "core": [int(c) for c in result.core],
        "simulated_ms": result.simulated_ms,
        "peak": int(result.peak_memory_bytes),
        "rounds": int(result.rounds),
        "counters": result.counters,
        "stats": result.stats,
        "sanitizer": (result.sanitizer.summary()
                      if result.sanitizer is not None else None),
        "staticheck": (result.staticheck.summary(label="staticheck")
                       if result.staticheck is not None else None),
        "profile_sha256": _digest(result.profile),
        "memtrace_sha256": _digest(result.memtrace),
        "critpath_sha256": _digest(result.critpath),
        "report_sha256": _digest(result.report),
    }


def _instruments(cfg):
    """Every instrument ``cfg`` accepts (ring buffers have no static
    slot bound, so they reject ``staticheck``)."""
    return {i: True for i in _ALL
            if not (cfg.ring_buffer and i == "staticheck")}


def cases():
    """``(key, thunk)`` for every pinned run, in fixture order."""
    out = []
    for graph in _GRAPHS:
        for variant, cfg in _VARIANTS.items():
            key = f"peel/{graph}/{variant}"
            out.append((f"{key}/plain", lambda g=graph, c=cfg: [
                gpu_peel(_graph(g), c)]))
            out.append((f"{key}/all", lambda g=graph, c=cfg: [
                gpu_peel(_graph(g), c, **_instruments(c))]))

            def shared(g=graph, c=cfg):
                device = Device()
                first = gpu_peel(_graph(g), c, device=device)
                device.free_all()  # keep the peak and the clock
                return [first, gpu_peel(_graph(g), c, device=device,
                                        **_instruments(c))]

            out.append((f"{key}/shared", shared))
    out.append(("bfs/fig1/plain", lambda: [gpu_bfs(_graph("fig1"))]))
    out.append(("bfs/fig1/all", lambda: [
        gpu_bfs(_graph("fig1"), **{i: True for i in _BFS})]))
    return out


def _roundtrip(value):
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.mark.parametrize("key,run", cases(), ids=[k for k, _ in cases()])
def test_single_device_matches_pin(key, run):
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    observed = _roundtrip([observe(r) for r in run()])
    assert observed == pinned[key], key


if __name__ == "__main__":
    PIN.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(key)}: "
        f"{json.dumps([observe(r) for r in run()], sort_keys=True)}"
        for key, run in cases()
    ]
    PIN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
