"""Known-bad fixtures for the dataflow analyzer's detectors.

Each fixture is deliberately wrong in exactly one way, so the CI gate
(``scripts/gate.py dataflow``) and the test suite can prove every
detector actually *fires* — a gate that only ever sees clean kernels
would pass vacuously.  Three fixtures, one per detector:

* :func:`racy_fixture_kernel` — a kernel with two genuine races (a
  same-epoch plain write-write on a shared scalar and a cross-block
  plain write on global memory) that the analyzer must report as
  ``unproven-race-freedom`` obligations;
* :func:`bracket_violation_stats` — a forged launch measurement whose
  divergence efficiency sits *below* every kernel's static lower bound,
  which :class:`~repro.staticheck.dataflow.DataflowChecker` must flag
  as a ``divergence-bound`` error;
* :func:`precondition_violation_stats` — a forged measurement claiming
  a vectorized serving for a launch the precondition analysis proves
  must fall back, which the checker must flag as an
  ``engine-precondition`` error.

The fixtures never run on the simulator — the kernel is only parsed,
and the stats are handed straight to ``DataflowChecker.observe``.
"""

from __future__ import annotations

from repro.gpusim.scheduler import KernelStats

__all__ = [
    "bracket_violation_stats",
    "precondition_violation_stats",
    "racy_fixture_kernel",
]


def racy_fixture_kernel(ctx, data: "DeviceArray"):  # noqa: F821
    """Two textbook races the analyzer must refuse to certify.

    Every warp plain-writes the shared scalar ``x`` in the same barrier
    epoch (write-write, no ``warp_id == 0`` guard, no slot indexing),
    and every block plain-writes the *same* global window (no
    block-private base) — neither pair has a discharge argument.
    """
    ctx.smem_set("x", ctx.warp_id)
    yield ctx.BARRIER
    ctx.gstore(data, ctx.lanes, 0)
    yield ctx.STEP


def bracket_violation_stats() -> KernelStats:
    """A launch measurement below every static divergence lower bound.

    ``mem_active_lanes == 0`` over nonzero accesses gives a divergence
    efficiency of 0.0 — impossible for kernels whose every global
    access is statically nonempty (lower bound 1/32).
    """
    return KernelStats(
        cycles=1.0,
        issued=1.0,
        mem_transactions=8.0,
        barriers=1,
        max_warp_path=1.0,
        mem_accesses=8.0,
        mem_active_lanes=0.0,
        mem_ideal_transactions=8.0,
        served_by="vectorized",
    )


def precondition_violation_stats() -> KernelStats:
    """A measurement claiming a vectorized serving.

    Feed it to a checker whose static prediction is ``reference``
    (e.g. ``loop_kernel`` under the ``vw2`` variant, or any monitored
    run) and the ``engine-precondition`` detector must raise an error:
    a tier the analysis proves unreachable reported itself as serving.
    """
    return KernelStats(
        cycles=1.0,
        issued=1.0,
        mem_transactions=1.0,
        barriers=1,
        max_warp_path=1.0,
        mem_accesses=1.0,
        mem_active_lanes=32.0,
        mem_ideal_transactions=1.0,
        served_by="vectorized",
    )
