"""Accounting toolkit for launch-level vectorized executors.

The vectorized engine (:mod:`repro.gpusim.engine`) replaces the
reference interpreter's per-warp generator stepping with *batched*
executors that compute a whole launch's side effects and event counts
with numpy.  Those executors (registered per kernel; see
``repro.core.fastsim``) still need to reproduce the reference
accounting **bit-for-bit**, and this module centralises the pieces
that are kernel-agnostic:

* closed-form 128-byte transaction counts for contiguous and
  scattered index sets, exactly matching
  :meth:`~repro.gpusim.context.WarpContext._count_transactions`;
* per-group distinct-segment counting for batching many warp accesses
  into one ``np.unique`` pass;
* the end-of-launch fold from per-warp accumulators and per-block
  :class:`~repro.gpusim.costmodel.BlockTiming` records into a
  :class:`~repro.gpusim.scheduler.KernelStats`, mirroring
  :func:`~repro.gpusim.scheduler.run_kernel`'s epilogue.

Why bit-for-bit equality is attainable with batch sums: every cycle
term the context accumulates (``1`` per instruction, ``14`` per
dependent load, ``2 + 0.25*c`` per shared atomic, ``6 + 2*c`` per
global atomic, ``8`` per barrier) is an integer or quarter-integer,
hence exact in binary floating point; sums of exact values are
order-independent below 2**52, so a closed-form total equals the
event-by-event total exactly.  The only non-representable constant
(``0.3`` cycles per transaction) is applied *once* per block in
:meth:`~repro.gpusim.costmodel.CostModel.block_cycles`, identically
under every engine.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.gpusim.costmodel import BlockTiming, CostModel
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.spec import DeviceSpec

__all__ = [
    "WORDS_PER_TRANSACTION",
    "assemble_stats",
    "contiguous_transactions",
    "grouped_distinct_segments",
    "scattered_transactions",
]

#: words per 128-byte transaction at 4-byte IDs — must track
#: ``repro.gpusim.context._WORDS_PER_TRANSACTION``
WORDS_PER_TRANSACTION = 32


def contiguous_transactions(start: int, length: int) -> int:
    """Transactions of one warp access to ``[start, start + length)``.

    Equals ``len(np.unique(idx // 32))`` for a contiguous index range:
    the count of 32-word segments the range touches.
    """
    if length <= 0:
        return 0
    first = start // WORDS_PER_TRANSACTION
    last = (start + length - 1) // WORDS_PER_TRANSACTION
    return last - first + 1


def scattered_transactions(idx: np.ndarray) -> int:
    """Transactions of one warp access to arbitrary indices."""
    if idx.size == 0:
        return 0
    return int(np.unique(idx // WORDS_PER_TRANSACTION).size)


def grouped_distinct_segments(
    group_keys: np.ndarray, idx: np.ndarray, num_groups: int
) -> np.ndarray:
    """Distinct 32-word segments per group, for many accesses at once.

    ``group_keys[i]`` assigns element ``idx[i]`` to one warp access
    (e.g. a ``(job, trip)`` pair encoded as an integer in
    ``[0, num_groups)``); the result's ``g``-th entry is what the
    reference interpreter's
    :meth:`~repro.gpusim.context.WarpContext._count_transactions`
    would have returned for group ``g``'s indices.  One sort replaces
    ``num_groups`` separate ``np.unique`` calls.
    """
    counts = np.zeros(num_groups, dtype=np.int64)
    if idx.size == 0:
        return counts
    segs = idx // WORDS_PER_TRANSACTION
    # unique (group, segment) pairs == per-group distinct segments
    combo = group_keys * np.int64(2**40) + segs
    unique_combo = np.unique(combo)
    groups = unique_combo // np.int64(2**40)
    np.add.at(counts, groups, 1)
    return counts


def assemble_stats(
    timings: Sequence[BlockTiming],
    max_paths: Sequence[float],
    cost: CostModel,
    spec: DeviceSpec,
    collect_timings: bool,
) -> KernelStats:
    """Fold per-block timings into launch stats.

    Mirrors the epilogue of :func:`~repro.gpusim.scheduler.run_kernel`
    exactly: ``max_paths[b]`` is the serial-path maximum over block
    ``b``'s warps, written into the timing record before the roofline
    combination.  Callers must already have folded each warp's
    ``issued`` into its block's timing.
    """
    for timing, path in zip(timings, max_paths):
        timing.max_warp_path = path
    cycles = cost.kernel_cycles(timings, spec.num_sms)
    return KernelStats(
        cycles=cycles,
        issued=sum(t.issued for t in timings),
        mem_transactions=sum(t.mem_transactions for t in timings),
        barriers=sum(t.barriers for t in timings),
        max_warp_path=max(
            (t.max_warp_path for t in timings), default=0.0
        ) if timings else 0.0,
        atomic_conflicts=sum(t.atomic_conflicts for t in timings),
        buffer_peak=max(
            (t.buffer_peak for t in timings), default=0.0
        ) if timings else 0.0,
        atomic_cycles=sum(t.atomic_cycles for t in timings),
        mem_accesses=sum(t.mem_accesses for t in timings),
        mem_active_lanes=sum(t.mem_active_lanes for t in timings),
        mem_ideal_transactions=sum(
            t.mem_ideal_transactions for t in timings
        ),
        block_timings=tuple(timings) if collect_timings else None,
    )

