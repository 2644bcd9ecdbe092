"""Accounting toolkit for launch-level vectorized executors.

The vectorized engine (:mod:`repro.gpusim.engine`) replaces the
reference interpreter's per-warp generator stepping with *batched*
executors that compute a whole launch's side effects and event counts
in one pass.  Those executors (registered per kernel; see
``repro.core.fastsim``) still need to reproduce the reference
accounting **bit-for-bit**; this module holds the kernel-agnostic
part, the launch's cycles from per-block totals, mirroring
:meth:`~repro.gpusim.costmodel.CostModel.kernel_cycles` in
:func:`~repro.gpusim.scheduler.run_kernel`'s epilogue.

Why bit-for-bit equality is attainable with batch sums: every cycle
term the context accumulates (``1`` per instruction, ``14`` per
dependent load, ``2 + 0.25*c`` per shared atomic, ``6 + 2*c`` per
global atomic, ``8`` per barrier) is an integer or quarter-integer,
hence exact in binary floating point; sums of exact values are
order-independent below 2**52, so a closed-form total equals the
event-by-event total exactly (the executors decline a cost model
whose folded charges leave that grid).  The only non-representable constant
(``0.3`` cycles per transaction) is applied *once* per block in
:meth:`~repro.gpusim.costmodel.CostModel.block_cycles`, identically
under every engine.
"""

from __future__ import annotations

from typing import Sequence

from repro.gpusim.costmodel import CostModel

__all__ = ["kernel_cycles"]


def kernel_cycles(
    cost: CostModel,
    issued: Sequence[float],
    mem_transactions: Sequence[float],
    max_paths: Sequence[float],
    barriers: Sequence[float],
    num_sms: int,
) -> float:
    """:meth:`~repro.gpusim.costmodel.CostModel.kernel_cycles` over
    per-block totals, bit for bit, without building the per-block
    :class:`~repro.gpusim.costmodel.BlockTiming` records.

    Each block's roofline is
    :meth:`~repro.gpusim.costmodel.CostModel.block_cycles`' double
    operations, and the blocks are added to their SM round-robin in
    block order.
    """
    issue_width = cost.issue_width
    per_transaction = cost.mem_transaction_cycles
    per_barrier = cost.barrier_cycles
    load = [0.0] * max(1, num_sms)
    for i, path in enumerate(max_paths):
        load[i % len(load)] += max(
            issued[i] / issue_width,
            mem_transactions[i] * per_transaction,
            path,
        ) + barriers[i] * per_barrier
    return max(load) if max_paths else 0.0
