"""Dataflow tier of the static analyzer (``docs/STATIC_ANALYSIS.md``).

Where :mod:`repro.staticheck.bounds` certifies *how much* a kernel can
do (closed-form resource bounds), this module certifies *what it may
touch when*: an abstract interpretation over the ASTs of every kernel
admitted to the contract registry (:mod:`repro.staticheck.contracts`)
that mirrors the dynamic race detector's happens-before model
(:mod:`repro.sanitize.racecheck`) statically.  Three certificate kinds
come out of it, per kernel x variant:

* **race-freedom proofs** — every pair of accesses to the same array
  with at least one plain write is either *discharged* by a named
  argument (barrier separation via the epoch algebra, same-warp
  ordering, warp-slot indexing, atomic-reservation disjointness,
  head-tail buffer discipline, double-buffer parity, block-private
  addressing) with ``file:line`` provenance on both sides, or reported
  as an explicit **unproven** obligation (the ``unproven-race-freedom``
  detector) — absence of a proof is never silent optimism;
* **divergence / coalescing brackets** — two-sided bounds on the
  profiler's ``divergence_efficiency`` and ``coalescing_efficiency``
  that every measured launch must fall inside (the
  ``divergence-bound`` detector), derived from the lane-uniformity
  class of every global access site;
* **engine preconditions** — the structural
  :class:`~repro.gpusim.engine.FallbackToReference` guards of the
  contract's declared engine module (``repro/core/fastsim.py`` for the
  peeling kernels) are extracted from its AST and evaluated per
  variant, so which execution tier *must* serve a launch is a static
  prediction checked against ``KernelStats.served_by`` (the
  ``engine-precondition`` detector) instead of a try/except discovery;
  a contract with no engine module is statically pinned to the
  reference interpreter.

Lane-uniformity lattice
-----------------------

Every expression is classified ``UNIFORM`` (all lanes hold one value:
constants, launch parameters, ``ctx.warp_id``, shared scalars) <
``AFFINE`` (a dense lane window: ``ctx.lanes``, ``np.arange``, masked
subsets thereof, compaction offsets) < ``DIVERGENT`` (data-dependent
per lane: gather results, compacted candidate sets).  The lattice
drives the coalescing class of each global access — uniform index =
one word, affine = one <=32-word window (<= 2 cache lines), divergent
= up to one line per lane.

Barrier-epoch algebra
---------------------

Kernels here have at most one barrier-carrying loop per path.  With
``pre`` barriers before the loop, ``L`` per full trip and ``exit_r``
on the exiting pass, an access ``r`` barriers into trip ``i`` runs in
epoch ``pre + L*i + r``; a post-loop access ``b`` barriers after exit
runs in ``pre + L*T + exit_r + b``.  Two same-block accesses may share
an epoch iff the resulting linear conditions admit a solution
(:func:`may_same_epoch`); different blocks are always concurrent, and
one warp is always ordered with itself — exactly the dynamic
monitor's :func:`~repro.sanitize.racecheck._concurrent` model.

The proofs lean on two mechanically *verified* helper contracts
(:func:`verify_contracts` checks them against the helper ASTs each
process, and every certificate degrades to all-unproven if they fail):
``BlockBufferView`` addresses ``buf`` at a block-private base
(``ctx.block_idx * capacity``), and the ``warp_compact_*`` helpers
touch no memory at all.  The prefix-sum *value* properties of the
compaction helpers are stated axioms, named in each proof's detail.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.variants import EXTENSION_VARIANTS, VARIANTS, VariantConfig, get_variant
from repro.sanitize.astutil import dotted, is_sentinel_yield, iter_own_scope
from repro.sanitize.report import SanitizerFinding, SanitizerReport

__all__ = [
    "Access",
    "DATAFLOW_KERNELS",
    "DataflowCertificate",
    "DataflowChecker",
    "EfficiencyBracket",
    "Epoch",
    "FallbackRule",
    "LoopShape",
    "RaceObligation",
    "RaceProof",
    "Uniformity",
    "analyze_function",
    "analyze_kernel",
    "certified_combos",
    "dataflow_report",
    "engine_preconditions",
    "may_same_epoch",
    "predicted_tier",
    "render_dataflow_certificates",
    "verify_contracts",
]

#: the k-core peeling kernels — the legacy spelling kept for existing
#: callers; the authoritative kernel list is the contract registry in
#: :mod:`repro.staticheck.contracts` (see :func:`certified_combos`)
DATAFLOW_KERNELS: Tuple[str, ...] = ("scan_kernel", "loop_kernel")

_CTX_MEMORY_OPS = (
    "gload", "gstore", "atomic_global",
    "sload", "sstore", "smem_get", "smem_set", "smem_atomic_add",
)


class Uniformity(IntEnum):
    """The lane-uniformity lattice: UNIFORM < AFFINE < DIVERGENT."""

    UNIFORM = 0
    AFFINE = 1
    DIVERGENT = 2

    def join(self, other: "Uniformity") -> "Uniformity":
        """Least upper bound."""
        return self if self >= other else other


@dataclass(frozen=True)
class LoopShape:
    """Barrier skeleton of a kernel's (single) barrier-carrying loop."""

    pre: int     #: barriers before loop entry
    body: int    #: barriers per full trip (``L``)
    exit_r: int  #: barriers executed on the exiting pass


@dataclass(frozen=True)
class Epoch:
    """Abstract barrier generation of one access.

    ``kind``: ``"pre"`` (``n`` = straight-line phase), ``"loop"``
    (``n`` = barriers into the trip) or ``"post"`` (``n`` = barriers
    after loop exit).
    """

    kind: str
    n: int

    def __str__(self) -> str:
        return f"{self.kind}@{self.n}"


def may_same_epoch(a: Epoch, b: Epoch, shape: Optional[LoopShape]) -> bool:
    """Can the two same-block accesses fall in one barrier generation?

    Solves the linear epoch conditions over trip counts ``i, T >= 0``;
    conservative (a superset of the dynamically reachable pairs), so a
    ``False`` is a proof of barrier separation.
    """
    if a.kind == "pre" and b.kind == "pre":
        return a.n == b.n
    if shape is None:  # no barrier loop: only straight-line phases exist
        return True
    order = {"pre": 0, "loop": 1, "post": 2}
    if order[a.kind] > order[b.kind]:
        a, b = b, a  # normalise ordering: pre < loop < post
    L = max(shape.body, 1)
    if a.kind == "pre" and b.kind == "loop":
        return a.n == shape.pre and b.n == 0
    if a.kind == "pre" and b.kind == "post":
        return a.n == shape.pre and shape.exit_r + b.n == 0
    if a.kind == "loop" and b.kind == "loop":
        return (a.n - b.n) % L == 0
    if a.kind == "loop" and b.kind == "post":
        return (a.n - (shape.exit_r + b.n)) % L == 0
    # post/post: both share the same trip count T within one launch
    return a.n == b.n


@dataclass(frozen=True)
class Access:
    """One abstract memory access extracted from a kernel AST."""

    space: str                 #: ``"global"`` or ``"shared"``
    array: str                 #: array or shared-scalar name
    kind: str                  #: ``"read"`` / ``"write"`` / ``"atomic"``
    epoch: Epoch
    site: str                  #: ``file.py:line`` provenance
    func: str                  #: kernel function the access sits in
    index: str                 #: canonical index expression
    uniformity: Uniformity
    tags: FrozenSet[str]       #: semantic tags driving the discharge rules
    guards: FrozenSet[str]     #: control guards (``warp0``, ``nonempty``…)
    multi: bool                #: may run several times per warp per epoch
    coal: str                  #: ``scalar`` / ``contiguous`` / ``scattered``


@dataclass(frozen=True)
class RaceProof:
    """A discharged conflicting-access pair (or whole array)."""

    space: str
    array: str
    kinds: str
    a_site: str
    b_site: str
    argument: str
    detail: str


@dataclass(frozen=True)
class RaceObligation:
    """A conflicting pair the interpreter could *not* discharge."""

    space: str
    array: str
    kinds: str
    a_site: str
    b_site: str
    reason: str


@dataclass(frozen=True)
class EfficiencyBracket:
    """Two-sided bounds on the profiler's launch efficiency figures."""

    divergence_lo: float
    divergence_hi: float
    coalescing_lo: float
    coalescing_hi: float

    def contains(self, divergence: float, coalescing: float,
                 tol: float = 1e-9) -> bool:
        """Is the measured (divergence, coalescing) pair inside?"""
        return (
            self.divergence_lo - tol <= divergence <= self.divergence_hi + tol
            and self.coalescing_lo - tol <= coalescing
            <= self.coalescing_hi + tol
        )


@dataclass(frozen=True)
class FallbackRule:
    """One ``raise FallbackToReference`` site of ``repro.core.fastsim``."""

    kernel: str       #: kernel the executor serves (or ``"both"``)
    func: str
    line: int
    message: str
    structural: bool  #: guard depends only on the variant config
    test: str         #: guard expression (``""`` for unconditional)
    fires: bool       #: structural guard evaluated on the variant


@dataclass(frozen=True)
class DataflowCertificate:
    """Everything the dataflow tier proves for one kernel x variant."""

    kernel: str
    variant: str
    loop_shape: Optional[LoopShape]
    accesses: Tuple[Access, ...]
    proofs: Tuple[RaceProof, ...]
    unproven: Tuple[RaceObligation, ...]
    bracket: EfficiencyBracket
    preconditions: Tuple[FallbackRule, ...]
    notes: Tuple[str, ...]

    @property
    def race_free(self) -> bool:
        """True when every conflicting pair was discharged."""
        return not self.unproven

    def structural_fallback(self) -> bool:
        """Does any structural engine precondition fire for this variant?"""
        return any(r.structural and r.fires for r in self.preconditions)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dump; the golden-file stability contract."""
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "loop_shape": None if self.loop_shape is None else {
                "pre": self.loop_shape.pre,
                "body": self.loop_shape.body,
                "exit_r": self.loop_shape.exit_r,
            },
            "accesses": [
                {
                    "space": a.space, "array": a.array, "kind": a.kind,
                    "epoch": str(a.epoch), "site": a.site, "func": a.func,
                    "index": a.index, "uniformity": a.uniformity.name,
                    "tags": sorted(a.tags), "guards": sorted(a.guards),
                    "multi": a.multi, "coal": a.coal,
                }
                for a in self.accesses
            ],
            "proofs": [
                {"space": p.space, "array": p.array, "kinds": p.kinds,
                 "a_site": p.a_site, "b_site": p.b_site,
                 "argument": p.argument, "detail": p.detail}
                for p in self.proofs
            ],
            "unproven": [
                {"space": o.space, "array": o.array, "kinds": o.kinds,
                 "a_site": o.a_site, "b_site": o.b_site, "reason": o.reason}
                for o in self.unproven
            ],
            "bracket": {
                "divergence_lo": self.bracket.divergence_lo,
                "divergence_hi": self.bracket.divergence_hi,
                "coalescing_lo": self.bracket.coalescing_lo,
                "coalescing_hi": self.bracket.coalescing_hi,
            },
            "preconditions": [
                {"kernel": r.kernel, "func": r.func, "line": r.line,
                 "message": r.message, "structural": r.structural,
                 "test": r.test, "fires": r.fires}
                for r in self.preconditions
            ],
            "notes": list(self.notes),
            "race_free": self.race_free,
            "structural_fallback": self.structural_fallback(),
        }


# ---------------------------------------------------------------------------
# abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Value:
    """Abstract value: uniformity class + semantic tags + canonical expr."""

    u: Uniformity
    tags: FrozenSet[str] = frozenset()
    expr: str = "?"


_UNIFORM = _Value(Uniformity.UNIFORM)


def _val(u: Uniformity, tags: Sequence[str] = (), expr: str = "?") -> _Value:
    return _Value(u, frozenset(tags), expr)


class _GlobalArray:
    """A device-array kernel parameter."""

    def __init__(self, name: str) -> None:
        self.name = name


class _SharedArray:
    """A block shared array handle (``ctx.smem_array``)."""

    def __init__(self, name: str, parity: str = "") -> None:
        self.name = name
        self.parity = parity  # "cur"/"next" for double-buffered pairs


class _ViewInfo:
    """Abstract ``BlockBufferView``: buffer + addressing scheme."""

    def __init__(self, buf: str, ring: bool, use_shared: bool) -> None:
        self.buf = buf
        self.ring = ring
        self.use_shared = use_shared


class _Bail(Exception):
    """Analysis cannot continue soundly; everything becomes unproven."""


# ---------------------------------------------------------------------------
# helper-contract verification
# ---------------------------------------------------------------------------

_contract_cache: Optional[List[str]] = None


def _function_defs(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    out: Dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


def _ctx_calls(fn: ast.FunctionDef) -> List[str]:
    names: List[str] = []
    for node in iter_own_scope(fn):
        if isinstance(node, ast.Call):
            d = dotted(node.func)
            if d is not None and d.startswith("ctx."):
                names.append(d[len("ctx."):])
    return names


def verify_contracts() -> List[str]:
    """Check the helper contracts the race proofs lean on.

    Returns the list of violations (empty means the contracts hold);
    the result is cached per process.  On any violation every
    certificate reports all conflicting pairs as unproven — the proofs
    must not outlive the code they reason about.
    """
    global _contract_cache
    if _contract_cache is not None:
        return _contract_cache
    violations: List[str] = []
    import repro.core.buffers as _buffers
    import repro.core.compaction as _compaction

    with open(_compaction.__file__, encoding="utf-8") as fh:
        comp = _function_defs(ast.parse(fh.read()))
    for name in ("warp_compact_ballot", "warp_compact_hillis_steele"):
        fn = comp.get(name)
        if fn is None:
            violations.append(f"compaction helper {name} missing")
            continue
        bad = [c for c in _ctx_calls(fn) if c in _CTX_MEMORY_OPS]
        if bad:
            violations.append(
                f"{name} touches memory ({', '.join(bad)}): the "
                "warp-local no-memory contract is broken"
            )
    bso = comp.get("block_scan_offsets")
    if bso is None:
        violations.append("compaction helper block_scan_offsets missing")
    else:
        calls = _ctx_calls(bso)
        writes = [c for c in calls if c in
                  ("sstore", "gstore", "smem_set", "smem_atomic_add",
                   "atomic_global", "gload")]
        if writes or "sload" not in calls:
            violations.append(
                "block_scan_offsets must only sload shared warp_counts "
                f"(saw: {', '.join(calls)})"
            )

    with open(_buffers.__file__, encoding="utf-8") as fh:
        bufs = _function_defs(ast.parse(fh.read()))
    init = bufs.get("BlockBufferView.__init__")
    base_ok = False
    if init is not None:
        for node in iter_own_scope(init):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and dotted(node.targets[0]) == "self._base"
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Mult)
                    and "ctx.block_idx" in ast.unparse(node.value)):
                base_ok = True
    if not base_ok:
        violations.append(
            "BlockBufferView._base is no longer ctx.block_idx * capacity: "
            "the block-private addressing contract is broken"
        )
    phys = bufs.get("BlockBufferView._physical")
    phys_ok = phys is not None and all(
        "self._base" in ast.unparse(node.value)
        for node in iter_own_scope(phys)
        if isinstance(node, ast.Return) and node.value is not None
    )
    if not phys_ok:
        violations.append(
            "BlockBufferView._physical no longer offsets every position "
            "by self._base"
        )
    for name in ("BlockBufferView.read_batch", "BlockBufferView.write"):
        fn = bufs.get(name)
        if fn is None:
            violations.append(f"{name} missing")
            continue
        src = ast.unparse(fn)
        if "self._physical" not in src:
            violations.append(f"{name} bypasses _physical translation")
        if "e_init" not in src:
            violations.append(
                f"{name} lost the e_init slot-identity translation the "
                "SM head-tail proof relies on"
            )
    _contract_cache = violations
    return violations


# ---------------------------------------------------------------------------
# the abstract interpreter
# ---------------------------------------------------------------------------


class _LoopState:
    def __init__(self) -> None:
        self.r = 0
        self.exits: Set[int] = set()


class _Interp:
    """Abstract interpreter over one kernel module for one variant."""

    def __init__(self, module: Any, cfg: VariantConfig) -> None:
        self.cfg = cfg
        with open(module.__file__, encoding="utf-8") as fh:
            source = fh.read()
        self.tree = ast.parse(source)
        self.functions = _function_defs(self.tree)
        parts = module.__file__.replace("\\", "/").split("/")
        self.file = "/".join(parts[parts.index("repro"):]) \
            if "repro" in parts else parts[-1]
        self.accesses: List[Access] = []
        self.notes: List[str] = []
        self.phase = 0
        self.loop: Optional[_LoopState] = None
        self.shape: Optional[LoopShape] = None
        self.post_b = 0
        self.guards: Tuple[str, ...] = ()
        self.multi_depth = 0
        self.func_stack: List[str] = ["?"]
        self.array_content: Dict[str, FrozenSet[str]] = {}
        self.head_exprs: Set[str] = set()
        self.window_bases: Set[str] = set()  # loop-entered window bases

    # -- plumbing ----------------------------------------------------------

    def _site(self, node: ast.AST) -> str:
        return f"{self.file}:{getattr(node, 'lineno', 0)}"

    def _epoch(self) -> Epoch:
        if self.loop is not None:
            return Epoch("loop", self.loop.r)
        if self.shape is not None:
            return Epoch("post", self.post_b)
        return Epoch("pre", self.phase)

    def _barrier(self) -> None:
        if self.loop is not None:
            self.loop.r += 1
        elif self.shape is not None:
            self.post_b += 1
        else:
            self.phase += 1

    def _record(self, node: ast.AST, space: str, array: str, kind: str,
                iv: _Value, extra: Sequence[str] = ()) -> None:
        tags = set(iv.tags) | set(extra)
        coal = self._coal_class(iv)
        self.accesses.append(Access(
            space=space, array=array, kind=kind, epoch=self._epoch(),
            site=self._site(node), func=self.func_stack[-1],
            index=iv.expr, uniformity=iv.u, tags=frozenset(tags),
            guards=frozenset(self.guards), multi=self.multi_depth > 0,
            coal=coal,
        ))

    def _nonempty(self, iv: _Value) -> bool:
        """Is the index set provably nonempty (for the 1/32 div bound)?"""
        if iv.u is Uniformity.UNIFORM:
            return True
        if iv.tags & {"nonempty", "smallwin", "arange"}:
            return True
        return "nonempty" in self.guards

    def _coal_class(self, iv: _Value) -> str:
        if iv.u is Uniformity.UNIFORM or "smallwin" in iv.tags:
            return "scalar" if iv.u is Uniformity.UNIFORM else "contiguous"
        if iv.u is Uniformity.AFFINE:
            return "contiguous"
        return "scattered"

    # -- cfg-branch evaluation --------------------------------------------

    def _cfg_eval(self, node: ast.expr) -> Optional[bool]:
        """Evaluate a test that depends only on the variant config."""
        try:
            return bool(self._cfg_eval_raw(node))
        except _Bail:
            return None

    def _cfg_eval_raw(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Attribute):
            d = dotted(node)
            if d is not None and d.startswith("cfg."):
                return getattr(self.cfg, d[len("cfg."):])
            raise _Bail()
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left = self._cfg_eval_raw(node.left)
            right = self._cfg_eval_raw(node.comparators[0])
            op = node.ops[0]
            if isinstance(op, ast.Eq):
                return left == right
            if isinstance(op, ast.NotEq):
                return left != right
            if isinstance(op, ast.Gt):
                return left > right
            if isinstance(op, ast.GtE):
                return left >= right
            if isinstance(op, ast.Lt):
                return left < right
            if isinstance(op, ast.LtE):
                return left <= right
            raise _Bail()
        if isinstance(node, ast.BoolOp):
            vals = [self._cfg_eval_raw(v) for v in node.values]
            return all(vals) if isinstance(node.op, ast.And) else any(vals)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return not self._cfg_eval_raw(node.operand)
        raise _Bail()

    # -- entry -------------------------------------------------------------

    def run(self, kernel: str) -> None:
        fn = self.functions.get(kernel)
        if fn is None:
            raise _Bail(f"kernel {kernel} not found in {self.file}")
        scope: Dict[str, Any] = {}
        for arg in fn.args.args:
            ann = ast.unparse(arg.annotation) if arg.annotation else ""
            if arg.arg == "ctx":
                scope[arg.arg] = "ctx"
            elif "DeviceArray" in ann:
                scope[arg.arg] = _GlobalArray(arg.arg)
            elif "VariantConfig" in ann:
                scope[arg.arg] = "cfg"
            else:
                scope[arg.arg] = _val(Uniformity.UNIFORM, (), arg.arg)
        self.func_stack = [kernel]
        self._walk_stmts(list(fn.body), scope)

    # -- statements --------------------------------------------------------

    def _walk_stmts(self, stmts: List[ast.stmt], scope: Dict[str, Any]) -> None:
        i = 0
        while i < len(stmts):
            stmt = stmts[i]
            i += 1
            if isinstance(stmt, ast.Expr):
                self._walk_expr_stmt(stmt.value, scope)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._walk_assign(stmt, scope)
            elif isinstance(stmt, ast.If):
                extra = self._walk_if(stmt, scope)
                if extra:  # `if cond: continue/break` guards the rest
                    saved = self.guards
                    self.guards = self.guards + extra
                    self._walk_stmts(stmts[i:], scope)
                    self.guards = saved
                    return
            elif isinstance(stmt, (ast.While, ast.For)):
                self._walk_loop(stmt, scope)
            elif isinstance(stmt, ast.Break):
                # a break inside a barrier-free inner loop exits *that*
                # loop, not the barrier loop
                if self.loop is not None and self.multi_depth == 0:
                    self.loop.exits.add(self.loop.r)
            elif isinstance(stmt, (ast.Continue, ast.Pass, ast.Return,
                                   ast.FunctionDef, ast.Import,
                                   ast.ImportFrom, ast.Raise)):
                pass
            else:
                self.notes.append(
                    f"unhandled statement {type(stmt).__name__} at "
                    f"{self._site(stmt)}"
                )

    def _walk_expr_stmt(self, value: ast.expr, scope: Dict[str, Any]) -> None:
        if isinstance(value, ast.Yield):
            if value.value is not None:
                d = dotted(value.value)
                if d == "ctx.BARRIER":
                    self._barrier()
            return
        if isinstance(value, ast.YieldFrom):
            if isinstance(value.value, ast.Call):
                self._call(value.value, scope)
            return
        if isinstance(value, ast.Call):
            self._call(value, scope)

    def _walk_assign(self, stmt: ast.stmt, scope: Dict[str, Any]) -> None:
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                old = scope.get(stmt.target.id)
                rhs = self._eval(stmt.value, scope)
                if isinstance(old, _Value):
                    scope[stmt.target.id] = _val(
                        old.u.join(rhs.u), old.tags | rhs.tags, old.expr
                    )
            else:
                self._eval(stmt.value, scope)
            return
        target = stmt.targets[0] if isinstance(stmt, ast.Assign) \
            else stmt.target
        if stmt.value is None:
            return
        if (isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple)
                and len(target.elts) == len(stmt.value.elts)):
            # pairwise unpack: `a, b = f(x), g(y)`
            for elt, vnode in zip(target.elts, stmt.value.elts):
                if isinstance(elt, ast.Name):
                    scope[elt.id] = self._eval(vnode, scope)
                else:
                    self._eval(vnode, scope)
            return
        result = self._eval(stmt.value, scope)
        if isinstance(target, ast.Name):
            scope[target.id] = result
        elif isinstance(target, ast.Tuple) and isinstance(result, tuple):
            for elt, part in zip(target.elts, result):
                if isinstance(elt, ast.Name):
                    scope[elt.id] = part
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    scope[elt.id] = _val(Uniformity.DIVERGENT, (), elt.id)
        # subscript/attribute targets: host-local mutation, no binding

    def _walk_if(self, stmt: ast.If,
                 scope: Dict[str, Any]) -> Tuple[str, ...]:
        """Walk an if; returns guard tags for the *rest of the body* when
        the branch is a bare ``continue``/``break`` (loop early-out)."""
        static = self._cfg_eval(stmt.test)
        if static is not None:
            self._walk_stmts(stmt.body if static else stmt.orelse, scope)
            return ()
        body_is_exit = (
            len(stmt.body) == 1
            and isinstance(stmt.body[0], (ast.Continue, ast.Break,
                                          ast.Return))
            and not stmt.orelse
        )
        if body_is_exit:
            if (isinstance(stmt.body[0], ast.Break)
                    and self.loop is not None and self.multi_depth == 0):
                self.loop.exits.add(self.loop.r)
            return self._negated_guards(stmt.test, scope)
        guard = self._guard_tags(stmt.test, scope)
        saved = self.guards
        self.guards = saved + guard
        self._walk_stmts(stmt.body, scope)
        self.guards = saved + self._invert_guard(guard)
        self._walk_stmts(stmt.orelse, scope)
        self.guards = saved
        return ()

    def _guard_tags(self, test: ast.expr,
                    scope: Dict[str, Any]) -> Tuple[str, ...]:
        src = ast.unparse(test)
        if src == "ctx.warp_id == 0":
            return ("warp0",)
        # data guards: any truthiness/size/any test marks nonemptiness
        if ("size" in src or src.startswith("np.any") or "total" in src
                or "batch" in src or "count" in src or "width" in src
                or "pieces" in src or ".size" in src):
            return ("nonempty",)
        return ()

    def _invert_guard(self, guard: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(
            "not-warp0" if g == "warp0" else f"not-{g}" for g in guard
        )

    def _negated_guards(self, test: ast.expr,
                        scope: Dict[str, Any]) -> Tuple[str, ...]:
        """Negation of an early-out test, as guard tags + head facts."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.GtE)):
            lhs = self._eval(test.left, scope)
            rhs = self._eval(test.comparators[0], scope)
            counters = [t[5:] for t in rhs.tags if t.startswith("smem:")]
            if counters:
                # `if x >= e_snapshot: continue` => x < snapshot of e
                self.head_exprs.add(lhs.expr)
            return ()
        # emptiness early-outs: `if total == 0: return`,
        # `if candidates.size == 0: continue`, `if not pieces: break` —
        # the rest of the body only runs on a nonempty work set
        src = ast.unparse(test)
        if (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
            return ("nonempty",)
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value == 0):
            return ("nonempty",)
        _ = src
        return ()

    def _walk_loop(self, node: Any, scope: Dict[str, Any]) -> None:
        if not self._body_has_barrier(node.body):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                scope[node.target.id] = _val(
                    Uniformity.UNIFORM, (), node.target.id
                )
            if isinstance(node, ast.While):
                self._note_window_base(node.test, scope)
            self.multi_depth += 1
            self._walk_stmts(node.body, scope)
            self.multi_depth -= 1
            return
        if self.loop is not None or self.shape is not None:
            raise _Bail(
                f"second or nested barrier loop at {self._site(node)}: "
                "the single-loop epoch algebra does not apply"
            )
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            scope[node.target.id] = _val(Uniformity.UNIFORM, (), node.target.id)
        entry = self.phase
        self.loop = _LoopState()
        self._walk_stmts(node.body, scope)
        state = self.loop
        self.loop = None
        exits = state.exits or {0 if isinstance(node, ast.For) else state.r}
        if len(exits) > 1:
            raise _Bail(
                f"barrier loop at {self._site(node)} exits at several "
                f"barrier offsets {sorted(exits)}"
            )
        self.shape = LoopShape(pre=entry, body=state.r, exit_r=exits.pop())

    def _note_window_base(self, test: ast.expr,
                          scope: Dict[str, Any]) -> None:
        """``while lo < hi`` guarantees the first lane of ``lo + lanes``
        windows is in range — the nonemptiness fact for masked loads."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Lt)
                and isinstance(test.left, ast.Name)):
            self.window_bases.add(test.left.id)
            resolved = scope.get(test.left.id)
            if isinstance(resolved, _Value) and resolved.expr != "?":
                self.window_bases.add(resolved.expr)

    def _body_has_barrier(self, stmts: List[ast.stmt],
                          seen: Optional[Set[str]] = None) -> bool:
        seen = seen if seen is not None else set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Yield) and node.value is not None:
                    if is_sentinel_yield(node.value, "ctx") \
                            and dotted(node.value) == "ctx.BARRIER":
                        return True
                if isinstance(node, ast.YieldFrom) \
                        and isinstance(node.value, ast.Call):
                    name = dotted(node.value.func)
                    if name in self.functions and name not in seen:
                        seen.add(name)
                        if self._body_has_barrier(
                                list(self.functions[name].body), seen):
                            return True
        return False

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call, scope: Dict[str, Any]) -> Any:
        fname = dotted(node.func)
        # ctx primitives -----------------------------------------------
        if fname is not None and fname.startswith("ctx."):
            return self._ctx_call(fname[len("ctx."):], node, scope)
        # numpy / builtins ---------------------------------------------
        if fname is not None and (fname.startswith("np.")
                                  or fname in ("min", "max", "int", "float",
                                               "len", "abs", "range")):
            return self._builtin_call(fname, node, scope)
        # view methods --------------------------------------------------
        if isinstance(node.func, ast.Attribute):
            base = scope.get(ast.unparse(node.func.value))
            if isinstance(base, _ViewInfo):
                return self._view_call(base, node.func.attr, node, scope)
            inner = self._eval(node.func.value, scope)
            if isinstance(inner, _Value):  # .copy(), .append(), .max() …
                argvals = [self._eval(a, scope) for a in node.args]
                merged = self._merge([inner, *argvals], inner.expr)
                if (node.func.attr == "append"
                        and isinstance(node.func.value, ast.Name)):
                    # list accumulation: the binding absorbs the element
                    scope[node.func.value.id] = merged
                return merged
        # helper contracts & inlining ----------------------------------
        if fname == "BlockBufferView":
            return self._make_view(node, scope)
        if fname in ("warp_compact_ballot", "warp_compact_hillis_steele",
                     "hillis_steele_exclusive"):
            flags = node.args[-1] if node.args else None
            fexpr = ast.unparse(flags) if flags is not None else "?"
            return (
                _val(Uniformity.AFFINE, ("coffs",), f"coffs({fexpr})"),
                _val(Uniformity.UNIFORM, ("ctotal",), f"ctotal({fexpr})"),
            )
        if fname == "block_scan_offsets":
            iv = _val(Uniformity.AFFINE, ("arange", "all-slots"),
                      "arange(ctx.warps_per_block)")
            self._record(node, "shared", "warp_counts", "read", iv)
            return (
                _val(Uniformity.UNIFORM, ("partition:warp_counts",),
                     "block_scan_offsets()"),
                _val(Uniformity.UNIFORM, (), "block_total"),
            )
        if fname in self.functions:
            return self._inline(fname, node, scope)
        # anything else: evaluate args for side effects, merge tags
        vals = [self._eval(a, scope) for a in node.args]
        return self._merge(vals, f"{fname}(...)")

    def _merge(self, vals: Sequence[Any], expr: str) -> _Value:
        u = Uniformity.UNIFORM
        tags: Set[str] = set()
        for v in vals:
            if isinstance(v, _Value):
                u = u.join(v.u)
                tags |= v.tags
        return _val(u, tuple(tags), expr)

    def _inline(self, fname: str, node: ast.Call,
                scope: Dict[str, Any]) -> Any:
        fn = self.functions[fname]
        child: Dict[str, Any] = {}
        params = [a.arg for a in fn.args.args]
        defaults = fn.args.defaults
        for name, dflt in zip(params[len(params) - len(defaults):], defaults):
            child[name] = self._eval(dflt, scope)
        for name, arg in zip(params, node.args):
            child[name] = self._eval(arg, scope)
        for kw in node.keywords:
            if kw.arg is not None:
                child[kw.arg] = self._eval(kw.value, scope)
        self.func_stack.append(fname)
        ret: Any = _val(Uniformity.DIVERGENT, (), f"{fname}(...)")
        ret_node = next(
            (n for n in iter_own_scope(fn)
             if isinstance(n, ast.Return) and n.value is not None), None
        )
        self._walk_stmts(list(fn.body), child)
        if ret_node is not None and ret_node.value is not None:
            ret = self._eval(ret_node.value, child)
        self.func_stack.pop()
        return ret

    def _make_view(self, node: ast.Call, scope: Dict[str, Any]) -> _ViewInfo:
        buf = node.args[1] if len(node.args) > 1 else None
        bufv = self._eval(buf, scope) if buf is not None else None
        name = bufv.name if isinstance(bufv, _GlobalArray) else "buf"
        ring = use_shared = False
        for kw in node.keywords:
            if kw.arg in ("ring", "use_shared"):
                flag = self._cfg_eval(kw.value)
                if flag is None:
                    flag = bool(isinstance(kw.value, ast.Constant)
                                and kw.value.value)
                if kw.arg == "ring":
                    ring = flag
                else:
                    use_shared = flag
        return _ViewInfo(name, ring, use_shared)

    def _view_call(self, view: _ViewInfo, method: str, node: ast.Call,
                   scope: Dict[str, Any]) -> Any:
        extra = ["block-private"] + (["ring"] if view.ring else [])
        if method in ("read", "read_batch"):
            iv = self._eval(node.args[0], scope)
            iv = self._apply_head(iv)
            self._record(node, "global", view.buf, "read", iv, extra)
            if view.use_shared:
                self._record(node, "shared", "e_init", "read",
                             _val(Uniformity.UNIFORM, (), "e_init"))
                self._record(node, "shared", "B", "read", iv, extra)
            u = Uniformity.UNIFORM if iv.u is Uniformity.UNIFORM \
                else Uniformity.DIVERGENT
            out = ["gather"]
            if self._nonempty(iv):
                out.append("nonempty")
            return _val(u, tuple(out), f"{view.buf}[{iv.expr}]")
        if method == "write":
            iv = self._eval(node.args[0], scope)
            self._record(node, "global", view.buf, "write", iv, extra)
            if view.use_shared:
                self._record(node, "shared", "e_init", "read",
                             _val(Uniformity.UNIFORM, (), "e_init"))
                self._record(node, "shared", "B", "write", iv, extra)
            return _UNIFORM
        return _UNIFORM

    def _apply_head(self, iv: _Value) -> _Value:
        """Mark an index proven below a tail-counter snapshot."""
        tags = set(iv.tags)
        if iv.expr in self.head_exprs:
            tags.add("head:e")
        for t in iv.tags:
            if t.startswith("le-snap:"):
                tags.add("head:" + t[len("le-snap:"):])
        return _Value(iv.u, frozenset(tags), iv.expr)

    def _ctx_call(self, op: str, node: ast.Call,
                  scope: Dict[str, Any]) -> Any:
        def lit(i: int) -> str:
            if i < len(node.args) and isinstance(node.args[i], ast.Constant):
                return str(node.args[i].value)
            return ast.unparse(node.args[i]) if i < len(node.args) else "?"

        if op == "smem_get":
            name = lit(0)
            self._record(node, "shared", name, "read",
                         _val(Uniformity.UNIFORM, (), name))
            return _val(Uniformity.UNIFORM, (f"smem:{name}",), f"smem[{name}]")
        if op == "smem_set":
            name = lit(0)
            if len(node.args) > 1:
                self._eval(node.args[1], scope)
            self._record(node, "shared", name, "write",
                         _val(Uniformity.UNIFORM, (), name))
            return _UNIFORM
        if op == "smem_atomic_add":
            name = lit(0)
            cnt = self._eval(node.args[1], scope) if len(node.args) > 1 \
                else _UNIFORM
            self._record(node, "shared", name, "atomic",
                         _val(Uniformity.UNIFORM, (), name))
            return _val(Uniformity.UNIFORM, (f"resv:{name}",),
                        f"resv[{name}]+{cnt.expr}")
        if op == "smem_array":
            return _SharedArray(lit(0))
        if op in ("sload", "sstore"):
            arr = self._eval(node.args[0], scope)
            iv = self._eval(node.args[1], scope)
            if len(node.args) > 2:
                self._eval(node.args[2], scope)
            name = arr.name if isinstance(arr, _SharedArray) else "<shared>"
            extra: List[str] = []
            if isinstance(arr, _SharedArray) and arr.parity:
                extra.append(f"parity-{arr.parity}")
            if iv.expr == "ctx.warp_id":
                extra.append("warp-slot")
            if op == "sstore":
                val = self._eval(node.args[2], scope) if len(node.args) > 2 \
                    else _UNIFORM
                if isinstance(val, _Value):
                    self.array_content[name] = val.tags
                self._record(node, "shared", name, "write", iv, extra)
                return _UNIFORM
            self._record(node, "shared", name, "read", iv, extra)
            content = self.array_content.get(name, frozenset())
            return _val(Uniformity.UNIFORM, tuple(content),
                        f"{name}[{iv.expr}]")
        if op in ("gload", "gstore", "atomic_global"):
            arr = self._eval(node.args[0], scope)
            iv = self._eval(node.args[1], scope)
            if len(node.args) > 2:
                self._eval(node.args[2], scope)
            name = arr.name if isinstance(arr, _GlobalArray) else "<global>"
            extra = []
            if "block_idx" in iv.tags and iv.u is Uniformity.UNIFORM:
                extra.append("block-private")
            kind = {"gload": "read", "gstore": "write",
                    "atomic_global": "atomic"}[op]
            self._record(node, "global", name, kind, iv, extra)
            u = Uniformity.UNIFORM if iv.u is Uniformity.UNIFORM \
                else Uniformity.DIVERGENT
            out = ["gather"]
            if self._nonempty(iv):  # a gather of a nonempty window
                out.append("nonempty")
            return _val(u, tuple(out), f"{name}[{iv.expr}]")
        if op == "shfl_broadcast":
            return self._eval(node.args[0], scope) if node.args else _UNIFORM
        if op in ("ballot", "popc", "charge", "sync_warp", "should_preempt"):
            for a in node.args:
                self._eval(a, scope)
            return _UNIFORM
        return _UNIFORM

    def _builtin_call(self, fname: str, node: ast.Call,
                      scope: Dict[str, Any]) -> _Value:
        vals = [self._eval(a, scope) for a in node.args]
        if fname == "np.arange":
            tags = {"arange"}
            stop = vals[-1] if len(vals) >= 2 else (vals[0] if vals else None)
            start = vals[0] if len(vals) >= 2 else None
            if isinstance(stop, _Value):
                for t in stop.tags:
                    if t.startswith(("smem:", "le-snap:")):
                        tags.add("le-snap:" + t.split(":", 1)[1])
                        tags.add("head:" + t.split(":", 1)[1])
            expr = "arange(" + ", ".join(
                v.expr if isinstance(v, _Value) else "?" for v in vals
            ) + ")"
            _ = start
            return _val(Uniformity.AFFINE, tuple(tags), expr)
        if fname == "min":
            tags: Set[str] = set()
            for v in vals:
                if not isinstance(v, _Value):
                    continue
                for t in v.tags:
                    if t.startswith("smem:"):
                        tags.add("le-snap:" + t[len("smem:"):])
                    if t.startswith("snapdiff:"):
                        tags.add("lediff:" + t[len("snapdiff:"):])
            expr = "min(" + ", ".join(
                v.expr if isinstance(v, _Value) else "?" for v in vals
            ) + ")"
            return _val(Uniformity.UNIFORM, tuple(tags), expr)
        if fname in ("int", "float", "abs", "len"):
            # scalar casts: one value per warp, uniform by construction
            if len(vals) == 1 and isinstance(vals[0], _Value):
                return _val(Uniformity.UNIFORM, tuple(vals[0].tags),
                            f"{fname}({vals[0].expr})")
        if fname in ("np.asarray", "np.ceil"):
            if len(vals) == 1 and isinstance(vals[0], _Value):
                return vals[0]
        if fname == "np.concatenate":
            # pieces may be disjoint windows: conservatively scattered,
            # but nonemptiness survives concatenation
            keep = frozenset(
                t for v in vals if isinstance(v, _Value) for t in v.tags
                if t == "nonempty"
            )
            return _Value(Uniformity.DIVERGENT, keep, "concat(...)")
        return self._merge(vals, f"{fname}(...)")

    # -- expressions -------------------------------------------------------

    def _eval(self, node: ast.expr, scope: Dict[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            return _val(Uniformity.UNIFORM, (), repr(node.value))
        if isinstance(node, ast.Name):
            if node.id in scope:
                return scope[node.id]
            return _val(Uniformity.UNIFORM, (), node.id)
        if isinstance(node, ast.Attribute):
            d = dotted(node)
            if d == "ctx.lanes":
                return _val(Uniformity.AFFINE, ("lanes",), "ctx.lanes")
            if d == "ctx.warp_id":
                return _val(Uniformity.UNIFORM, ("warp_id",), "ctx.warp_id")
            if d == "ctx.block_idx":
                return _val(Uniformity.UNIFORM, ("block_idx",),
                            "ctx.block_idx")
            if d is not None and d.startswith("ctx."):
                return _val(Uniformity.UNIFORM, (), d)
            base = self._eval(node.value, scope)
            if isinstance(base, _Value):
                return _val(Uniformity.UNIFORM, tuple(base.tags),
                            f"{base.expr}.{node.attr}")
            return _val(Uniformity.UNIFORM, (), ast.unparse(node))
        if isinstance(node, ast.Call):
            out = self._call(node, scope)
            return out if out is not None else _UNIFORM
        if isinstance(node, ast.BinOp):
            return self._binop(node, scope)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, scope)
        if isinstance(node, ast.Compare):
            vals = [self._eval(node.left, scope)] + [
                self._eval(c, scope) for c in node.comparators
            ]
            return self._merge(vals, ast.unparse(node))
        if isinstance(node, ast.BoolOp):
            return self._merge([self._eval(v, scope) for v in node.values],
                               ast.unparse(node))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, scope)
        if isinstance(node, ast.IfExp):
            a = self._eval(node.body, scope)
            b = self._eval(node.orelse, scope)
            return self._merge([a, b], ast.unparse(node))
        if isinstance(node, (ast.Tuple, ast.List)):
            vals = [self._eval(e, scope) for e in node.elts]
            if all(isinstance(v, (_SharedArray, _GlobalArray, _ViewInfo))
                   for v in vals) and vals:
                return tuple(vals)
            merged = self._merge(vals, ast.unparse(node))
            if all(isinstance(v, _Value) and v.u is Uniformity.UNIFORM
                   for v in vals) and vals:
                # a short literal list of uniform scalars: a dense window
                return _val(Uniformity.AFFINE,
                            tuple(merged.tags | {"smallwin"}),
                            merged.expr)
            return merged
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            # a comprehension over a nonempty iterable is nonempty
            tags: Set[str] = set()
            for gen in node.generators:
                src = self._eval(gen.iter, scope)
                if isinstance(src, _Value) and self._nonempty(src) \
                        and not gen.ifs:
                    tags.add("nonempty")
            return _val(Uniformity.DIVERGENT, tuple(tags),
                        ast.unparse(node))
        if isinstance(node, ast.Starred):
            return self._eval(node.value, scope)
        return _val(Uniformity.DIVERGENT, (), ast.unparse(node))

    def _binop(self, node: ast.BinOp, scope: Dict[str, Any]) -> Any:
        left = self._eval(node.left, scope)
        right = self._eval(node.right, scope)
        # double-buffer parity: pref[(iteration + 1) % 2] vs pref[i % 2]
        if isinstance(node.op, ast.Mod) and isinstance(left, _Value):
            src = ast.unparse(node.left)
            parity = "next" if "+ 1" in src or "+1" in src else "cur"
            return _val(Uniformity.UNIFORM, (f"mod2-{parity}",),
                        ast.unparse(node))
        if not isinstance(left, _Value) or not isinstance(right, _Value):
            return self._merge([left, right], ast.unparse(node))
        u = left.u.join(right.u)
        tags: Set[str] = set()
        expr = f"({left.expr} {type(node.op).__name__} {right.expr})"
        if isinstance(node.op, ast.Add):
            expr = f"({left.expr} + {right.expr})"
            for a, b in ((left, right), (right, left)):
                for t in a.tags:
                    if t.startswith("resv:") and (
                            "arange" in b.tags or "coffs" in b.tags
                            or "partition:warp_counts" in b.tags):
                        tags.add("reserved:" + t[len("resv:"):])
                    if t.startswith("lediff:"):
                        _, counter, base = t.split(":", 2)
                        if b.expr == base:
                            tags.add(f"le-snap:{counter}")
            # partition offsets + reservation base => reserved slots
            if ("partition:warp_counts" in left.tags | right.tags
                    and any(t.startswith("resv:")
                            for t in left.tags | right.tags)):
                for t in left.tags | right.tags:
                    if t.startswith("resv:"):
                        tags.add("reserved:" + t[len("resv:"):])
            # a warp-published partition slot + compaction offsets
            if ("reserved:e" not in tags
                    and ("coffs" in right.tags or "coffs" in left.tags)):
                other = left if "coffs" in right.tags else right
                if any(t.startswith("reserved:") or t == "partition:warp_counts"
                       or t.startswith("resv:") for t in other.tags):
                    tags.add("reserved:e")
        if isinstance(node.op, ast.Sub):
            expr = f"({left.expr} - {right.expr})"
            for t in left.tags:
                if t.startswith("smem:"):
                    tags.add(f"snapdiff:{t[len('smem:'):]}:{right.expr}")
        tags |= left.tags | right.tags
        # carry forward: reserved/head/partition tags survive arithmetic
        return _val(u, tuple(tags), expr)

    def _subscript(self, node: ast.Subscript, scope: Dict[str, Any]) -> Any:
        base = self._eval(node.value, scope)
        if isinstance(base, tuple):  # pref[(iteration + 1) % 2]
            sel = self._eval(node.slice, scope)
            parity = "cur"
            if isinstance(sel, _Value) and "mod2-next" in sel.tags:
                parity = "next"
            first = base[0]
            if isinstance(first, _SharedArray):
                stem = first.name.rstrip("01")
                return _SharedArray(stem, parity=parity)
            return first
        if isinstance(base, (_GlobalArray, _SharedArray, _ViewInfo)):
            return base
        idx = self._eval(node.slice, scope) \
            if not isinstance(node.slice, ast.Slice) else _UNIFORM
        if isinstance(base, _Value):
            tags = set(base.tags)
            if isinstance(idx, _Value):
                # masked subset of a dense window stays a dense window
                if base.u is Uniformity.AFFINE:
                    tags.add("maskwin")
                    if self._mask_nonempty(node.slice, base, idx):
                        tags.add("nonempty")
            u = base.u if base.u is not Uniformity.UNIFORM \
                else Uniformity.UNIFORM
            return _val(u, tuple(tags), f"{base.expr}[{ast.unparse(node.slice)}]")
        return _val(Uniformity.DIVERGENT, (), ast.unparse(node))

    def _mask_nonempty(self, mask: ast.expr, base: _Value,
                       idx: Optional[_Value] = None) -> bool:
        """``(lo + lanes)[lo + lanes < hi]`` with ``while lo < hi`` live:
        lane 0 always passes, so the masked window is nonempty."""
        is_lt = (isinstance(mask, ast.Compare) and len(mask.ops) == 1
                 and isinstance(mask.ops[0], ast.Lt))
        if not is_lt:
            # the mask may be a Name bound to an in-range test earlier
            if not (isinstance(mask, ast.Name) and idx is not None
                    and " < " in idx.expr):
                return False
        for name in self.window_bases:
            if name in base.expr:
                return True
        return False


# ---------------------------------------------------------------------------
# race analysis
# ---------------------------------------------------------------------------

_AXIOMS = {
    "reservation": (
        "atomic reservations return fresh disjoint ranges; compaction "
        "offsets are an exclusive prefix below the reserved total "
        "(stated axiom over the verified no-memory compaction helpers)"
    ),
    "head-tail": (
        "the tail counter only grows (all in-loop updates are "
        "non-negative atomic adds), so every reservation base is >= the "
        "epoch's tail snapshot that bounds the head window"
    ),
}


def _conflicting(a: Access, b: Access) -> bool:
    if a.space != b.space or a.array != b.array:
        return False
    return a.kind == "write" or b.kind == "write"


def _counter_monotone(accesses: Sequence[Access], counter: str) -> bool:
    """No plain write to the tail counter inside or after the loop."""
    return not any(
        acc.space == "shared" and acc.array == counter
        and acc.kind == "write" and acc.epoch.kind != "pre"
        for acc in accesses
    )


def _discharge(a: Access, b: Access, shape: Optional[LoopShape],
               accesses: Sequence[Access]) -> Optional[Tuple[str, str]]:
    """Try the discharge catalogue; returns (argument, detail) or None."""
    # global pairs need block-privacy first: blocks never synchronise
    if a.space == "global":
        if not ("block-private" in a.tags and "block-private" in b.tags):
            return None
    if not may_same_epoch(a.epoch, b.epoch, shape):
        return ("barrier-separated",
                f"epochs {a.epoch} and {b.epoch} never coincide under "
                f"the loop shape {shape}")
    if "warp0" in a.guards and "warp0" in b.guards:
        if a is not b or not a.multi:
            return ("same-warp",
                    "both accesses run on warp 0 of the block only; one "
                    "warp is always ordered with itself")
    if a is b and not a.multi and "warp0" in a.guards:
        return ("single-instance",
                "a single warp-0 access instance cannot race itself")
    if "warp-slot" in a.tags and "warp-slot" in b.tags:
        return ("warp-slot",
                "both sides index the array at ctx.warp_id: distinct "
                "warps hit distinct slots, one warp is self-ordered")
    pa = {t for t in a.tags if t.startswith("parity-")}
    pb = {t for t in b.tags if t.startswith("parity-")}
    if pa and pb and pa != pb:
        return ("double-buffer-parity",
                "equal epochs imply equal pipeline iterations, and the "
                "write targets the opposite parity buffer from the read")
    ra = {t[len("reserved:"):] for t in a.tags if t.startswith("reserved:")}
    rb = {t[len("reserved:"):] for t in b.tags if t.startswith("reserved:")}
    ring = "ring" in a.tags or "ring" in b.tags
    if a.kind == "write" and b.kind == "write" and ra & rb and not ring:
        return ("reservation-disjoint",
                f"both writes land inside fresh atomic reservations on "
                f"'{ra.intersection(rb).pop()}'; " + _AXIOMS["reservation"])
    ha = {t[len("head:"):] for t in a.tags if t.startswith("head:")}
    hb = {t[len("head:"):] for t in b.tags if t.startswith("head:")}
    for read, write, heads, resvs in ((a, b, ha, rb), (b, a, hb, ra)):
        if (read.kind == "read" and write.kind == "write"
                and heads & resvs and not ring):
            counter = (heads & resvs).pop()
            if _counter_monotone(accesses, counter):
                return ("head-tail",
                        f"the read window sits strictly below a snapshot "
                        f"of tail counter '{counter}' while the write sits "
                        f"inside a reservation at or above it; "
                        + _AXIOMS["head-tail"])
    return None


def _analyze_races(
    accesses: Sequence[Access], shape: Optional[LoopShape],
    kernel: str,
) -> Tuple[List[RaceProof], List[RaceObligation]]:
    proofs: List[RaceProof] = []
    unproven: List[RaceObligation] = []
    groups: Dict[Tuple[str, str], List[Access]] = {}
    for acc in accesses:
        groups.setdefault((acc.space, acc.array), []).append(acc)
    for (space, array), group in sorted(groups.items()):
        writes = [g for g in group if g.kind == "write"]
        if not writes:
            kinds = sorted({g.kind for g in group})
            proofs.append(RaceProof(
                space, array, "/".join(kinds),
                group[0].site, group[-1].site,
                "read-only" if kinds == ["read"] else "atomic-only",
                f"'{array}' has no plain write in {kernel}: the race "
                "model (racecheck) requires at least one plain write"
            ))
            continue
        seen: Set[Tuple[str, str, str, str]] = set()
        for i, x in enumerate(group):
            for y in group[i:]:
                if not _conflicting(x, y):
                    continue
                if x is y and (x.kind != "write"
                               or (not x.multi and "warp0" in x.guards
                                   and space == "shared")):
                    # single-warp single-instance self pair: ordered
                    continue
                key = (x.site, y.site, x.kind, y.kind)
                if key in seen:
                    continue
                seen.add(key)
                kinds = f"{x.kind}-{y.kind}"
                out = _discharge(x, y, shape, accesses)
                if out is None:
                    reason = "no discharge argument applies"
                    if space == "global" and not (
                            "block-private" in x.tags
                            and "block-private" in y.tags):
                        reason = (
                            "global pair without block-private addressing "
                            "on both sides: blocks never synchronise "
                            "inside a launch"
                        )
                    elif "ring" in x.tags or "ring" in y.tags:
                        reason = (
                            "ring-buffer wraparound defeats the head-tail "
                            "and reservation orderings (positions alias "
                            "modulo capacity)"
                        )
                    unproven.append(RaceObligation(
                        space, array, kinds, x.site, y.site, reason))
                else:
                    argument, detail = out
                    proofs.append(RaceProof(
                        space, array, kinds, x.site, y.site, argument,
                        detail))
    return proofs, unproven


# ---------------------------------------------------------------------------
# efficiency brackets
# ---------------------------------------------------------------------------

_COAL_LO = {"scalar": 1.0, "contiguous": 0.5, "scattered": 1.0 / 32.0}


def _bracket(accesses: Sequence[Access]) -> EfficiencyBracket:
    sites = [a for a in accesses if a.space == "global"]
    if not sites:
        return EfficiencyBracket(1.0, 1.0, 1.0, 1.0)
    coal_lo = min(_COAL_LO[a.coal] for a in sites)
    nonempty = all(
        a.coal == "scalar" or "smallwin" in a.tags or "nonempty" in a.tags
        or "nonempty" in a.guards or "arange" in a.tags
        for a in sites
    )
    div_lo = 1.0 / 32.0 if nonempty else 0.0
    return EfficiencyBracket(div_lo, 1.0, coal_lo, 1.0)


# ---------------------------------------------------------------------------
# engine preconditions (executor-module AST)
# ---------------------------------------------------------------------------

#: the k-core executor module — the default so the fixture self-tests
#: (and any caller without a contract) keep their legacy behavior
_KCORE_ENGINE_MODULE = "repro.core.fastsim"

_precond_cache: Dict[
    Tuple[VariantConfig, Optional[str], str], Tuple[FallbackRule, ...]
] = {}


def _executor_attribution(tree: ast.Module,
                          executors: Dict[str, str]) -> Dict[str, str]:
    """Kernel attribution of every function in an executor module.

    Built from the call graph rooted at the ``register_vectorized_kernel``
    executors (the *explicit* registration arguments) rather than from
    substring matching on function names: a helper reachable from
    exactly one executor serves that executor's kernel; one reachable
    from several (or none — dead or host-side code) is ``"both"``.
    Method calls are resolved by bare attribute name, which is exact
    enough for a module whose function names are unique.
    """
    defs: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, node)
    edges: Dict[str, Set[str]] = {}
    for name, fn in defs.items():
        callees: Set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id in defs:
                callees.add(node.func.id)
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in defs):
                callees.add(node.func.attr)
        edges[name] = callees
    serves: Dict[str, Set[str]] = {name: set() for name in defs}
    for impl, kern in executors.items():
        kernel = kern.split(".")[-1]
        frontier = [impl]
        while frontier:
            name = frontier.pop()
            if name not in serves or kernel in serves[name]:
                continue
            serves[name].add(kernel)
            frontier.extend(edges.get(name, ()))
    return {
        name: next(iter(kernels)) if len(kernels) == 1 else "both"
        for name, kernels in serves.items()
    }


def engine_preconditions(
    cfg: VariantConfig,
    engine_module: Optional[str] = _KCORE_ENGINE_MODULE,
    kernel: str = "both",
) -> Tuple[FallbackRule, ...]:
    """All fallback sites of ``engine_module``, structural guards
    evaluated on ``cfg``: each executor's own sites first, in the
    order it checks them, then its helpers' and the shared ones.

    ``engine_module`` is the contract-declared module registering the
    kernel's vectorized executor; ``None`` means no executor exists and
    the result is a single always-firing structural rule — the honest
    static prediction that every launch is served by reference.
    """
    key = (cfg, engine_module, kernel if engine_module is None else "both")
    if key in _precond_cache:
        return _precond_cache[key]
    if engine_module is None:
        out = (FallbackRule(
            kernel, "<contracts>", 0,
            "no vectorized executor is registered for this kernel",
            True, "", True,
        ),)
        _precond_cache[key] = out
        return out
    mod = importlib.import_module(engine_module)
    with open(mod.__file__ or "", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    executors: Dict[str, str] = {}
    for node in ast.walk(tree):  # registration may sit inside register()
        if (isinstance(node, ast.Call)
                and dotted(node.func) == "register_vectorized_kernel"
                and len(node.args) == 2):
            kern = dotted(node.args[0]) or "?"
            impl = dotted(node.args[1]) or "?"
            executors[impl] = kern
    attribution = _executor_attribution(tree, executors)
    rules: List[FallbackRule] = []

    def visit(fn: ast.FunctionDef, kernel: str, structural_ok: bool) -> None:
        def walk(stmts: List[ast.stmt], tests: Tuple[ast.expr, ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Raise):
                    call = stmt.exc
                    name = dotted(call.func) if isinstance(call, ast.Call) \
                        else None
                    if name != "FallbackToReference":
                        continue
                    msg = ""
                    if isinstance(call, ast.Call) and call.args and \
                            isinstance(call.args[0], ast.Constant):
                        msg = str(call.args[0].value)
                    test = tests[-1] if tests else None
                    test_src = ast.unparse(test) if test is not None else ""
                    structural = False
                    fires = False
                    if structural_ok and test is not None:
                        names = {
                            n.id for n in ast.walk(test)
                            if isinstance(n, ast.Name)
                        }
                        if names <= {"cfg"}:
                            try:
                                value = _StructEval(cfg).eval(test)
                                structural, fires = True, bool(value)
                            except _Bail:
                                pass
                    rules.append(FallbackRule(
                        kernel, fn.name, stmt.lineno, msg, structural,
                        test_src, fires))
                elif isinstance(stmt, ast.If):
                    walk(stmt.body, tests + (stmt.test,))
                    walk(stmt.orelse, tests)
                elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                    walk(stmt.body, tests)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body, tests)
                    for h in stmt.handlers:
                        walk(h.body, tests)

        walk(list(fn.body), ())

    # the executors' own rules first, each kernel's in the order its
    # executor checks them; then the helpers' rules, in file order
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for node in functions:
        if node.name in executors:
            visit(node, executors[node.name].split(".")[-1],
                  structural_ok=True)
    for node in functions:
        if node.name not in executors:
            visit(node, attribution.get(node.name, "both"),
                  structural_ok=False)
    out = tuple(rules)
    _precond_cache[key] = out
    return out


class _StructEval:
    """Evaluates a pure-``cfg`` guard expression on a variant config."""

    def __init__(self, cfg: VariantConfig) -> None:
        self.cfg = cfg

    def eval(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Attribute):
            d = dotted(node)
            if d is not None and d.startswith("cfg."):
                return getattr(self.cfg, d[len("cfg."):])
            raise _Bail()
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, right = self.eval(node.left), self.eval(node.comparators[0])
            op = node.ops[0]
            table = {
                ast.Eq: left == right, ast.NotEq: left != right,
                ast.Gt: left > right, ast.GtE: left >= right,
                ast.Lt: left < right, ast.LtE: left <= right,
            }
            for kind, value in table.items():
                if isinstance(op, kind):
                    return value
            raise _Bail()
        if isinstance(node, ast.BoolOp):
            vals = [self.eval(v) for v in node.values]
            return all(vals) if isinstance(node.op, ast.And) else any(vals)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return not self.eval(node.operand)
        raise _Bail()


def _contract_preconditions(
    kernel: str, cfg: VariantConfig
) -> Tuple[FallbackRule, ...]:
    """Engine preconditions via the kernel's contract; unregistered
    kernels keep the legacy k-core executor-module behavior."""
    from repro.staticheck import contracts

    try:
        contract = contracts.kernel_contract(kernel)
    except KeyError:
        return engine_preconditions(cfg)
    return engine_preconditions(cfg, contract.engine_module, kernel)


def predicted_tier(
    kernel: str,
    cfg: VariantConfig,
    engine: str = "vectorized",
    monitored: bool = False,
    preempt_prob: float = 0.0,
) -> str:
    """Which engine tier *must* serve a launch of ``kernel`` under ``cfg``."""
    if engine == "reference" or monitored or preempt_prob > 0.0:
        return "reference"
    for rule in _contract_preconditions(kernel, cfg):
        if rule.kernel == kernel and rule.structural and rule.fires:
            return "reference"
    return engine


# ---------------------------------------------------------------------------
# certificate assembly
# ---------------------------------------------------------------------------

_cert_cache: Dict[Tuple[str, VariantConfig], DataflowCertificate] = {}


def analyze_kernel(kernel: str,
                   cfg: "VariantConfig | str") -> DataflowCertificate:
    """Dataflow certificate for one kernel x variant (cached).

    The kernel's module, entry function and executor module all come
    from its registered :class:`~repro.staticheck.contracts.
    KernelContract` — any admitted kernel analyzes here, not just the
    k-core pair.  A string ``cfg`` is resolved against the contract's
    own variant space first, then the k-core variant registry.
    """
    from repro.staticheck import contracts

    try:
        contract = contracts.kernel_contract(kernel)
    except KeyError:
        registered = ", ".join(sorted(contracts.all_kernel_contracts()))
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of ({registered})"
        ) from None
    if isinstance(cfg, str):
        space = contract.variants()
        cfg = space[cfg] if cfg in space else get_variant(cfg)
    key = (kernel, cfg)
    if key in _cert_cache:
        return _cert_cache[key]
    module = importlib.import_module(contract.module)
    cert = analyze_function(module, contract.entry, cfg,
                            engine_module=contract.engine_module)
    _cert_cache[key] = cert
    return cert


def analyze_function(module: Any, kernel: str, cfg: VariantConfig,
                     engine_module: Optional[str] = _KCORE_ENGINE_MODULE,
                     ) -> DataflowCertificate:
    """Dataflow certificate for any kernel generator in ``module``.

    The uncached engine behind :func:`analyze_kernel`; exposed so the
    detector self-tests can run the analyzer over the known-bad
    fixture kernels of :mod:`repro.staticheck.fixtures`.
    ``engine_module`` follows the kernel's contract when called via
    :func:`analyze_kernel`; the default keeps the k-core executor
    module for contract-less callers.
    """
    violations = verify_contracts()
    interp = _Interp(module, cfg)
    notes: List[str] = list(violations)
    accesses: Tuple[Access, ...] = ()
    shape: Optional[LoopShape] = None
    proofs: List[RaceProof] = []
    unproven: List[RaceObligation] = []
    bracket = EfficiencyBracket(0.0, 1.0, 0.0, 1.0)
    if not violations:
        try:
            interp.run(kernel)
            accesses = tuple(interp.accesses)
            shape = interp.shape
            notes.extend(interp.notes)
            proofs, unproven = _analyze_races(accesses, shape, kernel)
            bracket = _bracket(accesses)
        except _Bail as exc:
            notes.append(str(exc))
            unproven = [RaceObligation(
                "*", "*", "*", f"{interp.file}:0", f"{interp.file}:0",
                f"analysis bailed out: {exc}")]
    else:
        unproven = [RaceObligation(
            "*", "*", "*", "repro/core/buffers.py:0",
            "repro/core/compaction.py:0",
            "helper contract verification failed: " + "; ".join(violations))]
    return DataflowCertificate(
        kernel=kernel, variant=cfg.name, loop_shape=shape,
        accesses=accesses, proofs=tuple(proofs), unproven=tuple(unproven),
        bracket=bracket,
        preconditions=engine_preconditions(cfg, engine_module, kernel),
        notes=tuple(notes),
    )


def _unproven_findings(cert: DataflowCertificate) -> List[SanitizerFinding]:
    return [
        SanitizerFinding(
            "unproven-race-freedom", "warning",
            f"{cert.kernel}[{cert.variant}]",
            f"{ob.kinds} pair on {ob.space} '{ob.array}' could not be "
            f"discharged: {ob.reason}",
            (ob.a_site, ob.b_site),
        )
        for ob in cert.unproven
    ]


def certified_combos(
    variants: Optional[Sequence[str]] = None,
) -> List[Tuple[str, VariantConfig]]:
    """The (kernel, config) pairs the pipeline certifies.

    With ``variants`` (a sequence of k-core variant names) this is the
    legacy spelling: those configs crossed with the peeling kernels.
    With ``variants=None`` it iterates the contract registry — every
    admitted kernel over its own variant space, minus the configs whose
    contract declares undischarged obligations honest (ring buffers).
    """
    if variants is not None:
        return [
            (kernel, get_variant(name))
            for name in variants
            for kernel in DATAFLOW_KERNELS
        ]
    from repro.staticheck import contracts

    return [
        (kernel, cfg)
        for kernel, contract in contracts.all_kernel_contracts().items()
        for cfg in contract.variants().values()
        if not contract.honest_unproven(cfg)
    ]


def dataflow_report(
    variants: Optional[Sequence[str]] = None,
) -> SanitizerReport:
    """Analyze every admitted kernel x variant; unproven pairs become
    findings."""
    report = SanitizerReport()
    for kernel, cfg in certified_combos(variants):
        cert = analyze_kernel(kernel, cfg)
        report.modules_linted += 1
        report.extend(_unproven_findings(cert))
    return report


def render_dataflow_certificates(
    variants: Optional[Sequence[str]] = None,
) -> str:
    """Human-readable dump of the dataflow certificates (CLI --dataflow)."""
    lines: List[str] = []
    for kernel, cfg in certified_combos(variants):
        cert = analyze_kernel(kernel, cfg)
        shape = (
            f"pre={cert.loop_shape.pre} L={cert.loop_shape.body} "
            f"exit@{cert.loop_shape.exit_r}"
            if cert.loop_shape else "straight-line"
        )
        verdict = "race-free" if cert.race_free else (
            f"{len(cert.unproven)} UNPROVEN pair(s)")
        lines.append(f"== {kernel} [{cfg.name}] ==")
        lines.append(
            f"  barrier skeleton: {shape}; "
            f"{len(cert.accesses)} abstract accesses; {verdict}"
        )
        b = cert.bracket
        lines.append(
            f"  efficiency bracket: divergence in "
            f"[{b.divergence_lo:.4f}, {b.divergence_hi:.4f}], "
            f"coalescing in [{b.coalescing_lo:.4f}, "
            f"{b.coalescing_hi:.4f}]"
        )
        tier = predicted_tier(kernel, cfg)
        lines.append(f"  engine precondition: vectorized launch is "
                     f"served by '{tier}'")
        for proof in cert.proofs:
            lines.append(
                f"  proof [{proof.argument}] {proof.kinds} on "
                f"{proof.space} '{proof.array}' "
                f"({proof.a_site} <-> {proof.b_site})"
            )
            lines.append(f"    {proof.detail}")
        for ob in cert.unproven:
            lines.append(
                f"  UNPROVEN {ob.kinds} on {ob.space} '{ob.array}' "
                f"({ob.a_site} <-> {ob.b_site}): {ob.reason}"
            )
        for note in cert.notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the launch-time checker
# ---------------------------------------------------------------------------


class DataflowChecker:
    """Asserts the dataflow certificates against every traced launch.

    Mirrors :class:`~repro.staticheck.differential.DifferentialChecker`:
    construction runs the purely static analysis (unproven race
    obligations surface immediately as ``unproven-race-freedom``
    warnings), then :meth:`observe` checks each launch's measured
    :class:`~repro.gpusim.scheduler.KernelStats` against the
    certificate — the divergence/coalescing bracket
    (``divergence-bound``) and the engine-precondition prediction
    against ``stats.served_by`` (``engine-precondition``).  Observation
    charges no simulated cycles.
    """

    def __init__(
        self,
        cfg: VariantConfig,
        engine: str = "vectorized",
        monitored: bool = False,
        preempt_prob: float = 0.0,
        program: str = "kcore",
    ) -> None:
        from repro.staticheck import contracts

        self.cfg = cfg
        self.engine = engine
        self.monitored = monitored
        self.preempt_prob = preempt_prob
        self.program = program
        self.report = SanitizerReport()
        self.certificates: Dict[str, DataflowCertificate] = {}
        self.expected: Dict[str, str] = {}
        kernels = contracts.program_contract(program).kernels
        for kernel in kernels:
            cert = analyze_kernel(kernel, cfg)
            self.certificates[kernel] = cert
            self.expected[kernel] = predicted_tier(
                kernel, cfg, engine=engine, monitored=monitored,
                preempt_prob=preempt_prob,
            )
            self.report.extend(_unproven_findings(cert))
        self.report.modules_linted += len(kernels)

    def observe(self, kernel: str, stats: Any) -> None:
        """Check one launch's measurement against the certificate."""
        cert = self.certificates.get(kernel)
        if cert is None:
            return
        self.report.launches_checked += 1
        accesses = float(stats.mem_accesses)
        transactions = float(stats.mem_transactions)
        divergence = (
            stats.mem_active_lanes / (accesses * 32.0) if accesses else 1.0
        )
        coalescing = (
            stats.mem_ideal_transactions / transactions
            if transactions else 1.0
        )
        b = cert.bracket
        if not b.contains(divergence, coalescing):
            self.report.extend([SanitizerFinding(
                "divergence-bound", "error",
                f"{kernel}[{self.cfg.name}]",
                f"measured divergence {divergence:.4f} / coalescing "
                f"{coalescing:.4f} escaped the static bracket "
                f"[{b.divergence_lo:.4f}, {b.divergence_hi:.4f}] x "
                f"[{b.coalescing_lo:.4f}, {b.coalescing_hi:.4f}] — the "
                "lane-uniformity classification is unsound for this "
                "launch; fix repro.staticheck.dataflow or the kernel",
            )])
        observed = getattr(stats, "served_by", "reference")
        expected = self.expected[kernel]
        if observed == expected:
            return
        if expected == "reference":
            self.report.extend([SanitizerFinding(
                "engine-precondition", "error",
                f"{kernel}[{self.cfg.name}]",
                f"launch was served by '{observed}' although the static "
                f"precondition analysis proves it must fall back to the "
                "reference interpreter",
            )])
        else:
            # the kernel's own rules before the shared ones, so the
            # first few name the checks this executor alone makes
            caveats = [
                f"{r.func}:{r.line} ({r.message})"
                for r in sorted(
                    cert.preconditions, key=lambda r: r.kernel != kernel
                )
                if not r.structural and r.kernel in (kernel, "both")
            ]
            self.report.extend([SanitizerFinding(
                "engine-precondition", "warning",
                f"{kernel}[{self.cfg.name}]",
                f"launch fell back to '{observed}' although no structural "
                f"precondition fires for '{self.cfg.name}' — a dynamic "
                "guard declined it (candidates: "
                + "; ".join(caveats[:4]) + ")",
            )])
