"""The rule catalogue: QL001–QL008.

Each rule is a small AST pass grounded in a failure mode this codebase
actually has to defend against (see ``docs/static_analysis.md`` for the
physics rationale per rule). Rules yield :class:`~qmclint.engine.Violation`
objects; pragma and baseline filtering happen in the engine.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from .engine import FileContext, Violation

__all__ = ["Rule", "ALL_RULES"]


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """``np.linalg.inv`` -> "np.linalg.inv"; empty string if not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(call: ast.Call) -> str:
    """Trailing name of the called object ("inv" for ``np.linalg.inv``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _iter_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes in a function body, *excluding* nested function scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class Rule:
    """Base class; subclasses set ``code``/``name`` and implement check()."""

    code = "QL000"
    name = "base"
    description = ""
    #: SARIF result level: "error" | "warning" | "note". Reporting
    #: metadata only — the exit status fails on any non-baselined finding.
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            severity=self.severity,
        )


# ---------------------------------------------------------------------------
# QL001 — no raw matrix inversion outside the stable-solve module
# ---------------------------------------------------------------------------


class RawInverseRule(Rule):
    """Flag ``*.inv(...)`` and ``solve(I + product, ...)``.

    Forming ``(I + B_L...B_1)^{-1}`` without the graded D_b/D_s split is
    exactly the instability the paper's Algorithms 2/3 exist to avoid;
    the only module allowed to spell an unstabilized solve is
    ``repro/linalg/stable.py`` (where the strawman lives, clearly
    labelled).
    """

    code = "QL001"
    name = "raw-inverse"
    description = "raw matrix inversion outside linalg/stable.py"

    ALLOWED_SUFFIXES = ("repro/linalg/stable.py",)
    _LINALG_HOLDERS = {"np.linalg", "numpy.linalg", "scipy.linalg", "sla", "la"}

    def _is_eye_call(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and call_name(node) in (
            "eye",
            "identity",
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.rel.endswith(self.ALLOWED_SUFFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name == "inv" and isinstance(node.func, ast.Attribute):
                holder = dotted_name(node.func.value)
                if holder in self._LINALG_HOLDERS or holder.endswith(".linalg"):
                    yield self.violation(
                        ctx,
                        node,
                        f"raw matrix inversion `{dotted_name(node.func)}`: "
                        "use the graded stable solve "
                        "(repro.linalg.stable) instead",
                    )
            elif name == "solve" and node.args:
                lhs = node.args[0]
                if isinstance(lhs, ast.BinOp) and isinstance(lhs.op, ast.Add):
                    if self._is_eye_call(lhs.left) or self._is_eye_call(
                        lhs.right
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            "solve on an `I + product` operand: form the "
                            "Green's function through "
                            "stable_inverse_from_graded, never naively",
                        )


# ---------------------------------------------------------------------------
# QL002 — no unseeded / module-level RNG
# ---------------------------------------------------------------------------


class UnseededRNGRule(Rule):
    """Randomness must be threaded from ``SimulationConfig.seed``.

    An unseeded ``default_rng()`` (or any legacy ``np.random.*`` global
    call) makes runs unreproducible and silently decouples worker streams
    from the configured seed.
    """

    code = "QL002"
    name = "unseeded-rng"
    description = "unseeded or module-level numpy RNG"

    _GLOBAL_FNS = {
        "rand",
        "randn",
        "random",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "seed",
    }

    def _allowed(self, ctx: FileContext) -> bool:
        parts = ctx.rel.split("/")
        return (
            "tests" in parts
            or "benchmarks" in parts
            or "examples" in parts
            or parts[-1] in ("cli.py", "conftest.py")
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if self._allowed(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name == "default_rng" and not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    "unseeded default_rng(): thread a Generator from "
                    "SimulationConfig.seed (pass `rng=` explicitly)",
                )
            elif name in self._GLOBAL_FNS and isinstance(
                node.func, ast.Attribute
            ):
                holder = dotted_name(node.func.value)
                if holder in ("np.random", "numpy.random"):
                    yield self.violation(
                        ctx,
                        node,
                        f"module-level `{holder}.{name}` uses the hidden "
                        "global RNG; pass an explicit seeded Generator",
                    )


# ---------------------------------------------------------------------------
# QL003 — dtype hygiene
# ---------------------------------------------------------------------------


class DtypeHygieneRule(Rule):
    """Flag precision downcasts and platform-dependent dtypes.

    All DQMC state is float64 by contract; a stray float32 (or a
    platform-dependent ``astype(int)``, which is 32-bit on Windows)
    silently destroys the graded scales' dynamic range.
    """

    code = "QL003"
    name = "dtype-hygiene"
    description = "implicit downcast or platform-dependent dtype"

    _NARROW = {"float32", "float16", "complex64", "half", "single", "csingle"}
    _BUILTIN = {"int", "float", "bool", "complex"}

    def _narrow_dtype(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute) and node.attr in self._NARROW:
            return dotted_name(node)
        if isinstance(node, ast.Constant) and node.value in self._NARROW:
            return repr(node.value)
        return None

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # .astype(...) with a bare builtin dtype
            if call_name(node) == "astype" and isinstance(
                node.func, ast.Attribute
            ):
                for arg in node.args[:1]:
                    if isinstance(arg, ast.Name) and arg.id in self._BUILTIN:
                        yield self.violation(
                            ctx,
                            node,
                            f"astype({arg.id}) is platform-dependent: "
                            f"spell the width (np.int64 / np.float64)",
                        )
                    narrow = self._narrow_dtype(arg)
                    if narrow:
                        yield self.violation(
                            ctx,
                            node,
                            f"astype({narrow}) downcasts below float64 — "
                            "the graded scales need full precision",
                        )
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx, node, "astype() without an explicit dtype"
                    )
            # dtype=np.float32 keyword anywhere (array constructors etc.)
            for kw in node.keywords:
                if kw.arg == "dtype":
                    narrow = self._narrow_dtype(kw.value)
                    if narrow:
                        yield self.violation(
                            ctx,
                            node,
                            f"dtype={narrow} downcasts below float64 — "
                            "the graded scales need full precision",
                        )


# ---------------------------------------------------------------------------
# QL004 — FLOP-ledger completeness in the kernel directories
# ---------------------------------------------------------------------------


class FlopLedgerRule(Rule):
    """Heavy linear algebra must feed the FLOP tally.

    The Fig. 4 GFLOPS reproduction divides measured wall-clock by the
    *nominal* flop count from ``repro.linalg.flops``; a kernel that does
    a GEMM/QR/solve without ``flops.record(...)`` silently inflates the
    reported rate.
    """

    code = "QL004"
    name = "flop-ledger"
    description = "matmul/qr/solve without flops.record in kernel dirs"

    _SCOPED_DIRS = {"linalg", "core", "gpu", "backends"}
    _HEAVY_CALLS = {"qr", "solve", "lu_factor", "lu_solve", "svd"}

    def _in_scope(self, ctx: FileContext) -> bool:
        parts = ctx.rel.split("/")
        if parts[-1] == "flops.py":  # the ledger itself
            return False
        return bool(self._SCOPED_DIRS.intersection(parts[:-1]))

    def _heavy_op(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return "matmul (@)"
        if isinstance(node, ast.AugAssign) and isinstance(
            node.op, ast.MatMult
        ):
            return "matmul (@=)"
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in self._HEAVY_CALLS:
                return f"{name}()"
        return None

    def _records(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "record":
                return dotted_name(func.value).endswith("flops")
            # ledger helpers (BaseBackend._record_gemm / _record_scale)
            # that wrap flops.record
            return func.attr.startswith("_record")
        return isinstance(func, ast.Name) and func.id == "record"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._in_scope(ctx):
            return
        for fn in _functions(ctx.tree):
            heavy: Optional[str] = None
            records = False
            for node in _iter_scope(fn.body):
                if heavy is None:
                    heavy = self._heavy_op(node)
                if not records and self._records(node):
                    records = True
            if heavy is not None and not records:
                yield self.violation(
                    ctx,
                    fn,
                    f"`{fn.name}` performs {heavy} but never calls "
                    "flops.record(...): the GFLOPS ledger goes stale",
                )


# ---------------------------------------------------------------------------
# QL005 — undeclared in-place mutation of ndarray parameters
# ---------------------------------------------------------------------------


class InPlaceParamRule(Rule):
    """Mutating an ``np.ndarray`` argument must be declared.

    Callers share references; a function that writes into a parameter
    without saying so creates aliasing bugs of exactly the kind wrapped
    Green's functions and delayed-update buffers are prone to. Declaring
    it — "in place"/"mutates" in the docstring, or a mutating name —
    silences the rule.
    """

    code = "QL005"
    name = "inplace-param"
    severity = "warning"
    description = "undeclared in-place mutation of an ndarray parameter"

    _DECLARING_WORDS = ("in place", "in-place", "inplace", "mutat", "overwrit")
    _DECLARING_NAMES = ("inplace", "in_place", "update", "flush", "fill")
    _MUTATING_METHODS = {"fill", "sort", "partition", "put", "resize"}
    _OUT_FNS = {"copyto"}

    def _declares(self, fn: ast.FunctionDef) -> bool:
        lowered = fn.name.lower()
        if any(word in lowered for word in self._DECLARING_NAMES):
            return True
        doc = ast.get_docstring(fn) or ""
        lowered = doc.lower()
        return any(word in lowered for word in self._DECLARING_WORDS)

    def _ndarray_params(self, fn: ast.FunctionDef) -> Set[str]:
        out: Set[str] = set()
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        )
        for a in args:
            if a.arg in ("self", "cls"):
                continue
            ann = a.annotation
            if ann is not None and "ndarray" in ast.unparse(ann):
                out.add(a.arg)
        return out

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for fn in _functions(ctx.tree):
            params = self._ndarray_params(fn)
            if not params:
                continue
            # A parameter rebound by a plain assignment no longer aliases
            # the caller's array (the repo idiom `a = asarray(a).copy()`).
            for node in _iter_scope(fn.body):
                if isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            params.discard(tgt.id)
            if not params:
                continue
            declared = self._declares(fn)
            for node in _iter_scope(fn.body):
                name = self._mutation(node, params)
                if name and not declared:
                    yield self.violation(
                        ctx,
                        node,
                        f"`{fn.name}` mutates ndarray parameter "
                        f"`{name}` without declaring it (say 'in place' "
                        "in the docstring or rename)",
                    )

    def _mutation(self, node: ast.AST, params: Set[str]) -> Optional[str]:
        def base_param(target: ast.AST) -> Optional[str]:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id in params:
                    return target.value.id
            return None

        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                name = base_param(tgt)
                if name:
                    return name
        elif isinstance(node, ast.AugAssign):
            name = base_param(node.target)
            if name:
                return name
            if (
                isinstance(node.target, ast.Name)
                and node.target.id in params
            ):
                return node.target.id
        elif isinstance(node, ast.Call):
            fname = call_name(node)
            if fname in self._OUT_FNS and node.args:
                if (
                    isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                ):
                    return node.args[0].id
            if fname in self._MUTATING_METHODS and isinstance(
                node.func, ast.Attribute
            ):
                holder = node.func.value
                if isinstance(holder, ast.Name) and holder.id in params:
                    return holder.id
            for kw in node.keywords:
                if (
                    kw.arg == "out"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in params
                ):
                    return kw.value.id
        return None


# ---------------------------------------------------------------------------
# QL006 — no silent exception swallowing
# ---------------------------------------------------------------------------


class SilentExceptRule(Rule):
    """Bare ``except:`` and ``except Exception: pass`` hide failures.

    A swallowed LinAlgError in the middle of a sweep turns a detectable
    stratification failure into silently wrong physics.
    """

    code = "QL006"
    name = "silent-except"
    severity = "warning"
    description = "bare except or silently swallowed exception"

    _BROAD = {"Exception", "BaseException"}

    def _is_silent_body(self, body: List[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in body
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare `except:` catches everything including "
                    "KeyboardInterrupt; name the exception",
                )
            elif (
                isinstance(node.type, (ast.Name, ast.Attribute))
                and dotted_name(node.type).split(".")[-1] in self._BROAD
                and self._is_silent_body(node.body)
            ):
                yield self.violation(
                    ctx,
                    node,
                    "broad exception silently swallowed; handle, log, or "
                    "re-raise",
                )


# ---------------------------------------------------------------------------
# QL007 — core pipeline must dispatch propagator ops through a backend
# ---------------------------------------------------------------------------


class BackendBypassRule(Rule):
    """Flag direct linalg calls and hand-rolled diagonal scalings in
    ``src/repro/core/``.

    The execution-backend layer (``repro.backends``) exists so one
    pipeline runs unchanged over numpy / threaded / GPU execution — and
    so every backend shares a single canonical operation order (the
    bit-identity contract). A ``np.linalg.*`` call or a broadcast
    diagonal scaling (``a * v[:, None]``) written directly in the core
    pipeline silently pins that operation to serial numpy *and* risks a
    second, differently-rounded spelling of a kernel the backends
    already own. Genuinely backend-independent uses (diagnostics, the
    pinned graded split) carry a line pragma.
    """

    code = "QL007"
    name = "backend-bypass"
    description = "direct linalg call or manual diag scaling in core/"

    _LINALG_HOLDERS = {"np.linalg", "numpy.linalg", "scipy.linalg", "sla", "la"}

    def _in_scope(self, ctx: FileContext) -> bool:
        parts = ctx.rel.split("/")
        return "core" in parts[:-1] and "backends" not in parts

    def _linalg_call(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        name = func.attr
        # Exception classes (np.linalg.LinAlgError) are not operations.
        if name[:1].isupper() or name.endswith("Error"):
            return None
        holder = dotted_name(func.value)
        if holder in self._LINALG_HOLDERS or holder.endswith(".linalg"):
            return dotted_name(func)
        return None

    def _is_broadcast_diag(self, node: ast.AST) -> bool:
        """``v[:, None]`` / ``d[None, :]`` — a diagonal factor reshaped
        for broadcasting against a matrix."""
        if not isinstance(node, ast.Subscript):
            return False
        sl = node.slice
        if not isinstance(sl, ast.Tuple):
            return False
        return any(
            isinstance(e, ast.Constant) and e.value is None for e in sl.elts
        )

    def _manual_scaling(self, node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Mult, ast.Div)
        ):
            return self._is_broadcast_diag(node.left) or self._is_broadcast_diag(
                node.right
            )
        if isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Mult, ast.Div)
        ):
            return self._is_broadcast_diag(node.value)
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = self._linalg_call(node)
                if name:
                    yield self.violation(
                        ctx,
                        node,
                        f"direct `{name}` in the core pipeline: dispatch "
                        "through the PropagatorBackend (or pragma a "
                        "genuinely backend-independent diagnostic)",
                    )
            elif self._manual_scaling(node):
                yield self.violation(
                    ctx,
                    node,
                    "hand-rolled diagonal scaling (broadcast against "
                    "None-indexed vector): use backend.scale_rows / "
                    "scale_columns / scale_two_sided so every backend "
                    "shares one rounding",
                )


# ---------------------------------------------------------------------------
# QL008 — precision-policy bypass in the policy-governed packages
# ---------------------------------------------------------------------------


class PrecisionBypassRule(Rule):
    """Flag literal float dtype pins inside the policy-governed packages.

    Every width decision in ``repro/{core,linalg,hamiltonian,backends}/``
    is owned by :class:`repro.precision.PrecisionPolicy` — code there
    narrows or widens through ``policy.compute(...)`` /
    ``precision.SPINE_DTYPE`` (or follows an input array's dtype), never by
    spelling a width. A literal ``dtype=np.float64`` pins the hot path
    wide even under ``mixed``; a literal ``astype(np.float32)`` narrows
    behind the policy's back and the watchdog's drift accounting stops
    meaning anything. The rule also flags ``a @ b`` where one operand
    was locally coerced to a literal float width and the other came
    through the policy — a mixed-width GEMM silently upcasts, costing
    the double-precision rate the policy was trying to avoid. Genuinely
    width-pinned spots (float64 reference diagnostics, the graded-scale
    masters) carry a reasoned pragma.
    """

    code = "QL008"
    name = "precision-bypass"
    description = "literal float dtype pin in policy-governed packages"

    _SCOPED_DIRS = {"core", "linalg", "hamiltonian", "backends"}
    _FLOAT_LITERALS = {"float64", "float32", "double", "single", "float_"}
    #: call chains that mark a value as policy-derived
    _POLICY_METHODS = {"compute"}

    def _in_scope(self, ctx: FileContext) -> bool:
        parts = ctx.rel.split("/")
        return "repro" in parts and bool(
            self._SCOPED_DIRS.intersection(parts[:-1])
        )

    def _float_literal(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute) and node.attr in self._FLOAT_LITERALS:
            return dotted_name(node)
        if isinstance(node, ast.Constant) and node.value in self._FLOAT_LITERALS:
            return repr(node.value)
        return None

    def _is_policy_coercion(self, node: ast.AST) -> bool:
        """``self.policy.compute(x)`` and friends."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr not in self._POLICY_METHODS:
            return False
        holder = dotted_name(func.value)
        return holder in ("policy", "compute") or holder.endswith(".policy")

    def _literal_coercion(self, node: ast.AST) -> bool:
        """``np.asarray(x, dtype=np.float64)`` / ``x.astype(np.float32)``."""
        if not isinstance(node, ast.Call):
            return False
        if call_name(node) == "astype" and node.args:
            return self._float_literal(node.args[0]) is not None
        for kw in node.keywords:
            if kw.arg == "dtype" and self._float_literal(kw.value) is not None:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) == "astype" and isinstance(
                node.func, ast.Attribute
            ):
                for arg in node.args[:1]:
                    lit = self._float_literal(arg)
                    if lit:
                        yield self.violation(
                            ctx,
                            node,
                            f"astype({lit}) pins a float width behind the "
                            "precision policy's back: use policy.compute / "
                            "SPINE_DTYPE (or pragma a genuinely "
                            "width-pinned diagnostic)",
                        )
            for kw in node.keywords:
                if kw.arg == "dtype":
                    lit = self._float_literal(kw.value)
                    if lit:
                        yield self.violation(
                            ctx,
                            node,
                            f"dtype={lit} pins a float width in a "
                            "policy-governed package: take the width from "
                            "the PrecisionPolicy or follow an input "
                            "array's dtype",
                        )
        yield from self._mixed_gemms(ctx)

    def _mixed_gemms(self, ctx: FileContext) -> Iterator[Violation]:
        """Function-local taint: a @ b with one literal-width operand and
        one policy-derived operand upcasts the GEMM behind the policy."""
        for fn in _functions(ctx.tree):
            literal: Set[str] = set()
            policy: Set[str] = set()
            for node in _iter_scope(fn.body):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    tgt = node.targets[0]
                    if isinstance(tgt, ast.Name):
                        if self._literal_coercion(node.value):
                            literal.add(tgt.id)
                            policy.discard(tgt.id)
                        elif self._is_policy_coercion(node.value):
                            policy.add(tgt.id)
                            literal.discard(tgt.id)
            if not literal or not policy:
                continue
            for node in _iter_scope(fn.body):
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, ast.MatMult
                ):
                    sides = (node.left, node.right)
                    names = [
                        s.id for s in sides if isinstance(s, ast.Name)
                    ]
                    if any(n in literal for n in names) and any(
                        n in policy for n in names
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            f"`{fn.name}` multiplies a literal-width "
                            "operand against a policy-derived one: the "
                            "GEMM silently upcasts and the narrowed "
                            "policy buys nothing here",
                        )


# ---------------------------------------------------------------------------
# QL9xx — meta rules (engine-emitted; descriptors only)
# ---------------------------------------------------------------------------


class MetaRule(Rule):
    """Descriptor for a finding the *engine* emits.

    The engine owns the pragma bookkeeping, so these rules never run a
    check themselves — they exist so ``--list-rules``, ``--select``, and
    the SARIF rule metadata can see the codes.
    """

    meta_rule = True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


class PragmaReasonMeta(MetaRule):
    """A suppression must say why, or it rots into folklore."""

    code = "QL901"
    name = "pragma-no-reason"
    severity = "warning"
    description = "suppression pragma without a reason"


class PragmaUnusedMeta(MetaRule):
    """A pragma that masks nothing is a trap for the next edit."""

    code = "QL902"
    name = "pragma-unused"
    severity = "warning"
    description = "suppression pragma that no longer masks any finding"


# Imported late: rules_concurrency subclasses Rule from this module.
from .rules_concurrency import CONCURRENCY_RULES  # noqa: E402

ALL_RULES = (
    RawInverseRule(),
    UnseededRNGRule(),
    DtypeHygieneRule(),
    FlopLedgerRule(),
    InPlaceParamRule(),
    SilentExceptRule(),
    BackendBypassRule(),
    PrecisionBypassRule(),
) + CONCURRENCY_RULES + (
    PragmaReasonMeta(),
    PragmaUnusedMeta(),
)
