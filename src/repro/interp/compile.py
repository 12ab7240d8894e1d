"""Compilation of kernel statements to Python callables.

Each labelled assignment is translated once into a Python function that
executes a *batch* of iterations against an :class:`ArrayStore` — the same
compiled body is used by the sequential interpreter, the task scheduler, and
the emitted task programs, so all execution paths share identical
semantics.

The same module lowers statements that pass the whole-block legality
gate into declarative fused-closure specs (:func:`emit_closure_spec`);
the gate's helpers — :func:`linear_form`, :func:`has_flow_self_dependence`
and the :func:`elementwise` marking — live here with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from ..lang.ast import ArrayAccess, BinOp, Call, Expr, IntLit, VarRef
from ..lang.errors import SemanticError
from ..scop import Scop, ScopStatement
from ..scop.deps import DepKind, dependence_relation
from .store import ArrayStore

#: A compiled statement body: (store, funcs, iterations) -> None
StatementFn = Callable[[ArrayStore, Mapping[str, Callable], Iterable], None]

#: Compound-assignment operators and the binary operator each expands to.
#: ``/=`` floors like every division in the DSL (``_expr_to_py`` maps ``/``
#: to ``//`` as well), keeping value semantics uniform.
COMPOUND_OPS: dict[str, str] = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "//",
    "%=": "%",
}


@dataclass(frozen=True)
class CompiledStatement:
    """A statement body compiled to a Python batch executor."""

    name: str
    source: str
    fn: StatementFn
    func_names: tuple[str, ...]

    def __call__(self, store, funcs, iterations) -> None:
        self.fn(store, funcs, iterations)


def _expr_to_py(
    expr: Expr,
    loop_vars: set[str],
    params: Mapping[str, int],
    offsets: Mapping[str, tuple[int, ...]],
    funcs: set[str],
) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, VarRef):
        if expr.name in loop_vars:
            return expr.name
        if expr.name in params:
            return str(params[expr.name])
        raise SemanticError(f"unknown variable {expr.name!r}", expr.location)
    if isinstance(expr, BinOp):
        lhs = _expr_to_py(expr.lhs, loop_vars, params, offsets, funcs)
        rhs = _expr_to_py(expr.rhs, loop_vars, params, offsets, funcs)
        op = "//" if expr.op == "/" else expr.op
        return f"({lhs} {op} {rhs})"
    if isinstance(expr, ArrayAccess):
        idx = []
        offs = offsets[expr.array]
        for k, e in enumerate(expr.indices):
            sub = _expr_to_py(e, loop_vars, params, offsets, funcs)
            off = offs[k]
            idx.append(f"({sub}) - ({off})" if off else sub)
        return f"__arr_{expr.array}[{', '.join(idx)}]"
    if isinstance(expr, Call):
        funcs.add(expr.func)
        args = ", ".join(
            _expr_to_py(a, loop_vars, params, offsets, funcs)
            for a in expr.args
        )
        return f"__fn_{expr.func}({args})"
    raise SemanticError(f"cannot compile expression {expr!r}")


def compile_statement(scop: Scop, stmt: ScopStatement) -> CompiledStatement:
    """Compile one statement into a batch executor over iteration rows."""
    loop_vars = set(stmt.space.dims)
    offsets = {
        name: tuple(lo for lo, _ in scop.array_extent(name))
        for name in scop.arrays
    }
    func_names: set[str] = set()

    lhs = _expr_to_py(
        stmt.assign.target, loop_vars, scop.params, offsets, func_names
    )
    rhs = _expr_to_py(
        stmt.assign.value, loop_vars, scop.params, offsets, func_names
    )
    if stmt.assign.op != "=":
        try:
            binop = COMPOUND_OPS[stmt.assign.op]
        except KeyError:
            raise SemanticError(
                f"unsupported assignment operator {stmt.assign.op!r} "
                f"in statement {stmt.name}; supported: "
                f"=, {', '.join(sorted(COMPOUND_OPS))}",
                stmt.assign.location,
            ) from None
        rhs = f"{lhs} {binop} ({rhs})"

    arrays_used = sorted(
        {a.array for a in stmt.accesses}
    )
    ivs = ", ".join(stmt.space.dims)
    unpack = f"for {ivs} in __iters:" if stmt.depth > 1 else (
        f"for ({ivs},) in __iters:"
    )
    lines = [
        f"def __stmt_{stmt.name}(__store, __funcs, __iters):",
    ]
    for arr in arrays_used:
        lines.append(f"    __arr_{arr} = __store.arrays[{arr!r}].data")
    for fname in sorted(func_names):
        lines.append(f"    __fn_{fname} = __funcs[{fname!r}]")
    lines.append(f"    {unpack}")
    lines.append(f"        {lhs} = {rhs}")
    source = "\n".join(lines)

    namespace: dict[str, object] = {}
    exec(source, namespace)  # noqa: S102 - compiling our own AST
    fn = namespace[f"__stmt_{stmt.name}"]
    return CompiledStatement(stmt.name, source, fn, tuple(sorted(func_names)))


def compile_scop(scop: Scop) -> dict[str, CompiledStatement]:
    """Compile every statement of a SCoP."""
    return {s.name: compile_statement(scop, s) for s in scop.statements}


# ----------------------------------------------------------------------
# whole-block legality helpers
# ----------------------------------------------------------------------
def elementwise(fn: Callable) -> Callable:
    """Mark ``fn`` as safe to call with (broadcastable) array arguments."""
    fn.elementwise = True  # type: ignore[attr-defined]
    return fn


def is_elementwise(fn: object) -> bool:
    return isinstance(fn, np.ufunc) or bool(getattr(fn, "elementwise", False))


def has_flow_self_dependence(scop: Scop, stmt: ScopStatement) -> bool:
    """Presburger check: does any iteration read a value a *different*
    iteration of the same statement wrote?  Such a recurrence forbids
    whole-block execution — the block would observe pre-block values
    under gather-before-scatter."""
    return not dependence_relation(scop, stmt, stmt, DepKind.FLOW).is_empty()


class NotAffine(Exception):
    """A subscript expression has no affine form over the loop variables."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def linear_form(
    expr: Expr, loop_vars: tuple[str, ...], params: Mapping[str, int]
) -> tuple[dict[str, int], int]:
    """``expr`` as ``sum(coeffs[v] * v) + const`` or raise NotAffine."""
    if isinstance(expr, IntLit):
        return {}, expr.value
    if isinstance(expr, VarRef):
        if expr.name in loop_vars:
            return {expr.name: 1}, 0
        if expr.name in params:
            return {}, params[expr.name]
        raise NotAffine(f"unknown variable {expr.name!r} in subscript")
    if isinstance(expr, BinOp):
        lc, lk = linear_form(expr.lhs, loop_vars, params)
        rc, rk = linear_form(expr.rhs, loop_vars, params)
        if expr.op in ("+", "-"):
            sign = 1 if expr.op == "+" else -1
            out = dict(lc)
            for v, c in rc.items():
                out[v] = out.get(v, 0) + sign * c
            return {v: c for v, c in out.items() if c}, lk + sign * rk
        if expr.op == "*":
            if not lc:
                return {v: lk * c for v, c in rc.items() if lk * c}, lk * rk
            if not rc:
                return {v: rk * c for v, c in lc.items() if rk * c}, lk * rk
            raise NotAffine("product of two loop variables in subscript")
        if expr.op in ("/", "%"):
            if lc or rc:
                raise NotAffine(f"loop variable under {expr.op!r} in subscript")
            if rk == 0:
                raise NotAffine("division by zero in subscript")
            return {}, lk // rk if expr.op == "/" else lk % rk
        raise NotAffine(f"operator {expr.op!r} in subscript")
    raise NotAffine(f"non-affine subscript {expr!r}")


# ----------------------------------------------------------------------
# declarative closure specs (megakernel fusion front end)
# ----------------------------------------------------------------------
def emit_closure_spec(scop: Scop, stmt: ScopStatement, funcs=None):
    """Lower one statement into a declarative fused-closure spec.

    Applies the whole-block legality gate — affine slice-form subscripts,
    positive strides, injective write, no Presburger flow
    self-dependence, elementwise-only calls — and reports each refusal
    as :class:`~repro.interp.fused.NotFusable` with a stable RPA06x code
    so coverage reports can aggregate by cause.  Returns a
    :class:`~repro.interp.fused.StatementSpec` (pure data: building the
    closure from it is :func:`~repro.interp.fused.build_closure`'s job).
    """
    from .fused import (
        REDUCTION_IDENTITY,
        NotFusable,
        StatementSpec,
    )

    loop_vars = tuple(stmt.space.dims)
    if not loop_vars:
        raise NotFusable("statement has no loop dimensions", "RPA060")
    params = scop.params
    offsets = {
        name: tuple(lo for lo, _ in scop.array_extent(name))
        for name in scop.arrays
    }

    if stmt.assign.op != "=" and stmt.assign.op not in COMPOUND_OPS:
        raise NotFusable(
            f"unsupported assignment operator {stmt.assign.op!r}", "RPA061"
        )

    def access_dims(acc: ArrayAccess) -> tuple:
        dims: list[tuple] = []
        seen: set[str] = set()
        for k, idx in enumerate(acc.indices):
            try:
                coeffs, const = linear_form(idx, loop_vars, params)
            except NotAffine as exc:
                raise NotFusable(
                    f"{exc.reason} ({acc.array!r})", "RPA062"
                ) from None
            if len(coeffs) > 1:
                raise NotFusable(
                    f"coupled subscript {idx} of {acc.array!r} "
                    "(two loop variables in one dimension)",
                    "RPA062",
                )
            const -= offsets[acc.array][k]
            if not coeffs:
                dims.append((None, 0, const))
                continue
            (var, coeff), = coeffs.items()
            if coeff <= 0:
                raise NotFusable(
                    f"non-positive stride {coeff} in subscript {idx} "
                    f"of {acc.array!r}",
                    "RPA063",
                )
            if var in seen:
                raise NotFusable(
                    f"loop variable {var!r} repeated across dimensions "
                    f"of {acc.array!r} (diagonal access)",
                    "RPA064",
                )
            seen.add(var)
            dims.append((var, coeff, const))
        return tuple(dims)

    write_dims = access_dims(stmt.assign.target)
    write_vars = {var for var, _, _ in write_dims if var is not None}
    missing = set(loop_vars) - write_vars
    if missing:
        raise NotFusable(
            f"write to {stmt.assign.target.array!r} does not use loop "
            f"variable(s) {sorted(missing)} (non-injective scatter)",
            "RPA065",
        )

    if has_flow_self_dependence(scop, stmt):
        raise NotFusable(
            "flow self-dependence (recurrence) — block must run scalar",
            "RPA066",
        )

    func_names: set[str] = set()

    def node(expr: Expr) -> tuple:
        if isinstance(expr, IntLit):
            return ("int", expr.value)
        if isinstance(expr, VarRef):
            if expr.name in loop_vars:
                return ("iv", expr.name)
            if expr.name in params:
                return ("int", params[expr.name])
            raise SemanticError(
                f"unknown variable {expr.name!r}", expr.location
            )
        if isinstance(expr, BinOp):
            op = "//" if expr.op == "/" else expr.op
            return ("bin", op, node(expr.lhs), node(expr.rhs))
        if isinstance(expr, ArrayAccess):
            return ("access", expr.array, access_dims(expr))
        if isinstance(expr, Call):
            func_names.add(expr.func)
            return ("call", expr.func, tuple(node(a) for a in expr.args))
        raise NotFusable(f"cannot fuse expression {expr!r}", "RPA062")

    rhs = node(stmt.assign.value)

    if funcs is not None:
        for fname in sorted(func_names):
            fn = funcs.get(fname)
            if fn is None or not is_elementwise(fn):
                raise NotFusable(
                    f"opaque call to non-elementwise function {fname!r}",
                    "RPA067",
                )

    op = stmt.assign.op
    return StatementSpec(
        name=stmt.name,
        loop_vars=loop_vars,
        op="=" if op == "=" else COMPOUND_OPS[op],
        write=("access", stmt.assign.target.array, write_dims),
        rhs=rhs,
        reduction_identity=REDUCTION_IDENTITY.get(op),
    )
