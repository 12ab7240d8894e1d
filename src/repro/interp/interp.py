"""Reference sequential interpreter.

Executes a kernel program in its original sequential order against an
:class:`~repro.interp.store.ArrayStore`.  This is the correctness oracle:
every transformed execution (task scheduler, generated code, any topological
order of the task graph) must produce bit-identical arrays.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..lang.ast import Assign, Loop, Program
from ..scop import Scop, extract_scop
from .compile import CompiledStatement, compile_scop, elementwise
from .fused import FusedProgram, fuse_scop
from .store import ArrayStore

#: Default opaque functions for kernels written with f/g/h-style calls.
#: Deterministic, order-sensitive (non-commutative beyond the first
#: argument) so reordering bugs change the result.
DEFAULT_FUNCS: dict[str, Callable] = {}


@elementwise
def _mix(*args: float) -> float:
    # Pure float64 arithmetic — maps over NumPy arrays with bit-identical
    # results, so fused block closures may call it on whole slices.
    acc = 1.0
    for k, a in enumerate(args):
        acc = (acc * 31.0 + (k + 1) * a) % 65521.0
    return acc


for _name in ("f", "g", "h", "u", "v", "w", "compute", "dot"):
    DEFAULT_FUNCS[_name] = _mix

# min/max are real ufuncs (not _mix): the reduction kernels rely on
# their associativity, which the pattern portfolio proves and the fuzz
# campaign exercises.
DEFAULT_FUNCS["min"] = np.minimum
DEFAULT_FUNCS["max"] = np.maximum


class Interpreter:
    """Sequential executor for an extracted SCoP and its source program."""

    def __init__(
        self,
        program: Program,
        scop: Scop,
        funcs: Mapping[str, Callable] | None = None,
        fuse: str = "auto",
    ):
        if fuse not in ("auto", "on", "off"):
            raise ValueError(
                f"fuse must be 'auto', 'on' or 'off', got {fuse!r}"
            )
        self.program = program
        self.scop = scop
        self.funcs = dict(DEFAULT_FUNCS)
        if funcs:
            self.funcs.update(funcs)
        self.compiled: dict[str, CompiledStatement] = compile_scop(scop)
        self.fuse = fuse
        self._fused_program: FusedProgram | None = None
        #: Per-path execution counters, filled by :meth:`run_block`.
        self.block_counters = {
            "fused_blocks": 0,
            "scalar_blocks": 0,
            "fused_iterations": 0,
            "scalar_iterations": 0,
        }
        missing = {
            f
            for c in self.compiled.values()
            for f in c.func_names
            if f not in self.funcs
        }
        if missing:
            raise KeyError(f"no implementation for functions: {sorted(missing)}")
        if fuse == "on":
            # Fail at construction, not mid-execution: ``on`` asserts full
            # coverage, so build the plan (and its SemanticError naming
            # every refused statement) eagerly.
            self.fused_program

    # ------------------------------------------------------------------
    @staticmethod
    def from_source(
        source_or_program: str | Program,
        params: Mapping[str, int],
        funcs: Mapping[str, Callable] | None = None,
        fuse: str = "auto",
    ) -> "Interpreter":
        from ..lang import parse
        from ..obs.spans import span

        if isinstance(source_or_program, str):
            with span("frontend.parse"):
                program = parse(source_or_program)
        else:
            program = source_or_program
        scop = extract_scop(program, dict(params))
        return Interpreter(program, scop, funcs, fuse=fuse)

    @property
    def fused_program(self) -> FusedProgram:
        """Lazily built fusion plan (``--fuse on`` asserts full coverage)."""
        if self._fused_program is None:
            plan = fuse_scop(self.scop, self.funcs)
            if self.fuse == "on":
                plan.require_full()
            self._fused_program = plan
        return self._fused_program

    def adopt_fused(self, program: FusedProgram) -> None:
        """Install a fusion plan built elsewhere (worker processes receive
        the parent's plan as specs instead of re-running the Presburger
        legality analysis per worker)."""
        self._fused_program = program

    def fused_kernel(self, statement: str):
        """The fused closure for ``statement`` (or a chain label), or None
        when fusion is off / refused for it."""
        if self.fuse == "off":
            return None
        return self.fused_program.get(statement)

    # ------------------------------------------------------------------
    def new_store(self, init: str = "index") -> ArrayStore:
        return ArrayStore.for_scop(self.scop, init)

    def run_sequential(self, store: ArrayStore) -> ArrayStore:
        """Execute the program in original order (handles imperfect nests)."""
        for nest in self.program.nests:
            self._run_loop(nest, {}, store)
        return store

    def _run_loop(
        self, loop: Loop, env: dict[str, int], store: ArrayStore
    ) -> None:
        from ..scop.extract import to_affine

        bound_vars = set(env)
        lb = to_affine(loop.lower, bound_vars, self.scop.params).evaluate(env)
        ub = to_affine(loop.upper, bound_vars, self.scop.params).evaluate(env)
        hi = ub if loop.upper_strict else ub + 1
        for value in range(lb, hi):
            env[loop.var] = value
            for item in loop.body:
                if isinstance(item, Loop):
                    self._run_loop(item, env, store)
                else:
                    self._run_statement(item, env, store)
        env.pop(loop.var, None)

    def _run_statement(
        self, stmt: Assign, env: dict[str, int], store: ArrayStore
    ) -> None:
        compiled = self.compiled[stmt.label]
        sstmt = self.scop.statement(stmt.label)
        point = tuple(env[v] for v in sstmt.space.dims)
        compiled(store, self.funcs, [point])

    # ------------------------------------------------------------------
    def run_block(
        self, store: ArrayStore, statement: str, iterations: np.ndarray
    ) -> None:
        """Execute one pipeline block (a batch of iterations of a statement).

        Fallback ladder: fused closure (when ``fuse`` is not ``'off'``) →
        compiled-loop body.  Both paths are bit-identical by construction.
        """
        iters = np.asarray(iterations, dtype=np.int64)
        if self.fuse != "off":
            fused = self.fused_program.get(statement)
            if fused is not None:
                fused(store, self.funcs, iters)
                self.block_counters["fused_blocks"] += 1
                self.block_counters["fused_iterations"] += len(iters)
                return
        self.compiled[statement](store, self.funcs, iters.tolist())
        self.block_counters["scalar_blocks"] += 1
        self.block_counters["scalar_iterations"] += len(iters)

    def execute_blocks_in_order(
        self, store: ArrayStore, blocks: list
    ) -> ArrayStore:
        """Execute :class:`~repro.schedule.astgen.TaskBlock` items in the
        given order — used to validate topological orders of the task graph."""
        for block in blocks:
            self.run_block(store, block.statement, block.iterations)
        return store
