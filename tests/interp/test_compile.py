"""Tests for statement compilation."""

import numpy as np
import pytest

from repro.interp import (
    ArrayStore,
    Interpreter,
    compile_statement,
    elementwise,
    is_elementwise,
)
from repro.lang import parse
from repro.scop import extract_scop


def setup(src, **params):
    scop = extract_scop(parse(src), params or None)
    return scop, ArrayStore.for_scop(scop, init="zeros")


class TestSemantics:
    def test_simple_assignment(self):
        scop, store = setup("for(i=0; i<4; i++) S: A[i][0] = f(B[i][0]);")
        compiled = compile_statement(scop, scop.statement("S"))
        store["B"].data[:] = 3.0
        compiled(store, {"f": lambda x: x * 2}, [(0,), (2,)])
        assert store["A"].data[0, 0] == 6.0
        assert store["A"].data[2, 0] == 6.0
        assert store["A"].data[1, 0] == 0.0

    def test_plus_assign(self):
        scop, store = setup("for(i=0; i<4; i++) S: A[i][0] += B[i][0];")
        store["A"].data[:] = 1.0
        store["B"].data[:] = 2.0
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {}, [(1,)])
        assert store["A"].data[1, 0] == 3.0

    def test_arithmetic_rhs(self):
        scop, store = setup(
            "for(i=0; i<4; i++) S: A[i][0] = 2*B[i][0] + 5 - i;"
        )
        store["B"].data[:] = 10.0
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {}, [(3,)])
        assert store["A"].data[3, 0] == 22.0

    def test_param_in_rhs(self):
        scop, store = setup(
            "for(i=0; i<4; i++) S: A[i][0] = f(B[i][0], N);", N=7
        )
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {"f": lambda b, n: n}, [(0,)])
        assert store["A"].data[0, 0] == 7.0

    def test_offsets_applied(self):
        scop, store = setup("for(i=0; i<5; i++) S: A[i][0] = f(A[i-2][0]);")
        view = store["A"]
        view[(-2, 0)] = 9.0
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {"f": lambda x: x + 1}, [(0,)])
        assert view[(0, 0)] == 10.0

    def test_depth_one_unpack(self):
        scop, store = setup("for(i=0; i<3; i++) S: A[i][0] = f(A[i][0]);")
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {"f": lambda x: x + 1}, [(0,), (1,), (2,)])
        assert store["A"].data[:3, 0].tolist() == [1.0, 1.0, 1.0]

    def test_nested_calls(self):
        scop, store = setup(
            "for(i=0; i<3; i++) S: A[i][0] = f(g(B[i][0]), 2);"
        )
        compiled = compile_statement(scop, scop.statement("S"))
        assert set(compiled.func_names) == {"f", "g"}
        compiled(
            store, {"f": lambda a, b: a + b, "g": lambda x: x * 10}, [(0,)]
        )
        assert store["A"].data[0, 0] == 2.0

    def test_source_readable(self):
        scop, _ = setup("for(i=0; i<3; i++) S: A[i][0] = f(A[i][0]);")
        compiled = compile_statement(scop, scop.statement("S"))
        assert "__stmt_S" in compiled.source
        assert "__arr_A" in compiled.source


class TestCompoundAssign:
    def test_minus_assign(self):
        scop, store = setup("for(i=0; i<4; i++) S: A[i][0] -= B[i][0];")
        store["A"].data[:] = 10.0
        store["B"].data[:] = 3.0
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {}, [(2,)])
        assert store["A"].data[2, 0] == 7.0
        assert store["A"].data[0, 0] == 10.0

    def test_star_assign(self):
        scop, store = setup("for(i=0; i<4; i++) S: A[i][0] *= B[i][0];")
        store["A"].data[:] = 5.0
        store["B"].data[:] = 4.0
        compiled = compile_statement(scop, scop.statement("S"))
        compiled(store, {}, [(1,)])
        assert store["A"].data[1, 0] == 20.0

    def test_compound_reads_target(self):
        # ``A[i] -= ...`` must register a read of the target, so the
        # dependence analysis sees the recurrence.
        scop, _ = setup("for(i=0; i<4; i++) S: A[i][0] -= B[i][0];")
        stmt = scop.statement("S")
        assert any(a.array == "A" for a in stmt.reads)

    def test_unknown_operator_message(self):
        from repro.lang.errors import SemanticError

        scop, store = setup("for(i=0; i<4; i++) S: A[i][0] += B[i][0];")
        stmt = scop.statement("S")
        object.__setattr__(stmt.assign, "op", "@=")
        with pytest.raises(SemanticError, match="unsupported assignment"):
            compile_statement(scop, stmt)

    def test_end_to_end_sequential(self):
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) S: A[i][0] = 2;\n"
            "for(i=0; i<4; i++) T: A[i][0] *= 3;",
            {},
        )
        store = interp.run_sequential(interp.new_store())
        assert store["A"].data[:4, 0].tolist() == [6.0, 6.0, 6.0, 6.0]


class TestInterpreterChecks:
    def test_missing_function_rejected(self):
        with pytest.raises(KeyError, match="no implementation"):
            Interpreter.from_source(
                "for(i=0; i<3; i++) S: A[i][0] = myfunc(A[i][0]);", {}
            )

    def test_custom_function_supplied(self):
        interp = Interpreter.from_source(
            "for(i=0; i<3; i++) S: A[i][0] = myfunc(A[i][0]);",
            {},
            funcs={"myfunc": lambda x: 1.0},
        )
        store = interp.run_sequential(interp.new_store())
        assert store["A"].data[:3, 0].tolist() == [1.0, 1.0, 1.0]

    def test_batching_equals_per_point(self, listing1_interp):
        interp = listing1_interp
        S = interp.scop.statement("S")
        batched = interp.new_store()
        interp.run_block(batched, "S", S.points.points)
        single = interp.new_store()
        for row in S.points.points:
            interp.run_block(single, "S", row.reshape(1, -1))
        assert batched.equal(single)


class TestElementwiseMarking:
    def test_decorator_marks(self):
        fn = elementwise(lambda x: x + 1)
        assert is_elementwise(fn)

    def test_plain_callable_not_marked(self):
        assert not is_elementwise(lambda x: x)

    def test_numpy_ufunc_is_elementwise(self):
        assert is_elementwise(np.sqrt)

    def test_default_funcs_are_elementwise(self):
        from repro.interp.interp import DEFAULT_FUNCS

        assert all(is_elementwise(f) for f in DEFAULT_FUNCS.values())
