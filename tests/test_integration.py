"""End-to-end integration tests: the full stack on the paper's kernels.

Each test runs frontend → SCoP → Algorithm 1 → Algorithm 2 → task AST →
task graph → execution, and compares the pipelined result (``run_graph``
on the work-stealing scheduler or the generated CreateTask program)
bit-for-bit against the sequential interpreter.
"""

import pytest

from repro.codegen import run_generated
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import build_schedule, generate_task_ast
from repro.scop import DepKind
from repro.tasking import TaskGraph, simulate
from repro.workloads import TABLE9, MatmulKernel
from tests.conftest import LISTING1, LISTING3, run_blocks


def pipeline_roundtrip(interp: Interpreter, workers: int = 4, **detect_kw):
    info = detect_pipeline(interp.scop, **detect_kw)
    graph = TaskGraph.from_task_ast(generate_task_ast(info))
    seq = interp.run_sequential(interp.new_store())
    par = interp.new_store()
    run_blocks(graph, interp, par, workers=workers)
    return seq, par, info, graph


class TestPaperListings:
    @pytest.mark.parametrize("n", [6, 9, 16])
    def test_listing1(self, n):
        interp = Interpreter.from_source(LISTING1, {"N": n})
        seq, par, info, graph = pipeline_roundtrip(interp)
        assert seq.equal(par)
        assert len(graph) == info.num_tasks()

    @pytest.mark.parametrize("n", [8, 12])
    def test_listing3(self, n):
        interp = Interpreter.from_source(LISTING3, {"N": n})
        seq, par, _, _ = pipeline_roundtrip(interp)
        assert seq.equal(par)

    @pytest.mark.parametrize("coarsen", [1, 2, 5])
    def test_listing3_coarsened(self, coarsen):
        interp = Interpreter.from_source(LISTING3, {"N": 12})
        seq, par, _, _ = pipeline_roundtrip(interp, coarsen=coarsen)
        assert seq.equal(par)


class TestPKernels:
    @pytest.mark.parametrize("name", sorted(TABLE9))
    def test_pipelined_execution_correct(self, name):
        interp = Interpreter.from_source(TABLE9[name].source(8), {})
        seq, par, info, _ = pipeline_roundtrip(interp)
        assert seq.equal(par)
        assert len(info.pipeline_maps) >= TABLE9[name].num_nests - 1


class TestMatmulChains:
    @pytest.mark.parametrize(
        "kernel",
        [MatmulKernel(2, "mm"), MatmulKernel(3, "gmm"), MatmulKernel(2, "gmmt")],
        ids=lambda k: k.name,
    )
    def test_pipelined_execution_correct(self, kernel):
        interp = Interpreter.from_source(kernel.source(8), {})
        seq, par, _, _ = pipeline_roundtrip(interp)
        assert seq.equal(par)


class TestGeneratedCode:
    @pytest.mark.parametrize("name", ["P1", "P5", "P9"])
    def test_generated_program_correct(self, name):
        interp = Interpreter.from_source(TABLE9[name].source(6), {})
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, system, stats = run_generated(info, interp, store, workers=4)
        assert stats["tasks"] == len(system) and seq.equal(store)


class TestScheduleTreeConsistency:
    def test_tree_and_ast_agree_on_task_count(self):
        interp = Interpreter.from_source(LISTING3, {"N": 12})
        info = detect_pipeline(interp.scop)
        tree = build_schedule(info)
        ast = generate_task_ast(info, tree)
        assert len(ast.all_blocks()) == info.num_tasks()


class TestSimulationSanity:
    def test_more_workers_never_slower(self):
        interp = Interpreter.from_source(TABLE9["P5"].source(10), {})
        info = detect_pipeline(interp.scop)
        graph = TaskGraph.from_task_ast(generate_task_ast(info))
        makespans = [
            simulate(graph, workers=w).makespan for w in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_workers_one_equals_total(self):
        interp = Interpreter.from_source(LISTING1, {"N": 10})
        info = detect_pipeline(interp.scop)
        graph = TaskGraph.from_task_ast(generate_task_ast(info))
        assert simulate(graph, workers=1).makespan == graph.total_cost()


class TestExtendedKinds:
    def test_all_kinds_roundtrip(self):
        src = (
            "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0], A[i][0]);\n"
            "for(i=0; i<8; i++) T: B[i][0] = g(A[i][0], B[i][0]);\n"
            "for(i=0; i<8; i++) U: A[i][0] = h(B[i][0], A[i][0]);"
        )
        interp = Interpreter.from_source(src, {})
        seq, par, info, _ = pipeline_roundtrip(
            interp, kinds=tuple(DepKind)
        )
        assert seq.equal(par)
        assert len(info.pipeline_maps) >= 2
