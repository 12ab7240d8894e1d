"""Tests for hybrid (pipeline + intra-nest parallel) task graphs."""

import pytest

from repro.bench import build_scop
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.tasking import (
    TaskGraph,
    hybrid_task_graph,
    intra_block_edges,
    simulate,
)
from repro.workloads import TABLE9, MatmulKernel
from tests.conftest import run_blocks


class TestIntraBlockEdges:
    def test_parallel_statement_has_no_edges(self):
        scop = build_scop(MatmulKernel(2, "mm").source(8))
        info = detect_pipeline(scop)
        assert intra_block_edges(scop, info, "M1") == set()

    def test_sequential_statement_chains(self, listing1_scop_small):
        info = detect_pipeline(listing1_scop_small)
        edges = intra_block_edges(listing1_scop_small, info, "S")
        n = info.blockings["S"].num_blocks
        assert all((k, k + 1) in edges for k in range(n - 1))

    def test_generalized_matmul_chains(self):
        scop = build_scop(MatmulKernel(2, "gmm").source(8))
        info = detect_pipeline(scop)
        edges = intra_block_edges(scop, info, "M1")
        assert edges  # neighbour coupling serializes rows


class TestCorrectness:
    @pytest.mark.parametrize(
        "kernel",
        [MatmulKernel(2, "mm"), MatmulKernel(3, "mm"), MatmulKernel(2, "gmm")],
        ids=lambda k: k.name,
    )
    def test_threaded_execution_matches_sequential(self, kernel):
        interp = Interpreter.from_source(kernel.source(8), {})
        info = detect_pipeline(interp.scop)
        graph = hybrid_task_graph(interp.scop, info)
        seq = interp.run_sequential(interp.new_store())
        par = interp.new_store()
        run_blocks(graph, interp, par)
        assert seq.equal(par)

    @pytest.mark.parametrize("name", ["P1", "P5"])
    def test_pkernels_still_correct(self, name):
        interp = Interpreter.from_source(TABLE9[name].source(8), {})
        info = detect_pipeline(interp.scop)
        graph = hybrid_task_graph(interp.scop, info)
        seq = interp.run_sequential(interp.new_store())
        par = interp.new_store()
        run_blocks(graph, interp, par)
        assert seq.equal(par)

    def test_hybrid_with_coarsening(self):
        from repro import TransformOptions, transform

        kern = MatmulKernel(2, "mm")
        result = transform(
            kern.source(10),
            options=TransformOptions(hybrid=True, coarsen=3, workers=4),
        )
        assert result.verified
        assert result.legality is not None and result.legality.ok

    def test_acyclic(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        hybrid_task_graph(listing3_scop, info).validate()


class TestPerformance:
    def test_dominates_pure_pipeline_on_matmul(self):
        kern = MatmulKernel(3, "mm")
        scop = build_scop(kern.source(16))
        cost = kern.cost_model(16)
        info = detect_pipeline(scop)
        ast = generate_task_ast(info)
        pipe = TaskGraph.from_task_ast(ast, cost_of_block=cost.block_cost)
        hyb = hybrid_task_graph(scop, info, ast, cost_of_block=cost.block_cost)
        sp = pipe.total_cost() / simulate(pipe, workers=8).makespan
        sh = hyb.total_cost() / simulate(hyb, workers=8).makespan
        assert sh > sp
        assert sh > 6.0  # near full 8-thread scaling

    def test_no_change_on_fully_sequential_kernels(self):
        kern = MatmulKernel(2, "gmm")
        scop = build_scop(kern.source(12))
        cost = kern.cost_model(12)
        info = detect_pipeline(scop)
        ast = generate_task_ast(info)
        pipe = TaskGraph.from_task_ast(ast, cost_of_block=cost.block_cost)
        hyb = hybrid_task_graph(scop, info, ast, cost_of_block=cost.block_cost)
        assert simulate(hyb, workers=8).makespan == pytest.approx(
            simulate(pipe, workers=8).makespan
        )

    def test_never_slower_than_pure_pipeline(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        ast = generate_task_ast(info)
        pipe = TaskGraph.from_task_ast(ast)
        hyb = hybrid_task_graph(listing3_scop, info, ast)
        assert (
            simulate(hyb, workers=8).makespan
            <= simulate(pipe, workers=8).makespan + 1e-9
        )
