"""Tests for the high-level transform driver."""

import pytest

from repro import (
    TransformOptions,
    TransformResult,
    VerificationFailedError,
    transform,
)
from repro.scop import DepKind
from repro.workloads import CostModel
from tests.conftest import LISTING1, LISTING3


class TestDefaults:
    def test_full_run(self):
        result = transform(LISTING1, {"N": 12})
        assert isinstance(result, TransformResult)
        assert result.verified is True
        assert result.legality is not None and result.legality.ok
        assert result.speedup > 1.0
        assert result.num_tasks == result.info.num_tasks()

    def test_report_contents(self):
        result = transform(LISTING1, {"N": 10})
        text = result.report()
        assert "PipelineInfo" in text
        assert "legal" in text
        assert "matches sequential: True" in text
        assert "speed-up" in text

    def test_artifacts_consistent(self):
        result = transform(LISTING3, {"N": 10})
        assert len(result.task_ast.all_blocks()) == result.num_tasks
        assert len(list(result.schedule.walk())) > 5

    def test_verified_graph_pickles(self):
        """Verification leaves nothing bound to its store on the graph."""
        import pickle

        import numpy as np

        from repro.workloads import TABLE9

        result = transform(TABLE9["P3"].source(8))
        assert result.verified is True
        graph = result.graph
        back = pickle.loads(pickle.dumps(graph))
        assert [(t.task_id, t.statement, t.block_id, t.cost) for t in back] == [
            (t.task_id, t.statement, t.block_id, t.cost) for t in graph
        ]
        for a, b in zip(graph, back):
            assert np.array_equal(a.block.iterations, b.block.iterations)
        assert back.preds == graph.preds and back.succs == graph.succs


class TestOptions:
    def test_skip_checks(self):
        result = transform(
            LISTING1, {"N": 10}, TransformOptions(check=False, verify=False)
        )
        assert result.legality is None
        assert result.verified is None

    def test_coarsen_reduces_tasks(self):
        fine = transform(LISTING1, {"N": 12}, TransformOptions(verify=False))
        coarse = transform(
            LISTING1, {"N": 12}, TransformOptions(coarsen=4, verify=False)
        )
        assert coarse.num_tasks < fine.num_tasks

    def test_hybrid(self):
        from repro.workloads import MatmulKernel

        kern = MatmulKernel(2, "mm")
        plain = transform(kern.source(8), options=TransformOptions())
        hybrid = transform(
            kern.source(8), options=TransformOptions(hybrid=True, workers=8)
        )
        assert hybrid.speedup > plain.speedup

    def test_cost_model_applied(self):
        result = transform(
            LISTING1,
            {"N": 10},
            TransformOptions(
                verify=False, cost_model=CostModel({"S": 2.0, "R": 3.0})
            ),
        )
        scop = result.scop
        expected = 2.0 * len(scop.statement("S").points) + 3.0 * len(
            scop.statement("R").points
        )
        assert result.graph.total_cost() == pytest.approx(expected)

    def test_extra_kinds(self):
        src = (
            "for(i=0; i<6; i++) S: B[i][0] = f(A[i][0], B[i][0]);\n"
            "for(i=0; i<6; i++) T: A[i][0] = g(C[i][0], A[i][0]);"
        )
        result = transform(
            src, options=TransformOptions(kinds=(DepKind.FLOW, DepKind.ANTI))
        )
        assert result.verified

    def test_verification_failure_detected(self):
        """Nondeterministic statement functions legitimately break the
        sequential-vs-pipelined comparison; the driver must say so."""
        import itertools

        counter = itertools.count()

        with pytest.raises(VerificationFailedError):
            transform(
                "for(i=0; i<4; i++) S: A[i][0] = wobble(A[i][0]);\n"
                "for(i=0; i<4; i++) T: B[i][0] = wobble(A[i][0]);",
                funcs={"wobble": lambda x: float(next(counter))},
            )

    def test_measured_execution_attached(self):
        result = transform(
            LISTING1,
            {"N": 10},
            TransformOptions(exec_backend="serial", coarsen=4),
        )
        assert result.execution is not None
        assert result.execution.backend == "serial"
        assert result.execution.wall_time > 0.0
        assert "measured execution:" in result.report()

    def test_no_measured_execution_by_default(self):
        result = transform(LISTING1, {"N": 10})
        assert result.execution is None
        assert "measured execution:" not in result.report()

    def test_measured_execution_verified_against_sequential(self):
        result = transform(
            LISTING1,
            {"N": 10},
            TransformOptions(exec_backend="threads", fuse="on"),
        )
        assert result.verified is True
        assert result.execution.fused_iteration_coverage == 1.0

    def test_custom_funcs(self):
        result = transform(
            "for(i=0; i<4; i++) S: A[i][0] = myfn(A[i][0]);\n"
            "for(i=0; i<4; i++) T: B[i][0] = myfn(A[i][0]);",
            funcs={"myfn": lambda x: x + 1.0},
        )
        assert result.verified
