"""Measured execution: every backend must be bit-identical to sequential.

The acceptance property of the execution layer — P1–P10 run through the
compiled-loop serial path and fused dispatch on the serial, thread and
process backends, and every store matches ``run_sequential`` exactly.
"""

import pytest

from repro.interp import (
    BACKENDS,
    ExecutionStats,
    Interpreter,
    execute_measured,
)
from repro.pipeline import detect_pipeline
from repro.workloads import TABLE9
from tests.conftest import LISTING1

PKERNELS = sorted(TABLE9, key=lambda k: int(k[1:]))

#: (label, backend, fuse) — the three backends plus the compiled-loop
#: serial baseline they are all compared against.
CONFIGS = (
    ("interp-serial", "serial", "off"),
    ("fused-serial", "serial", "auto"),
    ("fused-threads", "threads", "auto"),
    ("fused-processes", "processes", "auto"),
)


def measured(source, backend, mode, workers=2, coarsen=16):
    interp = Interpreter.from_source(source, {}, fuse=mode)
    info = detect_pipeline(interp.scop, coarsen=coarsen)
    return execute_measured(interp, info, backend=backend, workers=workers)


class TestThreePathBitIdentity:
    @pytest.mark.parametrize("name", PKERNELS)
    def test_pkernel_all_paths(self, name):
        src = TABLE9[name].source(8)
        oracle = Interpreter.from_source(src, {})
        seq = oracle.run_sequential(oracle.new_store())
        for label, backend, mode in CONFIGS:
            store, stats = measured(src, backend, mode)
            assert seq.equal(store), f"{name}/{label} diverged"
            assert stats.backend == backend

    def test_listing1_all_paths(self):
        interp = Interpreter.from_source(LISTING1, {"N": 12})
        seq = interp.run_sequential(interp.new_store())
        for label, backend, mode in CONFIGS:
            fresh = Interpreter.from_source(LISTING1, {"N": 12}, fuse=mode)
            info = detect_pipeline(fresh.scop, coarsen=8)
            store, _ = execute_measured(
                fresh, info, backend=backend, workers=2
            )
            assert seq.equal(store), f"LISTING1/{label} diverged"


class TestExecutionStats:
    def test_unknown_backend_rejected(self):
        interp = Interpreter.from_source(TABLE9["P1"].source(8), {})
        info = detect_pipeline(interp.scop)
        with pytest.raises(ValueError, match="unknown execution backend"):
            execute_measured(interp, info, backend="gpu")
        assert "serial" in BACKENDS

    def test_serial_reports_one_worker(self):
        _, stats = measured(TABLE9["P1"].source(8), "serial", "off")
        assert stats.workers == 1
        assert stats.wall_time > 0.0

    def test_coverage_full_on_fusable_kernel(self):
        src = (
            "for(i=0; i<8; i++) for(j=0; j<8; j++) S: A[i][j] = f(A[i][j]);"
        )
        _, stats = measured(src, "serial", "auto")
        assert stats.blocks_total > 0
        assert stats.fused_iteration_coverage == 1.0
        assert stats.fused_block_coverage == 1.0
        assert stats.fused_fallback == {}

    def test_coverage_zero_when_fuse_off(self):
        _, stats = measured(TABLE9["P1"].source(8), "serial", "off")
        assert stats.blocks_fused == 0
        assert stats.fused_iteration_coverage == 0.0
        assert set(stats.dispatch_modes.values()) == {"interp"}

    def test_fallback_reasons_recorded(self):
        src = (
            "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=1; i<8; i++) R: C[i][0] = g(C[i-1][0], A[i][0]);"
        )
        _, stats = measured(src, "serial", "auto")
        assert 0.0 < stats.fused_iteration_coverage < 1.0
        assert stats.dispatch_modes == {"S": "fused", "R": "interp"}
        assert "recurrence" in stats.fused_fallback["R"]["reason"]

    def test_as_dict_is_json_ready(self):
        import json

        _, stats = measured(TABLE9["P2"].source(8), "serial", "auto")
        record = stats.as_dict()
        json.dumps(record)
        for key in (
            "backend",
            "workers",
            "fuse",
            "wall_time_s",
            "blocks_total",
            "fused_iteration_coverage",
            "fused_fallback",
        ):
            assert key in record

    def test_summary_readable(self):
        _, stats = measured(TABLE9["P1"].source(8), "threads", "auto")
        text = stats.summary()
        assert "threads" in text and "ms" in text

    def test_process_scheduler_stats_attached(self):
        _, stats = measured(TABLE9["P3"].source(8), "processes", "auto")
        assert stats.scheduler is not None
        # merged chain tasks run several member blocks each
        assert stats.scheduler["tasks"] == (
            len(stats.task_members) or stats.blocks_total
        )
        assert stats.scheduler["workers"] == 2

    def test_stats_is_frozen(self):
        _, stats = measured(TABLE9["P1"].source(8), "serial", "off")
        with pytest.raises(AttributeError):
            stats.backend = "threads"
        assert isinstance(stats, ExecutionStats)
