"""Tests for task-program code generation and execution."""

import pytest

from repro.codegen import (
    emit_task_program,
    load_task_program,
    run_generated,
    statement_columns,
)
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.tasking import OmpTaskSystem


class TestEmittedSource:
    def test_structure(self, listing1_interp):
        info = detect_pipeline(listing1_interp.scop)
        source = emit_task_program(info)
        assert "WRITE_NUM = 2" in source
        assert "def task_S(payload):" in source
        assert "def task_R(payload):" in source
        assert "def build_tasks(system, run_block):" in source
        assert "in_depend=" in source and "out_depend=" in source

    def test_columns_in_program_order(self, listing3_interp):
        info = detect_pipeline(listing3_interp.scop)
        ast = generate_task_ast(info)
        assert statement_columns(ast) == {"S": 0, "R": 1, "U": 2}

    def test_source_is_valid_python(self, listing1_interp):
        info = detect_pipeline(listing1_interp.scop)
        module = load_task_program(emit_task_program(info))
        assert callable(module.build_tasks)
        assert module.WRITE_NUM == 2

    def test_task_count_matches_info(self, listing1_interp):
        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        module = load_task_program(emit_task_program(info))
        system = OmpTaskSystem(write_num=module.WRITE_NUM)
        created = module.build_tasks(system, lambda stmt, iters: None)
        assert len(created) == info.num_tasks()

    def test_custom_cost_embedded(self, listing1_interp):
        info = detect_pipeline(listing1_interp.scop)
        source = emit_task_program(info, cost_of_block=lambda b: 42.0)
        assert "cost=42.0" in source


class TestGeneratedExecution:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential(self, listing1_interp, workers):
        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, system, stats = run_generated(info, interp, store, workers)
        assert stats["tasks"] == len(system)
        assert seq.equal(store)

    def test_three_nests(self, listing3_interp):
        interp = listing3_interp
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, system, stats = run_generated(info, interp, store, workers=4)
        assert stats["tasks"] == len(system) and seq.equal(store)
        assert len(system) == info.num_tasks()

    def test_generated_for_pkernel(self):
        from repro.workloads import TABLE9

        kern = TABLE9["P3"]
        interp = Interpreter.from_source(kern.source(8), {})
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, system, stats = run_generated(info, interp, store, workers=3)
        assert stats["tasks"] == len(system) and seq.equal(store)

    def test_generated_deterministic_across_runs(self, listing1_interp):
        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        stores = []
        for _ in range(2):
            store = interp.new_store()
            run_generated(info, interp, store, workers=4)
            stores.append(store)
        assert stores[0].equal(stores[1])
