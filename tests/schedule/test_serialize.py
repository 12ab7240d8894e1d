"""Tests for task-AST serialization."""

import numpy as np
import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import (
    dumps_task_ast,
    generate_task_ast,
    load_task_ast,
    loads_task_ast,
    save_task_ast,
)
from repro.tasking import TaskGraph
from tests.conftest import LISTING1, LISTING3, run_blocks


def make_ast(source, params):
    scop_interp = Interpreter.from_source(source, params)
    info = detect_pipeline(scop_interp.scop)
    return scop_interp, generate_task_ast(info)


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        _, ast = make_ast(LISTING3, {"N": 12})
        path = str(tmp_path / "ast.npz")
        save_task_ast(path, ast)
        back = load_task_ast(path)
        assert [n.statement for n in back.nests] == [
            n.statement for n in ast.nests
        ]
        for a, b in zip(ast.all_blocks(), back.all_blocks()):
            assert a.end == b.end
            assert a.block_id == b.block_id
            assert a.in_tokens == b.in_tokens
            assert a.out_token == b.out_token
            assert np.array_equal(a.iterations, b.iterations)

    def test_bytes_roundtrip(self):
        _, ast = make_ast(LISTING1, {"N": 10})
        back = loads_task_ast(dumps_task_ast(ast))
        assert len(back.all_blocks()) == len(ast.all_blocks())

    def test_loaded_ast_executes_correctly(self, tmp_path):
        """Task graphs built from a loaded AST reproduce the kernel."""
        interp, ast = make_ast(LISTING1, {"N": 12})
        path = str(tmp_path / "ast.npz")
        save_task_ast(path, ast)
        graph = TaskGraph.from_task_ast(load_task_ast(path))
        seq = interp.run_sequential(interp.new_store())
        par = interp.new_store()
        run_blocks(graph, interp, par)
        assert seq.equal(par)

    def test_version_checked(self, tmp_path):
        import json

        import numpy as np

        path = str(tmp_path / "bad.npz")
        header = np.frombuffer(
            json.dumps({"version": 99, "nests": []}).encode(), dtype=np.uint8
        )
        np.savez(path, __header__=header)
        with pytest.raises(ValueError, match="version"):
            load_task_ast(path)
