"""Tests for task-AST serialization."""

import numpy as np
import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast, load_task_ast, save_task_ast
from repro.schedule.serialize import task_ast_from_dict, task_ast_to_dict
from repro.store import ArtifactCorruptError
from repro.store.codec import decode, encode
from repro.tasking import TaskGraph
from tests.conftest import LISTING1, LISTING3, run_blocks


def make_ast(source, params):
    scop_interp = Interpreter.from_source(source, params)
    info = detect_pipeline(scop_interp.scop)
    return scop_interp, generate_task_ast(info)


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        _, ast = make_ast(LISTING3, {"N": 12})
        path = str(tmp_path / "ast.rpt")
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
        """The in-artifact document survives the codec's bytes."""
        _, ast = make_ast(LISTING1, {"N": 10})
        back = task_ast_from_dict(decode(encode(task_ast_to_dict(ast))))
        assert len(back.all_blocks()) == len(ast.all_blocks())
        for a, b in zip(ast.all_blocks(), back.all_blocks()):
            assert a.in_tokens == b.in_tokens
            assert np.array_equal(a.iterations, b.iterations)
            assert not b.iterations.flags.writeable

    def test_loaded_ast_executes_correctly(self, tmp_path):
        """Task graphs built from a loaded AST reproduce the kernel."""
        interp, ast = make_ast(LISTING1, {"N": 12})
        path = str(tmp_path / "ast.rpt")
        save_task_ast(path, ast)
        graph = TaskGraph.from_task_ast(load_task_ast(path))
        seq = interp.run_sequential(interp.new_store())
        par = interp.new_store()
        run_blocks(graph, interp, par)
        assert seq.equal(par)

    def test_version_checked(self, tmp_path):
        path = str(tmp_path / "bad.rpt")
        doc = {
            "header": {"version": 99, "nests": []},
            "flat": np.zeros(0, dtype=np.int64),
            "shapes": np.zeros((0, 2), dtype=np.int64),
        }
        with open(path, "wb") as fh:
            fh.write(encode(doc))
        with pytest.raises(ValueError, match="version"):
            load_task_ast(path)

    def test_npz_container_is_not_read(self, tmp_path):
        """The zip container and its readers are gone: an ``.npz`` file
        is rejected by the codec's magic, never opened as a zip."""
        path = str(tmp_path / "old.npz")
        np.savez(path, flat=np.arange(4))
        with pytest.raises(ArtifactCorruptError, match="magic"):
            load_task_ast(path)
