"""Future-work extension: pipelining anti/output dependence classes.

The paper pipelines flow dependences and assumes programs without
cross-nest anti/output dependences.  ``detect_pipeline`` extends the same
machinery to those classes; these tests execute such programs pipelined
and compare against sequential semantics.
"""

import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.scop import DepKind
from repro.tasking import TaskGraph
from tests.conftest import run_blocks

ANTI_KERNEL = """
for(i=0; i<12; i++)
  for(j=0; j<12; j++)
    S: B[i][j] = f(A[i][j], B[i][j]);
for(i=0; i<12; i++)
  for(j=0; j<12; j++)
    T: A[i][j] = g(C[i][j], A[i][j]);
"""

OUTPUT_KERNEL = """
for(i=0; i<10; i++)
  for(j=0; j<10; j++)
    S: A[i][j] = f(B[i][j], A[i][j]);
for(i=0; i<5; i++)
  for(j=0; j<5; j++)
    T: A[2*i][2*j] = g(C[i][j]);
for(i=0; i<10; i++)
  for(j=0; j<10; j++)
    U: D[i][j] = h(A[i][j], D[i][j]);
"""


def run_both(source: str, kinds: tuple[DepKind, ...]):
    interp = Interpreter.from_source(source, {})
    info = detect_pipeline(interp.scop, kinds=kinds)
    graph = TaskGraph.from_task_ast(generate_task_ast(info))
    seq = interp.run_sequential(interp.new_store())
    par = interp.new_store()
    run_blocks(graph, interp, par)
    return seq, par, info


class TestAntiPipelining:
    def test_execution_matches_sequential(self):
        seq, par, _ = run_both(ANTI_KERNEL, (DepKind.FLOW, DepKind.ANTI))
        assert seq.equal(par)

    def test_anti_map_detected(self):
        _, _, info = run_both(ANTI_KERNEL, (DepKind.FLOW, DepKind.ANTI))
        assert ("S", "T") in info.pipeline_maps


class TestOutputPipelining:
    def test_execution_matches_sequential(self):
        seq, par, info = run_both(OUTPUT_KERNEL, tuple(DepKind))
        assert seq.equal(par)
        # S -> T covered by the output class; T -> U and S -> U by flow
        assert ("S", "T") in info.pipeline_maps
        assert ("T", "U") in info.pipeline_maps

    def test_threaded_run_repeats_deterministically(self):
        results = [
            run_both(OUTPUT_KERNEL, tuple(DepKind))[1] for _ in range(3)
        ]
        assert results[0].equal(results[1])
        assert results[1].equal(results[2])
