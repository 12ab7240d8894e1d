"""Per-task overhead of the execution layers.

The granularity discussion (Section 7) hinges on how expensive one task
is.  These benchmarks measure the bundled layers on no-op tasks: a task
graph on the work-stealing scheduler (``run_graph``), the CreateTask
reference system, and the futures backend — giving the abstract `overhead` parameter of the simulator a
measured counterpart for this Python substrate.
"""

from __future__ import annotations

import pytest

from repro.tasking import (
    FuturesBackend,
    OmpTaskSystem,
    TaskGraph,
    run_graph,
)

N_TASKS = 200


def chain_graph(n: int) -> TaskGraph:
    g = TaskGraph()
    prev = None
    for k in range(n):
        tid = g.add_task("S", k)
        if prev is not None:
            g.add_edge(prev, tid)
        prev = tid
    return g


def test_run_graph_chain(benchmark):
    """Fully serialized no-op tasks: pure scheduling overhead."""
    stats = benchmark(
        lambda: run_graph(chain_graph(N_TASKS), lambda t: None, workers=4)
    )
    assert stats["tasks"] == N_TASKS


def test_omp_task_system(benchmark):
    def run():
        sys_ = OmpTaskSystem(write_num=1)
        for k in range(N_TASKS):
            sys_.create_task(lambda p: None, None, out_depend=k, out_idx=0)
        return sys_.run(workers=4)

    stats = benchmark(run)
    assert stats["tasks"] == N_TASKS


def test_futures_backend(benchmark):
    def run():
        backend = FuturesBackend(write_num=1, workers=4)
        for k in range(N_TASKS):
            backend.create_task(lambda p: None, None, out_depend=k, out_idx=0)
        backend.run()
        return backend

    backend = benchmark(run)
    assert len(backend) == N_TASKS


def test_graph_construction(benchmark):
    graph = benchmark(chain_graph, N_TASKS)
    assert len(graph) == N_TASKS
