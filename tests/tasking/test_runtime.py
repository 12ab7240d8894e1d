"""Tests for ``run_graph``: a task graph on the work-stealing scheduler."""

import threading
import time

import pytest

from repro.tasking import CyclicTaskGraphError, TaskGraph, run_graph
from tests.conftest import run_blocks


def record_graph(edges, n):
    """Graph of ``n`` tasks plus a body that appends each task id to a log."""
    g = TaskGraph()
    for k in range(n):
        g.add_task("S", k)
    for a, b in edges:
        g.add_edge(a, b)
    log: list[int] = []
    lock = threading.Lock()

    def body(task):
        with lock:
            log.append(task.task_id)

    return g, body, log


class TestExecution:
    def test_all_tasks_run_once(self):
        g, body, log = record_graph([(0, 1), (1, 2), (0, 3)], 4)
        stats = run_graph(g, body, workers=3)
        assert sorted(log) == [0, 1, 2, 3]
        assert stats["tasks"] == 4 and stats["policy"] == "work-stealing"

    def test_precedence_respected_in_log(self):
        edges = [(0, 2), (1, 2), (2, 3), (2, 4)]
        for _ in range(5):  # scheduling is nondeterministic: repeat
            g, body, log = record_graph(edges, 5)
            run_graph(g, body, workers=4)
            pos = {t: k for k, t in enumerate(log)}
            for a, b in edges:
                assert pos[a] < pos[b]

    def test_single_worker(self):
        g, body, log = record_graph([(0, 1)], 2)
        assert run_graph(g, body, workers=1)["workers"] == 1
        assert log == [0, 1]

    def test_empty_graph(self):
        ran = []
        stats = run_graph(TaskGraph(), ran.append, workers=2)
        assert ran == [] and stats["tasks"] == 0

    def test_tasks_without_actions_complete(self):
        """A no-op body still completes every task across an edge."""
        g = TaskGraph()
        a = g.add_task("A", 0)
        b = g.add_task("B", 0)
        g.add_edge(a, b)
        assert run_graph(g, lambda task: None, workers=2)["tasks"] == 2

    def test_concurrency_actually_happens(self):
        """Two independent sleeping tasks overlap on two workers."""
        g = TaskGraph()
        g.add_task("A", 0)
        g.add_task("B", 0)
        span = {}

        def sleeper(task):
            k = task.task_id
            span[k] = (time.monotonic(),)
            time.sleep(0.05)
            span[k] += (time.monotonic(),)

        run_graph(g, sleeper, workers=2)
        s0, f0 = span[0]
        s1, f1 = span[1]
        assert s0 < f1 and s1 < f0  # overlapping intervals


class TestErrors:
    def test_failing_task_raises(self):
        """The task's own exception re-raises once every worker joined;
        its dependents never run and no scheduler thread outlives the call."""
        g = TaskGraph()
        a = g.add_task("A", 0)
        b = g.add_task("B", 0)
        g.add_task("C", 0)
        g.add_edge(a, b)
        ran = []

        def body(task):
            if task.task_id == a:
                raise KeyError("kaboom")
            ran.append(task.task_id)

        before = threading.active_count()
        with pytest.raises(KeyError, match="kaboom"):
            run_graph(g, body, workers=2)
        assert b not in ran
        assert threading.active_count() == before
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-ws-")
        ]

    def test_cycle_rejected_before_running(self):
        g = TaskGraph()
        a, b = g.add_task("A", 0), g.add_task("B", 0)
        g.add_task("C", 0)
        g.add_edge(a, b)
        g.add_edge(b, a)
        ran = []
        with pytest.raises(CyclicTaskGraphError):
            run_graph(g, ran.append, workers=1)
        assert ran == []  # not even the independent task C

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_graph(TaskGraph(), lambda task: None, workers=0)


class TestInterpreterBinding:
    def test_bound_actions_mutate_store(self, listing1_interp):
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast

        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        graph = TaskGraph.from_task_ast(generate_task_ast(info))
        store = interp.new_store()
        before = store["A"].data.copy()
        run_blocks(graph, interp, store, workers=2)
        assert not (store["A"].data == before).all()

    def test_repeated_runs_deterministic(self, listing1_interp):
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast

        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        stores = []
        for _ in range(3):
            graph = TaskGraph.from_task_ast(generate_task_ast(info))
            store = interp.new_store()
            run_blocks(graph, interp, store, workers=4)
            stores.append(store)
        assert stores[0].equal(stores[1])
        assert stores[1].equal(stores[2])
