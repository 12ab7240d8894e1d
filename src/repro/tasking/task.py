"""Tasks and task graphs.

A :class:`Task` is one pipeline block (or one chunk of a parallel loop in
the baseline); a :class:`TaskGraph` is the DAG of tasks with precedence
edges.  Graphs are built from the task-annotated AST
(:func:`TaskGraph.from_task_ast`) with two edge families, mirroring the
paper's runtime (Section 5.5):

* *cross-statement* edges from the ``Q_S`` in-dependencies (the
  ``depend(in:…)`` clauses), and
* *self* edges chaining the blocks of each statement in lexicographic
  order (the ``funcCount`` trick of Figure 8 — blocks of one loop nest run
  sequentially).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..schedule.astgen import TaskAst, TaskBlock


@dataclass
class Task:
    """A schedulable unit of work."""

    task_id: int
    statement: str
    block_id: int
    cost: float = 1.0
    block: TaskBlock | None = None

    def __str__(self) -> str:
        return f"Task#{self.task_id}({self.statement}/{self.block_id}, cost={self.cost:g})"


class CyclicTaskGraphError(ValueError):
    """The dependence edges form a cycle (would deadlock the runtime)."""


class TaskGraph:
    """A DAG of tasks with precedence edges (pred must finish before succ)."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.preds: list[set[int]] = []
        self.succs: list[set[int]] = []

    # ------------------------------------------------------------------
    def add_task(
        self,
        statement: str,
        block_id: int,
        cost: float = 1.0,
        block: TaskBlock | None = None,
    ) -> int:
        tid = len(self.tasks)
        self.tasks.append(Task(tid, statement, block_id, cost, block))
        self.preds.append(set())
        self.succs.append(set())
        return tid

    def add_edge(self, pred: int, succ: int) -> None:
        if pred == succ:
            raise CyclicTaskGraphError(f"self-edge on task {pred}")
        self.preds[succ].add(pred)
        self.succs[pred].add(succ)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def num_edges(self) -> int:
        return sum(len(p) for p in self.preds)

    def total_cost(self) -> float:
        return float(sum(t.cost for t in self.tasks))

    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Kahn topological order; raises on cycles."""
        indeg = [len(p) for p in self.preds]
        ready = [t for t in range(len(self.tasks)) if indeg[t] == 0]
        order: list[int] = []
        while ready:
            tid = ready.pop()
            order.append(tid)
            for s in self.succs[tid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self.tasks):
            raise CyclicTaskGraphError(
                f"{len(self.tasks) - len(order)} tasks are on a cycle"
            )
        return order

    def validate(self) -> None:
        self.topological_order()

    def critical_path(self) -> tuple[float, list[int]]:
        """Length and one witness path of the longest (cost-weighted) chain."""
        order = self.topological_order()
        dist = np.zeros(len(self.tasks))
        parent = np.full(len(self.tasks), -1, dtype=np.int64)
        for tid in order:
            dist[tid] += self.tasks[tid].cost
            for s in self.succs[tid]:
                cand = dist[tid]
                if cand > dist[s]:
                    dist[s] = cand
                    parent[s] = tid
        end = int(np.argmax(dist))
        path = [end]
        while parent[path[-1]] != -1:
            path.append(int(parent[path[-1]]))
        return float(dist[end]), path[::-1]

    def reachability(self) -> np.ndarray:
        """Boolean matrix ``R[a, b]`` = a precedes b (transitively).

        Quadratic memory — intended for test-sized graphs.
        """
        n = len(self.tasks)
        reach = np.zeros((n, n), dtype=bool)
        for tid in reversed(self.topological_order()):
            for s in self.succs[tid]:
                reach[tid, s] = True
                reach[tid] |= reach[s]
        return reach

    # ------------------------------------------------------------------
    @staticmethod
    def from_task_ast(
        ast: TaskAst,
        cost_of_block: Callable[[TaskBlock], float] | None = None,
        self_chain: bool = True,
        unchained: frozenset[str] = frozenset(),
    ) -> "TaskGraph":
        """Build the pipeline task graph from a task-annotated AST.

        ``unchained`` names statements whose blocks run *without* the
        self chain — privatized reductions, whose block order the
        verified proof made irrelevant (each block updates its own
        private accumulator).
        """
        graph = TaskGraph()
        token_to_task: dict[tuple[str, tuple[int, ...]], int] = {}

        for nest in ast.nests:
            prev: int | None = None
            chained = self_chain and nest.statement not in unchained
            for block in nest.blocks:
                cost = (
                    cost_of_block(block) if cost_of_block else float(block.size)
                )
                tid = graph.add_task(
                    nest.statement, block.block_id, cost, block
                )
                token_to_task[block.out_token] = tid
                if chained and prev is not None:
                    graph.add_edge(prev, tid)
                prev = tid

        for nest in ast.nests:
            for block in nest.blocks:
                tid = token_to_task[block.out_token]
                for token in block.in_tokens:
                    src = token_to_task.get(token)
                    if src is None:
                        raise KeyError(
                            f"in-dependency {token} of {block} has no producer"
                        )
                    graph.add_edge(src, tid)
        graph.validate()
        return graph

    def __str__(self) -> str:
        return f"TaskGraph({len(self)} tasks, {self.num_edges} edges)"
