"""Tasking layer: task graphs, OpenMP-style depend semantics, backends, simulator."""

from .api import OmpTaskSystem
from .backends import (
    FuturesBackend,
    ProcessBackend,
    SerialBackend,
    SlotAddressing,
    run_graph,
)
from .dot import to_dot, write_dot
from .hybrid import hybrid_task_graph, intra_block_edges
from .simulator import SimResult, scaling_curve, sequential_time, simulate
from .task import CyclicTaskGraphError, Task, TaskGraph

__all__ = [
    "CyclicTaskGraphError",
    "FuturesBackend",
    "ProcessBackend",
    "SerialBackend",
    "SlotAddressing",
    "OmpTaskSystem",
    "SimResult",
    "Task",
    "TaskGraph",
    "hybrid_task_graph",
    "intra_block_edges",
    "run_graph",
    "scaling_curve",
    "sequential_time",
    "simulate",
    "to_dot",
    "write_dot",
]
