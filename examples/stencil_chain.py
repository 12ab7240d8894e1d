#!/usr/bin/env python3
"""A Jacobi-style stencil chain: generality beyond the paper's kernels.

Three sweeps over a grid, each reading the previous sweep's result with a
5-point-like stencil.  No loop in any sweep is parallel (the in-place
update carries dependences at both levels, as in Listing 1), yet the
sweeps pipeline: sweep k can start a row as soon as sweep k-1 finished the
row below it.  The example also checks the transformation with the
legality checker, exports a Chrome trace, and contrasts block granularity.

Run:  python examples/stencil_chain.py
"""

from repro.bench import (
    ascii_timeline,
    build_scop,
    pipeline_task_graph,
    write_trace,
)
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import check_legality, generate_task_ast
from repro.tasking import TaskGraph, run_graph, simulate
from repro.workloads import CostModel

N = 24
KERNEL = f"""
for(i=0; i<{N - 1}; i++)
  for(j=0; j<{N - 1}; j++)
    J1: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);

for(i=1; i<{N - 1}; i++)
  for(j=0; j<{N - 1}; j++)
    J2: B[i][j] = f(B[i][j], B[i][j+1], A[i-1][j], A[i][j], A[i+1][j]);

for(i=1; i<{N - 2}; i++)
  for(j=0; j<{N - 1}; j++)
    J3: C[i][j] = f(C[i][j], C[i][j+1], B[i-1][j], B[i][j], B[i+1][j]);
"""


def main() -> None:
    interp = Interpreter.from_source(KERNEL, {})
    scop = interp.scop
    info = detect_pipeline(scop)
    ast = generate_task_ast(info)
    graph = TaskGraph.from_task_ast(ast)

    print("=== Pipeline structure ===")
    print(info.summary())

    print("\n=== Legality (all dependence classes) ===")
    report = check_legality(scop, info, graph)
    print(report)
    report.raise_if_illegal()

    print("\n=== Correctness (threaded run vs sequential) ===")
    seq = interp.run_sequential(interp.new_store())
    par = interp.new_store()
    run_graph(
        graph,
        lambda t: interp.run_block(par, t.block.statement, t.block.iterations),
        workers=4,
    )
    print(f"identical arrays: {seq.equal(par)}")

    print("\n=== Simulated schedule (8 workers) ===")
    cost_graph = pipeline_task_graph(scop, CostModel.uniform(1.0))
    sim = simulate(cost_graph, workers=8)
    print(f"speed-up: {cost_graph.total_cost() / sim.makespan:.2f}x "
          f"(3 sweeps, bound {3:.0f})")
    print(ascii_timeline(cost_graph, sim))

    print("\n=== Granularity trade-off (overhead = 1 unit/task) ===")
    for factor in (1, 2, 4, 8):
        info_c = detect_pipeline(scop, coarsen=factor)
        g = TaskGraph.from_task_ast(
            generate_task_ast(info_c),
            cost_of_block=CostModel.uniform(1.0).block_cost,
        )
        s = simulate(g, workers=8, overhead=1.0)
        print(f"  coarsen={factor}: {len(g):4d} tasks, "
              f"speed-up {g.total_cost() / s.makespan:.2f}x")

    write_trace("/tmp/stencil_chain_trace.json", cost_graph, sim)
    print("\nChrome trace written to /tmp/stencil_chain_trace.json "
          "(open in chrome://tracing or Perfetto)")


if __name__ == "__main__":
    main()
