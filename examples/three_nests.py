#!/usr/bin/env python3
"""Listing 3: three loop nests and the combined blocking of Section 4.2.

The third nest U depends on *both* S (via ``A[2i][2j]``) and R (via
``B[i][j]``), so S ends up with two source blocking maps and U with two
target blocking maps; Equation 3 refines them into one blocking per
statement.  The example also dumps the generated task program (the
Section 5.4 code generation) and runs it through the CreateTask layer.

Run:  python examples/three_nests.py
"""

from repro.codegen import emit_task_program, run_generated
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast

LISTING3 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);

for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);

for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    U: C[i][j] = h(A[2*i][2*j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
"""


def main() -> None:
    interp = Interpreter.from_source(LISTING3, {"N": 16})
    info = detect_pipeline(interp.scop)

    print("=== Pipeline maps found (Algorithm 1) ===")
    for (src, tgt), pm in sorted(info.pipeline_maps.items()):
        print(f"  {src} -> {tgt}: {len(pm.relation)} anchors")

    print("\n=== Combined blockings (Equation 3) ===")
    for name, blocking in info.blockings.items():
        sources = [d.source for d in info.in_deps[name]]
        print(f"  {name}: {blocking.num_blocks} blocks"
              + (f", waits on {sources}" if sources else ""))

    print("\n=== Task AST (the paper's Figure 6) ===")
    print(generate_task_ast(info).pretty())

    print("\n=== Generated task program (Section 5.4), head ===")
    source = emit_task_program(info)
    print("\n".join(source.splitlines()[:30]))
    print(f"... ({len(source.splitlines())} lines total)")

    print("\n=== Run the generated program through CreateTask ===")
    seq = interp.run_sequential(interp.new_store())
    store = interp.new_store()
    _, system, stats = run_generated(info, interp, store, workers=4)
    print(f"tasks created: {len(system)}, tasks run: {stats['tasks']}, "
          f"matches sequential: {seq.equal(store)}")


if __name__ == "__main__":
    main()
