"""One benchmark op, plain or traced.

The plain path calls the entry points a user calls: the driver's
``Interpreter.from_source`` → ``driver.analyze`` (or the service's
``cached_analysis``) → ``execute_measured`` / ``execute_privatized``.

The traced path makes the *same* calls one module function at a time,
in the order the driver makes them, with a span around each call.  The
span names are the layer names of the per-layer metrics.  Traced runs
interleave whole traced and plain cycles of the same ops, so the
difference between the two paths is measured as
``bench.trace_overhead_ratio``.
"""

from __future__ import annotations

import time

from common import Tracer, interp_kwargs, kernel_source, make_options

#: options the traced compile path reproduces; any other non-default
#: field would make the traced and plain paths diverge
TRACED_OPTIONS = frozenset(
    {"kinds", "coarsen", "privatize", "privatize_parts", "workers",
     "vectorize", "fuse"}
)


def check_traceable(options) -> None:
    import dataclasses

    from repro.driver import TransformOptions

    default = TransformOptions()
    for f in dataclasses.fields(options):
        if f.name in TRACED_OPTIONS:
            continue
        if getattr(options, f.name) != getattr(default, f.name):
            raise ValueError(
                f"the traced path does not model option {f.name}"
            )


def load_items(cfg: dict, trace: bool) -> tuple[list, list[str]]:
    """Import the workload's modules; ``(source, params, options)`` per
    op of the record, and a label per op."""
    for module in cfg["imports"]:
        __import__(module)
    items = []
    for spec in cfg["ops"]:
        source, params = kernel_source(spec["kernel"], spec["n"])
        options = make_options(spec["options"])
        if trace:
            check_traceable(options)
        items.append((source, params, options))
    return items, [f"{s['kernel']}@{s['n']}" for s in cfg["ops"]]


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------
def build_interpreter(source: str, params: dict, options, tr: Tracer | None):
    from repro.interp import Interpreter

    kw = interp_kwargs(options)
    if tr is None:
        return Interpreter.from_source(source, params, **kw)
    from repro.lang import parse
    from repro.scop import extract_scop

    with tr.span("lang.parse"):
        program = parse(source)
    with tr.span("scop.extract"):
        scop = extract_scop(program, dict(params))
    with tr.span("interp.init"):
        return Interpreter(program, scop, None, **kw)


def analyze(interp, options, tr: Tracer | None):
    """``driver.analyze``, or its steps one span each."""
    from repro.driver import analyze as driver_analyze

    if tr is None:
        return driver_analyze(interp, options)
    from repro.driver import Analysis
    from repro.pipeline import detect_pipeline
    from repro.schedule import (
        build_schedule,
        check_legality,
        generate_task_ast,
    )
    from repro.tasking import TaskGraph

    scop = interp.scop
    portfolio = plan = None
    if options.portfolio or options.privatize:
        from repro.analysis.portfolio import run_portfolio

        with tr.span("analysis.portfolio"):
            portfolio = run_portfolio(scop)
    if options.privatize:
        from repro.schedule import plan_privatization

        with tr.span("schedule.privatize"):
            plan = plan_privatization(scop, portfolio)
        if plan.groups:
            return _analyze_privatized(interp, options, plan, portfolio, tr)

    with tr.span("pipeline.detect"):
        info = detect_pipeline(
            scop, kinds=options.kinds, coarsen=options.coarsen
        )
    with tr.span("schedule.build"):
        schedule = build_schedule(info)
    with tr.span("schedule.astgen"):
        task_ast = generate_task_ast(info, schedule)
    with tr.span("tasking.graph"):
        graph = TaskGraph.from_task_ast(
            task_ast, cost_of_block=options.cost_model.block_cost
        )
    legality = None
    if options.check:
        with tr.span("schedule.legality"):
            legality = check_legality(scop, info, graph)
            legality.raise_if_illegal()
    return Analysis(
        info=info, schedule=schedule, task_ast=task_ast, graph=graph,
        legality=legality, portfolio=portfolio, plan=plan,
    )


def _analyze_privatized(interp, options, plan, portfolio, tr: Tracer):
    """The driver's privatized arm (``prepare_privatized`` unrolled)."""
    from repro.driver import Analysis
    from repro.pipeline import detect_pipeline
    from repro.schedule import (
        build_privatized_graph,
        build_schedule,
        check_legality,
        generate_task_ast,
        privatize_info,
        verify_privatized_graph,
    )
    from repro.scop import DepKind
    from repro.scop.validate import validate_scop

    scop = interp.scop
    parts = options.privatize_parts or max(2, options.workers)
    with tr.span("schedule.privatize"):
        validate_scop(
            scop, reduction_waivers=plan.statements
        ).raise_if_invalid()
    with tr.span("pipeline.detect"):
        base = detect_pipeline(
            scop, kinds=tuple(DepKind), validate=False,
            coarsen=options.coarsen,
        )
    with tr.span("schedule.privatize"):
        info = privatize_info(base, plan, parts=parts)
    with tr.span("schedule.build"):
        schedule = build_schedule(info)
    with tr.span("schedule.astgen"):
        task_ast = generate_task_ast(info, schedule)
    with tr.span("tasking.graph"):
        graph, joins = build_privatized_graph(
            task_ast, plan, cost_of_block=options.cost_model.block_cost
        )
    legality = None
    if options.check:
        with tr.span("schedule.legality"):
            legality = check_legality(
                scop, info, graph, relaxed=plan.relaxed()
            )
            legality.raise_if_illegal()
            verify_privatized_graph(scop, plan, graph).raise_if_invalid()
    return Analysis(
        info=info, schedule=schedule, task_ast=task_ast, graph=graph,
        legality=legality, portfolio=portfolio, plan=plan,
        joins=tuple(joins), privatized=True,
    )


def cached_analysis(interp, source, params, options, store, tr: Tracer | None):
    """``service.cached_analysis``, or its steps one span each.

    Returns ``(analysis, status)``; status is ``"warm"`` or ``"cold"``.
    """
    from repro.service.compile import cached_analysis as service_cached

    if tr is None:
        return service_cached(interp, source, params, options, store)
    from repro.service.compile import build_artifact, load_analysis
    from repro.store import artifact_key

    key = artifact_key(source, params, options)
    with tr.span("store.get"):
        artifact = store.get(key)
    if artifact is not None:
        with tr.span("service.load"):
            return load_analysis(interp, options, artifact), "warm"
    t0 = time.perf_counter()
    analysis = analyze(interp, options, tr)
    elapsed = time.perf_counter() - t0
    if getattr(interp, "fuse", "off") != "off":
        fuse_plan(interp, tr)
    with tr.span("store.put"):
        store.put(
            key,
            build_artifact(
                interp, source, params, options, analysis,
                timings={"analyze_s": elapsed},
            ),
        )
    analysis.cache_status = "cold"
    return analysis, "cold"


# ----------------------------------------------------------------------
# execute
# ----------------------------------------------------------------------
def fuse_plan(interp, tr: Tracer) -> None:
    """First access of the lazily built fusion plan."""
    with tr.span("interp.fuse_plan"):
        interp.fused_program


def execute(interp, analysis, backend: str, workers: int, tr: Tracer | None):
    """Run the compiled kernel; returns ``(store, ExecutionStats)``."""
    from repro.interp import execute_measured, execute_privatized

    def call():
        if analysis.privatized:
            return execute_privatized(
                interp, analysis.info, analysis.plan,
                backend=backend, workers=workers,
            )
        return execute_measured(
            interp, analysis.info, backend=backend, workers=workers
        )

    if tr is None:
        return call()
    if getattr(interp, "fuse", "off") != "off":
        fuse_plan(interp, tr)
    with tr.span("interp.exec_prep") as idx:
        out, stats = call()
    # the backend's own wall time (task creation + run) becomes the
    # kernel span; the rest of the call is execution prep
    end = time.perf_counter()
    tr.add("interp.kernel", end - stats.wall_time, end, idx)
    return out, stats


def execution_counts(stats) -> dict:
    """Per-op counters of one execution."""
    members = getattr(stats, "task_members", ())
    sched = stats.scheduler or {}
    return {
        "blocks": stats.blocks_total,
        "blocks_fused": getattr(stats, "blocks_fused", 0),
        "dispatches": len(members) if members else stats.blocks_total,
        "batches": sched.get("batches", 0),
    }


def analysis_counts(interp, analysis) -> dict:
    info = analysis.info
    return {
        "statements": len(interp.scop.statements),
        "maps": len(info.pipeline_maps),
        "pipeline_blocks": info.num_tasks(),
        "tasks": len(analysis.graph),
        "edges": analysis.graph.num_edges,
    }


def approx_arrays(analysis) -> frozenset:
    """Accumulators whose privatized fold reassociates a sum/product."""
    plan = analysis.plan
    if not analysis.privatized or plan is None:
        return frozenset()
    return frozenset(
        g.array for g in plan.groups if g.group in ("sum", "product")
    )


def arrays_of(store) -> dict:
    return {name: view.data.copy() for name, view in store.arrays.items()}


def oracle_arrays(items) -> list[dict]:
    """Sequential reference arrays (``Interpreter.run_sequential``), one
    dict per ``(source, params, options)`` item.  Callers run this in a
    forked child so the timing process compiles nothing."""
    from repro.interp import Interpreter

    refs = []
    for source, params, _options in items:
        interp = Interpreter.from_source(source, params)
        refs.append(arrays_of(interp.run_sequential(interp.new_store())))
    return refs
