"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze <kernel.c> --param N=32 [--format text|json|sarif] [--portfolio]``
    Run the full static analysis (diagnostics, nest-pair classification,
    task-graph checks), then Algorithm 1, the pipeline summary and the
    Figure-6 style task AST.  ``--portfolio`` adds the pattern portfolio:
    reduction / do-all / geometric-decomposition detection with
    machine-checked privatization proofs (rule codes RPA05x).
``lint <kernel.c> [--deep] [--format text|json|sarif]``
    Run the AST-level lint rules (``--deep`` adds SCoP validation and the
    pipelinability/task-graph checks); exit 1 on error diagnostics.
``run <kernel.c> --param N=32 [--workers 4] [--exec-backend serial|threads|processes] [--fuse auto|on|off] [--tune model|search] [--reduce-deps] [--trace PATH] [--metrics PATH]``
    Execute the kernel sequentially and pipelined (work-stealing threads) and
    report whether the results match, plus the simulated speed-up.
    ``--exec-backend`` additionally runs a *measured* wall-clock execution
    of the generated task program on the chosen backend;
    ``--fuse`` controls fused-closure dispatch (one NumPy call per task,
    with chain fusion of proven-legal statement sequences; refused
    statements run the compiled loop);
    ``--tune`` auto-picks task granularity from a calibrated cost model
    (or a measured search); ``--reduce-deps`` transitively reduces the
    depend-in slot lists; ``--privatize`` executes the pattern
    portfolio's verified privatization proofs (parallel reduction chunks
    over private accumulators, joined by a generated combine task;
    ``--privatize-parts`` picks the chunk count); ``--trace`` writes one
    Chrome/Perfetto document merging compile-phase spans, the simulated
    schedule and live runtime task events; ``--metrics`` writes the
    metrics-registry JSON export.
``profile <kernel.c> --param N=32 [--backend threads] [--workers 4]``
    Measure a run with event collection and print the critical-path
    profile: measured critical path, per-statement self time,
    simulated-vs-measured makespan divergence and top slack blocks.
``bench-exec [--out BENCH_execution.json]``
    Measured-execution benchmark: compiled-loop vs fused sequential vs
    fused thread/process backends, including a latency-bound workload.
``bench-overhead [--out BENCH_overhead.json]``
    Task-overhead optimizer benchmark: depend-in slot reduction per
    kernel plus tuned-vs-baseline wall times on the latency workload.
``codegen <kernel.c> --param N=32``
    Emit the generated task program source to stdout.
``deps <kernel.c> --param N=32``
    Print the statement-level dependence graph (flow/anti/output) and the
    value-based dataflow summary.
``serve [--host H] [--port P] [--cache-dir DIR] [--no-cache] [--workers K]``
    Long-lived asyncio compile(+run) server over a local TCP socket:
    repeated compiles answered from the content-addressed artifact
    store, identical in-flight compiles deduplicated through per-key
    futures (see ``docs/serving.md``).  Telemetry is on by default:
    ``--request-log PATH`` (rotating JSONL), ``--trace-dir DIR``
    (one Perfetto trace per request), ``--http-port P`` (Prometheus
    ``GET /metrics``), ``--no-telemetry`` to disable.
``top --port P [--host H] [--interval S] [--once]``
    Terminal live monitor for a running serve instance: request/error
    rates, latency p50/p95/p99 per verb and cache status, cache mix,
    the last N requests.
``store stats|gc|clear [--cache-dir DIR] [--max-bytes B] [--max-entries K]``
    Inspect or garbage-collect the artifact store.  ``run``, ``analyze``
    and ``profile`` accept ``--cache-dir DIR`` / ``--no-cache`` (and
    honour ``$REPRO_CACHE_DIR``) to answer their compile phase from the
    same store.
``bench-serve [--out BENCH_serve.json]``
    Cold vs warm (fresh process) vs concurrent-dedupe serving benchmark.
``table9`` / ``figure10`` / ``figure11``
    Regenerate the paper's evaluation artifacts.
``report --out DIR``
    Write every artifact (Table 9, Figures 2/10/11, overhead sensitivity)
    into a directory.
"""

from __future__ import annotations

import argparse
import sys


def _parse_params(items: list[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad --param {item!r}; expected NAME=INT")
        params[name] = int(value)
    return params


def _load(path: str, params: dict[str, int]):
    from .interp import Interpreter

    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return Interpreter.from_source(source, params)


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cache_dir_of(args) -> str | None:
    """Resolve the artifact-store root: --cache-dir, then
    $REPRO_CACHE_DIR; --no-cache wins over both.  None = caching off."""
    import os

    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_CACHE_DIR") or None


def _cached_compile(interp, source: str, args, hybrid: bool = False):
    """The compile phase through the artifact store (or None: caching
    off).  Prints the cold/warm verdict so cache behaviour is visible in
    every command that takes ``--cache-dir``."""
    cache_dir = _cache_dir_of(args)
    if cache_dir is None:
        return None
    import dataclasses as _dc

    from .driver import TransformOptions
    from .pipeline import UncoveredDependenceError
    from .scop import DepKind
    from .service.compile import cached_analysis
    from .store import ArtifactStore

    opts = TransformOptions(
        coarsen=getattr(args, "coarsen", 1),
        hybrid=hybrid,
        check=False,
        verify=False,
        fuse=getattr(args, "fuse", None) or "auto",
        workers=getattr(args, "workers", 4),
    )
    store = ArtifactStore(cache_dir)
    params = _parse_params(args.param)
    try:
        analysis, status = cached_analysis(
            interp, source, params, opts, store
        )
    except UncoveredDependenceError:
        opts = _dc.replace(opts, kinds=tuple(DepKind))
        analysis, status = cached_analysis(
            interp, source, params, opts, store
        )
    print(f"compile cache: {status} ({cache_dir})")
    return analysis


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_kernel, render_json, render_sarif, render_text

    if args.stats:
        from .presburger import cache as presburger_cache

        presburger_cache.reset_stats()

    source = _read_source(args.kernel)
    result = analyze_kernel(
        source,
        _parse_params(args.param),
        file=args.kernel,
        portfolio=args.portfolio,
    )

    if args.format == "json":
        print(
            render_json(
                result.report,
                result.classifications(),
                portfolio=(
                    result.portfolio.to_dict()
                    if result.portfolio is not None
                    else None
                ),
            )
        )
        return result.exit_code()
    if args.format == "sarif":
        print(render_sarif(result.report))
        return result.exit_code()

    print(render_text(result.report, source))
    if result.portfolio is not None:
        print()
        print(result.portfolio.format())
    if result.detect_error:
        print(f"note: {result.detect_error}")
    if result.info is None or not result.ok:
        return result.exit_code()

    from .pipeline import (
        NoPatternError,
        UncoveredDependenceError,
        describe_pipeline_map,
        detect_pipeline,
    )
    from .schedule import build_schedule, generate_task_ast

    info = result.info
    if args.coarsen != 1:
        from .scop import DepKind

        try:
            info = detect_pipeline(result.scop, coarsen=args.coarsen)
        except UncoveredDependenceError:
            info = detect_pipeline(
                result.scop, kinds=tuple(DepKind), coarsen=args.coarsen
            )
    print()
    print(info.summary())
    for pm in info.pipeline_maps.values():
        try:
            print(f"  {describe_pipeline_map(pm)}")
        except NoPatternError:
            print(f"  {pm} (no closed form)")
    print()
    print(build_schedule(info).pretty())
    print()
    print(generate_task_ast(info).pretty())
    if args.stats:
        from .interp import Interpreter, execute_measured
        from .obs.metrics import (
            MetricsRegistry,
            absorb_execution,
            absorb_presburger_cache,
            absorb_simulation,
            absorb_task_overhead,
        )
        from .pipeline import task_graph_stats
        from .presburger import cache as presburger_cache
        from .schedule import generate_task_ast as gen_ast
        from .tasking import TaskGraph, simulate

        tg = task_graph_stats(info)
        print()
        print(
            f"task graph: {tg['tasks']} tasks, {tg['edges']} edges, "
            f"{tg['depend_in_slots']} depend-in slots "
            f"({tg['depend_in_slots_reduced']} after reduction, "
            f"{100.0 * tg['reduction_ratio']:.0f}% cut), "
            f"critical path {tg['critical_path_tasks']} tasks"
        )
        print()
        print(presburger_cache.format_stats())

        # All four legacy stat families, through the metrics registry:
        # Presburger cache, task-overhead, simulation, measured execution.
        reg = MetricsRegistry()
        graph = TaskGraph.from_task_ast(gen_ast(info))
        sim = simulate(graph, workers=4)
        interp = Interpreter.from_source(
            source, _parse_params(args.param), fuse="auto"
        )
        _cached_compile(interp, source, args)
        _, ex_stats = execute_measured(interp, info, backend="serial")

        fprog = interp.fused_program
        total = len(interp.scop.statements)
        print()
        print(
            f"fusion coverage: {fprog.statements_fused}/{total} "
            f"statements compiled to fused closures"
        )
        if fprog.chains:
            for label in sorted(fprog.chains):
                print(f"  chain: {label}")
        fallbacks = fprog.fallbacks()
        if fallbacks:
            print("  fallbacks:")
            for name in sorted(fallbacks):
                fb = fallbacks[name]
                print(f"    {name}: [{fb['code']}] {fb['reason']}")
        absorb_presburger_cache(reg)
        absorb_task_overhead(reg, task_graph=tg)
        absorb_simulation(reg, sim, graph)
        absorb_execution(reg, ex_stats)

        from .obs.metrics import absorb_artifact_store
        from .store import session_counters

        absorb_artifact_store(reg)
        sc = session_counters()
        if sc:
            print()
            print(
                "artifact store: "
                f"{sc.get('hits', 0)} hit(s), "
                f"{sc.get('misses', 0)} miss(es), "
                f"{sc.get('puts', 0)} put(s), "
                f"{sc.get('corrupt', 0)} corrupt, "
                f"{sc.get('replay_failures', 0)} replay failure(s)"
            )
        print()
        print("metrics registry:")
        print(reg.format())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import analyze_kernel, render_json, render_sarif, render_text

    source = _read_source(args.kernel)
    result = analyze_kernel(
        source,
        _parse_params(args.param),
        file=args.kernel,
        deep=args.deep,
    )
    if args.format == "json":
        print(render_json(result.report, result.classifications()))
    elif args.format == "sarif":
        print(render_sarif(result.report))
    else:
        print(render_text(result.report, source))
    return result.exit_code()


def _run_privatized(args, interp, priv_plan, observing: bool):
    """The ``run --privatize`` arm: execute a verified plan end to end."""
    from .driver import prepare_privatized
    from .interp import execute_privatized, privatized_matches
    from .schedule import check_legality, verify_privatized_graph
    from .tasking import simulate

    parts = args.privatize_parts or max(2, args.workers)
    info, _schedule, _ast, graph, joins = prepare_privatized(
        interp.scop, priv_plan, parts=parts, coarsen=args.coarsen
    )
    check_legality(
        interp.scop, info, graph, relaxed=priv_plan.relaxed()
    ).raise_if_illegal()
    verify_privatized_graph(interp.scop, priv_plan, graph).raise_if_invalid()

    seq_store = interp.run_sequential(interp.new_store())
    out_store, _ = execute_privatized(
        interp, info, priv_plan, backend="serial", workers=args.workers
    )
    match, detail = privatized_matches(priv_plan, seq_store, out_store)

    sim = simulate(graph, workers=args.workers)
    print(
        f"tasks: {len(graph)}, edges: {graph.num_edges} "
        f"(incl. {len(joins)} join task(s), {parts} part(s)/statement)"
    )
    print(f"privatized result matches sequential: {match} ({detail})")
    print(
        f"simulated speed-up on {args.workers} workers: "
        f"{graph.total_cost() / sim.makespan:.2f}x"
    )
    stats = None
    if args.exec_backend:
        ex_store, stats = execute_privatized(
            interp,
            info,
            priv_plan,
            backend=args.exec_backend,
            workers=args.workers,
            collect_events=observing,
        )
        ex_match, ex_detail = privatized_matches(
            priv_plan, seq_store, ex_store
        )
        print("measured execution: " + stats.summary())
        print(
            f"measured privatized result matches sequential: "
            f"{ex_match} ({ex_detail})"
        )
        match = match and ex_match
    return info, graph, sim, stats, match


def cmd_run(args: argparse.Namespace) -> int:
    from .bench import ascii_timeline
    from .obs import spans as obs_spans
    from .pipeline import detect_pipeline
    from .schedule import generate_task_ast
    from .tasking import (
        TaskGraph,
        hybrid_task_graph,
        run_graph,
        simulate,
    )

    observing = bool(args.trace or args.metrics)
    rec = obs_spans.recording() if observing else None
    if rec is not None:
        rec.__enter__()

    reduction = None
    plan = None
    stats = None
    try:
        from .interp import Interpreter

        source = _read_source(args.kernel)
        interp = Interpreter.from_source(
            source, _parse_params(args.param), fuse=args.fuse
        )

        priv_plan = None
        if args.privatize:
            if args.hybrid or args.tune:
                raise SystemExit(
                    "--privatize is incompatible with --hybrid/--tune"
                )
            from .schedule import plan_privatization

            priv_plan = plan_privatization(interp.scop)
            print(priv_plan.describe())
            if not priv_plan.groups:
                print(
                    "no verified privatization proofs; "
                    "running the standard pipeline"
                )
                priv_plan = None
        if priv_plan is not None:
            info, graph, sim, stats, match = _run_privatized(
                args, interp, priv_plan, observing
            )
        else:
            cached = None
            if not (args.tune or args.reduce_deps):
                # tune re-measures and reduce-deps rewrites the info —
                # both are answered by a direct compile, not the store
                cached = _cached_compile(
                    interp, source, args, hybrid=args.hybrid
                )
            if cached is not None:
                info, graph = cached.info, cached.graph
            else:
                info = detect_pipeline(interp.scop, coarsen=args.coarsen)
                if args.tune:
                    from .tuning import auto_tune

                    plan = auto_tune(
                        interp, info, workers=args.workers, mode=args.tune
                    )
                    info = plan.info
                    print(plan.summary())
                if args.reduce_deps:
                    if args.hybrid:
                        raise SystemExit(
                            "--reduce-deps is incompatible with --hybrid "
                            "(hybrid relaxes the self chains the reduction "
                            "relies on)"
                        )
                    from .pipeline import reduce_dependencies

                    info, reduction = reduce_dependencies(info)
                    print(reduction.summary())
                ast = generate_task_ast(info)
                if args.hybrid:
                    graph = hybrid_task_graph(interp.scop, info, ast)
                else:
                    graph = TaskGraph.from_task_ast(ast)

            seq_store = interp.run_sequential(interp.new_store())
            par_store = interp.new_store()
            run_graph(
                graph,
                lambda t: interp.run_block(
                    par_store, t.block.statement, t.block.iterations
                ),
                workers=args.workers,
            )
            match = seq_store.equal(par_store)

            sim = simulate(graph, workers=args.workers)
            mode = "hybrid" if args.hybrid else "pipelined"
            print(f"tasks: {len(graph)}, edges: {graph.num_edges}")
            print(f"{mode} result matches sequential: {match}")
            print(
                f"simulated speed-up on {args.workers} workers: "
                f"{graph.total_cost() / sim.makespan:.2f}x"
            )
            if args.exec_backend:
                from .interp import execute_measured

                ex_store, stats = execute_measured(
                    interp,
                    info,
                    backend=args.exec_backend,
                    workers=args.workers,
                    collect_events=observing,
                )
                ex_match = seq_store.equal(ex_store)
                print("measured execution: " + stats.summary())
                print(f"measured result matches sequential: {ex_match}")
                match = match and ex_match
        if args.timeline:
            print()
            print(ascii_timeline(graph, sim))
    finally:
        if rec is not None:
            rec.__exit__(None, None, None)

    overhead = None
    if reduction is not None or plan is not None:
        overhead = {}
        if reduction is not None:
            overhead["reduction"] = reduction.as_dict()
        if plan is not None:
            overhead["tuning"] = plan.as_dict()
    if args.trace:
        from .bench import write_trace

        write_trace(
            args.trace,
            graph,
            sim,
            execution=stats,
            overhead=overhead,
            spans=rec.spans if rec is not None else None,
        )
        print(f"wrote {args.trace}")
    if args.metrics:
        from .obs.metrics import (
            MetricsRegistry,
            absorb_execution,
            absorb_presburger_cache,
            absorb_simulation,
            absorb_task_overhead,
        )
        from .pipeline import task_graph_stats

        reg = MetricsRegistry()
        absorb_presburger_cache(reg)
        absorb_simulation(reg, sim, graph)
        absorb_task_overhead(
            reg,
            task_graph=task_graph_stats(info),
            reduction=reduction,
            tuning=plan,
        )
        if stats is not None:
            absorb_execution(reg, stats)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(reg.to_json() + "\n")
        print(f"wrote {args.metrics}")
    return 0 if match else 1


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .obs.profile import profile_kernel
    from .pipeline import detect_pipeline

    from .interp import Interpreter

    source = _read_source(args.kernel)
    interp = Interpreter.from_source(
        source, _parse_params(args.param), fuse=args.fuse
    )
    cached = _cached_compile(interp, source, args)
    if cached is not None:
        info = cached.info
    else:
        info = detect_pipeline(interp.scop, coarsen=args.coarsen)
    report = profile_kernel(
        interp,
        info,
        backend=args.backend,
        workers=args.workers,
        policy=args.policy,
        top=args.top,
    )
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.format(top=args.top))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_bench_exec(args: argparse.Namespace) -> int:
    from .bench.execution import format_execution_bench, run_execution_bench

    report = run_execution_bench(
        workers=args.workers, quick=args.quick, out_path=args.out
    )
    print(format_execution_bench(report))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_bench_overhead(args: argparse.Namespace) -> int:
    from .bench.overhead import format_overhead_bench, run_overhead_bench

    report = run_overhead_bench(
        workers=args.workers, quick=args.quick, out_path=args.out
    )
    print(format_overhead_bench(report))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    from .codegen import emit_task_program
    from .pipeline import detect_pipeline

    interp = _load(args.kernel, _parse_params(args.param))
    info = detect_pipeline(interp.scop, coarsen=args.coarsen)
    print(emit_task_program(info))
    return 0


def cmd_deps(args: argparse.Namespace) -> int:
    from .scop import analyze_dataflow, build_dependence_graph

    interp = _load(args.kernel, _parse_params(args.param))
    graph = build_dependence_graph(interp.scop)
    print(graph.summary())
    df = analyze_dataflow(interp.scop)
    print()
    print("value-based (last-writer) flows:")
    for (src, tgt), rel in sorted(df.flows.items()):
        print(f"  {src} -> {tgt}: {len(rel)} pairs")
    for name, count in sorted(df.reads_from_input.items()):
        if count:
            print(f"  {name}: {count} reads of initial array contents")
    if args.dot:
        print()
        print(graph.to_dot())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every evaluation artifact into a directory."""
    import os

    from .bench import (
        format_figure2,
        format_figure10,
        format_figure11,
        format_table9,
        run_figure2,
        run_figure10,
        run_figure11,
    )
    from .bench.calibration import format_sensitivity, overhead_sensitivity

    os.makedirs(args.out, exist_ok=True)
    artifacts = {
        "table9.txt": format_table9(),
        "figure2.txt": format_figure2(run_figure2(n=20)),
        "figure10.txt": format_figure10(run_figure10(ns=tuple(args.sizes))),
        "figure11.txt": format_figure11(run_figure11(size=args.matrix_size)),
        "sensitivity.txt": format_sensitivity(
            overhead_sensitivity(["P1", "P3", "P5", "P8"])
        ),
    }
    for name, text in artifacts.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    return 0


def cmd_table9(args: argparse.Namespace) -> int:
    from .bench import format_table9

    print(format_table9())
    return 0


def cmd_figure10(args: argparse.Namespace) -> int:
    from .bench import format_figure10, run_figure10

    cells = run_figure10(
        ns=tuple(args.sizes), workers=args.workers, measured=args.measured
    )
    print(format_figure10(cells))
    return 0


def cmd_figure11(args: argparse.Namespace) -> int:
    from .bench import format_figure11, run_figure11

    rows = run_figure11(
        size=args.matrix_size, workers=args.workers, measured=args.measured
    )
    print(format_figure11(rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import serve

    cache_dir = None
    if not args.no_cache:
        from .store import default_cache_dir

        cache_dir = args.cache_dir or default_cache_dir()
    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                cache_dir=cache_dir,
                workers=args.workers,
                telemetry=not args.no_telemetry,
                log_path=args.request_log,
                trace_dir=args.trace_dir,
                http_port=args.http_port,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .obs.live import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
        rows=args.rows,
        once=args.once,
    )


def cmd_store(args: argparse.Namespace) -> int:
    from .store import (
        ArtifactStore,
        default_cache_dir,
        load_metrics_snapshot,
    )

    store = ArtifactStore(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        print(store.stats().format())
        snap = load_metrics_snapshot(store.root)
        if snap is not None:
            counters = snap.get("counters", {})
            print("last serve session (metrics-last.json):")
            print(f"  saved at    {snap.get('saved_at', '?')}")
            print(f"  uptime      {snap.get('uptime_s', 0.0):.1f}s")
            print(f"  requests    {counters.get('requests', 0)}")
            print(f"  compiles    {counters.get('compiles', 0)}")
            print(f"  store hits  {counters.get('store_hits', 0)}")
            print(f"  errors      {counters.get('errors', 0)}")
    elif args.action == "gc":
        evicted = store.gc(
            max_bytes=args.max_bytes, max_entries=args.max_entries
        )
        print(f"evicted {len(evicted)} artifact(s)")
        print(store.stats().format())
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from .bench.serve import format_serve_bench, run_serve_bench

    report = run_serve_bench(quick=args.quick, out_path=args.out)
    print(format_serve_bench(report))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-loop pipeline pattern detection (IMPACT 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def kernel_cmd(name: str, fn) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("kernel", help="path to a kernel source file")
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=INT"
        )
        p.add_argument("--coarsen", type=int, default=1)
        p.set_defaults(fn=fn)
        return p

    def cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="answer identical compiles from a content-addressed "
            "artifact store rooted here (default: $REPRO_CACHE_DIR "
            "when set, otherwise off)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the artifact store even if $REPRO_CACHE_DIR "
            "is set",
        )

    p_analyze = kernel_cmd("analyze", cmd_analyze)
    p_analyze.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="diagnostic output format (json/sarif suppress the trees)",
    )
    p_analyze.add_argument(
        "--stats",
        action="store_true",
        help="print Presburger op-cache hit/miss statistics after analysis",
    )
    p_analyze.add_argument(
        "--portfolio",
        action="store_true",
        help="run the pattern portfolio (reduction / do-all / geometric "
        "detection with machine-checked privatization proofs)",
    )
    cache_args(p_analyze)

    p_lint = sub.add_parser(
        "lint", help="run the static-analysis rules and print diagnostics"
    )
    p_lint.add_argument("kernel", help="path to a kernel source file")
    p_lint.add_argument(
        "--param", action="append", default=[], metavar="NAME=INT"
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    p_lint.add_argument(
        "--deep",
        action="store_true",
        help="also extract the SCoP and run pipelinability/task-graph checks",
    )
    p_lint.set_defaults(fn=cmd_lint)

    p_run = kernel_cmd("run", cmd_run)
    p_run.add_argument("--workers", type=int, default=4)
    p_run.add_argument(
        "--hybrid",
        action="store_true",
        help="combine cross-loop pipelining with intra-nest parallelism",
    )
    p_run.add_argument(
        "--timeline",
        action="store_true",
        help="print a per-statement ASCII timeline of the simulated schedule",
    )
    p_run.add_argument(
        "--exec-backend",
        choices=("serial", "thread", "threads", "process", "processes"),
        default=None,
        help="also run a measured wall-clock execution on this backend",
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome/Perfetto trace document merging compile-phase "
        "spans, the simulated schedule and (with --exec-backend) live "
        "runtime task events",
    )
    p_run.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics-registry JSON export (cache, simulation, "
        "task-overhead and measured-execution series)",
    )
    p_run.add_argument(
        "--fuse",
        choices=("auto", "on", "off"),
        default="auto",
        help="fused-closure dispatch: compile statements (and proven "
        "fusion-legal chains) to single NumPy closures executed as one "
        "call per task; auto falls back per statement to the "
        "compiled loop, on fails on fallback, off runs compiled loops only",
    )
    p_run.add_argument(
        "--tune",
        choices=("model", "search"),
        default=None,
        help="auto-tune task granularity: model (calibrated cost model + "
        "simulated scan) or search (measured scan over factors)",
    )
    p_run.add_argument(
        "--reduce-deps",
        action="store_true",
        help="transitively reduce the depend-in slot lists "
        "(same enforced partial order, fewer waits per task)",
    )
    p_run.add_argument(
        "--privatize",
        action="store_true",
        help="execute the pattern portfolio's verified privatization "
        "proofs: reduction statements run as parallel chunks over "
        "private accumulators joined by a generated combine task "
        "(kernels without proofs fall through unchanged)",
    )
    p_run.add_argument(
        "--privatize-parts",
        type=int,
        default=None,
        metavar="K",
        help="chunks per privatized statement (default: max(2, workers))",
    )
    cache_args(p_run)
    p_profile = kernel_cmd("profile", cmd_profile)
    p_profile.add_argument("--workers", type=int, default=4)
    p_profile.add_argument(
        "--backend",
        choices=("serial", "thread", "threads", "process", "processes"),
        default="threads",
        help="backend for the measured run",
    )
    p_profile.add_argument(
        "--policy",
        choices=("fifo", "lifo", "cp"),
        default="fifo",
        help="simulator scheduling policy for the prediction",
    )
    p_profile.add_argument(
        "--fuse", choices=("auto", "on", "off"), default="auto"
    )
    p_profile.add_argument(
        "--top", type=int, default=5,
        help="rows of critical path / slack to print",
    )
    p_profile.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    cache_args(p_profile)
    kernel_cmd("codegen", cmd_codegen)
    p_deps = kernel_cmd("deps", cmd_deps)
    p_deps.add_argument(
        "--dot", action="store_true", help="also print Graphviz DOT"
    )

    p = sub.add_parser("table9")
    p.set_defaults(fn=cmd_table9)

    p = sub.add_parser("report")
    p.add_argument("--out", default="evaluation")
    p.add_argument("--sizes", type=int, nargs="+", default=[16, 24, 32])
    p.add_argument("--matrix-size", type=int, default=24)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("figure10")
    p.add_argument("--sizes", type=int, nargs="+", default=[16, 24, 32])
    p.add_argument("--workers", type=int, default=8)
    p.add_argument(
        "--measured",
        action="store_true",
        help="measure real wall-clock execution instead of simulating",
    )
    p.set_defaults(fn=cmd_figure10)

    p = sub.add_parser("figure11")
    p.add_argument("--matrix-size", type=int, default=32)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument(
        "--measured",
        action="store_true",
        help="measure real wall-clock execution instead of simulating",
    )
    p.set_defaults(fn=cmd_figure11)

    p = sub.add_parser(
        "bench-exec",
        help="measured-execution benchmark (writes BENCH_execution.json)",
    )
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--quick", action="store_true", help="small sizes, no repeats"
    )
    p.set_defaults(fn=cmd_bench_exec)

    p = sub.add_parser(
        "bench-overhead",
        help="task-overhead optimizer benchmark (writes BENCH_overhead.json)",
    )
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--quick", action="store_true", help="small sizes, no repeats"
    )
    p.set_defaults(fn=cmd_bench_overhead)

    p = sub.add_parser(
        "serve",
        help="long-lived compile(+run) server over a local socket with "
        "an artifact store and in-flight dedupe of identical compiles",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 binds an ephemeral port, announced on stdout)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="serve without a store (every request compiles; in-flight "
        "dedupe still applies)",
    )
    p.add_argument(
        "--workers", type=int, default=4,
        help="compile/run thread-pool size",
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help="disable request tracing, metrics and the request log",
    )
    p.add_argument(
        "--request-log", default=None, metavar="PATH",
        help="rotating JSONL request log (one structured line per "
        "request)",
    )
    p.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one Perfetto trace per request into DIR",
    )
    p.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="also answer GET /metrics (Prometheus text), /health and "
        "/requests over plain HTTP on this port (0 = ephemeral)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "top",
        help="terminal live monitor for a running serve instance "
        "(rates, latency quantiles, cache mix, recent requests)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between polls",
    )
    p.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N redraws (default: run until Ctrl-C)",
    )
    p.add_argument(
        "--rows", type=int, default=10,
        help="recent requests shown",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (no screen clear)",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "store",
        help="inspect or garbage-collect the artifact store",
    )
    p.add_argument("action", choices=("stats", "gc", "clear"))
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p.add_argument(
        "--max-bytes", type=int, default=None,
        help="gc: evict LRU artifacts beyond this byte ceiling",
    )
    p.add_argument(
        "--max-entries", type=int, default=None,
        help="gc: evict LRU artifacts beyond this entry ceiling",
    )
    p.set_defaults(fn=cmd_store)

    p = sub.add_parser(
        "bench-serve",
        help="cold vs warm vs concurrent-dedupe compile benchmark "
        "(writes BENCH_serve.json)",
    )
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument(
        "--quick", action="store_true", help="small sizes, no repeats"
    )
    p.set_defaults(fn=cmd_bench_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
