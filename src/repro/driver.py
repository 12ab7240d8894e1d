"""High-level driver: the whole pipeline in one call.

:func:`transform` runs frontend → SCoP → Algorithm 1 → Algorithm 2 →
task graph, optionally verifies the transformation (legality check and/or
a real threaded execution compared against the sequential interpreter),
and simulates performance — returning everything in one
:class:`TransformResult`.

    from repro import transform

    result = transform(KERNEL_SOURCE, {"N": 32})
    print(result.report())
    assert result.verified
    print(result.speedup)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # analysis imports lazily to keep startup light
    from .analysis.diagnostics import DiagnosticReport

from .interp import ArrayStore, ExecutionStats, Interpreter, execute_measured
from .lang.ast import Program
from .pipeline import (
    PipelineInfo,
    ReductionStats,
    detect_pipeline,
    reduce_dependencies,
)
from .schedule import (
    LegalityReport,
    ScheduleTree,
    TaskAst,
    build_schedule,
    check_legality,
    generate_task_ast,
)
from .scop import DepKind, Scop
from .tasking import (
    SimResult,
    TaskGraph,
    hybrid_task_graph,
    run_graph,
    simulate,
)
from .workloads import CostModel


@dataclass(frozen=True)
class TransformOptions:
    """Knobs of the transformation and its evaluation."""

    #: dependence classes to pipeline (paper default: flow only)
    kinds: tuple[DepKind, ...] = (DepKind.FLOW,)
    #: merge every ``coarsen`` consecutive blocks into one task
    coarsen: int = 1
    #: relax per-statement chains using intra-statement dependences
    hybrid: bool = False
    #: run the instance-exact legality checker
    check: bool = True
    #: run the static-analysis subsystem (packing / token-coverage / race
    #: checks, rule codes RPA04x) and fail on error diagnostics
    static_checks: bool = False
    #: execute pipelined on threads and compare with sequential output
    verify: bool = True
    #: worker threads for verification and simulation
    workers: int = 4
    #: per-task overhead charged by the simulator
    overhead: float = 0.0
    #: cost model for the simulator (uniform unit cost by default)
    cost_model: CostModel = field(default_factory=CostModel.uniform)
    #: Presburger op cache for this call: True/False forces it on/off,
    #: None keeps the process setting (``REPRO_PRESBURGER_CACHE`` env var)
    presburger_cache: bool | None = None
    #: fused closure kernels: "auto" (default — fuse what's legal, per-
    #: statement fallback to the compiled loop), "on" (fail if any
    #: statement can't fuse), "off" (compiled loops only)
    fuse: str = "auto"
    #: run a real measured execution on this backend ("serial", "threads"
    #: or "processes"); None skips the measured run
    exec_backend: str | None = None
    #: transitively reduce the block dependency relations before
    #: scheduling (fewer depend-in slots, same enforced partial order);
    #: incompatible with ``hybrid``, which relaxes the self chains the
    #: reduction relies on
    reduce_deps: bool = False
    #: granularity auto-tuning: "model" (calibrated cost model + simulated
    #: scan), "search" (measured scan), None (keep ``coarsen`` as given)
    tune: str | None = None
    #: collect live runtime task events during the measured execution
    #: (requires ``exec_backend``); surfaced as ``execution.events``
    collect_events: bool = False
    #: run the pattern portfolio (reduction / do-all / geometric
    #: detection with machine-checked privatization proofs); surfaced as
    #: ``TransformResult.portfolio``, and downstream consumers may feed
    #: its verified ``relaxed_map()`` back into ``check_legality``
    portfolio: bool = False
    #: execute the portfolio's verified privatization proofs: re-block
    #: reduction statements into parallel chunks over per-block private
    #: accumulators joined by a generated combine task.  Implies the
    #: portfolio run; a kernel with no verified proofs falls through to
    #: the standard pipeline unchanged (a no-op, not an error)
    privatize: bool = False
    #: chunks per privatized statement (None: max(2, workers))
    privatize_parts: int | None = None


@dataclass(frozen=True)
class TransformResult:
    """Everything the driver produced."""

    scop: Scop
    info: PipelineInfo
    schedule: ScheduleTree
    task_ast: TaskAst
    graph: TaskGraph
    options: TransformOptions
    legality: LegalityReport | None
    verified: bool | None
    simulation: SimResult
    #: static-analysis findings (None unless options.static_checks)
    diagnostics: "DiagnosticReport | None" = None
    #: measured execution statistics (None unless options.exec_backend)
    execution: "ExecutionStats | None" = None
    #: dependency transitive-reduction stats (None unless reduce_deps)
    reduction: ReductionStats | None = None
    #: granularity tuning plan (None unless options.tune)
    tuning: object | None = None  # repro.tuning.TunedPlan
    #: pattern-portfolio report (None unless options.portfolio);
    #: a repro.analysis.portfolio.PortfolioReport
    portfolio: object | None = None
    #: privatization plan the transformation executed (None unless
    #: options.privatize); a repro.schedule.PrivatizationPlan — empty
    #: ``groups`` means the run fell through to the standard pipeline
    privatization: object | None = None

    @property
    def speedup(self) -> float:
        return self.graph.total_cost() / self.simulation.makespan

    @property
    def num_tasks(self) -> int:
        return len(self.graph)

    def report(self) -> str:
        lines = [self.info.summary()]
        if self.legality is not None:
            lines.append(str(self.legality))
        if self.diagnostics is not None:
            lines.append(
                "static checks: "
                + ("clean" if self.diagnostics.ok else "FAILED")
                + f" ({len(self.diagnostics)} finding(s))"
            )
        if self.verified is not None:
            lines.append(
                "threaded execution matches sequential: "
                f"{self.verified}"
            )
        if self.tuning is not None:
            lines.append(self.tuning.summary())
        if self.portfolio is not None:
            reclassified = len(self.portfolio.reclassified_pairs())
            lines.append(
                f"pattern portfolio: {len(self.portfolio.specs)} "
                f"reduction(s), {reclassified} pair(s) reclassified "
                "after privatization"
            )
        if self.privatization is not None:
            lines.append(self.privatization.describe())
        if self.reduction is not None:
            lines.append(self.reduction.summary())
        if self.execution is not None:
            lines.append("measured execution: " + self.execution.summary())
        lines.append(
            f"simulated speed-up on {self.options.workers} workers: "
            f"{self.speedup:.2f}x ({self.num_tasks} tasks)"
        )
        return "\n".join(lines)


class VerificationFailedError(RuntimeError):
    """The pipelined execution diverged from the sequential program."""


class IllegalTaskGraphError(RuntimeError):
    """The static task-graph checks found an error-severity diagnostic."""


@dataclass
class Analysis:
    """Everything the *compile* phase produced — no execution yet.

    This is the unit the artifact store serializes and ``repro serve``
    hands out: :func:`analyze` builds one from scratch, the warm path in
    :mod:`repro.service.compile` rebuilds an equivalent one from a
    stored artifact, and :func:`_finish` turns either into a
    :class:`TransformResult` by running verification / measured
    execution / simulation on top.
    """

    info: PipelineInfo
    schedule: ScheduleTree
    task_ast: TaskAst
    graph: TaskGraph
    legality: LegalityReport | None = None
    diagnostics: "DiagnosticReport | None" = None
    reduction: ReductionStats | None = None
    tuning: object | None = None  # repro.tuning.TunedPlan
    portfolio: object | None = None
    plan: object | None = None  # repro.schedule.PrivatizationPlan
    joins: tuple = ()
    privatized: bool = False
    #: None for a direct compile; "cold" / "warm" when a store was used
    cache_status: str | None = None


def transform(
    source_or_program: str | Program,
    params: Mapping[str, int] | None = None,
    options: TransformOptions | None = None,
    funcs: Mapping | None = None,
    cache_dir: str | None = None,
) -> TransformResult:
    """Detect, schedule, verify and simulate the cross-loop pipeline.

    ``cache_dir`` points at a content-addressed artifact store
    (:mod:`repro.store`): identical ``(source, params, options)``
    compiles are answered from disk.  Caching is deliberately *not* a
    :class:`TransformOptions` field — options are part of the cache key,
    the cache location is not.  Only string sources are cacheable (a
    ``Program`` object has no canonical byte form to hash).
    """
    options = options or TransformOptions()
    from .presburger import cache as presburger_cache

    with presburger_cache.overridden(enabled=options.presburger_cache):
        return _transform(
            source_or_program, params, options, funcs, cache_dir
        )


def _validate_options(options: TransformOptions) -> None:
    if options.reduce_deps and options.hybrid:
        raise ValueError(
            "reduce_deps is incompatible with hybrid: the hybrid graph "
            "relaxes the per-statement chains the reduction relies on"
        )
    if options.privatize and options.hybrid:
        raise ValueError(
            "privatize is incompatible with hybrid: privatized "
            "statements already drop their self chains under a proof"
        )
    if options.privatize and options.tune is not None:
        raise ValueError(
            "privatize is incompatible with tune: chunking of "
            "privatized statements is set by privatize_parts"
        )


def _transform(
    source_or_program: str | Program,
    params: Mapping[str, int] | None,
    options: TransformOptions,
    funcs: Mapping | None,
    cache_dir: str | None = None,
) -> TransformResult:
    _validate_options(options)

    interp = Interpreter.from_source(
        source_or_program, dict(params or {}), funcs, fuse=options.fuse
    )

    if cache_dir is not None and isinstance(source_or_program, str):
        from .service.compile import cached_analysis
        from .store import ArtifactStore

        analysis, _ = cached_analysis(
            interp,
            source_or_program,
            dict(params or {}),
            options,
            ArtifactStore(cache_dir),
        )
    else:
        analysis = analyze(interp, options)
    return _finish(interp, options, analysis)


def analyze(interp: Interpreter, options: TransformOptions) -> Analysis:
    """The compile phase: SCoP analysis through checked task graph.

    Pure with respect to array contents — nothing here executes the
    kernel (granularity *tuning* may run calibration executions, but
    those are measurements, not outputs).  The returned
    :class:`Analysis` is exactly what the artifact store persists.
    """
    from .obs.spans import span

    scop = interp.scop

    portfolio_report = None
    if options.portfolio or options.privatize:
        from .analysis.portfolio import run_portfolio

        with span("driver.portfolio"):
            portfolio_report = run_portfolio(scop)

    plan = None
    if options.privatize:
        from .schedule import plan_privatization

        with span("driver.privatize"):
            plan = plan_privatization(scop, portfolio_report)
        if plan.groups:
            return _analyze_privatized(
                interp, options, plan, portfolio_report
            )
        # no verified proofs: fall through to the standard pipeline
        # unchanged (result.privatization records the empty plan)

    info = detect_pipeline(
        scop, kinds=options.kinds, coarsen=options.coarsen
    )

    tuning = None
    if options.tune is not None:
        from .tuning import auto_tune

        with span("driver.tune", mode=options.tune):
            tuning = auto_tune(
                interp, info, workers=options.workers, mode=options.tune
            )
        info = tuning.info

    reduction: ReductionStats | None = None
    if options.reduce_deps:
        info, reduction = reduce_dependencies(info)

    schedule = build_schedule(info)
    task_ast = generate_task_ast(info, schedule)
    with span("driver.task_graph", hybrid=options.hybrid):
        if options.hybrid:
            graph = hybrid_task_graph(
                scop, info, task_ast,
                cost_of_block=options.cost_model.block_cost,
            )
        else:
            graph = TaskGraph.from_task_ast(
                task_ast, cost_of_block=options.cost_model.block_cost
            )

    legality: LegalityReport | None = None
    if options.check:
        legality = check_legality(scop, info, graph)
        legality.raise_if_illegal()

    diagnostics = None
    if options.static_checks:
        from .analysis.taskcheck import check_task_graph

        with span("driver.static_checks"):
            diagnostics = check_task_graph(
                scop, info, ast=task_ast, graph=graph
            )
        if not diagnostics.ok:
            raise IllegalTaskGraphError(
                f"{len(diagnostics.errors)} static-check error(s); first: "
                f"{diagnostics.errors[0].render()}"
            )

    return Analysis(
        info=info,
        schedule=schedule,
        task_ast=task_ast,
        graph=graph,
        legality=legality,
        diagnostics=diagnostics,
        reduction=reduction,
        tuning=tuning,
        portfolio=portfolio_report,
        plan=plan,
        privatized=False,
    )


def _finish(
    interp: Interpreter,
    options: TransformOptions,
    a: Analysis,
) -> TransformResult:
    """Verification, measured execution and simulation over an analysis."""
    from .obs.spans import span

    if a.privatized:
        return _finish_privatized(interp, options, a)

    scop = interp.scop
    verified: bool | None = None
    seq: ArrayStore | None = None
    if options.verify:
        with span("driver.verify"):
            seq = interp.run_sequential(interp.new_store())
            par = interp.new_store()
            run_graph(
                a.graph,
                lambda t: interp.run_block(
                    par, t.block.statement, t.block.iterations
                ),
                workers=options.workers,
            )
            verified = seq.equal(par)
        if not verified:
            raise VerificationFailedError(
                "pipelined arrays differ from the sequential execution "
                f"(max abs diff {seq.max_abs_diff(par):g})"
            )

    execution: ExecutionStats | None = None
    if options.exec_backend is not None:
        ex_store, execution = execute_measured(
            interp,
            a.info,
            backend=options.exec_backend,
            workers=options.workers,
            cost_of_block=options.cost_model.block_cost,
            collect_events=options.collect_events,
        )
        if seq is not None and not seq.equal(ex_store):
            raise VerificationFailedError(
                f"measured {options.exec_backend} execution diverged from "
                f"sequential (max abs diff {seq.max_abs_diff(ex_store):g})"
            )

    sim = simulate(
        a.graph, workers=options.workers, overhead=options.overhead
    )
    return TransformResult(
        scop=scop,
        info=a.info,
        schedule=a.schedule,
        task_ast=a.task_ast,
        graph=a.graph,
        options=options,
        legality=a.legality,
        verified=verified,
        simulation=sim,
        diagnostics=a.diagnostics,
        execution=execution,
        reduction=a.reduction,
        tuning=a.tuning,
        portfolio=a.portfolio,
        privatization=a.plan,
    )


def prepare_privatized(
    scop: Scop,
    plan,
    parts: int,
    coarsen: int = 1,
    cost_of_block=None,
):
    """Schedule + task graph of a verified privatization plan.

    Shared by the driver, the CLI and the bench: validates the SCoP with
    reduction waivers for the plan's statements (their accumulator
    writes are non-injective by design), detects pipelines over *all*
    dependence kinds (the relaxed legality check needs every class), and
    re-blocks/joins per :mod:`repro.schedule.privatize`.  Returns
    ``(info, schedule, task_ast, graph, joins)``.
    """
    from .schedule import build_privatized_graph, privatize_info
    from .scop.validate import validate_scop

    validate_scop(
        scop, reduction_waivers=plan.statements
    ).raise_if_invalid()
    base_info = detect_pipeline(
        scop, kinds=tuple(DepKind), validate=False, coarsen=coarsen
    )
    info = privatize_info(base_info, plan, parts=parts)
    schedule = build_schedule(info)
    task_ast = generate_task_ast(info, schedule)
    graph, joins = build_privatized_graph(
        task_ast, plan, cost_of_block=cost_of_block
    )
    return info, schedule, task_ast, graph, joins


def _analyze_privatized(
    interp: Interpreter,
    options: TransformOptions,
    plan,
    portfolio_report,
) -> Analysis:
    """The privatized arm of :func:`analyze` (plan has groups)."""
    from .obs.spans import span
    from .schedule import verify_privatized_graph

    scop = interp.scop
    parts = options.privatize_parts or max(2, options.workers)
    with span("driver.task_graph", privatize=True, parts=parts):
        info, schedule, task_ast, graph, joins = prepare_privatized(
            scop,
            plan,
            parts=parts,
            coarsen=options.coarsen,
            cost_of_block=options.cost_model.block_cost,
        )

    legality: LegalityReport | None = None
    if options.check:
        # instance-exact legality under the proof's relaxed set, plus
        # the structural join-coverage re-check (join tasks execute no
        # instances, so check_legality alone cannot see an omitted join)
        legality = check_legality(scop, info, graph, relaxed=plan.relaxed())
        legality.raise_if_illegal()
        verify_privatized_graph(scop, plan, graph).raise_if_invalid()

    return Analysis(
        info=info,
        schedule=schedule,
        task_ast=task_ast,
        graph=graph,
        legality=legality,
        portfolio=portfolio_report,
        plan=plan,
        joins=tuple(joins),
        privatized=True,
    )


def _finish_privatized(
    interp: Interpreter,
    options: TransformOptions,
    a: Analysis,
) -> TransformResult:
    from .interp import execute_privatized, privatized_matches
    from .obs.spans import span

    scop = interp.scop
    plan = a.plan
    verified: bool | None = None
    seq: ArrayStore | None = None
    if options.verify:
        with span("driver.verify", privatize=True):
            seq = interp.run_sequential(interp.new_store())
            out, _ = execute_privatized(
                interp, a.info, plan, backend="serial",
                workers=options.workers,
            )
            verified, detail = privatized_matches(plan, seq, out)
        if not verified:
            raise VerificationFailedError(
                "privatized execution diverged from sequential: " + detail
            )

    execution: ExecutionStats | None = None
    if options.exec_backend is not None:
        ex_store, execution = execute_privatized(
            interp,
            a.info,
            plan,
            backend=options.exec_backend,
            workers=options.workers,
            cost_of_block=options.cost_model.block_cost,
            collect_events=options.collect_events,
        )
        if seq is not None:
            ok, detail = privatized_matches(plan, seq, ex_store)
            if not ok:
                raise VerificationFailedError(
                    f"measured {options.exec_backend} privatized execution "
                    "diverged from sequential: " + detail
                )

    sim = simulate(
        a.graph, workers=options.workers, overhead=options.overhead
    )
    return TransformResult(
        scop=scop,
        info=a.info,
        schedule=a.schedule,
        task_ast=a.task_ast,
        graph=a.graph,
        options=options,
        legality=a.legality,
        verified=verified,
        simulation=sim,
        execution=execution,
        portfolio=a.portfolio,
        privatization=plan,
    )
