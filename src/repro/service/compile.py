"""The cache-aware compile tier.

``cached_analysis`` is the single entry point: given an interpreter, the
kernel source text and the options, it either

* **warm** — loads the stored :class:`~repro.store.CompileArtifact`,
  rebuilds the :class:`~repro.driver.Analysis` against a freshly
  extracted SCoP, and — mandatorily — re-verifies every privatization
  proof through :func:`repro.schedule.legality.verify_privatization`
  (via ``plan_from_proofs``); or
* **cold** — runs :func:`repro.driver.analyze` and persists its outputs
  as one checksummed artifact.

A warm replay that fails for *any* reason (schema drift, a tampered
proof, an info dict that no longer matches the SCoP) is demoted to a
miss and recompiled — the store accelerates, it never decides.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping

from ..driver import Analysis, TransformOptions, analyze
from ..scop import DepKind
from ..store import ArtifactStore, CompileArtifact, artifact_key, kernel_sha
from ..store.disk import bump_session
from ..store.keys import options_fingerprint
from ..workloads import CostModel


# ----------------------------------------------------------------------
# options <-> plain data (the serve protocol speaks JSON)
# ----------------------------------------------------------------------
def options_to_dict(options: TransformOptions) -> dict:
    """JSON-safe rendering of every ``TransformOptions`` field."""
    out: dict = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if f.name == "kinds":
            value = [k.name for k in value]
        elif f.name == "cost_model":
            value = {
                "per_iteration": dict(value.per_iteration),
                "default": value.default,
            }
        out[f.name] = value
    return out


def options_from_dict(d: Mapping) -> TransformOptions:
    """Inverse of :func:`options_to_dict`; unknown keys are an error
    (a client speaking a newer option vocabulary must not be silently
    truncated into a wrong cache key)."""
    known = {f.name for f in dataclasses.fields(TransformOptions)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ValueError(f"unknown TransformOptions fields: {unknown}")
    kwargs = dict(d)
    if "kinds" in kwargs:
        kwargs["kinds"] = tuple(DepKind[k] for k in kwargs["kinds"])
    if "cost_model" in kwargs:
        cm = kwargs["cost_model"]
        kwargs["cost_model"] = CostModel(
            per_iteration=dict(cm.get("per_iteration", {})),
            default=float(cm.get("default", 1.0)),
        )
    if kwargs.get("privatize_parts") is not None:
        kwargs["privatize_parts"] = int(kwargs["privatize_parts"])
    return TransformOptions(**kwargs)


# ----------------------------------------------------------------------
# cold path: Analysis -> artifact
# ----------------------------------------------------------------------
def build_artifact(
    interp,
    source: str,
    params: Mapping[str, int],
    options: TransformOptions,
    analysis: Analysis,
    timings: Mapping[str, float] | None = None,
) -> CompileArtifact:
    """Serialize one compile's outputs into a store artifact."""
    from ..schedule.serialize import dumps_task_ast

    fused = None
    if options.fuse != "off":
        # Force the (lazy) fusion plan now: serving means a warm process
        # must never pay the per-statement Presburger legality analysis.
        fused = interp.fused_program.to_dict()

    proofs: list[dict] = []
    plan = analysis.plan
    if plan is not None and getattr(plan, "groups", ()):
        proofs = [g.proof.to_dict() for g in plan.groups]

    diagnostics: list[dict] = []
    if analysis.diagnostics is not None:
        diagnostics = [
            {
                "code": d.code,
                "severity": d.severity.value,
                "text": d.render(),
            }
            for d in analysis.diagnostics.diagnostics
        ]

    key = artifact_key(source, params, options)
    return CompileArtifact(
        key=key,
        kernel_sha=kernel_sha(source),
        params=dict(params),
        options_fingerprint=options_fingerprint(options),
        info=analysis.info.to_dict(),
        task_ast_blob=dumps_task_ast(analysis.task_ast),
        fused=fused,
        proofs=proofs,
        privatized=analysis.privatized,
        legality_ok=(
            None if analysis.legality is None else analysis.legality.ok
        ),
        diagnostics=diagnostics,
        timings=dict(timings or {}),
    )


# ----------------------------------------------------------------------
# warm path: artifact -> Analysis
# ----------------------------------------------------------------------
def load_analysis(
    interp,
    options: TransformOptions,
    artifact: CompileArtifact,
) -> Analysis:
    """Rebuild an :class:`Analysis` from a stored artifact.

    The SCoP is re-extracted by the caller's interpreter (never stored);
    the artifact supplies the *derived* objects.  Privatization proofs
    go back through ``plan_from_proofs`` → ``verify_privatization`` —
    a tampered proof raises here and the caller recompiles.
    """
    from ..interp.fused import FusedProgram
    from ..pipeline.detect import PipelineInfo
    from ..schedule import build_schedule
    from ..schedule.serialize import loads_task_ast
    from ..tasking import TaskGraph, hybrid_task_graph

    scop = interp.scop
    info = PipelineInfo.from_dict(scop, artifact.info)
    task_ast = loads_task_ast(artifact.task_ast_blob)
    schedule = build_schedule(info)

    if artifact.fused is not None and options.fuse != "off":
        interp.adopt_fused(FusedProgram.from_dict(artifact.fused))

    portfolio_report = None
    if options.portfolio:
        # The report is an analysis *of the SCoP*, cheap next to the
        # schedule work and consumed as live objects — re-derive it.
        from ..analysis.portfolio import run_portfolio

        portfolio_report = run_portfolio(scop)

    cost_of_block = options.cost_model.block_cost
    if artifact.privatized:
        from ..analysis.portfolio.privatize import PrivatizationProof
        from ..schedule import build_privatized_graph
        from ..schedule.privatize import plan_from_proofs

        proofs = [PrivatizationProof.from_dict(p) for p in artifact.proofs]
        plan = plan_from_proofs(scop, proofs)  # mandatory re-verification
        graph, joins = build_privatized_graph(
            task_ast, plan, cost_of_block=cost_of_block
        )
        return Analysis(
            info=info,
            schedule=schedule,
            task_ast=task_ast,
            graph=graph,
            portfolio=portfolio_report,
            plan=plan,
            joins=tuple(joins),
            privatized=True,
            cache_status="warm",
        )

    if options.hybrid:
        graph = hybrid_task_graph(
            scop, info, task_ast, cost_of_block=cost_of_block
        )
    else:
        graph = TaskGraph.from_task_ast(
            task_ast, cost_of_block=cost_of_block
        )
    return Analysis(
        info=info,
        schedule=schedule,
        task_ast=task_ast,
        graph=graph,
        portfolio=portfolio_report,
        privatized=False,
        cache_status="warm",
    )


# ----------------------------------------------------------------------
# the tier
# ----------------------------------------------------------------------
def cached_analysis(
    interp,
    source: str,
    params: Mapping[str, int],
    options: TransformOptions,
    store: ArtifactStore,
) -> tuple[Analysis, str]:
    """One compile through the store: ``(analysis, "warm" | "cold")``."""
    from ..obs.spans import span

    key = artifact_key(source, params, options)
    with span("service.compile", key=key[:12]) as sp:
        artifact = store.get(key)
        if artifact is not None:
            try:
                analysis = load_analysis(interp, options, artifact)
            except Exception as exc:
                # Schema drift, tampered proofs, stale info — anything a
                # replay can hit demotes to a recompile, never a crash.
                bump_session("replay_failures")
                sp.set(replay_failed=type(exc).__name__)
            else:
                sp.set(status="warm")
                return analysis, "warm"

        t0 = time.perf_counter()
        analysis = analyze(interp, options)
        elapsed = time.perf_counter() - t0
        store.put(
            key,
            build_artifact(
                interp, source, params, options, analysis,
                timings={"analyze_s": elapsed},
            ),
        )
        analysis.cache_status = "cold"
        sp.set(status="cold", analyze_s=round(elapsed, 6))
        return analysis, "cold"
