"""Per-layer metrics of a traced run.

Each traced op carries its spans (see :class:`common.Tracer`) and a
``counts`` dict.  A ``<layer>_s`` metric is the median, over the ops
where the layer ran, of the layer's self time in that op; a layer that
ran only during set-up (``store.put`` on run-warm) is reported from the
set-up spans.  Count metrics are medians per op; ratios and the
``service.status.*`` / ``store.bytes`` rows are run totals
(``service.overhead_s`` is the workload's own per-request median).  Layers
that did not run on a workload read 0.
"""

from __future__ import annotations

import statistics

from common import format_layer_table, layer_table, p50, self_times

#: span name -> metric name ("bench.op" is the op's root span: its self
#: time is op time no layer span covers)
TIME_LAYERS = {
    "lang.parse": "lang.parse_s",
    "scop.extract": "scop.extract_s",
    "interp.init": "interp.init_s",
    "pipeline.detect": "pipeline.detect_s",
    "schedule.build": "schedule.build_s",
    "schedule.astgen": "schedule.astgen_s",
    "schedule.legality": "schedule.legality_s",
    "tasking.graph": "tasking.graph_s",
    "analysis.portfolio": "analysis.portfolio_s",
    "schedule.privatize": "schedule.privatize_s",
    "interp.fuse_plan": "interp.fuse_plan_s",
    "interp.exec_prep": "interp.exec_prep_s",
    "interp.kernel": "interp.kernel_s",
    "store.get": "store.get_s",
    "service.load": "service.load_s",
    "store.put": "store.put_s",
    "service.queue_wait": "service.queue_wait_s",
    "service.compile": "service.compile_s",
    "service.run": "service.run_s",
    "bench.op": "bench.unaccounted_s",
}

#: per-op count -> metric name
COUNTS = {
    "statements": "scop.statements",
    "maps": "pipeline.maps",
    "pipeline_blocks": "pipeline.blocks",
    "tasks": "tasking.tasks",
    "edges": "tasking.edges",
    "presburger_ops": "presburger.ops",
    "dispatches": "interp.dispatches",
    "batches": "tasking.batches",
}


def _median_self(per_op: list[dict], layer: str) -> float:
    vals = [d[layer] for d in per_op if layer in d]
    return statistics.median(vals) if vals else 0.0


def layer_metrics(
    traced: list[dict],
    plain_e2e: list[float],
    totals: dict,
    setup_spans: list[list[list]] = (),
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``traced`` holds the traced ops (``spans``, ``counts``, ``e2e``);
    ``plain_e2e`` the op times of the plain ops interleaved with them;
    ``totals`` the run-total rows (ratios, status counts, bytes).
    """
    per_op = [self_times(op["spans"]) for op in traced]
    per_setup = [self_times(s) for s in setup_spans]
    out: dict[str, float] = {}
    for layer, name in TIME_LAYERS.items():
        value = _median_self(per_op, layer)
        if not any(layer in d for d in per_op):
            value = _median_self(per_setup, layer)
        out[name] = value
    for key, name in COUNTS.items():
        vals = [op["counts"][key] for op in traced if key in op["counts"]]
        out[name] = float(statistics.median(vals)) if vals else 0.0
    traced_p50 = p50([op["e2e"] for op in traced])
    plain_p50 = p50(plain_e2e)
    out["bench.trace_overhead_ratio"] = (
        traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0
    )
    for name in (
        "service.overhead_s",
        "presburger.hit_ratio",
        "interp.fused_block_ratio",
        "store.hit_ratio",
        "store.bytes",
        "service.status.cold",
        "service.status.warm",
        "service.status.inflight",
    ):
        out[name] = float(totals.get(name, 0.0))
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_totals(traced: list[dict]) -> dict[str, float]:
    """Run-total ratios of in-process ops: the Presburger op-cache hit
    ratio (0 without the cache module) and the share of fused blocks."""
    hits = misses = 0
    for before, after in (op["presburger"] for op in traced):
        if before is not None:
            hits += after["hits"] - before["hits"]
            misses += after["misses"] - before["misses"]
    return {
        "presburger.hit_ratio": ratio(hits, hits + misses),
        "interp.fused_block_ratio": ratio(
            sum(op["counts"]["blocks_fused"] for op in traced),
            sum(op["counts"]["blocks"] for op in traced),
        ),
    }


def report(workload: str, traced: list[dict], metrics: dict) -> str:
    """The traced run's self-time table plus its accounting lines."""
    spans = [op["spans"] for op in traced]
    op_total = sum(op["e2e"] for op in traced)
    rows = layer_table(spans)
    unaccounted = sum(r[1] for r in rows if r[0] == "bench.op")
    lines = [
        format_layer_table(workload, rows, op_total),
        f"  unaccounted (bench.op self time): {unaccounted:.4f} s = "
        f"{ratio(unaccounted, op_total):.2%} of op time",
        "  trace overhead (traced p50 / plain p50 - 1): "
        f"{metrics['bench.trace_overhead_ratio']:+.2%}",
    ]
    return "\n".join(lines)
