"""run-warm: store-warm ops on the processes backend, one after another
in one long-lived process.

Set-up fills a fresh store with the five compiles, one forked child
per compile (each from a parent that compiled nothing).  The ops then run
in one forked child: ``Interpreter.from_source`` → ``cached_analysis``
(a warm hit, proofs re-verified) → ``execute_measured(backend=
"processes", workers=2)``, after one untimed warm-up cycle in that
child whose time counts in ``setup_s``.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import nullcontext

import ops
from common import (
    Child,
    Tracer,
    arrays_match,
    import_seconds,
    in_child,
    p50,
    p90,
    peak_rss_self_and_children_mb,
    presburger_counters,
    wait_any,
)
from layers import layer_metrics, op_totals, ratio

#: stop starting ops after this long, whatever the cycle
HARD_CAP_S = 120.0


def _fill(item, store_dir: str, traced: bool) -> list:
    """Cold-compile one op into the store (runs in a child); returns
    the spans of a traced compile."""
    from repro.store import ArtifactStore

    source, params, options = item
    tr = Tracer() if traced else None
    with tr.span("bench.op") if tr else nullcontext():
        interp = ops.build_interpreter(source, params, options, tr)
        _, status = ops.cached_analysis(
            interp, source, params, options, ArtifactStore(store_dir), tr
        )
    if status != "cold":
        raise RuntimeError(f"set-up compile was {status}, not cold")
    return tr.take() if tr else []


def _op_loop(
    cfg, items, labels, refs, store_dir, seed, seconds, trace
) -> dict:
    """Every op, in this one process (a forked child)."""
    from repro.store import ArtifactStore

    store = ArtifactStore(store_dir)
    rng = random.Random(seed)
    backend, workers = cfg["backend"], cfg["workers"]
    failures: list[str] = []

    def op(idx: int, traced: bool) -> dict | None:
        """One checked op; None (and a failure line) when it failed."""
        source, params, options = items[idx]
        before = presburger_counters()
        tr = Tracer() if traced else None
        try:
            with tr.span("bench.op") if tr else nullcontext():
                t0 = time.perf_counter()
                interp = ops.build_interpreter(source, params, options, tr)
                analysis, status = ops.cached_analysis(
                    interp, source, params, options, store, tr
                )
                t1 = time.perf_counter()
                out, stats = ops.execute(
                    interp, analysis, backend, workers, tr
                )
                t2 = time.perf_counter()
        except Exception as exc:  # counted, the loop goes on
            failures.append(f"{labels[idx]}: {type(exc).__name__}: {exc}")
            return None
        why = (
            f"store answered {status}" if status != "warm"
            else arrays_match(refs[idx], ops.arrays_of(out))
        )
        if why:
            failures.append(f"{labels[idx]}: {why}")
            return None
        after = presburger_counters()
        counts = {
            **ops.analysis_counts(interp, analysis),
            **ops.execution_counts(stats),
        }
        if before is not None:
            counts["presburger_ops"] = after["calls"] - before["calls"]
        return {
            "e2e": t2 - t0, "compile": t1 - t0, "run": t2 - t1,
            "traced": traced, "counts": counts,
            "spans": tr.take() if tr else None,
            "presburger": (before, after),
        }

    # one untimed warm-up cycle: the first ops of a process pay one-off
    # costs (about 1.5x on P5); its time is reported inside setup_s
    t_warm = time.perf_counter()
    for idx in range(len(items)):
        op(idx, False)
    t_start = time.perf_counter()
    records: list[dict] = []
    cycles = 0
    while True:
        elapsed = time.perf_counter() - t_start
        # traced runs interleave whole plain and traced cycles (plain,
        # traced, traced, plain, ...) so both halves hold the same
        # kernels; they end after an even number of cycles
        if elapsed > HARD_CAP_S or (
            elapsed >= seconds and len(records) >= cfg["min_ops"]
            and not (trace and cycles % 2)
        ):
            break
        traced = trace and cycles % 4 in (1, 2)
        for idx in rng.sample(range(len(items)), len(items)):
            rec = op(idx, traced)
            if rec is not None:
                records.append(rec)
        cycles += 1
    return {
        "records": records,
        "failures": failures,
        "attempted": (cycles + 1) * len(items),
        "window": time.perf_counter() - t_start,
        "warmup": t_start - t_warm,
        "store": dict(store.counters),
        "store_bytes": store.stats().bytes,
        "rss": peak_rss_self_and_children_mb(),
    }


def run(cfg: dict, seed: int, seconds: float, trace: bool, work: str,
        refs_hook=None) -> dict:
    items, labels = ops.load_items(cfg, trace)
    store_dir = f"{work}/store"

    imports = import_seconds(cfg["imports"], cfg["setup_repeats"])
    # fill the store: one fresh child per compile, two at a time
    t0 = time.perf_counter()
    fill_spans, pending, running = [], list(items), []
    try:
        while pending or running:
            while pending and len(running) < 2:
                running.append(Child(_fill, pending.pop(0), store_dir, trace))
            for child in wait_any(running, timeout=150.0):
                running.remove(child)
                if child.error is not None:
                    raise RuntimeError(f"store fill failed: {child.error}")
                fill_spans.append(child.result)
    finally:
        for child in running:  # only left after an error
            child.kill()
    fill_s = time.perf_counter() - t0
    # of the set-up spans only the store writes feed a metric: the
    # compile layers must read zero on this workload
    setup_spans = [
        [["store.put", start, end, -1]
         for layer, start, end, _ in spans if layer == "store.put"]
        for spans in fill_spans
    ]

    # before timing, outside setup_s
    refs = in_child(ops.oracle_arrays, items)
    if refs_hook is not None:
        refs_hook(refs)
    loop = in_child(
        _op_loop, cfg, items, labels, refs, store_dir, seed, seconds, trace
    )
    records, failures = loop["records"], loop["failures"]
    plain = [r for r in records if not r["traced"]]
    lookups = loop["store"].get("hits", 0) + loop["store"].get("misses", 0)
    out = {
        "attempted": loop["attempted"],
        "failed": len(failures),
        "failures": failures,
        "ops": len(records),
        "e2e": {
            "setup_s": p50(imports) + fill_s + loop["warmup"],
            "e2e_s.p50": p50([r["e2e"] for r in plain]),
            "e2e_s.p90": p90([r["e2e"] for r in plain]),
            "compile_s.p50": p50([r["compile"] for r in plain]),
            "run_s.p50": p50([r["run"] for r in plain]),
            "ops_per_s": len(records) / loop["window"],
            "peak_rss_mb": loop["rss"],
            "fail_ratio": ratio(len(failures), loop["attempted"]),
        },
    }
    if trace:
        traced = [r for r in records if r["traced"]]
        totals = {
            **op_totals(traced),
            "store.hit_ratio": ratio(loop["store"].get("hits", 0), lookups),
            "store.bytes": loop["store_bytes"],
        }
        out["layers"] = layer_metrics(
            traced, [r["e2e"] for r in plain], totals, setup_spans
        )
        out["traced"] = traced
    for line in failures[:5]:
        print(f"run-warm failure: {line}", file=sys.stderr)
    return out
