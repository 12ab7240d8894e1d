"""compile-cold: every op is a whole compile plus a serial run, in a
fresh child forked from a parent that imported ``repro`` and compiled
nothing.  The op is timed inside the child."""

from __future__ import annotations

import os
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
    presburger_counters,
    wait_any,
)
from layers import layer_metrics, op_totals, ratio

#: stop launching ops after this long, whatever the cycle (a run must
#: end within 180 s)
HARD_CAP_S = 120.0


def _op(source, params, options, backend, traced) -> dict:
    """One op; runs in its own forked child."""
    before = presburger_counters()
    tr = Tracer() if traced else None
    with tr.span("bench.op") if tr else nullcontext():
        t0 = time.perf_counter()
        interp = ops.build_interpreter(source, params, options, tr)
        analysis = ops.analyze(interp, options, tr)
        t1 = time.perf_counter()
        out, stats = ops.execute(
            interp, analysis, backend, options.workers, tr
        )
        t2 = time.perf_counter()
    after = presburger_counters()
    counts = {
        **ops.analysis_counts(interp, analysis),
        **ops.execution_counts(stats),
    }
    if before is not None:
        counts["presburger_ops"] = after["calls"] - before["calls"]
    return {
        "e2e": t2 - t0,
        "compile": t1 - t0,
        "run": t2 - t1,
        "arrays": ops.arrays_of(out),
        "approx": ops.approx_arrays(analysis),
        "presburger": (before, after),
        "spans": tr.take() if tr else None,
        "counts": counts,
        "pid": os.getpid(),
    }


def isolation_problems(results: list[tuple[int, dict]]) -> list[str]:
    """Evidence that no op inherited state from an earlier op.

    Every child must start with empty Presburger op-cache counters and
    tables, and every repeat of a kernel must do exactly the same
    Presburger work as its first run.  Without the cache module only
    the distinct-process check remains.
    """
    problems = []
    pids = [r["pid"] for _, r in results]
    if len(set(pids)) != len(pids):
        problems.append("two ops ran in the same process")
    first_calls: dict[int, int] = {}
    for idx, r in results:
        before, after = r["presburger"]
        if before is None:
            continue
        if any(before.values()):
            problems.append(f"op {idx} started with Presburger state {before}")
        calls = after["calls"]
        if first_calls.setdefault(idx, calls) != calls:
            problems.append(
                f"op {idx} repeat did {calls} Presburger ops, first run "
                f"{first_calls[idx]}"
            )
    return problems


def run(cfg: dict, seed: int, seconds: float, trace: bool, work: str,
        refs_hook=None) -> dict:
    del work  # compile-cold keeps no files
    items, labels = ops.load_items(cfg, trace)

    setup = import_seconds(cfg["imports"], cfg["setup_repeats"])
    # before timing, outside setup_s
    refs = in_child(ops.oracle_arrays, items)
    if refs_hook is not None:
        refs_hook(refs)
    parent_before = presburger_counters()

    rng = random.Random(seed)
    order: list[int] = []
    results: list[tuple[int, dict]] = []
    failures: list[str] = []
    rss = 0.0
    running: list[Child] = []
    meta: dict[int, tuple[int, bool]] = {}
    launched = 0
    t_start = time.perf_counter()

    def may_launch() -> bool:
        elapsed = time.perf_counter() - t_start
        if elapsed > HARD_CAP_S:
            return False
        cycles, rest = divmod(launched, len(items))
        # traced runs alternate whole traced and plain cycles, so both
        # halves hold the same kernels; they end after a plain cycle
        at_boundary = rest == 0 and not (trace and cycles % 2)
        return not (
            at_boundary and launched >= cfg["min_ops"] and elapsed >= seconds
        )

    try:
        while True:
            while len(running) < cfg["clients"] and may_launch():
                if launched == len(order):
                    order.extend(rng.sample(range(len(items)), len(items)))
                idx = order[launched]
                traced = trace and (launched // len(items)) % 2 == 0
                source, params, options = items[idx]
                child = Child(
                    _op, source, params, options, cfg["backend"], traced
                )
                meta[child.pid] = (idx, traced)
                running.append(child)
                launched += 1
            if not running:
                break
            for child in wait_any(running, timeout=150.0):
                running.remove(child)
                idx, traced = meta.pop(child.pid)
                rss = max(rss, child.peak_rss_mb())
                if child.error is not None:
                    failures.append(f"{labels[idx]}: {child.error}")
                    continue
                r = child.result
                r["traced"] = traced
                why = arrays_match(refs[idx], r.pop("arrays"), r["approx"])
                if why:
                    failures.append(f"{labels[idx]}: {why}")
                else:
                    results.append((idx, r))
    finally:
        for child in running:  # only left after an error
            child.kill()
    window = time.perf_counter() - t_start

    problems = isolation_problems(results)
    parent_after = presburger_counters()
    if parent_before != parent_after:
        problems.append("the parent process ran Presburger operations")
    failures.extend(f"isolation: {p}" for p in problems)

    done = [r for _, r in results]
    plain = [r for r in done if not r["traced"]]
    out = {
        "attempted": launched,
        "failed": len(failures),
        "failures": failures,
        "e2e": {
            "setup_s": p50(setup),
            "e2e_s.p50": p50([r["e2e"] for r in plain]),
            "e2e_s.p90": p90([r["e2e"] for r in plain]),
            "compile_s.p50": p50([r["compile"] for r in plain]),
            "run_s.p50": p50([r["run"] for r in plain]),
            "ops_per_s": len(done) / window,
            "peak_rss_mb": rss,
            "fail_ratio": ratio(len(failures), launched),
        },
        "ops": len(done),
    }
    if trace:
        traced = [r for r in done if r["traced"]]
        out["layers"] = layer_metrics(
            traced, [r["e2e"] for r in plain], op_totals(traced)
        )
        out["traced"] = traced
    for line in failures[:5]:
        print(f"compile-cold failure: {line}", file=sys.stderr)
    return out
