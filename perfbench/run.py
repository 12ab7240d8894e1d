"""End-to-end, layer-by-layer benchmark of the pipeline compiler.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --trace 0
    python3 perfbench/run.py            # every workload, plain then traced

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes its spans to ``.bench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed op makes the exit code 1; a
checkout without ``src/repro`` makes it 2, with no result printed.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import (
    WORK_DIR,
    SetupError,
    emit,
    import_repro,
    load_manifest,
    load_workloads,
    metric_dict,
    write_trace,
)


#: workload name -> module implementing ``run``
MODULES = {"compile-cold": "cold", "run-warm": "warm", "serve-mix": "serve"}


def _units(manifest: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in manifest[key]}


def format_e2e(name: str, seed: int, res: dict, units: dict) -> str:
    lines = [
        f"{name} (seed {seed}): {res['ops']} ops, "
        f"{res['failed']} failed of {res['attempted']} attempted"
    ]
    for metric, value in res["e2e"].items():
        unit = units.get(metric, "ratio")
        lines.append(f"  {metric:<16}{value:>14.6f} {unit}")
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            cfg: dict | None = None, refs_hook=None) -> dict:
    """Run one workload; returns the result line as a dict (plus the
    human-readable report under ``"report"``)."""
    import layers

    manifest = load_manifest()
    cfg = cfg or load_workloads()[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        module = importlib.import_module(MODULES[name])
        res = module.run(cfg, seed, seconds, trace, work, refs_hook)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        values = res["layers"]
        units = _units(manifest, "per_layer")
        text = layers.report(name, res["traced"], values)
        path = write_trace(name, seed, {
            "workload": name,
            "seed": seed,
            "span_fields": ["layer", "start_s", "end_s", "parent"],
            "ops": [
                {"op": i, "e2e_s": op["e2e"], "spans": op["spans"]}
                for i, op in enumerate(res["traced"])
            ],
            "per_layer": values,
        })
        text += f"\n  spans written to {path}"
    else:
        values = res["e2e"]
        units = _units(manifest, "end_to_end")
        text = format_e2e(name, seed, res, units)
    return {
        "report": text,
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metric_dict(values, units),
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, plain then traced, each in its own process."""
    status = 0
    summary = {}
    for name in MODULES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            if lines:
                summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_repro()
        manifest = load_manifest()
        names = list(load_workloads())
    except (SetupError, OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds or manifest["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{names} or all", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, seconds, bool(args.trace))
    print(result.pop("report"))
    emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
