"""Self-test of the benchmark at tiny sizes (N=8, a few ops each).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` keeps its contract, that every
workload emits exactly the metrics ``BENCHMARK.json`` names, with their
units, in plain and traced runs and for two seeds, that a corrupted
oracle reference is counted as a failure, that the compile-cold
isolation check catches inherited state, that every per-layer time is
measured on a workload of ``BENCHMARK.json``, and that the benchmark refuses
to run (exit code not 0, no result line) in a directory without the
sources.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

from common import WORK_DIR, import_repro, load_manifest, load_workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_configs() -> dict:
    """The real workload records, shrunk to N=8 and a few ops."""
    real = load_workloads()
    cold = copy.deepcopy(real["compile-cold"])
    cold.update(setup_repeats=1, min_ops=8)
    cold["ops"] = [
        {"kernel": "P1", "n": 8, "options": {}},
        {"kernel": "P5", "n": 8, "options": {}},
        {"kernel": "dotprod", "n": 8, "options": {"privatize": True}},
        {"kernel": "subswap", "n": 8,
         "options": {"kinds": ["FLOW", "ANTI", "OUTPUT"]}},
    ]
    warm = copy.deepcopy(real["run-warm"])
    warm["setup_repeats"] = 1
    warm["ops"] = [
        {"kernel": "P3", "n": 8, "options": {"coarsen": 2}},
        {"kernel": "P4", "n": 8, "options": {"coarsen": 2}},
    ]
    serve = copy.deepcopy(real["serve-mix"])
    serve.update(setup_repeats=1, cold_every=3)
    serve["hot"].update(kernels=["P1", "P3"], n=8)
    serve["cold"].update(kernels=["P1", "P2"], n_first=8)
    return {"compile-cold": cold, "run-warm": warm, "serve-mix": serve}


def check_manifest(manifest: dict, workloads: dict) -> None:
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }, sorted(manifest)
    assert {w["name"] for w in manifest["workloads"]} <= set(workloads)
    assert 2 <= len(manifest["workloads"]) <= 8
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25, m
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        assert UNIT.match(m["unit"]), m
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    layer_names = {m["name"] for m in manifest["per_layer"]}
    e2e_names = {m["name"] for m in manifest["end_to_end"]}
    with open(os.path.join(os.path.dirname(__file__), "workloads.json")) as fh:
        mapping = json.load(fh)["layers"]
    for row in mapping:
        assert set(row["metrics"]) <= layer_names, row
        assert set(row["moves"]) <= e2e_names, row
    assert {n for row in mapping for n in row["metrics"]} == layer_names


def check_metrics(result: dict, spec: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{what}: metrics {sorted(got)} != {sorted(want)}"
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], float), (what, name)


def check_layers_covered(manifest: dict, traced: dict) -> None:
    """Every per-layer time runs on a workload of ``BENCHMARK.json``."""
    gated = [w["name"] for w in manifest["workloads"]]
    for m in manifest["per_layer"]:
        if m["unit"] == "s":
            assert any(
                traced[w]["metrics"][m["name"]]["value"] > 0 for w in gated
            ), f"{m['name']} reads 0 on every workload of BENCHMARK.json"


def corrupt(refs) -> None:
    """Change every reference: one array element, or one checksum."""
    items = refs.values() if isinstance(refs, dict) else refs
    for ref in items:
        name = sorted(ref)[0]
        if isinstance(ref[name], str):
            ref[name] = "0" * 64
        else:
            ref[name].flat[0] += 1.0


def check_isolation_detector() -> None:
    from cold import isolation_problems

    clean = {"calls": 0, "hits": 0, "misses": 0, "entries": 0, "interned": 0}
    first = {"pid": 1, "presburger": (clean, dict(clean, calls=10))}
    warm = {"pid": 2, "presburger": (dict(clean, entries=5),
                                     dict(clean, calls=4))}
    assert not isolation_problems([(0, first)])
    problems = isolation_problems([(0, first), (0, warm)])
    assert len(problems) == 2, problems


def check_refuses_without_sources() -> None:
    os.makedirs(WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "compile-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    import_repro()
    from run import run_one

    manifest = load_manifest()
    check_manifest(manifest, load_workloads())
    check_isolation_detector()
    check_refuses_without_sources()
    last_traced = {}
    for name, cfg in tiny_configs().items():
        for seed in (1, 2):
            plain = run_one(name, seed, 1.0, False, cfg=cfg)
            assert plain["correct"], (name, seed, plain["report"])
            check_metrics(plain, manifest["end_to_end"], f"{name} plain")
            traced = run_one(name, seed, 1.0, True, cfg=cfg)
            assert traced["correct"], (name, seed, traced["report"])
            check_metrics(traced, manifest["per_layer"], f"{name} traced")
            last_traced[name] = traced
        bad = run_one(name, 3, 1.0, False, cfg=cfg, refs_hook=corrupt)
        assert not bad["correct"] and bad["failed"] >= 1, (name, bad)
        print(f"selftest: {name} ok", flush=True)
    check_layers_covered(manifest, last_traced)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
