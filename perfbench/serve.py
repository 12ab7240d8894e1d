"""serve-mix: ``repro serve --workers 2`` on a fresh store, driven by
one closed-loop client connection from this process.

Every ``cold_every``-th request compiles a (kernel, N) pair not yet
requested in the run; the rest cycle through a small hot set.  The
server's request log supplies the per-request split (queue wait,
compile, run) that the client cannot see; in a traced run the server's
own per-request traces supply its store reads, replays and writes.

One connection, not two: the server compiles and runs in threads of one
process, so two connections measure the two requests taking turns at
the interpreter lock, and that interleaving made the latencies of
identical runs spread by a quarter on a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import socket
import subprocess
import sys
import time

from common import in_child, kernel_source, p50, p90
from layers import layer_metrics, ratio

#: how long one spawned server may take to answer its first ping
SPAWN_TIMEOUT_S = 60.0
#: stop sending requests after this long, whatever the block (a run
#: must end within 180 s)
HARD_CAP_S = 100.0
#: server spans read from its per-request traces (durations in µs)
STORE_SPANS = ("store.get", "store.put", "service.compile")


class Conn:
    """One persistent newline-JSON connection to the server."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.rfile = self.sock.makefile("rb")

    def call(self, payload: dict) -> dict:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Server:
    """A ``repro serve`` subprocess with its own store and request log."""

    def __init__(self, cfg: dict, work: str, k: int, trace: bool):
        self.log = os.path.join(work, f"requests-{k}.jsonl")
        self.err_path = os.path.join(work, f"server-{k}.err")
        #: the server's per-request traces (traced runs only)
        self.trace_dir = os.path.join(work, f"traces-{k}") if trace else None
        argv = [sys.executable, "-m", "repro", "serve",
                "--workers", str(cfg["server_workers"]), "--port", "0",
                "--cache-dir", os.path.join(work, f"store-{k}"),
                "--request-log", self.log]
        if self.trace_dir:
            argv += ["--trace-dir", self.trace_dir]
        t0 = time.perf_counter()
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE, stderr=err,
                env=dict(os.environ, PYTHONUNBUFFERED="1"),
            )
        try:
            self.host, self.port = self._address(t0 + SPAWN_TIMEOUT_S)
            conn = Conn(self.host, self.port)
            try:
                if not conn.call({"op": "ping"}).get("pong"):
                    raise RuntimeError("server did not answer ping")
            finally:
                conn.close()
        except BaseException:
            self.kill()
            raise
        #: spawn to first answered ping
        self.setup_s = time.perf_counter() - t0

    def _address(self, deadline: float) -> tuple[str, int]:
        out = self.proc.stdout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([out], [], [], left)[0]:
                raise TimeoutError("repro serve did not announce its port")
            line = out.readline().decode()
            if not line:
                with open(self.err_path) as fh:
                    tail = fh.read()[-2000:]
                raise RuntimeError("repro serve exited: " + tail)
            if "listening on" in line:
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                return host, int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        conn = Conn(self.host, self.port)
        try:
            conn.call({"op": "shutdown"})
        finally:
            conn.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def records(self) -> dict[str, dict]:
        """The server's request-log entries of ``run`` requests, by rid."""
        out = {}
        with open(self.log) as fh:
            for line in fh:
                entry = json.loads(line)
                if entry.get("op") == "run":
                    out[entry["rid"]] = entry
        return out

    def store_layers(self, rid: str) -> list[tuple[str, float]]:
        """``(layer, seconds)`` of the store read, the replay of a warm
        artifact and the store write of one request, from the server's
        own trace of it; empty when the server wrote no trace."""
        path = os.path.join(self.trace_dir, f"request-{rid}.json")
        if not os.path.exists(path):
            return []
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        dur: dict[str, float] = {}
        for e in events:
            if e.get("ph") == "X" and e["name"] in STORE_SPANS:
                dur[e["name"]] = dur.get(e["name"], 0.0) + e["dur"] / 1e6
        get = dur.get("store.get", 0.0)
        if "store.put" in dur:
            return [("store.get", get), ("store.put", dur["store.put"])]
        # warm: ``service.compile`` is the store read plus the replay
        return [("store.get", get),
                ("service.load", dur.get("service.compile", get) - get)]


def request_plan(cfg: dict, seed: int):
    """Endless deterministic request sequence: ``(kind, kernel, n)``."""
    rng = random.Random(seed)
    hot, cold = cfg["hot"], cfg["cold"]
    hot_round: list[str] = []
    cold_round: list[str] = []
    rounds = -1
    i = 0
    while True:
        if i % cfg["cold_every"] == cfg["cold_every"] - 1:
            if not cold_round:
                rounds += 1
                cold_round = rng.sample(cold["kernels"], len(cold["kernels"]))
            n = cold["n_first"] + rounds * cold["n_step"]
            yield "cold", cold_round.pop(), n
        else:
            if not hot_round:
                hot_round = rng.sample(hot["kernels"], len(hot["kernels"]))
            yield "hot", hot_round.pop(), hot["n"]
        i += 1


def _checksums(pairs) -> dict:
    """SHA-256 per array of the sequential oracle, per (kernel, n)."""
    from repro.interp import Interpreter

    out = {}
    for kernel, n in pairs:
        source, params = kernel_source(kernel, n)
        interp = Interpreter.from_source(source, params)
        store = interp.run_sequential(interp.new_store())
        out[(kernel, n)] = {
            name: hashlib.sha256(view.data.tobytes(order="C")).hexdigest()
            for name, view in sorted(store.arrays.items())
        }
    return out


def _drive(server: Server, cfg: dict, seed: int, seconds: float) -> tuple:
    """One closed-loop client until ``seconds`` passed and the requests
    sent fill whole blocks (every cold kernel once, with the hot set
    between); returns the client records and the window length."""
    plan = request_plan(cfg, seed)
    block = cfg["cold_every"] * len(cfg["cold"]["kernels"])
    records: list[dict] = []
    conn = Conn(server.host, server.port)
    t_start = time.perf_counter()
    try:
        for i, (kind, kernel, n) in enumerate(plan):
            elapsed = time.perf_counter() - t_start
            if elapsed > HARD_CAP_S or (i % block == 0 and elapsed >= seconds):
                break
            source, params = kernel_source(kernel, n)
            rec = {"i": i, "rid": f"bench-{i}", "kind": kind,
                   "pair": (kernel, n)}
            t0 = time.perf_counter()
            try:
                rec["resp"] = conn.call({
                    "op": "run", "source": source, "params": params,
                    "options": cfg[kind]["options"],
                    "backend": cfg["backend"],
                    "workers": cfg["server_workers"], "rid": rec["rid"],
                })
            except (OSError, ValueError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            rec.update(t0=t0, t1=t1, latency=t1 - t0)
            records.append(rec)
            if "error" in rec:
                break
    finally:
        conn.close()
    end = records[-1]["t1"] if records else time.perf_counter()
    return records, end - t_start


def run(cfg: dict, seed: int, seconds: float, trace: bool, work: str,
        refs_hook=None) -> dict:
    hot_pairs = [(k, cfg["hot"]["n"]) for k in cfg["hot"]["kernels"]]
    refs = in_child(_checksums, hot_pairs)  # before timing

    setups = []
    server = None
    try:
        for k in range(cfg["setup_repeats"]):
            if server is not None:
                server.stop()
            server = Server(cfg, work, k, trace)
            setups.append(server.setup_s)
        records, window = _drive(server, cfg, seed, seconds)
        rss = server.peak_rss_mb()
        conn = Conn(server.host, server.port)
        try:
            stats = conn.call({"op": "stats"})
        finally:
            conn.close()
        server.stop()
    finally:
        if server is not None:
            server.kill()
    log = server.records()

    # references of the cold pairs actually requested, after the window
    cold_pairs = sorted({r["pair"] for r in records} - set(refs))
    refs.update(in_child(_checksums, cold_pairs))
    if refs_hook is not None:
        refs_hook(refs)

    failures, done = [], []
    for r in records:
        resp = r.get("resp") or {}
        entry = log.get(r["rid"], {})
        why = (
            r.get("error")
            or (not resp.get("ok") and f"ok:false {resp.get('error')}")
            or (not resp.get("match") and "match:false")
            or (resp.get("checksums") != refs[r["pair"]]
                and "checksums differ")
            or (not entry and "no request-log entry")
        )
        if why:
            failures.append(f"{r['pair']}: {why}")
            continue
        r["server"] = entry
        done.append(r)

    # a block of cold_every requests holds one cold request and one round
    # of the hot set; traced runs interleave plain and traced blocks
    # (plain, traced, traced, plain, ...) so both halves hold the same mix
    for r in done:
        r["traced"] = trace and (r["i"] // cfg["cold_every"]) % 4 in (1, 2)
    plain = [r for r in done if not r["traced"]]
    out = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "ops": len(done),
        "e2e": {
            "setup_s": p50(setups),
            "e2e_s.p50": p50([r["latency"] for r in plain]),
            "e2e_s.p90": p90([r["latency"] for r in plain]),
            "compile_s.p50": p50(
                [r["server"].get("compile_ms", 0.0) / 1e3 for r in plain]
            ),
            "run_s.p50": p50(
                [r["server"].get("run_ms", 0.0) / 1e3 for r in plain]
            ),
            "ops_per_s": len(done) / window,
            "peak_rss_mb": rss,
            "fail_ratio": ratio(len(failures), len(records)),
        },
    }
    if trace:
        traced = [
            _request_spans(r, server.store_layers(r["rid"]))
            for r in done if r["traced"]
        ]
        store = stats.get("store", {})
        counters = store.get("counters", {})
        statuses = [r["server"].get("status") for r in done]
        totals = {
            # what the server's own timings leave of a request's latency
            "service.overhead_s": p50([
                op["e2e"] - sum(sp[2] - sp[1] for sp in op["spans"]
                                if sp[3] == 0)
                for op in traced
            ]),
            "store.hit_ratio": ratio(
                counters.get("hits", 0),
                counters.get("hits", 0) + counters.get("misses", 0),
            ),
            "store.bytes": store.get("bytes", 0),
            "service.status.cold": statuses.count("cold"),
            "service.status.warm": statuses.count("warm"),
            "service.status.inflight": statuses.count("inflight"),
        }
        out["layers"] = layer_metrics(
            traced, [r["latency"] for r in plain], totals
        )
        out["traced"] = traced
    for line in failures[:5]:
        print(f"serve-mix failure: {line}", file=sys.stderr)
    return out


def _request_spans(r: dict, store_layers: list) -> dict:
    """Client span of one request, split by the server's own timings;
    the store layers nest in ``service.compile``."""
    entry = r["server"]
    spans = [["bench.op", r["t0"], r["t1"], -1]]
    at = r["t0"]
    for layer, field in (
        ("service.queue_wait", "queue_wait_ms"),
        ("service.compile", "compile_ms"),
        ("service.run", "run_ms"),
    ):
        dur = float(entry.get(field) or 0.0) / 1e3
        spans.append([layer, at, at + dur, 0])
        if layer == "service.compile":
            parent, sub = len(spans) - 1, at
            for name, sub_dur in store_layers:
                spans.append([name, sub, sub + sub_dur, parent])
                sub += sub_dur
        at += dur
    return {"e2e": r["latency"], "spans": spans, "counts": {}}
