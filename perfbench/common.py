"""Shared pieces of the end-to-end benchmark.

* locating the checkout's ``src/`` and importing ``repro`` from it;
* the workload records (``workloads.json``) and kernel sources;
* forked children that return a pickled result over a pipe;
* the layer-span recorder used by traced runs, and self-time tables;
* order statistics and the result line.

Everything here runs from the root of a checkout; the benchmark reads
and writes nothing outside it.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch stores, request logs and server state of one run (deleted)
WORK_DIR = ".bench_work"
#: traced-run span files and reports (kept)
OUT_DIR = ".bench_out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad config)."""


# ----------------------------------------------------------------------
# checkout and configuration
# ----------------------------------------------------------------------
def import_repro() -> None:
    """Put ``./src`` first on the path and import ``repro`` from it.

    Refuses an installed copy elsewhere: the benchmark measures the
    sources of the checkout it runs in, never some other build.
    """
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SetupError(
            "no src/repro in the working directory; run from the root "
            "of a checkout"
        )
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SetupError(f"repro imported from {repro.__file__}, not {src}")


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)["workloads"]


def load_manifest(path: str = "BENCHMARK.json") -> dict:
    with open(path) as fh:
        return json.load(fh)


def kernel_source(name: str, n: int) -> tuple[str, dict]:
    """``(source, params)`` of a Table 9 kernel or a shipped example.

    P-kernels bake their size into the loop bounds; the example kernels
    take ``N`` as a parameter.
    """
    if name.startswith("P") and name[1:].isdigit():
        from repro.workloads.pkernels import kernel

        return kernel(name).source(n), {}
    path = os.path.join("examples", "kernels", name + ".c")
    with open(path) as fh:
        return fh.read(), {"N": n}


def make_options(spec: dict):
    """``TransformOptions`` from a workload record's option dict."""
    from repro.driver import TransformOptions
    from repro.scop import DepKind

    kw = dict(spec)
    if "kinds" in kw:
        kw["kinds"] = tuple(DepKind[k] for k in kw["kinds"])
    return TransformOptions(**kw)


def interp_kwargs(options) -> dict:
    """The ``Interpreter`` knobs the driver and server take from options."""
    return {
        k: getattr(options, k)
        for k in ("vectorize", "fuse")
        if hasattr(options, k)
    }


def presburger_counters() -> dict | None:
    """Op-cache counters while ``repro.presburger.cache`` exists."""
    try:
        from repro.presburger import cache
    except ImportError:
        return None
    st = cache.stats()
    return {
        "calls": sum(op.calls for op in st.ops.values()),
        "hits": st.hits,
        "misses": st.misses,
        "entries": st.entries,
        "interned": st.interned,
    }


# ----------------------------------------------------------------------
# forked children
# ----------------------------------------------------------------------
class Child:
    """A forked child computing ``fn(*args)``; its result comes back
    pickled over a pipe.  Only this benchmark writes that pipe."""

    def __init__(self, fn, *args):
        sys.stdout.flush()
        sys.stderr.flush()
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(r)
            try:
                payload = ("ok", fn(*args))
            except BaseException as exc:  # reported, then the child exits
                payload = (
                    "error",
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                )
            try:
                with os.fdopen(w, "wb") as fh:
                    fh.write(pickle.dumps(payload))
            finally:
                os._exit(0)
        os.close(w)
        self.pid = pid
        self.fd = r
        self._chunks: list[bytes] = []
        self.rusage = None
        self.result = None
        self.error: str | None = None

    def read_some(self) -> bool:
        """Read what is available; True once the child closed the pipe
        and has been reaped (then ``result``/``error`` are set)."""
        chunk = os.read(self.fd, 1 << 16)
        if chunk:
            self._chunks.append(chunk)
            return False
        os.close(self.fd)
        _, status, self.rusage = os.wait4(self.pid, 0)
        data = b"".join(self._chunks)
        if not data:
            self.error = f"child exited without a result (status {status})"
        else:
            kind, value = pickle.loads(data)
            if kind == "ok":
                self.result = value
            else:
                self.error = value
        return True

    def kill(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.close(self.fd)
        except OSError:
            pass
        os.waitpid(self.pid, 0)

    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else 0.0


def wait_any(children: list[Child], timeout: float) -> list[Child]:
    """Block until at least one child finished; returns the finished."""
    done: list[Child] = []
    deadline = time.monotonic() + timeout
    while not done:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark child did not finish in time")
        ready, _, _ = select.select([c.fd for c in children], [], [], left)
        for c in children:
            if c.fd in ready and c.read_some():
                done.append(c)
    return done


def in_child(fn, *args, timeout: float = 150.0):
    """Run ``fn(*args)`` in one forked child and return its result."""
    child = Child(fn, *args)
    try:
        wait_any([child], timeout)
    except BaseException:
        child.kill()
        raise
    if child.error is not None:
        raise RuntimeError(f"benchmark child failed: {child.error}")
    return child.result


def peak_rss_self_and_children_mb() -> float:
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def import_seconds(modules: list[str], repeats: int) -> list[float]:
    """Import time of ``modules`` in fresh interpreters, one per repeat."""
    import subprocess

    code = (
        "import sys, time\n"
        "sys.path.insert(0, 'src')\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(repr(time.perf_counter() - t))\n"
    )
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ----------------------------------------------------------------------
# layer spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans of one process: ``(layer, start, end, parent)``.

    The benchmark opens a span around each of its own calls into a
    module's public function; nothing inside the program is touched.
    Spans stay in memory until the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [layer, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def add(self, layer: str, start: float, end: float, parent: int) -> None:
        """A span measured by the program itself (e.g. a wall time the
        call returned), placed under ``parent``."""
        self.spans.append([layer, start, end, parent])

    def take(self) -> list[list]:
        out, self.spans = self.spans, []
        return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: duration minus what child spans cover."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (layer, start, end, _parent) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - covered[i]
    return out


def layer_table(ops_spans: list[list[list]]) -> list[tuple]:
    """``(layer, total self s, median self s per op, ops)`` rows."""
    per_op = [self_times(s) for s in ops_spans]
    layers = sorted({k for d in per_op for k in d})
    rows = []
    for layer in layers:
        vals = [d[layer] for d in per_op if layer in d]
        rows.append((layer, sum(vals), statistics.median(vals), len(vals)))
    return rows


def format_layer_table(title: str, rows, op_total: float) -> str:
    lines = [
        f"{title}: per-layer self time "
        f"(op time {op_total:.3f} s over all traced ops)",
        f"  {'layer':<22}{'total s':>10}{'share':>8}{'p50/op s':>11}"
        f"{'ops':>6}",
    ]
    for layer, total, med, n in sorted(rows, key=lambda r: -r[1]):
        share = total / op_total if op_total else 0.0
        lines.append(
            f"  {layer:<22}{total:>10.4f}{share:>8.1%}{med:>11.5f}{n:>6}"
        )
    return "\n".join(lines)


def write_trace(workload: str, seed: int, doc: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ----------------------------------------------------------------------
# statistics and the result line
# ----------------------------------------------------------------------
def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def arrays_match(ref: dict, out: dict, approx: frozenset = frozenset()) -> str:
    """'' when ``out`` matches the oracle ``ref``, else why not.

    Bit-exact, except arrays in ``approx`` (reassociated sum/product
    accumulators of privatized kernels), which must agree within
    ``|out - ref| <= 1e-9 * |ref| + 1e-12`` element-wise.
    """
    import numpy as np

    if sorted(ref) != sorted(out):
        return f"array sets differ: {sorted(ref)} vs {sorted(out)}"
    for name in sorted(ref):
        a, b = ref[name], out[name]
        if a.shape != b.shape:
            return f"{name}: shape {b.shape} != {a.shape}"
        if name in approx:
            if not np.allclose(b, a, rtol=1e-9, atol=1e-12):
                return f"{name}: beyond the sum tolerance"
        elif not np.array_equal(a, b):
            return f"{name}: not bit-identical"
    return ""


def metric_dict(values: dict, units: dict) -> dict:
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }


def emit(result: dict) -> None:
    """The result line: the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
