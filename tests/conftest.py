"""Shared fixtures: the paper's kernels and small SCoP factories."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seed",
        type=int,
        default=20220822,
        help="seed of the differential fuzz harness (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-samples",
        type=int,
        default=48,
        help="number of random programs per fuzz test "
        "(raise to 200+ for a thorough run)",
    )
    parser.addoption(
        "--fuzz-reduce",
        action="store_true",
        default=False,
        help="run the 200-sample transitive-reduction closure "
        "preservation campaign (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-privatize",
        action="store_true",
        default=False,
        help="run the 200-sample privatized-parallel vs sequential "
        "execution agreement campaign (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-fuse",
        action="store_true",
        default=False,
        help="run the 200-sample fused-closure vs interpreter "
        "bit-equality differential campaign, every 25th sample also "
        "on the process backend (tests/fuzz)",
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden codegen files instead of comparing",
    )


def pytest_collection_modifyitems(config, items):
    # tier-2 tests only run when explicitly selected (e.g. ``-m tier2``),
    # so the ROADMAP tier-1 verify line stays fast and unchanged.
    if "tier2" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="tier-2: run with -m tier2")
    for item in items:
        if "tier2" in item.keywords:
            item.add_marker(skip)

from repro.interp import Interpreter
from repro.scop import extract_scop
from repro.lang import parse
from repro.tasking import run_graph


def run_blocks(graph, interp, store, workers: int = 4) -> dict:
    """Run each task's block of ``graph`` against ``store`` on threads."""
    return run_graph(
        graph,
        lambda t: interp.run_block(store, t.block.statement, t.block.iterations),
        workers,
    )

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);

for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""

LISTING3 = LISTING1 + """
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    U: C[i][j] = h(A[2*i][2*j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
"""

TWO_NEST_COPY = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: A[i][j] = f(A[i][j]);
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    T: B[i][j] = g(A[i][j], B[i][j]);
"""


@pytest.fixture
def listing1_scop():
    return extract_scop(parse(LISTING1), {"N": 20})


@pytest.fixture
def listing1_scop_small():
    return extract_scop(parse(LISTING1), {"N": 10})


@pytest.fixture
def listing3_scop():
    return extract_scop(parse(LISTING3), {"N": 16})


@pytest.fixture
def listing1_interp():
    return Interpreter.from_source(LISTING1, {"N": 12})


@pytest.fixture
def listing3_interp():
    return Interpreter.from_source(LISTING3, {"N": 12})


@pytest.fixture
def copy_scop():
    return extract_scop(parse(TWO_NEST_COPY), {"N": 8})
