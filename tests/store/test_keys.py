"""Cache-key derivation: stability, sensitivity, and the fingerprint."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.driver import TransformOptions
from repro.scop import DepKind
from repro.store import artifact_key, kernel_sha, options_fingerprint
from repro.workloads import CostModel

from ..conftest import TWO_NEST_COPY

PARAMS = {"N": 8}


def test_key_is_deterministic_in_process():
    opts = TransformOptions()
    assert artifact_key(TWO_NEST_COPY, PARAMS, opts) == artifact_key(
        TWO_NEST_COPY, PARAMS, opts
    )


def test_key_is_stable_across_processes():
    """Same source + params + options must hash identically in a fresh
    interpreter — the store is shared between processes."""
    opts = TransformOptions()
    here = artifact_key(TWO_NEST_COPY, PARAMS, opts)
    code = (
        "import json, sys\n"
        "from repro.driver import TransformOptions\n"
        "from repro.store import artifact_key\n"
        "src, params = json.loads(sys.stdin.read())\n"
        "print(artifact_key(src, params, TransformOptions()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps([TWO_NEST_COPY, PARAMS]),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == here


#: one flipped (non-default) value per TransformOptions field — every
#: field must perturb the key, or stale artifacts would be replayed
#: under the wrong configuration.
_FLIPS = {
    "kinds": (DepKind.FLOW, DepKind.ANTI),
    "coarsen": 3,
    "hybrid": True,
    "check": False,
    "static_checks": True,
    "verify": False,
    "workers": 9,
    "overhead": 0.5,
    "cost_model": CostModel(per_iteration={"S": 7.0}, default=2.0),
    "presburger_cache": True,
    "fuse": "off",
    "exec_backend": "serial",
    "reduce_deps": True,
    "tune": "model",
    "collect_events": True,
    "portfolio": True,
    "privatize": True,
    "privatize_parts": 5,
}


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(TransformOptions)]
)
def test_every_options_field_perturbs_the_key(name):
    base = TransformOptions()
    assert name in _FLIPS, (
        f"TransformOptions grew a field {name!r} without a key-flip test; "
        "add it to _FLIPS so the cache key is known to cover it"
    )
    flipped = dataclasses.replace(base, **{name: _FLIPS[name]})
    assert artifact_key(TWO_NEST_COPY, PARAMS, base) != artifact_key(
        TWO_NEST_COPY, PARAMS, flipped
    )


def test_key_depends_on_source_and_params():
    opts = TransformOptions()
    base = artifact_key(TWO_NEST_COPY, PARAMS, opts)
    assert artifact_key(TWO_NEST_COPY + " ", PARAMS, opts) != base
    assert artifact_key(TWO_NEST_COPY, {"N": 9}, opts) != base


def test_kernel_sha_matches_utf8_digest():
    import hashlib

    assert (
        kernel_sha("x") == hashlib.sha256(b"x").hexdigest()
    )


def test_fingerprint_is_a_stable_hex_digest():
    fp = options_fingerprint(TransformOptions())
    assert fp == options_fingerprint(TransformOptions())
    assert len(fp) == 64
    int(fp, 16)  # hex digest


def test_fingerprint_rejects_unknown_values():
    class Weird:
        pass

    opts = dataclasses.replace(TransformOptions(), tune=Weird())
    with pytest.raises(TypeError):
        options_fingerprint(opts)
