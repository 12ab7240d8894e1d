"""Decoder fuzz campaign over real compile artifacts.

Each sample mutates one artifact written by a real compile — truncation,
bit flips, and *re-signed* edits whose SHA-256 is recomputed so that
they get past the checksum into the length, JSON and buffer-reference
checks.  ``decode`` may only return a document or raise
:class:`ArtifactCorruptError`; ``ArtifactStore.get`` may only answer a
hit or a miss, and deletes every file the decoder refused.

Tier 1 runs 200 samples; the nightly campaign honours ``--fuzz-samples``::

    pytest tests/store -q -m tier2 --fuzz-samples 1000 -k decoder_fuzz_campaign
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.driver import TransformOptions
from repro.interp import Interpreter
from repro.service import cached_analysis
from repro.store import ArtifactCorruptError, ArtifactStore, artifact_key
from repro.store.artifact import unpack_artifact
from repro.store.codec import MAGIC, decode

from ..conftest import LISTING1, TWO_NEST_COPY

DOTPROD = """
for(i=0; i<N; i++)
  S: s[0] += dot(a[i], b[i]);
"""

_SIGNED = len(MAGIC) + 32  # the checksum covers every byte from here
_PREFIX = _SIGNED + 8


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``(key, file bytes)`` of three real artifacts: a plain pipeline,
    a privatized reduction (proofs) and a fusion-off compile."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("corpus")))
    base = dict(check=False, verify=False, workers=2)
    cases = [
        (TWO_NEST_COPY, {"N": 6}, TransformOptions(**base)),
        (DOTPROD, {"N": 16}, TransformOptions(privatize=True, **base)),
        (LISTING1, {"N": 8}, TransformOptions(fuse="off", **base)),
    ]
    out = []
    for source, params, opts in cases:
        interp = Interpreter.from_source(source, params, fuse=opts.fuse)
        cached_analysis(interp, source, params, opts, store)
        key = artifact_key(source, params, opts)
        with open(store.path_for(key), "rb") as fh:
            out.append((key, fh.read()))
    return out


# ----------------------------------------------------------------------
# mutators: (rng, file bytes) -> (mutant bytes, re-signed?)
# ----------------------------------------------------------------------
def _sign(body: bytes) -> bytes:
    return MAGIC + hashlib.sha256(body).digest() + body


def _split(data: bytes) -> tuple[bytes, bytes]:
    """(JSON header, buffer section) of a well-formed file."""
    n = int.from_bytes(data[_SIGNED:_PREFIX], "little")
    return data[_PREFIX : _PREFIX + n], data[_PREFIX + n :]


def _frame(header: bytes, buffers: bytes) -> bytes:
    return _sign(len(header).to_bytes(8, "little") + header + buffers)


def truncate(rng, data):
    return data[: rng.randrange(len(data))], False


def flip_bits(rng, data):
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out), False


def header_length(rng, data):
    header, buffers = _split(data)
    n = len(header)
    bad = rng.choice(
        [0, 1, n - 1, n + 1, n + 8, n + len(buffers), 2**63, 2**64 - 1,
         rng.randrange(2**64)]
    )
    return _sign(bad.to_bytes(8, "little") + header + buffers), True


def json_bytes(rng, data):
    header, buffers = _split(data)
    out = bytearray(header)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(out))
        op = rng.randrange(3)
        if op == 0:
            out[pos] = rng.randrange(256)
        elif op == 1:
            del out[pos]
        else:
            out.insert(pos, rng.choice(b'{}[]",:0-9e\\x\xff'))
    return _frame(bytes(out), buffers), True


def _refs(node, found):
    """Every ``__nd__`` reference list in a parsed (hook-free) header."""
    if isinstance(node, dict):
        if set(node) == {"__nd__"}:
            found.append(node)
        for value in node.values():
            _refs(value, found)
    elif isinstance(node, list):
        for value in node:
            _refs(value, found)
    return found


def array_refs(rng, data):
    header, buffers = _split(data)
    doc = json.loads(header)
    ref = rng.choice(_refs(doc, []))
    old = ref["__nd__"]
    bad = list(old)
    bad[rng.randrange(len(old))] = rng.choice(
        [-1, -(2**63), len(buffers) // 8, 2**31, 2**32, 2**62, 2**63,
         2**64, 10**30, 1.5, "3", True, None, [], {}]
    )
    ref["__nd__"] = rng.choice(
        [
            bad,
            old + [rng.choice([0, 2, 2**40])],  # extra dim
            old[:1] + [2**32, 2**32],  # product overflows int64
            old[:1] + [0, 2**63 + 5],  # empty but oversized dim
            old[:1] + [0] * 70,  # more dims than NumPy allows
            old[:1],  # scalar
            [],
            old[0],
            None,
        ]
    )
    text = json.dumps(doc, separators=(",", ":")).encode()
    return _frame(text, buffers), True


def buffer_section(rng, data):
    header, buffers = _split(data)
    cut = rng.randrange(len(buffers) + 1) if buffers else 0
    return _frame(header, buffers[:cut] + bytes(rng.randrange(9))), True


MUTATORS = (truncate, flip_bits, header_length, json_bytes, array_refs,
            buffer_section)


# ----------------------------------------------------------------------
def _check(store, key, mutant, resigned):
    """The decoder contract on one mutant; returns True if refused."""
    try:
        decode(mutant)
        expected = unpack_artifact(mutant)
    except ArtifactCorruptError as exc:
        if resigned:
            assert "checksum" not in str(exc), "re-signing did not hold"
        expected = None
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(mutant)
    got = store.get(key)
    if expected is None or expected.key != key:
        assert got is None
        assert not os.path.exists(path), "a refused artifact must be reaped"
        return True
    assert got is not None and got.key == key
    return False


def _campaign(corpus, tmp_path, seed, samples):
    rng = random.Random(seed)
    store = ArtifactStore(str(tmp_path))
    refused = dict.fromkeys([m.__name__ for m in MUTATORS], 0)
    for _ in range(samples):
        key, data = rng.choice(corpus)
        mutator = rng.choice(MUTATORS)
        mutant, resigned = mutator(rng, data)
        refused[mutator.__name__] += _check(store, key, mutant, resigned)
    # every mutation family must actually reach a refusal
    assert all(refused.values()), refused
    assert store.counters["corrupt"] == sum(refused.values())


def test_decoder_fuzz(corpus, tmp_path, pytestconfig):
    """Tier 1: 200 seeded mutants."""
    seed = pytestconfig.getoption("--fuzz-seed")
    _campaign(corpus, tmp_path, seed ^ 0xC0DEC, 200)


@pytest.mark.tier2
def test_decoder_fuzz_campaign(corpus, tmp_path, pytestconfig):
    """Nightly: ``--fuzz-samples`` mutants (1000 in CI)."""
    seed = pytestconfig.getoption("--fuzz-seed")
    samples = pytestconfig.getoption("--fuzz-samples")
    _campaign(corpus, tmp_path, seed + 0xC0DEC, samples)


def test_unmutated_corpus_round_trips(corpus, tmp_path):
    """Control: the untouched files decode and are served as hits."""
    store = ArtifactStore(str(tmp_path))
    for key, data in corpus:
        assert not _check(store, key, data, resigned=False)
    assert store.counters["hits"] == len(corpus)
