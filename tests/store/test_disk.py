"""The on-disk store: round-trips, corruption handling, eviction."""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro.store import (
    ArtifactCorruptError,
    ArtifactStore,
    CompileArtifact,
    default_cache_dir,
)
from repro.store.artifact import pack_artifact, unpack_artifact
from repro.store.codec import MAGIC, encode


def _artifact(key: str = "ab" * 32) -> CompileArtifact:
    return CompileArtifact(
        key=key,
        kernel_sha="cd" * 32,
        params={"N": 8},
        options_fingerprint="ef" * 32,
        info={"points": np.arange(12, dtype=np.int64).reshape(6, 2) - 3},
        task_ast={
            "header": {"version": 2, "nests": []},
            "flat": np.arange(5, dtype=np.int64),
            "shapes": np.zeros((0, 2), dtype=np.int64),
        },
        diagnostics=[{"code": "RPA001", "severity": "note", "text": "hi"}],
        timings={"analyze_s": 0.25},
    )


def test_pack_unpack_round_trip():
    art = _artifact()
    back = unpack_artifact(pack_artifact(art))
    assert back == art


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d[: len(MAGIC) + 10],  # truncated mid-checksum
        lambda d: d[:-3],  # truncated payload
        lambda d: b"NOTMAGIC" + d[8:],  # wrong magic
        lambda d: d[:50] + bytes([d[50] ^ 0xFF]) + d[51:],  # bit flip
        lambda d: b"",  # empty file
    ],
)
def test_unpack_rejects_damaged_bytes(mutate):
    data = mutate(pack_artifact(_artifact()))
    with pytest.raises(ArtifactCorruptError):
        unpack_artifact(data)


def test_unpack_never_unpickles_unchecksummed_bytes():
    """A swapped-in pickle must be rejected without pickle.loads ever
    running — with a stale checksum, and with a valid one (whoever can
    write the file can also write a matching checksum)."""
    _PICKLE_PROBE.clear()
    evil = pickle.dumps(_Probe())
    assert not _PICKLE_PROBE, "probe must only fire on load"
    framed = len(evil).to_bytes(8, "little") + evil
    data = pack_artifact(_artifact())
    tampered = data[: len(MAGIC) + 32] + framed  # stale digest
    with pytest.raises(ArtifactCorruptError, match="checksum"):
        unpack_artifact(tampered)
    for body in (evil, framed):  # re-signed: the checksum matches
        with pytest.raises(ArtifactCorruptError):
            unpack_artifact(MAGIC + hashlib.sha256(body).digest() + body)
    assert not _PICKLE_PROBE, "pickle.loads ran on bytes read from disk"


#: appended to iff a _Probe pickle is ever *loaded* (not dumped)
_PICKLE_PROBE: list[int] = []


def _probe_loaded():
    _PICKLE_PROBE.append(1)
    return "probe"


class _Probe:
    def __reduce__(self):
        return (_probe_loaded, ())


def test_store_get_put_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    assert store.get(art.key) is None
    path = store.put(art.key, art)
    assert os.path.isfile(path)
    assert path == store.path_for(art.key)
    assert store.get(art.key) == art
    assert store.counters["hits"] == 1
    assert store.counters["misses"] == 1
    assert store.counters["puts"] == 1


def test_store_treats_corrupt_file_as_miss_and_deletes_it(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    path = store.put(art.key, art)
    with open(path, "r+b") as fh:
        fh.truncate(20)
    assert store.get(art.key) is None
    assert not os.path.exists(path), "corrupt artifact must be reaped"
    assert store.counters["corrupt"] == 1
    # a recompile overwrites cleanly
    store.put(art.key, art)
    assert store.get(art.key) == art


def test_store_rejects_key_mismatch(tmp_path):
    """An artifact renamed to a different address must not be served."""
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    other = "99" * 32
    os.makedirs(os.path.dirname(store.path_for(other)), exist_ok=True)
    os.replace(store.put(art.key, art), store.path_for(other))
    assert store.get(other) is None
    assert store.counters["corrupt"] == 1


def test_gc_evicts_lru_beyond_entry_limit(tmp_path):
    store = ArtifactStore(str(tmp_path))
    keys = [f"{i:02x}" * 32 for i in range(4)]
    for i, k in enumerate(keys):
        store.put(k, _artifact(key=k))
        # distinct mtimes so LRU order is well defined
        os.utime(store.path_for(k), (1000 + i, 1000 + i))
    evicted = store.gc(max_entries=2)
    stats = store.stats()
    assert stats.entries == 2
    # the two oldest went first
    survivors = {k for k in keys if os.path.exists(store.path_for(k))}
    assert survivors == set(keys[2:])
    assert len(evicted) == 2
    assert store.counters["evictions"] >= 2


def test_gc_evicts_beyond_byte_limit(tmp_path):
    store = ArtifactStore(str(tmp_path))
    k1, k2 = "aa" * 32, "bb" * 32
    store.put(k1, _artifact(key=k1))
    os.utime(store.path_for(k1), (1000, 1000))
    store.put(k2, _artifact(key=k2))
    newer = os.path.getsize(store.path_for(k2))
    store.gc(max_bytes=newer)
    assert os.path.exists(store.path_for(k2))
    assert not os.path.exists(store.path_for(k1))


def test_put_auto_gc_enforces_configured_limits(tmp_path):
    store = ArtifactStore(str(tmp_path), max_entries=2)
    for i in range(4):
        k = f"{i:02x}" * 32
        store.put(k, _artifact(key=k))
    assert store.stats().entries <= 2


def test_put_is_atomic_no_tmp_left_behind(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    store.put(art.key, art)
    leftovers = [
        name
        for _, _, files in os.walk(tmp_path)
        for name in files
        if name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_clear_empties_the_store(tmp_path):
    store = ArtifactStore(str(tmp_path))
    for i in range(3):
        k = f"{i:02x}" * 32
        store.put(k, _artifact(key=k))
    assert store.clear() == 3
    assert store.stats().entries == 0


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
    assert default_cache_dir() == str(tmp_path / "x")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().endswith(os.path.join("repro", "artifacts"))


def test_schema_version_bump_reads_as_corrupt():
    payload = _artifact().to_payload()
    payload["schema_version"] = 999
    with pytest.raises(ArtifactCorruptError, match="schema"):
        unpack_artifact(encode(payload))


def test_encode_refuses_what_int64_cannot_hold():
    for value in (np.zeros(2), np.array([2**63], dtype=np.uint64), {1, 2}):
        with pytest.raises(TypeError):
            encode({"x": value})


_MISSING = object()


@pytest.mark.parametrize(
    "name,value",
    [
        ("key", _MISSING),
        ("task_ast", _MISSING),
        ("proofs", _MISSING),
        ("key", 7),
        ("info", ["not", "a", "dict"]),
        ("privatized", "yes"),
        ("fused", []),
    ],
)
def test_incomplete_artifact_is_a_counted_miss(tmp_path, name, value):
    """A correctly signed but incomplete or mistyped document is corrupt:
    ``get`` deletes it and reports a miss instead of raising."""
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    payload = art.to_payload()
    if value is _MISSING:
        del payload[name]
    else:
        payload[name] = value
    path = store.path_for(art.key)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        fh.write(encode(payload))
    assert store.get(art.key) is None
    assert store.counters["corrupt"] == 1
    assert not os.path.exists(path)


def test_pickle_era_artifact_is_a_miss_then_recompiled(tmp_path):
    """A file in the old pickle layout at a live key reads as corrupt,
    is never unpickled, and the compile tier recompiles over it."""
    from repro.driver import TransformOptions
    from repro.interp import Interpreter
    from repro.service import cached_analysis
    from repro.store import artifact_key

    from ..conftest import TWO_NEST_COPY

    params = {"N": 4}
    opts = TransformOptions(check=False, verify=False, workers=2)
    store = ArtifactStore(str(tmp_path))
    key = artifact_key(TWO_NEST_COPY, params, opts)
    payload = pickle.dumps({"key": key, "probe": _Probe()}, protocol=4)
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        fh.write(
            b"RPASTOR\x01" + hashlib.sha256(payload).digest() + payload
        )
    _PICKLE_PROBE.clear()

    def compile_once():
        interp = Interpreter.from_source(TWO_NEST_COPY, params)
        return cached_analysis(interp, TWO_NEST_COPY, params, opts, store)

    assert compile_once()[1] == "cold"
    assert store.counters["corrupt"] == 1
    assert not _PICKLE_PROBE
    assert compile_once()[1] == "warm"
