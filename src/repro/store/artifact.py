"""The artifact payload: one compile's outputs, checksummed on disk.

An ``.rpa`` file is one :mod:`repro.store.codec` container holding
``CompileArtifact.to_payload()``: plain data and int64 arrays only.
Privatization proofs in it MUST go back through
:func:`repro.schedule.legality.verify_privatization` on load (the
store is durable, not trusted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .codec import ArtifactCorruptError, decode, encode
from .keys import SCHEMA_VERSION

#: every payload field and the type(s) a loadable artifact must carry
_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "key": str,
    "kernel_sha": str,
    "params": dict,
    "options_fingerprint": str,
    "info": dict,
    "task_ast": dict,
    "fused": (dict, type(None)),
    "proofs": list,
    "privatized": bool,
    "legality_ok": (bool, type(None)),
    "diagnostics": list,
    "timings": dict,
}


@dataclass(eq=False)
class CompileArtifact:
    """Serialized outputs of one compile, addressed by ``key``."""

    key: str
    kernel_sha: str
    params: dict[str, int]
    options_fingerprint: str
    #: explicit-relation dict of :class:`repro.pipeline.PipelineInfo`
    info: dict
    #: ``repro.schedule.serialize.task_ast_to_dict`` of the task AST
    task_ast: dict
    #: ``FusedProgram.to_dict()`` — ClosureSpec corpus + chains (None
    #: when the compile ran with fusion off)
    fused: dict | None = None
    #: privatization proofs (``PrivatizationProof.to_dict()`` rows);
    #: loaders re-verify each via ``verify_privatization`` — mandatory
    proofs: list[dict] = field(default_factory=list)
    #: True when the artifact came from the privatized arm (proofs drive
    #: the schedule, not just annotate it)
    privatized: bool = False
    #: legality verdict recorded at compile time (None = not checked)
    legality_ok: bool | None = None
    #: static-analysis findings as rendered rows (informational)
    diagnostics: list[dict] = field(default_factory=list)
    #: wall seconds of the cold compile phases
    timings: dict[str, float] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        """Equal when both would be written as the same file bytes."""
        if not isinstance(other, CompileArtifact):
            return NotImplemented
        return pack_artifact(self) == pack_artifact(other)

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            **{name: getattr(self, name) for name in _FIELD_TYPES},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CompileArtifact":
        """Payload -> artifact; every field must be present and typed."""
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactCorruptError(
                f"artifact schema version {version!r} != {SCHEMA_VERSION}"
            )
        for name, types in _FIELD_TYPES.items():
            if name not in payload:
                raise ArtifactCorruptError(f"artifact lacks field {name!r}")
            if not isinstance(payload[name], types):
                raise ArtifactCorruptError(
                    f"artifact field {name!r} is a "
                    f"{type(payload[name]).__name__}"
                )
        return cls(**{name: payload[name] for name in _FIELD_TYPES})


def pack_artifact(artifact: CompileArtifact) -> bytes:
    """Artifact -> checksummed bytes (the on-disk file content)."""
    return encode(artifact.to_payload())


def unpack_artifact(data: bytes) -> CompileArtifact:
    """Checksummed bytes -> artifact; raises :class:`ArtifactCorruptError`."""
    doc = decode(data)
    if not isinstance(doc, dict):
        raise ArtifactCorruptError("artifact payload is not a mapping")
    return CompileArtifact.from_payload(doc)
