"""Serialization of task ASTs (analysis-result caching).

The pipeline analysis is a compile-time pass; for large instantiations it
is worth caching.  A :class:`~repro.schedule.astgen.TaskAst` is fully
self-contained (blocks, iterations, dependency tokens), so saving it is
enough to rebuild task graphs and run/simulate later without re-running
Algorithm 1.  :func:`task_ast_to_dict` packs it into a document that
the artifact store embeds and that :func:`save_task_ast` writes, both
through the data-only container of :mod:`repro.store.codec`.

The packed layout (format version 2):

* every block's iteration array lives in ONE flat ``int64`` array plus
  a ``(n_blocks, 2)`` shape table;
* ``in_tokens`` are stored as integer indices into the global block
  list (a consumed token is some producer block's ``out_token``), not
  as literal ``[statement, end]`` pairs — smaller header, shared tuple
  objects on load.  Tokens produced by no block (defensive case) are
  kept literally in ``"in_extra"``.

Loaded iteration arrays are read-only views into the flat array.
"""

from __future__ import annotations

import numpy as np

from ..store.codec import ArtifactCorruptError, decode, encode
from .astgen import TaskAst, TaskBlock, TaskLoopNest

FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# packed layout: AST <-> (header, flat, shapes)
# ----------------------------------------------------------------------
def _pack(ast: TaskAst) -> tuple[dict, np.ndarray, np.ndarray]:
    token_index: dict = {}
    idx = 0
    for nest in ast.nests:
        for block in nest.blocks:
            token_index[(nest.statement, tuple(block.end))] = idx
            idx += 1

    header: dict = {"version": FORMAT_VERSION, "nests": []}
    chunks: list[np.ndarray] = []
    shapes: list[tuple[int, int]] = []
    for nest in ast.nests:
        nest_rec = {
            "statement": nest.statement,
            "depth": nest.depth,
            "blocks": [],
        }
        for block in nest.blocks:
            iters = np.ascontiguousarray(block.iterations, dtype=np.int64)
            chunks.append(iters.ravel())
            # cols == -1 marks a 1-D iteration array (shape preserved)
            shapes.append(
                (iters.shape[0], iters.shape[1])
                if iters.ndim == 2
                else (iters.shape[0], -1)
            )
            rec: dict = {
                "block_id": block.block_id,
                "end": list(block.end),
                "in": [],
            }
            for stmt, end in block.in_tokens:
                ref = token_index.get((stmt, tuple(end)))
                if ref is None:
                    rec.setdefault("in_extra", []).append([stmt, list(end)])
                else:
                    rec["in"].append(ref)
            nest_rec["blocks"].append(rec)
        header["nests"].append(nest_rec)
    flat = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    return header, flat, np.asarray(shapes, dtype=np.int64).reshape(-1, 2)


def _unpack(header: dict, flat: np.ndarray, shapes: np.ndarray) -> TaskAst:
    flat = np.asarray(flat, dtype=np.int64)
    shapes = np.asarray(shapes, dtype=np.int64)

    # Pass 1: every block's out_token, in global block order — in_token
    # indices resolve against this (and the tuples are shared, not
    # re-materialized per consumer).
    out_tokens: list = []
    for nest_rec in header["nests"]:
        statement = nest_rec["statement"]
        for rec in nest_rec["blocks"]:
            out_tokens.append((statement, tuple(rec["end"])))

    nests: list[TaskLoopNest] = []
    offset = 0
    b_idx = 0
    for nest_rec in header["nests"]:
        statement = nest_rec["statement"]
        blocks: list[TaskBlock] = []
        for rec in nest_rec["blocks"]:
            rows = int(shapes[b_idx, 0])
            cols = int(shapes[b_idx, 1])
            count = rows * (1 if cols == -1 else cols)
            iters = flat[offset : offset + count]
            if cols != -1:
                iters = iters.reshape(rows, cols)
            offset += count
            in_tokens = [out_tokens[i] for i in rec["in"]]
            for stmt, end in rec.get("in_extra", ()):
                in_tokens.append((stmt, tuple(end)))
            blocks.append(
                TaskBlock(
                    statement=statement,
                    block_id=int(rec["block_id"]),
                    end=out_tokens[b_idx][1],
                    iterations=iters,
                    in_tokens=tuple(in_tokens),
                    out_token=out_tokens[b_idx],
                )
            )
            b_idx += 1
        nests.append(
            TaskLoopNest(statement, int(nest_rec["depth"]), tuple(blocks))
        )
    return TaskAst(tuple(nests))


# ----------------------------------------------------------------------
# document and file forms
# ----------------------------------------------------------------------
def task_ast_to_dict(ast: TaskAst) -> dict:
    """Task AST -> codec document: the packed header plus its arrays."""
    header, flat, shapes = _pack(ast)
    return {"header": header, "flat": flat, "shapes": shapes}


def task_ast_from_dict(doc: dict) -> TaskAst:
    """Inverse of :func:`task_ast_to_dict`; checks the format version."""
    version = doc["header"].get("version")
    if version != FORMAT_VERSION:
        raise ArtifactCorruptError(
            f"unsupported task-AST format version {version!r}"
        )
    return _unpack(doc["header"], doc["flat"], doc["shapes"])


def save_task_ast(path: str, ast: TaskAst) -> None:
    """Write a task AST to ``path`` (one codec container)."""
    with open(path, "wb") as fh:
        fh.write(encode(task_ast_to_dict(ast)))


def load_task_ast(path: str) -> TaskAst:
    """Read a task AST written by :func:`save_task_ast`."""
    with open(path, "rb") as fh:
        return task_ast_from_dict(decode(fh.read()))
