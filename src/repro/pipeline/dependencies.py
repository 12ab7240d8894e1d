"""Pipeline dependency relations (Section 4.3, Equation 4).

Once every statement has its combined blocking map ``E_S`` (its blocks are
the tasks), each block needs to know which *source blocks* must finish
before it may run.  For a pipeline map ``T_i`` with S as target and source
statement R:

* ``Y_i`` is S's target blocking for ``T_i`` — it sends an S block end
  ``e`` to the end ``b`` of the coarser ``T_i`` block containing it;
* if ``b`` is an anchor (``b ∈ Range(T_i)``) the required source iteration
  is ``T_i⁻¹(b)``, folded through ``E_R`` to the source block end it is;
* otherwise ``e`` lies in the left-over block, which may only run after
  *all* of R — its requirement is R's final block end.

The out-dependency ``Q_S^O`` is the identity on ``Range(E_S)``: finishing
block ``e`` publishes ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..presburger import PointRelation, PointSet
from .blocking import Blocking, target_blocking
from .pipeline_map import PipelineMap


@dataclass(frozen=True)
class BlockDependency:
    """In-dependency of a statement's blocks on one source statement.

    ``relation`` maps each block end of the dependent statement to the block
    end of ``source`` that must complete first.
    """

    source: str
    target: str
    relation: PointRelation

    def to_dict(self) -> dict:
        """Plain-data form (int64 arrays inline) for the artifact store."""
        return {
            "source": self.source,
            "target": self.target,
            "relation": self.relation.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "BlockDependency":
        return BlockDependency(
            d["source"], d["target"], PointRelation.from_dict(d["relation"])
        )

    def __str__(self) -> str:
        return f"Q[{self.target} <- {self.source}] ({len(self.relation)} blocks)"


def block_dependency(
    pmap: PipelineMap,
    source_blocking_map: Blocking,
    target_blocking_map: Blocking,
    target_domain: PointSet,
) -> BlockDependency:
    """Equation 4 for one pipeline map.

    Parameters
    ----------
    pmap:
        The pipeline map ``T_i`` whose target's blocks need requirements.
    source_blocking_map:
        ``E_R`` — the *combined* blocking of the source statement.
    target_blocking_map:
        ``E_S`` — the combined blocking of the target statement (whose
        block ends form the domain of the result).
    target_domain:
        Iteration domain of the target statement, used to rebuild ``Y_i``.
    """
    ends = target_blocking_map.ends  # Range(E_S)
    if ends.is_empty():
        return BlockDependency(
            pmap.source, pmap.target, PointRelation.empty(ends.ndim, ends.ndim)
        )

    # Y_i: blocking of the target by this pipeline map's own anchors.
    y_i = target_blocking(pmap.target, target_domain, pmap)
    coarse = y_i.mapping.restrict_domain(ends)  # e -> b (total on ends)
    anchors = pmap.relation.range()

    e_rows = coarse.in_part
    b_rows = coarse.out_part
    is_anchor = _rows_in(b_rows, anchors)

    req = np.empty((e_rows.shape[0], pmap.relation.n_in), dtype=np.int64)

    if np.any(is_anchor):
        inv = pmap.relation.inverse()  # b -> required source iteration
        req[is_anchor] = _apply_function(inv, b_rows[is_anchor])
    if np.any(~is_anchor):
        # Left-over block: needs all of the source statement.
        last = np.asarray(
            source_blocking_map.ends.lexmax(), dtype=np.int64
        )
        req[~is_anchor] = last

    # Fold the required iterations through E_R so the tokens are block ends.
    req = _apply_function(source_blocking_map.mapping, req)
    relation = PointRelation.from_arrays(e_rows, req)
    return BlockDependency(pmap.source, pmap.target, relation)


def out_dependency(blocking: Blocking) -> PointRelation:
    """``Q_S^O``: the identity map on the statement's block ends."""
    return PointRelation.identity(blocking.ends)


# ----------------------------------------------------------------------
def _rows_in(rows: np.ndarray, pset: PointSet) -> np.ndarray:
    """Mask over ``rows``: membership in ``pset`` (order preserved)."""
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if pset.is_empty():
        return np.zeros(rows.shape[0], dtype=bool)
    from ..presburger import joint_ranks

    mine, theirs = joint_ranks(rows, pset.points)
    return np.isin(mine, theirs)


def _apply_function(rel: PointRelation, rows: np.ndarray) -> np.ndarray:
    """Apply a single-valued relation to each row (rows must be in its domain)."""
    if rows.shape[0] == 0:
        return rows.reshape(0, rel.n_out)
    from ..presburger import joint_ranks

    fn = rel.lexmax_per_domain()  # canonical single-valued form
    keys, queries = joint_ranks(fn.in_part, rows)
    idx = np.searchsorted(keys, queries)
    if np.any(idx >= len(keys)) or np.any(keys[np.minimum(idx, len(keys) - 1)] != queries):
        missing = rows[
            (idx >= len(keys))
            | (keys[np.minimum(idx, len(keys) - 1)] != queries)
        ]
        raise KeyError(
            f"{missing[0].tolist()} is not in the domain of the relation"
        )
    return fn.out_part[idx]
