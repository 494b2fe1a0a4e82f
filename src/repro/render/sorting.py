"""Depth sorting stage (Fig. 3): order each list front-to-back.

Correct alpha compositing (Eqn. 1) integrates Gaussians from the closest to
the farthest, so both pipelines sort their candidate lists by camera-frame
depth.  The sort is stable so that co-planar splats keep a deterministic
order across pipelines — this is what lets the property tests assert
pixel-exact agreement between the tile-based and pixel-based renderers.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .projection import ProjectedGaussians
from .tiles import IntersectionTable

__all__ = ["sort_by_depth", "sort_table", "sort_intersection_table"]


def sort_by_depth(indices: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Return ``indices`` reordered front-to-back by ``depth[indices]``.

    Tie-break (guaranteed): Gaussians at *exactly* equal depth are ordered
    by ascending projected index — a property of the *values*, not of the
    input order.  A merely "stable" sort would keep whatever order the
    caller supplied, so two backends building the same candidate set in
    different orders could composite co-planar splats differently; keying
    on ``(depth, index)`` makes the composite order a pure function of the
    candidate *set*, which is what lets the reference and vectorized
    kernels (and the tile pipeline) agree bit-for-bit.
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        return indices
    # lexsort: last key is primary => sort by depth, then by index.
    order = np.lexsort((indices, depth[indices]))
    return indices[order]


def sort_table(table: IntersectionTable,
               proj: ProjectedGaussians) -> IntersectionTable:
    """Order every tile's entries front-to-back, in one global sort.

    The key is ``(tile, depth, index)``: per tile, exactly the order of
    :func:`sort_by_depth`.
    """
    order = np.lexsort((table.gauss, proj.depth[table.gauss], table.tile))
    return IntersectionTable(grid=table.grid, tile=table.tile[order],
                             gauss=table.gauss[order])


def sort_intersection_table(
    table: IntersectionTable, proj: ProjectedGaussians
) -> List[np.ndarray]:
    """Sort every tile's Gaussian list front-to-back.

    Returns the tile-Gaussian *sorted* list of Fig. 3, parallel to
    ``table.per_tile``.
    """
    return sort_table(table, proj).per_tile
