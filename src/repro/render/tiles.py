"""Tile-Gaussian intersection (the tile-based pipeline's projection output).

The image is partitioned into square tiles of ``tile_size`` pixels.  Each
projected Gaussian is inserted into every tile its bounding box overlaps,
producing the *tile-Gaussian intersection table* of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..gaussians.camera import Intrinsics
from .projection import ProjectedGaussians

__all__ = ["TileGrid", "IntersectionTable", "build_intersection_table"]


@dataclass(frozen=True)
class TileGrid:
    """Geometry of the tile partition of an image."""

    width: int
    height: int
    tile_size: int

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")

    @classmethod
    def for_intrinsics(cls, intr: Intrinsics, tile_size: int) -> "TileGrid":
        return cls(width=intr.width, height=intr.height, tile_size=tile_size)

    @property
    def tiles_x(self) -> int:
        return -(-self.width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        return -(-self.height // self.tile_size)

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    def tile_of_pixel(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Return the flat tile index containing pixel columns/rows (u, v)."""
        tx = np.clip(np.asarray(u) // self.tile_size, 0, self.tiles_x - 1)
        ty = np.clip(np.asarray(v) // self.tile_size, 0, self.tiles_y - 1)
        return (ty * self.tiles_x + tx).astype(int)

    def tile_bounds(self, tile: int) -> tuple:
        """Pixel bounds ``(u0, v0, u1, v1)`` of a tile, clipped to the image."""
        ty, tx = divmod(tile, self.tiles_x)
        u0 = tx * self.tile_size
        v0 = ty * self.tile_size
        u1 = min(u0 + self.tile_size, self.width)
        v1 = min(v0 + self.tile_size, self.height)
        return u0, v0, u1, v1

    def tile_pixels(self, tile: int) -> np.ndarray:
        """``(P, 2)`` integer (u, v) coordinates of every pixel in a tile."""
        u0, v0, u1, v1 = self.tile_bounds(tile)
        uu, vv = np.meshgrid(np.arange(u0, u1), np.arange(v0, v1))
        return np.stack([uu.ravel(), vv.ravel()], axis=-1)


@dataclass
class IntersectionTable:
    """Tile-Gaussian intersection entries, grouped by tile.

    Entry ``e`` inserts projected Gaussian ``gauss[e]`` into tile
    ``tile[e]``; ``tile`` is non-decreasing.
    """

    grid: TileGrid
    tile: np.ndarray    # (E,) int
    gauss: np.ndarray   # (E,) int — index into the projection

    @property
    def num_pairs(self) -> int:
        return int(self.tile.size)

    def list_lengths(self) -> np.ndarray:
        """Per-tile list lengths, ``(num_tiles,)``."""
        return np.bincount(self.tile, minlength=self.grid.num_tiles)

    @property
    def per_tile(self) -> List[np.ndarray]:
        """Per-tile lists of projected-Gaussian indices."""
        return np.split(self.gauss, np.cumsum(self.list_lengths())[:-1])


def build_intersection_table(
    proj: ProjectedGaussians, grid: TileGrid
) -> IntersectionTable:
    """Insert each projected Gaussian into every tile its bbox overlaps.

    Within a tile, Gaussians appear in ascending projected index.
    """
    bbox = proj.bbox()
    ts = grid.tile_size
    tx0 = np.clip(np.floor(bbox[:, 0] / ts).astype(int), 0, grid.tiles_x - 1)
    ty0 = np.clip(np.floor(bbox[:, 1] / ts).astype(int), 0, grid.tiles_y - 1)
    tx1 = np.clip(np.floor(bbox[:, 2] / ts).astype(int), 0, grid.tiles_x - 1)
    ty1 = np.clip(np.floor(bbox[:, 3] / ts).astype(int), 0, grid.tiles_y - 1)
    nx = np.maximum(tx1 - tx0 + 1, 0)
    counts = nx * np.maximum(ty1 - ty0 + 1, 0)
    gauss = np.repeat(np.arange(len(proj)), counts)
    local = np.arange(gauss.size) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
    tile = ((ty0[gauss] + local // nx[gauss]) * grid.tiles_x
            + tx0[gauss] + local % nx[gauss])
    order = np.argsort(tile, kind="stable")
    return IntersectionTable(grid=grid, tile=tile[order], gauss=gauss[order])
