"""Tile-based forward rendering (the conventional 3DGS pipeline of Fig. 3).

``render_full`` runs projection -> tile intersection -> per-tile depth sort
-> per-pixel rasterization, producing color / depth / silhouette maps and
the workload counters the hardware models consume.  The composite state is
retained so :mod:`repro.render.backward` can run the exact reverse pass
without recomputation.

Passing a sparse ``pixels`` subset reproduces the **Org.+S** baseline of
the paper: sparse pixel sampling bolted onto the tile pipeline.  Only the
sampled pixels are rasterized, but the pipeline still pays tile-level
projection, per-tile sorting (restricted, generously, to tiles containing
at least one sample), and per-tile list iteration — the structural
inefficiency Figs. 11/21 quantify.

Execution vs. workload model
----------------------------
A tile's rasterizer α-checks every (pixel, Gaussian) cell of its
``pixels x sorted-list`` block, and that is the work the counters and
records (``num_candidate_pairs``, ``tile_work``, ...) describe.  The host
does not execute it that way: most cells fail the α test, and a failing
cell changes no output (it multiplies the transmittance by 1.0 and adds
0.0 to every sum).  Each table entry is therefore expanded only into the
pixels of its tile inside the Gaussian's bbox — which contains every
α-passing pixel, since :data:`RADIUS_SIGMA` makes the bbox a
conservative filter — the α test keeps the passing pairs, and they run
through the flat composite core (:mod:`repro.render.flat`) shared with
the sparse kernels.  The counters come from the intersection table, so
they are those of the tile loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..obs import trace
from ..obs import atlas as _atlas_mod
from .compositing import ALPHA_THRESHOLD, T_MIN
from .flat import FlatCompositeCache, composite_pairs, pair_alpha
from .projection import ProjectedGaussians, project_gaussians
from .sorting import sort_table
from .stats import PipelineStats
from .tiles import IntersectionTable, TileGrid, build_intersection_table

__all__ = ["RenderResult", "TileComposite", "render_full"]

DEFAULT_BACKGROUND = np.zeros(3)


@dataclass
class TileComposite:
    """Backward-pass state of :func:`render_full`.

    The flat composite's pixels are the rendered pixels in tile-major,
    row-major-within-tile order — the order the tile loop visits them.
    """

    flat: FlatCompositeCache
    pixels: np.ndarray        # (K, 2) rendered (u, v), tile-major
    pixel_tile: np.ndarray    # (K,) tile of each rendered pixel
    tile_pixels: np.ndarray   # (T,) rendered pixels per tile
    list_lengths: np.ndarray  # (T,) sorted-list length per tile
    pair_entry: np.ndarray    # (M,) table entry of each composited pair
    pair_position: np.ndarray  # (M,) list position of that entry in its tile
    # Backward-pass ``tile_work`` records (None when records are off).
    tile_work: Optional[List[tuple]] = None

    @property
    def active_tiles(self) -> np.ndarray:
        """Tiles the rasterizer runs: a rendered pixel and a non-empty list."""
        return (self.tile_pixels > 0) & (self.list_lengths > 0)


@dataclass
class RenderResult:
    """Output of a tile-based forward pass (full frame or Org.+S subset)."""

    color: np.ndarray        # (H, W, 3)
    depth: np.ndarray        # (H, W)
    silhouette: np.ndarray   # (H, W)
    proj: ProjectedGaussians
    grid: TileGrid
    table: IntersectionTable            # sorted front-to-back per tile
    composite: Optional[TileComposite]  # None unless keep_cache
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def sorted_lists(self) -> List[np.ndarray]:
        """Per-tile projected-Gaussian indices, front-to-back."""
        return self.table.per_tile

    @property
    def final_transmittance(self) -> np.ndarray:
        """``Gamma_final`` per pixel — the mapper's unseen-pixel signal (Eqn. 2)."""
        return 1.0 - self.silhouette


def _tile_major_pixels(grid: TileGrid, sample_mask: Optional[np.ndarray]):
    """Rendered pixels in tile-major, row-major-within-tile order, with
    their tiles and a ``(H, W)`` map from pixel to that order (-1 where
    not rendered)."""
    ts = grid.tile_size
    v, u = np.divmod(np.arange(grid.width * grid.height), grid.width)
    tile = (v // ts) * grid.tiles_x + u // ts
    order = np.argsort(tile * (ts * ts) + (v % ts) * ts + u % ts)
    u, v, tile = u[order], v[order], tile[order]
    if sample_mask is not None:
        keep = sample_mask[v, u]
        u, v, tile = u[keep], v[keep], tile[keep]
    column = np.full((grid.height, grid.width), -1)
    column[v, u] = np.arange(u.size)
    return np.stack([u, v], axis=-1), tile, column


def _pixel_range(lo: np.ndarray, hi: np.ndarray, size: int):
    """Inclusive integer range of pixels whose centre ``p + 0.5`` lies in
    ``[lo, hi]`` — exactly the corner predicate of the sparse candidate
    generators — clipped to ``[0, size - 1]`` (empty when first > last)."""
    lo = np.clip(lo, -1.0, size + 1.0)
    hi = np.clip(hi, -1.0, size + 1.0)
    first = np.ceil(lo - 0.5).astype(int)
    first -= lo <= first - 0.5          # rounding may overshoot by one
    first += ~(lo <= first + 0.5)
    last = np.floor(hi - 0.5).astype(int)
    last += last + 1.5 <= hi
    last -= ~(last + 0.5 <= hi)
    return np.maximum(first, 0), np.minimum(last, size - 1)


def _table_pairs(proj, table: IntersectionTable, grid: TileGrid,
                 column: np.ndarray, num_pixels: int,
                 alpha_threshold: float):
    """The α-passing (pixel, Gaussian) pairs of every table entry.

    Each entry expands into the rendered pixels of its tile that lie in
    the Gaussian's bbox; the α test keeps the passing ones.  Returns
    ``(pixel, gauss, entry, alpha, clipped)`` per pair, ``pixel`` being
    the rendered-pixel index, sorted pixel-major — and, because a stable
    sort keeps the table's per-tile depth order, front-to-back within
    each pixel.
    """
    bbox = proj.bbox()
    u_first, u_last = _pixel_range(bbox[:, 0], bbox[:, 2], grid.width)
    v_first, v_last = _pixel_range(bbox[:, 1], bbox[:, 3], grid.height)
    g = table.gauss
    ts = grid.tile_size
    ty, tx = np.divmod(table.tile, grid.tiles_x)
    u0 = np.maximum(u_first[g], tx * ts)
    v0 = np.maximum(v_first[g], ty * ts)
    nu = np.maximum(np.minimum(u_last[g], tx * ts + ts - 1) - u0 + 1, 0)
    nv = np.maximum(np.minimum(v_last[g], ty * ts + ts - 1) - v0 + 1, 0)
    counts = nu * nv
    entry = np.repeat(np.arange(g.size), counts)
    local = np.arange(entry.size) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
    dv, du = np.divmod(local, nu[entry])
    u = u0[entry] + du
    v = v0[entry] + dv
    pixel = column[v, u]
    if num_pixels < column.size:    # Org.+S: drop unsampled pixels first
        sampled = pixel >= 0
        pixel, entry, u, v = (pixel[sampled], entry[sampled], u[sampled],
                              v[sampled])
    alpha, clipped = pair_alpha(proj, u + 0.5, v + 0.5, g[entry])
    keep = np.nonzero(alpha >= alpha_threshold)[0]
    key = pixel[keep]
    if num_pixels <= np.iinfo(np.uint16).max:
        key = key.astype(np.uint16)     # numpy radix-sorts 16-bit keys
    order = keep[np.argsort(key, kind="stable")]
    entry = entry[order]
    return pixel[order], g[entry], entry, alpha[order], clipped[order]


def _serial_lengths(tc: TileComposite, threshold: float) -> np.ndarray:
    """Per-tile serial iteration depth of the tile loop.

    Each pixel's thread walks its tile's list until the transmittance in
    front of a position drops below ``threshold``: position ``j`` is
    examined iff the exclusive transmittance there is ``>= threshold``.
    That transmittance only drops after an α-passing pair, so a pixel
    examines ``min(L, p + 1)`` positions, ``p`` being the list position
    of its first pair whose inclusive transmittance is below
    ``threshold`` (all ``L`` when there is none).  The tile runs as long
    as its slowest pixel.
    """
    fc = tc.flat
    below = fc.gamma_incl < threshold
    lengths = tc.list_lengths[tc.pixel_tile]
    stop = lengths.copy()
    np.minimum.at(stop, fc.pix[below], tc.pair_position[below] + 1)
    serial = np.zeros_like(tc.list_lengths)
    np.maximum.at(serial, tc.pixel_tile, stop)
    return serial


def _tile_work(tc: TileComposite, serial: np.ndarray) -> List[tuple]:
    active = tc.active_tiles
    return list(zip(tc.list_lengths[active].tolist(),
                    tc.tile_pixels[active].tolist(),
                    serial[active].tolist()))


def render_full(
    cloud: GaussianCloud,
    camera: Camera,
    background: Optional[np.ndarray] = None,
    tile_size: int = 16,
    alpha_threshold: float = ALPHA_THRESHOLD,
    t_min: float = T_MIN,
    keep_cache: bool = True,
    pixels: Optional[np.ndarray] = None,
    record_per_pixel: bool = True,
) -> RenderResult:
    """Render with the tile pipeline.

    Parameters
    ----------
    pixels:
        Optional ``(K, 2)`` integer pixel subset (Org.+S mode).  ``None``
        renders the full frame.
    keep_cache:
        Set ``False`` for inference-only renders to skip retaining the
        backward-pass caches.
    record_per_pixel:
        ``False`` skips the per-item stats record lists (``tile_work``,
        ``per_pixel_contribs``); scalar counters are unaffected.
    alpha_threshold:
        Only pixels inside a Gaussian's bbox are composited with it.  For
        thresholds ``>= exp(-RADIUS_SIGMA**2 / 2)`` (about 0.0022; the
        default 1/255 qualifies) no pair outside the bbox can pass α, so
        the result is the per-tile loop's, bit for bit.  Below that
        bound the per-tile loop also composited out-of-bbox pixels that
        shared a tile with the Gaussian, so its image depended on the
        tile size; this renderer keeps the pixel pipeline's bbox
        semantics there and its image equals
        :func:`repro.core.pixel_pipeline.render_sparse` over the same
        pixels at any tile size.  ``t_min`` must be at most 1.
    """
    intr = camera.intrinsics
    bg = DEFAULT_BACKGROUND if background is None else np.asarray(background, float)

    with trace.span("render.project"):
        proj = project_gaussians(cloud, camera)
    with trace.span("render.tile_sort"):
        grid = TileGrid.for_intrinsics(intr, tile_size)
        table = sort_table(build_intersection_table(proj, grid), proj)

    sample_mask = None
    if pixels is not None:
        pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
        sample_mask = np.zeros((intr.height, intr.width), dtype=bool)
        sample_mask[pixels[:, 1], pixels[:, 0]] = True

    color = np.tile(bg, (intr.height, intr.width, 1))
    depth = np.zeros((intr.height, intr.width))
    silhouette = np.zeros((intr.height, intr.width))

    stats = PipelineStats(
        pipeline="tile",
        tile_size=tile_size,
        image_width=intr.width,
        image_height=intr.height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=(intr.width * intr.height if pixels is None
                    else pixels.shape[0]),
        num_tile_pairs=table.num_pairs,
        record_per_pixel=record_per_pixel,
    )

    with trace.span("render.composite", pipeline="tile",
                    tiles=grid.num_tiles):
        px, pixel_tile, column = _tile_major_pixels(grid, sample_mask)
        pix, gss, entry, alpha, clipped = _table_pairs(
            proj, table, grid, column, px.shape[0], alpha_threshold)
        out_color, out_depth, out_sil, fc = composite_pairs(
            proj, pix, gss, alpha, clipped, px + 0.5, bg, alpha_threshold,
            t_min)
        color[px[:, 1], px[:, 0]] = out_color
        depth[px[:, 1], px[:, 0]] = out_depth
        silhouette[px[:, 1], px[:, 0]] = out_sil

        n_g = table.list_lengths()
        tc = TileComposite(
            flat=fc, pixels=px, pixel_tile=pixel_tile,
            tile_pixels=np.bincount(pixel_tile, minlength=grid.num_tiles),
            list_lengths=n_g, pair_entry=entry,
            pair_position=_entry_positions(table, n_g)[entry])
        _forward_stats(tc, t_min, stats)
        if keep_cache and record_per_pixel:
            # The backward pass replays the same records, its serial
            # depth taken at the default T_MIN.
            tc.tile_work = (list(stats.tile_work) if t_min == T_MIN
                            else _tile_work(tc, _serial_lengths(tc, T_MIN)))

    return RenderResult(
        color=color,
        depth=depth,
        silhouette=silhouette,
        proj=proj,
        grid=grid,
        table=table,
        composite=tc if keep_cache else None,
        stats=stats,
    )


def _entry_positions(table: IntersectionTable,
                     list_lengths: np.ndarray) -> np.ndarray:
    """Position of every table entry in its tile's sorted list."""
    starts = np.cumsum(list_lengths) - list_lengths
    return np.arange(table.num_pairs) - starts[table.tile]


def _forward_stats(tc: TileComposite, t_min: float,
                   stats: PipelineStats) -> None:
    """Tile-loop counters, records and atlas channels of the forward pass."""
    n_px, n_g = tc.tile_pixels, tc.list_lengths
    # Sorting is charged only for tiles that render at least one pixel
    # (a generous accounting for the Org.+S baseline).
    stats.num_sort_keys += int(n_g[n_px > 0].sum())
    cells = int((n_px * n_g).sum())
    stats.num_candidate_pairs += cells
    stats.num_alpha_checks += cells
    contribs = tc.flat.contribs()
    stats.num_contrib_pairs += int(contribs.sum())
    if _atlas_mod.current.active:
        _atlas_mod.current.observe_tile_forward(
            tc.pixels, tc.pixel_tile, n_g[tc.pixel_tile], contribs)
    if stats.record_per_pixel:
        stats.tile_work.extend(_tile_work(tc, _serial_lengths(tc, t_min)))
        stats.per_pixel_contribs.extend(contribs.tolist())
