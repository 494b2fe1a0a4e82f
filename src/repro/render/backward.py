"""Backward pass of the tile pipeline: reverse rasterization, aggregation,
and re-projection (Fig. 3, bottom).

Reverse rasterization turns the cached composite into the pixel-Gaussian
partial gradients; *aggregation* sums them into per-Gaussian accumulators
(the role of ``atomicAdd``; the contributing-pair count is recorded as the
atomic-contention workload);
*re-projection* finally maps the 2D splat gradients through the projection
into world-space parameter gradients and, for tracking, the camera-twist
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..gaussians.se3 import point_jacobian_wrt_twist
from ..obs import trace
from ..obs import atlas as _atlas_mod
from .flat import pair_partials
from .projection import ProjectedGaussians
from .rasterize import RenderResult, TileComposite
from .stats import PipelineStats

__all__ = ["RenderGradients", "ProjectedGradients", "backward_full",
           "reproject_gradients"]


@dataclass
class ProjectedGradients:
    """Aggregated gradients per *projected* Gaussian (2D splat space)."""

    d_mean2d: np.ndarray    # (M, 2)
    d_sigma2d: np.ndarray   # (M,)
    d_opacity: np.ndarray   # (M,)
    d_color: np.ndarray     # (M, 3)
    d_depth: np.ndarray     # (M,)

    @classmethod
    def zeros(cls, m: int) -> "ProjectedGradients":
        return cls(
            d_mean2d=np.zeros((m, 2)),
            d_sigma2d=np.zeros(m),
            d_opacity=np.zeros(m),
            d_color=np.zeros((m, 3)),
            d_depth=np.zeros(m),
        )

    def accumulate(self, indices: np.ndarray, pair) -> None:
        """Aggregation stage: scatter-add pair gradients (atomicAdd model)."""
        np.add.at(self.d_mean2d, indices, pair.d_mean2d)
        np.add.at(self.d_sigma2d, indices, pair.d_sigma2d)
        np.add.at(self.d_opacity, indices, pair.d_opacity)
        np.add.at(self.d_color, indices, pair.d_color)
        np.add.at(self.d_depth, indices, pair.d_depth)


@dataclass
class RenderGradients:
    """World-space gradients for the cloud and the camera pose."""

    d_means: np.ndarray             # (N, 3)
    d_log_scales: np.ndarray        # (N,)
    d_logit_opacities: np.ndarray   # (N,)
    d_colors: np.ndarray            # (N, 3)
    d_pose_twist: np.ndarray        # (6,) right-multiplied twist gradient
    stats: PipelineStats = field(default_factory=PipelineStats)

    def as_cloud_vector(self) -> np.ndarray:
        """Flatten map gradients in :meth:`GaussianCloud.pack` order."""
        return np.concatenate([
            self.d_means.ravel(),
            self.d_log_scales,
            self.d_logit_opacities,
            self.d_colors.ravel(),
        ])


def reproject_gradients(
    proj: ProjectedGaussians,
    cloud: GaussianCloud,
    camera: Camera,
    pg: ProjectedGradients,
) -> RenderGradients:
    """Re-projection stage: 2D splat gradients -> world-space gradients.

    Uses the projection Jacobians of ``u = fx x/z + cx``, ``v = fy y/z + cy``
    and ``sigma = f s / z`` plus the direct depth-channel gradient on ``z``.
    """
    intr = camera.intrinsics
    n = len(cloud)
    out = RenderGradients(
        d_means=np.zeros((n, 3)),
        d_log_scales=np.zeros(n),
        d_logit_opacities=np.zeros(n),
        d_colors=np.zeros((n, 3)),
        d_pose_twist=np.zeros(6),
    )
    if len(proj) == 0:
        return out

    x, y, z = proj.p_cam[:, 0], proj.p_cam[:, 1], proj.p_cam[:, 2]
    mean_focal = 0.5 * (intr.fx + intr.fy)
    scales = np.exp(cloud.log_scales[proj.source_index])

    d_u = pg.d_mean2d[:, 0]
    d_v = pg.d_mean2d[:, 1]
    d_x = d_u * intr.fx / z
    d_y = d_v * intr.fy / z
    d_z = (
        -d_u * intr.fx * x / (z * z)
        - d_v * intr.fy * y / (z * z)
        - pg.d_sigma2d * mean_focal * scales / (z * z)
        + pg.d_depth
    )
    d_p_cam = np.stack([d_x, d_y, d_z], axis=-1)

    # World-space mean gradients: d mu = R_w2c^T d p_cam.
    R_w2c = camera.pose_w2c[:3, :3]
    d_means_proj = d_p_cam @ R_w2c

    # sigma = f * s / z and s = exp(log_s) give d log_s = d_sigma * sigma.
    d_log_scales_proj = pg.d_sigma2d * proj.sigma2d

    op = proj.opacity
    d_logit_proj = pg.d_opacity * op * (1.0 - op)

    # Colors were clamped to [0, 1] at projection; gate the gradient there.
    raw_color = cloud.colors[proj.source_index]
    gate = ((raw_color > 0.0) & (raw_color < 1.0)) | (
        (raw_color <= 0.0) & (pg.d_color < 0.0)) | (
        (raw_color >= 1.0) & (pg.d_color > 0.0))
    d_color_proj = np.where(gate, pg.d_color, 0.0)

    np.add.at(out.d_means, proj.source_index, d_means_proj)
    np.add.at(out.d_log_scales, proj.source_index, d_log_scales_proj)
    np.add.at(out.d_logit_opacities, proj.source_index, d_logit_proj)
    np.add.at(out.d_colors, proj.source_index, d_color_proj)

    # Camera twist gradient (right-multiplicative update T <- T exp(xi)).
    J = point_jacobian_wrt_twist(proj.p_cam)       # (M, 3, 6)
    out.d_pose_twist = np.einsum("mij,mi->j", J, d_p_cam)
    return out


def _entry_sums(tc: TileComposite, values: np.ndarray, num_entries: int,
                pairwise: bool) -> np.ndarray:
    """Level one of the gradient reduction: per table entry, the sum of
    its pairs' partials over the tile's pixels, in pixel order.

    The tile loop reduced each tile's ``(pixels, list)`` partial block
    with ``.sum(axis=0)``; numpy evaluates that sequentially down the
    pixels — except for a one-Gaussian tile, whose ``(P, 1)`` block it
    sums pairwise.  ``pairwise=True`` reproduces that exception (the
    color channel came from an einsum, which is sequential throughout).
    Zero partials of the tile's other pixels leave either order's
    nonzero sums unchanged.
    """
    sums = np.bincount(tc.pair_entry, weights=values, minlength=num_entries)
    if not pairwise:
        return sums
    one = (tc.list_lengths == 1) & (tc.tile_pixels >= 8)
    if not one.any():
        return sums
    tile_of_pair = tc.pixel_tile[tc.flat.pix]
    starts = np.cumsum(tc.tile_pixels) - tc.tile_pixels
    list_starts = np.cumsum(tc.list_lengths) - tc.list_lengths
    for n in np.unique(tc.tile_pixels[one]):
        tiles = np.nonzero(one & (tc.tile_pixels == n))[0]
        row = np.full(tc.tile_pixels.size, -1)
        row[tiles] = np.arange(tiles.size)
        sel = row[tile_of_pair] >= 0
        block = np.zeros((tiles.size, n))
        block[row[tile_of_pair[sel]],
              tc.flat.pix[sel] - starts[tile_of_pair[sel]]] = values[sel]
        sums[list_starts[tiles]] = block.sum(axis=1)
    return sums


def backward_full(
    result: RenderResult,
    cloud: GaussianCloud,
    camera: Camera,
    d_color: np.ndarray,
    d_depth: np.ndarray,
    d_silhouette: np.ndarray,
) -> RenderGradients:
    """Run the complete tile-pipeline backward pass.

    ``d_color`` is ``(H, W, 3)``; ``d_depth`` and ``d_silhouette`` are
    ``(H, W)`` (pass zeros for unused channels).  The forward pass must
    have been run with ``keep_cache=True``.

    Pair partials come from the flat composite core; aggregation runs in
    the tile loop's two levels — per (tile, Gaussian) entry over the
    tile's pixels, then per Gaussian across tiles in tile order — so
    every gradient is bit-identical to the per-tile loop's.
    """
    proj = result.proj
    pg = ProjectedGradients.zeros(len(proj))
    stats = PipelineStats(
        pipeline="tile",
        tile_size=result.grid.tile_size,
        image_width=result.grid.width,
        image_height=result.grid.height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=result.grid.width * result.grid.height,
        record_per_pixel=result.stats.record_per_pixel,
    )
    tc = result.composite

    with trace.span("render.tile_bwd", pipeline="tile",
                    gaussians=len(cloud)):
        if tc is not None and tc.active_tiles.any():
            u, v = tc.pixels[:, 0], tc.pixels[:, 1]
            part = pair_partials(tc.flat, proj, d_color[v, u], d_depth[v, u],
                                 d_silhouette[v, u])
            table = result.table
            E, M = table.num_pairs, len(proj)

            def aggregate(values, pairwise=True):
                # Level two: across tiles, in tile order (table order).
                return np.bincount(
                    table.gauss, minlength=M,
                    weights=_entry_sums(tc, values, E, pairwise))

            pg.d_mean2d[:, 0] = aggregate(part.d_mean_u)
            pg.d_mean2d[:, 1] = aggregate(part.d_mean_v)
            pg.d_sigma2d[:] = aggregate(part.d_sigma2d)
            pg.d_opacity[:] = aggregate(part.d_opacity)
            for c in range(3):
                pg.d_color[:, c] = aggregate(part.d_color[c],
                                             pairwise=False)
            pg.d_depth[:] = aggregate(part.d_depth)
            _backward_stats(tc, proj, stats)

        with trace.span("render.reproject"):
            grads = reproject_gradients(proj, cloud, camera, pg)
    grads.stats = stats
    return grads


def _backward_stats(tc: TileComposite, proj: ProjectedGaussians,
                    stats: PipelineStats) -> None:
    """Tile-loop counters, records and atlas channels of the backward pass:
    the tile backward re-runs α-checking against each cached tile list
    (Sec. II-B)."""
    active = tc.active_tiles
    cells = int((tc.tile_pixels * tc.list_lengths)[active].sum())
    stats.num_candidate_pairs += cells
    stats.num_alpha_checks += cells
    contribs = tc.flat.contribs()
    touched = int(contribs.sum())
    stats.num_contrib_pairs += touched
    stats.num_atomic_adds += touched
    in_active = active[tc.pixel_tile]
    if _atlas_mod.current.active:
        _atlas_mod.current.observe_tile_backward(tc.pixels[in_active],
                                                 contribs[in_active])
    if stats.record_per_pixel:
        stats.tile_work.extend(tc.tile_work)
        stats.per_pixel_contribs.extend(contribs[in_active].tolist())
        fc = tc.flat
        ids = proj.source_index[fc.gss[fc.contrib]]
        stats.pixel_contrib_ids.extend(
            np.split(ids, np.cumsum(contribs[in_active])[:-1]))
