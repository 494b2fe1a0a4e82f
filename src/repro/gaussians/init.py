"""Initialization of new Gaussians from RGB-D observations.

Used by the mapper's densification step (Sec. II-A): pixels flagged for
densification are back-projected with their measured depth and seeded as
new Gaussians, SplaTAM-style, with a scale matched to the pixel footprint
at that depth so neighbouring seeds tile the surface.
"""

from __future__ import annotations

import numpy as np

from .camera import Camera
from .model import GaussianCloud

__all__ = ["seed_from_rgbd"]


def seed_from_rgbd(
    camera: Camera,
    color_image: np.ndarray,
    depth_image: np.ndarray,
    pixels: np.ndarray,
    initial_opacity: float = 0.7,
    scale_factor: float = 1.0,
) -> GaussianCloud:
    """Create new Gaussians at ``pixels`` of an RGB-D frame.

    Parameters
    ----------
    camera:
        The posed camera that observed the frame.
    color_image:
        ``(H, W, 3)`` RGB in [0, 1].
    depth_image:
        ``(H, W)`` metric depth; non-positive entries are skipped, as are
        pixels with a non-finite depth or color.
    pixels:
        ``(K, 2)`` integer ``(u, v)`` pixel coordinates to seed from.
    initial_opacity:
        Opacity assigned to every seed.
    scale_factor:
        Multiplier on the pixel-footprint-matched scale; >1 makes seeds
        overlap more (fewer holes, blurrier), <1 the opposite.

    Returns
    -------
    A :class:`GaussianCloud` of the seeded Gaussians (possibly empty).
    """
    pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
    if pixels.size == 0:
        return GaussianCloud.empty()
    u = np.clip(pixels[:, 0], 0, camera.intrinsics.width - 1)
    v = np.clip(pixels[:, 1], 0, camera.intrinsics.height - 1)
    depth = np.asarray(depth_image, dtype=float)[v, u]
    colors = np.asarray(color_image, dtype=float)[v, u]
    # Sensor dropouts (non-finite depth or color) seed nothing.
    valid = ((depth > 1e-6) & np.isfinite(depth)
             & np.isfinite(colors).all(axis=-1))
    if not np.any(valid):
        return GaussianCloud.empty()
    u, v, depth, colors = u[valid], v[valid], depth[valid], colors[valid]

    centres = np.stack([u + 0.5, v + 0.5], axis=-1)
    p_cam = camera.intrinsics.backproject(centres, depth)
    p_world = p_cam @ camera.pose_c2w[:3, :3].T + camera.pose_c2w[:3, 3]

    # One-pixel footprint at depth z spans z / f metres.
    mean_focal = 0.5 * (camera.intrinsics.fx + camera.intrinsics.fy)
    scales = scale_factor * depth / mean_focal
    opacities = np.full(len(depth), initial_opacity)
    return GaussianCloud.create(p_world, scales, opacities, colors)
