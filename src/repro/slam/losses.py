"""SLAM training losses and their analytic gradients.

Both tracking and mapping minimize a weighted L1 photometric + depth loss
(SplaTAM-style).  Tracking additionally masks the loss to *well-observed*
pixels — those whose rendered silhouette is close to 1 — so unreconstructed
regions cannot drag the pose (the red-block assumption of Fig. 1).

Every loss function returns the scalar loss together with the gradients
w.r.t. the rendered color / depth / silhouette, ready to feed the
renderers' backward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LossConfig", "LossOutput", "rgbd_loss"]


@dataclass(frozen=True)
class LossConfig:
    """Weights and masking thresholds of the RGB-D loss."""

    color_weight: float = 0.5
    depth_weight: float = 1.0
    # Tracking-only: pixels with rendered silhouette below this are masked
    # out (SplaTAM uses 0.99; lower values admit partially-seen pixels).
    silhouette_threshold: float = 0.99
    # Optional pull on the silhouette channel during mapping, encouraging
    # opacity to explain observed surfaces.
    silhouette_weight: float = 0.0
    # Smooth-L1 knee: below delta the loss is quadratic, which keeps the
    # gradients informative near convergence. delta=0 degenerates to L1.
    huber_delta: float = 0.0


@dataclass
class LossOutput:
    """Scalar loss plus per-pixel gradients for the backward pass."""

    loss: float
    d_color: np.ndarray
    d_depth: np.ndarray
    d_silhouette: np.ndarray
    num_valid: int


def _huber(residual: np.ndarray, delta: float):
    """Return (value, derivative) of the Huber/L1 penalty elementwise."""
    if delta <= 0.0:
        return np.abs(residual), np.sign(residual)
    a = np.abs(residual)
    quad = a <= delta
    value = np.where(quad, 0.5 * residual ** 2 / delta, a - 0.5 * delta)
    grad = np.where(quad, residual / delta, np.sign(residual))
    return value, grad


def rgbd_loss(
    rendered_color: np.ndarray,
    rendered_depth: np.ndarray,
    rendered_silhouette: np.ndarray,
    ref_color: np.ndarray,
    ref_depth: np.ndarray,
    config: LossConfig,
    tracking: bool,
) -> LossOutput:
    """Weighted L1 color + depth loss over a batch of pixels.

    Inputs are flat per-pixel arrays: color ``(K, 3)``, depth and
    silhouette ``(K,)``.  Dense images must be raveled by the caller.
    The loss is normalized by the number of *valid* pixels so sparse and
    dense passes are on the same scale.  Valid pixels have a positive,
    finite reference depth and a finite reference color (and, when
    tracking, a well-observed rendered silhouette).
    """
    rendered_color = np.atleast_2d(np.asarray(rendered_color, dtype=float))
    rendered_depth = np.atleast_1d(np.asarray(rendered_depth, dtype=float))
    rendered_silhouette = np.atleast_1d(
        np.asarray(rendered_silhouette, dtype=float))
    ref_color = np.atleast_2d(np.asarray(ref_color, dtype=float))
    ref_depth = np.atleast_1d(np.asarray(ref_depth, dtype=float))
    K = rendered_depth.shape[0]

    # Input policy: a pixel with a non-finite reference color or depth
    # (sensor dropout) is masked out, like a depth hole — it must not
    # poison the whole batch's loss and gradients.
    valid = ((ref_depth > 0.0) & np.isfinite(ref_depth)
             & np.isfinite(ref_color).all(axis=1))
    if tracking:
        valid = valid & (rendered_silhouette > config.silhouette_threshold)
    n_valid = int(valid.sum())
    d_color = np.zeros((K, 3))
    d_depth = np.zeros(K)
    d_silhouette = np.zeros(K)
    if n_valid == 0:
        return LossOutput(0.0, d_color, d_depth, d_silhouette, 0)

    norm = 1.0 / n_valid
    res_c = rendered_color - ref_color
    res_d = rendered_depth - ref_depth
    val_c, grad_c = _huber(res_c, config.huber_delta)
    val_d, grad_d = _huber(res_d, config.huber_delta)

    loss = config.color_weight * norm * float(val_c[valid].sum())
    loss += config.depth_weight * norm * float(val_d[valid].sum())
    d_color[valid] = config.color_weight * norm * grad_c[valid]
    d_depth[valid] = config.depth_weight * norm * grad_d[valid]

    if config.silhouette_weight > 0.0 and not tracking:
        # Pull the silhouette toward 1 on observed pixels.
        res_s = rendered_silhouette - 1.0
        val_s, grad_s = _huber(res_s, config.huber_delta)
        loss += config.silhouette_weight * norm * float(val_s[valid].sum())
        d_silhouette[valid] = config.silhouette_weight * norm * grad_s[valid]

    return LossOutput(loss, d_color, d_depth, d_silhouette, n_valid)
