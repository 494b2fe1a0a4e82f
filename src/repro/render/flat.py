"""Flat composite core: Eqn. 1 and its reverse over a flat pair list.

The one compositing engine behind both the dense tile path
(:func:`repro.render.rasterize.render_full` /
:func:`repro.render.backward.backward_full`) and the vectorized sparse
kernels (:mod:`repro.render.kernels.vectorized`, which the ``parallel``
backend shards).  Its input is a list of (pixel, Gaussian) pairs sorted
pixel-major, then front-to-back; :func:`composite_forward` /
:func:`composite_backward` stay the per-list oracle it reproduces
bit-for-bit.

Every per-pair quantity is computed elementwise on the flat ``(M,)``
arrays, with the expressions of the oracle term for term.  Only the
per-pixel scans (the transmittance prefix product and the suffix sums of
the backward pass) need a pixel's pairs side by side; they run
**list-major**: list position ``j`` of every pixel is one contiguous
block (see :class:`_ListMajor`), so each scan is one slice operation per
list position — the strictly sequential recurrence the oracle's
row-wise ``cumprod`` / ``cumsum`` evaluates.  The channel totals are
sequential per-pixel sums in list order (``np.bincount`` with weights
accumulates in input order).

Pairs that fail the α test may be present (the sparse ablation without
preemptive α) or absent (every other caller): a failing pair multiplies
the transmittance by exactly 1.0 and adds exactly 0.0 to every sum, so
the outputs of the passing pairs are the same either way.  That is what
lets the dense path drop the tile loop's failing (pixel, Gaussian) cells
without changing a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compositing import ALPHA_MAX

__all__ = [
    "FlatCompositeCache",
    "PairPartials",
    "pair_alpha",
    "composite_pairs",
    "pair_partials",
]


def pair_alpha(proj, cu: np.ndarray, cv: np.ndarray, gss: np.ndarray,
               exp_fn=np.exp):
    """α of each pair and whether it was clipped at ``ALPHA_MAX``.

    ``cu``/``cv`` are the pairs' continuous pixel centres, ``gss`` their
    projected-Gaussian indices; the expressions are
    :func:`composite_forward`'s.
    """
    du = cu - proj.mean2d[:, 0][gss]
    dv = cv - proj.mean2d[:, 1][gss]
    d2 = du * du + dv * dv
    sig = proj.sigma2d[gss]
    inv_2var = 1.0 / (2.0 * sig * sig)
    alpha_raw = proj.opacity[gss] * exp_fn(-d2 * inv_2var)
    return np.minimum(alpha_raw, ALPHA_MAX), alpha_raw > ALPHA_MAX


class _ListMajor:
    """The pixels' lists side by side, list position by list position.

    Pixels are ranked by descending list length, so position ``j`` of
    every list longer than ``j`` forms one contiguous block whose pixels
    are a prefix of block ``j - 1``'s.  A per-pixel scan along the lists
    is then one slice operation per list position: the same sequential
    recurrence as a row-wise ``cumprod``/``cumsum`` over a padded
    ``(K, Lmax)`` array, without the padding.
    """

    def __init__(self, pix: np.ndarray, rows: np.ndarray,
                 lengths: np.ndarray):
        K = lengths.size
        depth = int(lengths.max()) if K else 0
        rank = np.empty(K, dtype=np.int64)
        rank[np.argsort(-lengths, kind="stable")] = np.arange(K)
        # widths[j]: number of lists longer than j.
        widths = K - np.cumsum(np.bincount(lengths, minlength=depth + 1))
        widths = widths[:depth]
        starts = np.cumsum(widths) - widths
        self.blocks = list(zip(starts.tolist(), widths.tolist()))
        # Pixel-major pair -> list-major slot, and back.
        self.slot = starts[rows] + rank[pix]
        self.pair = np.empty_like(self.slot)
        self.pair[self.slot] = np.arange(self.slot.size)

    def prefix_product(self, flat: np.ndarray) -> np.ndarray:
        """Per-pixel inclusive products along the lists (last axis)."""
        y = np.take(flat, self.pair, axis=-1)
        for (prev, _), (start, width) in zip(self.blocks, self.blocks[1:]):
            y[..., start:start + width] *= y[..., prev:prev + width]
        return np.take(y, self.slot, axis=-1)

    def suffix_sum(self, flat: np.ndarray) -> np.ndarray:
        """Per-pixel inclusive sums along the lists (last axis),
        accumulated from the list tails."""
        y = np.take(flat, self.pair, axis=-1)
        for (start, _), (nxt, width) in zip(self.blocks[-2::-1],
                                             self.blocks[:0:-1]):
            y[..., start:start + width] += y[..., nxt:nxt + width]
        return np.take(y, self.slot, axis=-1)


@dataclass
class FlatCompositeCache:
    """Forward state of :func:`composite_pairs`, per pair and per pixel.

    M pairs in pixel-major, front-to-back order; K pixels.
    """

    pix: np.ndarray           # (M,) pixel of each pair (non-decreasing)
    gss: np.ndarray           # (M,) projected-Gaussian index of each pair
    rows: np.ndarray          # (M,) position of each pair in its pixel's list
    lengths: np.ndarray       # (K,) per-pixel list lengths
    centres: np.ndarray       # (K, 2) continuous pixel centres
    alpha: np.ndarray         # (M,) α, zeroed where not contributing
    gamma: np.ndarray         # (M,) exclusive transmittance in front of the pair
    gamma_incl: np.ndarray    # (M,) transmittance after the pair
    contrib: np.ndarray       # (M,) bool — integrated before early termination
    clipped: np.ndarray       # (M,) bool — α hit ALPHA_MAX (gradient gated)
    gamma_final: np.ndarray   # (K,)
    background: np.ndarray    # (3,)

    @property
    def num_pixels(self) -> int:
        return int(self.lengths.shape[0])

    def contribs(self) -> np.ndarray:
        """Per-pixel contributing-pair counts."""
        return np.bincount(self.pix[self.contrib], minlength=self.num_pixels)

    def layout(self) -> _ListMajor:
        return _ListMajor(self.pix, self.rows, self.lengths)


def composite_pairs(proj, pix, gss, alpha, clipped, centres, background,
                    alpha_threshold, t_min):
    """Composite K pixels over their flat, front-to-back pair lists.

    ``pix``/``gss`` are the pairs (``pix`` non-decreasing, each pixel's
    pairs front-to-back), ``alpha``/``clipped`` their
    :func:`pair_alpha` values and ``centres`` the ``(K, 2)`` pixel
    centres.  Returns ``(color, depth, silhouette, cache)``: ``(K, 3)``
    color with the background composited under the splats, ``(K,)``
    depth and silhouette, and the :class:`FlatCompositeCache`.
    """
    K = centres.shape[0]
    M = pix.shape[0]
    lengths = np.bincount(pix, minlength=K)
    offsets = np.cumsum(lengths) - lengths
    rows = np.arange(M) - offsets[pix]
    passes = alpha >= alpha_threshold
    one_minus = 1.0 - np.where(passes, alpha, 0.0)
    gamma_incl = _ListMajor(pix, rows, lengths).prefix_product(one_minus)
    # Exclusive prefix: the previous pair's inclusive value (lists are
    # contiguous in the flat order), 1 at every list head.
    gamma = np.empty(M)
    gamma[1:] = gamma_incl[:-1]
    gamma[rows == 0] = 1.0
    contrib = passes & (gamma_incl >= t_min)
    weight = np.where(contrib, gamma * alpha, 0.0)

    # Channel totals: sequential per-pixel sums in list order.
    colp = np.take(proj.color.T, gss, axis=1)
    color = np.stack([np.bincount(pix, weights=weight * colp[c],
                                  minlength=K) for c in range(3)], axis=-1)
    depth = np.bincount(pix, weights=weight * proj.depth[gss], minlength=K)
    silhouette = np.bincount(pix, weights=weight, minlength=K)
    gamma_final = 1.0 - silhouette
    color = color + gamma_final[:, None] * background[None, :]

    cache = FlatCompositeCache(
        pix=pix, gss=gss, rows=rows, lengths=lengths, centres=centres,
        alpha=np.where(contrib, alpha, 0.0), gamma=gamma,
        gamma_incl=gamma_incl, contrib=contrib, clipped=clipped,
        gamma_final=gamma_final, background=background)
    return color, depth, silhouette, cache


@dataclass
class PairPartials:
    """Per-pair gradient partials, aligned with the cache's pair order."""

    d_mean_u: np.ndarray      # (M,)
    d_mean_v: np.ndarray      # (M,)
    d_sigma2d: np.ndarray     # (M,)
    d_opacity: np.ndarray     # (M,)
    d_color: np.ndarray       # (3, M) — channel-major
    d_depth: np.ndarray       # (M,)


def pair_partials(fc: FlatCompositeCache, proj, d_color, d_depth,
                  d_silhouette) -> PairPartials:
    """Every pair's gradient partials; no aggregation.

    ``d_color``/``d_depth``/``d_silhouette`` are the per-pixel loss
    gradients (``(K, 3)``, ``(K,)``, ``(K,)``).  Each expression mirrors
    :func:`composite_backward` term for term (same operands, same
    association order).
    """
    pix, gss = fc.pix, fc.gss
    alpha, gamma, contrib = fc.alpha, fc.gamma, fc.contrib
    weight = gamma * alpha
    colp = np.take(proj.color.T, gss, axis=1)     # (3, M)
    depp = proj.depth[gss]

    # Exclusive suffix sums per channel (color, depth, silhouette) in one
    # scan, background folded in after.
    w = np.empty((5, pix.size))
    np.multiply(weight, colp, out=w[:3])
    np.multiply(weight, depp, out=w[3])
    w[4] = weight
    suffix = fc.layout().suffix_sum(w) - w
    suffix_c = suffix[:3] + fc.gamma_final[pix] * fc.background[:, None]
    suffix_d = suffix[3]
    suffix_s = suffix[4]

    one_minus = np.where(contrib, 1.0 - alpha, 1.0)
    inv_one_minus = 1.0 / np.maximum(one_minus, 1e-12)

    dc = np.take(d_color.T, pix, axis=1)          # (3, M)
    dd = d_depth[pix]
    term_c = gamma * colp - suffix_c * inv_one_minus
    d_alpha = dc[0] * term_c[0] + dc[1] * term_c[1] + dc[2] * term_c[2]
    d_alpha = d_alpha + dd * (gamma * depp - suffix_d * inv_one_minus)
    d_alpha = d_alpha + d_silhouette[pix] * (gamma - suffix_s * inv_one_minus)
    d_alpha = np.where(contrib & ~fc.clipped, d_alpha, 0.0)

    opac = proj.opacity[gss]
    sig = proj.sigma2d[gss]
    g = np.where(contrib, alpha / np.maximum(opac, 1e-12), 0.0)
    d_g = d_alpha * opac

    du = fc.centres[:, 0][pix] - proj.mean2d[:, 0][gss]
    dv = fc.centres[:, 1][pix] - proj.mean2d[:, 1][gss]
    inv_var = 1.0 / (sig * sig)
    d2 = du * du + dv * dv
    return PairPartials(
        d_mean_u=d_g * g * du * inv_var,
        d_mean_v=d_g * g * dv * inv_var,
        d_sigma2d=d_g * g * d2 * (inv_var / sig),
        d_opacity=d_alpha * g,
        d_color=weight * dc,
        d_depth=weight * dd,
    )
