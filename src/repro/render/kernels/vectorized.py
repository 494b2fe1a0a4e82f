"""Vectorized sparse kernels: the flat composite core over all K pixels.

Executes all K pixel pipelines at once over the flattened (pixel,
Gaussian) pair list:

- one global sort on ``(pixel, depth, index)`` replaces the K per-pixel
  depth sorts (the tie-break matches ``sort_by_depth``);
- compositing and the per-pair gradient partials run in the flat
  composite core (:mod:`repro.render.flat`), shared with the dense tile
  path: elementwise over the pairs, with the per-pixel scans run list
  position by list position in the oracle's sequential order;
- the backward pass aggregates per Gaussian with a single ``np.add.at``
  whose (index, value) sequence — pixel-major, depth-sorted — is exactly
  the sequence the reference loop's per-pixel scatters produce.

Together this makes the backend bit-identical to the reference loop while
doing O(K) Python work instead of O(K) Python *loop iterations* of ~25
numpy calls each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .. import flat
from ..flat import FlatCompositeCache

__all__ = [
    "FlatCompositeCache",
    "PairGradients",
    "forward",
    "backward",
    "pair_gradients",
    "scatter_pair_gradients",
    "accumulate_backward_stats",
]


def _depth_order(proj, pix: np.ndarray, gss: np.ndarray) -> np.ndarray:
    """Permutation sorting pairs by ``(pixel, depth, index)``.

    The same order as ``np.lexsort((gss, depth[gss], pix))`` for a pair
    list without duplicates, from one integer argsort: each projected
    Gaussian's rank in the global ``(depth, index)`` order (the key of
    ``sort_by_depth``) stands in for the two inner keys.
    """
    m = len(proj)
    rank = np.empty(m, dtype=np.int64)
    rank[np.lexsort((np.arange(m), proj.depth))] = np.arange(m)
    return np.argsort(pix.astype(np.int64) * m + rank[gss])


def forward(proj, pairs, centres, background, alpha_threshold, t_min,
            keep_cache, exp_fn, stats, color, depth, silhouette,
            pair_alpha=None, pair_clipped=None, contribs_out=None):
    """Batched forward pass over the shared candidate pair list.

    ``pair_alpha`` / ``pair_clipped`` are the flat per-pair α values and
    clip flags the pipeline's α stage already evaluated (aligned with
    ``pairs``); when given, the falloff is not re-evaluated here.
    ``contribs_out`` (when given, a zeroed length-K int array) receives
    the per-pixel contributing-pair counts for the sparsity atlas; the
    counts are the same ``contrib`` reduction the stats use, so the
    channel stays bit-identical to the reference backend's.
    """
    K = pairs.num_pixels
    record = stats.record_per_pixel
    if pairs.size == 0:
        if record:
            stats.pixel_list_lengths.extend([0] * K)
            stats.per_pixel_contribs.extend([0] * K)
        return ([np.zeros(0, dtype=int) for _ in range(K)], [None] * K,
                None)

    order = _depth_order(proj, pairs.pix, pairs.gss)
    pix = pairs.pix[order]
    gss = pairs.gss[order]
    if pair_alpha is not None:
        alpha, clipped = pair_alpha[order], pair_clipped[order]
    else:
        alpha, clipped = flat.pair_alpha(proj, centres[pix, 0],
                                         centres[pix, 1], gss, exp_fn)
    out_color, out_depth, out_sil, fc = flat.composite_pairs(
        proj, pix, gss, alpha, clipped, centres, background,
        alpha_threshold, t_min)
    color[:, :] = out_color
    depth[:] = out_depth
    silhouette[:] = out_sil

    contribs_row = fc.contribs()
    stats.num_contrib_pairs += int(contribs_row.sum())
    if contribs_out is not None:
        contribs_out[:] = contribs_row
    if record:
        stats.pixel_list_lengths.extend(fc.lengths.tolist())
        stats.per_pixel_contribs.extend(contribs_row.tolist())

    pixel_lists: List[np.ndarray] = np.split(gss, np.cumsum(fc.lengths)[:-1])
    return pixel_lists, [None] * K, (fc if keep_cache else None)


@dataclass
class PairGradients:
    """Flat per-pair gradient partials in canonical order.

    The pair sequence is the forward pass's global (pixel, depth, index)
    sort — pixel-major, front-to-back.  ``scatter_pair_gradients``
    consumes these with one sequential ``np.add.at`` per array, so any
    concatenation of ``PairGradients`` computed over contiguous pixel
    shards (in shard order) reproduces the exact global accumulation
    sequence — the software analogue of the accelerator's aggregation
    scoreboard.
    """

    idx: np.ndarray           # (P,) projected-Gaussian index per pair
    d_mean2d: np.ndarray      # (P, 2)
    d_sigma2d: np.ndarray     # (P,)
    d_opacity: np.ndarray     # (P,)
    d_color: np.ndarray       # (P, 3)
    d_depth: np.ndarray       # (P,)
    touched: np.ndarray       # (K,) per-pixel contributing-pair counts
    contrib_flat: np.ndarray  # (P,) bool — pair actually contributed


def pair_gradients(fc, proj, d_color, d_depth, d_silhouette):
    """Compute every per-pair gradient partial; no aggregation.

    All math is elementwise per pair or a scan within one pixel's list,
    so running it over a contiguous pixel shard yields bit-identical
    values to the corresponding pairs of the global pass.
    """
    part = flat.pair_partials(fc, proj, d_color, d_depth, d_silhouette)
    return PairGradients(
        idx=fc.gss,
        d_mean2d=np.stack([part.d_mean_u, part.d_mean_v], axis=-1),
        d_sigma2d=part.d_sigma2d,
        d_opacity=part.d_opacity,
        d_color=part.d_color.T,
        d_depth=part.d_depth,
        touched=fc.contribs(),
        contrib_flat=fc.contrib,
    )


def scatter_pair_gradients(pg, grads: PairGradients) -> None:
    """Aggregate pair partials: one sequential scatter-add per array."""
    np.add.at(pg.d_mean2d, grads.idx, grads.d_mean2d)
    np.add.at(pg.d_sigma2d, grads.idx, grads.d_sigma2d)
    np.add.at(pg.d_opacity, grads.idx, grads.d_opacity)
    np.add.at(pg.d_color, grads.idx, grads.d_color)
    np.add.at(pg.d_depth, grads.idx, grads.d_depth)


def accumulate_backward_stats(stats, fc, grads: PairGradients, proj,
                              contribs_out=None) -> None:
    """Fold one (shard's) backward pass into ``stats`` + atlas counts."""
    touched = grads.touched
    total_touched = int(touched.sum())
    if contribs_out is not None:
        contribs_out[:] = touched
    stats.num_candidate_pairs += int(fc.lengths.sum())
    stats.num_contrib_pairs += total_touched
    stats.num_atomic_adds += total_touched
    if stats.record_per_pixel:
        nonzero = fc.lengths > 0
        stats.pixel_list_lengths.extend(fc.lengths[nonzero].tolist())
        stats.per_pixel_contribs.extend(touched[nonzero].tolist())
        ids = proj.source_index[fc.gss[grads.contrib_flat]]
        splits = np.cumsum(touched[nonzero])[:-1]
        stats.pixel_contrib_ids.extend(np.split(ids, splits))


def backward(result, proj, d_color, d_depth, d_silhouette, pg, stats,
             contribs_out=None):
    """Batched backward pass over the flat forward cache.

    Pair partials from :func:`pair_gradients` aggregated by the single
    pixel-major ``np.add.at`` of :func:`scatter_pair_gradients` — all
    per-Gaussian accumulations are bit-identical to the reference loop's.
    """
    fc = result.flat_cache
    if fc is None:
        return
    grads = pair_gradients(fc, proj, d_color, d_depth, d_silhouette)
    scatter_pair_gradients(pg, grads)
    accumulate_backward_stats(stats, fc, grads, proj, contribs_out)


from . import KernelBackend, register_kernel  # noqa: E402

register_kernel(KernelBackend(
    name="vectorized",
    description="batched flat composite core over the CSR pair list",
    forward=forward,
    backward=backward,
    # The global (pixel, depth, index) sort fully determines the pair
    # order on its own, so pre-sorted input buys nothing.
    needs_pixel_major_pairs=False,
    wants_pair_alpha=True,
))
