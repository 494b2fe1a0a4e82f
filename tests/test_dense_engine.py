"""The dense tile path against its per-tile oracle.

``render_full`` / ``backward_full`` composite only the α-passing
(pixel, Gaussian) pairs in one flat engine.  The oracle below is the
per-tile loop they replaced, kept verbatim: every tile composites its
pixels against its whole sorted Gaussian list with
:func:`composite_forward` and reverses it with :func:`composite_backward`,
then scatters the tile's pre-reduced gradients with ``np.add.at``.  The
engine must agree with it bit-for-bit — outputs, every gradient, every
``PipelineStats`` counter, the record streams and the atlas channels.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pixel_pipeline import render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.obs import atlas as atlas_mod
from repro.obs.atlas import AtlasCollector
from repro.render import backward_full, render_full
from repro.render.backward import ProjectedGradients, reproject_gradients
from repro.render.compositing import (ALPHA_MAX, ALPHA_THRESHOLD, T_MIN,
                                      composite_backward, composite_forward)
from repro.render.projection import RADIUS_SIGMA, project_gaussians
from repro.render.sorting import sort_by_depth
from repro.render.stats import PipelineStats
from repro.render.tiles import TileGrid


# ---------------------------------------------------------------------------
# Oracle: the per-tile loops of the tile pipeline, as first written.
# ---------------------------------------------------------------------------

def _oracle_observe_tile_forward(collector, px, n_gaussians, contribs):
    """The atlas's per-tile forward observation the tile loop made."""
    if not collector.active:
        return
    px = np.atleast_2d(np.asarray(px, dtype=int))
    k = px.shape[0]
    if k == 0:
        return
    ch = collector._frame["channels"]
    obs = collector._observed(collector._stage)
    tid = collector._tile_ids(px[:, 0], px[:, 1])
    np.add.at(ch["sampled"], tid, 1)
    obs["sampled"] += k
    if n_gaussians:
        np.add.at(ch["candidates"], tid, int(n_gaussians))
        obs["candidates"] += k * int(n_gaussians)
        atlas_tiles = np.unique(tid)
        np.add.at(ch["gaussians"], atlas_tiles, int(n_gaussians))
        obs["gaussians"] += int(atlas_tiles.size) * int(n_gaussians)
    if contribs is not None:
        contribs = np.asarray(contribs, dtype=np.int64)
        np.add.at(ch["contribs"], tid, contribs)
        obs["contribs"] += int(contribs.sum())


def _oracle_table(proj, grid):
    per_tile = [[] for _ in range(grid.num_tiles)]
    if len(proj) > 0:
        bbox = proj.bbox()
        ts = grid.tile_size
        tx0 = np.clip(np.floor(bbox[:, 0] / ts).astype(int), 0, grid.tiles_x - 1)
        ty0 = np.clip(np.floor(bbox[:, 1] / ts).astype(int), 0, grid.tiles_y - 1)
        tx1 = np.clip(np.floor(bbox[:, 2] / ts).astype(int), 0, grid.tiles_x - 1)
        ty1 = np.clip(np.floor(bbox[:, 3] / ts).astype(int), 0, grid.tiles_y - 1)
        for g in range(len(proj)):
            for ty in range(ty0[g], ty1[g] + 1):
                base = ty * grid.tiles_x
                for tx in range(tx0[g], tx1[g] + 1):
                    per_tile[base + tx].append(g)
    return [np.asarray(t, dtype=int) for t in per_tile]


def oracle_render_full(cloud, camera, background, tile_size=16,
                       alpha_threshold=ALPHA_THRESHOLD, t_min=T_MIN,
                       keep_cache=True, pixels=None, record_per_pixel=True):
    intr = camera.intrinsics
    bg = np.asarray(background, float)
    proj = project_gaussians(cloud, camera)
    grid = TileGrid.for_intrinsics(intr, tile_size)
    per_tile = _oracle_table(proj, grid)
    sorted_lists = [sort_by_depth(t, proj.depth) for t in per_tile]

    sample_mask = None
    if pixels is not None:
        pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
        sample_mask = np.zeros((intr.height, intr.width), dtype=bool)
        sample_mask[pixels[:, 1], pixels[:, 0]] = True

    color = np.tile(bg, (intr.height, intr.width, 1))
    depth = np.zeros((intr.height, intr.width))
    silhouette = np.zeros((intr.height, intr.width))
    stats = PipelineStats(
        pipeline="tile", tile_size=tile_size, image_width=intr.width,
        image_height=intr.height, num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=(intr.width * intr.height if pixels is None
                    else pixels.shape[0]),
        num_tile_pairs=int(sum(len(t) for t in per_tile)),
        record_per_pixel=record_per_pixel,
    )

    caches, tile_pixels = [], []
    record = stats.record_per_pixel
    for tile in range(grid.num_tiles):
        idx = sorted_lists[tile]
        px = grid.tile_pixels(tile)
        if sample_mask is not None:
            px = px[sample_mask[px[:, 1], px[:, 0]]]
        tile_pixels.append(px)
        if px.shape[0] == 0:
            caches.append(None)
            continue
        stats.num_sort_keys += idx.size
        if idx.size == 0:
            caches.append(None)
            if record:
                stats.per_pixel_contribs.extend([0] * px.shape[0])
            if atlas_mod.current.active:
                _oracle_observe_tile_forward(atlas_mod.current, px, 0, None)
            continue
        centres = px + 0.5
        out_color, out_depth, out_sil, cache = composite_forward(
            centres, proj.mean2d[idx], proj.sigma2d[idx], proj.depth[idx],
            proj.opacity[idx], proj.color[idx], bg,
            alpha_threshold=alpha_threshold, t_min=t_min)
        u, v = px[:, 0], px[:, 1]
        color[v, u] = out_color
        depth[v, u] = out_depth
        silhouette[v, u] = out_sil
        n_px, n_g = px.shape[0], idx.size
        stats.num_candidate_pairs += n_px * n_g
        stats.num_alpha_checks += n_px * n_g
        contribs = cache.contrib.sum(axis=1)
        stats.num_contrib_pairs += int(contribs.sum())
        if atlas_mod.current.active:
            _oracle_observe_tile_forward(atlas_mod.current, px, n_g,
                                         contribs)
        if record:
            serial_len = int((cache.gamma >= t_min).sum(axis=1).max())
            stats.tile_work.append((n_g, n_px, serial_len))
            stats.per_pixel_contribs.extend(int(c) for c in contribs)
        caches.append(cache if keep_cache else None)

    state = SimpleNamespace(proj=proj, grid=grid, sorted_lists=sorted_lists,
                            caches=caches, tile_pixels=tile_pixels,
                            stats=stats)
    return color, depth, silhouette, stats, state


def oracle_backward_full(state, cloud, camera, d_color, d_depth,
                         d_silhouette):
    proj = state.proj
    pg = ProjectedGradients.zeros(len(proj))
    stats = PipelineStats(
        pipeline="tile", tile_size=state.grid.tile_size,
        image_width=state.grid.width, image_height=state.grid.height,
        num_gaussians=len(cloud), num_projected=len(proj),
        num_pixels=state.grid.width * state.grid.height,
        record_per_pixel=state.stats.record_per_pixel,
    )
    record = stats.record_per_pixel
    for tile, idx in enumerate(state.sorted_lists):
        cache = state.caches[tile]
        if cache is None or idx.size == 0:
            continue
        px = state.tile_pixels[tile]
        u, v = px[:, 0], px[:, 1]
        pair = composite_backward(
            cache, proj.mean2d[idx], proj.sigma2d[idx], proj.depth[idx],
            proj.opacity[idx], proj.color[idx],
            d_color[v, u], d_depth[v, u], d_silhouette[v, u])
        pg.accumulate(idx, pair)
        stats.num_candidate_pairs += px.shape[0] * idx.size
        stats.num_alpha_checks += px.shape[0] * idx.size
        stats.num_contrib_pairs += pair.num_pairs_touched
        stats.num_atomic_adds += pair.num_pairs_touched
        if atlas_mod.current.active:
            atlas_mod.current.observe_tile_backward(px, cache.contrib.sum(axis=1))
        if record:
            serial_len = int((cache.gamma >= T_MIN).sum(axis=1).max())
            stats.tile_work.append((idx.size, px.shape[0], serial_len))
            stats.per_pixel_contribs.extend(
                int(c) for c in cache.contrib.sum(axis=1))
            for p in range(px.shape[0]):
                stats.pixel_contrib_ids.append(
                    proj.source_index[idx[cache.contrib[p]]])
    grads = reproject_gradients(proj, cloud, camera, pg)
    grads.stats = stats
    return grads


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

BG = np.array([0.2, 0.1, 0.3])


@st.composite
def dense_scenes(draw):
    """A small frame with a random cloud that exercises the corner cases:
    tile sizes that do not divide the frame, opaque stacks and veils
    (early termination, also at a raised ``t_min``), α clipped at ALPHA_MAX,
    exact depth ties, single-Gaussian tiles, an empty cloud and Org.+S
    pixel subsets."""
    width = draw(st.integers(6, 37))
    height = draw(st.integers(5, 29))
    tile = draw(st.sampled_from([8, 16]))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(
        ["random", "opaque_stack", "veil", "clipped", "depth_ties",
         "single", "empty"]))
    subset = draw(st.sampled_from(["full", "subset", "empty_subset"]))
    t_min = draw(st.sampled_from([T_MIN, 0.02]))
    rng = np.random.default_rng(seed)
    n = {"random": int(rng.integers(1, 40)), "opaque_stack": 12, "veil": 6,
         "clipped": 6, "depth_ties": 10, "single": 1, "empty": 0}[kind]
    means = np.stack([rng.uniform(-1.2, 1.2, n), rng.uniform(-0.9, 0.9, n),
                      rng.uniform(1.0, 4.0, n)], axis=-1)
    scales = rng.uniform(0.02, 0.3, n)
    opacities = rng.uniform(0.05, 0.95, n)
    if kind == "opaque_stack":
        means[:, :2] = rng.uniform(-0.3, 0.3, 2)
        opacities = rng.uniform(0.9, 0.99, n)
        scales = rng.uniform(0.2, 0.5, n)
    elif kind == "veil":
        # Splats wider than the frame: every pixel of every tile
        # terminates early, so tile serial depths depend on t_min.
        scales = rng.uniform(3.0, 6.0, n)
        opacities = rng.uniform(0.9, 0.99, n)
    elif kind == "clipped":
        opacities = np.full(n, 0.99999)
    elif kind == "depth_ties":
        means[:, 2] = rng.choice([1.5, 2.5], n)
        means[n // 2:, :2] = means[:n // 2, :2]
    cloud = GaussianCloud.create(means=means, scales=scales,
                                 opacities=opacities,
                                 colors=rng.uniform(-0.1, 1.1, (n, 3)))
    cam = Camera(Intrinsics.from_fov(width, height, 70.0))
    pixels = None
    if subset != "full":
        count = 0 if subset == "empty_subset" else int(
            rng.integers(1, width * height + 1))
        flat = rng.choice(width * height, count, replace=False)
        pixels = np.stack([flat % width, flat // width], axis=-1).reshape(-1, 2)
    upstream = (rng.normal(size=(height, width, 3)),
                rng.normal(size=(height, width)),
                rng.normal(size=(height, width)))
    return cloud, cam, tile, pixels, upstream, t_min


def _frame_atlas(width, height, fn):
    """Run ``fn`` inside one atlas frame; return the frame record."""
    collector = AtlasCollector(tile=4)
    with atlas_mod.use_collector(collector):
        with collector.record_to():
            collector.begin_frame(0, width, height)
            with collector.stage("tracking"):
                out = fn()
            collector.end_frame()
            record = collector.records[-1]
    return out, record


def _assert_streams_equal(a: PipelineStats, b: PipelineStats):
    assert a.as_dict() == b.as_dict()
    assert a.tile_work == b.tile_work
    assert a.per_pixel_contribs == b.per_pixel_contribs
    assert a.pixel_list_lengths == b.pixel_list_lengths
    assert len(a.pixel_contrib_ids) == len(b.pixel_contrib_ids)
    for x, y in zip(a.pixel_contrib_ids, b.pixel_contrib_ids):
        assert np.array_equal(x, y)


def _assert_grads_equal(a, b):
    for name in ("d_means", "d_log_scales", "d_logit_opacities",
                 "d_colors", "d_pose_twist"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestDenseEngineMatchesTileLoop:
    @settings(max_examples=60, deadline=None)
    @given(dense_scenes())
    def test_forward_backward_bit_identical(self, scene):
        cloud, cam, tile, pixels, (dc, dd, ds), t_min = scene
        intr = cam.intrinsics

        def engine():
            res = render_full(cloud, cam, BG, tile_size=tile, pixels=pixels,
                              t_min=t_min)
            return res, backward_full(res, cloud, cam, dc, dd, ds)

        def oracle():
            out = oracle_render_full(cloud, cam, BG, tile_size=tile,
                                     pixels=pixels, t_min=t_min)
            return out, oracle_backward_full(out[4], cloud, cam, dc, dd, ds)

        (res, grads), rec_e = _frame_atlas(intr.width, intr.height, engine)
        ((color, depth, sil, stats, _), ograds), rec_o = _frame_atlas(
            intr.width, intr.height, oracle)

        assert np.array_equal(res.color, color)
        assert np.array_equal(res.depth, depth)
        assert np.array_equal(res.silhouette, sil)
        _assert_grads_equal(grads, ograds)
        _assert_streams_equal(res.stats, stats)
        _assert_streams_equal(grads.stats, ograds.stats)
        assert rec_e["channels"] == rec_o["channels"]
        assert rec_e["observed"] == rec_o["observed"]

    @settings(max_examples=15, deadline=None)
    @given(dense_scenes())
    def test_records_off_and_no_cache(self, scene):
        cloud, cam, tile, pixels, (dc, dd, ds), _ = scene
        res = render_full(cloud, cam, BG, tile_size=tile, pixels=pixels,
                          record_per_pixel=False, keep_cache=False)
        color, depth, sil, stats, state = oracle_render_full(
            cloud, cam, BG, tile_size=tile, pixels=pixels,
            record_per_pixel=False, keep_cache=False)
        assert np.array_equal(res.color, color)
        assert np.array_equal(res.depth, depth)
        assert np.array_equal(res.silhouette, sil)
        _assert_streams_equal(res.stats, stats)
        grads = backward_full(res, cloud, cam, dc, dd, ds)
        ograds = oracle_backward_full(state, cloud, cam, dc, dd, ds)
        _assert_grads_equal(grads, ograds)
        _assert_streams_equal(grads.stats, ograds.stats)

    def test_single_gaussian_tile_reduction(self):
        """A tile whose list holds one Gaussian: numpy pre-reduces its
        (P, 1) gradient block pairwise, not sequentially."""
        cloud = GaussianCloud.create(
            means=np.array([[0.05, -0.03, 2.0]]), scales=np.array([0.4]),
            opacities=np.array([0.7]), colors=np.array([[0.3, 0.6, 0.9]]))
        cam = Camera(Intrinsics.from_fov(32, 32, 70.0))
        rng = np.random.default_rng(3)
        dc = rng.normal(size=(32, 32, 3)) * 10.0 ** rng.integers(
            -6, 6, (32, 32, 3))
        dd = rng.normal(size=(32, 32)) * 10.0 ** rng.integers(-6, 6, (32, 32))
        ds = rng.normal(size=(32, 32))
        res = render_full(cloud, cam, BG, tile_size=16)
        grads = backward_full(res, cloud, cam, dc, dd, ds)
        *_, state = oracle_render_full(cloud, cam, BG, tile_size=16)
        _assert_grads_equal(grads, oracle_backward_full(
            state, cloud, cam, dc, dd, ds))


class TestAlphaThresholdSemantics:
    """Bit-identity with the tile loop holds for thresholds at or above
    exp(-RADIUS_SIGMA**2 / 2); below it the engine keeps the pixel
    pipeline's bbox semantics, so its output no longer depends on the
    tile size."""

    def test_default_threshold_is_above_bound(self):
        assert ALPHA_THRESHOLD >= np.exp(-RADIUS_SIGMA ** 2 / 2.0)
        assert 0.001 < np.exp(-RADIUS_SIGMA ** 2 / 2.0)

    @staticmethod
    def _bbox_edge_scene():
        """One wide splat (σ = 4 px) whose 3.5σ bbox ends at u = 7.9: the
        pixel column u = 8 lies outside it yet passes α = 0.001, and it
        shares a 16-pixel tile with the splat but not an 8-pixel one."""
        intr = Intrinsics.from_fov(32, 16, 70.0)
        z, sigma, u_c, v_c = 2.0, 4.0, -6.1, 8.0
        focal = 0.5 * (intr.fx + intr.fy)
        cloud = GaussianCloud.create(
            means=np.array([[(u_c - intr.cx) * z / intr.fx,
                             (v_c - intr.cy) * z / intr.fy, z]]),
            scales=np.array([sigma * z / focal]),
            opacities=np.array([0.99]), colors=np.array([[0.9, 0.5, 0.1]]))
        return cloud, Camera(intr)

    @staticmethod
    def _random_scene():
        rng = np.random.default_rng(7)
        n = 30
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(-1, 1, n), rng.uniform(-0.8, 0.8, n),
                            rng.uniform(1.2, 4, n)], axis=-1),
            scales=rng.uniform(0.05, 0.3, n),
            opacities=rng.uniform(0.5, 0.99, n),
            colors=rng.uniform(0, 1, (n, 3)))
        return cloud, Camera(Intrinsics.from_fov(29, 21, 70.0))

    @pytest.mark.parametrize("scene", ["bbox_edge", "random"])
    def test_low_threshold_is_tile_independent_and_matches_sparse(self, scene):
        cloud, cam = (self._bbox_edge_scene() if scene == "bbox_edge"
                      else self._random_scene())
        w, h = cam.intrinsics.width, cam.intrinsics.height
        thr = 0.001
        r8 = render_full(cloud, cam, BG, tile_size=8, alpha_threshold=thr)
        r16 = render_full(cloud, cam, BG, tile_size=16, alpha_threshold=thr)
        vv, uu = np.mgrid[0:h, 0:w]
        pixels = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        sp = render_sparse(cloud, cam, pixels, BG, alpha_threshold=thr,
                           backend="vectorized")
        color, depth, sil = sp.scatter(h, w, BG)
        for res in (r8, r16):
            assert np.array_equal(res.color, color)
            assert np.array_equal(res.depth, depth)
            assert np.array_equal(res.silhouette, sil)


@pytest.mark.parametrize("tile", [8, 16])
def test_alpha_clipped_pairs_gate_gradients(tile):
    """Pairs clipped at ALPHA_MAX pass no opacity/position gradient — in
    the engine exactly as in the oracle."""
    cloud = GaussianCloud.create(
        means=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]]),
        scales=np.array([0.3, 0.2]), opacities=np.array([0.99999, 0.5]),
        colors=np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]]))
    cam = Camera(Intrinsics.from_fov(20, 20, 70.0))
    res = render_full(cloud, cam, BG, tile_size=tile)
    proj = res.proj
    assert (proj.opacity > ALPHA_MAX).any()
    ones = (np.ones((20, 20, 3)), np.ones((20, 20)), np.ones((20, 20)))
    grads = backward_full(res, cloud, cam, *ones)
    *_, state = oracle_render_full(cloud, cam, BG, tile_size=tile)
    _assert_grads_equal(grads, oracle_backward_full(state, cloud, cam, *ones))
