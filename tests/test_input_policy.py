"""Input policy at the loss boundary: non-finite reference pixels.

A real RGB-D stream delivers NaN color and depth pixels.  ``rgbd_loss``
masks them out of the valid set (and seeding skips them), so one bad
pixel costs one pixel, not the frame's whole pose or map optimization.
"""

import numpy as np
import pytest

from repro.datasets import make_replica_sequence
from repro.obs.health import HealthMonitor, use_monitor
from repro.slam import LossConfig, SLAMSystem, rgbd_loss


def _batch(seed=0, k=40):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0, 1, (k, 3)), rng.uniform(0.5, 3, k),
            rng.uniform(0.9, 1, k), rng.uniform(0, 1, (k, 3)),
            rng.uniform(0.5, 3, k))


@pytest.mark.parametrize("tracking", [True, False])
@pytest.mark.parametrize("channel", ["color", "depth", "inf_depth"])
def test_bad_reference_pixel_is_masked(tracking, channel):
    """With pixel 7 corrupted, loss and gradients equal those of the batch
    without pixel 7, bit for bit, and pixel 7 gets no gradient."""
    rc, rd, rs, ref_c, ref_d = _batch()
    cfg = LossConfig(silhouette_weight=0.3, huber_delta=0.05)
    bad_c, bad_d = ref_c.copy(), ref_d.copy()
    if channel == "color":
        bad_c[7, 1] = np.nan
    elif channel == "depth":
        bad_d[7] = np.nan
    else:
        bad_d[7] = np.inf
    out = rgbd_loss(rc, rd, rs, bad_c, bad_d, cfg, tracking=tracking)
    keep = np.arange(rd.size) != 7
    ref = rgbd_loss(rc[keep], rd[keep], rs[keep], ref_c[keep], ref_d[keep],
                    cfg, tracking=tracking)
    assert np.isfinite(out.loss)
    assert out.loss == ref.loss
    assert out.num_valid == ref.num_valid
    assert np.array_equal(out.d_color[keep], ref.d_color)
    assert np.array_equal(out.d_depth[keep], ref.d_depth)
    assert np.array_equal(out.d_silhouette[keep], ref.d_silhouette)
    assert not out.d_color[7].any() and out.d_depth[7] == 0.0


@pytest.mark.parametrize("mode", ["sparse", "dense"])
@pytest.mark.parametrize("row, col", [(9, 11), (8, 10)])
def test_slam_survives_one_nan_color_pixel(mode, row, col):
    """One NaN color pixel in every frame — off the bootstrap seeding
    lattice, and on it — : tracking and mapping run every iteration and
    no non-finite alert is raised."""
    seq = make_replica_sequence("room0", n_frames=3, width=24, height=18)
    for frame in seq.frames:
        frame.color[row, col, 0] = np.nan
    monitor = HealthMonitor()
    with use_monitor(monitor):
        result = SLAMSystem("splatam", mode=mode, seed=0).run(
            seq, health=monitor)
    assert [a for a in monitor.alerts if a.monitor == "non_finite"] == []
    assert np.all(np.isfinite(result.est_trajectory))
    assert np.all(np.isfinite(result.cloud.pack()))
