"""Tests of the benchmark's layer timing.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import LayerTimer  # noqa: E402


class FakeClock:
    """A clock that reads the given instants, one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_program")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Thing:
        def method(self, x):
            return x - 1

        @classmethod
        def build(cls, x):
            return cls, x

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    return mod


def test_nested_self_times_sum_to_wall(fake_module):
    # outer starts at 0, inner runs 1..3, outer ends at 6; wall is 10.
    timer = LayerTimer(clock=FakeClock(0.0, 1.0, 3.0, 6.0))
    timer.patch("fake_program.outer", "a.outer")
    timer.patch("fake_program.inner", "b.inner")
    assert fake_module.outer(1) == 4
    assert timer.total == {"a.outer": 6.0, "b.inner": 2.0}
    assert timer.self_time == {"a.outer": 4.0, "b.inner": 2.0}
    ledger = timer.ledger(10.0)
    assert ledger == {"a.outer": 0.4, "b.inner": 0.2,
                      "unattributed": pytest.approx(0.4)}
    assert sum(ledger.values()) == pytest.approx(1.0)


def test_self_times_sum_to_wall_with_real_clock(fake_module):
    from time import perf_counter

    timer = LayerTimer()
    timer.patch("fake_program.outer", "a.outer")
    timer.patch("fake_program.inner", "b.inner")
    start = perf_counter()
    for i in range(200):
        fake_module.outer(i)
        fake_module.inner(i)
    wall = perf_counter() - start
    ledger = timer.ledger(wall)
    assert sum(ledger.values()) == pytest.approx(1.0)
    assert ledger["unattributed"] >= 0.0
    assert timer.calls == {"a.outer": 200, "b.inner": 400}


def test_reentry_counts_total_once(fake_module):
    timer = LayerTimer(clock=FakeClock(0.0, 1.0, 3.0, 6.0))
    timer.patch("fake_program.outer", "same")
    timer.patch("fake_program.inner", "same")
    fake_module.outer(1)
    assert timer.total["same"] == 6.0
    assert timer.self_time["same"] == 6.0
    assert timer.calls["same"] == 2


def test_methods_and_restore(fake_module):
    thing_cls = fake_module.Thing
    raw_method = thing_cls.__dict__["method"]
    raw_build = thing_cls.__dict__["build"]
    original_inner = fake_module.inner
    with LayerTimer() as timer:
        timer.patch("fake_program.Thing.method", "c.method")
        timer.patch("fake_program.Thing.build", "c.build")
        timer.patch("fake_program.inner", "b.inner")
        assert thing_cls().method(3) == 2
        assert thing_cls.build(5) == (thing_cls, 5)
        assert timer.target_calls == {"fake_program.Thing.method": 1,
                                      "fake_program.Thing.build": 1}
    assert thing_cls.__dict__["method"] is raw_method
    assert thing_cls.__dict__["build"] is raw_build
    assert fake_module.inner is original_inner


def test_patch_record_swaps_and_restores():
    @dataclasses.dataclass(frozen=True)
    class Record:
        name: str
        forward: object

    registry = {}

    def register(record):
        registry[record.name] = record

    original = Record("k", lambda x: x * 3)
    register(original)
    with LayerTimer() as timer:
        timer.patch_record(register, original, {"forward": "k.fwd"}, "reg.k")
        assert registry["k"].forward(2) == 6
        assert timer.calls["k.fwd"] == 1
        assert timer.target_calls["reg.k.forward"] == 1
    assert registry["k"] is original


def test_uncalled_layer_is_omitted(fake_module):
    timer = LayerTimer()
    timer.patch("fake_program.outer", "a.outer")
    timer.patch("fake_program.inner", "b.inner")
    fake_module.inner(1)
    assert "a.outer" not in timer.calls
    assert "a.outer" not in timer.total
    assert set(timer.ledger(1.0)) == {"b.inner", "unattributed"}
    timer.restore()


def test_layer_metrics_omit_uncalled_layers():
    import run
    wl = pytest.importorskip("workloads")

    timer = LayerTimer(clock=FakeClock(0.0, 2.0))
    wrapped = timer.wrap(lambda: None, "render.render_full")
    wrapped()
    metrics = run.layer_metrics(wl, timer, 4.0)
    assert metrics["render.render_full_s"] == 2.0
    assert metrics["render.render_full_share"] == 0.5
    assert metrics["render.backward_full_calls"] == 0
    for name in ("render.backward_full_s", "render.backward_full_share",
                 "core.alpha_pass_rate", "core.ns_per_pair",
                 "render.cache_hit_rate", "slam.map_self_s"):
        assert name not in metrics


def test_result_line_fills_only_uncalled_layer_times():
    import run

    declared = [{"name": n, "unit": "s"} for n in
                ("render.render_full_s", "render.render_full_share",
                 "slam.map_self_s", "core.sample_s")]
    measured = {"core.sample_s": 1.5}
    out = run.result_metrics(declared, measured,
                               ["render.render_full", "slam.map_frame"])
    assert out["core.sample_s"] == {"value": 1.5, "unit": "s"}
    assert out["render.render_full_s"]["value"] == 0.0
    assert out["slam.map_self_s"]["value"] == 0.0
    with pytest.raises(run.CheckFailed, match="core.sample_s"):
        run.result_metrics(declared, {}, ["render.render_full",
                                            "slam.map_frame"])


# ---- every patched name is hit where the workload does that work ----

SPARSE_TARGETS = {
    "repro.core.pixel_pipeline.project_gaussians",
    "repro.core.pixel_pipeline.candidate_pairs",
    "repro.core.pixel_pipeline.reproject_gradients",
    "repro.core.splatonic.render_sparse",
    "repro.core.splatonic.backward_sparse",
    "repro.core.splatonic.sample_tracking_pixels",
    "repro.render.kernels.{backend}.forward",
    "repro.render.kernels.{backend}.backward",
}
TRACKING_TARGETS = {
    "repro.slam.tracker.Tracker.track_frame",
    "repro.slam.optim.Adam.step",
    "repro.slam.tracker.rgbd_loss",
}
MAPPING_TARGETS = {
    "repro.core.splatonic.render_full",
    "repro.slam.mapper.backward_full",
    "repro.slam.mapper.Mapper.map_frame",
    "repro.slam.mapper.Mapper.densify",
    "repro.slam.mapper.rgbd_loss",
    "repro.gaussians.model.GaussianCloud.pack",
    "repro.gaussians.model.GaussianCloud.unpack",
}
EXPECTED_HITS = {
    "slam_replica": SPARSE_TARGETS | TRACKING_TARGETS | MAPPING_TARGETS
    | {"repro.core.splatonic.sample_mapping_pixels"},
    "track_tum": SPARSE_TARGETS | TRACKING_TARGETS,
    "dense_tum": TRACKING_TARGETS | MAPPING_TARGETS
    | {"repro.slam.tracker.backward_full"},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_HITS))
def test_every_target_hit_where_expected(name):
    wl = pytest.importorskip("workloads")

    # A small copy of the workload: same code paths, seconds not minutes.
    # Five frames reach the first regular mapping invocation (frame 4).
    small = dataclasses.replace(wl.WORKLOADS[name], width=32, height=24,
                                frames=5)
    sequence = wl.make_sequence(small)
    backend = wl.resolved_defaults()["kernel_backend"]
    plain = wl.run_episode(small, sequence, 7)
    traced, timer, wall = wl.traced_episodes(small, sequence, [7], backend)

    all_targets = {t for t, _, _ in wl.LAYER_TARGETS} | {
        f"repro.render.kernels.{backend}.{f}" for f in wl.KERNEL_FIELDS}
    expected = {t.format(backend=backend) for t in EXPECTED_HITS[name]}
    hit = {t for t in all_targets if timer.target_calls[t] > 0}
    assert hit == expected
    assert sum(timer.ledger(wall).values()) == pytest.approx(1.0)
    # Passive: the traced episode reproduces the untraced one exactly.
    assert (traced[0].result.est_trajectory.tobytes()
            == plain.result.est_trajectory.tobytes())
    assert traced[0].counters() == plain.counters()
