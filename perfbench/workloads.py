"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload runs *episodes*: one episode is the whole job on one
synthesized sequence (a full SLAM run, or tracking every frame of the
sequence), made with its own seed.  A run repeats episodes in a closed
loop, one frame in flight, with seeds derived from the benchmark's
``--seed``; the same seeds give bit-identical episodes, which is what the
traced run is checked against.

- ``slam_replica``: the full sparse SLAM loop on ``room0`` at 64x48 and
  12 frames, the ``repro slam`` defaults.  The only workload that writes
  the map (densify, Adam over every Gaussian, prune); its run is mostly
  the dense tile path (mapper first pass + full-frame mapping).
- ``track_tum``: tracking only, ``Tracker.track_frame`` on ``fr1_desk``
  at 64x48 against the sequence's fixed ground-truth map.  Noisy, jittery
  input; the sparse pixel pipeline is nearly the whole run and the dense
  path makes no call.
- ``dense_tum``: the Org. baseline, dense-mode SLAM on ``fr1_desk`` at
  48x36 and 8 frames (the accuracy-figure size).  Every tracking
  iteration renders the full frame through the tile pipeline with a
  drifting pose; the sparse kernels make no call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.scenarios import (
    ProxyBundle,
    mapping_workloads,
    tracking_workloads,
)
from repro.core.splatonic import Splatonic, SplatonicConfig
from repro.datasets import make_replica_sequence, make_tum_sequence
from repro.gaussians.camera import Camera
from repro.gaussians.se3 import se3_inverse
from repro.hw import GpuModel, SplatonicAccelerator
from repro.obs.health import get_monitor
from repro.render.kernels import get_kernel, register_kernel
from repro.render.stats import PipelineStats
from repro.slam import SLAMSystem
from repro.slam.config import get_algorithm
from repro.slam.system import SLAMResult
from repro.slam.tracker import Tracker

from layers import LayerTimer

__all__ = ["WORKLOADS", "LAYERS", "COUNTS", "Workload", "Episode",
           "make_sequence", "run_episode", "frame_clock", "traced_episodes",
           "install_layers", "simulate", "quality", "resolved_defaults"]

ALGORITHM = "splatam"
# `repro slam` passes --tracking-tile 8 and turns per-pixel records off.
TRACKING_TILE = 8
BACKGROUND = np.full(3, 0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable
    sequence: str
    frames: int
    width: int
    height: int
    mode: str   # "sparse" / "dense" SLAM, or "track" (tracking only)
    #: Wall time of one episode on a 2-core x86 host at the parent
    #: commit; sizes how many episodes fill a run's ``--seconds``.
    nominal_episode_s: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("slam_replica", make_replica_sequence, "room0", 12, 64, 48,
             "sparse", 12.0),
    Workload("track_tum", make_tum_sequence, "fr1_desk", 20, 64, 48,
             "track", 9.0),
    Workload("dense_tum", make_tum_sequence, "fr1_desk", 8, 48, 36,
             "dense", 25.0),
)}


def make_sequence(workload: Workload):
    """Synthesize the workload's sequence (seeded by its scene name)."""
    return workload.make(workload.sequence, n_frames=workload.frames,
                         width=workload.width, height=workload.height)


def _config() -> SplatonicConfig:
    return SplatonicConfig(tracking_tile=TRACKING_TILE,
                           record_per_pixel=False)


@dataclass
class Episode:
    """One finished episode and what the checks compare."""

    seed: int
    frames: int
    result: SLAMResult
    abandoned: int
    track_s: List[float] = field(default_factory=list)

    def counters(self) -> Dict:
        """Exact, deterministic outputs besides the trajectory."""
        r = self.result
        return {
            "stages": {k: v.as_dict() for k, v in r.stage_stats.items()},
            "tracking_iterations": list(r.tracking_iterations),
            "mapping_invocations": r.mapping_invocations,
            "final_gaussians": len(r.cloud),
            "abandoned": self.abandoned,
        }


def _non_finite_alerts() -> int:
    return sum(a.monitor == "non_finite" for a in get_monitor().alerts)


@contextmanager
def frame_clock(times: List[float],
                after: Optional[Callable[[float], None]] = None):
    """Time every ``Tracker.track_frame`` call with one perf_counter pair.

    ``after(seconds)`` runs once each call has returned and been timed.
    """
    original = Tracker.track_frame

    def timed(self, *args, **kwargs):
        start = perf_counter()
        result = original(self, *args, **kwargs)
        elapsed = perf_counter() - start
        times.append(elapsed)
        if after is not None:
            after(elapsed)
        return result

    Tracker.track_frame = timed
    try:
        yield
    finally:
        Tracker.track_frame = original


def _constant_velocity(poses: List[np.ndarray]) -> np.ndarray:
    """The SLAM loop's start pose: extrapolate the last relative motion."""
    if len(poses) < 2:
        return poses[-1].copy()
    return poses[-1] @ (se3_inverse(poses[-2]) @ poses[-1])


def _track_only(sequence, seed: int) -> SLAMResult:
    """Track every frame after the first against the ground-truth map."""
    splat = Splatonic(_config(), rng=np.random.default_rng(seed))
    tracker = Tracker(get_algorithm(ALGORITHM), sequence.intrinsics, splat,
                      "sparse", BACKGROUND)
    poses = [sequence[0].gt_pose_c2w.copy()]
    fwd, bwd = PipelineStats(), PipelineStats()
    iterations = []
    for frame in sequence.frames[1:]:
        tr = tracker.track_frame(sequence.gt_cloud, _constant_velocity(poses),
                                 frame.color, frame.depth)
        poses.append(tr.pose_c2w)
        iterations.append(tr.iterations)
        fwd.merge(tr.forward_stats)
        bwd.merge(tr.backward_stats)
    return SLAMResult(
        algorithm=ALGORITHM, mode="sparse",
        est_trajectory=np.stack(poses),
        gt_trajectory=sequence.gt_trajectory,
        cloud=sequence.gt_cloud,
        stage_stats={"tracking_fwd": fwd, "tracking_bwd": bwd},
        tracking_iterations=iterations,
        num_frames=len(sequence))


def run_episode(workload: Workload, sequence, seed: int) -> Episode:
    """Run one episode; the caller decides what is instrumented."""
    alerts = _non_finite_alerts()
    if workload.mode == "track":
        result = _track_only(sequence, seed)
        frames = len(sequence) - 1
    else:
        system = SLAMSystem(ALGORITHM, mode=workload.mode,
                            splatonic_config=_config(), seed=seed)
        result = system.run(sequence)
        frames = len(sequence)
    return Episode(seed, frames, result, _non_finite_alerts() - alerts)


def resolved_defaults() -> Dict:
    """The execution defaults a run resolves to (backend, cache, workers)."""
    system = SLAMSystem(ALGORITHM, splatonic_config=_config())
    return {
        "kernel_backend": system.resolved_kernel_backend(),
        "render_cache": system.resolved_render_cache(),
        "kernel_workers": system.effective_kernel_workers(),
    }


# ---- tracing ----

def _tile_counts(timer, result, args, kwargs):
    timer.counts["render.tile_candidate_pairs"] += \
        result.stats.num_candidate_pairs
    timer.counts["render.tile_contrib_pairs"] += result.stats.num_contrib_pairs


def _sparse_forward_counts(timer, result, args, kwargs):
    stats = result.stats
    timer.counts["core.pixels"] += stats.num_pixels
    timer.counts["core.candidate_pairs"] += stats.num_candidate_pairs
    timer.counts["core.contrib_pairs"] += stats.num_contrib_pairs
    timer.counts["core.sort_keys"] += stats.num_sort_keys
    timer.counts["render.cache_hits"] += stats.cache_hits
    timer.counts["render.cache_misses"] += stats.cache_misses


def _sparse_backward_counts(timer, result, args, kwargs):
    timer.counts["core.atomic_adds"] += result.stats.num_atomic_adds


def _track_counts(timer, result, args, kwargs):
    timer.counts["slam.track_iters"] += result.iterations
    timer.counts["slam.track_converged"] += int(result.converged)


def _map_counts(timer, result, args, kwargs):
    timer.counts["slam.seeded"] += result.num_seeded
    timer.counts["slam.pruned"] += result.num_pruned


def _adam_counts(timer, result, args, kwargs):
    if timer.active("slam.map_frame"):
        timer.counts["slam.map_iters"] += 1


#: (dotted name where the caller looks it up, layer, counter hook).
LAYER_TARGETS = (
    # render: the dense tile path
    ("repro.core.splatonic.render_full", "render.render_full", _tile_counts),
    ("repro.slam.tracker.backward_full", "render.backward_full", None),
    ("repro.slam.mapper.backward_full", "render.backward_full", None),
    # render: stages under the sparse path
    ("repro.core.pixel_pipeline.project_gaussians", "render.project", None),
    ("repro.core.pixel_pipeline.candidate_pairs", "render.candidates", None),
    ("repro.core.pixel_pipeline.reproject_gradients", "render.reproject",
     None),
    # core: the sparse pixel pipeline and sampling
    ("repro.core.splatonic.render_sparse", "core.render_sparse",
     _sparse_forward_counts),
    ("repro.core.splatonic.backward_sparse", "core.backward_sparse",
     _sparse_backward_counts),
    ("repro.core.splatonic.sample_tracking_pixels", "core.sample", None),
    ("repro.core.splatonic.sample_mapping_pixels", "core.sample", None),
    # slam: tracking, mapping (the map writes), the loss and Adam
    ("repro.slam.tracker.Tracker.track_frame", "slam.track_frame",
     _track_counts),
    ("repro.slam.mapper.Mapper.map_frame", "slam.map_frame", _map_counts),
    ("repro.slam.mapper.Mapper.densify", "slam.densify", None),
    ("repro.slam.optim.Adam.step", "slam.adam", _adam_counts),
    ("repro.slam.tracker.rgbd_loss", "slam.loss", None),
    ("repro.slam.mapper.rgbd_loss", "slam.loss", None),
    # gaussians: the packed parameter vector the mapper steps
    ("repro.gaussians.model.GaussianCloud.pack", "gaussians.pack", None),
    ("repro.gaussians.model.GaussianCloud.unpack", "gaussians.pack", None),
)

#: Kernel-backend record fields and their layers; the record is swapped
#: in the backend registry, which the pipeline consults on every call.
KERNEL_FIELDS = {"forward": "render.kernel_fwd",
                 "backward": "render.kernel_bwd"}


#: Every layer the traced run times, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for _, layer, _ in LAYER_TARGETS] + list(KERNEL_FIELDS.values())))

#: Counters the hooks accumulate; reported even when 0 (an exact count).
COUNTS = ("render.tile_candidate_pairs", "render.tile_contrib_pairs",
          "core.pixels", "core.candidate_pairs", "core.contrib_pairs",
          "core.sort_keys", "core.atomic_adds", "slam.track_iters",
          "slam.map_iters", "slam.seeded", "slam.pruned")


def install_layers(timer: LayerTimer, backend: str) -> None:
    """Patch every layer target (and the resolved kernel backend)."""
    for target, layer, hook in LAYER_TARGETS:
        timer.patch(target, layer, hook)
    timer.patch_record(register_kernel, get_kernel(backend), KERNEL_FIELDS,
                       f"repro.render.kernels.{backend}")


def traced_episodes(workload: Workload, sequence, seeds: List[int],
                    backend: str):
    """Re-run ``seeds`` under the layer timer.

    Returns (episodes, timer, wall of the traced loop).
    """
    timer = LayerTimer()
    with timer:
        install_layers(timer, backend)
        start = perf_counter()
        episodes = [run_episode(workload, sequence, s) for s in seeds]
        wall = perf_counter() - start
    return episodes, timer, wall


# ---- simulated hardware ----

def simulate(sequence, result: SLAMResult) -> Dict[str, float]:
    """Modelled SPLATONIC-HW vs mobile-GPU iteration times for one run.

    The proxy bundle is built from the run's own trajectory and map at
    the probe frame :func:`repro.bench.scenarios.build_bundle` uses.
    """
    n = len(result.est_trajectory)
    index = max(4, ((n - 2) // 4) * 4)
    intr = sequence.intrinsics
    bundle = ProxyBundle(
        sequence=sequence, result=result, cloud=result.cloud,
        frame_index=index,
        camera=Camera(intr, result.est_trajectory[index]),
        width=intr.width, height=intr.height)
    gpu, accel = GpuModel(), SplatonicAccelerator()
    out = {}
    for kind, workloads in (("track", tracking_workloads(bundle)),
                            ("map", mapping_workloads(bundle))):
        out[f"gpu_{kind}_ms"] = \
            gpu.iteration_times(workloads["dense"]).total * 1e3
        out[f"sim_{kind}_ms"] = \
            accel.iteration_report(workloads["pixel"]).total_s * 1e3
    return out


def quality(sequence, result: SLAMResult) -> Dict[str, float]:
    """ATE (cm) and rendering quality at the estimated poses."""
    q = result.eval_quality(sequence)
    return {"ate_rmse_cm": result.ate().rmse * 100.0, "psnr_db": q["psnr"],
            "frames_evaluated": q["frames_evaluated"]}
