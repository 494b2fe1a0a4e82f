"""The full 3DGS-SLAM loop: alternating tracking and mapping (Fig. 2).

``SLAMSystem.run`` consumes an RGB-D sequence: every frame is tracked
(constant-velocity initialization, then iterative pose optimization);
every ``map_every`` frames the mapper densifies and fine-tunes the map
against a keyframe window.  Workload counters are accumulated separately
for the four stages (tracking/mapping x forward/backward) so the hardware
models can replay exactly the workloads the run produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..core.splatonic import Splatonic, SplatonicConfig
from ..gaussians.camera import Camera
from ..gaussians.init import seed_from_rgbd
from ..gaussians.model import GaussianCloud
from ..gaussians.se3 import se3_inverse
from ..metrics.ate import AteResult, ate_rmse
from ..metrics.quality import depth_l1, psnr, ssim
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs import flight as obs_flight
from ..obs import atlas as obs_atlas
from ..obs import telemetry as obs_telemetry
from ..obs.health import HealthMonitor, get_monitor, use_monitor
from ..render.rasterize import render_full
from ..render.stats import PipelineStats
from .config import AlgorithmConfig, get_algorithm
from .keyframes import Keyframe, KeyframeBuffer
from .mapper import Mapper
from .tracker import Tracker

__all__ = ["SLAMResult", "SLAMSystem"]


@dataclass
class SLAMResult:
    """Everything a finished SLAM run produced."""

    algorithm: str
    mode: str
    est_trajectory: np.ndarray      # (N, 4, 4)
    gt_trajectory: np.ndarray       # (N, 4, 4)
    cloud: GaussianCloud
    stage_stats: Dict[str, PipelineStats]
    tracking_iterations: List[int] = field(default_factory=list)
    mapping_invocations: int = 0
    num_frames: int = 0
    #: Registry id assigned when the run was recorded into a
    #: :class:`repro.obs.runsdb.RunRegistry` (None otherwise).
    run_id: Optional[str] = None

    def ate(self) -> AteResult:
        """Absolute trajectory error of the estimated trajectory."""
        return ate_rmse(self.est_trajectory, self.gt_trajectory)

    def eval_quality(self, sequence, every: int = 4,
                     background: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Render at the estimated poses and compare against the references.

        The returned dict always includes ``frames_evaluated``.  When the
        sampling yields no frames at all (``num_frames == 0`` or a
        non-positive ``every``), the scores are reported as 0.0 with a
        metrics-registry warning instead of silently averaging empty
        lists into NaN.
        """
        bg = np.full(3, 0.05) if background is None else background
        scores_psnr, scores_ssim, scores_d = [], [], []
        with trace.span("slam.eval_quality", every=every):
            for i in range(0, self.num_frames, max(every, 1)):
                cam = Camera(sequence.intrinsics, self.est_trajectory[i])
                res = render_full(self.cloud, cam, bg, keep_cache=False,
                                  record_per_pixel=False)
                frame = sequence[i]
                scores_psnr.append(psnr(res.color, frame.color))
                scores_ssim.append(ssim(res.color, frame.color))
                scores_d.append(depth_l1(res.depth, frame.depth))
        if not scores_psnr:
            obs_metrics.warn(
                f"eval_quality: no frames sampled (num_frames="
                f"{self.num_frames}, every={every}); returning zero scores")
            return {"psnr": 0.0, "ssim": 0.0, "depth_l1": 0.0,
                    "frames_evaluated": 0}
        return {
            "psnr": float(np.mean(scores_psnr)),
            "ssim": float(np.mean(scores_ssim)),
            "depth_l1": float(np.mean(scores_d)),
            "frames_evaluated": len(scores_psnr),
        }


class SLAMSystem:
    """Orchestrates tracking, keyframing, and mapping over a sequence."""

    STAGES = ("tracking_fwd", "tracking_bwd", "mapping_fwd", "mapping_bwd")

    def __init__(
        self,
        algorithm="splatam",
        mode: str = "sparse",
        splatonic_config: Optional[SplatonicConfig] = None,
        seed: int = 0,
        background: Optional[np.ndarray] = None,
        bootstrap_stride: int = 2,
        kernel_backend: Optional[str] = None,
        record_per_pixel: Optional[bool] = None,
        kernel_workers: Optional[int] = None,
        render_cache: Optional[bool] = None,
    ):
        """``kernel_backend`` / ``record_per_pixel`` / ``kernel_workers``
        / ``render_cache`` override the matching :class:`SplatonicConfig`
        fields when given (``None`` keeps the config's value)."""
        self.algo: AlgorithmConfig = (
            algorithm if isinstance(algorithm, AlgorithmConfig)
            else get_algorithm(algorithm))
        if mode not in ("sparse", "dense"):
            raise ValueError("mode must be 'sparse' or 'dense'")
        self.mode = mode
        config = splatonic_config or SplatonicConfig()
        overrides = {}
        if kernel_backend is not None:
            overrides["kernel_backend"] = kernel_backend
        if record_per_pixel is not None:
            overrides["record_per_pixel"] = record_per_pixel
        if kernel_workers is not None:
            overrides["kernel_workers"] = kernel_workers
        if render_cache is not None:
            overrides["render_cache"] = render_cache
        if overrides:
            config = config.with_overrides(**overrides)
        self.splatonic = Splatonic(config, rng=np.random.default_rng(seed))
        self.background = (np.full(3, 0.05) if background is None
                           else np.asarray(background, float))
        self.bootstrap_stride = bootstrap_stride

    def run(self, sequence, n_frames: Optional[int] = None,
            flight: Optional["obs_flight.FlightRecorder"] = None,
            health: Optional[HealthMonitor] = None,
            atlas: Optional["obs_atlas.AtlasCollector"] = None,
            registry=None) -> SLAMResult:
        """Run SLAM over ``sequence`` and return the result bundle.

        ``flight`` overrides the process-wide flight recorder
        (:data:`repro.obs.flight.recorder`); when the effective recorder
        is enabled, one structured record per frame is emitted (see
        :mod:`repro.obs.flight` for the schema) and the health monitors
        watch the stream online.  Passing an explicit ``health`` monitor
        turns the stream watching on even without a recorder.  ``atlas``
        overrides the process-wide sparsity-atlas collector
        (:data:`repro.obs.atlas.atlas`); when the effective collector is
        enabled, every frame's spatial work grids plus per-stage counters
        and hardware-model projections are recorded.  With all three left
        at their disabled defaults every hook is a single branch — the
        run is bit-identical to an uninstrumented one.

        Live telemetry: when the process-wide telemetry bus
        (:data:`repro.obs.telemetry.bus`) is enabled and no flight
        recorder is, the run records into a throwaway in-memory recorder
        so per-frame records still reach the bus (the flight recorder is
        the one publisher of the run stream) — the HTTP exporter, stream
        exporter, and ``repro top`` all consume from there.

        Run registry: pass a :class:`repro.obs.runsdb.RunRegistry` as
        ``registry`` and the finished run is registered into it (flight
        stream as the artifact, headline metrics extracted, keyed by
        env fingerprint / git SHA / config hash / dataset); the
        assigned id lands in :attr:`SLAMResult.run_id`.  Like the other
        hooks, ``registry=None`` (the default) costs nothing — the one
        extra branch runs after the run, never per frame.
        """
        n = len(sequence) if n_frames is None else min(n_frames, len(sequence))
        if n < 2:
            raise ValueError("need at least two frames")
        intr = sequence.intrinsics

        recorder = flight if flight is not None else obs_flight.recorder
        monitor = health if health is not None else get_monitor()
        collector = atlas if atlas is not None else obs_atlas.atlas
        bus = obs_telemetry.bus
        if (bus.enabled or registry is not None) and not recorder.enabled:
            # Live-only / registry-only mode: keep the run stream in an
            # in-memory recorder without persisting a JSONL artifact —
            # the bus consumers and the registry ingest read from it.
            recorder = obs_flight.FlightRecorder()
            recorder.enable()
        watch = recorder.enabled or health is not None
        if collector.enabled:
            # Backend-independent metadata only: the artifact must stay
            # bit-identical across kernel backends.
            collector.begin_run(
                algorithm=self.algo.name, mode=self.mode,
                sequence=getattr(sequence, "name", None), frames=n,
                width=intr.width, height=intr.height,
                tracking_tile=self.splatonic.config.tracking_tile,
                mapping_tile=self.splatonic.config.mapping_tile)
        if watch:
            monitor.begin_run()
            alert_cursor = 0
            recorder.begin_run(
                algorithm=self.algo.name, mode=self.mode,
                sequence=getattr(sequence, "name", None), frames=n,
                width=intr.width, height=intr.height,
                config={
                    "tracking_tile": self.splatonic.config.tracking_tile,
                    "mapping_tile": self.splatonic.config.mapping_tile,
                    "tracking_strategy":
                        self.splatonic.config.tracking_strategy,
                    "map_every": self.algo.map_every,
                    "keyframe_every": self.algo.keyframe_every,
                    "keyframe_window": self.algo.keyframe_window,
                    # The *resolved* execution backend, so registry
                    # triage can attribute wall-time deltas to backend
                    # or worker-count changes.
                    "kernel_backend": self.resolved_kernel_backend(),
                    "kernel_workers": self.effective_kernel_workers(),
                    "render_cache": self.resolved_render_cache(),
                })

        tracker = Tracker(self.algo, intr, self.splatonic, self.mode,
                          self.background)
        mapper = Mapper(self.algo, intr, self.splatonic, self.mode,
                        self.background)
        keyframes = KeyframeBuffer(self.algo.keyframe_every,
                                   self.algo.keyframe_window)
        stage_stats = {s: PipelineStats() for s in self.STAGES}

        # ---- bootstrap on frame 0 (pose anchored to ground truth) ----
        run_span = trace.span("slam.run", algorithm=self.algo.name,
                              mode=self.mode, frames=n)
        # A custom monitor becomes the process default for the run's
        # duration so the tracker/mapper finite guards route into it;
        # likewise an explicit atlas collector becomes the one the render
        # pipelines observe into.
        with use_monitor(monitor if health is not None else None), \
                obs_atlas.use_collector(atlas), run_span:
            frame0 = sequence[0]
            pose0 = frame0.gt_pose_c2w.copy()
            frame_start = perf_counter()
            collector.begin_frame(0, intr.width, intr.height)
            with trace.span("slam.bootstrap"):
                cloud = self._bootstrap_cloud(intr, pose0, frame0)
                kf0 = Keyframe(0, pose0, frame0.color, frame0.depth)
                keyframes.maybe_add(0, pose0, frame0.color, frame0.depth)
                boot = mapper.map_frame(cloud, kf0, [kf0],
                                        collect_curve=recorder.enabled)
            cloud = boot.cloud
            stage_stats["mapping_fwd"].merge(boot.forward_stats)
            stage_stats["mapping_bwd"].merge(boot.backward_stats)
            collector.end_frame({
                "mapping": (boot.forward_stats, boot.backward_stats)})

            est_poses = [pose0]
            tracking_iterations: List[int] = []
            mapping_invocations = 1

            if watch:
                alert_cursor = self._observe_frame(
                    recorder, monitor, frame=0, pose_est=pose0,
                    pose_gt=frame0.gt_pose_c2w, tracking=None, mapping=boot,
                    mapping_window=1, cloud_size=len(cloud),
                    keyframe_added=True, keyframe_count=len(keyframes),
                    wall_time_s=perf_counter() - frame_start,
                    alert_cursor=alert_cursor)

            for i in range(1, n):
                frame = sequence[i]
                init = self._constant_velocity_init(est_poses)
                frame_start = perf_counter()
                collector.begin_frame(i, intr.width, intr.height)
                with trace.span("slam.track", frame=i) as sp:
                    tr = tracker.track_frame(cloud, init, frame.color,
                                             frame.depth,
                                             collect_curve=recorder.enabled)
                    sp.set(iterations=tr.iterations, converged=tr.converged)
                est_poses.append(tr.pose_c2w)
                tracking_iterations.append(tr.iterations)
                stage_stats["tracking_fwd"].merge(tr.forward_stats)
                stage_stats["tracking_bwd"].merge(tr.backward_stats)

                kf_added = keyframes.maybe_add(i, tr.pose_c2w, frame.color,
                                               frame.depth)

                mp = None
                window_size = 0
                if i % self.algo.map_every == 0:
                    current = Keyframe(i, tr.pose_c2w, frame.color,
                                       frame.depth)
                    if self.algo.keyframe_selection == "overlap":
                        window = keyframes.select_by_overlap(
                            current, intr, rng=self.splatonic.rng)
                    else:
                        window = keyframes.select(current)
                    window_size = len(window)
                    with trace.span("slam.map", frame=i,
                                    window=len(window)) as sp:
                        mp = mapper.map_frame(cloud, current, window,
                                              collect_curve=recorder.enabled)
                        sp.set(seeded=mp.num_seeded, pruned=mp.num_pruned)
                    cloud = mp.cloud
                    mapping_invocations += 1
                    stage_stats["mapping_fwd"].merge(mp.forward_stats)
                    stage_stats["mapping_bwd"].merge(mp.backward_stats)

                if collector.active:
                    frame_stats = {
                        "tracking": (tr.forward_stats, tr.backward_stats)}
                    if mp is not None:
                        frame_stats["mapping"] = (mp.forward_stats,
                                                  mp.backward_stats)
                    collector.end_frame(frame_stats)

                if watch:
                    alert_cursor = self._observe_frame(
                        recorder, monitor, frame=i, pose_est=tr.pose_c2w,
                        pose_gt=frame.gt_pose_c2w, tracking=tr, mapping=mp,
                        mapping_window=window_size, cloud_size=len(cloud),
                        keyframe_added=kf_added, keyframe_count=len(keyframes),
                        wall_time_s=perf_counter() - frame_start,
                        alert_cursor=alert_cursor)

        if watch and recorder.enabled:
            est = np.stack(est_poses)
            gt = sequence.gt_trajectory[:n]
            ate = ate_rmse(est, gt)
            recorder.emit({
                "type": "summary",
                "frames": n,
                "ate": {
                    "rmse": ate.rmse, "mean": ate.mean,
                    "median": ate.median, "max": ate.max,
                    "per_frame": obs_flight.aligned_frame_errors(est, gt),
                },
                "final_gaussians": len(cloud),
                "mapping_invocations": mapping_invocations,
                "tracking_iterations": int(sum(tracking_iterations)),
                "alerts": [a.as_dict() for a in monitor.alerts],
            })

        result = SLAMResult(
            algorithm=self.algo.name,
            mode=self.mode,
            est_trajectory=np.stack(est_poses),
            gt_trajectory=sequence.gt_trajectory[:n],
            cloud=cloud,
            stage_stats=stage_stats,
            tracking_iterations=tracking_iterations,
            mapping_invocations=mapping_invocations,
            num_frames=n,
        )
        if registry is not None:
            from ..obs import runsdb
            record = runsdb.ingest_slam_run(
                registry, recorder.records,
                config={
                    "algorithm": self.algo.name,
                    "mode": self.mode,
                    "tracking_tile": self.splatonic.config.tracking_tile,
                    "mapping_tile": self.splatonic.config.mapping_tile,
                    "tracking_strategy":
                        self.splatonic.config.tracking_strategy,
                    "kernel_backend":
                        self.splatonic.config.kernel_backend,
                    "kernel_workers":
                        self.splatonic.config.kernel_workers,
                    "map_every": self.algo.map_every,
                    "keyframe_every": self.algo.keyframe_every,
                    "keyframe_window": self.algo.keyframe_window,
                },
                sequence=getattr(sequence, "name", None))
            result.run_id = record["run_id"]
        return result

    # ---- helpers ----

    def resolved_kernel_backend(self) -> str:
        """The sparse-kernel backend this run actually executes with
        (config > ``$REPRO_KERNEL_BACKEND`` > registry default)."""
        from ..render.kernels import resolve_backend
        return resolve_backend(self.splatonic.config.kernel_backend)

    def resolved_render_cache(self) -> bool:
        """Whether this run renders through the temporal-coherence cache
        (config > ``$REPRO_RENDER_CACHE`` > off)."""
        return self.splatonic.render_cache_enabled()

    def effective_kernel_workers(self) -> int:
        """The worker-pool size this run actually renders with.

        1 for the single-core backends; for ``parallel`` the resolved
        pool size (config > ``$REPRO_KERNEL_WORKERS`` > CPU count).
        """
        if self.resolved_kernel_backend() != "parallel":
            return 1
        from ..render.kernels.parallel import resolve_workers
        return resolve_workers(self.splatonic.config.kernel_workers)

    @staticmethod
    def _observe_frame(recorder, monitor, *, frame, pose_est, pose_gt,
                       tracking, mapping, mapping_window, cloud_size,
                       keyframe_added, keyframe_count,
                       wall_time_s: Optional[float] = None,
                       alert_cursor: int = 0) -> int:
        """Assemble one flight record, run the health monitors over it,
        attach any alerts this frame produced (including the tracker/
        mapper finite-guard ones), and emit it.  Returns the new alert
        cursor into ``monitor.alerts``."""
        alpha_src = (tracking or mapping)
        candidate = contrib = 0
        if alpha_src is not None:
            candidate = int(alpha_src.forward_stats.num_candidate_pairs)
            contrib = int(alpha_src.forward_stats.num_contrib_pairs)
        counters = {}
        if tracking is not None:
            counters["tracking_fwd"] = tracking.forward_stats.headline()
            counters["tracking_bwd"] = tracking.backward_stats.headline()
        if mapping is not None:
            counters["mapping_fwd"] = mapping.forward_stats.headline()
            counters["mapping_bwd"] = mapping.backward_stats.headline()
        # Render-cache accounting (forward passes own the lookups).  Not
        # a diff channel: the cached/uncached equivalence differ must see
        # identical payloads everywhere else, while this block carries
        # the strategy-level hit/miss telemetry.
        cache = PipelineStats()
        for src in (tracking, mapping):
            if src is not None:
                stats = src.forward_stats
                cache.cache_hits += stats.cache_hits
                cache.cache_misses += stats.cache_misses
                cache.cache_rebuilds += stats.cache_rebuilds
                cache.cache_active_gaussians += stats.cache_active_gaussians
        cache_block = cache.cache_summary()

        record = {
            "type": "frame",
            "frame": int(frame),
            "pose_est": pose_est,
            "pose_gt": pose_gt,
            "pose_error_m": float(np.linalg.norm(
                np.asarray(pose_est)[:3, 3] - np.asarray(pose_gt)[:3, 3])),
            "tracking": None if tracking is None else {
                "iterations": int(tracking.iterations),
                "converged": bool(tracking.converged),
                "final_loss": float(tracking.final_loss),
                "sampled_pixels": int(tracking.num_sampled_pixels),
                "loss_curve": tracking.loss_curve,
            },
            "mapping": None if mapping is None else {
                "invoked": True,
                "num_seeded": int(mapping.num_seeded),
                "num_pruned": int(mapping.num_pruned),
                "final_loss": float(mapping.final_loss),
                "window": int(mapping_window),
                "sampling": mapping.sample_info or None,
                "loss_curve": mapping.loss_curve,
            },
            "gaussians": int(cloud_size),
            "keyframe": {"added": bool(keyframe_added),
                         "buffer_size": int(keyframe_count)},
            "alpha": {
                "candidate_pairs": candidate,
                "contrib_pairs": contrib,
                "rejection_rate": (1.0 - contrib / candidate
                                   if candidate else 0.0),
            },
            "cache": cache_block,
            "counters": counters,
            "wall_time_s": (None if wall_time_s is None
                            else float(wall_time_s)),
        }
        # Normalize before observing so the monitors see the same plain
        # values a reader of the JSONL stream would.
        record = obs_flight.to_plain(record)
        monitor.observe_frame(record)
        new_alerts = monitor.alerts[alert_cursor:]
        if new_alerts:
            record["alerts"] = [a.as_dict() for a in new_alerts]
        recorder.emit(record)
        if obs_telemetry.bus.enabled:
            obs_metrics.set_gauge("slam.frame", float(frame))
            obs_metrics.set_gauge("slam.gaussians", float(cloud_size))
            obs_metrics.set_gauge(
                "slam.pose_error_m", float(record["pose_error_m"]))
            obs_metrics.set_gauge(
                "slam.cache_hit_rate", float(cache_block["hit_rate"]))
            obs_metrics.publish_snapshot()
        return len(monitor.alerts)

    def _bootstrap_cloud(self, intr, pose0, frame0) -> GaussianCloud:
        """Seed the initial map from a regular grid over frame 0."""
        stride = self.bootstrap_stride
        us = np.arange(0, intr.width, stride)
        vs = np.arange(0, intr.height, stride)
        uu, vv = np.meshgrid(us, vs)
        pixels = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        camera = Camera(intr, pose0)
        return seed_from_rgbd(camera, frame0.color, frame0.depth, pixels,
                              initial_opacity=self.algo.densify_opacity,
                              scale_factor=1.3 * stride)

    @staticmethod
    def _constant_velocity_init(est_poses: List[np.ndarray]) -> np.ndarray:
        """Extrapolate the next pose from the last two estimates."""
        if len(est_poses) < 2:
            return est_poses[-1].copy()
        prev, last = est_poses[-2], est_poses[-1]
        delta = se3_inverse(prev) @ last
        return last @ delta
