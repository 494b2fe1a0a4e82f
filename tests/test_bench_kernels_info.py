"""The ``kernels`` bench scenario reports only what it measured.

Its stage fractions come from tracer span self-times, which exist only
inside a tracer capture (the suite runner's).  Run on its own, the
scenario must omit them rather than report a silent ``0.0``.
"""

from repro.obs.bench import SCENARIOS, SuiteConfig, _run_scenario
from repro.obs.tracing import trace


def _kernels_info(captured: bool):
    cfg = SuiteConfig(size="tiny", repetitions=1)
    if captured:
        return _run_scenario(SCENARIOS["kernels"], cfg)["info"]
    was = trace.enabled
    trace.disable()
    try:
        return SCENARIOS["kernels"].run(cfg)["info"]
    finally:
        if was:
            trace.enable(reset=False)


def test_outside_capture_omits_unmeasured_keys():
    info = _kernels_info(captured=False)
    assert not [k for k in info if k.startswith("candidate_stage_fraction.")]
    for key in ("speedup.vectorized_over_reference",
                "speedup.parallel_over_vectorized"):
        assert info[key] > 0.0
    assert all(value != 0.0 for value in info.values())


def test_inside_capture_reports_stage_fractions():
    info = _kernels_info(captured=True)
    for backend in ("reference", "vectorized", "parallel"):
        assert 0.0 < info[f"candidate_stage_fraction.{backend}"] < 1.0
