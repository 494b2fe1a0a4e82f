"""Sparse-rendering kernel backends (pixel pipeline, Sec. IV-B/V).

The pixel pipeline's forward/backward passes are implemented by swappable
*kernel backends* behind a tiny registry:

- ``"reference"``  — the original per-pixel Python loop.  One
  :func:`composite_forward` / :func:`composite_backward` call per sampled
  pixel; slow, but trivially auditable.  This is the oracle.
- ``"vectorized"`` — the flat composite core (:mod:`repro.render.flat`,
  shared with the dense tile path) over a flattened CSR-style
  (pixel, Gaussian) pair list: one global sort replaces the per-pixel
  depth sorts, every pixel's transmittance prefix comes from one
  list-major scan, and the backward pass produces all pair gradients in
  one shot before a single ``np.add.at`` aggregation (the
  scoreboard/merge-unit analogue).  Bit-identical to the reference —
  outputs, gradients, and every ``PipelineStats`` counter.
- ``"parallel"``   — the vectorized kernels run per contiguous pixel
  shard on a persistent worker (thread) pool, standing in for the
  accelerator's parallel rasterization engines.  Workers return per-pair
  gradient partials; the parent applies one global pixel-major
  ``np.add.at`` over the concatenated shards (a software aggregation
  scoreboard), so no float reassociation ever occurs and the backend
  stays bit-identical to ``vectorized`` at every worker count.  Worker
  count: ``workers=`` argument > ``REPRO_KERNEL_WORKERS`` > CPU count.

Backend resolution order: explicit ``backend=`` argument, then the
``REPRO_KERNEL_BACKEND`` environment variable, then :data:`DEFAULT_BACKEND`.

All backends consume the same candidate pair list
(:mod:`repro.render.kernels.candidates`) and the same preemptive-α filter
run by :func:`repro.core.pixel_pipeline.render_sparse`, so candidate /
α-check / sort-key counters are shared by construction; the equivalence
suite (``tests/test_kernel_backends.py``) pins down the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "available_backends",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
]

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "reference"


@dataclass(frozen=True)
class KernelBackend:
    """One registered sparse-kernel implementation."""

    name: str
    description: str
    forward: Callable
    backward: Callable
    # Whether forward() requires the candidate pairs in pixel-major CSR
    # order.  A backend that globally re-sorts the pairs itself (the
    # vectorized lexsort) sets this False and skips the reorder pass.
    needs_pixel_major_pairs: bool = True
    # Whether forward() consumes the flat per-pair α / clipped arrays the
    # pipeline's α stage computed (so the kernel need not re-evaluate the
    # Gaussian falloff).  The reference loop recomputes inside
    # composite_forward — that's the point of an oracle.
    wants_pair_alpha: bool = False
    # Whether forward() accepts a ``workers=`` keyword (the parallel
    # backend).  The pipeline only threads ``kernel_workers`` through to
    # backends that declare it, so single-core backends keep their exact
    # signatures.
    accepts_workers: bool = False


_REGISTRY: Dict[str, KernelBackend] = {}


def register_kernel(backend: KernelBackend) -> KernelBackend:
    """Register (or replace) a kernel backend under ``backend.name``."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name=None) -> str:
    """Resolve a backend name: explicit arg > ``$REPRO_KERNEL_BACKEND`` > default."""
    resolved = name or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if resolved not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {resolved!r}; "
            f"available: {', '.join(available_backends())}")
    return resolved


def get_kernel(name=None) -> KernelBackend:
    """Return the :class:`KernelBackend` for ``name`` (after resolution)."""
    return _REGISTRY[resolve_backend(name)]


# Importing the implementations registers them.
from . import reference as _reference  # noqa: E402,F401
from . import vectorized as _vectorized  # noqa: E402,F401
from . import parallel as _parallel  # noqa: E402,F401
