"""Layer timing from outside the program.

A :class:`LayerTimer` replaces public functions and methods of the
program by timed wrappers, under the name their callers look up (for
example ``repro.slam.tracker.backward_full`` rather than the defining
module's ``repro.render.backward.backward_full``), and restores the
originals afterwards.  The wrappers keep one call stack, so every call's
duration splits into the time of its timed children and its own *self*
time.  Self times of all layers plus the ``unattributed`` residual add up
to the wall time of the traced region.

Only the standard library is used here, so the module can be tested
without the program.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["LayerTimer", "resolve"]


def resolve(target: str):
    """Split a dotted ``module.attr[.attr...]`` name into (owner, attr).

    The longest importable prefix is the module; the remaining names are
    looked up with ``getattr`` (so ``pkg.mod.Class.method`` resolves to
    ``(Class, "method")``).
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"{target}: no attribute {parts[-1]!r}")
        return owner, parts[-1]
    raise ImportError(f"{target}: no importable module prefix")


class LayerTimer:
    """Self/total time, call counts and counters per layer.

    ``clock`` is injectable so tests can drive the timer with a fake
    clock.  A layer that was never called has no entry at all: reports
    omit it instead of showing ``0.0``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        # One entry per active timed call: [layer, time of timed children].
        self._stack: List[list] = []
        self._active: Counter = Counter()
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.target_calls: Counter = Counter()
        self._undo: List[Callable[[], None]] = []

    # ---- wrapping ----

    def wrap(self, fn: Callable, layer: str, target: Optional[str] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """Return ``fn`` timed as ``layer``.

        ``on_result(timer, result, args, kwargs)`` runs after a call
        returns, outside the timed interval, to add counters.
        """
        timer = self
        key = target or layer

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            entry = [layer, 0.0]
            timer._stack.append(entry)
            timer._active[layer] += 1
            start = timer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = timer._clock() - start
                timer._stack.pop()
                timer._active[layer] -= 1
                timer.calls[layer] += 1
                timer.target_calls[key] += 1
                # A layer re-entered through itself counts its outermost
                # call only, so total time is never counted twice.
                if not timer._active[layer]:
                    timer.total[layer] += elapsed
                timer.self_time[layer] += elapsed - entry[1]
                if timer._stack:
                    timer._stack[-1][1] += elapsed
            if on_result is not None:
                on_result(timer, result, args, kwargs)
            return result

        return timed

    def patch(self, target: str, layer: str,
              on_result: Optional[Callable] = None) -> None:
        """Replace ``target`` (a dotted name) by its timed wrapper."""
        owner, name = resolve(target)
        raw = (owner.__dict__[name]
               if isinstance(owner, type) and name in owner.__dict__
               else getattr(owner, name))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, layer, target,
                                          on_result))
        else:
            wrapped = self.wrap(raw, layer, target, on_result)
        setattr(owner, name, wrapped)
        self._undo.append(lambda: setattr(owner, name, raw))

    def patch_record(self, register: Callable, record, fields: Dict[str, str],
                     target: str) -> None:
        """Time callable fields of a frozen dataclass record.

        ``register(record)`` installs a record where its callers find
        it (a registry); the timed copy is registered now and the
        original again on :meth:`restore`.  ``fields`` maps each field
        name to its layer.
        """
        timed = dataclasses.replace(record, **{
            f: self.wrap(getattr(record, f), layer, f"{target}.{f}")
            for f, layer in fields.items()})
        register(timed)
        self._undo.append(lambda: register(record))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTimer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- queries ----

    def active(self, layer: str) -> bool:
        """Whether a call of ``layer`` is on the stack right now."""
        return self._active[layer] > 0

    def ledger(self, wall: float) -> Dict[str, float]:
        """Self-time share of ``wall`` per called layer, plus
        ``unattributed``; the values sum to 1."""
        shares = {layer: self.self_time[layer] / wall
                  for layer in sorted(self.calls) if self.calls[layer]}
        shares["unattributed"] = 1.0 - sum(shares.values())
        return shares
