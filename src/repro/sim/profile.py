"""Lightweight simulation-core profiling.

Answers the three questions that matter for the events/sec trajectory:

* **how fast is the engine** — events processed per wall-clock second,
  aggregated across every :meth:`~repro.sim.engine.Simulator.run` call
  made while profiling is active;
* **where does the time go** — per-callback-class wall-clock
  attribution (keyed by the callback's qualified name, so all
  ``TdmaMac._attempt`` invocations across nodes pool into one row);
* **how big does the heap get** — the event-queue high-water mark and
  the number of lazy-cancel compactions, the memory side of the story.

Profiling is process-global and opt-in: :func:`enable` (or the
:func:`profiled` context manager) installs a :class:`CoreProfiler` into
the engine's hook, and every simulator created *or already running in
this process* reports into it.  The unprofiled run loop checks the hook
once per ``run()`` call, so leaving profiling off costs nothing per
event.  The instrumented loop wraps each callback with two
``perf_counter`` reads — expect roughly 2x wall-clock while active, on
unchanged simulation behaviour (profiling never touches RNG streams or
event order).

Two consumers are wired in:

* ``run_paper(profile=True)`` (or ``REPRO_PROFILE=1``) records the
  aggregated report in the run directory's manifest under
  ``core_profile`` — see ``docs/performance.md``;
* the benchmark drivers enable it under ``REPRO_PROFILE=1`` and print
  the uniform events/sec line via the bench conftest helper.

Note that worker *processes* of the pooled backend do not report into
the parent's profiler; profile with the serial backend (``workers=0``)
for complete attribution.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim import engine as _engine

__all__ = [
    "CoreProfiler",
    "active",
    "disable",
    "enable",
    "profile_from_env",
    "profiled",
]


def callback_label(callback: Callable[..., Any]) -> str:
    """A stable, class-qualified label for a callback.

    Bound methods label as ``Class.method`` (``__qualname__``); bare
    functions as their qualified name; callables without one (partials,
    callable instances) as their type name.
    """
    label = getattr(callback, "__qualname__", None)
    if label is None:
        label = type(callback).__name__
    return label


class CoreProfiler:
    """Accumulates engine statistics across simulator runs.

    Attributes are plain counters so the instrumented loop can update
    them without function-call overhead; :meth:`report` condenses them
    into a JSON-serialisable dict.
    """

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0
        self.runs = 0
        self.heap_high_water = 0
        self.compactions = 0
        # label -> [count, total_seconds]
        self._by_callback: Dict[str, List[float]] = {}

    # -- recording hooks called by the instrumented run loop ----------------------

    def record_callback(self, callback: Callable[..., Any], elapsed: float) -> None:
        """Attribute ``elapsed`` seconds to ``callback``'s label."""
        label = callback_label(callback)
        entry = self._by_callback.get(label)
        if entry is None:
            self._by_callback[label] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def record_run(self, events: int, wall_s: float, compactions: int) -> None:
        """Fold one finished ``Simulator.run`` call into the totals.

        ``compactions`` is the number of heap compactions *during this
        run* (the engine passes the delta), summed across every profiled
        run and simulator.
        """
        self.events += events
        self.wall_s += wall_s
        self.runs += 1
        self.compactions += compactions

    # -- reporting ----------------------------------------------------------------

    @property
    def events_per_sec(self) -> float:
        """Aggregate engine throughput while profiled (0 if nothing ran)."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def by_callback(self) -> List[Dict[str, Any]]:
        """Per-callback rows, most expensive first."""
        total = sum(entry[1] for entry in self._by_callback.values()) or 1.0
        rows = [
            {
                "callback": label,
                "count": int(entry[0]),
                "total_s": round(entry[1], 6),
                "fraction": round(entry[1] / total, 4),
            }
            for label, entry in self._by_callback.items()
        ]
        rows.sort(key=lambda row: (-row["total_s"], row["callback"]))
        return rows

    def report(self, top: Optional[int] = None) -> Dict[str, Any]:
        """The full JSON-serialisable profile (optionally top-N callbacks)."""
        rows = self.by_callback()
        if top is not None:
            rows = rows[:top]
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "runs": self.runs,
            "heap_high_water": self.heap_high_water,
            "heap_compactions": self.compactions,
            "by_callback": rows,
        }

    def summary(self) -> str:
        """One grep-able line for logs and stderr."""
        return (
            f"core profile: {self.events:,} events in {self.wall_s:.3f} s "
            f"-> {self.events_per_sec:,.0f} events/s "
            f"(heap high-water {self.heap_high_water}, "
            f"{self.compactions} compactions)"
        )


def enable(profiler: Optional[CoreProfiler] = None) -> CoreProfiler:
    """Install ``profiler`` (or a fresh one) as the process-wide profiler.

    Every subsequent ``Simulator.run`` call in this process reports into
    it until :func:`disable`.  Returns the installed profiler.
    """
    if profiler is None:
        profiler = CoreProfiler()
    _engine._ACTIVE_PROFILER = profiler
    return profiler


def disable() -> None:
    """Stop profiling (no-op when not profiling)."""
    _engine._ACTIVE_PROFILER = None


def active() -> Optional[CoreProfiler]:
    """The currently installed profiler, or ``None``."""
    return _engine._ACTIVE_PROFILER


@contextmanager
def profiled(profiler: Optional[CoreProfiler] = None) -> Iterator[CoreProfiler]:
    """Context manager: profile everything run inside the block.

    Restores the previously active profiler (if any) on exit, so blocks
    can nest without clobbering an outer profile.
    """
    previous = _engine._ACTIVE_PROFILER
    installed = enable(profiler)
    try:
        yield installed
    finally:
        _engine._ACTIVE_PROFILER = previous


def profile_from_env(default: bool = False) -> bool:
    """Whether ``REPRO_PROFILE`` asks for profiling (empty/unset = default)."""
    value = os.environ.get("REPRO_PROFILE", "").strip()
    if not value:
        return default
    return value not in ("0", "false", "no")
