"""Parallel experiment execution.

The paper averages every linear-topology figure over twenty independent
runs and every random-topology figure over ten; replicating those runs
serially uses one core no matter the machine.  This module fans the
replications out over a worker pool while keeping every result
bit-identical to a serial run:

* :class:`ScenarioRecord` — a picklable snapshot of a finished run
  (metrics plus a configuration echo, **no** live simulator state).
  :class:`~repro.experiments.scenarios.ScenarioResult` holds the whole
  :class:`~repro.sim.network.Network` and cannot cross a process
  boundary; workers therefore reduce each result to a record before
  returning it.  Records expose the same ``.metrics`` attribute as
  results, so :func:`~repro.experiments.runner.summarize`,
  :func:`~repro.experiments.runner.metric_values` and
  :func:`~repro.experiments.runner.average_metrics` accept either.
* :class:`ScenarioSpec` — a picklable ``builder(seed)`` callable naming
  one of the scenario families ("linear", "random", "mobile",
  "testbed") plus its keyword arguments.  Specs are the unit of work
  for grid sweeps and the recommended builder for parallel runs.
* :func:`run_grids` — the one execution entry point.  It runs one or
  more ``(specs, seeds)`` grids on a pluggable
  :class:`~repro.experiments.backends.ExecutorBackend`: ``workers=0``
  or ``1`` select the in-process
  :class:`~repro.experiments.backends.SerialBackend` (no pool);
  ``workers=N`` (default ``os.cpu_count()``, or the
  ``REPRO_ASYNC_ENDPOINT`` agents when that is set) selects the
  **cached, persistent** :class:`~repro.experiments.backends.AsyncBackend`
  for that worker count, so consecutive figure calls reuse one pool;
  and ``backend=`` accepts any backend instance (a private pool, or one
  over remote TCP worker agents) outright.  Several figures' grids go
  down as one interleaved task stream (no pool drain between figures)
  through the backend's streaming
  :meth:`~repro.experiments.backends.ExecutorBackend.imap` and come
  back demultiplexed per grid.  Because every scenario is fully
  determined by its seed and results are collected in submission
  order, the output is bit-identical for every backend, worker count
  and grid batching.  Per-cell ``progress`` (what
  :func:`~repro.experiments.presets.run_paper` surfaces as per-figure
  percentages) and the ``reuse``/``on_result`` resume hooks ride the
  same stream.
* :func:`spawn_seeds` — deterministic per-replicate seed derivation via
  :meth:`~repro.sim.random.RandomStreams.spawn`, so "give me ten
  replications of base seed 7" names the same ten seeds everywhere.

Pickling contract: a :class:`ScenarioRecord` (and therefore everything
workers send back) must survive ``pickle.dumps`` — plain dataclasses,
enums, numbers, strings and containers thereof only.  Builders must
be picklable too (a :class:`ScenarioSpec` or a module-level function),
which is what lets a persistent pool outlive any single call.  With
``workers > 1`` an unpicklable builder — a lambda or a closure — is
rejected with :class:`TypeError` before any cell runs, on every
platform; ``workers=0``/``1`` run in-process and accept any callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, cast

from repro.experiments.backends import ExecutorBackend, resolve_backend
from repro.experiments.metrics import ScenarioMetrics
from repro.experiments.scenarios import (
    ScenarioResult,
    linear_scenario,
    mobile_scenario,
    random_scenario,
    testbed_scenario,
)
from repro.sim.random import RandomStreams

#: Scenario families a :class:`ScenarioSpec` may name.
SCENARIO_BUILDERS: Dict[str, Callable[..., ScenarioResult]] = {
    "linear": linear_scenario,
    "random": random_scenario,
    "mobile": mobile_scenario,
    "testbed": testbed_scenario,
}

@dataclass(frozen=True)
class ScenarioRecord:
    """A picklable summary of one finished scenario run.

    Unlike :class:`~repro.experiments.scenarios.ScenarioResult` it keeps
    no simulator state — only the extracted metrics and an echo of what
    was run — so it can be returned from a worker process and stored or
    serialised cheaply.
    """

    seed: int
    scenario: str
    params: Dict[str, object]
    duration: float
    metrics: ScenarioMetrics

    @classmethod
    def from_result(
        cls,
        result: ScenarioResult,
        seed: int,
        scenario: str = "",
        params: Optional[Mapping[str, object]] = None,
    ) -> "ScenarioRecord":
        """Reduce a live result to its picklable record."""
        return cls(
            seed=int(seed),
            scenario=scenario,
            params=dict(params or {}),
            duration=result.duration,
            metrics=result.metrics,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable ``builder(seed)``: scenario family plus parameters.

    ``ScenarioSpec("linear", {"num_nodes": 5, "protocol": "jtp"})(seed)``
    is equivalent to ``linear_scenario(num_nodes=5, protocol="jtp",
    seed=seed)``.  Because the spec carries only plain data it can be
    shipped to worker processes, unlike a lambda closing over local
    state.
    """

    scenario: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_BUILDERS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: {sorted(SCENARIO_BUILDERS)}"
            )
        if "seed" in self.params:
            raise ValueError("the seed is supplied per replication, not in the spec")
        # Detach from the caller's dict so later mutation of it cannot
        # bypass the validation above or silently change the spec.
        object.__setattr__(self, "params", dict(self.params))

    def build(self, seed: int) -> ScenarioResult:
        """Run the scenario once with the given seed."""
        return SCENARIO_BUILDERS[self.scenario](seed=seed, **self.params)

    __call__ = build


def spawn_seeds(base_seed: int, count: int) -> List[int]:
    """Derive ``count`` deterministic replicate seeds from ``base_seed``.

    Uses :meth:`RandomStreams.spawn` so the derivation matches the
    stream-spawning used elsewhere: replicate ``i`` of base seed ``s``
    always names the same seed, independent of worker count or machine.
    """
    if count < 1:
        raise ValueError("at least one replicate seed is required")
    root = RandomStreams(base_seed)
    return [root.spawn(index + 1).seed for index in range(count)]


def _record_label(builder: Callable[[int], ScenarioResult]) -> Tuple[str, Dict[str, object]]:
    if isinstance(builder, ScenarioSpec):
        return builder.scenario, dict(builder.params)
    return getattr(builder, "__name__", type(builder).__name__), {}


def _run_task(task: Tuple[Callable[[int], ScenarioResult], int]) -> ScenarioRecord:
    builder, seed = task
    scenario, params = _record_label(builder)
    return ScenarioRecord.from_result(builder(seed), seed, scenario, params)


def run_grids(
    grids: Sequence[Tuple[Sequence[Callable[[int], ScenarioResult]], Sequence[int]]],
    *,
    workers: Optional[int] = None,
    backend: Optional[ExecutorBackend] = None,
    progress: Optional[Callable[[int, int, int], None]] = None,
    reuse: Optional[
        Callable[[int, Callable[[int], ScenarioResult], int], Optional[ScenarioRecord]]
    ] = None,
    on_result: Optional[
        Callable[[int, Callable[[int], ScenarioResult], int, ScenarioRecord], None]
    ] = None,
) -> List[List[List[ScenarioRecord]]]:
    """Run several grids as **one** batched submission to one backend.

    ``grids`` is a sequence of ``(specs, seeds)`` pairs — typically one
    per figure.  ``workers``/``backend`` pick the executor through
    :func:`~repro.experiments.backends.resolve_backend` (pass at most
    one): ``0`` or ``1`` run serially in-process and accept any
    callable, ``N`` the cached local pool, and unset the
    ``REPRO_ASYNC_ENDPOINT`` agents when that is set, else a local pool
    of ``os.cpu_count()`` workers.
    Instead of draining the pool once per grid (which left workers idle
    at every figure boundary), all grids' ``spec × seed`` tasks are
    interleaved round-robin across the grids and submitted as a single
    task stream, so short cells from one figure fill workers while
    another figure's long cells are still running.  The results are
    demultiplexed back per grid: element ``g`` of the return value holds
    one list of per-seed records per spec of grid ``g``, in seed order —
    exactly what ``run_grids([grids[g]])[0]`` returns, bit-identical,
    because every task is fully determined by its ``(spec, seed)`` pair
    and records are matched back to their submission slot, never to a
    worker or a completion order.

    ``progress``, if given, is called as ``progress(grid_index,
    completed, total)`` once per finished cell, where ``completed``
    counts that grid's finished cells and ``total`` is the grid's cell
    count.  Events arrive in *submission* order (the round-robin
    interleave), streamed through the backend's
    :meth:`~repro.experiments.backends.ExecutorBackend.imap` — a worker
    that races ahead is reported only when its submission slot is
    reached, which keeps the event sequence deterministic.  The callback
    runs on the caller's thread; an exception it raises aborts the run.
    It never changes the records.

    ``reuse`` and ``on_result`` are the incremental re-run hooks (what
    :func:`~repro.experiments.presets.run_paper` wires to its per-cell
    :class:`~repro.experiments.results.CellStore`).  ``reuse(grid_index,
    spec, seed)`` is consulted once per cell before submission; a
    non-``None`` record fills the cell's slot without the backend ever
    seeing it.  Reused cells are counted (and reported to ``progress``)
    first, in submission order, then the remaining fresh cells stream as
    usual — so a resumed run's event sequence is the cached burst
    followed by live completions.  ``on_result(grid_index, spec, seed,
    record)`` is called for each **fresh** record, in submission order
    as it arrives (before the ``progress`` event for that cell), which
    is what lets a caller persist cells incrementally: every cell
    reported complete is already on disk.  Neither hook changes the
    returned records — reuse callers are responsible for returning
    records equal to what the cell would compute.
    """
    resolved = resolve_backend(workers=workers, backend=backend)
    grids = [(list(specs), list(seeds)) for specs, seeds in grids]
    per_grid_tasks: List[List[Tuple[Callable[[int], ScenarioResult], int]]] = []
    for specs, seeds in grids:
        if not seeds:
            raise ValueError("at least one seed is required")
        per_grid_tasks.append([(spec, seed) for spec in specs for seed in seeds])
    # Round-robin interleave: task k of every grid, then task k+1 of
    # every grid, and so on.  ``order`` remembers each submission slot's
    # home (grid, task index) so the demux below is exact.
    order: List[Tuple[int, int]] = []
    longest = max((len(tasks) for tasks in per_grid_tasks), default=0)
    for task_index in range(longest):
        for grid_index, tasks in enumerate(per_grid_tasks):
            if task_index < len(tasks):
                order.append((grid_index, task_index))
    demuxed: List[List[Optional[ScenarioRecord]]] = [[None] * len(t) for t in per_grid_tasks]
    completed = [0] * len(per_grid_tasks)

    def finish(grid_index: int, task_index: int, record: ScenarioRecord) -> None:
        demuxed[grid_index][task_index] = record
        completed[grid_index] += 1
        if progress is not None:
            progress(grid_index, completed[grid_index], len(per_grid_tasks[grid_index]))

    # Reused cells first: fill their slots (and report them) in
    # submission order, without ever submitting them.
    fresh: List[Tuple[int, int]] = []
    for grid_index, task_index in order:
        builder, seed = per_grid_tasks[grid_index][task_index]
        cached = None if reuse is None else reuse(grid_index, builder, seed)
        if cached is None:
            fresh.append((grid_index, task_index))
        else:
            finish(grid_index, task_index, cached)
    fresh_tasks = [per_grid_tasks[g][i] for g, i in fresh]
    for (grid_index, task_index), record in zip(
        fresh, resolved.imap(_run_task, fresh_tasks), strict=True
    ):
        if on_result is not None:
            builder, seed = per_grid_tasks[grid_index][task_index]
            on_result(grid_index, builder, seed, record)
        finish(grid_index, task_index, record)
    grouped: List[List[List[ScenarioRecord]]] = []
    for (specs, seeds), flat in zip(grids, demuxed, strict=True):
        per_spec = len(seeds)
        # Every slot was filled above, so the Optional placeholder type
        # can be discharged wholesale.
        filled = cast(List[ScenarioRecord], flat)
        grouped.append([filled[i * per_spec:(i + 1) * per_spec] for i in range(len(specs))])
    return grouped
