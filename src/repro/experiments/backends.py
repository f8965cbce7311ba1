"""Pluggable executor backends for the experiment harness.

A full-paper reproduction is a long sequence of figure calls, each of
which fans replicated simulation runs out over workers.  Historically
every call built (and tore down) its own process pool, so a multi-figure
run paid fork/teardown cost once per figure.  This module turns the
execution strategy into a first-class object:

* :class:`ExecutorBackend` — the abstract strategy.  A backend maps a
  picklable function over a list of items, **in order**, and owns
  whatever worker resources that takes.  :meth:`ExecutorBackend.map`
  returns the whole batch; :meth:`ExecutorBackend.imap` streams the
  same results incrementally (still in item order) for progress
  reporting.  Backends are context managers and are safe to close more
  than once; a closed backend restarts lazily on its next use.
* :class:`SerialBackend` — runs everything in the calling process, no
  pool at all.  Byte-for-byte the historical ``workers=1`` semantics
  that the reproducibility tests pin.
* :class:`AsyncBackend` — the one worker pool: a dispatch thread over
  persistent worker processes (:mod:`repro.experiments.scheduler`).
  The pool starts lazily and is reused across figure calls (the same
  worker PIDs serve every call).  Cells are sharded across workers
  behind a bounded in-flight window (backpressure against a slow
  consumer), stragglers are work-stolen by idle workers, and crashed /
  raising / hung cells are retried with capped exponential backoff
  before the batch fails loudly with
  :class:`~repro.experiments.scheduler.AsyncCellError`.  Same ordered
  ``map``/``imap`` contract, same bit-identical aggregates, for every
  worker count.  See ``docs/distributed.md`` for the architecture and
  every knob.

Module helpers:

* :func:`shared_backend` — the per-process registry of shared local
  :class:`AsyncBackend` pools, keyed by worker count.  This is what
  makes "one pool for the whole paper run" the default: every figure
  call that asks for the same worker count gets the same pool.
* :func:`resolve_backend` — the single place that turns a
  ``workers=``/``backend=`` pair into a backend instance.  ``workers``
  of ``0`` or ``1`` mean :class:`SerialBackend`; anything else is a
  shared local :class:`AsyncBackend`.
* :func:`workers_from_env` — ``REPRO_WORKERS`` plumbing shared by the
  benchmark harness and the examples (``0`` means the serial backend).
* :func:`async_workers_from_env` / :func:`async_retries_from_env` /
  :func:`async_timeout_from_env` — the :class:`AsyncBackend` env seams
  (``REPRO_ASYNC_WORKERS``, ``REPRO_ASYNC_RETRIES``,
  ``REPRO_ASYNC_TIMEOUT``), applied when the corresponding constructor
  argument is left unset.

Every backend must preserve the harness invariant: because each
simulation run is fully determined by its seed and results come back in
submission order, **aggregates are bit-identical no matter which backend
ran them**.  ``tests/test_backends.py`` pins that cross-backend.

That same contract is what makes batched multi-figure submission safe:
:meth:`~repro.experiments.parallel.ParallelRunner.run_grids` interleaves
several figures' cells into one :meth:`ExecutorBackend.map` call and
demultiplexes the ordered results back per figure, so a full-paper run
is a single drain of a single pool regardless of backend.
"""

from __future__ import annotations

import os
import pickle
import threading
from abc import ABC, abstractmethod
from types import TracebackType
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.experiments.remote import parse_endpoint
from repro.experiments.scheduler import AsyncCellError, AsyncScheduler

_T = TypeVar("_T")

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "AsyncBackend",
    "AsyncCellError",
    "BACKENDS",
    "make_backend",
    "resolve_backend",
    "shared_backend",
    "close_shared_backends",
    "workers_from_env",
    "async_workers_from_env",
    "async_retries_from_env",
    "async_timeout_from_env",
    "async_endpoint_from_env",
]


def workers_from_env(default: Optional[int] = None) -> Optional[int]:
    """Worker count requested via the ``REPRO_WORKERS`` environment variable.

    Unset (or empty) returns ``default``.  ``0`` consistently means "use
    the serial backend" everywhere the variable is honoured —
    :func:`resolve_backend` maps both ``0`` and ``1`` to
    :class:`SerialBackend`.
    """
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if not value:
        return default
    workers = int(value)
    if workers < 0:
        raise ValueError(f"REPRO_WORKERS must be >= 0, got {workers}")
    return workers


def async_workers_from_env(default: Optional[int] = None) -> Optional[int]:
    """Worker-process count for :class:`AsyncBackend` via ``REPRO_ASYNC_WORKERS``.

    Unset (or empty) returns ``default``.  Unlike ``REPRO_WORKERS``
    there is no serial-fallback zero: the async backend always runs its
    scheduler, so the value must be >= 1.
    """
    value = os.environ.get("REPRO_ASYNC_WORKERS", "").strip()
    if not value:
        return default
    workers = int(value)
    if workers < 1:
        raise ValueError(f"REPRO_ASYNC_WORKERS must be >= 1, got {workers}")
    return workers


def async_retries_from_env(default: int = 2) -> int:
    """Retry budget for :class:`AsyncBackend` cells via ``REPRO_ASYNC_RETRIES``.

    The number of *additional* attempts a failed cell gets (crash,
    exception or timeout) before the batch fails with
    :class:`~repro.experiments.scheduler.AsyncCellError`.  ``0``
    disables retries; unset (or empty) returns ``default``.
    """
    value = os.environ.get("REPRO_ASYNC_RETRIES", "").strip()
    if not value:
        return default
    retries = int(value)
    if retries < 0:
        raise ValueError(f"REPRO_ASYNC_RETRIES must be >= 0, got {retries}")
    return retries


def async_timeout_from_env(default: Optional[float] = None) -> Optional[float]:
    """Per-cell timeout (seconds) for :class:`AsyncBackend` via ``REPRO_ASYNC_TIMEOUT``.

    A cell running longer than this is killed (its worker is respawned)
    and retried.  ``0`` (or a negative value) disables the timeout;
    unset (or empty) returns ``default``.
    """
    value = os.environ.get("REPRO_ASYNC_TIMEOUT", "").strip()
    if not value:
        return default
    timeout = float(value)
    if timeout <= 0:
        return None
    return timeout


def async_endpoint_from_env(default: Optional[str] = None) -> Optional[str]:
    """Remote worker endpoint for :class:`AsyncBackend` via ``REPRO_ASYNC_ENDPOINT``.

    A ``tcp://host:port[,host2:port2,...]`` list naming the worker
    agents the scheduler should connect to instead of spawning local
    worker processes (start each agent with ``python -m
    repro.experiments.remote --listen host:port``).  Unset (or empty)
    returns ``default``.  The value's syntax is validated when the
    backend is built, by :func:`repro.experiments.remote.parse_endpoint`.
    """
    value = os.environ.get("REPRO_ASYNC_ENDPOINT", "").strip()
    if not value:
        return default
    return value


class ExecutorBackend(ABC):
    """Execution strategy: map a function over items, preserving order.

    Subclasses own their worker resources.  The contract every backend
    must honour:

    * :meth:`map` returns one result per item, **in item order** — that
      ordering (plus seed-determinism of the simulations) is what makes
      aggregates bit-identical across backends.
    * :meth:`close` is idempotent, and a closed backend may be used
      again: resources restart lazily on the next :meth:`map`.
    * Backends are context managers; leaving the ``with`` block closes
      them.
    """

    #: Short backend name, also the key in :data:`BACKENDS`.
    name: str = "abstract"
    #: Degree of parallelism this backend was configured for.
    workers: int = 1
    #: Monotonic count of items accepted through :meth:`map`/:meth:`imap`
    #: over this backend's lifetime.  Scheduler-level retries and steals
    #: do **not** count: the number reflects the
    #: caller-visible task load, which is what the resume tests use to
    #: prove that cached cells were loaded rather than re-simulated.
    tasks_submitted: int = 0

    def _record_submission(self, count: int) -> None:
        """Bump :attr:`tasks_submitted` (subclasses call this once per batch)."""
        self.tasks_submitted += count

    @abstractmethod
    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        """Apply ``fn`` to every item and return the results in order."""

    @abstractmethod
    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """Yield ``fn(item)`` results **in item order** as they complete.

        The streaming counterpart of :meth:`map`, consumed by the
        harness's per-cell progress reporting
        (:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`
        with a ``progress=`` callback).  The ordering contract is the
        same as :meth:`map`'s; only the delivery is incremental, so a
        caller can observe completion counts while the batch runs.
        """

    def close(self) -> None:  # noqa: B027 - intentionally optional: poolless backends need no teardown
        """Release worker resources (idempotent; lazily restarts on reuse)."""

    @property
    def is_running(self) -> bool:
        """Whether the backend currently holds live worker resources."""
        return False

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutorBackend):
    """Run every task inline in the calling process — no pool at all.

    This is exactly the historical ``workers=1`` execution the
    reproducibility tests pin, and what ``workers=0`` (e.g. via
    ``REPRO_WORKERS=0``) resolves to.
    """

    name = "serial"

    def __init__(self) -> None:
        self.workers = 1

    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        items = list(items)
        self._record_submission(len(items))
        return [fn(item) for item in items]

    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """True streaming: each task runs when its result is consumed."""
        items = list(items)
        self._record_submission(len(items))
        return (fn(item) for item in items)


def _positive_workers(workers: Optional[int]) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 for a pooled backend, got {workers}")
    return workers


class AsyncBackend(ExecutorBackend):
    """A dispatch thread over a pool of persistent worker processes.

    The harness's one worker pool: a dispatcher
    (:class:`~repro.experiments.scheduler.AsyncScheduler`) shards each
    batch across ``workers`` long-lived worker processes behind a
    bounded in-flight ``window`` (backpressure against a slow ``imap``
    consumer), work-steals stragglers onto idle workers, and retries
    crashed, raising or hung cells with capped exponential backoff —
    respawning dead workers as it goes.  A cell that exhausts
    ``max_retries`` fails the whole batch with a
    :class:`~repro.experiments.scheduler.AsyncCellError` naming every
    failed cell, so a result grid can never contain a silent hole.
    Local workers are daemon processes, so a pool that is never closed
    still lets the interpreter exit.

    The :class:`ExecutorBackend` contract is fully preserved: results
    come back in item order (``imap`` streams them as the submission
    frontier completes), the pool starts lazily, :meth:`close` is
    idempotent with lazy restart, and aggregates are bit-identical to
    :class:`SerialBackend` for every worker count — retries and steals
    re-run pure seed-determined simulations, never reorder delivery.

    ``endpoint`` switches the workers from local child processes to
    remote worker agents: ``"tcp://host:port[,host2:port2,...]"`` names
    one agent per address (start each with ``python -m
    repro.experiments.remote --listen host:port``), validated up front
    by :func:`repro.experiments.remote.parse_endpoint` — a malformed
    endpoint raises :class:`ValueError` before anything connects.  The
    same dispatch loop drives both transports, so retry, steal, timeout
    and respawn semantics — and bit-identical aggregates — are
    transport-agnostic.  ``workers`` defaults to one per address and
    must match the address count when given (each agent serves exactly
    one scheduler connection).  Payloads must be picklable (workers are
    separate processes): unpicklable payloads such as lambda builders
    raise :class:`TypeError` up front, naming :class:`ScenarioSpec` as
    the picklable alternative.

    Constructor arguments left at ``None`` fall back to the env seams:
    ``endpoint`` to ``REPRO_ASYNC_ENDPOINT`` (default: local workers),
    ``workers`` to ``REPRO_ASYNC_WORKERS`` (then ``os.cpu_count()``),
    ``max_retries`` to ``REPRO_ASYNC_RETRIES`` (default 2), and
    ``task_timeout`` to ``REPRO_ASYNC_TIMEOUT`` (default: no timeout).
    ``window`` defaults to ``2 * workers`` and is clamped to at least
    ``workers``; ``steal_after`` is the straggler age (seconds) before
    an idle worker duplicates it; ``connect_timeout`` bounds each remote
    connection attempt.  ``stats`` exposes cumulative scheduler counters
    (``retries``, ``steals``, ``respawns``, ``timeouts``, ``failures``)
    for tests and diagnostics.  See ``docs/distributed.md`` for the full
    architecture notes.
    """

    name = "async"

    #: Whether an unset ``endpoint`` falls back to ``REPRO_ASYNC_ENDPOINT``.
    _endpoint_from_env = True

    def __init__(
        self,
        endpoint: Optional[str] = None,
        workers: Optional[int] = None,
        *,
        window: Optional[int] = None,
        max_retries: Optional[int] = None,
        retry_base_delay: float = 0.05,
        retry_max_delay: float = 2.0,
        task_timeout: Optional[float] = None,
        steal_after: float = 0.25,
        connect_timeout: float = 5.0,
    ) -> None:
        if endpoint is None and self._endpoint_from_env:
            endpoint = async_endpoint_from_env()
        self.endpoint = endpoint
        endpoints: Optional[List[Tuple[str, int]]] = None
        if endpoint is not None:
            endpoints = parse_endpoint(endpoint)
            if workers is None:
                workers = len(endpoints)
            elif workers != len(endpoints):
                raise ValueError(
                    f"workers={workers} does not match the {len(endpoints)} "
                    f"address(es) in endpoint={endpoint!r}; each remote worker "
                    "agent serves exactly one scheduler connection"
                )
        if workers is None:
            workers = async_workers_from_env()
        self.workers = _positive_workers(workers)
        if max_retries is None:
            max_retries = async_retries_from_env(2)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is None:
            task_timeout = async_timeout_from_env(None)
        if window is None:
            window = 2 * self.workers
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._scheduler = AsyncScheduler(
            workers=self.workers,
            window=window,
            max_retries=max_retries,
            retry_base_delay=retry_base_delay,
            retry_max_delay=retry_max_delay,
            task_timeout=task_timeout,
            steal_after=steal_after,
            endpoints=endpoints,
            connect_timeout=connect_timeout,
        )

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative scheduler counters: retries, steals, respawns, timeouts, failures."""
        return self._scheduler.stats

    @property
    def is_running(self) -> bool:
        return self._scheduler.is_running

    def worker_pids(self) -> FrozenSet[int]:
        """PIDs of the live worker processes (empty before first use / after close)."""
        return self._scheduler.worker_pids()

    def close(self) -> None:
        self._scheduler.close()

    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        return list(self.imap(fn, items))

    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """Stream results in item order as the submission frontier completes."""
        items = list(items)
        self._record_submission(len(items))
        if not items:
            return iter(())
        try:
            pickle.dumps((fn, items))
        except Exception:
            raise TypeError(
                "AsyncBackend payloads must be picklable (workers are separate "
                "processes); use a picklable builder such as ScenarioSpec"
            ) from None
        return self._scheduler.start(fn, items).results()


def _serial_factory(workers: Optional[int] = None) -> SerialBackend:
    if workers is not None and int(workers) > 1:
        raise ValueError(
            f"the serial backend runs in-process; workers={workers} conflicts "
            "(use the async backend for parallelism)"
        )
    return SerialBackend()


#: Backend registry for CLI flags and configuration strings.
BACKENDS: Dict[str, Callable[..., ExecutorBackend]] = {
    "serial": _serial_factory,
    "async": AsyncBackend,
}


def make_backend(name: str, workers: Optional[int] = None) -> ExecutorBackend:
    """Build a backend by registry name (``serial`` or ``async``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; known: {sorted(BACKENDS)}") from None
    return factory(workers=workers)


# -- the shared default pool -----------------------------------------------------------


class _SharedBackend(AsyncBackend):
    """A :func:`shared_backend` pool: local workers even when ``REPRO_ASYNC_ENDPOINT`` is set."""

    _endpoint_from_env = False


_SHARED_BACKENDS: Dict[int, AsyncBackend] = {}
_SHARED_LOCK = threading.Lock()


def shared_backend(workers: Optional[int] = None) -> AsyncBackend:
    """The shared local :class:`AsyncBackend` for the given worker count.

    Backends are cached per worker count for the life of the process, so
    every figure call asking for the same parallelism reuses one pool.
    ``workers=None`` means ``os.cpu_count()``.  The pool always runs
    local worker processes; remote agents are opt-in through an explicit
    ``AsyncBackend(endpoint=...)``.  Shared backends must not be closed
    by individual callers — :func:`close_shared_backends` tears them
    down (and interpreter exit reaps their daemon workers); a closed
    shared backend restarts lazily if used again.
    """
    key = _positive_workers(workers)
    with _SHARED_LOCK:
        backend = _SHARED_BACKENDS.get(key)
        if backend is None:
            backend = _SharedBackend(workers=key)
            _SHARED_BACKENDS[key] = backend
        return backend


def close_shared_backends() -> None:
    """Close and forget every shared backend (they restart lazily on reuse)."""
    with _SHARED_LOCK:
        backends = list(_SHARED_BACKENDS.values())
        _SHARED_BACKENDS.clear()
    for backend in backends:
        backend.close()


def resolve_backend(
    workers: Optional[int] = None,
    backend: Optional[ExecutorBackend] = None,
) -> ExecutorBackend:
    """Turn a ``workers=`` / ``backend=`` pair into a backend instance.

    Exactly one of the two may be given.  An explicit ``backend`` is
    returned as-is.  Otherwise ``workers`` selects a backend: ``0`` or
    ``1`` mean :class:`SerialBackend` (the historical serial semantics;
    ``REPRO_WORKERS=0`` lands here), and ``None`` or ``N > 1`` mean the
    :func:`shared_backend` local pool for that worker count.
    """
    if backend is not None:
        if workers is not None:
            raise ValueError("pass either workers= or backend=, not both")
        return backend
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers <= 1:
        # Matches the historical semantics: one worker (or a one-core
        # machine) runs serially in-process, with no pool at all.
        return SerialBackend()
    return shared_backend(workers)
