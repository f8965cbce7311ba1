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

* :func:`resolve_backend` — the single place that turns a
  ``workers=``/``backend=`` pair into a backend instance, and the only
  code that reads the environment for one.  ``workers`` of ``0`` or
  ``1`` mean :class:`SerialBackend`; ``N > 1`` the cached local
  :class:`AsyncBackend` for that count, so every figure call asking for
  the same parallelism shares one pool; unset means the remote pool
  named by ``REPRO_ASYNC_ENDPOINT`` when that is set, else the local
  pool for ``os.cpu_count()``.
* :func:`workers_from_env` — ``REPRO_WORKERS`` plumbing shared by the
  benchmark harness (``0`` means the serial backend).

Every backend must preserve the harness invariant: because each
simulation run is fully determined by its seed and results come back in
submission order, **aggregates are bit-identical no matter which backend
ran them**.  ``tests/test_backends.py`` pins that cross-backend.

That same contract is what makes batched multi-figure submission safe:
:func:`~repro.experiments.parallel.run_grids` interleaves several
figures' cells into one :meth:`ExecutorBackend.imap` call and
demultiplexes the ordered results back per figure, so a full-paper run
is a single drain of a single pool regardless of backend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from abc import ABC, abstractmethod
from types import TracebackType
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.experiments.remote import (
    LocalProcessTransport,
    TcpTransport,
    WorkerTransport,
    authkey_from_env,
    parse_endpoint,
)
from repro.experiments.scheduler import AsyncCellError, AsyncScheduler

_T = TypeVar("_T")

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "AsyncBackend",
    "AsyncCellError",
    "resolve_backend",
    "workers_from_env",
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


def _remote_endpoint_from_env() -> Optional[str]:
    """``REPRO_ASYNC_ENDPOINT``: the agents :func:`resolve_backend` uses when ``workers`` is unset."""
    return os.environ.get("REPRO_ASYNC_ENDPOINT", "").strip() or None


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

    #: Short backend name, recorded in run manifests.
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

    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        """Apply ``fn`` to every item and return the results in order."""
        return list(self.imap(fn, items))

    @abstractmethod
    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """Yield ``fn(item)`` results **in item order** as they complete.

        The streaming form of :meth:`map`, and what
        :func:`~repro.experiments.parallel.run_grids` consumes: the
        ordering contract is the same, only the delivery is
        incremental, so a caller can report and persist each cell while
        the batch runs.
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

    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """True streaming: each task runs when its result is consumed."""
        items = list(items)
        self._record_submission(len(items))
        return (fn(item) for item in items)


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
    endpoint raises :class:`ValueError` before anything connects, and so
    does a missing ``REPRO_ASYNC_AUTHKEY``: agents and client must share
    that key (:func:`repro.experiments.remote.authkey_from_env`).  The
    same dispatch loop drives both transports, so retry, steal, timeout
    and respawn semantics — and bit-identical aggregates — are
    transport-agnostic.  ``workers`` defaults to one per address and
    must match the address count when given (each agent serves exactly
    one scheduler connection).  Payloads must be picklable (workers are
    separate processes): unpicklable payloads such as lambda builders
    raise :class:`TypeError` up front, naming :class:`ScenarioSpec` as
    the picklable alternative.

    The constructor reads only its arguments.  ``endpoint=None`` always
    means local worker processes, and ``workers=None`` means
    ``os.cpu_count()`` of them (one per address with an endpoint).
    ``max_retries`` (default 2) is the number of extra attempts a failed
    cell gets; ``task_timeout`` (default: none) kills and retries a cell
    running longer than that many seconds; ``retry_base_delay`` starts
    the backoff, which doubles per attempt up to 2 s.  ``window``
    defaults to ``2 * workers`` and is clamped to at least ``workers``;
    ``steal_after`` is the straggler age (seconds) before an idle worker
    duplicates it; ``connect_timeout`` bounds each remote connection
    attempt, authentication included.  ``stats`` exposes cumulative
    scheduler counters (``retries``, ``steals``, ``respawns``,
    ``timeouts``, ``failures``) for tests and diagnostics.  See
    ``docs/distributed.md`` for the full architecture notes.
    """

    name = "async"

    def __init__(
        self,
        endpoint: Optional[str] = None,
        workers: Optional[int] = None,
        *,
        window: Optional[int] = None,
        max_retries: int = 2,
        retry_base_delay: float = 0.05,
        task_timeout: Optional[float] = None,
        steal_after: float = 0.25,
        connect_timeout: float = 5.0,
    ) -> None:
        self.endpoint = endpoint
        self._addresses: Optional[List[Tuple[str, int]]] = None
        self._authkey = b""
        self._connect_timeout = connect_timeout
        if endpoint is not None:
            self._addresses = parse_endpoint(endpoint)
            self._authkey = authkey_from_env()
            if workers is None:
                workers = len(self._addresses)
            elif workers != len(self._addresses):
                raise ValueError(
                    f"workers={workers} does not match the {len(self._addresses)} "
                    f"address(es) in endpoint={endpoint!r}; each remote worker "
                    "agent serves exactly one scheduler connection"
                )
        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in start_methods else "spawn")
        self.workers = (os.cpu_count() or 1) if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 for a pooled backend, got {self.workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if window is None:
            window = 2 * self.workers
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._scheduler = AsyncScheduler(
            self._spawn,
            workers=self.workers,
            window=window,
            max_retries=max_retries,
            retry_base_delay=retry_base_delay,
            task_timeout=task_timeout,
            steal_after=steal_after,
        )

    def _spawn(self, slot: int) -> WorkerTransport:
        """The worker for ``slot``: a local child process, or a connection to the slot's agent."""
        if self._addresses is None:
            return LocalProcessTransport(self._ctx)
        host, port = self._addresses[slot]
        return TcpTransport(host, port, self._authkey, self._connect_timeout)

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


_POOLS: Dict[Tuple[Optional[int], Optional[str]], AsyncBackend] = {}
_POOLS_LOCK = threading.Lock()


def resolve_backend(
    workers: Optional[int] = None,
    backend: Optional[ExecutorBackend] = None,
) -> ExecutorBackend:
    """Turn a ``workers=`` / ``backend=`` pair into a backend instance.

    Exactly one of the two may be given.  An explicit ``backend`` is
    returned as-is.  Otherwise ``workers`` selects a backend: ``0`` or
    ``1`` mean :class:`SerialBackend` (the historical serial semantics;
    ``REPRO_WORKERS=0`` lands here), and ``N > 1`` a local
    :class:`AsyncBackend` with ``N`` workers.  ``None`` means the
    remote :class:`AsyncBackend` over ``REPRO_ASYNC_ENDPOINT``'s agents
    when that variable is set, and ``os.cpu_count()`` otherwise.

    Pools are cached per ``(workers, endpoint)`` for the life of the
    process, so every figure call asking for the same pool reuses it
    (the same worker PIDs serve every call).  Callers must not close a
    cached pool; interpreter exit reaps its daemon workers, and a closed
    pool restarts lazily if used again.
    """
    if backend is not None:
        if workers is not None:
            raise ValueError("pass either workers= or backend=, not both")
        return backend
    endpoint = _remote_endpoint_from_env() if workers is None else None
    if endpoint is None:
        workers = (os.cpu_count() or 1) if workers is None else int(workers)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers <= 1:
            # Matches the historical semantics: one worker (or a one-core
            # machine) runs serially in-process, with no pool at all.
            return SerialBackend()
    key = (workers, endpoint)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = AsyncBackend(endpoint, workers)
        return pool
