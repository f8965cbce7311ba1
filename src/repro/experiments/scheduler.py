"""The dispatcher behind :class:`~repro.experiments.backends.AsyncBackend`.

This module is the scheduler half of the async backend: a pool of
persistent workers driven by a single dispatch thread that shards a
batch of tasks across them.  Workers are
:class:`~repro.experiments.remote.WorkerTransport` instances made by the
``spawn(slot)`` factory the backend hands in — local child processes or
connections to remote TCP worker agents; which one is the backend's
decision, not this module's.  The scheduling policy below is
transport-agnostic: the same dispatch loop drives both, which is what
lets one fault-injection suite act as the contract for every transport.
The backend-facing contract (ordered ``map``/``imap`` delivery, lazy
start, idempotent close) lives in :mod:`repro.experiments.backends`;
this module owns the scheduling policy:

* **Bounded in-flight window (backpressure).**  Task ``i`` is only
  dispatched once fewer than ``window`` results are unconsumed, i.e.
  ``i < consumed + window`` where ``consumed`` counts results the
  caller has actually pulled from the stream.  A slow ``imap`` consumer
  therefore throttles dispatch instead of accumulating an unbounded
  reorder buffer, and the reorder buffer (results completed out of
  submission order) can never exceed the window either.
* **Work stealing.**  When no fresh task is dispatchable and no retry
  is due, an idle worker duplicates the longest-running in-flight task
  (at most one duplicate per task, after ``steal_after`` seconds).
  Whichever copy finishes first wins; the loser's result is discarded
  by sequence number.  Duplicating a pure, seed-determined simulation
  is always safe, so stragglers cannot serialise the tail of a batch.
* **Retry with capped exponential backoff.**  A task attempt ends in
  success, a worker-side exception, a dead worker (crash / SIGKILL /
  lost connection), or a per-task timeout.  Failed attempts are
  retried up to ``max_retries`` times, waiting ``min(2 s,
  retry_base_delay * 2**(attempt-1))`` between attempts; dead workers
  are respawned — a fresh local process, or a fresh connection to the
  same remote agent, paced by the same backoff.  A task that exhausts
  its retries fails the batch with :class:`AsyncCellError` naming
  every failed cell — never a silent hole in a result grid.

The dispatch thread multiplexes every transport's wait handles (pipes
and process death sentinels locally, sockets remotely) through one
blocking :func:`multiprocessing.connection.wait` per tick, so a single
loop observes completions, crashes and deadlines without a thread per
worker.  Results are delivered to the consuming thread
through a queue, strictly in submission order.

Determinism: scheduling (stealing, retries, worker death) never
reorders *delivery* — results are matched to submission slots by index
— so aggregates are bit-identical to a serial run regardless of worker
count, timing, or how many attempts a cell needed.
"""

from __future__ import annotations

import heapq
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.experiments.remote import WorkerTransport

__all__ = ["AsyncCellError", "AsyncScheduler", "CellFailure"]

#: Upper bound on one selector wait; also the granularity of timeout,
#: retry-due and consumer-progress checks.  Small enough that a stalled
#: consumer or a due retry is noticed promptly, large enough that an
#: idle scheduler costs nothing measurable.
_TICK_SECONDS = 0.05

#: Cap on the exponential retry backoff, in seconds.
_RETRY_MAX_DELAY = 2.0

#: How much of a failing item's repr() survives into error messages.
_ITEM_REPR_LIMIT = 200


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retries: where, how often, and why."""

    index: int
    item: str
    attempts: int
    error: str


class AsyncCellError(RuntimeError):
    """A batch failed: one or more cells exhausted their retries.

    Raised by :meth:`AsyncBackend.map`/``imap`` instead of returning a
    grid with holes.  ``failures`` lists every cell known to have
    failed permanently when the batch was aborted, each with its item
    repr, attempt count and last error (a worker-side traceback, a
    crash notice, or a timeout description).
    """

    def __init__(self, failures: List[CellFailure]) -> None:
        self.failures = failures
        lines = [
            f"  cell {f.index} ({f.item}) failed after {f.attempts} attempt(s): {f.error.strip()}"
            for f in failures
        ]
        super().__init__(
            f"{len(failures)} cell(s) exhausted their retries:\n" + "\n".join(lines)
        )


class _Call:
    """One in-flight batch: the result stream plus consumer feedback.

    The dispatcher pushes ``("item", result)`` entries in submission
    order, then one ``("done", None)`` or ``("error", exception)``.
    ``consumed`` counts items the consumer has pulled — the dispatcher
    reads it to enforce the in-flight window — and ``aborted`` is set
    when the consumer abandons the stream so the dispatcher can stop.
    """

    def __init__(self) -> None:
        self.queue: "queue.Queue[Tuple[str, Any]]" = queue.Queue()
        self.consumed = 0
        self.aborted = False
        self.thread: Optional[threading.Thread] = None

    def results(self) -> Iterator[Any]:
        """Yield the batch's results in submission order; raise on failure."""
        try:
            while True:
                kind, payload = self.queue.get()
                if kind == "item":
                    self.consumed += 1
                    yield payload
                elif kind == "done":
                    return
                else:
                    raise payload
        finally:
            self.aborted = True
            if self.thread is not None and not self.thread.is_alive():
                self.thread.join()


class AsyncScheduler:
    """Dispatch batches over persistent worker processes (see module docs).

    One scheduler serves many sequential batches; workers are spawned
    lazily on the first batch, one ``spawn(slot)`` call per slot
    ``0..workers-1``, and reused until :meth:`close`.  A dead worker is
    replaced through its own :meth:`~repro.experiments.remote.WorkerTransport.respawn`.
    Batches are serialised by an internal lock — the backend's
    ordered-delivery contract has no use for interleaved batches.
    ``stats`` accumulates scheduling events (``retries``, ``steals``,
    ``respawns``, ``timeouts``, ``failures``) across the scheduler's
    lifetime, which is what the fault-injection tests assert against.
    (Over TCP, ``respawns`` counts scheduler-side reconnects; an agent
    respawning its own crashed child is reported back as a plain failed
    attempt and lands in ``retries``.)
    """

    def __init__(
        self,
        spawn: Callable[[int], WorkerTransport],
        workers: int,
        window: int,
        max_retries: int,
        retry_base_delay: float,
        task_timeout: Optional[float],
        steal_after: float,
    ) -> None:
        self._spawn = spawn
        self.workers = int(workers)
        self.window = max(int(window), self.workers)
        self.max_retries = int(max_retries)
        self.retry_base_delay = float(retry_base_delay)
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.steal_after = float(steal_after)
        self.stats: Dict[str, int] = {
            "retries": 0,
            "steals": 0,
            "respawns": 0,
            "timeouts": 0,
            "failures": 0,
        }
        self._workers: List[WorkerTransport] = []
        self._lifecycle_lock = threading.Lock()
        self._call_lock = threading.Lock()
        self._seq = 0

    # -- lifecycle --------------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return bool(self._workers)

    def worker_pids(self) -> FrozenSet[int]:
        """PIDs of the processes executing cells, where known.

        Local transports always know their child's PID; a TCP transport
        learns the agent child's PID from the hello message, so this is
        empty for remote workers that have not connected yet.
        """
        return frozenset(pid for pid in (w.pid for w in self._workers) if pid is not None)

    def close(self) -> None:
        with self._lifecycle_lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.terminate()

    def _ensure_started(self) -> None:
        with self._lifecycle_lock:
            while len(self._workers) < self.workers:
                self._workers.append(self._spawn(len(self._workers)))

    # -- batch entry point ------------------------------------------------------------

    def start(self, fn: Callable[[Any], Any], items: List[Any]) -> _Call:
        """Run ``fn`` over ``items`` on the workers; returns the result stream."""
        call = _Call()
        thread = threading.Thread(
            target=self._run_call, args=(call, fn, items), daemon=True, name="repro-async-dispatch"
        )
        call.thread = thread
        thread.start()
        return call

    def _run_call(self, call: _Call, fn: Callable[[Any], Any], items: List[Any]) -> None:
        with self._call_lock:
            try:
                self._dispatch(call, fn, items)
            except BaseException as exc:  # noqa: B036 - relayed to the consuming thread
                call.queue.put(("error", exc))
            else:
                call.queue.put(("done", None))

    # -- the dispatcher ---------------------------------------------------------------

    def _dispatch(self, call: _Call, fn: Callable[[Any], Any], items: List[Any]) -> None:
        self._ensure_started()
        # A previous batch that ended early (fail-fast, or an imap
        # consumer that abandoned the stream) can leave workers still
        # chewing on its tasks; their eventual replies must not be
        # mistaken for this batch's.  Replace them with fresh workers —
        # their assignment state (and any straggling reply in flight)
        # dies with the process or the connection.
        with self._lifecycle_lock:
            for worker in [w for w in self._workers if w.current is not None]:
                self._workers.remove(worker)
                replacement = worker.respawn()
                worker.terminate()
                self._workers.append(replacement)
                self.stats["respawns"] += 1
        self._seq += 1
        token = self._seq
        fn_bytes = pickle.dumps(fn)
        total = len(items)

        results: Dict[int, Any] = {}
        resolved: Dict[int, bool] = {}
        attempts: Dict[int, int] = {}
        live: Dict[int, int] = {}
        failures: Dict[int, CellFailure] = {}
        ready: Deque[int] = deque()
        retry_heap: List[Tuple[float, int]] = []
        next_fresh = 0
        next_emit = 0

        def emit_ready() -> None:
            nonlocal next_emit
            while next_emit in results:
                call.queue.put(("item", results.pop(next_emit)))
                next_emit += 1

        def fail_attempt(index: int, error: str) -> None:
            """One assignment of ``index`` ended badly; retry or give up."""
            if index in resolved:
                return
            attempts[index] = attempts.get(index, 0) + 1
            if live.get(index, 0) > 0:
                return  # a stolen duplicate is still running this cell
            if attempts[index] > self.max_retries:
                resolved[index] = True
                failures[index] = CellFailure(
                    index=index,
                    item=repr(items[index])[:_ITEM_REPR_LIMIT],
                    attempts=attempts[index],
                    error=error,
                )
                self.stats["failures"] += 1
            else:
                delay = min(
                    _RETRY_MAX_DELAY,
                    self.retry_base_delay * (2 ** (attempts[index] - 1)),
                )
                heapq.heappush(retry_heap, (time.monotonic() + delay, index))
                self.stats["retries"] += 1

        def end_assignment(worker: WorkerTransport) -> Optional[int]:
            current, worker.current = worker.current, None
            if current is None:
                return None
            index = current[0]
            live[index] = max(live.get(index, 1) - 1, 0)
            return index

        def worker_died(worker: WorkerTransport, error: str) -> None:
            if worker not in self._workers:
                return  # already handled via another path
            self._workers.remove(worker)
            index = end_assignment(worker)
            replacement = worker.respawn()
            worker.terminate()
            self._workers.append(replacement)
            self.stats["respawns"] += 1
            if index is not None:
                fail_attempt(index, error)

        def drain(worker: WorkerTransport) -> None:
            try:
                while worker.poll():
                    seq, ok, payload = worker.recv()
                    current = worker.current
                    if current is None or current[1] != seq:
                        continue  # stale: an aborted batch or a steal's losing copy
                    index = end_assignment(worker)
                    assert index is not None
                    if index in resolved:
                        continue
                    if ok:
                        resolved[index] = True
                        results[index] = payload
                        emit_ready()
                    else:
                        fail_attempt(index, payload)
            except (EOFError, OSError):
                worker_died(worker, "worker connection lost mid-result")

        def dispatch_to_idle(now: float) -> None:
            nonlocal next_fresh
            while True:
                worker = next((w for w in self._workers if w.current is None), None)
                if worker is None:
                    return
                index: Optional[int] = None
                stolen = False
                while ready:
                    candidate = ready.popleft()
                    if candidate not in resolved:
                        index = candidate
                        break
                if index is None and next_fresh < total and next_fresh < call.consumed + self.window:
                    index = next_fresh
                    next_fresh += 1
                if index is None:
                    # Nothing fresh or due: duplicate the oldest straggler.
                    candidates = [
                        w
                        for w in self._workers
                        if w.current is not None
                        and live.get(w.current[0], 0) == 1
                        and w.current[0] not in resolved
                        and now - w.current[2] >= self.steal_after
                    ]
                    if not candidates:
                        return
                    victim = min(candidates, key=lambda w: w.current[2] if w.current else now)
                    assert victim.current is not None
                    index = victim.current[0]
                    stolen = True
                self._seq += 1
                seq = self._seq
                worker.current = (index, seq, now)
                live[index] = live.get(index, 0) + 1
                try:
                    worker.send((seq, token, fn_bytes, items[index]))
                except (OSError, ValueError) as exc:
                    worker_died(worker, f"worker unreachable at dispatch: {exc}")
                    continue
                if stolen:
                    self.stats["steals"] += 1

        while len(resolved) < total and not failures and not call.aborted:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                ready.append(heapq.heappop(retry_heap)[1])
            dispatch_to_idle(now)
            wait_objects: List[Any] = []
            for w in self._workers:
                wait_objects.extend(w.wait_handles())
            connection_wait(wait_objects, _TICK_SECONDS)
            now = time.monotonic()
            for worker in list(self._workers):
                drain(worker)
            for worker in list(self._workers):
                if not worker.is_alive():
                    drain(worker)  # salvage any result buffered before death
                    worker_died(worker, "worker process died mid-cell")
            if self.task_timeout is not None:
                for worker in list(self._workers):
                    current = worker.current
                    if current is None or now - current[2] <= self.task_timeout:
                        continue
                    if worker.poll():
                        continue  # result raced in; picked up next iteration
                    self.stats["timeouts"] += 1
                    # kill() is the transport's hard stop: SIGKILL for a
                    # local child, dropping the connection for a remote
                    # agent (which aborts the cell agent-side).
                    worker.kill()
                    worker_died(
                        worker,
                        f"cell exceeded task_timeout={self.task_timeout:g}s and was killed",
                    )

        if failures:
            raise AsyncCellError([failures[i] for i in sorted(failures)])
