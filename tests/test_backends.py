"""Executor backends: lifecycle, pool reuse, the resolve_backend registry, bit-identity."""

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import (
    AsyncBackend,
    AsyncCellError,
    ExecutorBackend,
    SerialBackend,
    resolve_backend,
    workers_from_env,
)
from repro.experiments.parallel import ScenarioSpec, run_grids
from repro.experiments.runner import replicate

REPO_ROOT = Path(__file__).resolve().parents[1]

SMALL_LINEAR = {"num_nodes": 3, "transfer_bytes": 8_000, "num_flows": 1, "duration": 150}
TINY_FIGURE = {"net_sizes": (3,), "tolerances": (0.0,), "transfer_bytes": 4_000, "duration": 80}


def _pid(_index):
    return os.getpid()


def _square(value):
    return value * value


def _kill_worker(_value):  # pragma: no cover - runs (and dies) in a pool worker
    os._exit(1)


def _flaky_eval(arg):
    """Deterministic fault injection: fail the first ``fails`` attempts.

    Attempt counts persist in per-item files so retries (fresh worker
    processes) observe earlier attempts.  With ``fails=0`` this is a
    pure function of ``value`` — the serial reference.
    """
    directory, index, value, fails = arg
    counter = Path(directory) / f"attempts-{index}"
    seen = int(counter.read_text()) if counter.exists() else 0
    if seen < fails:
        counter.write_text(str(seen + 1))
        raise RuntimeError(f"injected failure {seen + 1}/{fails} for item {index}")
    return (value * value, value + 7)


class TestSerialBackend:
    def test_runs_inline_in_order(self):
        backend = SerialBackend()
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert backend.map(_pid, [0]) == [os.getpid()]
        assert backend.workers == 1
        assert not backend.is_running  # never holds resources

    def test_context_manager_is_a_no_op(self):
        with SerialBackend() as backend:
            assert backend.map(_square, [2]) == [4]

    def test_imap_streams_lazily(self):
        # The serial backend must not run task k+1 before the caller
        # consumes result k — that is what makes per-cell progress
        # reporting exact, not after-the-fact.
        ran = []

        def record(value):
            ran.append(value)
            return value * value

        iterator = SerialBackend().imap(record, [1, 2, 3])
        assert ran == []
        assert next(iterator) == 1
        assert ran == [1]
        assert list(iterator) == [4, 9]
        assert ran == [1, 2, 3]


class TestImapOrdering:
    def test_pooled_backends_stream_in_item_order(self):
        with AsyncBackend(workers=2) as pool:
            for backend in (SerialBackend(), pool):
                assert list(backend.imap(_square, range(6))) == [v * v for v in range(6)]
                assert list(backend.imap(_square, [])) == []

    def test_imap_matches_map(self):
        with AsyncBackend(workers=2) as backend:
            assert list(backend.imap(_square, range(5))) == backend.map(_square, range(5))

    def test_process_imap_recovers_from_a_pool_broken_between_batches(self):
        import signal

        with AsyncBackend(workers=2) as backend:
            assert backend.map(_square, [1]) == [1]
            # A worker dies while the pool sits idle (the OOM-kill
            # scenario).  The next streaming batch must respawn it and
            # deliver the full, ordered batch.
            os.kill(next(iter(backend.worker_pids())), signal.SIGKILL)
            assert list(backend.imap(_square, range(4))) == [0, 1, 4, 9]
            # The backend stays healthy for later batched calls too.
            assert backend.map(_square, [5]) == [25]


class TestProcessBackendLifecycle:
    def test_pool_starts_lazily_and_is_reused(self):
        with AsyncBackend(workers=2) as backend:
            assert not backend.is_running
            first = set(backend.map(_pid, range(8)))
            assert backend.is_running
            pids = backend.worker_pids()
            second = set(backend.map(_pid, range(8)))
            # Same pool, same worker processes, across both calls.
            assert backend.worker_pids() == pids
            assert first <= pids
            assert second <= pids
            assert os.getpid() not in pids

    def test_pool_reused_across_two_figure_calls(self):
        from repro.experiments import figures

        with AsyncBackend(workers=2) as backend:
            figures.figure3_plan(**TINY_FIGURE).run((1, 2), backend=backend)
            pids = backend.worker_pids()
            assert pids, "the first figure call must have started the pool"
            figures.figure4_plan(net_sizes=(3,), transfer_bytes=4_000, duration=80).run((1, 2), backend=backend)
            assert backend.worker_pids() == pids, "second figure call must reuse the pool"

    def test_context_manager_shuts_the_pool_down(self):
        backend = AsyncBackend(workers=2)
        with backend:
            backend.map(_square, [1, 2])
            assert backend.is_running
        assert not backend.is_running
        assert backend.worker_pids() == frozenset()

    def test_close_is_idempotent_and_reuse_restarts_lazily(self):
        backend = AsyncBackend(workers=2)
        backend.map(_square, [1, 2])
        backend.close()
        backend.close()
        assert not backend.is_running
        assert backend.map(_square, [3, 4]) == [9, 16]
        assert backend.is_running
        backend.close()

    def test_atexit_cleanup_lets_the_interpreter_exit(self):
        # A child interpreter that uses a cached pool but never closes it
        # must still exit promptly: its workers are daemon processes.
        code = (
            "from repro.experiments.backends import resolve_backend\n"
            "from tests.test_backends import _square\n"
            "backend = resolve_backend(workers=2)\n"
            "assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]\n"
            "assert backend.is_running\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT,
            env=env,
            timeout=60,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_import_leaves_asyncio_and_executors_unloaded(self):
        # The pool is a plain dispatch thread: importing the harness must
        # not pay for asyncio or concurrent.futures.
        code = (
            "import sys\n"
            "import repro.experiments\n"
            "loaded = sorted(m for m in ('asyncio', 'concurrent.futures') if m in sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT,
            env=env,
            timeout=60,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_broken_pool_self_heals(self):
        with AsyncBackend(workers=2) as backend:
            # Every attempt kills its worker: the batch fails loudly...
            with pytest.raises(AsyncCellError):
                backend.map(_kill_worker, range(2))
            # ...and the respawned pool serves the next call.
            assert backend.map(_square, [2, 3]) == [4, 9]


class TestAsyncBackend:
    def test_is_a_backend_and_carries_configuration(self):
        backend = AsyncBackend(endpoint="tcp://scheduler:9999")
        assert isinstance(backend, ExecutorBackend)
        assert backend.endpoint == "tcp://scheduler:9999"
        assert backend.workers == 1  # one connection per endpoint address
        assert backend.name == "async"
        backend.close()

    def test_map_and_imap_agree(self):
        with AsyncBackend(workers=2) as backend:
            assert backend.map(_square, range(5)) == [v * v for v in range(5)]
            assert list(backend.imap(_square, range(5))) == backend.map(_square, range(5))

    def test_runs_in_worker_processes(self):
        with AsyncBackend(workers=2) as backend:
            pids = set(backend.map(_pid, range(8)))
            assert os.getpid() not in pids
            assert pids <= backend.worker_pids()

    def test_lifecycle_matches_process_backend(self):
        backend = AsyncBackend(workers=2)
        assert not backend.is_running
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert backend.is_running
        pids = backend.worker_pids()
        assert backend.map(_square, [4]) == [16]
        assert backend.worker_pids() == pids, "second call must reuse the worker pool"
        backend.close()
        backend.close()
        assert not backend.is_running
        assert backend.worker_pids() == frozenset()
        assert backend.map(_square, [5]) == [25], "closed backend must restart lazily"
        backend.close()

    def test_unpicklable_payload_rejected_up_front(self):
        with AsyncBackend(workers=2) as backend:
            with pytest.raises(TypeError, match="picklable"):
                backend.map(lambda value: value, [1])
        assert not backend.is_running
        # The default pool behind workers=N rejects a lambda builder the
        # same way, naming the picklable alternative.
        builder = lambda seed: ScenarioSpec("linear", SMALL_LINEAR)(seed)
        with pytest.raises(TypeError, match="ScenarioSpec"):
            replicate(builder, [1, 2], workers=2)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AsyncBackend(workers=0)
        with pytest.raises(ValueError):
            AsyncBackend(workers=2, window=0)
        with pytest.raises(ValueError):
            AsyncBackend(workers=2, max_retries=-1)


class TestCrossBackendBitIdentity:
    def test_serial_process_thread_async_agree_on_a_small_grid(self):
        specs = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
        seeds = [1, 2, 3]
        serial = run_grids([(specs, seeds)], backend=SerialBackend())[0]
        pooled = run_grids([(specs, seeds)], workers=2)[0]
        with AsyncBackend(workers=2) as backend:
            scheduled = run_grids([(specs, seeds)], backend=backend)[0]
        assert pooled == serial
        assert scheduled == serial


class TestTasksSubmitted:
    def test_counts_caller_visible_items_per_backend(self):
        backends = [SerialBackend(), AsyncBackend(workers=2)]
        for backend in backends:
            with backend:
                assert backend.tasks_submitted == 0
                backend.map(_square, range(5))
                assert backend.tasks_submitted == 5
                list(backend.imap(_square, range(3)))
                assert backend.tasks_submitted == 8, backend.name


class TestResolveBackend:
    def test_zero_and_one_mean_serial(self):
        assert isinstance(resolve_backend(workers=0), SerialBackend)
        assert isinstance(resolve_backend(workers=1), SerialBackend)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(workers=-2)

    def test_explicit_backend_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend=backend) is backend

    def test_workers_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            resolve_backend(workers=2, backend=SerialBackend())

    def test_default_is_the_shared_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASYNC_ENDPOINT", raising=False)
        if (os.cpu_count() or 1) > 1:
            assert resolve_backend() is resolve_backend(workers=os.cpu_count())
        else:
            # One-core machines keep the historical serial execution.
            assert isinstance(resolve_backend(), SerialBackend)

    def test_same_worker_count_is_the_same_pool(self):
        pool = resolve_backend(workers=2)
        assert resolve_backend(workers=2) is pool
        assert resolve_backend(workers=3) is not pool
        assert isinstance(pool, AsyncBackend)
        assert pool.workers == 2
        assert pool.endpoint is None

    def test_unset_workers_with_an_endpoint_is_the_remote_pool(self, monkeypatch):
        endpoint = "tcp://127.0.0.1:9,127.0.0.1:10,127.0.0.1:11"
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", endpoint)
        backend = resolve_backend()
        assert isinstance(backend, AsyncBackend)
        assert backend.endpoint == endpoint
        assert backend.workers == 3
        assert not backend.is_running  # built, never connected
        assert resolve_backend() is backend
        # An explicit worker count and a bare AsyncBackend stay local.
        assert resolve_backend(workers=2).endpoint is None
        with AsyncBackend() as bare:
            assert bare.endpoint is None
        # A malformed endpoint fails when the pool is resolved, not on first use.
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", "not-an-endpoint")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_remote_pool_needs_the_key(self, monkeypatch):
        # A fresh address: a pool cached by another test must not mask the check.
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", "tcp://127.0.0.1:12")
        monkeypatch.delenv("REPRO_ASYNC_AUTHKEY")
        with pytest.raises(ValueError, match="REPRO_ASYNC_AUTHKEY"):
            resolve_backend()

    def test_workers_n_stays_local_when_an_endpoint_is_set(self, monkeypatch):
        # REPRO_ASYNC_ENDPOINT only fills in for an unset worker count;
        # the pool behind workers=N always runs locally.
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", "tcp://127.0.0.1:9,127.0.0.1:10,127.0.0.1:11")
        backend = resolve_backend(workers=2)
        assert backend.endpoint is None
        assert backend.workers == 2
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert os.getpid() not in backend.worker_pids()


class TestWorkersFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env() is None
        assert workers_from_env(default=3) == 3

    def test_zero_means_serial_everywhere(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert workers_from_env() == 0
        assert isinstance(resolve_backend(workers=workers_from_env()), SerialBackend)

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert workers_from_env() == 4

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ValueError):
            workers_from_env()


class TestAsyncEndpointValidation:
    @pytest.mark.parametrize(
        "endpoint",
        [
            "",
            "   ",
            "scheduler:9999",  # no scheme
            "udp://host:1",  # wrong scheme
            "tcp://",  # no address
            "tcp://host",  # no port
            "tcp://host:0",  # port out of range
            "tcp://host:99999",  # port out of range
            "tcp://host:http",  # non-numeric port
            "tcp://h:1,,h:2",  # empty address in the list
        ],
    )
    def test_malformed_endpoints_rejected_up_front(self, endpoint):
        with pytest.raises(ValueError):
            AsyncBackend(endpoint=endpoint)

    def test_workers_default_to_one_per_address(self):
        backend = AsyncBackend(endpoint="tcp://a:1,b:2,c:3")
        assert backend.workers == 3
        backend.close()

    def test_worker_count_must_match_address_count(self):
        with pytest.raises(ValueError, match="does not match"):
            AsyncBackend(endpoint="tcp://a:1,b:2", workers=3)


@st.composite
def _fault_grids(draw):
    values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    fails = draw(
        st.lists(st.integers(0, 2), min_size=len(values), max_size=len(values))
    )
    workers = draw(st.integers(1, 3))
    return values, fails, workers


class TestAsyncPropertyBitIdentity:
    @given(grid=_fault_grids())
    @settings(max_examples=8, deadline=None)
    def test_imap_order_and_aggregates_match_serial_under_faults(self, grid):
        # For random grids, worker counts and injected fault schedules,
        # imap delivery order and the aggregate payload must be
        # byte-identical to the serial backend: retries and steals
        # re-run deterministic cells, never reorder delivery.
        values, fails, workers = grid
        pure_items = [(".", i, v, 0) for i, v in enumerate(values)]
        serial = SerialBackend().map(_flaky_eval, pure_items)
        with tempfile.TemporaryDirectory() as tmp:
            items = [(tmp, i, v, f) for i, (v, f) in enumerate(zip(values, fails))]
            with AsyncBackend(workers=workers, max_retries=3, retry_base_delay=0.01) as backend:
                streamed = list(backend.imap(_flaky_eval, items))
        assert streamed == serial
        assert pickle.dumps(streamed) == pickle.dumps(serial)
