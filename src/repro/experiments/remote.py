"""The remote TCP worker transport behind :class:`~repro.experiments.backends.AsyncBackend`.

This module takes the async scheduler beyond one machine.  It owns three
things:

* **The wire.**  A TCP connection is wrapped as the same stdlib
  :class:`multiprocessing.connection.Connection` that local workers use
  over a pipe, so both transports exchange exactly
  :func:`worker_loop`'s messages: ``(seq, token, fn_bytes, item)`` out,
  ``(seq, ok, payload)`` back.  Before any message, both ends run the
  stdlib HMAC challenge in each direction with the shared key from
  ``REPRO_ASYNC_AUTHKEY`` (:func:`authkey_from_env`), so no byte from an
  unauthenticated peer ever reaches ``pickle.loads``.  The first message
  after authentication is the agent's ``(version, pid)`` hello; a
  different :data:`PROTOCOL_VERSION` fails the connection loudly.  A
  message that does not decode, has the wrong shape or advertises more
  than :data:`MAX_FRAME_BYTES` is a :class:`ProtocolError`, and both
  sides treat the connection as dead rather than guessing.  Closing the
  connection is the goodbye.

* **The transport abstraction.**  :class:`WorkerTransport` is one worker
  slot as :class:`~repro.experiments.scheduler.AsyncScheduler` sees it:
  send a task, poll/recv replies, wait handles for the multiplexer,
  liveness, kill, respawn.  ``send``/``poll``/``recv``/``wait_handles``
  live on the base class, over ``self.conn``.
  :class:`LocalProcessTransport` is a local child process plus a duplex
  pipe; :class:`TcpTransport` is the client side of the TCP wire (lazy
  connect + authentication + hello; ``kill`` closes the connection,
  which is the remote kill switch — the agent aborts the in-flight cell
  on disconnect).  The scheduler drives both through the same dispatch
  loop, which is what makes the fault-injection suite
  (``tests/test_async_backend.py``) a cross-transport contract.

* **The worker agent.**  :class:`WorkerAgent` (CLI:
  ``python -m repro.experiments.remote --listen host:port``) serves one
  scheduler connection at a time and executes cells in a child process
  it can kill — a crashed cell (SIGKILL, OOM) is reported as a failed
  attempt and the child is respawned; a client disconnect mid-cell
  aborts the cell so the agent is immediately reusable.  The agent
  stays up across client connections, so scheduler-side reconnects
  (retry after a drop, timeout kill) just work.

**Security note:** traffic is authenticated but not encrypted.  Anyone
holding the key can run code on the agent, and anyone on the path can
read the cells and results.  ``docs/distributed.md`` documents the
wire, the reconnect/retry semantics and how to provide the key.

This module is deliberately dependency-free within the repo (stdlib
only; the layer DAG pins ``experiments.remote`` beneath
``experiments``), so a worker machine needs nothing but the package on
its path — payload unpickling imports whatever the cells reference.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import os
import pickle
import socket
import struct
import sys
import threading
import traceback
from abc import ABC, abstractmethod
from contextlib import suppress
from multiprocessing import AuthenticationError
from multiprocessing.connection import Connection, answer_challenge, deliver_challenge
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "AUTHKEY_ENV",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerTransport",
    "LocalProcessTransport",
    "TcpTransport",
    "WorkerAgent",
    "authkey_from_env",
    "parse_endpoint",
    "main",
]

#: Version carried by the agent's hello.  A client refuses to talk to an
#: agent speaking a different version — failing the handshake loudly
#: beats misinterpreting messages.
PROTOCOL_VERSION = 2

#: The environment variable holding the shared key of agents and clients.
AUTHKEY_ENV = "REPRO_ASYNC_AUTHKEY"

#: Upper bound on one message.  Anything larger is a peer that is not
#: speaking this protocol, not a legitimate task or result.
MAX_FRAME_BYTES = 1 << 30

#: Kernel-side bound on every read and write once a connection is
#: established.  Reads are poll-gated, so this only bounds how long a
#: *partially delivered* message may stall a reader before the
#: connection is declared dead.
_FRAME_TIMEOUT = 30.0

#: Granularity of the agent's accept loop and serve loop: how often it
#: re-checks its stop flag.
_SERVE_TICK = 0.2

#: A task in flight to a worker: ``(seq, token, fn_bytes, item)``.
TaskMessage = Tuple[int, int, bytes, Any]

#: A worker's reply: ``(seq, ok, payload)``.
ReplyMessage = Tuple[int, bool, Any]


class ProtocolError(OSError):
    """The peer sent a message that is not valid on this wire."""


def authkey_from_env() -> bytes:
    """The shared key from ``REPRO_ASYNC_AUTHKEY``; :class:`ValueError` if unset.

    Agents and clients both read it here.  There is no unauthenticated
    mode: every TCP peer must prove it holds the same key before either
    side unpickles anything it sends.
    """
    value = os.environ.get(AUTHKEY_ENV, "").strip()
    if not value:
        raise ValueError(
            f"{AUTHKEY_ENV} is not set; TCP workers and their clients authenticate "
            "with a shared key (e.g. python -c 'import secrets; print(secrets.token_hex(16))')"
        )
    return value.encode()


# -- endpoint parsing ---------------------------------------------------------------------


def _parse_hostport(text: str, where: str = "", min_port: int = 1) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)``; :class:`ValueError` naming ``text`` and ``where``."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {text!r}{where} is not of the form host:port")
    host = host.strip("[]")  # tolerate bracketed IPv6 literals
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address {text!r}{where} has a non-numeric port {port_text!r}") from None
    if not min_port <= port <= 65535:
        raise ValueError(f"address {text!r}{where} has port {port} outside {min_port}-65535")
    return host, port


def parse_endpoint(endpoint: str) -> List[Tuple[str, int]]:
    """Parse ``tcp://host:port[,host:port...]`` into ``(host, port)`` pairs.

    The scheme is required once at the front (repeating it per address
    is tolerated: ``tcp://a:1,tcp://b:2``).  Each address names one
    :class:`WorkerAgent`; the scheduler opens one connection per entry,
    so listing the same agent twice does not add capacity.  Every
    malformed shape — missing or unsupported scheme, empty address,
    missing/non-numeric/out-of-range port — raises :class:`ValueError`
    with the offending fragment named.
    """
    text = endpoint.strip()
    if not text:
        raise ValueError("endpoint must not be empty; expected tcp://host:port[,host:port...]")
    scheme, sep, rest = text.partition("://")
    if not sep:
        raise ValueError(
            f"endpoint {endpoint!r} has no scheme; expected tcp://host:port[,host:port...]"
        )
    if scheme != "tcp":
        raise ValueError(
            f"unsupported endpoint scheme {scheme!r} in {endpoint!r}; only 'tcp' is supported"
        )
    addresses: List[Tuple[str, int]] = []
    for part in rest.split(","):
        part = part.strip()
        if part.startswith("tcp://"):
            part = part[len("tcp://") :]
        elif "://" in part:
            raise ValueError(
                f"unsupported scheme on address {part!r} in {endpoint!r}; only 'tcp' is supported"
            )
        if not part:
            raise ValueError(f"endpoint {endpoint!r} contains an empty address")
        addresses.append(_parse_hostport(part, f" in endpoint {endpoint!r}"))
    return addresses


# -- the wire -----------------------------------------------------------------------------


def _wrap_socket(sock: socket.socket, timeout: float) -> Connection:
    """Hand a connected socket to a :class:`Connection` with kernel I/O timeouts."""
    # Connection reads and writes the raw fd, so the fd must be blocking;
    # SO_RCVTIMEO/SO_SNDTIMEO then make a stalled read or write raise
    # BlockingIOError instead of hanging.
    sock.settimeout(None)
    conn = Connection(sock.detach())
    try:
        _set_io_timeout(conn, timeout)
    except OSError:
        conn.close()
        raise
    return conn


def _set_io_timeout(conn: Connection, seconds: float) -> None:
    timeval = struct.pack("ll", int(seconds), int(seconds % 1 * 1_000_000))
    with socket.socket(fileno=os.dup(conn.fileno())) as view:
        view.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        view.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


def _authenticate(conn: Connection, authkey: bytes, *, serving: bool) -> None:
    """The mutual HMAC challenge that ``Listener.accept``/``Client`` run."""
    try:
        if serving:
            deliver_challenge(conn, authkey)
            answer_challenge(conn, authkey)
        else:
            answer_challenge(conn, authkey)
            deliver_challenge(conn, authkey)
    except (AssertionError, AuthenticationError, EOFError, OSError) as exc:
        # Before Python 3.12, answer_challenge asserts on a malformed challenge.
        raise AuthenticationError(f"authentication failed: {exc!r}") from None


def _recv_message(conn: Connection, size: int, what: str) -> Tuple[Any, ...]:
    """One ``size``-tuple from ``conn``; :class:`ProtocolError` for anything else."""
    data = conn.recv_bytes(MAX_FRAME_BYTES)
    try:
        message = pickle.loads(data)
    except Exception as exc:
        raise ProtocolError(f"undecodable {what} message: {exc!r}") from None
    if not isinstance(message, tuple) or len(message) != size:
        raise ProtocolError(f"malformed {what} message: {message!r:.200}")
    return message


# -- the worker-side execution loop -------------------------------------------------------


def describe_exception(exc: BaseException) -> str:
    """A compact worker-side failure description (type, message, tail frames)."""
    rendered = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__, limit=8))
    return rendered[-2000:]


def worker_loop(conn: Connection) -> None:
    """Worker-process loop: receive ``(seq, token, fn_bytes, item)``, reply.

    Replies are ``(seq, True, result)`` or ``(seq, False, error_text)``.
    The callable is pickled once per batch by the dispatching side and
    cached here by its batch token, so per-task messages stay small.
    Any exception — including a result that fails to pickle on the way
    back — is reported as a failed attempt rather than killing the
    worker.  This is the execution loop for both the local pipe
    transport and the TCP agent's child process.
    """
    fn_token: Optional[int] = None
    fn: Optional[Callable[[Any], Any]] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        seq, token, fn_bytes, item = message
        try:
            if fn is None or fn_token != token:
                fn = pickle.loads(fn_bytes)
                fn_token = token
            assert fn is not None
            result = fn(item)
        except BaseException as exc:  # noqa: B036 - attempt failure, reported to the parent
            with suppress(OSError, ValueError):
                conn.send((seq, False, describe_exception(exc)))
            continue
        try:
            conn.send((seq, True, result))
        except (OSError, BrokenPipeError):
            return
        except Exception as exc:  # unpicklable result
            with suppress(OSError, ValueError):
                conn.send((seq, False, f"result could not be pickled: {exc!r}"))


# -- the transport abstraction ------------------------------------------------------------


class WorkerTransport(ABC):
    """One worker slot as the scheduler's dispatch loop sees it.

    ``current`` is the in-flight assignment ``(index, seq, started)`` or
    ``None`` when idle; the globally unique ``seq`` is what lets the
    dispatcher discard stale results (from a stolen task's losing copy,
    or from a batch that was aborted mid-flight).  ``conn`` is the
    :class:`Connection` to the worker (``None`` until a TCP transport
    connects, and after it is killed).  Subclasses own the mechanics — a
    child process and pipe, or a TCP connection to a remote agent —
    behind the same verbs, so the scheduler's policy (window, stealing,
    retry, respawn) is transport-agnostic.
    """

    def __init__(self) -> None:
        self.current: Optional[Tuple[int, int, float]] = None
        self.conn: Optional[Connection] = None

    def send(self, task: TaskMessage) -> None:
        """Dispatch one task; raises ``OSError`` if the worker is unreachable."""
        if self.conn is None:
            raise OSError(f"{self.describe()} is not connected")
        self.conn.send(task)

    def poll(self) -> bool:
        """Whether :meth:`recv` would return without blocking."""
        return self.conn is not None and bool(self.conn.poll())

    def recv(self) -> ReplyMessage:
        """One reply.

        Raises ``EOFError``/``OSError`` (:class:`ProtocolError` included)
        when the worker is gone or misbehaves; callers treat either as
        the death of this transport.
        """
        if self.conn is None:
            raise EOFError(f"{self.describe()} is not connected")
        seq, ok, payload = _recv_message(self.conn, 3, "reply")
        return int(seq), bool(ok), payload

    def wait_handles(self) -> List[Any]:
        """Objects for ``multiprocessing.connection.wait`` that wake the loop."""
        return [] if self.conn is None else [self.conn]

    @abstractmethod
    def is_alive(self) -> bool:
        """Whether the worker may still produce results."""

    @abstractmethod
    def kill(self) -> None:
        """Hard-stop the in-flight cell (kill the process / drop the link)."""

    @abstractmethod
    def terminate(self) -> None:
        """Best-effort full teardown; must be safe to call twice."""

    @abstractmethod
    def respawn(self) -> "WorkerTransport":
        """A fresh replacement transport for the same worker slot."""

    @property
    @abstractmethod
    def pid(self) -> Optional[int]:
        """PID of the process executing cells, when known."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable identity for error messages."""


_LOCAL_WORKER_NAMES = itertools.count(1)


class LocalProcessTransport(WorkerTransport):
    """A live local worker process plus the parent end of its duplex pipe."""

    def __init__(self, ctx: Any, name: Optional[str] = None) -> None:
        super().__init__()
        if name is None:
            name = f"repro-async-worker-{next(_LOCAL_WORKER_NAMES)}"
        self._ctx = ctx
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=worker_loop, args=(child_conn,), daemon=True, name=name)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def wait_handles(self) -> List[Any]:
        return [*super().wait_handles(), self.process.sentinel]

    def is_alive(self) -> bool:
        return bool(self.process.is_alive())

    def kill(self) -> None:
        # Killing a process that already exited raises on some
        # platforms; the caller only cares that it is no longer running.
        # repro: allow[EXC001] best-effort kill; double-terminate test pins safety
        with suppress(Exception):
            self.process.kill()

    def terminate(self) -> None:
        # Best-effort teardown of a worker that is already failed or
        # finished: kill/join/close may each raise on a dead process or
        # closed pipe, and an error here must never mask the batch's
        # real failure.  Idempotence is pinned by a test
        # (test_async_backend.py::test_terminate_is_idempotent).
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.process.kill()
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.process.join(timeout=2.0)
        if self.conn is not None:
            self.conn.close()

    def respawn(self) -> "LocalProcessTransport":
        return LocalProcessTransport(self._ctx)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def describe(self) -> str:
        return f"local worker {self.process.name}"


class TcpTransport(WorkerTransport):
    """Client side of the TCP wire: one authenticated connection to one agent.

    The connection is opened lazily on the first :meth:`send` (so merely
    constructing a backend never touches the network).  Opening it runs
    the HMAC challenge in both directions with ``authkey``, then reads
    the agent's ``(version, pid)`` hello; ``connect_timeout`` bounds the
    connect and every read and write of that exchange.  Any other
    opening — silence, a wrong key, a different version, garbage —
    fails the connection loudly.  Once marked dead a transport never
    reconnects; the scheduler replaces it via :meth:`respawn`, which is
    how retry backoff paces reconnection attempts.  :meth:`kill` closes
    the connection, which doubles as the remote kill switch: the agent
    aborts the in-flight cell when its client vanishes.
    """

    def __init__(self, host: str, port: int, authkey: bytes, connect_timeout: float = 5.0) -> None:
        super().__init__()
        self.host = host
        self.port = int(port)
        self.authkey = authkey
        self.connect_timeout = float(connect_timeout)
        self._dead = False
        self._pid: Optional[int] = None

    def _connect(self) -> Connection:
        try:
            sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout)
        except OSError as exc:
            self._dead = True
            raise OSError(f"could not connect to {self.describe()}: {exc}") from exc
        conn = _wrap_socket(sock, self.connect_timeout)
        try:
            _authenticate(conn, self.authkey, serving=False)
            version, pid = _recv_message(conn, 2, "hello")
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: agent speaks v{version}, "
                    f"this client speaks v{PROTOCOL_VERSION}"
                )
            _set_io_timeout(conn, _FRAME_TIMEOUT)
        except (EOFError, OSError, AuthenticationError) as exc:
            conn.close()
            self._dead = True
            raise OSError(f"handshake with {self.describe()} failed: {exc}") from exc
        self._pid = None if pid is None else int(pid)
        return conn

    def send(self, task: TaskMessage) -> None:
        if self._dead:
            raise OSError(f"{self.describe()} is marked dead; awaiting respawn")
        if self.conn is None:
            self.conn = self._connect()
        super().send(task)

    def is_alive(self) -> bool:
        return not self._dead

    def kill(self) -> None:
        self._dead = True
        conn, self.conn = self.conn, None
        if conn is not None:
            conn.close()

    terminate = kill

    def respawn(self) -> "TcpTransport":
        return TcpTransport(self.host, self.port, self.authkey, self.connect_timeout)

    @property
    def pid(self) -> Optional[int]:
        return self._pid

    def describe(self) -> str:
        return f"worker agent tcp://{self.host}:{self.port}"


# -- the standalone worker agent ----------------------------------------------------------


class WorkerAgent:
    """A standalone TCP worker: accept a scheduler, execute its cells.

    The agent serves **one client connection at a time** (the scheduler
    opens exactly one per endpoint entry) and executes every cell in a
    child process — the same :func:`worker_loop` the local transport
    uses — so a cell that crashes its process (SIGKILL, OOM) is
    reported to the client as a failed attempt and the child is
    respawned, and a client that disconnects mid-cell (timeout kill,
    scheduler abort) has its cell killed rather than left burning CPU.
    A client that fails the HMAC challenge is logged to stderr and
    dropped before anything it sent is unpickled.  The listener stays
    up across client connections, which is what makes scheduler-side
    reconnects (retry after a drop) work against the same agent.  The
    key comes from ``REPRO_ASYNC_AUTHKEY``; construction raises
    :class:`ValueError` without it.

    Programmatic use (tests, embedding)::

        agent = WorkerAgent("127.0.0.1", 0)   # port 0: ephemeral
        agent.start()                          # serve on a daemon thread
        ... AsyncBackend(endpoint=f"tcp://127.0.0.1:{agent.port}") ...
        agent.stop()

    or as a context manager (``with WorkerAgent(...) as agent:``).  The
    CLI entry point is :func:`main`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._authkey = authkey_from_env()
        # The execution child MUST use the spawn start method.  A forked
        # child would inherit every open fd — including the client
        # socket — so a duplicate of the connection would survive in the
        # child and the peer closing its end would never read as EOF
        # here (the disconnect-aborts-the-cell contract would silently
        # break).  Forking from a threaded process (the agent serves on
        # a thread when embedded) can also deadlock the child on an
        # inherited lock; spawn starts from a clean interpreter.
        self._ctx = multiprocessing.get_context("spawn")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(8)
            self._listener.settimeout(_SERVE_TICK)
        except OSError:
            self._listener.close()
            raise
        self.host = self._listener.getsockname()[0]
        self.port = int(self._listener.getsockname()[1])
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._child: Optional[LocalProcessTransport] = None

    # -- lifecycle ------------------------------------------------------------------------

    def start(self) -> "WorkerAgent":
        """Serve on a daemon thread (for tests and embedding); returns self."""
        thread = threading.Thread(
            target=self.serve_forever, daemon=True, name=f"repro-agent-{self.port}"
        )
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the listener, reap the execution child."""
        self._stop.set()
        with suppress(OSError):
            self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._teardown_child()

    def __enter__(self) -> "WorkerAgent":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the serve loop -------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve scheduler connections until :meth:`stop`."""
        try:
            while not self._stop.is_set():
                try:
                    client, addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed by stop()
                with _wrap_socket(client, _FRAME_TIMEOUT) as conn:
                    self._serve_client(conn, addr)
        finally:
            self._teardown_child()

    def _serve_client(self, client: Connection, addr: Any) -> None:
        try:
            _authenticate(client, self._authkey, serving=True)
        except AuthenticationError as exc:
            print(f"repro worker agent: rejected {addr}: {exc}", file=sys.stderr, flush=True)
            return
        busy: Optional[int] = None
        try:
            # Every client session gets a fresh execution child.  Batch
            # tokens are only unique per scheduler instance, so a child
            # surviving from a previous client could serve that client's
            # cached callable for a colliding token — silently running
            # the wrong function.
            self._teardown_child()
            child = self._ensure_child()
            client.send((PROTOCOL_VERSION, child.pid))
            while not self._stop.is_set():
                # A dead child (the cell SIGKILLed itself, OOM) is handled
                # here, at the top, so a death is never masked by a respawn:
                # drain any reply it buffered before crashing, fail the
                # in-flight cell, and only then start a fresh child.
                child = self._child
                if child is None or not child.is_alive():
                    if child is not None:
                        busy = self._relay_replies(client, child, busy)
                    self._teardown_child()
                    if busy is not None:
                        client.send((busy, False, "worker process died mid-cell (remote)"))
                        busy = None
                    child = self._ensure_child()
                ready = connection_wait(child.wait_handles() + [client], _SERVE_TICK)
                # 1. Relay finished cells before anything else, so a
                #    reply buffered just before a crash is not lost.
                if child.conn in ready:
                    busy = self._relay_replies(client, child, busy)
                # 2. The sentinel fired: loop back so the death handler
                #    above runs against this same child before any respawn.
                if not child.is_alive():
                    continue
                # 3. The next task from the client.
                if client in ready:
                    seq, token, fn_bytes, item = _recv_message(client, 4, "task")
                    child.send((int(seq), int(token), fn_bytes, item))
                    busy = int(seq)
        except (EOFError, OSError):
            # The client vanished or spoke garbage.  Either way this
            # connection is over; fall through to the abort below.
            pass
        finally:
            if busy is not None:
                # The client is gone with a cell still running: kill the
                # child so the next client starts against an idle agent.
                self._teardown_child()

    def _relay_replies(
        self, client: Connection, child: LocalProcessTransport, busy: Optional[int]
    ) -> Optional[int]:
        """Forward every buffered child reply to the client."""
        while True:
            try:
                if not child.poll():
                    return busy
                reply = child.recv()
            except (EOFError, OSError):
                return busy  # child pipe died: the liveness check respawns it
            if busy == reply[0]:
                busy = None
            # A send failure here is the *client* connection dying; let
            # it propagate so the outer handler aborts this connection.
            client.send(reply)

    # -- child management -----------------------------------------------------------------

    def _ensure_child(self) -> LocalProcessTransport:
        child = self._child
        if child is None or not child.is_alive():
            self._teardown_child()
            child = LocalProcessTransport(self._ctx)
            self._child = child
        return child

    def _teardown_child(self) -> None:
        child, self._child = self._child, None
        if child is not None:
            child.terminate()


# -- CLI ----------------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.experiments.remote --listen host:port`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.remote",
        description=(
            "Standalone TCP worker agent for AsyncBackend(endpoint=...). "
            f"Clients must hold the same {AUTHKEY_ENV} key (see docs/distributed.md)."
        ),
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (port 0 picks an ephemeral port, printed at startup)",
    )
    args = parser.parse_args(None if argv is None else list(argv))
    try:
        agent = WorkerAgent(*_parse_hostport(args.listen, " for --listen", min_port=0))
    except ValueError as exc:
        parser.error(str(exc))
    print(
        f"repro worker agent listening on tcp://{agent.host}:{agent.port} "
        f"(protocol v{PROTOCOL_VERSION})",
        flush=True,
    )
    try:
        agent.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        agent.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
