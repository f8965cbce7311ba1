"""Concurrency contracts for the scheduler/backends layer.

ASY001 (whole-program): nothing reachable from an ``async def`` in
``repro.experiments.scheduler`` / ``repro.experiments.backends`` may
block the event loop — no ``time.sleep``, no direct
``multiprocessing.connection.wait``/``select`` calls, no unguarded
``Connection.recv()`` and no unbounded ``Process.join()``.  The
AsyncScheduler's dispatch loop is a plain thread that blocks only in
its one bounded ``connection.wait`` tick; any event loop added to this
layer must not block at all, because one blocking call there would
stall retry timers, backpressure and heartbeats for the whole fleet,
which shows up as flaky timeout tests rather than an obvious failure.
Reachability comes from the project call graph, so a blocking call
hidden two helpers deep is still found.

ASY002 (per-file): every ``Pipe``/``Process``/executor resource
acquired inside a function in those modules must be closed/joined on
all exception paths, or handed off (stored on ``self``, passed to a
constructor, returned).  Leaked pipes keep worker processes alive past
scheduler shutdown and exhaust file descriptors over a long sweep.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.checks.astutil import ImportMap, call_name
from repro.checks.findings import Finding
from repro.checks.project import Project
from repro.checks.registry import ProjectRule, Rule, register
from repro.checks.source import ModuleSource

#: The concurrency layer both rules scope themselves to.
_CONCURRENCY_MODULES = ("repro.experiments.scheduler", "repro.experiments.backends")

#: Dotted call targets that block the calling thread outright.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep blocks the event loop; use asyncio.sleep or run_in_executor",
    "multiprocessing.connection.wait": (
        "multiprocessing.connection.wait blocks the event loop; route it "
        "through loop.run_in_executor"
    ),
    "select.select": "select.select blocks the event loop; use run_in_executor",
    "selectors.DefaultSelector.select": "a blocking selector call stalls the event loop",
}

#: Receiver-name fragments that identify a process/thread handle.
_PROCESS_HINTS = ("process", "proc", "thread", "worker")


def _receiver_key(node: ast.expr) -> str:
    """A stable identity for a receiver expression (``worker.conn`` …)."""
    return ast.dump(node)


def _attr_chain(node: ast.expr) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


@register
class AsyncBlockingRule(ProjectRule):
    """ASY001: no blocking calls reachable from the async dispatch loop."""

    id = "ASY001"
    summary = "no blocking I/O, time.sleep or unbounded join reachable from async code in the scheduler layer"
    rationale = (
        "An event loop in the scheduler layer multiplexes every worker "
        "it serves; a single blocking call in anything it awaits stalls "
        "retries, backpressure and heartbeats fleet-wide. The contract is "
        "checked transitively over the project call graph because the "
        "blocking call is never in the async def itself — it hides in a "
        "sync helper two frames down."
    )
    packages = _CONCURRENCY_MODULES

    def check(self, project: Project) -> Iterator[Finding]:
        scope_modules = {
            name
            for name in project.modules
            if any(name == m or name.startswith(m + ".") for m in _CONCURRENCY_MODULES)
        }
        if not scope_modules:
            return
        roots = [
            fq
            for fq, definition in sorted(project.definitions.items())
            if definition.is_async and definition.module in scope_modules
        ]
        reachable = project.reachable_from(roots, within_modules=scope_modules)
        for fq in sorted(reachable):
            definition = project.definitions[fq]
            if definition.kind == "class":
                continue
            source = project.modules[definition.module]
            imap = project.import_maps[definition.module]
            yield from self._scan_function(source, imap, fq, definition.node)

    def _scan_function(
        self, source: ModuleSource, imap: ImportMap, fq: str, func: ast.AST
    ) -> Iterator[Finding]:
        body = getattr(func, "body", [])
        for stmt in body:
            yield from self._scan(source, imap, fq, stmt, guards=frozenset())

    def _scan(
        self,
        source: ModuleSource,
        imap: ImportMap,
        fq: str,
        node: ast.AST,
        guards: "frozenset[str]",
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs are separate call-graph nodes
        if isinstance(node, ast.Call):
            yield from self._check_call(source, imap, fq, node, guards)
        child_guards = guards
        if isinstance(node, (ast.While, ast.If)):
            child_guards = guards | self._poll_guards(node.test)
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Call):
                    yield from self._check_call(source, imap, fq, sub, guards)
            for stmt in node.body:
                yield from self._scan(source, imap, fq, stmt, child_guards)
            for stmt in node.orelse:
                yield from self._scan(source, imap, fq, stmt, guards)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._scan(source, imap, fq, child, child_guards)

    @staticmethod
    def _poll_guards(test: ast.expr) -> Set[str]:
        """Receivers whose ``.poll()`` result gates the guarded body."""
        guards: Set[str] = set()
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "poll"
            ):
                guards.add(_receiver_key(node.func.value))
        return guards

    def _check_call(
        self,
        source: ModuleSource,
        imap: ImportMap,
        fq: str,
        call: ast.Call,
        guards: "frozenset[str] | Set[str]",
    ) -> Iterator[Finding]:
        resolved = imap.resolve(call.func)
        if resolved is not None and resolved in _BLOCKING_CALLS:
            yield self.finding(
                source.path,
                call.lineno,
                call.col_offset,
                f"{_BLOCKING_CALLS[resolved]} (reachable from async code via {fq})",
            )
            return
        if not isinstance(call.func, ast.Attribute):
            return
        attr = call.func.attr
        if attr == "recv":
            if _receiver_key(call.func.value) not in guards:
                yield self.finding(
                    source.path,
                    call.lineno,
                    call.col_offset,
                    "Connection.recv() without a poll() guard can block the "
                    f"dispatch loop (reachable from async code via {fq}); guard "
                    "with .poll() or move the read to an executor",
                )
        elif attr == "join":
            chain = [part.lower() for part in _attr_chain(call.func.value)]
            is_process = any(hint in part for part in chain for hint in _PROCESS_HINTS)
            has_timeout = bool(call.args) or any(kw.arg == "timeout" for kw in call.keywords)
            if is_process and not has_timeout:
                yield self.finding(
                    source.path,
                    call.lineno,
                    call.col_offset,
                    "unbounded .join() on a process/thread handle can block the "
                    f"dispatch loop (reachable from async code via {fq}); pass a "
                    "timeout or join in an executor",
                )


# --- ASY002 ------------------------------------------------------------------------------------

#: Constructors whose result owns an OS resource needing release.
_RESOURCE_CTORS = frozenset(
    {"Pipe", "Process", "Popen", "Thread", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)

#: Method names that release such a resource.
_RELEASE_METHODS = frozenset({"close", "terminate", "kill", "join", "shutdown"})


@register
class ResourceLifecycleRule(Rule):
    """ASY002: acquired Connection/Process resources are released on all paths."""

    id = "ASY002"
    summary = "Pipe/Process/executor resources acquired in the scheduler layer are closed/joined on all exception paths"
    rationale = (
        "The dispatch loop acquires pipes and worker processes in bulk; "
        "one leaked Connection keeps its worker alive past shutdown and "
        "a long sweep exhausts file descriptors. A resource must be "
        "released on every path (finally/with), or ownership must "
        "visibly move — stored on self, passed to a constructor, or "
        "returned."
    )
    packages = _CONCURRENCY_MODULES

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node)

    def _check_function(
        self, source: ModuleSource, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        acquisitions = self._acquisitions(func)
        if not acquisitions:
            return
        for name, acquired in acquisitions:
            if self._escapes(func, name, acquired):
                continue
            releases = self._releases(func, name)
            if not releases:
                yield self.finding(
                    source,
                    acquired.lineno,
                    acquired.col_offset,
                    f"{name!r} acquired here is never closed/joined and never "
                    "leaves this function; release it in a finally block or a "
                    "with statement",
                )
                continue
            if not self._release_is_exception_safe(func, acquired, releases):
                yield self.finding(
                    source,
                    acquired.lineno,
                    acquired.col_offset,
                    f"{name!r} is released only on the straight-line path; a "
                    "call between acquisition and release can raise and leak "
                    "it — move the release into a finally block",
                )

    @staticmethod
    def _scope_statements(func: ast.AST) -> Iterator[ast.AST]:
        """All nodes in the function, excluding nested function scopes."""
        stack: List[ast.AST] = list(getattr(func, "body", []))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def _acquisitions(self, func: ast.AST) -> List[Tuple[str, ast.stmt]]:
        found: List[Tuple[str, ast.stmt]] = []
        for node in self._scope_statements(func):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            ctor = call_name(node.value.func)
            if ctor not in _RESOURCE_CTORS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.append((target.id, node))
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            found.append((element.id, node))
        return found

    def _escapes(self, func: ast.AST, name: str, acquired: ast.stmt) -> bool:
        """Ownership visibly leaves the function (or enters a manager)."""
        for node in self._scope_statements(func):
            if node is acquired:
                continue
            if isinstance(node, ast.Call):
                for argument in [*node.args, *[kw.value for kw in node.keywords]]:
                    if self._mentions(argument, name):
                        return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and self._mentions(node.value, name):
                    return True
            elif isinstance(node, ast.Assign):
                stored = any(
                    isinstance(target, (ast.Attribute, ast.Subscript)) for target in node.targets
                )
                if stored and self._mentions(node.value, name):
                    return True
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, (ast.Attribute, ast.Subscript))
                    and node.value is not None
                    and self._mentions(node.value, name)
                ):
                    return True
            elif isinstance(node, ast.withitem):
                if self._mentions(node.context_expr, name):
                    return True
        return False

    @staticmethod
    def _mentions(expr: ast.expr, name: str) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id == name for node in ast.walk(expr)
        )

    def _releases(self, func: ast.AST, name: str) -> List[ast.Call]:
        calls: List[ast.Call] = []
        for node in self._scope_statements(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                calls.append(node)
        return calls

    def _release_is_exception_safe(
        self, func: ast.AST, acquired: ast.stmt, releases: Sequence[ast.Call]
    ) -> bool:
        protected: Set[int] = set()
        for node in self._scope_statements(func):
            if isinstance(node, ast.Try):
                for region in [*node.finalbody, *[h for handler in node.handlers for h in handler.body]]:
                    for sub in ast.walk(region):
                        protected.add(id(sub))
        if any(id(release) in protected for release in releases):
            return True
        # Straight-line release: fine only if nothing that can raise runs
        # between acquisition and the first release.
        first_release = min(release.lineno for release in releases)
        for node in self._scope_statements(func):
            if (
                isinstance(node, ast.Call)
                and node not in releases
                and acquired.lineno < node.lineno < first_release
            ):
                return False
        return True
