"""Concurrency contracts for the scheduler/backends layer.

ASY001 (whole-program): nothing reachable from
``AsyncScheduler._dispatch`` — the dispatch thread's loop — within
``repro.experiments.scheduler`` / ``repro.experiments.backends`` may
block that thread: no ``time.sleep``, no ``multiprocessing.connection.wait``
/ ``select`` call without a timeout, no unguarded ``Connection.recv()``
and no unbounded ``Process.join()``.  The loop's one sanctioned block
is its bounded ``connection.wait(..., _TICK_SECONDS)`` tick; anything
longer would stall retry timers, backpressure and timeouts for the
whole fleet, which shows up as flaky timeout tests rather than an
obvious failure.  Reachability comes from the project call graph
(nested helpers such as ``drain`` included), so a blocking call hidden
two helpers deep is still found.

ASY002 (per-file): every ``Pipe``/``Process``/executor/socket/
``Connection`` resource acquired inside a function in those modules —
and in ``repro.experiments.remote``, which owns the worker wire — must
be closed/joined on all exception paths, or handed off (stored on
``self``, passed to a call, returned).  Leaked pipes and sockets keep
workers alive past scheduler shutdown and exhaust file descriptors over
a long sweep.
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

#: The dispatch thread's loop: every ASY001 walk starts here.
_DISPATCH_ROOT = "repro.experiments.scheduler.AsyncScheduler._dispatch"

#: Dotted call targets that block the calling thread outright.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep blocks the dispatch thread; wait on the loop's tick instead",
    "multiprocessing.connection.wait": (
        "multiprocessing.connection.wait without a timeout blocks the dispatch thread; "
        "pass a bounded timeout such as _TICK_SECONDS"
    ),
    "select.select": "select.select without a timeout blocks the dispatch thread; pass a bounded timeout",
    "selectors.DefaultSelector.select": (
        "a selector call without a timeout blocks the dispatch thread; pass a bounded timeout"
    ),
}

#: Position of the ``timeout`` argument of the calls above that take one;
#: passing a timeout (positionally or by keyword, not ``None``) bounds the wait.
_TIMEOUT_POSITION = {
    "multiprocessing.connection.wait": 1,
    "select.select": 3,
    "selectors.DefaultSelector.select": 0,
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
    """ASY001: no blocking calls reachable from the scheduler's dispatch thread."""

    id = "ASY001"
    summary = "no blocking I/O, time.sleep or unbounded join reachable from AsyncScheduler._dispatch"
    rationale = (
        "The dispatch thread multiplexes every worker it serves and "
        "blocks only in its bounded connection.wait tick; a single "
        "blocking call in anything it runs stalls retries, backpressure "
        "and timeouts fleet-wide. The contract is checked transitively "
        "over the project call graph because the blocking call is never "
        "in the loop itself — it hides in a helper two frames down."
    )
    packages = _CONCURRENCY_MODULES

    @staticmethod
    def reachable(project: Project) -> Set[str]:
        """Definitions reachable from the dispatch loop inside the concurrency layer."""
        scope_modules = {
            name
            for name in project.modules
            if any(name == m or name.startswith(m + ".") for m in _CONCURRENCY_MODULES)
        }
        return project.reachable_from([_DISPATCH_ROOT], within_modules=scope_modules)

    def check(self, project: Project) -> Iterator[Finding]:
        for fq in sorted(self.reachable(project)):
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
            if not self._passes_timeout(call, _TIMEOUT_POSITION.get(resolved)):
                yield self.finding(
                    source.path,
                    call.lineno,
                    call.col_offset,
                    f"{_BLOCKING_CALLS[resolved]} (reachable from the dispatch thread via {fq})",
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
                    f"dispatch thread (reachable from the dispatch thread via {fq}); "
                    "guard it with .poll()",
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
                    f"dispatch thread (reachable from the dispatch thread via {fq}); "
                    "pass a timeout",
                )

    @staticmethod
    def _passes_timeout(call: ast.Call, position: Optional[int]) -> bool:
        """Whether ``call`` passes a non-``None`` timeout (``position`` is its positional slot)."""
        if position is None:
            return False
        given = [kw.value for kw in call.keywords if kw.arg == "timeout"]
        if len(call.args) > position:
            given.append(call.args[position])
        return any(not (isinstance(arg, ast.Constant) and arg.value is None) for arg in given)


# --- ASY002 ------------------------------------------------------------------------------------

#: Constructors whose result owns an OS resource needing release.
_RESOURCE_CTORS = frozenset(
    {
        "Pipe",
        "Process",
        "Popen",
        "Thread",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "socket",
        "create_connection",
        "Connection",
    }
)

#: ASY002 also covers the wire module, whose sockets and connections
#: leak just like pipes.  (ASY001 does not: the agent blocks in
#: ``connection.wait`` by design.)
_RESOURCE_MODULES = (*_CONCURRENCY_MODULES, "repro.experiments.remote")

#: Method names that release such a resource.
_RELEASE_METHODS = frozenset({"close", "terminate", "kill", "join", "shutdown"})


@register
class ResourceLifecycleRule(Rule):
    """ASY002: acquired Connection/Process resources are released on all paths."""

    id = "ASY002"
    summary = "Pipe/Process/executor/socket resources in the scheduler layer and the wire are released on all paths"
    rationale = (
        "The dispatch loop acquires pipes and worker processes in bulk; "
        "one leaked Connection keeps its worker alive past shutdown and "
        "a long sweep exhausts file descriptors. A resource must be "
        "released on every path (finally/with), or ownership must "
        "visibly move — stored on self, passed to a constructor, or "
        "returned."
    )
    packages = _RESOURCE_MODULES

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
