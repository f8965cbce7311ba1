"""Contract rules: PKL001 (picklable work), ENV001 (env seams), API001 (figure registry).

Each guards a cross-module seam whose breakage shows up far from the
offending line: an unpicklable callable handed to the worker pool
fails with ``TypeError`` at submission, on every platform; a stray ``os.environ``
read silently invalidates the README's env-var table; a ``FigurePlan``
without a ``PLOT_SPECS`` entry renders the stored run unplottable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.checks.astutil import import_aliases, nested_function_names, walk_with_functions
from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import ModuleSource


@register
class PicklableSubmissionRule(Rule):
    """PKL001: work submitted to ``map``/``imap`` must be picklable."""

    id = "PKL001"
    summary = "no lambdas, nested functions or open handles through map/imap call sites"
    rationale = (
        "ExecutorBackend.map/imap cross a process boundary: lambdas and "
        "closure-bound nested functions cannot be pickled, so the worker "
        "pool rejects them with TypeError on every platform, but only "
        "once the call runs with workers > 1. Submit module-level "
        "functions and plain-data arguments."
    )
    packages = ()

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        nested = nested_function_names(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("map", "imap") or not node.args:
                continue
            yield from self._check_callable(source, node.args[0], nested)
            for arg in [*node.args[1:], *[kw.value for kw in node.keywords]]:
                yield from self._check_payload(source, arg)

    def _check_callable(
        self, source: ModuleSource, func: ast.expr, nested: Dict[str, int]
    ) -> Iterator[Finding]:
        if isinstance(func, ast.Lambda):
            yield self.finding(
                source, func.lineno, func.col_offset,
                "lambda submitted through map/imap cannot be pickled; use a module-level function",
            )
        elif isinstance(func, ast.Name) and func.id in nested:
            yield self.finding(
                source, func.lineno, func.col_offset,
                f"{func.id!r} (nested function defined at line {nested[func.id]}) "
                "submitted through map/imap cannot be pickled; hoist it to module level",
            )
        elif isinstance(func, ast.Call) and self._is_partial(func.func) and func.args:
            yield from self._check_callable(source, func.args[0], nested)

    def _check_payload(self, source: ModuleSource, arg: ast.expr) -> Iterator[Finding]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self.finding(
                    source, node.lineno, node.col_offset,
                    "open file handle in a map/imap payload cannot cross the process boundary; pass the path",
                )

    @staticmethod
    def _is_partial(func: ast.expr) -> bool:
        return (isinstance(func, ast.Name) and func.id == "partial") or (
            isinstance(func, ast.Attribute) and func.attr == "partial"
        )


@register
class EnvironmentSeamRule(Rule):
    """ENV001: environment reads only in documented ``*_from_env`` seams."""

    id = "ENV001"
    summary = "os.environ/os.getenv reads only inside *_from_env config seams"
    rationale = (
        "The README documents every environment variable the package "
        "reads, and each one is read exactly once, in a function named "
        "*_from_env (workers_from_env, profile_from_env, …). A stray "
        "os.environ.get elsewhere is an undocumented knob that changes "
        "behaviour between hosts without appearing in any run manifest. "
        "Driver trees (benchmarks/, examples/) are gated too — a bench "
        "conftest knob is still a knob."
    )
    packages = ("repro", "benchmarks", "examples")

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(source.tree, ("os",))
        from_imports = self._env_from_imports(source.tree)
        for node, functions in walk_with_functions(source.tree):
            name = self._env_read_name(node, aliases, from_imports)
            if name is None:
                continue
            if any(
                isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and func.name.endswith("_from_env")
                for func in functions
            ):
                continue
            yield self.finding(
                source, node.lineno, node.col_offset,
                f"{name} read outside a *_from_env config seam; route it through "
                "a documented seam function so the README env-var table stays honest",
            )

    @staticmethod
    def _env_from_imports(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" and node.level == 0:
                for alias in node.names:
                    if alias.name in ("environ", "getenv"):
                        names.add(alias.asname or alias.name)
        return names

    @staticmethod
    def _env_read_name(
        node: ast.AST, aliases: Dict[str, str], from_imports: Set[str]
    ) -> Optional[str]:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if aliases.get(node.value.id) == "os" and node.attr in ("environ", "getenv"):
                return f"os.{node.attr}"
        if isinstance(node, ast.Name) and node.id in from_imports:
            return f"os.{node.id}"
        return None


@register
class FigureRegistryRule(Rule):
    """API001: every ``FigurePlan`` is registered, plotted and documented."""

    id = "API001"
    summary = "every FigurePlan has a PLOT_SPECS entry, a plot= spec and a builder docstring"
    rationale = (
        "python -m repro.plots renders stored runs purely from PLOT_SPECS; "
        "a FigurePlan whose name has no spec entry produces a run "
        "directory that cannot be plotted, and an undocumented builder "
        "hides which paper figure the plan reproduces."
    )
    packages = ("repro.experiments.figures",)

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        spec_names = self._plot_spec_names(source.tree)
        for node, functions in walk_with_functions(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id == "FigurePlan"):
                continue
            yield from self._check_plan(source, node, functions, spec_names)

    def _check_plan(
        self,
        source: ModuleSource,
        call: ast.Call,
        functions: Tuple[ast.AST, ...],
        spec_names: Optional[Set[str]],
    ) -> Iterator[Finding]:
        name = self._plan_name(call)
        if name is None:
            yield self.finding(
                source, call.lineno, call.col_offset,
                "FigurePlan name must be a string literal so the PLOT_SPECS pairing is checkable",
            )
        elif spec_names is not None and name not in spec_names:
            yield self.finding(
                source, call.lineno, call.col_offset,
                f"FigurePlan {name!r} has no PLOT_SPECS entry; register its PlotSpec "
                "so stored runs of this figure stay plottable",
            )
        if not any(kw.arg == "plot" for kw in call.keywords):
            yield self.finding(
                source, call.lineno, call.col_offset,
                f"FigurePlan {name or '<dynamic>'!r} does not pass plot=; attach its PlotSpec",
            )
        enclosing = functions[-1] if functions else None
        if isinstance(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(enclosing) is None:
                yield self.finding(
                    source, enclosing.lineno, enclosing.col_offset,
                    f"builder {enclosing.name}() constructs a FigurePlan but has no "
                    "docstring naming the paper figure it reproduces",
                )

    @staticmethod
    def _plan_name(call: ast.Call) -> Optional[str]:
        candidates: List[ast.expr] = []
        if call.args:
            candidates.append(call.args[0])
        candidates.extend(kw.value for kw in call.keywords if kw.arg == "name")
        for candidate in candidates:
            if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
                return candidate.value
        return None

    @staticmethod
    def _plot_spec_names(tree: ast.Module) -> Optional[Set[str]]:
        """Literal string keys of the module-level PLOT_SPECS dict, if present."""
        for node in tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if isinstance(target, ast.Name) and target.id == "PLOT_SPECS" and isinstance(value, ast.Dict):
                return {
                    key.value
                    for key in value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                }
        return None
