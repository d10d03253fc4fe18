"""Determinism / layering lint for the reproduction (AST-based).

Run as ``python -m repro.analysis.lint [paths...]`` (default: ``src/repro``
relative to the current directory, falling back to the installed package).
Exits non-zero when any rule fires.

Rules
-----
``wallclock``
    Every ``repro.*`` module must be a bit-deterministic function of the
    event queue: importing ``time``/``random``/``datetime`` or touching
    ``numpy.random`` injects wall-clock or ambient entropy and breaks
    reproducibility.  The only files allowed to read the host clock are
    named in ``WALLCLOCK_EXEMPT`` — only the bench CLI, which *measures*
    wall time.  An exempt file still may not feed wall-clock values back
    into simulated state; that is a review invariant, not a lint rule.

``bare-yield``
    Process coroutines communicate with the event kernel by yielding
    :class:`~repro.sim.Event` objects; a bare ``yield`` (or ``yield`` of a
    literal constant) is always a latent ``SimulationError`` at runtime.
    Functions decorated ``@contextmanager`` are exempt (their bare
    ``yield`` is the with-body marker, not an event).  Suppress other
    intentional cases with ``# pragma: no cover`` on the line.

``register-mutation``
    NTB register state (translation addresses/sizes, doorbell pending and
    mask bits, LUT entries, interrupt sinks) may only be mutated inside the
    device layer (``repro/ntb``).  Everything above must go through the
    driver API — poking ``endpoint.doorbell._pending`` from the runtime is
    how real drivers corrupt hardware state.

``bounded-wait``
    Inside ``repro/core`` every ``yield <something>.wait()`` is a wait
    that only a *remote* peer can complete (signals pulsed by service
    dispatch, reply events).  Such waits must go through
    :func:`repro.core.waits.remote_wait`, which bounds them with the
    link-state signal and the reply deadline so a severed cable raises
    ``PeerUnreachableError`` instead of hanging the simulation.  The
    helper module itself is exempt; purely local rendezvous can be
    suppressed with ``# lint: skip``.

``registered-wait``
    A spin/retry loop in ``repro/core`` (``while ...: yield
    <x>.timeout(...)``) is a blocking primitive: it can park a PE for
    unbounded simulated time.  Every such primitive must register with
    the wait-for graph through its one registration path — the enclosing
    function must call ``blocked_on`` or ``remote_wait`` — so a stalled
    run names what the PE is blocked on and the deadlock check sees the
    dependency.  Loops that are genuinely bounded (a fixed retry budget
    with a raise) can be suppressed with ``# lint: skip`` on the
    ``yield`` line.

``fixed-poll``
    A ``while`` loop in ``repro/core`` whose only yield is
    ``<x>.timeout(<numeric literal>)`` is a fixed-interval poll: the
    simulator executes every idle iteration of it (one kernel event, one
    generator resume and one re-scan of whatever the condition reads per
    period).  Waits on local state go through
    :func:`repro.core.waits.poll_wait`, which keeps the polled design's
    timing without running its idle ticks.  Suppress a loop that is
    bounded by construction with ``# lint: skip`` on the ``yield`` line.

``span-discipline``
    Observability spans must be statically balanced: outside ``repro/obsv``
    only the ``with scope.span(...)`` context manager may be used.  Calling
    the low-level ``span_open``/``span_close`` primitives elsewhere can
    leak an open span past quiescence (the invariant auditor's
    ``span-unbalanced`` check would fire at runtime; this rule catches it
    at lint time).  The one admitted exception is the
    ``begin_span``/``end_span`` pair, for a span whose two ends run in
    different event callbacks (a pipeline stage has no process, so no
    ``with`` block can span it); such a span is still covered by
    ``span-unbalanced`` at runtime.

Any line containing ``pragma: no cover`` or ``lint: skip`` is exempt from
all rules.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

__all__ = ["LintIssue", "lint_file", "lint_paths", "main"]

#: modules whose import anywhere under repro is a violation.
WALLCLOCK_MODULES = frozenset({"time", "random", "datetime"})

#: (package, filename) pairs allowed to read the host clock: the bench
#: CLI measures wall time by design.  Everything else in repro.* stays
#: banned; the trajectory benchmark owns every other wall-clock figure.
WALLCLOCK_EXEMPT = frozenset({
    ("bench", "__main__.py"),
})

#: attribute names that are NTB register state (the register-mutation rule).
REGISTER_ATTRS = frozenset({
    "translation_address", "translation_size", "enabled",
    "_pending", "_mask", "_entries", "interrupt_sink",
})

#: package allowed to mutate register state.
DEVICE_PACKAGE = "ntb"

#: low-level span primitives (the span-discipline rule) and the only
#: package allowed to call them.
SPAN_PRIMITIVES = frozenset({"span_open", "span_close"})
OBSV_PACKAGE = "obsv"

#: package whose remote waits must be bounded (the bounded-wait rule)
#: and the helper module allowed to implement the raw wait.
CORE_PACKAGE = "core"
BOUNDED_WAIT_EXEMPT_FILES = frozenset({"waits.py"})

_SUPPRESS_MARKERS = ("pragma: no cover", "lint: skip")


@dataclass(frozen=True)
class LintIssue:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _repro_package(path: Path) -> Optional[str]:
    """The first package under ``repro`` that ``path`` belongs to."""
    parts = path.parts
    for index, part in enumerate(parts):
        if part == "repro" and index + 1 < len(parts):
            return parts[index + 1]
    return None


def _suppressed(source_lines: Sequence[str], lineno: int) -> bool:
    if 1 <= lineno <= len(source_lines):
        line = source_lines[lineno - 1]
        return any(marker in line for marker in _SUPPRESS_MARKERS)
    return False


class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path, source_lines: Sequence[str]) -> None:
        self.path = path
        self.source_lines = source_lines
        self.package = _repro_package(path)
        self.issues: List[LintIssue] = []
        self._func_stack: List[ast.AST] = []
        #: functions already known to touch the wait graph (id(node)).
        self._registered_funcs: dict[int, bool] = {}
        self._contextmanager_depth = 0

    # ------------------------------------------------------------- helpers
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        if _suppressed(self.source_lines, lineno):
            return
        self.issues.append(
            LintIssue(str(self.path), lineno, rule, message)
        )

    @property
    def _wallclock_banned(self) -> bool:
        """True when this file may not read the host clock (almost all)."""
        return (self.package is not None
                and (self.package, self.path.name) not in WALLCLOCK_EXEMPT)

    # ------------------------------------------------- scope bookkeeping
    @staticmethod
    def _is_contextmanager(node: ast.AST) -> bool:
        for decorator in getattr(node, "decorator_list", []):
            name = decorator.attr if isinstance(decorator, ast.Attribute) \
                else getattr(decorator, "id", None)
            if name in ("contextmanager", "asynccontextmanager"):
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        is_cm = self._is_contextmanager(node)
        self._func_stack.append(node)
        self._contextmanager_depth += is_cm
        try:
            self.generic_visit(node)
        finally:
            self._contextmanager_depth -= is_cm
            self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        is_cm = self._is_contextmanager(node)
        self._func_stack.append(node)
        self._contextmanager_depth += is_cm
        try:
            self.generic_visit(node)
        finally:
            self._contextmanager_depth -= is_cm
            self._func_stack.pop()

    # ------------------------------------------------------- rule: wallclock
    def visit_Import(self, node: ast.Import) -> None:
        if self._wallclock_banned:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in WALLCLOCK_MODULES:
                    self._emit(
                        node, "wallclock",
                        f"import of {alias.name!r} in package "
                        f"{self.package!r} (wall-clock/entropy breaks "
                        f"determinism; only WALLCLOCK_EXEMPT files may "
                        f"read the host clock)",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._wallclock_banned and node.module:
            root = node.module.split(".")[0]
            if root in WALLCLOCK_MODULES:
                self._emit(
                    node, "wallclock",
                    f"import from {node.module!r} in package "
                    f"{self.package!r} (wall-clock/entropy breaks "
                    f"determinism; only WALLCLOCK_EXEMPT files may "
                    f"read the host clock)",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # numpy.random (np.random.*) carries ambient global RNG state.
        if self._wallclock_banned and node.attr == "random":
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
                self._emit(
                    node, "wallclock",
                    "numpy.random in a repro package uses ambient "
                    "global RNG state; thread an explicit Generator "
                    "through the config instead",
                )
        self.generic_visit(node)

    # --------------------------------------------- rule: span-discipline
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in SPAN_PRIMITIVES
                and self.package is not None
                and self.package != OBSV_PACKAGE):
            self._emit(
                node, "span-discipline",
                f"call to low-level {func.attr!r} outside repro/obsv: "
                f"use 'with scope.span(...)' so enter/exit stay balanced",
            )
        self.generic_visit(node)

    # ------------------------------------------------------- rule: bare-yield
    def visit_Yield(self, node: ast.Yield) -> None:
        if self._contextmanager_depth:
            self.generic_visit(node)
            return
        if node.value is None:
            self._emit(
                node, "bare-yield",
                "bare 'yield' in a coroutine: the event kernel requires "
                "yielding an Event (this raises SimulationError at "
                "runtime)",
            )
        elif isinstance(node.value, ast.Constant):
            self._emit(
                node, "bare-yield",
                f"'yield {node.value.value!r}': process coroutines must "
                f"yield Event objects, not constants",
            )
        elif (self.package == CORE_PACKAGE
              and self.path.name not in BOUNDED_WAIT_EXEMPT_FILES
              and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr == "wait"):
            self._emit(
                node, "bounded-wait",
                "direct 'yield <x>.wait()' in repro/core: remote-reply "
                "waits must go through core.waits.remote_wait so a dead "
                "link raises PeerUnreachableError instead of hanging "
                "(purely local rendezvous: add '# lint: skip')",
            )
        self.generic_visit(node)

    # --------------------------------------------- rule: registered-wait
    _WAIT_GRAPH_NAMES = frozenset({"blocked_on", "remote_wait"})

    def _touches_wait_graph(self, func: ast.AST) -> bool:
        cached = self._registered_funcs.get(id(func))
        if cached is not None:
            return cached
        touches = False
        for child in ast.walk(func):
            if isinstance(child, ast.Attribute) \
                    and child.attr in self._WAIT_GRAPH_NAMES:
                touches = True
                break
            if isinstance(child, ast.Name) \
                    and child.id in self._WAIT_GRAPH_NAMES:
                touches = True
                break
        self._registered_funcs[id(func)] = touches
        return touches

    @staticmethod
    def _is_literal_timeout(node: ast.AST) -> bool:
        value = getattr(node, "value", None)
        return (isinstance(node, ast.Yield)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "timeout"
                and bool(value.args)
                and isinstance(value.args[0], ast.Constant)
                and isinstance(value.args[0].value, (int, float)))

    def _check_fixed_poll(self, node: ast.While) -> None:
        yields = [child for child in ast.walk(node)
                  if isinstance(child, (ast.Yield, ast.YieldFrom))]
        if not yields or not all(map(self._is_literal_timeout, yields)):
            return
        for child in yields:
            # A nested loop would report the same yield once per
            # enclosing loop.
            if any(issue.rule == "fixed-poll" and issue.line == child.lineno
                   for issue in self.issues):
                continue
            self._emit(
                child, "fixed-poll",
                "fixed-interval poll loop ('while ...: yield "
                "<x>.timeout(<literal>)') in repro/core: every idle "
                "iteration is a simulated event; wait through "
                "core.waits.poll_wait (bounded by construction: add "
                "'# lint: skip' on the yield line)",
            )

    def visit_While(self, node: ast.While) -> None:
        if self.package == CORE_PACKAGE:
            self._check_fixed_poll(node)
        if (self.package == CORE_PACKAGE
                and self.path.name not in BOUNDED_WAIT_EXEMPT_FILES
                and self._func_stack
                and not self._touches_wait_graph(self._func_stack[-1])):
            for child in ast.walk(node):
                if (isinstance(child, ast.Yield)
                        and isinstance(child.value, ast.Call)
                        and isinstance(child.value.func, ast.Attribute)
                        and child.value.func.attr == "timeout"):
                    self._emit(
                        child, "registered-wait",
                        "spin loop ('while ...: yield <x>.timeout(...)') "
                        "in repro/core without wait-for-graph "
                        "registration: blocking primitives register "
                        "through blocked_on / remote_wait so a stalled "
                        "run names what it is blocked on (bounded "
                        "retries: add '# lint: skip' on the yield line)",
                    )
        self.generic_visit(node)

    # ------------------------------------------- rule: register-mutation
    def _check_register_target(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in REGISTER_ATTRS:
            return
        base = target.value
        # A class mutating its own state (self.enabled = ...) is the
        # device implementing itself, not a layering violation.
        if isinstance(base, ast.Name) and base.id == "self":
            return
        self._emit(
            target, "register-mutation",
            f"assignment to NTB register attribute {target.attr!r} "
            f"outside the device layer; use the NtbDriver API",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.package != DEVICE_PACKAGE:
            for target in node.targets:
                self._check_register_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.package != DEVICE_PACKAGE:
            self._check_register_target(node.target)
        self.generic_visit(node)


def lint_file(path: Path) -> List[LintIssue]:
    """Lint one python source file; returns its issues (possibly empty)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [LintIssue(str(path), exc.lineno or 1, "syntax",
                          f"cannot parse: {exc.msg}")]
    checker = _Checker(path, source.splitlines())
    checker.visit(tree)
    return checker.issues


def lint_paths(paths: Iterable[Path]) -> List[LintIssue]:
    """Lint every ``.py`` file under the given files/directories."""
    issues: List[LintIssue] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                issues += lint_file(file)
        elif path.suffix == ".py":
            issues += lint_file(path)
    return issues


def _default_target() -> Path:
    candidate = Path("src/repro")
    if candidate.is_dir():
        return candidate
    # Fall back to the installed package location.
    return Path(__file__).resolve().parent.parent


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    targets = [Path(a) for a in args] or [_default_target()]
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(f"lint: no such path(s): {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    issues = lint_paths(targets)
    for issue in issues:
        print(issue)
    checked = sum(
        len(list(t.rglob("*.py"))) if t.is_dir() else 1 for t in targets
    )
    status = "clean" if not issues else f"{len(issues)} issue(s)"
    print(f"lint: {checked} file(s) checked, {status}")
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main())
