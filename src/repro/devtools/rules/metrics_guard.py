"""ISO001 — metrics/tracer calls on hot paths must cost nothing when off.

The observability layer's contract (PR 2, ``docs/observability.md``) is
*zero overhead when disabled*: hot-path modules only talk to metrics
through null objects (``NULL_TRACER`` / ``NULL_REGISTRY`` /
``PipelineInstruments`` over a null registry) or behind an explicit
``if <registry>.enabled`` guard.  A metric call on a receiver that is
neither provably a null object nor guarded re-introduces per-chunk
overhead for every caller that never asked for metrics — exactly the
regression class this rule exists to stop.

The null-object proof is intraprocedural but covers the repo's idioms:

* names assigned an expression mentioning ``NULL_TRACER`` or
  ``NULL_REGISTRY`` (including conditional expressions);
* names assigned ``PipelineInstruments(...)`` (null over a null
  registry);
* parameters whose default is one of the null objects;
* names assigned from a call to a local factory whose body can return
  a null object (e.g. ``tracer = self._tracer()``);
* names copied from any of the above (fixpoint over assignments).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.astutil import walk_with_ancestors
from repro.devtools.engine import Finding, Rule, SourceModule

__all__ = ["MetricsGuardRule"]

#: Modules whose per-chunk loops must stay metric-free when disabled.
DEFAULT_HOT_MODULES = frozenset(
    {
        "repro.core.pipeline",
        "repro.core.stream",
        "repro.analysis.bytefreq",
    }
)

#: Receiver tokens that mark a call as metrics/tracing machinery.
_RECEIVER_RE = re.compile(r"^_?(instruments|metrics|tracer|stream_tracer|registry)$")

#: Recording methods on instruments, tracers and registries.
_METRIC_METHODS = frozenset(
    {
        "inc",
        "observe",
        "set",
        "add",
        "record_chunk_outcome",
        "counter",
        "gauge",
        "histogram",
    }
)

#: Names whose appearance in an assigned expression proves null-object
#: behaviour when metrics are disabled.
_NULL_OBJECTS = frozenset({"NULL_TRACER", "NULL_REGISTRY"})

#: Constructors that wrap a (possibly null) registry in null-safe
#: instruments.
_NULL_SAFE_CONSTRUCTORS = frozenset({"PipelineInstruments"})

#: Names in a guard test that prove the metrics path is opt-in.
_GUARD_NAMES = frozenset({"enabled", "metrics", "collect_metrics"})


def _call_chain(func: ast.AST) -> list[str] | None:
    """Flatten ``a.b().c.d`` into ``["a", "b", "c", "d"]``.

    Unlike :func:`~repro.devtools.astutil.dotted_name` this walks
    through intermediate calls, so ``registry.counter("x").inc`` keeps
    its full receiver chain.
    """
    parts: list[str] = []
    node = func
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        else:
            return None


def _mentions_null_object(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in _NULL_OBJECTS
        for sub in ast.walk(node)
    )


def _target_names(target: ast.AST) -> Iterator[str]:
    """Safe-set keys for an assignment target (``x`` or ``self.x``)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _value_terminal(node: ast.AST) -> str | None:
    """Terminal token of a plain copy (``x`` / ``self.x``), else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class MetricsGuardRule(Rule):
    """ISO001: unguarded metrics/tracer call in a hot-path module."""

    rule_id = "ISO001"
    title = "hot-path metrics calls must be null-object or guard protected"
    hint = (
        "route the call through a null-object receiver (NULL_TRACER / "
        "PipelineInstruments) or wrap it in `if <registry>.enabled:`"
    )

    def __init__(self, hot_modules: Iterable[str] | None = None):
        self.hot_modules = frozenset(
            DEFAULT_HOT_MODULES if hot_modules is None else hot_modules
        )

    # -- null-object analysis ---------------------------------------------

    def _factory_names(self, tree: ast.Module) -> set[str]:
        """Functions that can return a null object (tracer factories)."""
        factories: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Return)
                        and sub.value is not None
                        and _mentions_null_object(sub.value)
                    ):
                        factories.add(node.name)
                        break
        return factories

    def _null_safe_names(self, tree: ast.Module) -> set[str]:
        """Fixpoint set of names proven to be null objects when off."""
        safe: set[str] = set()
        factories = self._factory_names(tree)
        assignments: list[tuple[ast.AST, ast.AST]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    assignments.append((target, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assignments.append((node.target, node.value))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                pos = args.posonlyargs + args.args
                defaults = args.defaults
                for arg, default in zip(pos[len(pos) - len(defaults):], defaults):
                    if _mentions_null_object(default):
                        safe.add(arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None and _mentions_null_object(default):
                        safe.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for target, value in assignments:
                is_safe = _mentions_null_object(value)
                if not is_safe and isinstance(value, ast.Call):
                    chain = _call_chain(value.func)
                    if chain is not None and (
                        chain[-1] in _NULL_SAFE_CONSTRUCTORS
                        or chain[-1] in factories
                    ):
                        is_safe = True
                if not is_safe:
                    terminal = _value_terminal(value)
                    is_safe = terminal is not None and terminal in safe
                if is_safe:
                    for name in _target_names(target):
                        if name not in safe:
                            safe.add(name)
                            changed = True
        return safe

    # -- guard analysis ---------------------------------------------------

    def _test_guards_metrics(self, test: ast.AST) -> bool:
        """Whether an ``if`` test proves the metrics path is opt-in."""
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and (
                sub.attr == "enabled" or _RECEIVER_RE.match(sub.attr)
            ):
                return True
            if isinstance(sub, ast.Name) and (
                sub.id in _GUARD_NAMES or _RECEIVER_RE.match(sub.id)
            ):
                return True
        return False

    def _is_guarded(self, ancestors: tuple[ast.AST, ...]) -> bool:
        for node in ancestors:
            if isinstance(node, (ast.If, ast.IfExp)) and (
                self._test_guards_metrics(node.test)
            ):
                return True
        return False

    # -- rule entry point -------------------------------------------------

    def _is_metric_call(self, node: ast.AST, safe: set[str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = _call_chain(node.func)
        if chain is None or len(chain) < 2:
            return False
        method = chain[-1]
        receiver = chain[:-1]
        if method not in _METRIC_METHODS:
            return False
        if not any(_RECEIVER_RE.match(token) for token in receiver):
            return False
        return not any(
            token in safe for token in receiver if token != "self"
        )

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if mod.module not in self.hot_modules:
            return
        safe = self._null_safe_names(mod.tree)
        for node, ancestors in walk_with_ancestors(mod.tree):
            if not self._is_metric_call(node, safe):
                continue
            # `registry.counter("x").inc()` matches twice (inner and
            # outer call); report only the outermost expression.
            if any(self._is_metric_call(outer, safe) for outer in ancestors):
                continue
            if self._is_guarded(ancestors):
                continue
            chain = _call_chain(node.func) or []
            yield self.finding(
                mod,
                node,
                f"metrics call `{'.'.join(chain)}(...)` on the hot path is "
                "neither null-object backed nor guarded by an enabled check",
            )
