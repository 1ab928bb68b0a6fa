"""Span recorder that wraps dgame's public functions from outside the package.

Each wrapped function is replaced at every ``dgame.*`` module attribute that
binds it.  Callers inside the package look such names up in their own module
globals at call time, so inner calls are recorded too.  ``scipy.optimize.root``
is wrapped where ``dgame.forward`` binds it.  Spans stay in memory as
``[name, start, end, parent, invocation]`` lists until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "pencil", "game", "feedback", "forward", "inverse", "linalg")

# cli.main's own time is the front end (parsing, validation, formatting,
# writing), so the cmd_* bodies stay inside its span.
CLI_FUNCTIONS = ("main", "load_problem")


def _public_functions(module) -> list[str]:
    names = CLI_FUNCTIONS if module.__name__ == "dgame.cli" else module.__all__
    return [n for n in names
            if inspect.isfunction(getattr(module, n))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    """Records nested spans; ``invocation`` tags the spans of one CLI call."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"dgame.{layer}") for layer in LAYERS]
        package = importlib.import_module("dgame")
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for fname in _public_functions(module):
                fn = getattr(module, fname)
                wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        forward = modules[LAYERS.index("forward")]
        self._patch(forward, "root", self._wrap("forward.root", forward.root))

    def _patch(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, old in reversed(self._patches):
            setattr(module, attr, old)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def aggregate(spans, invocations) -> dict:
    """Per span name: calls, total and self seconds over the spans whose
    invocation is in ``invocations``.

    Self time is a span's duration minus its direct children's; a span
    nested in a span of the same name adds to calls but not to total.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent, inv) in enumerate(spans):
        if inv not in invocations:
            continue
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["total_s"] += end - start
    return out
