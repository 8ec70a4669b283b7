"""In-memory spans around the calls into each ewlsp module's public functions.

The spans are recorded from the benchmark's own files: a public function is
wrapped by rebinding its name in every module that holds it, because
`pipeline`, `ptas` and the benchmark import with `from ... import` and
rebinding only the defining module would miss their calls. Methods are
wrapped on their class. `Tracer.restore` puts every original back.

Each span is [label, start, end, parent index]; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

# Modules whose bindings are searched when a function is rebound.
PACKAGES = ("ewlsp", "perfbench")


@dataclass(frozen=True)
class Target:
    """A public function or method to wrap. `measure` maps (args, kwargs,
    result) of one call to the values of the extra `counters`, in order.
    With `span=False` only calls are counted, for accessors too hot to time
    call by call."""

    module: str
    name: str
    counters: tuple[str, ...] = ()
    measure: Callable[[tuple, dict, Any], tuple] | None = None
    span: bool = True

    @property
    def label(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, label: str):
        self.counts[f"{label}.calls"] += 1
        record = [label, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        label, counts, calls = target.label, self.counts, f"{target.label}.calls"
        if not target.span:

            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            with self.span(label):
                result = fn(*args, **kwargs)
            if target.measure is not None:
                for key, value in zip(target.counters, target.measure(args, kwargs, result)):
                    counts[f"{label}.{key}"] += value
            return result

        return traced

    # -- rebinding ----------------------------------------------------------

    def instrument(self, targets: list[Target]) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.name.rpartition(".")
            if owner_name:  # a method: rebind it on its class
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(target, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or name.split(".", 1)[0] not in PACKAGES or mod is sys.modules[__name__]:
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, binding, wrapper)

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading ------------------------------------------------------------

    def nesting_problems(self) -> list[str]:
        """Spans that end before they start or stick out of their parent."""
        problems = []
        for k, (label, start, end, parent) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {k} ({label}) ends before it starts")
            elif parent >= 0 and not self.spans[parent][1] <= start <= end <= self.spans[parent][2]:
                problems.append(f"span {k} ({label}) is not inside its parent {parent}")
        return problems

    def self_times(self, roots: set[str] | None = None) -> dict[str, float]:
        """Self time per label; with `roots`, only spans whose outermost
        ancestor carries one of those labels."""
        child = [0.0] * len(self.spans)
        root: list[int] = []
        for k, (_, start, end, parent) in enumerate(self.spans):
            root.append(k if parent < 0 else root[parent])
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (label, start, end, _) in enumerate(self.spans):
            if roots is None or self.spans[root[k]][0] in roots:
                totals[label] += end - start - child[k]
        return dict(totals)
