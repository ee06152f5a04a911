"""Span tracer for the benchmark's traced run.

Every public function defined in a module of the traced package (found by
its ``__module__``) is wrapped in a span recorder.  The wrapper is rebound at
every module-global binding in the package, not only on the defining module:
``experiments`` imports ``run_projective`` by name, so patching ``protocols``
alone would miss those calls.  A public function added later is traced
without editing the benchmark.  Methods are not wrapped: per-draw methods
such as ``SeededSampler.uniform`` would swamp the numbers.

The program is single-process and serial, so spans nest strictly and no
layer waits on another; waiting time is not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable, NamedTuple, Optional

HOOK_SPAN = "trace.hook"


class Span(NamedTuple):
    id: int
    name: str  # "<module>.<function>"
    layer: str  # short module name
    start: float
    end: float
    parent: Optional[int]


class Counters:
    """Work counts recorded by hooks: plain sums and distinct-key sets."""

    def __init__(self) -> None:
        self.sums: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)

    def add(self, name: str, value: float = 1) -> None:
        self.sums[name] += value

    def seen(self, name: str, key) -> None:
        self.keys[name].add(key)

    def distinct(self, name: str) -> int:
        return len(self.keys[name])


# hook(counters, arguments, result): arguments maps parameter names to values
Hook = Callable[[Counters, dict, object], None]


def package_modules(package: ModuleType) -> list[ModuleType]:
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(modules: list[ModuleType]) -> dict[Callable, str]:
    """Public functions defined in the given modules -> qualified name."""
    found = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                found[obj] = f"{mod.__name__}.{name}"
    return found


class Tracer:
    """Records one span per traced call while installed.

    ``hooks`` maps a qualified function name to a callback run after the
    call returns.  Hook time is recorded as a ``trace.hook`` child span so it
    is excluded from every layer's self time.
    """

    def __init__(
        self,
        package: ModuleType,
        hooks: Optional[dict[str, Hook]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.modules = package_modules(package)
        self.spans: list[Span] = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[ModuleType, str, Callable]] = []
        self._wrappers = {
            fn: self._wrap(fn, qual) for fn, qual in public_functions(self.modules).items()
        }
        unknown = set(self.hooks) - set(self.traced_names)
        if unknown:
            raise ValueError(f"hooks name untraced functions: {sorted(unknown)}")

    @property
    def traced_names(self) -> list[str]:
        return sorted(w.__wrapped_name__ for w in self._wrappers.values())

    def reset(self) -> None:
        self.spans = []
        self.counters = Counters()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, fn: Callable, qual: str) -> Callable:
        layer = qual.rsplit(".", 2)[-2]
        hook = self.hooks.get(qual)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._new_id()
            stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(Span(sid, qual, layer, start, end, parent))
            if hook is not None:
                h0 = tracer.clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counters, bound.arguments, result)
                h1 = tracer.clock()
                tracer.spans.append(
                    Span(tracer._new_id(), HOOK_SPAN, "trace", h0, h1, parent)
                )
            return result

        traced.__wrapped_name__ = qual
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Spans of a serial program nest without overlap, so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    child_total: defaultdict = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_total[s.id] for s in spans}


def summarize(spans: list[Span]) -> tuple[dict, dict]:
    """(per layer, per function) records of calls and self seconds.

    Function records also carry inclusive seconds, counted on outermost
    spans of that name only, so a function that calls itself is not
    counted twice.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    layers: defaultdict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    funcs: defaultdict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for s in spans:
        for rec in (layers[s.layer], funcs[s.name]):
            rec["calls"] += 1
            rec["self_s"] += own[s.id]
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            funcs[s.name]["incl_s"] += s.end - s.start
    return dict(layers), dict(funcs)
