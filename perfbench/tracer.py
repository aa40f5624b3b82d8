"""In-memory span tracer that wraps mfglab's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules
(the names in each module's ``__all__``) and every public method of their
public classes with a timing wrapper.  A module-level function is rebound
at every module attribute that refers to it, so calls made through a
``from .grid import diff`` binding, through the package namespace or
through the defining module's own globals are all counted.  ``restore``
puts every original back.

Each call appends one span ``(label, parent, start, end, error)`` to an
in-memory list; ``summary`` derives per-label call counts, total time and
self time (a span's duration minus the durations of its direct children).
No file of the library is touched.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from typing import Any, Callable, Optional

PACKAGE = "mfglab"
LAYERS = ("config", "grid", "basis", "coefficients", "weights", "verify",
          "models", "inverse", "statedet", "reports", "cli")

Observer = Callable[[tuple, dict, Any], Any]


class Tracer:
    """Wraps public callables of the ``mfglab.<layer>`` modules with spans.

    ``observers`` maps a span label to a function of (args, kwargs, result)
    whose return value is stored in ``observed[label]`` after each call that
    returned normally; it runs outside the span.
    """

    def __init__(self, observers: Optional[dict[str, Observer]] = None):
        self.observers = dict(observers or {})
        self.observed: dict[str, list[Any]] = {k: [] for k in self.observers}
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.originals: dict[str, Callable] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[types.FunctionType, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if _traceable(obj):
                        wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        # rebind module-level functions wherever a module holds a reference
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if not _traceable(fn):
                    continue
                new = type(raw)(self._wrap(fn, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw) and _traceable(raw):
                new = self._wrap(raw, f"{prefix}.{attr}")
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn: Callable, label: str) -> Callable:
        self.originals[label] = fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observer = self.observers.get(label)
        sink = self.observed.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            err = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, parent, t0, t1, err)
            if observer is not None:
                sink.append(observer(args, kwargs, result))
            return result

        return traced

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, Any]]:
        """label -> calls, total_s, self_s, errors (by exception name) and
        the list of span durations."""
        durations = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(self.spans)
        for dur, span in zip(durations, self.spans):
            if span[1] >= 0:
                child[span[1]] += dur
        out: dict[str, dict[str, Any]] = {}
        for i, (label, _parent, _t0, _t1, err) in enumerate(self.spans):
            rec = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "errors": {}, "durations": []})
            rec["calls"] += 1
            rec["total_s"] += durations[i]
            rec["self_s"] += durations[i] - child[i]
            rec["durations"].append(durations[i])
            if err is not None:
                rec["errors"][err] = rec["errors"].get(err, 0) + 1
        return out


def _traceable(fn: Callable) -> bool:
    # a wrapped generator would close its span before the body runs
    return not (inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn))
