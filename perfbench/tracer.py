"""In-memory span recorder that wraps ``repro`` functions from outside.

The traced benchmark run installs a :class:`Tracer` after set-up and
before the timed phase.  :meth:`Tracer.install` replaces each target
function wherever a loaded ``repro.*`` module binds it (drivers use
``from x import f``, so patching the defining module alone would miss
them) and replaces target methods and properties on their class.
Nothing under ``src/`` changes.

Every outermost call of a target opens a span ``[name, start, end,
parent, run_id]``; a call nested inside an open span of the same name
folds into it.  A span's *self time* is its duration minus the
durations of its direct child spans, so summing self time over every
span name accounts for each traced second exactly once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["Tracer"]


class Tracer:
    """Spans, counters and samples of one traced process."""

    def __init__(self, run_id: str = "") -> None:
        #: Spans of the current operation share this id (set by the caller).
        self.run_id = run_id
        self.spans: list[list[Any]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._open: defaultdict[str, int] = defaultdict(int)

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[[tuple, dict], str],
        after: Callable[["Tracer", tuple, dict, Any, float], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per outermost call.

        ``name`` may be a function of the call's ``(args, kwargs)``.
        ``after(tracer, args, kwargs, result, seconds)`` runs once the
        span has closed, so the counting it does is not charged to the
        layer.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = name if isinstance(name, str) else name(args, kwargs)
            if tracer._open[span]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span, 0.0, 0.0, parent, tracer.run_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer._open[span] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._open[span] -= 1
                tracer._stack.pop()
                tracer.counts[span + ".calls"] += 1
            if after is not None:
                after(tracer, args, kwargs, result, record[2] - record[1])
            return result

        return traced

    def install(
        self,
        module: str,
        attr: str,
        replace: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Swap ``module.attr`` (or ``module.Class.method``) for ``replace(it)``.

        A plain function is rebound in every loaded ``repro.*`` module
        namespace that holds the same object; a method or property is
        replaced on its class.
        """
        owner: Any = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:
            original = owner.__dict__[leaf]
            if isinstance(original, property):
                setattr(owner, leaf, property(replace(original.fget), original.fset))
            else:
                setattr(owner, leaf, replace(original))
            return
        original = getattr(owner, leaf)
        wrapped = replace(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # -- results -------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def inclusive_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _r in self.spans if n == name)

    def write_spans(self, path: Path) -> None:
        """Dump every span as one JSON line (name, start, end, parent, run)."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id},
                        sort_keys=True,
                    )
                    + "\n"
                )
