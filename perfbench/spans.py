"""Span recorder for the traced run.

Layer boundaries are wrapped from outside the program: each boundary
is a function name looked up in the module that calls it (for example
``driftinv.renewal.reg_lower_gamma`` is ``reg_lower_gamma`` as
``renewal.py`` sees it), so replacing that module attribute intercepts
every call the module makes.  Nothing in the program changes.

A span holds its name, start, end and parent.  Spans live in memory and
are written out when the run ends.  Hot leaf boundaries fire hundreds of
thousands of times per run, so every span is folded into per-name
aggregates (count, total, self time) and only the first ``KEEP_SPANS``
are kept as records.  Self time is a span's duration minus the time its
child spans cover; the time a counting hook takes is charged to neither.
"""

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

KEEP_SPANS = 20_000


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: ``target`` is "<module>.<attribute>".

    ``before(tracer, args, kwargs)`` may return replacement
    ``(args, kwargs)``; ``after(tracer, args, kwargs, result)`` updates
    counters.  Both run outside the span's own time.
    """

    layer: str
    target: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counters = Counter()
        self.totals = {}  # target -> [count, total_s, self_s]
        self.spans = []  # (id, parent_id, target, start, end)
        self.missing = []  # boundaries whose target does not exist
        self.hook_errors = Counter()  # target -> hooks that raised
        self.root_s = 0.0  # time under spans that have no parent
        self.seen = set()  # distinct values hooks were asked to remember
        self._stack = []  # frames: [child_s, span_id]
        self._next_id = 0
        self._installed = []  # (module, attribute, original)

    # -- installation -------------------------------------------------
    def install(self, boundaries) -> None:
        """Wrap every boundary that exists; record the rest as missing."""
        for b in boundaries:
            module_name, _, attr = b.target.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if b.target not in self.missing:
                    self.missing.append(b.target)
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(b, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    # -- recording ----------------------------------------------------
    def _wrap(self, b: Boundary, fn):
        tracer = self
        stack = self._stack
        clock = self.clock
        rec = self.totals.setdefault(b.target, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            h0 = clock()
            if b.before is not None:
                args, kwargs = tracer._run_hook(b, b.before, args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if parent < 0:
                    tracer.root_s += dur
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((span_id, parent, b.target, t0, t1))
            if b.after is not None:
                tracer._run_hook(b, b.after, args, kwargs, result)
            t2 = clock()
            if stack:
                # hooks are not the parent's own work either
                stack[-1][0] += t2 - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def _run_hook(self, b, hook, args, kwargs, *result):
        try:
            out = hook(self, args, kwargs, *result)
        except Exception:  # a renamed argument must not stop the run
            self.hook_errors[b.target] += 1
            return args, kwargs
        return out if out is not None else (args, kwargs)

    # -- summaries ----------------------------------------------------
    def self_time(self, targets) -> float:
        return sum(self.totals[t][2] for t in targets if t in self.totals)

    def calls(self, targets) -> int:
        return sum(self.totals[t][0] for t in targets if t in self.totals)

    def span_records(self):
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self.spans
        ]
