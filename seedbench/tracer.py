"""Outside-in span tracer for the seedbounds benchmark.

The package is never edited to be traced.  Instead the tracer replaces a
function at the site where the package looks it up at call time -- a
module global such as ``rng.weighted_pick``, a name imported into another
module such as ``harness.gen_kmeans_bad``, or a class attribute such as
``Instance.distpow_rows`` -- with a wrapper that times the call.  Every
replaced attribute is restored when the tracer's ``with`` block exits.

Per span name it aggregates the call count, inclusive seconds and self
seconds (inclusive minus the time of traced calls made inside it).  Self
times of all spans therefore add up to the traced wall time minus the
time spent outside any span.  Optional hooks turn call arguments into
work counters.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# hook(counts, parent_span, args, kwargs, result, child_calls)
Hook = Callable[[dict, "str | None", tuple, dict, Any, int], None]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0


class Tracer:
    """Wraps call sites while active; aggregates per-span timings and counts."""

    def __init__(self, sites):
        """``sites``: iterable of ``(owner, attr, span, hook_or_None)``.

        ``owner`` is a module or a class.  A site whose attribute does not
        exist on its owner is skipped, so its span simply reads zero.
        """
        self.sites = tuple(sites)
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []   # frames: [span, child seconds, child calls]
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.spans.values())

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, span, hook in self.sites:
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, span, hook))
                else:
                    wrapped = self._wrap(raw, span, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, span: str, hook: Hook | None):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = spans[span]
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    parent[2] += 1
            if hook is not None:
                hook(counts, parent[0] if parent else None, args, kwargs,
                     result, frame[2])
            return result

        return traced
