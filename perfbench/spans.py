"""In-memory spans around calls into the package's public functions.

A span records a name, start and end (``time.perf_counter`` seconds), the
span open when it began (its parent), and a run id: a span opened with
``new_run=True`` starts a new run and every span nested inside it inherits
that id.  Spans stay in memory until the caller writes them out.

``Tracer.wrap`` replaces one module attribute with a timing wrapper.  Python
resolves a module-level name at call time, so wrapping
``pavlov_cycle.dynamics.advance`` also times the calls that
``run_until_absorbed`` makes to it; a name another module imported by value
(``cli.threshold_bisect``) is a separate binding and is wrapped separately.
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int  # -1 at top level
    run: int  # -1 outside any run
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._runs = 0
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, new_run: bool = False) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if new_run:
            run = self._runs
            self._runs += 1
        else:
            run = parent.run if parent else -1
        sp = Span(len(self.spans), parent.id if parent else -1, run, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        new_run: bool = False,
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[tuple, dict, Any, Any], dict] | None = None,
    ) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``before(args, kwargs)`` runs just before the call and its value is
        handed to ``after(args, kwargs, result, before_value)``, whose dict
        is stored on the span (step counts, bytes written, exit codes).
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, new_run) as sp:
                pre = before(args, kwargs) if before else None
                result = original(*args, **kwargs)
                if after:
                    sp.attrs.update(after(args, kwargs, result, pre))
                return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct child spans cover.

        Children of one span run one after another, so their durations add
        up without overlap.
        """
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.duration
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for sp, own in zip(self.spans, self.self_times()):
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(sp) for sp in self.spans], handle)
