"""Span tracing installed from outside the program.

:class:`Tracer` replaces public functions of the serving stack with thin
wrappers that record one span per call: name, start, end, parent span
and request id.  Self time (a span's duration minus the time its child
spans cover) and call counts are summed per span name as spans close, so
a long run needs no unbounded span list; the full span records of the
first ``KEEP_REQUESTS`` requests stay in memory and are written out when
the run ends.

Nothing under ``src/`` knows about the tracer: :meth:`Tracer.install`
patches class and module attributes and :meth:`Tracer.uninstall` puts
the originals back.  Objects that bind a method at construction (the
HTTP shell binds ``ServingApp.dispatch``) must therefore be built after
``install``.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "GcWatch"]

Namer = Callable[[tuple], str]
After = Callable[["Tracer", tuple, Any], None]


KEEP_REQUESTS = 200
"""Requests whose full span records are kept and written out."""


class Tracer:
    """Per-name span totals plus the raw spans of the first requests."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}
        """span name -> [calls, total seconds, self seconds]"""
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []
        """[request id, name, start, end, parent index] per kept span."""
        self.request_id = -1
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> list:
        keep = -1
        if 0 <= self.request_id < KEEP_REQUESTS:
            parent = self._stack[-1][3] if self._stack else -1
            keep = len(self.spans)
            self.spans.append([self.request_id, name, 0.0, 0.0, parent])
        frame = [name, 0.0, 0.0, keep]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, keep = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if keep >= 0:
            self.spans[keep][2] = start
            self.spans[keep][3] = end

    def request(self, fn: Callable, *args: Any) -> Any:
        """Run one request under a root span named ``request``."""
        self.request_id += 1
        frame = self._open("request")
        try:
            return fn(*args)
        finally:
            self._close(frame)

    def wrap(
        self,
        func: Callable,
        name: str | Namer,
        after: After | None = None,
    ) -> Callable:
        """``func`` recording a span per call; ``after`` sees the result."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = tracer._open(name(args) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Namer,
        after: After | None = None,
    ) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def install(self, points: list[tuple]) -> None:
        """Patch every ``(owner, attr, name[, after])`` trace point."""
        for point in points:
            self.patch(*point)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the kept spans (one JSON array per line) and the totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"totals": self.totals, "counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class GcWatch:
    """Collector pauses and generation-2 collections, via ``gc.callbacks``.

    Collections the harness forces through :meth:`collect` are not counted.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0
        self._harness = False

    def collect(self) -> None:
        self._harness = True
        try:
            gc.collect()
        finally:
            self._harness = False

    def _callback(self, phase: str, info: dict) -> None:
        if self._harness:
            return
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)
