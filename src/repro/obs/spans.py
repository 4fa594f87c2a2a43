"""Causal spans mirroring the nested-transaction tree.

The execution model's unit of reasoning is the event → condition → action
causal chain: "cascading rule firings produce a tree of nested
transactions" (§3.2).  A :class:`Span` makes that chain a first-class
artifact: an event signal opens a root span; condition evaluation, rule
firings (tagged by coupling mode), action execution, and cascaded events
nest under it — so one object captures "E happened → R1 fired immediate →
R2 deferred at commit".

Causality, not call stacks, defines the tree:

* synchronous work (immediate firings, cascaded events) nests through a
  per-thread span stack, exactly like the §6.2 suspension protocol;
* **deferred** firings are queued at event time but run at commit (§6.3);
  the Rule Manager captures the span active at queue time and opens the
  commit-time firing span with that *explicit parent*, so the firing hangs
  off the event that caused it, not off the commit that drained it;
* **separate** firings run on worker threads; the launching span is
  captured at spawn time and passed as the explicit parent the same way.

Completed root spans are kept in a bounded ring (dropped roots are
counted), so long-running workloads observe the recent past at fixed
memory.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional


class Span:
    """One timed node of a causal tree."""

    __slots__ = ("span_id", "name", "kind", "start", "end", "parent_id",
                 "children", "tags", "tid")

    def __init__(self, span_id: int, name: str, kind: str,
                 start: float, tid: int, tags: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.parent_id: Optional[int] = None
        self.children: List["Span"] = []
        self.tags = tags
        self.tid = tid

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth first."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def find(self, **tags: Any) -> List["Span"]:
        """Descendants (self included) whose tags contain all of ``tags``."""
        return [span for span in self.walk()
                if all(span.tags.get(key) == value
                       for key, value in tags.items())]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Span #%d %s %s %.6fs>" % (self.span_id, self.kind,
                                           self.name, self.duration)


class SpanRecorder:
    """Records causal span trees for one HiPAC instance.

    Thread safe: each thread keeps its own active-span stack; cross-thread
    child attachment rides the GIL-atomicity of ``list.append`` and only
    the completed-root ring takes a lock (at root granularity, never
    per-operation).
    """

    def __init__(self, capacity: int = 1024, enabled: bool = True) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.epoch = time.perf_counter()
        self.dropped = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: Deque[Span] = deque(maxlen=capacity)

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost span open on *this* thread (None outside any)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(self, name: str, kind: str = "span",
                   parent: Optional[Span] = None,
                   **tags: Any) -> Optional[Span]:
        """Open a span; ``parent=None`` nests under this thread's innermost
        open span (a root span if there is none).  Returns None when the
        recorder is disabled."""
        if not self.enabled:
            return None
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, kind,
                    time.perf_counter() - self.epoch,
                    threading.get_ident(), tags)
        if parent is not None:
            span.parent_id = parent.span_id
            # list.append is atomic under the GIL; cross-thread attachment
            # (separate/deferred firings) needs no lock here.
            parent.children.append(span)
        stack.append(span)
        return span

    def finish_span(self, span: Optional[Span]) -> None:
        """Close a span opened by :meth:`start_span` (None-safe)."""
        if span is None:
            return
        span.end = time.perf_counter() - self.epoch
        stack = getattr(self._local, "stack", None) or []
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced finish guard
            stack.remove(span)
        if span.parent_id is None:
            with self._lock:
                if len(self._roots) == self._roots.maxlen:
                    self.dropped += 1
                self._roots.append(span)

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "span",
             parent: Optional[Span] = None,
             **tags: Any) -> Iterator[Optional[Span]]:
        """Context manager around :meth:`start_span`/:meth:`finish_span`."""
        span = self.start_span(name, kind, parent, **tags)
        try:
            yield span
        finally:
            self.finish_span(span)

    # ---------------------------------------------------------------- views

    def roots(self) -> List[Span]:
        """Completed root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def last_root(self) -> Optional[Span]:
        """The most recently completed root span (None if none yet)."""
        with self._lock:
            return self._roots[-1] if self._roots else None

    def clear(self) -> None:
        """Drop retained roots (between experiment phases)."""
        with self._lock:
            self._roots.clear()
            self.dropped = 0
