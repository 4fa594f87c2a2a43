"""Span recorder and the wrappers that put one span at every layer boundary.

All tracing lives in the benchmark: :func:`install` replaces the public
entry points of each ``repro`` package *on the instances of one HiPAC* with
recording wrappers (``setattr`` on the instance shadows the class method),
re-points the bound methods the facade captured at wiring time (the
detectors' ``sink`` / ``sink_batch``, the Transaction Manager's
``event_sink``, the Object Manager's delta-listener list) at the wrappers,
and :func:`uninstall` puts every one of them back.  An untraced engine is
exactly the engine as constructed.

A span is ``(id, name, start_ns, end_ns, parent, stimulus, thread)``.  Its
*self time* is its duration minus the time covered by the spans it called
on the same thread.  Self times and call counts are summed per span name
for the whole traced run; the raw spans are kept only while
:attr:`SpanRecorder.retain` is set (the harness keeps the first few hundred
stimuli) — a 10 s run records some ten million spans, and nobody reads
them all.  ``dump`` writes what was kept.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns

# frame layout on a thread's span stack
_NAME, _CHILD_NS, _START, _ID = range(4)


class _ThreadState:
    __slots__ = ("stack", "totals", "stimulus", "cause", "main")

    def __init__(self, main: bool) -> None:
        self.stack: List[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self.stimulus: Optional[int] = None
        self.cause = 0
        self.main = main


class SpanRecorder:
    """Collects spans from every thread of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._mutex = threading.Lock()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        #: keep raw spans (set by the harness for the first stimuli only)
        self.retain = False
        self.spans: List[Tuple[int, str, int, int, int, Optional[int], str]] = []

    # ---------------------------------------------------------- recording

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident() == self._main)
            self._local.state = state
            with self._mutex:
                self._states.append(state)
            return state

    def enter(self, name: str, stimulus: Optional[int] = None) -> list:
        """Open a span on the calling thread; pass the result to :meth:`exit`."""
        state = self._state()
        if stimulus is not None:
            state.stimulus = stimulus
        frame = [name, 0, 0, next(self._ids) if self.retain else 0]
        state.stack.append(frame)
        frame[_START] = _now()
        return frame

    def exit(self, frame: list) -> None:
        end = _now()
        state = self._local.state
        stack = state.stack
        stack.pop()
        duration = end - frame[_START]
        if stack:
            stack[-1][_CHILD_NS] += duration
        totals = state.totals.get(frame[_NAME])
        if totals is None:
            totals = state.totals[frame[_NAME]] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[_CHILD_NS]
        if frame[_ID]:
            parent = stack[-1][_ID] if stack else state.cause
            self.spans.append((frame[_ID], frame[_NAME], frame[_START], end,
                               parent, state.stimulus,
                               threading.current_thread().name))

    def wrap(self, name: str, fn: Callable[..., Any],
             rename: Optional[Callable[..., Optional[str]]] = None
             ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        ``rename(*args)`` may give this call's span another name (it runs
        before the call, outside the span)."""
        enter, leave = self.enter, self.exit

        if rename is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = enter(rename(*args) or name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def handoff(self, body: Callable[[], None]) -> Callable[[], None]:
        """Carry the calling span's identity to the thread that runs
        ``body``: its spans name the launching span as their cause and
        share its stimulus."""
        state = self._state()
        stimulus = state.stimulus
        cause = state.stack[-1][_ID] if state.stack else 0

        def carried() -> None:
            mine = self._state()
            mine.stimulus, mine.cause = stimulus, cause
            body()
        return carried

    # ------------------------------------------------------------ results

    def totals(self, *, main_only: bool = False) -> Dict[str, List[int]]:
        """``name -> [calls, total_ns, self_ns]`` summed over threads (or
        over the stimulus thread alone)."""
        merged: Dict[str, List[int]] = {}
        with self._mutex:
            states = list(self._states)
        for state in states:
            if main_only and not state.main:
                continue
            for name, (calls, total, own) in list(state.totals.items()):
                into = merged.setdefault(name, [0, 0, 0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return merged

    def dump(self, path: Any) -> int:
        """Write the retained spans as JSON; returns how many."""
        fields = ("id", "name", "start_ns", "end_ns", "parent", "stimulus",
                  "thread")
        with open(path, "w") as out:
            json.dump([dict(zip(fields, span)) for span in self.spans], out)
        return len(self.spans)


# ------------------------------------------------------------ installation

class _OsProxy:
    """Stands in for the ``os`` module inside ``repro.storage.segments`` so
    that the fsync system call gets a span of its own."""

    def __init__(self, real: Any, recorder: SpanRecorder) -> None:
        self._real = real
        self.fsync = recorder.wrap("storage.fsync", real.fsync)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def _targets(db: Any, actions: Any) -> Iterable[Tuple[Any, str, str]]:
    """``(object, method name, span name)`` for every wrapped entry point."""
    om, tm, rm = db.object_manager, db.transaction_manager, db.rule_manager
    yield from ((om, "execute_operation", "objstore.op"),
                (om, "execute_query", "objstore.query"),
                (om, "read", "objstore.read"),
                (om, "lock_extent", "objstore.lock_extent"),
                (tm, "create_transaction", "txn.create"),
                (tm, "commit_transaction", "txn.commit"),
                (tm, "abort_transaction", "txn.abort"),
                (db.locks, "acquire", "txn.locks.acquire"),
                (db.locks, "release_all", "txn.locks.release"),
                (db.locks, "inherit_to_parent", "txn.locks.inherit"),
                (om.event_detector, "observe", "events.observe"),
                (om.event_detector, "relevant", "events.relevant"),
                (rm.txn_detector, "observe", "events.observe"),
                (db.external_detector, "signal", "events.signal"),
                (rm, "signal_event_batch", "rules.signal"),
                (rm, "transaction_event", "rules.txn_event"),
                (db.condition_evaluator, "evaluate", "conditions.evaluate"),
                (db.condition_evaluator.graph, "on_delta", "conditions.delta"),
                (db.applications, "request", "apps.request"))
    for name in getattr(actions, "traced_actions", ()):
        yield actions, name, "apps.action"
    writers = []
    if db.wal is not None:
        for name in ("log_delta", "log_commit", "append", "force"):
            yield db.wal, name, "recovery." + name
        writers.append(db.wal._writer)
    if db.flight_recorder is not None:
        recorder = db.flight_recorder
        for name in dir(type(recorder)):
            if name.startswith("record") or name == "flush":
                yield recorder, name, "obs.flightrec"
        writers.append(recorder._writer)
    if db.provenance is not None:
        for name in ("note_delta", "publish", "on_abort"):
            yield db.provenance, name, "obs.provenance"
    for writer in writers:
        yield writer, "append", "storage.append"
        yield writer, "flush", "storage.flush"
        yield writer, "sync", "storage.sync"
        # The interval-mode journal frames and fsyncs on its own thread.
        yield writer, "_background_sync", "storage.background"


def _captured(db: Any) -> Iterable[Tuple[Any, str]]:
    """``(holder, attribute)`` of every bound method the facade captured."""
    om, rm = db.object_manager, db.rule_manager
    for detector in (om.event_detector, rm.txn_detector, db.temporal_detector,
                     db.external_detector, db.composite_detector):
        yield detector, "sink"
        yield detector, "sink_batch"
    yield db.transaction_manager, "event_sink"


class Installation:
    """What :func:`install` changed, so :func:`uninstall` can undo it."""

    def __init__(self, db: Any, recorder: SpanRecorder) -> None:
        self.db = db
        self.recorder = recorder
        self.wrapped: List[Tuple[Any, str]] = []
        self.rewired: List[Tuple[Any, str, Any]] = []
        self.listeners: Optional[List[Any]] = None
        self.segments_os: Any = None


def install(db: Any, recorder: SpanRecorder, actions: Any = None
            ) -> Installation:
    """Wrap the layer entry points of ``db`` (and the ``traced_actions`` of
    the workload object ``actions``); returns the handle for
    :func:`uninstall`."""
    done = Installation(db, recorder)
    wrappers: Dict[Tuple[int, str], Any] = {}
    for obj, method, span in _targets(db, actions):
        original = getattr(obj, method)
        if obj is db.rule_manager and method == "transaction_event":
            # §6.3: a commit signal that finds deferred firings queued is
            # the deferred-processing phase; every other call is routing.
            traced = recorder.wrap(
                span, original,
                lambda kind, txn: ("rules.deferred" if kind == "commit"
                                   and txn.has_deferred_work() else None))
        elif obj is db.locks and method == "acquire":
            traced = _wrap_acquire(recorder, db.locks, original)
        else:
            traced = recorder.wrap(span, original)
        setattr(obj, method, traced)
        done.wrapped.append((obj, method))
        wrappers[(id(obj), method)] = traced

    for holder, attr in _captured(db):
        bound = getattr(holder, attr, None)
        owner = getattr(bound, "__self__", None)
        traced = wrappers.get((id(owner), getattr(bound, "__name__", "")))
        if traced is not None:
            setattr(holder, attr, traced)
            done.rewired.append((holder, attr, bound))
    listeners = db.object_manager._delta_listeners
    done.listeners = list(listeners)
    listeners[:] = [wrappers.get((id(getattr(fn, "__self__", None)),
                                  getattr(fn, "__name__", "")), fn)
                    for fn in listeners]

    # Separate-coupling firings change thread inside _spawn.
    spawn = db.rule_manager._spawn
    setattr(db.rule_manager, "_spawn",
            lambda body, *args, **kwargs:
            spawn(recorder.handoff(body), *args, **kwargs))
    done.wrapped.append((db.rule_manager, "_spawn"))

    if db.wal is not None or db.flight_recorder is not None:
        from repro.storage import segments
        done.segments_os = segments.os
        segments.os = _OsProxy(segments.os, recorder)
    return done


def _wrap_acquire(recorder: SpanRecorder, locks: Any,
                  original: Callable[..., Any]) -> Callable[..., Any]:
    """``LockManager.acquire`` with its span renamed ``txn.locks.wait``
    when the request blocked (the manager's ``waited`` counter moved)."""
    enter, leave, stats = recorder.enter, recorder.exit, locks.stats

    def traced(*args: Any, **kwargs: Any) -> Any:
        before = stats["waited"]
        frame = enter("txn.locks.acquire")
        try:
            return original(*args, **kwargs)
        finally:
            if stats["waited"] != before:
                frame[_NAME] = "txn.locks.wait"
            leave(frame)
    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


def uninstall(done: Installation) -> None:
    """Restore everything :func:`install` touched."""
    for obj, method in done.wrapped:
        delattr(obj, method)        # the class method shows through again
    for holder, attr, bound in done.rewired:
        setattr(holder, attr, bound)
    if done.listeners is not None:
        done.db.object_manager._delta_listeners[:] = done.listeners
    if done.segments_os is not None:
        from repro.storage import segments
        segments.os = done.segments_os


def is_untraced(db: Any, actions: Any = None) -> List[str]:
    """Names of entry points that are *not* the engine's own — empty for an
    engine :func:`install` never touched or :func:`uninstall` restored."""
    wrong = ["%s.%s" % (type(obj).__name__, method)
             for obj, method, _ in _targets(db, actions)
             if method in vars(obj)]
    if "_spawn" in vars(db.rule_manager):
        wrong.append("RuleManager._spawn")
    for holder, attr in _captured(db):
        bound = getattr(holder, attr, None)
        if bound is not None and not hasattr(bound, "__self__"):
            wrong.append("%s.%s" % (type(holder).__name__, attr))
    wrong.extend("delta listener %r" % fn
                 for fn in db.object_manager._delta_listeners
                 if not hasattr(fn, "__self__"))
    from repro.storage import segments
    if isinstance(segments.os, _OsProxy):
        wrong.append("repro.storage.segments.os")
    return wrong
