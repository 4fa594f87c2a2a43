"""The assembled HiPAC system (paper Figure 5.1).

:class:`HiPAC` constructs and wires the five functional components —

* Object Manager (object-oriented data management),
* Transaction Manager (nested transactions),
* Event Detectors (database, temporal, external, composite),
* Rule Manager (events -> rule firings -> transactions),
* Condition Evaluator (condition graph) —

exactly along the edges of Figure 5.1, and exposes the public API
applications use: data and transaction operations, event define/signal,
rule operations (create / delete / enable / disable / fire), and
per-application interfaces (Figure 4.1).

The engine has one configuration; the constructor selects deployment
(durability, data directory, observability add-ons), not algorithms.  The
reference sides the experiments compare against are reached where they are
used: the naive evaluator and executor are the component attributes
``condition_evaluator.use_graph`` and ``object_manager.executor.use_indexes``
(set by ``benchmarks/conftest.py::naive`` before any rule exists, for A1 and
Q2), and the scan of every programmed event spec that indexed dispatch
replaced is the oracle in ``tests/test_dispatch_index.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.apps.interface import ApplicationInterface
from repro.apps.registry import ApplicationRegistry
from repro.clock import Clock, VirtualClock
from repro.conditions.evaluator import ConditionEvaluator
from repro.core import tracing
from repro.events.composite import CompositeEventDetector
from repro.events.external import ExternalEventDetector
from repro.events.signal import EventSignal
from repro.events.spec import ExternalEventSpec
from repro.events.temporal import TemporalEventDetector
from repro.obs import export as obs_export
from repro.obs.forensics import SNAPSHOT_LAST, ForensicsRecorder
from repro.obs.forensics import STATS_KEYS as FORENSICS_KEYS
from repro.obs.metrics import (JOURNAL_STATS_KEYS, WAL_STATS_KEYS,
                               MetricsRegistry)
from repro.obs.profiler import RuleProfiler
from repro.obs.provenance import STATS_KEYS as PROVENANCE_KEYS
from repro.obs.provenance import ProvenanceStore, parse_oid
from repro.obs.slo import STATS_KEYS as SLO_KEYS
from repro.obs.slo import SLOMonitor
from repro.obs.slowlog import SlowLog
from repro.obs.timeseries import STATS_KEYS as TIMESERIES_KEYS
from repro.obs.timeseries import TimeseriesRing
from repro.obs.watchdog import Watchdog
from repro.objstore.manager import ObjectManager
from repro.objstore.objects import OID
from repro.objstore.operations import DefineClass, DropClass, Operation
from repro.objstore.predicates import Bindings
from repro.objstore.query import Query, QueryResult
from repro.objstore.store import ObjectStore
from repro.objstore.types import ClassDef
from repro.rules.manager import RuleManager
from repro.rules.rule import Rule, rule_class_def
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.util import tail

#: the sections of :meth:`HiPAC.snapshot`, in document order
SNAPSHOT_SECTIONS = (
    "time", "uptime", "health", "stats", "derived", "forensics",
    "alerts", "slo", "timeseries", "slowlog", "profile", "firings",
    "provenance", "journal")


class HiPAC:
    """An active, object-oriented DBMS with ECA rules."""

    def __init__(self, *, clock: Optional[Clock] = None,
                 lock_timeout: float = 10.0,
                 durability: Optional[str] = None,
                 data_dir: Optional[Any] = None,
                 wal_fsync: bool = True,
                 rule_library: Optional[Any] = None,
                 observability: Union[bool, str] = True,
                 flight_recorder: bool = False,
                 provenance: Optional[bool] = None,
                 timeseries_interval: float = 1.0,
                 forensics: bool = False) -> None:
        # Every argument is checked before the first component is built: a
        # rejected call leaves no thread running and no file behind.
        if observability not in (True, False, "trace"):
            raise ValueError(
                "observability must be True, False, or 'trace' (got %r)"
                % (observability,))
        if durability not in (None, "wal"):
            raise ValueError("unknown durability mode: %r" % durability)
        if data_dir is None:
            for needs, what in ((durability, "durability='wal'"),
                                (flight_recorder, "flight_recorder=True"),
                                (forensics, "forensics=True")):
                if needs:
                    raise ValueError("%s requires data_dir" % what)
        #: the §6 protocol trace (:mod:`repro.core.tracing`)
        self.tracer = tracing.Tracer(self)
        self.clock = clock or VirtualClock()
        #: observability levels:
        #:   ``True``    — production default: metrics registry + slow log
        #:                 (each instrument is a histogram observe; the
        #:                 whole surface stays within a few percent of
        #:                 ``False``);
        #:   ``"trace"`` — additionally time both phases of every rule
        #:                 firing on its record (``RuleFiring.timing``;
        #:                 diagnostic mode: clock reads per firing, like any
        #:                 DBMS statement-tracing switch — flip it on around
        #:                 the window you want to explain);
        #:   ``False``   — overhead-ablation off switch: every instrument
        #:                 degrades to one attribute check.
        #: At every level each firing records the firing that caused it.
        self.metrics = MetricsRegistry(enabled=bool(observability))
        self.slow_log = SlowLog(enabled=bool(observability))
        #: the alert log.  The cascade cut feeds it inline, whatever the
        #: observability level; the windowed detectors (deferred set,
        #: lock-wait p95, rule storm) are objectives of the SLO monitor
        #: below, declared in ``db.slo.objectives``.
        self.watchdog = Watchdog()
        #: windowed telemetry + SLO monitor (created at the end of
        #: __init__, after recovery replay, so startup work is never a
        #: "window"); None until then and whenever the ticker is off.
        self.timeseries: Optional[TimeseriesRing] = None
        self.slo: Optional[SLOMonitor] = None
        self.store = ObjectStore()
        self.locks = LockManager(default_timeout=lock_timeout,
                                 metrics=self.metrics)
        self.transaction_manager = TransactionManager(self.locks,
                                                      metrics=self.metrics)
        self.object_manager = ObjectManager(self.store, self.transaction_manager,
                                            self.clock, metrics=self.metrics)
        self.condition_evaluator = ConditionEvaluator(
            self.object_manager, metrics=self.metrics, slow_log=self.slow_log)
        self.temporal_detector = TemporalEventDetector(
            self.clock, schema=self.store.schema)
        self.external_detector = ExternalEventDetector()
        self.composite_detector = CompositeEventDetector(schema=self.store.schema)
        self.applications = ApplicationRegistry()
        self.rule_manager = RuleManager(
            self.object_manager, self.transaction_manager,
            self.condition_evaluator, self.temporal_detector,
            self.external_detector, self.composite_detector,
            clock=self.clock, applications=self.applications,
            metrics=self.metrics, slow_log=self.slow_log,
            watchdog=self.watchdog, trace=observability == "trace")
        #: §6.1 rule creation and administration (the Rule Manager's
        #: catalog; the rule operations below call it directly)
        self.rule_catalog = self.rule_manager.catalog
        # Figure 5.1 wiring: every detector reports to the Rule Manager's
        # Signal Event, all reports of one occurrence in one call (one
        # firing partition, §6.2); the Transaction Manager signals
        # transaction termination to it.
        for detector in (self.object_manager.event_detector,
                         self.temporal_detector, self.external_detector,
                         self.composite_detector):
            detector.sink = self.rule_manager.signal_event_batch
        self.transaction_manager.event_sink = self.rule_manager.transaction_event
        self.metrics.add_collector(self._collect_component_stats)
        #: embedded admin HTTP server (started on demand, see serve_admin)
        self._admin: Optional[Any] = None
        self._started_at = time.time()
        self._bootstrap()
        #: flight recorder (durable stimulus journal for incident replay;
        #: see :mod:`repro.obs.flightrec`).  Attached after bootstrap —
        #: every instance re-creates the system class identically, so the
        #: bootstrap transaction is never journalled — and before the
        #: durability wiring, so the post-recovery checkpoint writes its
        #: journal marker.
        self.flight_recorder: Optional[Any] = None
        if flight_recorder:
            from repro.obs.flightrec import FlightRecorder
            # The journal runs in its bounded-window default (an incident
            # recorder tolerates an N-ms loss window; the strict WAL still
            # anchors committed state).
            recorder = FlightRecorder(data_dir, metrics=self.metrics)
            self.flight_recorder = recorder
            self.object_manager.recorder = recorder
            self.transaction_manager.recorder = recorder
            self.rule_manager.recorder = recorder
            self.rule_catalog.recorder = recorder
            self.external_detector.recorder = recorder
            self.temporal_detector.recorder = recorder
        #: causal provenance store (see :mod:`repro.obs.provenance`):
        #: tags every attribute write with its causal envelope and
        #: answers :meth:`why`.  ``provenance=None`` follows the
        #: observability switch (on whenever metrics are on); pass
        #: ``True``/``False`` to force.  Attached after bootstrap, like
        #: the flight recorder, so the system-class transaction is never
        #: captured.
        self.provenance: Optional[Any] = None
        prov_on = (bool(observability) if provenance is None
                   else bool(provenance))
        if prov_on:
            prov = ProvenanceStore(metrics=self.metrics)
            self.provenance = prov
            self.object_manager.provenance = prov
            self.transaction_manager.provenance = prov
            prov.running = self.rule_manager.running
        #: durability wiring (None / "wal"); see _enable_durability
        self.wal: Optional[Any] = None
        self.checkpointer: Optional[Any] = None
        self._recovery_report: Optional[Any] = None
        self.durability = durability
        if durability is not None:
            self._enable_durability(data_dir, wal_fsync, rule_library)
        #: windowed telemetry, on whenever observability is: a background
        #: ticker snapshots the registry every ``timeseries_interval``
        #: seconds into a bounded ring (see :mod:`repro.obs.timeseries`),
        #: and the SLO monitor evaluates its objectives
        #: (:func:`~repro.obs.slo.default_objectives`; ``db.slo.objectives``
        #: is a plain list) on each window (:mod:`repro.obs.slo`) — the
        #: service objectives and the windowed anomaly detectors alike.
        #: The ticker backs off while the instance is idle, so short-lived
        #: instances (a test suite) cost a handful of wakeups.
        if observability:
            ring = TimeseriesRing(self.metrics,
                                  interval=timeseries_interval)
            self.timeseries = ring
            slo = self.slo = SLOMonitor(ring, watchdog=self.watchdog)
            ring.add_callback(lambda window: slo.evaluate(now=window.t))
            ring.start()
        #: incident forensics: black-box snapshot bundles on watchdog
        #: alerts, SLO breaches (which arrive as SLO_BURN alerts), WAL
        #: append failures, and manual triggers (see
        #: :mod:`repro.obs.forensics`; ``python -m repro.tools.doctor``
        #: diagnoses the bundles).  Off by default; its bounds are the
        #: module constants of :mod:`repro.obs.forensics`.
        self.forensics: Optional[Any] = None
        if forensics:
            self.forensics = ForensicsRecorder(
                self, data_dir, metrics=self.metrics,
                env={
                    "durability": durability,
                    "data_dir": str(data_dir),
                    "observability": str(observability),
                    "flight_recorder": bool(flight_recorder),
                    "provenance": self.provenance is not None,
                    "timeseries": self.timeseries is not None,
                    "timeseries_interval": timeseries_interval,
                    "lock_timeout": lock_timeout,
                })
            self.watchdog.add_callback(self.forensics.on_alert)
            if self.wal is not None:
                self.wal.on_append_failure = self.forensics.on_wal_failure

    def _bootstrap(self) -> None:
        """Create the ``HiPAC::Rule`` system class and program the Rule
        Manager's self-management events."""
        txn = self.transaction_manager.create_transaction(label="bootstrap")
        self.object_manager.execute_operation(DefineClass(rule_class_def()), txn)
        self.transaction_manager.commit_transaction(txn)
        for spec in self.rule_catalog.bootstrap_specs():
            self.object_manager.event_detector.define_event(spec)

    # ---------------------------------------------------------- durability

    def _enable_durability(self, data_dir: Any, wal_fsync: bool,
                           rule_library: Optional[Any]) -> None:
        """Attach the WAL and the checkpointer (after bootstrap, so the system
        class definition is never logged: every instance re-creates it).

        If ``data_dir`` already holds durable state it is replayed into
        this instance first, then immediately checkpointed — truncating
        the old WAL so the fresh transaction-id sequence cannot collide
        with logged ids from the previous incarnation.
        """
        from repro.recovery.checkpoint import Checkpointer
        from repro.recovery.recover import has_durable_state, replay_into
        from repro.recovery.wal import WriteAheadLog

        report = None
        if has_durable_state(data_dir):
            report = replay_into(self, data_dir, rules=rule_library)
        wal = WriteAheadLog(data_dir, fsync=wal_fsync,
                            start_lsn=report.last_lsn if report else 0,
                            metrics=self.metrics)
        self.wal = wal
        self.transaction_manager.wal = wal
        self.checkpointer = Checkpointer(self, wal)
        self.transaction_manager.checkpointer = self.checkpointer
        self._recovery_report = report
        if report is not None:
            self.checkpointer.checkpoint()

    def checkpoint(self) -> bool:
        """Take a checkpoint now (durable mode only); returns True if one
        was written — False while transactions are live."""
        if self.checkpointer is None:
            raise ValueError("checkpoint requires durability='wal'")
        return self.checkpointer.checkpoint()

    def recovery_report(self) -> Optional[Any]:
        """The :class:`~repro.recovery.recover.RecoveryReport` of this
        instance's startup replay, or None if it started fresh."""
        return self._recovery_report

    def close(self) -> None:
        """Stop the admin server (if serving), wait for separate-coupling
        work (bounded by the Rule Manager's ``DRAIN_TIMEOUT``), drain the
        forensics worker, stop the timeseries ticker, and flush/close the
        WAL and flight-recorder journal."""
        if self._admin is not None:
            self._admin.close()
            self._admin = None
        # Separate firings commit through the journal and the WAL: let them
        # finish while both are open, then stop the Rule Manager's executor.
        self.drain()
        self.rule_manager.executor.shutdown()
        # Forensics first: a queued capture reads the timeseries ring and
        # the flight journal, so drain it while they are still alive.
        if self.forensics is not None:
            self.forensics.close()
        if self.timeseries is not None:
            self.timeseries.stop()
        if self.flight_recorder is not None:
            self.flight_recorder.close()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------- schema

    def define_class(self, class_def: ClassDef,
                     txn: Optional[Transaction] = None) -> ClassDef:
        """Define an object class (auto-commits when no ``txn`` is given)."""
        with self._in_txn(txn) as txn:
            self.object_manager.execute_operation(DefineClass(class_def), txn)
        return class_def

    def drop_class(self, class_name: str,
                   txn: Optional[Transaction] = None) -> None:
        """Drop an (empty) object class."""
        with self._in_txn(txn) as txn:
            self.object_manager.execute_operation(DropClass(class_name), txn)

    # ------------------------------------------------------------- data ops

    def execute_operation(self, op: Operation, txn: Transaction, *,
                          user: str = "application") -> Any:
        """Execute a database operation in ``txn`` (paper §5.1 interface)."""
        return self.object_manager.execute_operation(op, txn, user=user)

    def create(self, class_name: str, attrs: Optional[Dict[str, Any]] = None,
               txn: Optional[Transaction] = None) -> OID:
        """Create an object in ``txn``."""
        return self.object_manager.create(class_name, attrs, txn)

    def update(self, oid: OID, changes: Dict[str, Any],
               txn: Optional[Transaction] = None) -> None:
        """Update an object in ``txn``."""
        self.object_manager.update(oid, changes, txn)

    def delete(self, oid: OID, txn: Optional[Transaction] = None) -> None:
        """Delete an object in ``txn``."""
        self.object_manager.delete(oid, txn)

    def read(self, oid: OID, txn: Transaction) -> Dict[str, Any]:
        """Read one object's attributes in ``txn``."""
        return self.object_manager.read(oid, txn)

    def query(self, query: Query, txn: Transaction,
              bindings: Bindings = ()) -> QueryResult:
        """Run a query in ``txn``."""
        return self.object_manager.execute_query(query, txn, bindings)

    # ------------------------------------------------------------ txn ops

    def begin(self, parent: Optional[Transaction] = None,
              **kwargs: Any) -> Transaction:
        """Create a top-level transaction (or a subtransaction of ``parent``)."""
        return self.transaction_manager.create_transaction(parent, **kwargs)

    def commit(self, txn: Transaction) -> None:
        """Commit a transaction (processing its deferred rule firings first)."""
        self.transaction_manager.commit_transaction(txn)

    def abort(self, txn: Transaction) -> None:
        """Abort a transaction."""
        self.transaction_manager.abort_transaction(txn)

    @contextlib.contextmanager
    def transaction(self, parent: Optional[Transaction] = None,
                    **kwargs: Any) -> Iterator[Transaction]:
        """Context manager: commit on success, abort on exception."""
        txn = self.begin(parent, **kwargs)
        try:
            yield txn
        except BaseException:
            if not txn.is_finished():
                self.abort(txn)
            raise
        else:
            if not txn.is_finished():
                self.commit(txn)

    @contextlib.contextmanager
    def _in_txn(self, txn: Optional[Transaction]) -> Iterator[Transaction]:
        """``txn`` itself, or — when the caller gave none — a fresh
        top-level transaction that auto-commits."""
        if txn is not None:
            yield txn
        else:
            with self.transaction() as auto:
                yield auto

    # ------------------------------------------------------------ rule ops

    def create_rule(self, rule: Rule, txn: Optional[Transaction] = None) -> Rule:
        """Create an ECA rule (auto-commits when no ``txn`` is given)."""
        with self._in_txn(txn) as txn:
            return self.rule_catalog.create_rule(rule, txn)

    def delete_rule(self, name: str, txn: Optional[Transaction] = None) -> None:
        """Delete a rule."""
        with self._in_txn(txn) as txn:
            self.rule_catalog.delete_rule(name, txn)

    def enable_rule(self, name: str, txn: Optional[Transaction] = None) -> None:
        """Enable automatic firing of a rule."""
        with self._in_txn(txn) as txn:
            self.rule_catalog.enable_rule(name, txn)

    def disable_rule(self, name: str, txn: Optional[Transaction] = None) -> None:
        """Disable automatic firing of a rule."""
        with self._in_txn(txn) as txn:
            self.rule_catalog.disable_rule(name, txn)

    def fire_rule(self, name: str, txn: Optional[Transaction] = None, *,
                  args: Optional[Dict[str, Any]] = None) -> None:
        """Manually fire a rule (the paper's *fire* operation)."""
        self.rule_manager.fire_rule(name, txn, args=args)

    def rule_names(self) -> List[str]:
        """Names of all rules."""
        return self.rule_catalog.rule_names()

    def rules_in_group(self, group: str) -> List[str]:
        """Names of the rules in a rule group (paper §4.2)."""
        return self.rule_catalog.rules_in_group(group)

    def enable_group(self, group: str,
                     txn: Optional[Transaction] = None) -> List[str]:
        """Enable a whole rule group."""
        with self._in_txn(txn) as txn:
            return self.rule_catalog.enable_group(group, txn)

    def disable_group(self, group: str,
                      txn: Optional[Transaction] = None) -> List[str]:
        """Disable a whole rule group."""
        with self._in_txn(txn) as txn:
            return self.rule_catalog.disable_group(group, txn)

    # ----------------------------------------------------------- event ops

    def define_event(self, name: str, *parameters: str) -> ExternalEventSpec:
        """Define an application event (Figure 4.1 event-operations module)."""
        spec = ExternalEventSpec(name, tuple(parameters))
        self.external_detector.define_event(spec)
        return spec

    def signal_event(self, name: str, args: Optional[Dict[str, Any]] = None,
                     txn: Optional[Transaction] = None) -> EventSignal:
        """Signal an application event; returns after triggered
        immediate/deferred rule work completes."""
        return self.external_detector.signal(name, args, txn=txn,
                                             timestamp=self.clock.now())

    # -------------------------------------------------------- applications

    def application(self, name: str, *, mailbox: bool = False) -> ApplicationInterface:
        """Return an application program's four-module interface (Fig 4.1)."""
        return ApplicationInterface(
            name, self.object_manager, self.transaction_manager,
            self.external_detector, self.applications, self.clock,
            mailbox=mailbox)

    # ---------------------------------------------------------------- misc

    def advance_time(self, seconds: float) -> float:
        """Advance the (virtual) clock, firing due temporal events."""
        if not isinstance(self.clock, VirtualClock):
            raise TypeError("advance_time requires a VirtualClock")
        return self.clock.advance(seconds)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for all separate-coupling rule firings to finish."""
        return self.rule_manager.drain(timeout)

    def firing_log(self):
        """The rule-firing log (see :class:`repro.rules.firing.FiringLog`)."""
        return self.rule_manager.firings

    # ------------------------------------------------------- observability

    def metrics_report(self) -> str:
        """Human-readable summary: latency percentiles per instrumented
        operation, non-zero component stats, and the slow-log tail."""
        return obs_export.metrics_report(self.metrics,
                                         slow_log=self.slow_log)

    def explain_firing(self, rule_name: Optional[str] = None,
                       last: Optional[int] = None) -> str:
        """Render the firing log, one sentence per firing (optionally one
        rule's firings, or only the last ``last``)."""
        from repro.tools.explain import explain
        return explain(self.rule_manager.firings, rule_name, last)

    def why(self, oid: Union[OID, str], attr: Optional[str] = None, *,
            depth: int = 10) -> Any:
        """Walk the causal chain behind the current value of ``oid.attr``.

        Answers "why is this object in this state?": hop 0 is the write
        that produced the value, each further hop follows the writing
        rule firing to its triggering event and the write behind *that*,
        ending at the system boundary — an application write or an
        external/temporal stimulus.  When the flight recorder is on,
        every hop carries the journal seq that
        ``python -m repro.tools.replay --until SEQ`` needs to re-execute
        the world up to that cause (``SEQ - 1`` stops just before it).

        ``oid`` accepts an :class:`OID` or its ``"Class#N"`` string form;
        ``attr=None`` starts from the newest write to any attribute.
        Returns a :class:`~repro.obs.provenance.WhyChain`; render it with
        :func:`repro.tools.explain.explain_state`.  Raises
        :class:`ValueError` when provenance is off.
        """
        if self.provenance is None:
            raise ValueError(
                "provenance is off: construct with provenance=True "
                "(or leave observability on)")
        if isinstance(oid, str):
            oid = parse_oid(oid)
        return self.provenance.why(oid, attr, depth=depth)

    def export_trace(self, path: Optional[Any] = None) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON of the timed firings in the firing
        log (``observability="trace"``; empty at the other levels).

        Returns the document; when ``path`` is given it is also written
        there (load it in ``chrome://tracing`` or ui.perfetto.dev)."""
        if path is None:
            return obs_export.chrome_trace(self.rule_manager.firings)
        return obs_export.write_chrome_trace(self.rule_manager.firings, path)

    def prometheus_metrics(self) -> str:
        """The registry in Prometheus text exposition format."""
        return obs_export.prometheus_text(self.metrics)

    def serve_admin(self, port: int = 0, host: str = "127.0.0.1") -> Any:
        """Start (or return) the embedded admin HTTP endpoint.

        Serves the endpoints :mod:`repro.obs.server` lists (``GET /``
        prints the index) — ``/metrics``, ``/health``, ``/snapshot`` (the
        :meth:`snapshot` document) and the answers it cannot give — on a
        daemon thread.  ``port=0`` binds an ephemeral port; read the bound
        address from the returned server's ``url``.  Idempotent: a second
        call returns the running server.  :meth:`close` shuts it down.
        """
        if self._admin is not None and self._admin.running:
            return self._admin
        from repro.obs.server import AdminServer
        self._admin = AdminServer(self, host=host, port=port)
        return self._admin

    def health(self) -> Dict[str, Any]:
        """Liveness/anomaly summary backing the admin ``/health`` endpoint.

        Reads the alert log and the objective states as the last tick
        left them — nothing is evaluated here — then escalates on failure
        signals no alert carries: a failed WAL write (append or force)
        means durability is broken (``failing``), background
        separate-firing errors mean rule work is silently dying (at least
        ``degraded``).  ``enabled`` says whether the windowed detectors
        run (observability on); the cascade cut always does.
        """
        report = self.watchdog.health()
        report["enabled"] = self.slo is not None
        background_errors = len(self.rule_manager.background_errors)
        wal_failures = 0
        if self.wal is not None:
            wal_failures = self.wal.stats.get("append_failures", 0)
        if wal_failures > 0:
            report["status"] = "failing"
        elif background_errors > 0 and report["status"] == "ok":
            report["status"] = "degraded"
        if self.slo is not None:
            from repro.obs.slo import BREACHED, BURNING
            worst = self.slo.worst_state()
            report["slo"] = {
                "state": worst,
                "objectives": {objective.name: objective.state
                               for objective in self.slo.objectives},
            }
            # A burning/breached budget degrades health but never fails
            # it — that level stays reserved for broken durability.
            if worst in (BURNING, BREACHED) and report["status"] == "ok":
                report["status"] = "degraded"
        report["wal_append_failures"] = wal_failures
        report["background_rule_errors"] = background_errors
        report["live_transactions"] = \
            len(self.transaction_manager.live_transactions())
        return report

    def snapshot(self, sections: Optional[Iterable[str]] = None,
                 last: int = SNAPSHOT_LAST) -> Dict[str, Any]:
        """The diagnosis document, built here only: a forensics bundle
        freezes it, ``GET /snapshot`` serves it, and ``repro.tools.doctor``
        diagnoses either.

        ``sections`` picks from :data:`SNAPSHOT_SECTIONS` (all by default;
        an unknown name raises KeyError); ``last`` bounds every ring the
        document copies.  A section whose subsystem is off is ``None``.
        """
        last = max(0, last)

        builders = {
            "time": time.time,
            "uptime": lambda: time.time() - self._started_at,
            "health": self.health,
            "stats": self.stats,
            "derived": self._derived,
            "forensics": lambda: (self.forensics.status()
                                  if self.forensics is not None else None),
            "alerts": lambda: [alert.as_dict() for alert in
                               tail(self.watchdog.alerts(), last)],
            "slo": lambda: (self.slo.as_dict()
                            if self.slo is not None else None),
            "timeseries": lambda: (self.timeseries.as_dict(last=last)
                                   if self.timeseries is not None else None),
            "slowlog": lambda: [dataclasses.asdict(entry) for entry in
                                tail(self.slow_log.entries(), last)],
            "profile": lambda: self.rule_profiler().as_dict(top=last),
            "firings": lambda: [record.as_dict() for record in
                                tail(self.rule_manager.firings.all(), last)],
            "provenance": lambda: (self.provenance.stats_snapshot()
                                   if self.provenance is not None else None),
            "journal": lambda: (self.flight_recorder.summary()
                                if self.flight_recorder is not None
                                else None),
        }
        chosen = [(name, builders[name]) for name in
                  (SNAPSHOT_SECTIONS if sections is None else sections)]
        return {name: build() for name, build in chosen}

    def _derived(self) -> Dict[str, int]:
        """Live gauges no component counts: open transactions and the
        deferred firings queued on them."""
        live = self.transaction_manager.live_transactions()
        return {
            "live_transactions": len(live),
            "deferred_queue_depth": sum(
                len(txn.deferred_conditions) + len(txn.deferred_actions)
                for txn in live),
        }

    def rule_profiler(self) -> RuleProfiler:
        """A :class:`~repro.obs.profiler.RuleProfiler` over the current
        firing log (timing columns require ``observability="trace"``)."""
        return RuleProfiler(self.rule_manager.firings)

    def rule_profile(self, top: int = 10) -> str:
        """Per-rule cost attribution report: firings, condition
        selectivity, self vs. cascade-inclusive time, and who-triggers-whom
        edges for the ``top`` hottest rules."""
        return self.rule_profiler().report(top=top)

    def _collect_component_stats(self) -> Dict[str, float]:
        """Pull-time metrics collector: flattens every component ``stats``
        section as ``<section>_<key>`` and adds the live gauges of
        :meth:`_derived` — zero hot-path cost, always exact."""
        flat: Dict[str, float] = {}
        for section, values in self.stats().items():
            for key, value in values.items():
                flat["%s_%s" % (section, key)] = value
        flat.update(self._derived())
        return flat

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Aggregated component statistics (benchmark reporting).

        The ``"events"`` section flattens each detector's counters under a
        ``<detector>_<counter>`` key — including the dispatch-index
        ``index_hits`` / ``index_misses`` / ``fast_path`` counters of the
        database detectors.
        """
        events: Dict[str, int] = {}
        for name, detector in (
                ("database", self.object_manager.event_detector),
                ("transaction", self.rule_manager.txn_detector),
                ("temporal", self.temporal_detector),
                ("external", self.external_detector),
                ("composite", self.composite_detector)):
            for key, value in detector.stats.items():
                events["%s_%s" % (name, key)] = value
        recovery = {
            "checkpoints": 0,
            "checkpoints_skipped": 0, "replays": 0, "replayed_records": 0,
            "replayed_spheres": 0, "discarded_spheres": 0,
            "rules_rebound": 0, "rules_unbound": 0,
        }
        if self.checkpointer is not None:
            recovery["checkpoints"] = self.checkpointer.stats["checkpoints"]
            recovery["checkpoints_skipped"] = self.checkpointer.stats["skipped"]
        if self._recovery_report is not None:
            report = self._recovery_report
            recovery["replays"] = 1
            recovery["replayed_records"] = report.replayed_records
            recovery["replayed_spheres"] = report.replayed_spheres
            recovery["discarded_spheres"] = report.discarded_spheres
            recovery["rules_rebound"] = report.rules_rebound
            recovery["rules_unbound"] = len(report.rules_unbound)
        # One ``storage`` family for both segment streams: the WAL
        # (``wal_*``) and the flight journal (``journal_*``).  A subsystem
        # that is off reads as its own key list, zero-filled.
        storage: Dict[str, int] = {}
        for prefix, stream, keys in (
                ("wal", self.wal, WAL_STATS_KEYS),
                ("journal", self.flight_recorder, JOURNAL_STATS_KEYS)):
            values = (stream.stats if stream is not None
                      else dict.fromkeys(keys, 0))
            storage.update(("%s_%s" % (prefix, key), value)
                           for key, value in values.items())
        provenance = (self.provenance.stats_snapshot()
                      if self.provenance is not None
                      else dict.fromkeys(PROVENANCE_KEYS, 0))
        timeseries = (self.timeseries.stats if self.timeseries is not None
                      else dict.fromkeys(TIMESERIES_KEYS, 0))
        slo = (self.slo.summary() if self.slo is not None
               else dict.fromkeys(SLO_KEYS, 0))
        forensics = (self.forensics.stats_snapshot()
                     if self.forensics is not None
                     else dict.fromkeys(FORENSICS_KEYS, 0))
        return {
            "rules": dict(self.rule_manager.stats),
            "events": events,
            "transactions": dict(self.transaction_manager.stats),
            "locks": dict(self.locks.stats),
            "objects": dict(self.object_manager.stats),
            "conditions": dict(self.condition_evaluator.stats),
            "condition_graph": dict(self.condition_evaluator.graph.stats),
            "applications": dict(self.applications.stats),
            "recovery": recovery,
            "watchdog": dict(self.watchdog.stats,
                             alerts_dropped=self.watchdog.dropped),
            "obs": {
                "slow_entries": len(self.slow_log),
                "slow_dropped": self.slow_log.dropped,
                "firing_log_dropped": self.rule_manager.firings.dropped,
            },
            "storage": storage,
            "provenance": provenance,
            "timeseries": timeseries,
            "slo": slo,
            "forensics": forensics,
        }
