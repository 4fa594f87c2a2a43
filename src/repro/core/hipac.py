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
import time
from typing import Any, Dict, Iterator, List, Optional, Union

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
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import RuleProfiler
from repro.obs.slo import SLOMonitor
from repro.obs.slowlog import SlowLog
from repro.obs.spans import SpanRecorder
from repro.obs.timeseries import TimeseriesRing, Window
from repro.obs.watchdog import Watchdog, WatchdogConfig
from repro.objstore.manager import ObjectManager
from repro.objstore.objects import OID
from repro.objstore.operations import DefineClass, DropClass, Operation
from repro.objstore.predicates import Bindings
from repro.objstore.query import Query, QueryResult
from repro.objstore.store import ObjectStore
from repro.objstore.types import ClassDef
from repro.rules.manager import RuleManager, RuleManagerConfig
from repro.rules.rule import Rule, rule_class_def
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction


class HiPAC:
    """An active, object-oriented DBMS with ECA rules."""

    def __init__(self, *, clock: Optional[Clock] = None,
                 lock_timeout: float = 10.0,
                 config: Optional[RuleManagerConfig] = None,
                 durability: Optional[str] = None,
                 data_dir: Optional[Any] = None,
                 wal_fsync: bool = True,
                 rule_library: Optional[Any] = None,
                 observability: Union[bool, str] = True,
                 watchdog: Optional[WatchdogConfig] = None,
                 flight_recorder: bool = False,
                 provenance: Optional[bool] = None,
                 timeseries_interval: float = 1.0,
                 forensics: Optional[Any] = None) -> None:
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
        self.tracer = tracing.Tracer()
        self.clock = clock or VirtualClock()
        #: observability levels:
        #:   ``True``    — production default: metrics registry + slow log
        #:                 (each instrument is a histogram observe; the
        #:                 whole surface stays within a few percent of
        #:                 ``False``);
        #:   ``"trace"`` — additionally record causal span trees for every
        #:                 event → firing → action chain (diagnostic mode:
        #:                 per-firing allocation cost, like any DBMS
        #:                 statement-tracing switch — flip it on around the
        #:                 window you want to explain);
        #:   ``False``   — overhead-ablation off switch: every instrument
        #:                 degrades to one attribute check.
        self.metrics = MetricsRegistry(enabled=bool(observability))
        self.spans = SpanRecorder(enabled=observability == "trace")
        self.slow_log = SlowLog(enabled=bool(observability))
        #: anomaly watchdogs (rule storm, cascade depth, deferred-queue
        #: blowup, lock-wait spikes).  Alert recording stays on even with
        #: observability=False — its feeds are per-firing/per-wait events,
        #: never per-operation, and a guard against runaway rule sets is
        #: not an instrument to ablate.  Thresholds come from the
        #: :class:`~repro.obs.watchdog.WatchdogConfig` ``watchdog`` knob.
        self.watchdog = Watchdog(config=watchdog, metrics=self.metrics)
        #: windowed telemetry + SLO monitor (created at the end of
        #: __init__, after recovery replay, so startup work is never a
        #: "window"); None until then and whenever the ticker is off.
        self.timeseries: Optional[TimeseriesRing] = None
        self.slo: Optional[SLOMonitor] = None
        self.store = ObjectStore()
        self.locks = LockManager(default_timeout=lock_timeout,
                                 metrics=self.metrics,
                                 watchdog=self.watchdog)
        self.transaction_manager = TransactionManager(self.locks, self.tracer,
                                                      metrics=self.metrics)
        self.object_manager = ObjectManager(self.store, self.transaction_manager,
                                            self.tracer, self.clock,
                                            metrics=self.metrics)
        self.condition_evaluator = ConditionEvaluator(
            self.object_manager, self.tracer,
            metrics=self.metrics, slow_log=self.slow_log)
        self.temporal_detector = TemporalEventDetector(
            self.clock, tracer=self.tracer, schema=self.store.schema)
        self.external_detector = ExternalEventDetector(tracer=self.tracer)
        self.composite_detector = CompositeEventDetector(
            tracer=self.tracer, schema=self.store.schema)
        self.applications = ApplicationRegistry(self.tracer)
        self.rule_manager = RuleManager(
            self.object_manager, self.transaction_manager,
            self.condition_evaluator, self.temporal_detector,
            self.external_detector, self.composite_detector,
            tracer=self.tracer, clock=self.clock,
            applications=self.applications, config=config,
            metrics=self.metrics, spans=self.spans, slow_log=self.slow_log,
            watchdog=self.watchdog)
        #: §6.1 rule creation and administration (the Rule Manager's
        #: catalog; the rule operations below call it directly)
        self.rule_catalog = self.rule_manager.catalog
        # Figure 5.1 wiring: every detector reports to the Rule Manager; the
        # Transaction Manager signals transaction termination to it.  The
        # database detector additionally delivers all reports of one
        # operation in a single batched call (one firing partition, §6.2).
        self.object_manager.event_detector.sink = self.rule_manager.signal_event
        self.object_manager.event_detector.sink_batch = \
            self.rule_manager.signal_event_batch
        self.temporal_detector.sink = self.rule_manager.signal_event
        self.external_detector.sink = self.rule_manager.signal_event
        self.composite_detector.sink = self.rule_manager.signal_event
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
            from repro.obs.provenance import ProvenanceStore
            prov = ProvenanceStore(metrics=self.metrics)
            self.provenance = prov
            self.object_manager.provenance = prov
            self.transaction_manager.provenance = prov
            self.rule_manager.provenance = prov
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
        #: is a plain list) on each window (:mod:`repro.obs.slo`).  The
        #: ticker backs off while the instance is idle, so short-lived
        #: instances (a test suite) cost a handful of wakeups.
        if observability:
            ring = TimeseriesRing(self.metrics,
                                  interval=timeseries_interval)
            self.timeseries = ring
            self.slo = SLOMonitor(ring, watchdog=self.watchdog,
                                  metrics=self.metrics)
            ring.add_callback(self._on_tick)
            ring.start()
        #: incident forensics: black-box snapshot bundles on watchdog
        #: alerts, SLO breaches (which arrive as SLO_BURN alerts), WAL
        #: append failures, and manual triggers (see
        #: :mod:`repro.obs.forensics`; ``python -m repro.tools.doctor``
        #: diagnoses the bundles).  ``forensics`` accepts ``True`` or a
        #: :class:`~repro.obs.forensics.ForensicsConfig`; off by default.
        self.forensics: Optional[Any] = None
        if forensics:
            from repro.obs.forensics import (ForensicsConfig,
                                             ForensicsRecorder)
            self.forensics = ForensicsRecorder(
                self, data_dir,
                config=(forensics if isinstance(forensics, ForensicsConfig)
                        else None),
                metrics=self.metrics,
                env={
                    "durability": durability,
                    "data_dir": str(data_dir),
                    "observability": str(observability),
                    "flight_recorder": bool(flight_recorder),
                    "provenance": self.provenance is not None,
                    "timeseries": self.timeseries is not None,
                    "timeseries_interval": timeseries_interval,
                    "lock_timeout": lock_timeout,
                    "watchdog": vars(self.watchdog.config),
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
        # finish while both are open.  The Rule Manager's own executor stops
        # with it; one the caller configured is the caller's to shut down.
        self.drain()
        if self.rule_manager.config.deadline_executor is None:
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

    def _on_tick(self, window: Window) -> None:
        """Per-window callback from the timeseries ticker.

        Drives the watchdog's pull-path detectors (so lock-wait and
        standing-deferred-backlog alerts fire without an external scraper
        attached) and the SLO burn-rate evaluation.
        """
        self.watchdog.check(deferred_depth=self._deferred_queue_depth(
            self.transaction_manager.live_transactions()))
        if self.slo is not None:
            self.slo.evaluate(now=window.t)

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
            self.tracer, mailbox=mailbox)

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
        operation, non-zero counters, component stats, span retention, and
        the slow-log tail."""
        return obs_export.metrics_report(self.metrics,
                                         slow_log=self.slow_log,
                                         span_recorder=self.spans)

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
            from repro.obs.provenance import parse_oid
            oid = parse_oid(oid)
        return self.provenance.why(oid, attr, depth=depth)

    def export_trace(self, path: Optional[Any] = None) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON of all retained span trees.

        Returns the document; when ``path`` is given it is also written
        there (load it in ``chrome://tracing`` or ui.perfetto.dev)."""
        if path is None:
            return obs_export.chrome_trace(self.spans)
        return obs_export.write_chrome_trace(self.spans, path)

    def prometheus_metrics(self) -> str:
        """The registry in Prometheus text exposition format."""
        return obs_export.prometheus_text(self.metrics)

    def serve_admin(self, port: int = 0, host: str = "127.0.0.1") -> Any:
        """Start (or return) the embedded admin HTTP endpoint.

        Serves ``/metrics`` (Prometheus text), ``/health`` (watchdog
        status JSON; 503 when failing), ``/stats`` (the :meth:`stats`
        snapshot plus derived gauges), ``/profile`` (rule-cascade
        profiler), ``/flight`` (flight-recorder journal stats and recent
        records; ``?download=1`` streams the live segment),
        ``/timeseries`` (windowed rates and percentiles from the
        background ticker), ``/slo`` (objective states and burn rates),
        ``/why`` (causal provenance chain for ``?oid=Class%23N&attr=``;
        see :meth:`why`), ``/alerts`` (the watchdog's bounded alert ring;
        ``?last=N``, ``?kind=``), ``/forensics`` (snapshot bundles:
        list, ``?id=…&download=1``, ``?capture=1``; requires
        ``forensics=True``), and ``/trace`` (Chrome trace download under
        ``observability="trace"``) on a daemon thread.  ``port=0`` binds
        an ephemeral port; read the bound address from the returned
        server's ``url``.  Idempotent: a second call returns the running
        server.  :meth:`close` shuts it down.
        """
        if self._admin is not None and self._admin.running:
            return self._admin
        from repro.obs.server import AdminServer
        self._admin = AdminServer(self, host=host, port=port)
        return self._admin

    def health(self) -> Dict[str, Any]:
        """Liveness/anomaly summary backing the admin ``/health`` endpoint.

        Runs the watchdog's pull-path checks, then escalates on failure
        signals the watchdog does not see: a failed WAL write (append or
        force) means durability is broken (``failing``), background
        separate-firing errors mean rule work is silently dying (at least
        ``degraded``).
        """
        report = self.watchdog.health()
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

    def admin_stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: server time + uptime (so pollers like
        ``repro.tools.top`` can compute rates from successive snapshots),
        the full :meth:`stats` tree, and live derived gauges."""
        live = self.transaction_manager.live_transactions()
        payload = {
            "time": time.time(),
            "uptime": time.time() - self._started_at,
            "stats": self.stats(),
            "derived": {
                "live_transactions": len(live),
                "deferred_queue_depth": self._deferred_queue_depth(live),
            },
        }
        # Mixed-type forensics status (last capture kind/id) lives here,
        # outside the numeric stats() tree the Prometheus exporter floats.
        if self.forensics is not None:
            payload["forensics"] = self.forensics.status()
        return payload

    @staticmethod
    def _deferred_queue_depth(live: List[Transaction]) -> int:
        """Deferred firings queued on the given live transactions."""
        return sum(len(txn.deferred_conditions) + len(txn.deferred_actions)
                   for txn in live)

    def rule_profiler(self) -> RuleProfiler:
        """A :class:`~repro.obs.profiler.RuleProfiler` over the current
        firing log and span trees (timing columns require
        ``observability="trace"``)."""
        return RuleProfiler(self.rule_manager.firings, self.spans)

    def rule_profile(self, top: int = 10) -> str:
        """Per-rule cost attribution report: firings, condition
        selectivity, self vs. cascade-inclusive time, and who-triggers-whom
        edges for the ``top`` hottest rules."""
        return self.rule_profiler().report(top=top)

    def _collect_component_stats(self) -> Dict[str, float]:
        """Pull-time metrics collector: flattens every component ``stats``
        section as ``<section>_<key>`` and derives the live deferred-queue
        depth — zero hot-path cost, always exact."""
        flat: Dict[str, float] = {}
        for section, values in self.stats().items():
            for key, value in values.items():
                flat["%s_%s" % (section, key)] = value
        live = self.transaction_manager.live_transactions()
        flat["live_transactions"] = len(live)
        flat["deferred_queue_depth"] = self._deferred_queue_depth(live)
        return flat

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Aggregated component statistics (benchmark reporting).

        The ``"events"`` section flattens each detector's counters under a
        ``<detector>_<counter>`` key — including the dispatch-index
        ``index_hits`` / ``index_misses`` / ``fast_path`` counters of the
        database detectors and the interest-set feed counters of the
        temporal/composite detectors.
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
        # (``wal_*``) and the flight journal (``journal_*``), each the
        # shared segment writer's counters plus its domain layer's own.
        wal_stats = self.wal.stats if self.wal is not None else {}
        storage = {"wal_%s" % key: wal_stats.get(key, 0) for key in (
            "records", "bytes", "segments", "fsyncs", "syncs",
            "group_leads", "group_follows", "batched_records",
            "commits_forced", "append_failures")}
        journal_stats = (self.flight_recorder.stats
                         if self.flight_recorder is not None else {})
        storage.update(
            ("journal_%s" % key, journal_stats.get(key, 0)) for key in (
                "records", "bytes", "segments", "rotations",
                "dropped_segments", "fsyncs", "last_seq", "suppressed",
                "checkpoint_markers"))
        provenance = dict.fromkeys(
            ("published", "pruned", "evicted", "why_queries",
             "live_entries", "approx_bytes", "per_key", "capacity"), 0)
        if self.provenance is not None:
            provenance.update(self.provenance.stats_snapshot())
        timeseries = dict.fromkeys(
            ("ticks", "idle_ticks", "tick_errors", "callback_errors",
             "windows", "capacity", "interval_ms"), 0)
        if self.timeseries is not None:
            timeseries.update(self.timeseries.stats)
        slo = dict.fromkeys(
            ("objectives", "evaluations", "breaches", "alerts",
             "ok", "burning", "breached", "recovered"), 0)
        if self.slo is not None:
            slo.update(self.slo.summary())
        forensics = dict.fromkeys(
            ("captures", "capture_errors", "debounced", "evicted",
             "bundles", "bytes"), 0)
        if self.forensics is not None:
            forensics.update(self.forensics.stats_snapshot())
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
                "spans_retained": len(self.spans.roots()),
                "spans_dropped": self.spans.dropped,
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
