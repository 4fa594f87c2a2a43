"""Tests for the HiPAC facade: wiring, auto-commit conveniences, stats."""

import dataclasses
import inspect
import threading

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    VirtualClock,
    attributes,
    on_create,
)
from repro.rules.manager import RuleManagerConfig


class TestConstruction:
    def test_bootstrap_defines_rule_class(self):
        db = HiPAC()
        assert db.store.schema.has("HiPAC::Rule")

    def test_detectors_wired_to_rule_manager(self):
        db = HiPAC()
        sink = db.rule_manager.signal_event
        assert db.object_manager.event_detector.sink == sink
        assert db.temporal_detector.sink == sink
        assert db.external_detector.sink == sink
        assert db.composite_detector.sink == sink
        assert db.transaction_manager.event_sink == db.rule_manager.transaction_event

    def test_custom_clock_used(self):
        clock = VirtualClock(100.0)
        db = HiPAC(clock=clock)
        assert db.clock.now() == 100.0

    def test_advance_time_requires_virtual_clock(self):
        from repro.clock import SystemClock
        db = HiPAC(clock=SystemClock())
        with pytest.raises(TypeError):
            db.advance_time(1.0)

    @pytest.mark.parametrize("kwargs", [
        {"observability": "verbose"},
        {"flight_recorder": True},
        {"forensics": True},
        {"durability": "wal"},
        {"durability": "bogus", "data_dir": "here", "flight_recorder": True},
    ], ids=["observability", "flight_recorder", "forensics", "wal", "bogus"])
    def test_rejected_arguments_build_nothing(self, kwargs, tmp_path):
        """Arguments are checked before the first component exists: a
        refused call starts no thread and writes no file."""
        if "data_dir" in kwargs:
            kwargs = dict(kwargs, data_dir=tmp_path)
        before = set(threading.enumerate())
        with pytest.raises(ValueError):
            HiPAC(**kwargs)
        assert set(threading.enumerate()) <= before
        assert list(tmp_path.iterdir()) == []

    def test_one_configuration(self):
        """The whole option surface of the engine.  A keyword or field added
        here multiplies what every test and benchmark owes; edit this list
        on purpose, not in passing."""
        parameters = inspect.signature(HiPAC.__init__).parameters
        assert list(parameters)[1:] == [
            "clock", "lock_timeout", "config", "durability", "data_dir",
            "wal_fsync", "rule_library", "observability", "watchdog",
            "flight_recorder", "provenance", "timeseries_interval",
            "forensics"]
        assert [f.name for f in dataclasses.fields(RuleManagerConfig)] == [
            "concurrent_conditions", "defer_to_top_level",
            "max_cascade_depth", "firing_log_capacity", "deadline_executor"]

    def test_the_wal_has_one_writer(self, tmp_path):
        """Durability lives at the commit point: the Transaction Manager
        writes the log (and the checkpointer truncates it).  The next
        component to hold it edits this test on purpose."""
        db = HiPAC(durability="wal", data_dir=tmp_path)
        try:
            assert db.wal is not None
            assert "object_manager" in vars(db)
            assert {name for name, part in vars(db).items()
                    if getattr(part, "wal", None) is not None} == {
                "transaction_manager", "checkpointer"}
        finally:
            db.close()


class TestAutoCommitConveniences:
    def test_define_class_auto_commits(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        with db.transaction() as txn:
            db.create("C", {"a": 1}, txn)

    def test_define_class_in_caller_txn(self):
        db = HiPAC()
        txn = db.begin()
        db.define_class(ClassDef("C", attributes("a")), txn)
        db.abort(txn)
        assert not db.store.schema.has("C")

    def test_drop_class(self):
        db = HiPAC()
        db.define_class(ClassDef("C"))
        db.drop_class("C")
        assert not db.store.schema.has("C")

    def test_create_rule_auto_commits(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        ran = []
        db.create_rule(Rule(name="r", event=on_create("C"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: ran.append(1))))
        with db.transaction() as txn:
            db.create("C", {"a": 1}, txn)
        assert ran == [1]

    def test_rule_ops_auto_commit(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        db.create_rule(Rule(name="r", event=on_create("C"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        db.disable_rule("r")
        db.enable_rule("r")
        db.delete_rule("r")
        assert db.rule_names() == []

    def test_transaction_context_commits(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        with db.transaction() as txn:
            db.create("C", {"a": 1}, txn)
        with db.transaction() as txn:
            assert len(db.query(Query("C"), txn)) == 1

    def test_transaction_context_aborts_on_error(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                db.create("C", {"a": 1}, txn)
                raise RuntimeError("boom")
        with db.transaction() as txn:
            assert len(db.query(Query("C"), txn)) == 0

    def test_manual_abort_inside_context_ok(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        with db.transaction() as txn:
            db.create("C", {"a": 1}, txn)
            db.abort(txn)
        with db.transaction() as txn:
            assert len(db.query(Query("C"), txn)) == 0


class TestStats:
    def test_stats_sections_present(self):
        db = HiPAC()
        stats = db.stats()
        for key in ("rules", "transactions", "locks", "objects",
                    "conditions", "condition_graph", "applications"):
            assert key in stats

    def test_stats_reflect_activity(self):
        db = HiPAC()
        db.define_class(ClassDef("C", attributes("a")))
        with db.transaction() as txn:
            db.create("C", {"a": 1}, txn)
        stats = db.stats()
        assert stats["objects"]["operations"] >= 2
        assert stats["transactions"]["top_level_committed"] >= 2

    def test_storage_section_keys(self, tmp_path):
        # The same keys in the same order whether the streams exist or not
        # (exporters and dashboards index this section by name).
        keys = [
            "wal_records", "wal_bytes", "wal_segments", "wal_fsyncs",
            "wal_syncs", "wal_group_leads", "wal_group_follows",
            "wal_batched_records", "wal_commits_forced",
            "wal_append_failures", "journal_records", "journal_bytes",
            "journal_segments", "journal_rotations",
            "journal_dropped_segments", "journal_fsyncs", "journal_last_seq",
            "journal_suppressed", "journal_checkpoint_markers"]
        db = HiPAC()
        assert list(db.stats()["storage"]) == keys
        assert set(db.stats()["storage"].values()) == {0}
        db = HiPAC(durability="wal", data_dir=tmp_path, wal_fsync=False,
                   flight_recorder=True)
        db.define_class(ClassDef("C", attributes("a")))
        storage = db.stats()["storage"]
        db.close()
        assert list(storage) == keys
        assert storage["wal_records"] > 0 and storage["journal_records"] > 0


class TestWorkloadGenerators:
    def test_symbols_distinct(self):
        from repro.workloads import make_symbols
        symbols = make_symbols(100)
        assert len(set(symbols)) == 100

    def test_market_generator_deterministic(self):
        from repro.workloads import MarketDataGenerator
        a = MarketDataGenerator(["X", "Y"], seed=5)
        b = MarketDataGenerator(["X", "Y"], seed=5)
        assert [q.price for q in a.stream(20)] == \
            [q.price for q in b.stream(20)]

    def test_market_prices_bounded_below(self):
        from repro.workloads import MarketDataGenerator
        gen = MarketDataGenerator(["X"], seed=1, initial_price=2.0, step=5.0,
                                  min_price=1.0)
        assert all(q.price >= 1.0 for q in gen.stream(100))

    def test_threshold_rules_shared_fraction(self):
        from repro.workloads import make_threshold_rules
        rules = make_threshold_rules(10, shared_fraction=0.5)
        keys = {rule.condition.queries[0].canonical_key() for rule in rules}
        assert len(keys) == 6  # 1 shared + 5 distinct

    def test_make_jobs_deterministic_and_monotone_arrivals(self):
        from repro.workloads import make_jobs
        jobs = make_jobs(50, seed=3)
        arrivals = [job.arrival for job in jobs]
        assert arrivals == sorted(arrivals)
        assert all(job.deadline > job.arrival for job in jobs)
