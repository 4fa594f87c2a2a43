"""Tests for the declarative layer: constraints, referential integrity,
derived data, alerters, access control — all compiled to ECA rules."""

import pytest

from repro import (
    AccessDenied,
    AttrType,
    Attr,
    AttributeDef,
    ClassDef,
    HiPAC,
    IntegrityViolation,
    Query,
    on_update,
)
from repro.declarative import (
    CASCADE,
    RESTRICT,
    SET_NULL,
    AccessConstraint,
    Alerter,
    DerivedAttribute,
    DomainConstraint,
    ReferentialConstraint,
    install_access_constraint,
    install_alerter,
    install_derived_attribute,
    install_domain_constraint,
    install_referential_constraint,
)
from repro.conditions.condition import Condition


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Account", (
        AttributeDef("owner", AttrType.STRING, required=True),
        AttributeDef("balance", AttrType.NUMBER, default=0.0),
    )))
    yield database
    database.close()


class TestDomainConstraint:
    def constraint(self, immediate=False):
        return DomainConstraint("non-negative-balance", "Account",
                                Attr("balance") >= 0, immediate=immediate)

    def test_deferred_violation_aborts_commit(self, db):
        install_domain_constraint(db, self.constraint())
        txn = db.begin()
        db.create("Account", {"owner": "a", "balance": -5.0}, txn)
        with pytest.raises(IntegrityViolation):
            db.commit(txn)
        with db.transaction() as r:
            assert len(db.query(Query("Account"), r)) == 0

    def test_transient_violation_fixed_before_commit_ok(self, db):
        install_domain_constraint(db, self.constraint())
        with db.transaction() as txn:
            oid = db.create("Account", {"owner": "a", "balance": -5.0}, txn)
            db.update(oid, {"balance": 10.0}, txn)
        with db.transaction() as r:
            assert len(db.query(Query("Account"), r)) == 1

    def test_immediate_violation_fails_operation(self, db):
        install_domain_constraint(db, self.constraint(immediate=True))
        txn = db.begin()
        with pytest.raises(IntegrityViolation):
            db.create("Account", {"owner": "a", "balance": -5.0}, txn)
        db.abort(txn)

    def test_valid_data_commits(self, db):
        install_domain_constraint(db, self.constraint())
        with db.transaction() as txn:
            db.create("Account", {"owner": "a", "balance": 5.0}, txn)

    def test_repair_contingency(self, db):
        def clamp(ctx, violations):
            for row in violations:
                ctx.update(row.oid, {"balance": 0.0})

        install_domain_constraint(db, DomainConstraint(
            "clamp-balance", "Account", Attr("balance") >= 0, repair=clamp))
        with db.transaction() as txn:
            oid = db.create("Account", {"owner": "a", "balance": -5.0}, txn)
        with db.transaction() as r:
            assert db.read(oid, r)["balance"] == 0.0


class TestReferentialConstraint:
    @pytest.fixture
    def rdb(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("Dept", (
            AttributeDef("name", AttrType.STRING, required=True),
        )))
        database.define_class(ClassDef("Emp", (
            AttributeDef("name", AttrType.STRING, required=True),
            AttributeDef("dept", AttrType.OID),
        )))
        yield database
        database.close()

    def seed(self, rdb):
        with rdb.transaction() as txn:
            dept = rdb.create("Dept", {"name": "eng"}, txn)
            emp = rdb.create("Emp", {"name": "bob", "dept": dept}, txn)
        return dept, emp

    def test_restrict_blocks_delete(self, rdb):
        install_referential_constraint(rdb, ReferentialConstraint(
            "emp-dept", "Emp", "dept", "Dept", on_delete=RESTRICT))
        dept, emp = self.seed(rdb)
        txn = rdb.begin()
        with pytest.raises(IntegrityViolation):
            rdb.delete(dept, txn)
        rdb.abort(txn)
        with rdb.transaction() as r:
            assert rdb.store.exists(dept)

    def test_restrict_allows_delete_without_references(self, rdb):
        install_referential_constraint(rdb, ReferentialConstraint(
            "emp-dept", "Emp", "dept", "Dept", on_delete=RESTRICT))
        dept, emp = self.seed(rdb)
        with rdb.transaction() as txn:
            rdb.delete(emp, txn)
            rdb.delete(dept, txn)

    def test_cascade_deletes_references(self, rdb):
        install_referential_constraint(rdb, ReferentialConstraint(
            "emp-dept", "Emp", "dept", "Dept", on_delete=CASCADE))
        dept, emp = self.seed(rdb)
        with rdb.transaction() as txn:
            rdb.delete(dept, txn)
        assert not rdb.store.exists(emp)

    def test_set_null_clears_references(self, rdb):
        install_referential_constraint(rdb, ReferentialConstraint(
            "emp-dept", "Emp", "dept", "Dept", on_delete=SET_NULL))
        dept, emp = self.seed(rdb)
        with rdb.transaction() as txn:
            rdb.delete(dept, txn)
        with rdb.transaction() as r:
            assert rdb.read(emp, r)["dept"] is None

    def test_dangling_insert_rejected(self, rdb):
        install_referential_constraint(rdb, ReferentialConstraint(
            "emp-dept", "Emp", "dept", "Dept"))
        dept, _ = self.seed(rdb)
        with rdb.transaction() as txn:
            rdb.delete(
                rdb.query(Query("Emp"), txn).first().oid, txn)
            rdb.delete(dept, txn)
        txn = rdb.begin()
        with pytest.raises(IntegrityViolation):
            rdb.create("Emp", {"name": "eve", "dept": dept}, txn)
        rdb.abort(txn)

    def test_null_fk_allowed(self, rdb):
        install_referential_constraint(rdb, ReferentialConstraint(
            "emp-dept", "Emp", "dept", "Dept"))
        with rdb.transaction() as txn:
            rdb.create("Emp", {"name": "floater", "dept": None}, txn)

    def test_unknown_action_rejected(self):
        with pytest.raises(IntegrityViolation):
            ReferentialConstraint("x", "Emp", "dept", "Dept",
                                  on_delete="explode")


class TestDerivedAttribute:
    @pytest.fixture
    def ddb(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("Portfolio", (
            AttributeDef("owner", AttrType.STRING, required=True),
            AttributeDef("total", AttrType.NUMBER, default=0.0),
        )))
        database.define_class(ClassDef("Holding", (
            AttributeDef("portfolio", AttrType.OID),
            AttributeDef("value", AttrType.NUMBER, default=0.0),
        )))
        install_derived_attribute(database, DerivedAttribute(
            "portfolio-total", "Portfolio", "total",
            "Holding", "portfolio", "value", aggregate="sum"))
        yield database
        database.close()

    def test_sum_maintained_on_create(self, ddb):
        with ddb.transaction() as txn:
            p = ddb.create("Portfolio", {"owner": "a"}, txn)
            ddb.create("Holding", {"portfolio": p, "value": 10.0}, txn)
            ddb.create("Holding", {"portfolio": p, "value": 5.0}, txn)
        with ddb.transaction() as r:
            assert ddb.read(p, r)["total"] == 15.0

    def test_sum_maintained_on_update_and_delete(self, ddb):
        with ddb.transaction() as txn:
            p = ddb.create("Portfolio", {"owner": "a"}, txn)
            h = ddb.create("Holding", {"portfolio": p, "value": 10.0}, txn)
        with ddb.transaction() as txn:
            ddb.update(h, {"value": 4.0}, txn)
        with ddb.transaction() as r:
            assert ddb.read(p, r)["total"] == 4.0
        with ddb.transaction() as txn:
            ddb.delete(h, txn)
        with ddb.transaction() as r:
            assert ddb.read(p, r)["total"] == 0

    def test_relink_moves_contribution(self, ddb):
        with ddb.transaction() as txn:
            p1 = ddb.create("Portfolio", {"owner": "a"}, txn)
            p2 = ddb.create("Portfolio", {"owner": "b"}, txn)
            h = ddb.create("Holding", {"portfolio": p1, "value": 7.0}, txn)
        with ddb.transaction() as txn:
            ddb.update(h, {"portfolio": p2}, txn)
        with ddb.transaction() as r:
            assert ddb.read(p1, r)["total"] == 0
            assert ddb.read(p2, r)["total"] == 7.0

    def test_count_aggregate(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("P", (
            AttributeDef("n", AttrType.INT, default=0),)))
        database.define_class(ClassDef("H", (
            AttributeDef("p", AttrType.OID),)))
        install_derived_attribute(database, DerivedAttribute(
            "cnt", "P", "n", "H", "p", "p", aggregate="count"))
        with database.transaction() as txn:
            p = database.create("P", {}, txn)
            database.create("H", {"p": p}, txn)
            database.create("H", {"p": p}, txn)
        with database.transaction() as r:
            assert database.read(p, r)["n"] == 2

    def test_unknown_aggregate_rejected(self):
        from repro.errors import RuleError
        with pytest.raises(RuleError):
            DerivedAttribute("x", "P", "n", "H", "p", "v",
                             aggregate="median").to_rule()


class TestAlerter:
    def test_callable_notification(self, db):
        alerts = []
        install_alerter(db, Alerter(
            "low-balance",
            event=on_update("Account", attrs=["balance"]),
            condition=Condition.of(Query("Account", Attr("balance") < 10)),
            notify=lambda ctx: alerts.append(ctx.results[0].values("balance")),
            coupling="immediate",
        ))
        with db.transaction() as txn:
            oid = db.create("Account", {"owner": "a", "balance": 100.0}, txn)
        with db.transaction() as txn:
            db.update(oid, {"balance": 5.0}, txn)
        assert alerts == [[5.0]]

    def test_application_notification(self, db):
        app = db.application("pager")
        pages = []
        app.operations.register("page", lambda alerter, bindings: pages.append(alerter))
        install_alerter(db, Alerter(
            "any-change",
            event=on_update("Account"),
            condition=Condition.true(),
            notify=("pager", "page"),
            coupling="immediate",
        ))
        with db.transaction() as txn:
            oid = db.create("Account", {"owner": "a"}, txn)
            db.update(oid, {"balance": 1.0}, txn)
        assert pages == ["any-change"]


class TestAccessConstraint:
    def test_unauthorized_user_denied(self, db):
        install_access_constraint(db, AccessConstraint(
            "only-alice", "Account", allowed_users=frozenset({"alice"})))
        txn = db.begin()
        with pytest.raises(AccessDenied):
            db.object_manager.create("Account", {"owner": "x"}, txn, user="bob")
        db.abort(txn)

    def test_authorized_user_allowed(self, db):
        install_access_constraint(db, AccessConstraint(
            "only-alice", "Account", allowed_users=frozenset({"alice"})))
        with db.transaction() as txn:
            db.object_manager.create("Account", {"owner": "x"}, txn, user="alice")

    def test_custom_check(self, db):
        install_access_constraint(db, AccessConstraint(
            "even-balances", "Account", operations=("update",),
            check=lambda user, bindings: user.startswith("admin")))
        with db.transaction() as txn:
            oid = db.object_manager.create("Account", {"owner": "x"}, txn,
                                           user="admin1")
        txn = db.begin()
        with pytest.raises(AccessDenied):
            db.object_manager.update(oid, {"balance": 1.0}, txn, user="bob")
        db.abort(txn)
