"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
from typing import Iterator, List

import pytest

from repro import AttrType, AttributeDef, ClassDef, HiPAC


@pytest.fixture(autouse=True)
def _close_what_the_test_left_open(monkeypatch: pytest.MonkeyPatch
                                   ) -> Iterator[None]:
    """Close every HiPAC the test built.  An instance left open keeps its
    threads (the timeseries ticker, separate-coupling workers) alive for
    the rest of the session, where they starve later threaded tests.
    Closing twice is harmless; an instance a test broke on purpose may
    refuse to close, and that is ignored."""
    built: List[HiPAC] = []
    init = HiPAC.__init__

    @functools.wraps(init)
    def recording_init(self: HiPAC, *args, **kwargs) -> None:
        built.append(self)   # first: a constructor that raises may own threads
        init(self, *args, **kwargs)

    monkeypatch.setattr(HiPAC, "__init__", recording_init)
    yield
    for database in built:
        try:
            database.close()
        except Exception:
            pass


def stock_class(name: str = "Stock") -> ClassDef:
    """A stock class with an indexed symbol and a numeric price."""
    return ClassDef(name, (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("price", AttrType.NUMBER, default=0.0),
        AttributeDef("volume", AttrType.INT, default=0),
    ))


@pytest.fixture
def db() -> Iterator[HiPAC]:
    """A fresh HiPAC instance with a short lock timeout (fast test failure)."""
    database = HiPAC(lock_timeout=2.0)
    yield database
    database.close()


@pytest.fixture
def stock_db(db: HiPAC) -> HiPAC:
    """HiPAC with the Stock class defined."""
    db.define_class(stock_class())
    return db


