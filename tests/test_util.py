"""Tests for id generation and canonical value freezing."""

import threading

from repro.util.canonical import canonical_value, freeze
from repro.util.ids import IdGenerator


class TestIdGenerator:
    def test_sequential_ints(self):
        gen = IdGenerator()
        assert [gen.next_int() for _ in range(3)] == [1, 2, 3]

    def test_independent_generators(self):
        a, b = IdGenerator(), IdGenerator()
        a.next_int()
        assert b.next_int() == 1

    def test_thread_safety_no_duplicates(self):
        gen = IdGenerator()
        results = []
        lock = threading.Lock()

        def worker():
            local = [gen.next_int() for _ in range(200)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == len(set(results)) == 1600


class TestFreeze:
    def test_scalars_pass_through(self):
        assert freeze(42) == 42
        assert freeze("x") == "x"
        assert freeze(None) is None

    def test_list_becomes_tuple(self):
        assert freeze([1, 2, 3]) == (1, 2, 3)
        assert hash(freeze([1, 2, 3]))

    def test_nested_structures(self):
        frozen = freeze([1, [2, 3], {"a": [4]}])
        assert hash(frozen)
        assert frozen == (1, (2, 3), (("a", (4,)),))

    def test_set_becomes_frozenset(self):
        assert freeze({1, 2}) == frozenset({1, 2})

    def test_dict_order_insensitive(self):
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_canonical_value_is_stable(self):
        assert canonical_value({"a": 1}) == canonical_value({"a": 1})
