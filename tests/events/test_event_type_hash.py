"""``EventType`` hashes once, per interpreter.

String hashes are salted per process (``PYTHONHASHSEED``), and rule
definitions are pickled to shard workers that may run on another host.  The
hash cached at construction must therefore never travel: an unpickled type
has to hash like one built in the receiving interpreter, or every index keyed
by event type silently misses there.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation

QUANTITY = EventType(Operation.MODIFY, "stock", "quantity")
EXPRESSION_TEXT = "create(stock) + modify(stock.quantity)"

#: Runs in an interpreter with another hash seed: everything unpickled must be
#: found by equal types built here.
PROBE = f"""
import pickle, sys
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation

event_type, expression, table = pickle.loads(sys.stdin.buffer.read())
fresh = EventType(Operation.MODIFY, "stock", "quantity")
assert event_type == fresh
assert hash(event_type) == hash(fresh), "the cached hash crossed the pickle"
assert table[fresh] == "hit"
assert fresh in {{event_type}} and event_type in {{fresh}}
assert event_type.class_level == EventType(Operation.MODIFY, "stock")
assert hash(event_type.class_level) == hash(EventType(Operation.MODIFY, "stock"))
rebuilt = parse_expression({EXPRESSION_TEXT!r})
assert expression == rebuilt and hash(expression) == hash(rebuilt)
by_type = {{watched: str(watched) for watched in expression.event_types()}}
for watched in rebuilt.event_types():
    assert by_type[watched] == str(watched)
print("ok")
"""


class TestHashDoesNotTravel:
    # Two seeds: at least one differs from this interpreter's, whatever it is.
    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_unpickled_types_hash_like_local_ones_under_another_seed(self, seed):
        QUANTITY.class_level  # a filled memo must not travel either
        payload = pickle.dumps(
            (QUANTITY, parse_expression(EXPRESSION_TEXT), {QUANTITY: "hit"})
        )
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, env.get("PYTHONPATH")])
        )
        probe = subprocess.run(
            [sys.executable, "-c", PROBE],
            input=payload,
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert probe.returncode == 0, probe.stderr.decode()
        assert probe.stdout.decode().strip() == "ok"

    def test_pickle_carries_the_three_fields_only(self):
        QUANTITY.class_level
        clone = pickle.loads(pickle.dumps(QUANTITY))
        assert clone == QUANTITY
        assert "class_level" not in vars(clone)
        assert {f.name for f in dataclasses.fields(clone)} == {
            "operation",
            "class_name",
            "attribute",
        }


class TestValueSemanticsUnchanged:
    def test_hash_is_the_hash_of_the_fields(self):
        assert hash(QUANTITY) == hash((Operation.MODIFY, "stock", "quantity"))
        assert hash(QUANTITY) == hash(EventType(Operation.MODIFY, "stock", "quantity"))

    def test_copies_equal_and_hash_alike(self):
        for clone in (copy.copy(QUANTITY), copy.deepcopy(QUANTITY)):
            assert clone == QUANTITY and hash(clone) == hash(QUANTITY)
            assert {QUANTITY: 1}[clone] == 1

    def test_replace_rehashes(self):
        replaced = dataclasses.replace(QUANTITY, attribute="minquantity")
        fresh = EventType(Operation.MODIFY, "stock", "minquantity")
        assert replaced == fresh and hash(replaced) == hash(fresh)
        assert replaced != QUANTITY

    def test_equality_ignores_the_memos(self):
        probed = EventType(Operation.MODIFY, "stock", "quantity")
        probed.class_level
        untouched = EventType(Operation.MODIFY, "stock", "quantity")
        assert probed == untouched and untouched == probed

    def test_ordering_is_by_fields(self):
        types = [
            EventType(Operation.MODIFY, "stock", "quantity"),
            EventType(Operation.CREATE, "stock"),
            EventType(Operation.MODIFY, "stock", "minquantity"),
            EventType(Operation.CREATE, "order"),
            # A class-level type beside its attribute types: the order is
            # total, not a comparison of None with a string.
            EventType(Operation.MODIFY, "stock"),
        ]
        assert sorted(types) == sorted(
            types, key=lambda t: (t.operation, t.class_name, t.attribute or "")
        )
        assert EventType(Operation.CREATE, "order") < EventType(
            Operation.CREATE, "stock"
        )
        attribute = EventType(Operation.MODIFY, "cls2", "attr1")
        class_level = EventType(Operation.MODIFY, "cls2")
        assert sorted([attribute, class_level]) == [class_level, attribute]
        assert class_level < attribute and attribute > class_level
        assert class_level <= class_level and not attribute <= class_level

    def test_class_level(self):
        class_level = EventType(Operation.MODIFY, "stock")
        assert QUANTITY.class_level == class_level
        assert QUANTITY.class_level is QUANTITY.class_level
        assert class_level.class_level is class_level
