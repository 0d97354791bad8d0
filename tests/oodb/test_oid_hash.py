"""``OID`` hashes once, per interpreter.

The store, the per-type Event Base indexes and every binding set are keyed by
OID, so the hash is cached at construction — and, as for ``EventType``
(``tests/events/test_event_type_hash.py``), it must never travel: string
hashes are salted per process (``PYTHONHASHSEED``) and occurrences carrying
an OID are pickled to shard workers, so an unpickled OID has to hash like one
built in the receiving interpreter.
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
from repro.events.event import EventOccurrence, EventType, Operation
from repro.oodb.objects import OID

ITEM = OID("stock", 7)
OCCURRENCE = EventOccurrence(
    eid=1, event_type=EventType(Operation.CREATE, "stock"), oid=ITEM, timestamp=3
)

#: Runs in an interpreter with another hash seed: everything unpickled must be
#: found by an equal OID built here.
PROBE = """
import pickle, sys
from repro.core.compile import ots
from repro.core.expressions import Primitive
from repro.events.event_base import EventBase
from repro.oodb.objects import OID

oid, table, occurrence = pickle.loads(sys.stdin.buffer.read())
fresh = OID("stock", 7)
assert oid == fresh
assert hash(oid) == hash(fresh), "the cached hash crossed the pickle"
assert table[fresh] == "hit"
assert fresh in {oid} and oid in {fresh}
assert occurrence.oid == fresh and hash(occurrence.oid) == hash(fresh)
event_base = EventBase()
event_base.append(occurrence)
window = event_base.full_view()
assert fresh in window.oids()
assert ots(Primitive(occurrence.event_type), window, 5, fresh) == 3
print("ok")
"""


class TestHashDoesNotTravel:
    # Two seeds: at least one differs from this interpreter's, whatever it is.
    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_unpickled_oids_hash_like_local_ones_under_another_seed(self, seed):
        payload = pickle.dumps((ITEM, {ITEM: "hit"}, OCCURRENCE))
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

    def test_pickle_carries_the_two_fields_only(self):
        assert pickle.loads(pickle.dumps(ITEM)) == ITEM
        assert ITEM.__reduce__() == (OID, ("stock", 7))
        # No cached hash in the stream: an integer that happens to equal it
        # would be this interpreter's salt leaking to the receiver.
        assert b"_hash" not in pickle.dumps(ITEM)
        assert b"_hash" not in pickle.dumps(OCCURRENCE)


class TestValueSemanticsUnchanged:
    def test_hash_is_the_hash_of_the_fields(self):
        assert hash(ITEM) == hash(("stock", 7)) == hash(OID("stock", 7))

    def test_copies_equal_and_hash_alike(self):
        for clone in (copy.copy(ITEM), copy.deepcopy(ITEM)):
            assert clone == ITEM and hash(clone) == hash(ITEM)
            assert {ITEM: 1}[clone] == 1

    def test_replace_rehashes(self):
        replaced = dataclasses.replace(ITEM, serial=8)
        assert replaced == OID("stock", 8) and hash(replaced) == hash(OID("stock", 8))
        assert replaced != ITEM

    def test_ordering_equality_and_text(self):
        oids = [OID("stock", 10), OID("order", 3), OID("stock", 2)]
        assert sorted(oids) == [OID("order", 3), OID("stock", 2), OID("stock", 10)]
        assert ITEM == OID("stock", 7) and ITEM != OID("stock", 8)
        assert ITEM != ("stock", 7)
        assert str(ITEM) == "stock#7"
        assert repr(ITEM) == "OID(class_name='stock', serial=7)"
        assert {f.name for f in dataclasses.fields(ITEM)} == {"class_name", "serial"}

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ITEM.serial = 8
