"""``clear()`` empties a log in place: afterwards it answers like a new one.

A database keeps one Event Base and empties it at each transaction boundary
(paper §4.1), and a process worker empties its mirror with it.  Whatever the
log held before, every query after ``clear()`` and a second history must
equal the same query on a fresh store fed only that second history; and every
pattern list resolved before the clear must still be the store's live list,
holding exactly the indexes whose type the pattern matches.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.compile import compile_check
from repro.core.expressions import InstanceNegation, InstancePrecedence, Primitive
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase, StampIndex

A = EventType(Operation.CREATE, "A")
B = EventType(Operation.CREATE, "B")
MOD_AX = EventType(Operation.MODIFY, "A", "x")
MOD_AY = EventType(Operation.MODIFY, "A", "y")
MOD_A = EventType(Operation.MODIFY, "A")

EVENT_TYPES = [A, B, MOD_AX, MOD_AY, MOD_A]
#: Every pattern a binding may hold, including one no row ever has.
PATTERNS = EVENT_TYPES + [EventType(Operation.DELETE, "A")]
OIDS = ["o1", "o2", "o3"]

#: One batch: its rows' ``(type, oid)`` and how far its stamp moves on.
batches = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(EVENT_TYPES), st.sampled_from(OIDS)),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2),
)
histories = st.lists(batches, max_size=6)
bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=14))


def feed(event_base: EventBase, history) -> None:
    """Record one-row batches (the EB mints the EID), extend the others."""
    stamp = 1
    for rows, step in history:
        stamp += step
        if len(rows) == 1:
            event_type, oid = rows[0]
            event_base.record(event_type, oid, stamp)
        else:
            first = event_base._max_eid + 1
            event_base.extend(
                EventOccurrence(first + offset, event_type, oid, stamp)
                for offset, (event_type, oid) in enumerate(rows)
            )


def feed_mirror(mirror: StampIndex, history) -> None:
    stamp = 1
    for rows, step in history:
        stamp += step
        types = [event_type for event_type, _ in rows]
        mirror._index_rows(types, [oid for _, oid in rows], [stamp] * len(rows))


#: The compiled reads of every pattern: point ``ts`` / ``ots`` of the
#: primitive, and the exact check of the primitive, of a universal lift and of
#: an instance precedence.  A binding re-resolves whenever it meets another
#: store, so one set serves every store of every example.
POINTS = [compile_check(Primitive(pattern)) for pattern in PATTERNS]
CHECKS = [
    compile_check(expression)
    for pattern in PATTERNS
    for expression in (
        Primitive(pattern),
        InstanceNegation(Primitive(pattern)),
        InstancePrecedence(Primitive(A), Primitive(pattern)),
    )
]


def stamp_answers(store: StampIndex, after, until) -> list:
    """Every time-stamp reading the store's queries and the compiled kernels
    take: the point reads over the whole log, and the exact check over
    ``(after, until]`` that a worker runs on its mirror."""
    answers = [
        len(store),
        store.oids(after, until),
        store.timestamps(after, until),
        store.latest_timestamp(after, until),
        store.objects_affected_by(PATTERNS, None, after, until),
    ]
    for point in POINTS:
        for instant in (1, 4, 14):
            answers.append(point.ts(store, instant))
            answers.extend(point.ots(store, instant, oid) for oid in OIDS)
    now = 14 if until is None else until
    answers.extend(check.check(store, after, now) for check in CHECKS)
    return answers


def occurrence_answers(event_base: EventBase, after, until) -> list:
    answers = [
        list(event_base),
        event_base.occurrences_between(0, len(event_base)),
        list(event_base.view(after, until)),
        [event_base.get(row.eid) for row in event_base],
        event_base.record(A, "o9", 15),  # the EID it mints
    ]
    for pattern in PATTERNS:
        answers.append(event_base.occurrences_of(pattern, None, after, until))
    return answers


def assert_live_lists(store: StampIndex, resolved: dict) -> None:
    """Each list resolved earlier is still the store's, and brute-force exact."""
    for pattern, handle in resolved.items():
        assert store._indexes_matching(pattern) is handle
        expected = [
            index
            for event_type, index in store._by_type.items()
            if pattern.matches(event_type)
        ]
        assert sorted(map(id, handle)) == sorted(map(id, expected)), pattern


@settings(max_examples=150, deadline=None)
@given(before=histories, after_clear=histories, after=bounds, until=bounds)
def test_a_cleared_event_base_answers_like_a_fresh_one(
    before, after_clear, after, until
):
    if after is not None and until is not None and after > until:
        after, until = until, after
    event_base = EventBase()
    feed(event_base, before)
    resolved = {pattern: event_base._indexes_matching(pattern) for pattern in PATTERNS}
    event_base.clear()
    assert len(event_base) == 0 and event_base.timestamps() == []
    feed(event_base, after_clear)
    fresh = EventBase()
    feed(fresh, after_clear)
    assert stamp_answers(event_base, after, until) == stamp_answers(fresh, after, until)
    assert_live_lists(event_base, resolved)
    assert occurrence_answers(event_base, after, until) == occurrence_answers(
        fresh, after, until
    )


@settings(max_examples=100, deadline=None)
@given(before=histories, after_clear=histories, after=bounds, until=bounds)
def test_a_cleared_mirror_answers_like_a_fresh_one(before, after_clear, after, until):
    """A worker's mirror is a bare :class:`StampIndex`, emptied the same way."""
    if after is not None and until is not None and after > until:
        after, until = until, after
    mirror = StampIndex()
    feed_mirror(mirror, before)
    resolved = {pattern: mirror._indexes_matching(pattern) for pattern in PATTERNS}
    mirror.clear()
    feed_mirror(mirror, after_clear)
    fresh = StampIndex()
    feed_mirror(fresh, after_clear)
    assert stamp_answers(mirror, after, until) == stamp_answers(fresh, after, until)
    assert_live_lists(mirror, resolved)
