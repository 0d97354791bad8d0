"""What the stream block path may touch: facts, not timings.

A block's ingest must cost the block, not the log: the Event Handler and the
process pool read the Event Base by position, and a stream block with nothing
pending is its type signature, the one the Event Base's ``extend`` returned
while indexing it, so its ingest reads no row back.  How fast that is belongs
to ``benchmarks/e2e``; that it *is* so is asserted here.
"""

from __future__ import annotations

import pytest

from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.rules.event_handler import EventHandler
from repro.workloads.scaling import (
    build_scaling_rules,
    build_scaling_universe,
    build_shaped_blocks,
)

RULES = 120


@pytest.mark.parametrize(
    "placement",
    [{"shards": 0}, {"shards": 2, "shard_mode": "processes"}],
    ids=["single-table", "processes"],
)
def test_stream_blocks_never_copy_the_log(placement, monkeypatch):
    #: Lengths of every whole-log copy, wherever it was made.
    log_copies: list[int] = []
    #: ``(start, stop)`` of every log slice read while a block was ingested.
    ingest_reads: list[tuple[int, int]] = []
    #: What every stream block's ingest returned.
    signatures: list[frozenset] = []
    ingesting = False

    whole_log = EventBase.occurrences.fget
    log_slice = EventBase.occurrences_between
    store_external = EventHandler.store_external

    def spied_occurrences(store):
        log_copies.append(len(store))
        return whole_log(store)

    def spied_slice(store, start, stop):
        if ingesting:
            ingest_reads.append((start, stop))
        return log_slice(store, start, stop)

    def spied_store_external(handler, occurrences):
        nonlocal ingesting
        # The engine flushes after every consideration, so nothing is ever
        # pending when a stream block arrives.
        assert handler.pending_count() == 0
        ingesting = True
        try:
            signature = store_external(handler, occurrences)
        finally:
            ingesting = False
        signatures.append(signature)
        return signature

    monkeypatch.setattr(EventBase, "occurrences", property(spied_occurrences))
    monkeypatch.setattr(EventBase, "occurrences_between", spied_slice)
    monkeypatch.setattr(EventHandler, "store_external", spied_store_external)

    universe = build_scaling_universe(RULES)
    stream = build_shaped_blocks(universe, blocks=70, events_per_block=130)
    # Small blocks too: every size gets its signature from the Event Base.
    stream[:35] = [block[:24] for block in stream[:35]]
    db = ChimeraDatabase(**placement)
    try:
        for rule in build_scaling_rules(RULES, universe):
            db.define_rule(rule)
        for block in stream:
            db.engine.run_stream_block(block)
        considered = len(db.considerations)
        rules_checked = db.trigger_statistics()["rules_checked"]
    finally:
        db.close()

    assert considered > 0 and rules_checked > 0  # the pipeline did its work
    assert log_copies == []
    assert ingest_reads == []
    assert signatures == [
        frozenset(occurrence.event_type for occurrence in block) for block in stream
    ]
