"""What the stream block path may touch: facts, not timings.

A block's ingest must cost the block, not the log: the Event Handler and the
process pool read the Event Base by position, and every block carries the
type signature the Event Base's ``extend`` returned while indexing it.  How
fast that is belongs to ``benchmarks/e2e``; that it *is* so is asserted here.
"""

from __future__ import annotations

import pytest

from repro.events.event_base import _OccurrenceStore
from repro.oodb.database import ChimeraDatabase
from repro.rules.event_handler import BlockIngest
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
    log_copies: list[int] = []
    #: ``(occurrences, signature handed to BlockIngest)`` of every stream block.
    blocks: list[tuple[tuple, frozenset | None]] = []

    whole_log = _OccurrenceStore.occurrences.fget

    def spied_occurrences(store):
        log_copies.append(len(store))
        return whole_log(store)

    original_init = BlockIngest.__init__

    def spied_init(batch, occurrences, type_signature=None):
        original_init(batch, occurrences, type_signature)
        if batch:
            blocks.append((batch.occurrences, type_signature))

    monkeypatch.setattr(_OccurrenceStore, "occurrences", property(spied_occurrences))
    monkeypatch.setattr(BlockIngest, "__init__", spied_init)

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
    assert [list(occurrences) for occurrences, _ in blocks] == stream
    for occurrences, handed_signature in blocks:
        # Handed over by the Event Base's extend, not derived per row.
        assert handed_signature == frozenset(o.event_type for o in occurrences)
