"""Tests for the stock scenario and the synthetic generators."""

from repro.core.expressions import Granularity, Primitive
from repro.events.event import Operation
from repro.workloads.generator import (
    EventStreamGenerator,
    ExpressionGenerator,
    event_type_universe,
    stream_to_event_base,
)
from repro.workloads.stock import (
    FIGURE3_ROWS,
    StockScenario,
    build_figure3_event_base,
)


class TestFigure3:
    def test_rows_match_the_paper(self):
        assert len(FIGURE3_ROWS) == 7
        assert FIGURE3_ROWS[0].event_type == "create(stock)"
        assert FIGURE3_ROWS[3].event_type == "create(notFilledOrder)"
        # e3 and e4 share a time stamp (same execution block in the paper).
        assert FIGURE3_ROWS[2].timestamp == FIGURE3_ROWS[3].timestamp

    def test_event_base_replay(self):
        eb = build_figure3_event_base()
        assert len(eb) == 7
        assert eb.obj(5) == "o1"
        assert str(eb.type_of(7)) == "delete(stock)"
        assert eb.timestamps() == [1, 2, 3, 5, 6, 7]


class TestStockScenario:
    def test_population(self):
        scenario = StockScenario(items=4, shelf_products=2, seed=0, install_rules=False)
        assert scenario.database.count("stock") == 4
        assert scenario.database.count("show") == 2
        assert len(scenario.stock_oids) == 4

    def test_rules_installed_by_default(self):
        scenario = StockScenario(items=2, shelf_products=1, seed=0)
        assert len(scenario.database.rule_table) == 3

    def test_run_day_is_reproducible(self):
        first = StockScenario(items=4, shelf_products=2, seed=42)
        second = StockScenario(items=4, shelf_products=2, seed=42)
        first.run_day(20)
        second.run_day(20)
        left = {str(o.oid): o.snapshot() for o in first.database.store.all_objects()}
        right = {str(o.oid): o.snapshot() for o in second.database.store.all_objects()}
        assert left == right

    def test_different_seeds_differ(self):
        first = StockScenario(items=4, shelf_products=2, seed=1)
        second = StockScenario(items=4, shelf_products=2, seed=2)
        first.run_day(30)
        second.run_day(30)
        left = {str(o.oid): o.snapshot() for o in first.database.store.all_objects()}
        right = {str(o.oid): o.snapshot() for o in second.database.store.all_objects()}
        assert left != right


class TestEventTypeUniverse:
    def test_shape(self):
        universe = event_type_universe(classes=2, attributes_per_class=3)
        assert len(universe) == 2 * (2 + 3)
        assert sum(1 for et in universe if et.operation is Operation.MODIFY) == 6


class TestEventStreamGenerator:
    def test_blocks_have_requested_size(self):
        generator = EventStreamGenerator(seed=0, events_per_block=4)
        blocks = generator.blocks(10)
        assert len(blocks) == 10
        assert all(len(block) == 4 for block in blocks)

    def test_timestamps_are_monotone(self):
        generator = EventStreamGenerator(seed=0)
        stream = [occ for block in generator.blocks(20) for occ in block]
        stamps = [occ.timestamp for occ in stream]
        assert stamps == sorted(stamps)

    def test_shared_block_timestamps(self):
        generator = EventStreamGenerator(
            seed=0, events_per_block=3, shared_block_timestamps=True
        )
        block = generator.next_block()
        assert len({occ.timestamp for occ in block}) == 1

    def test_reset_reproduces_the_stream(self):
        generator = EventStreamGenerator(seed=3)
        first = [[str(o) for o in b] for b in generator.blocks(5)]
        generator.reset()
        second = [[str(o) for o in b] for b in generator.blocks(5)]
        assert first == second

    def test_stream_to_event_base(self):
        generator = EventStreamGenerator(seed=1)
        blocks = generator.blocks(5)
        eb = stream_to_event_base(blocks)
        assert list(eb) == [occurrence for block in blocks for occurrence in block]


class TestExpressionGenerator:
    def test_operator_count_is_respected(self):
        generator = ExpressionGenerator(seed=0, instance_probability=0.0)
        for operators in (1, 3, 6):
            expression = generator.expression(operators)
            internal = sum(
                1 for node in expression.walk() if not isinstance(node, Primitive)
            )
            assert internal == operators

    def test_negation_free_mode(self):
        generator = ExpressionGenerator(
            seed=1, allow_negation=False, instance_probability=0.0
        )
        for expression in generator.expressions(10, operators=4):
            assert all(node.operator_name != "negation" for node in expression.walk())

    def test_instance_expressions_are_structurally_valid(self):
        generator = ExpressionGenerator(seed=2, instance_probability=1.0)
        for _ in range(10):
            expression = generator.instance_expression(operators=3)
            assert expression.may_be_instance_operand()

    def test_mixed_expressions_keep_instance_restriction(self):
        generator = ExpressionGenerator(seed=3, instance_probability=0.5)
        for expression in generator.expressions(20, operators=4):
            for node in expression.walk():
                if node.granularity is Granularity.INSTANCE:
                    assert node.may_be_instance_operand()

    def test_reproducibility(self):
        first = ExpressionGenerator(seed=9).expressions(5, operators=3)
        second = ExpressionGenerator(seed=9).expressions(5, operators=3)
        assert first == second
