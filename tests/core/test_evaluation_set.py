"""Set-oriented ``ts`` semantics, including the worked timelines of paper §3.1."""

import pytest

from repro.core.compile import ts as compiled_ts
from repro.core.expressions import (
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.core.parser import parse_expression
from repro.errors import EvaluationError
from repro.events.event import EventType, Operation
from repro.workloads.generator import EventStreamGenerator, ExpressionGenerator

from tests.conftest import A, B, PA, PB, event_base_of, history
from tests.oracle import EvaluationMode, EvaluationStats, evaluate, is_active, ts

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
CREATE_ORDER = EventType(Operation.CREATE, "stockOrder")
MODIFY_DEL = EventType(Operation.MODIFY, "stockOrder", "delquantity")
MODIFY_MIN = EventType(Operation.MODIFY, "stock", "minquantity")
MODIFY_SHOW = EventType(Operation.MODIFY, "show", "quantity")

BOTH_MODES = [EvaluationMode.LOGICAL, EvaluationMode.ALGEBRAIC]


class TestPrimitive:
    """§3.1: two occurrences of create(stock) at t1 and t2."""

    window = history((CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2))
    expression = parse_expression("create(stock)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_not_active_before_first_occurrence(self, calculus, mode):
        # The paper evaluates "at time t < t1"; with integer ticks the earliest
        # probe instant before t1=1 does not exist, so probe exactly where the
        # first occurrence is missing by using a window starting later.
        empty = history((CREATE_STOCK, "o1", 5))
        assert calculus.ts(self.expression, empty, 4, mode) == -4

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_active_between_first_and_second(self, calculus, mode):
        assert calculus.ts(self.expression, self.window, 1, mode) == 1

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_activation_timestamp_moves_to_latest_occurrence(self, calculus, mode):
        assert calculus.ts(self.expression, self.window, 2, mode) == 2
        assert calculus.ts(self.expression, self.window, 10, mode) == 2

    def test_inactive_value_is_minus_t(self, calculus):
        other = parse_expression("delete(stock)")
        assert calculus.ts(other, self.window, 9) == -9

    def test_evaluate_wrapper(self):
        value = evaluate(self.expression, self.window, 5)
        assert value.is_active
        assert value.activation_timestamp == 2
        assert int(value) == 2

    def test_is_active_helper(self):
        assert is_active(self.expression, self.window, 5)
        assert not is_active(parse_expression("delete(stock)"), self.window, 5)

    def test_requires_positive_instant(self, calculus):
        with pytest.raises(EvaluationError):
            calculus.ts(self.expression, self.window, 0)


class TestDisjunctionTimeline:
    """§3.1 disjunction example: create(stock) at t1,t2; modify at t3."""

    window = history(
        (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2), (MODIFY_QTY, "o1", 3)
    )
    expression = parse_expression("create(stock) , modify(stock.quantity)")

    @pytest.mark.parametrize(
        "instant, expected",
        [(1, 1), (2, 2), (3, 3), (10, 3)],
    )
    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_activation_follows_most_recent_component(
        self, calculus, instant, expected, mode
    ):
        assert calculus.ts(self.expression, self.window, instant, mode) == expected

    def test_not_active_when_no_component_occurred(self, calculus):
        window = history((CREATE_ORDER, "o9", 4))
        assert calculus.ts(self.expression, window, 5) == -5


class TestConjunctionTimeline:
    """§3.1 conjunction example: active only once both components occurred."""

    window = history(
        (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2), (MODIFY_QTY, "o1", 3)
    )
    expression = parse_expression("create(stock) + modify(stock.quantity)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_not_active_before_second_component(self, calculus, mode):
        assert calculus.ts(self.expression, self.window, 1, mode) == -1
        assert calculus.ts(self.expression, self.window, 2, mode) == -2

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_active_with_highest_component_timestamp(self, calculus, mode):
        assert calculus.ts(self.expression, self.window, 3, mode) == 3
        assert calculus.ts(self.expression, self.window, 10, mode) == 3


class TestNegationTimeline:
    """§3.1 negation example: -create(stock) active only before the creation."""

    expression = parse_expression("-create(stock)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_active_before_any_occurrence(self, calculus, mode):
        window = history((CREATE_STOCK, "o1", 5))
        assert calculus.ts(self.expression, window, 3, mode) == 3

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_not_active_after_occurrence(self, calculus, mode):
        window = history((CREATE_STOCK, "o1", 5))
        assert calculus.ts(self.expression, window, 5, mode) == -5
        assert calculus.ts(self.expression, window, 9, mode) == -5

    def test_negation_activation_is_current_time(self, calculus):
        window = history((MODIFY_QTY, "o1", 2))
        assert calculus.ts(self.expression, window, 7) == 7
        assert calculus.ts(self.expression, window, 8) == 8

    def test_inactive_value_follows_the_latest_occurrence(self, calculus):
        # §3.1's history: create(stock) at t1 and t2, modify at t3.
        window = history(
            (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2), (MODIFY_QTY, "o1", 3)
        )
        values = [calculus.ts(self.expression, window, t) for t in (1, 2, 3, 4)]
        assert values == [-1, -2, -2, -2]


class TestPrecedenceTimeline:
    """§3.1 precedence example: create(stock) < modify(stock.quantity)."""

    window = history(
        (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2), (MODIFY_QTY, "o1", 3)
    )
    expression = parse_expression("create(stock) < modify(stock.quantity)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_not_active_before_second_component(self, calculus, mode):
        assert calculus.ts(self.expression, self.window, 1, mode) == -1
        assert calculus.ts(self.expression, self.window, 2, mode) == -2

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_active_with_second_component_timestamp(self, calculus, mode):
        assert calculus.ts(self.expression, self.window, 3, mode) == 3
        assert calculus.ts(self.expression, self.window, 4, mode) == 3

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_later_first_component_does_not_move_activation(self, calculus, mode):
        # The paper: "the second creation has a time stamp greater than that of
        # the last modification", so the activation stays at t3.
        later_create = history(
            (CREATE_STOCK, "o1", 1),
            (MODIFY_QTY, "o1", 3),
            (CREATE_STOCK, "o2", 4),
        )
        assert calculus.ts(self.expression, later_create, 9, mode) == 3

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_wrong_order_never_activates(self, calculus, mode):
        window = history((MODIFY_QTY, "o1", 1), (CREATE_STOCK, "o1", 2))
        assert calculus.ts(self.expression, window, 5, mode) == -5

    def test_missing_first_component(self, calculus):
        window = history((MODIFY_QTY, "o1", 4))
        assert calculus.ts(self.expression, window, 6) == -6

    def test_missing_second_component(self, calculus):
        window = history((CREATE_STOCK, "o1", 4))
        assert calculus.ts(self.expression, window, 6) == -6


class TestComplexSetExpression:
    """The full §3.1 composite expression over show / stockOrder / stock events."""

    EXPRESSION = parse_expression(
        "modify(show.quantity) + -("
        "(create(stockOrder) < modify(stockOrder.delquantity)) , "
        "(modify(stock.minquantity) < modify(stock.quantity)))"
    )

    def test_active_when_shelf_changed_and_no_inner_sequence(self, calculus):
        window = history((MODIFY_SHOW, "p1", 4))
        assert calculus.ts(self.EXPRESSION, window, 5) > 0

    def test_inactive_when_stock_order_sequence_happened(self, calculus):
        window = history(
            (MODIFY_SHOW, "p1", 2), (CREATE_ORDER, "so1", 3), (MODIFY_DEL, "so1", 4)
        )
        assert calculus.ts(self.EXPRESSION, window, 5) < 0

    def test_inactive_when_min_then_quantity_sequence_happened(self, calculus):
        window = history(
            (MODIFY_SHOW, "p1", 2), (MODIFY_MIN, "o1", 3), (MODIFY_QTY, "o2", 4)
        )
        assert calculus.ts(self.EXPRESSION, window, 5) < 0

    def test_inactive_without_shelf_change(self, calculus):
        window = history((CREATE_ORDER, "so1", 3))
        assert calculus.ts(self.EXPRESSION, window, 5) < 0

    def test_unordered_inner_events_do_not_disable(self, calculus):
        # quantity modified *before* minquantity: the inner precedence is not
        # active, so its negation keeps the whole expression active.
        window = history(
            (MODIFY_QTY, "o2", 2), (MODIFY_MIN, "o1", 3), (MODIFY_SHOW, "p1", 4)
        )
        assert calculus.ts(self.EXPRESSION, window, 5) > 0


class TestModesAgree:
    def test_logical_and_algebraic_agree_on_nested_expression(self):
        expression = SetDisjunction(
            SetConjunction(PA, SetNegation(PB)), SetPrecedence(PA, PB)
        )
        window = history((A, "o1", 2), (B, "o2", 5), (A, "o3", 7))
        for instant in range(1, 10):
            compiled = compiled_ts(expression, window, instant)
            for mode in EvaluationMode:
                assert ts(expression, window, instant, mode) == compiled


class TestEvaluationStats:
    def test_stats_count_primitive_lookups(self):
        stats = EvaluationStats()
        window = history((A, "o1", 1), (B, "o1", 2))
        ts(SetConjunction(PA, PB), window, 3, stats=stats)
        assert stats.evaluations == 1
        assert stats.primitive_lookups == 2
        assert stats.node_visits == 3

    def test_stats_merge_and_reset(self):
        first = EvaluationStats(node_visits=2, primitive_lookups=1)
        second = EvaluationStats(node_visits=3, primitive_lookups=2, evaluations=1)
        first.merge(second)
        assert first.node_visits == 5
        assert first.primitive_lookups == 3
        first.reset()
        assert first.node_visits == 0

    def test_work_grows_with_expression_size_and_instance_lifts(self):
        """The cost shape of one ``ts``: node visits grow with the operator
        count for every operator mix, and lifting instance-oriented
        sub-expressions over their objects costs primitive look-ups."""
        blocks = EventStreamGenerator(seed=33, events_per_block=3).blocks(80)
        window = event_base_of([occurrence for block in blocks for occurrence in block])
        latest = window.latest_timestamp()
        mixes = {
            "boolean": dict(precedence_weight=0.0, allow_negation=False),
            "precedence": dict(precedence_weight=3.0, allow_negation=False),
            "negation": dict(precedence_weight=0.5, negation_weight=3.0),
            "instance": dict(precedence_weight=0.5, instance_probability=0.6),
        }

        def cost(mix: str, operators: int) -> EvaluationStats:
            options = {"instance_probability": 0.0, **mixes[mix]}
            generator = ExpressionGenerator(seed=operators, **options)
            stats = EvaluationStats()
            for expression in generator.expressions(10, operators=operators):
                for step in range(50):
                    ts(expression, window, 1 + (step * 7) % latest, stats=stats)
            return stats

        for mix in mixes:
            assert cost(mix, 16).node_visits > cost(mix, 1).node_visits, mix
        assert (
            cost("instance", 8).primitive_lookups
            > cost("boolean", 8).primitive_lookups
        )
