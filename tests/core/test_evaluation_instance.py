"""Instance-oriented ``ots`` semantics and lifting (paper §3.2 worked examples)."""

import pytest

from repro.core.evaluation import EvaluationMode, active_objects, evaluate
from repro.core.parser import parse_expression
from repro.errors import EvaluationError
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase

from tests.conftest import history

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
MODIFY_MIN = EventType(Operation.MODIFY, "stock", "minquantity")
MODIFY_SHOW = EventType(Operation.MODIFY, "show", "quantity")

BOTH_MODES = [EvaluationMode.LOGICAL, EvaluationMode.ALGEBRAIC]


class TestPrimitivePerObject:
    """§3.2: create(stock) on o1 at t1 and on o2 at t2."""

    window = history((CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2))
    expression = parse_expression("create(stock)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_active_only_for_affected_object(self, calculus, mode):
        assert calculus.ots(self.expression, self.window, 1, "o1", mode) == 1
        assert calculus.ots(self.expression, self.window, 1, "o2", mode) == -1

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_each_object_keeps_its_own_timestamp(self, calculus, mode):
        assert calculus.ots(self.expression, self.window, 5, "o1", mode) == 1
        assert calculus.ots(self.expression, self.window, 5, "o2", mode) == 2

    def test_unknown_object_is_inactive(self, calculus):
        assert calculus.ots(self.expression, self.window, 5, "o9") == -5

    def test_requires_positive_instant(self, calculus):
        with pytest.raises(EvaluationError):
            calculus.ots(self.expression, self.window, 0, "o1")

    def test_set_oriented_operator_rejected(self, calculus):
        with pytest.raises(EvaluationError):
            calculus.ots(
                parse_expression("create(stock) + delete(stock)"), self.window, 3, "o1"
            )


class TestInstanceConjunction:
    """create(stock) += modify(stock.quantity): both on the same object."""

    expression = parse_expression("create(stock) += modify(stock.quantity)")

    def test_active_only_when_both_hit_same_object(self, calculus):
        window = history(
            (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2), (MODIFY_QTY, "o1", 3)
        )
        assert calculus.ots(self.expression, window, 5, "o1") == 3
        assert calculus.ots(self.expression, window, 5, "o2") == -5

    def test_cross_object_combination_is_not_enough(self, calculus):
        window = history((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o2", 3))
        assert calculus.ots(self.expression, window, 5, "o1") == -5
        assert calculus.ots(self.expression, window, 5, "o2") == -5
        # ... but the set-oriented conjunction is active in the same history.
        set_conjunction = parse_expression("create(stock) + modify(stock.quantity)")
        assert calculus.ts(set_conjunction, window, 5) == 3

    def test_lifted_value_is_positive_iff_some_object_satisfies(self, calculus):
        same_object = history((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o1", 3))
        cross_object = history((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o2", 3))
        assert calculus.ts(self.expression, same_object, 5) == 3
        assert calculus.ts(self.expression, cross_object, 5) == -5


class TestInstanceDisjunctionTimeline:
    """§3.2 disjunction example with three objects."""

    window = history(
        (CREATE_STOCK, "o1", 1),
        (CREATE_STOCK, "o2", 2),
        (MODIFY_QTY, "o1", 3),
        (MODIFY_QTY, "o3", 3),
    )
    expression = parse_expression("create(stock) ,= modify(stock.quantity)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_per_object_activation(self, calculus, mode):
        assert calculus.ots(self.expression, self.window, 1, "o1", mode) == 1
        assert calculus.ots(self.expression, self.window, 2, "o2", mode) == 2
        assert calculus.ots(self.expression, self.window, 2, "o3", mode) == -2
        assert calculus.ots(self.expression, self.window, 3, "o1", mode) == 3
        assert calculus.ots(self.expression, self.window, 3, "o3", mode) == 3

    def test_elementary_instance_disjunction_equals_set_disjunction(self, calculus):
        # The paper notes the two coincide when the operands are elementary.
        set_disjunction = parse_expression("create(stock) , modify(stock.quantity)")
        for instant in range(1, 6):
            assert calculus.ts(self.expression, self.window, instant) == calculus.ts(
                set_disjunction, self.window, instant
            )


class TestInstanceNegation:
    """§3.2 negation example: -=create(stock) per object."""

    expression = parse_expression("-=create(stock)")

    def test_per_object_negation(self, calculus):
        window = history((CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 4))
        assert calculus.ots(self.expression, window, 2, "o1") == -1
        assert calculus.ots(self.expression, window, 2, "o2") == 2
        assert calculus.ots(self.expression, window, 5, "o2") == -4

    def test_elementary_instance_negation_lifts_like_set_negation(self, calculus):
        window = history((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o2", 2))
        set_negation = parse_expression("-create(stock)")
        for instant in range(1, 5):
            assert calculus.ts(self.expression, window, instant) == calculus.ts(
                set_negation, window, instant
            )

    def test_negated_instance_conjunction_vs_pair_of_negations(self, calculus):
        """The paper's §3.2 pair of 'no stock created and modified' examples."""
        cross_object = history(
            (MODIFY_SHOW, "p1", 5), (CREATE_STOCK, "o1", 2), (MODIFY_QTY, "o2", 3)
        )
        negated_conjunction = parse_expression(
            "modify(show.quantity) + -=(create(stock) += modify(stock.quantity))"
        )
        separate_negations = parse_expression(
            "modify(show.quantity) + -create(stock) + -modify(stock.quantity)"
        )
        # No single object was both created and modified: the first formula holds.
        assert calculus.ts(negated_conjunction, cross_object, 6) > 0
        # But some object was created and some object was modified: the second fails.
        assert calculus.ts(separate_negations, cross_object, 6) < 0

        same_object = history(
            (MODIFY_SHOW, "p1", 5), (CREATE_STOCK, "o1", 2), (MODIFY_QTY, "o1", 3)
        )
        assert calculus.ts(negated_conjunction, same_object, 6) < 0
        assert calculus.ts(separate_negations, same_object, 6) < 0


class TestInstancePrecedence:
    """§3.2 precedence example: modify(minquantity) <= modify(quantity) on o1."""

    window = history(
        (MODIFY_MIN, "o1", 1), (MODIFY_MIN, "o1", 2), (MODIFY_QTY, "o1", 3)
    )
    expression = parse_expression("modify(stock.minquantity) <= modify(stock.quantity)")

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_timeline(self, calculus, mode):
        assert calculus.ots(self.expression, self.window, 1, "o1", mode) == -1
        assert calculus.ots(self.expression, self.window, 2, "o1", mode) == -2
        assert calculus.ots(self.expression, self.window, 3, "o1", mode) == 3
        assert calculus.ots(self.expression, self.window, 9, "o1", mode) == 3

    def test_requires_same_object(self, calculus):
        cross = history((MODIFY_MIN, "o1", 1), (MODIFY_QTY, "o2", 3))
        assert calculus.ots(self.expression, cross, 5, "o1") == -5
        assert calculus.ots(self.expression, cross, 5, "o2") == -5
        assert calculus.ts(self.expression, cross, 5) == -5

    def test_set_level_use_inside_conjunction(self, calculus):
        """§3.2: shelf change + at least one stock created then modified."""
        expression = parse_expression(
            "modify(show.quantity) + (create(stock) <= modify(stock.quantity))"
        )
        satisfying = history(
            (MODIFY_SHOW, "p1", 1), (CREATE_STOCK, "o1", 2), (MODIFY_QTY, "o1", 3)
        )
        cross_object = history(
            (MODIFY_SHOW, "p1", 1), (CREATE_STOCK, "o1", 2), (MODIFY_QTY, "o2", 3)
        )
        assert calculus.ts(expression, satisfying, 4) > 0
        assert calculus.ts(expression, cross_object, 4) < 0
        # The set-oriented variant accepts the cross-object history.
        set_variant = parse_expression(
            "modify(show.quantity) + (create(stock) < modify(stock.quantity))"
        )
        assert calculus.ts(set_variant, cross_object, 4) > 0


class TestSection32Timelines:
    """The §3.2 examples per object over one history, and their set-level use.

    History: creations on o1/o2, a minquantity update on o1, quantity updates
    on o1 and o3 in one block, and a shelf update on p1.
    """

    window = history(
        (CREATE_STOCK, "o1", 1),
        (CREATE_STOCK, "o2", 2),
        (MODIFY_MIN, "o1", 3),
        (MODIFY_QTY, "o1", 4),
        (MODIFY_QTY, "o3", 4),
        (MODIFY_SHOW, "p1", 5),
    )

    @pytest.mark.parametrize(
        "text, oid, timeline",
        [
            ("create(stock)", "o1", {1: 1, 2: 1, 5: 1}),
            ("create(stock)", "o2", {1: -1, 2: 2, 5: 2}),
            ("create(stock) += modify(stock.quantity)", "o1", {2: -2, 4: 4, 6: 4}),
            ("create(stock) += modify(stock.quantity)", "o2", {4: -4, 6: -6}),
            ("create(stock) ,= modify(stock.quantity)", "o3", {2: -2, 4: 4, 6: 4}),
            ("-=create(stock)", "o3", {2: 2, 6: 6}),
            ("-=create(stock)", "o1", {2: -1, 6: -1}),
            (
                "modify(stock.minquantity) <= modify(stock.quantity)",
                "o1",
                {3: -3, 4: 4, 6: 4},
            ),
            ("modify(stock.minquantity) <= modify(stock.quantity)", "o3", {6: -6}),
        ],
    )
    def test_per_object_timeline(self, calculus, text, oid, timeline):
        expression = parse_expression(text)
        assert {
            instant: calculus.ots(expression, self.window, instant, oid)
            for instant in timeline
        } == timeline

    @pytest.mark.parametrize(
        "text, active",
        [
            ("modify(show.quantity) + (create(stock) <= modify(stock.quantity))", True),
            ("modify(show.quantity) + (create(stock) += modify(stock.quantity))", True),
            (
                "modify(show.quantity) + -=(create(stock) += modify(stock.quantity))",
                False,
            ),
        ],
    )
    def test_instance_expression_in_a_set_context(self, calculus, text, active):
        assert (calculus.ts(parse_expression(text), self.window, 6) > 0) is active


class TestLiftingEdgeCases:
    def test_existential_lift_over_empty_window_is_inactive(self, calculus):
        window = EventBase()
        expression = parse_expression("create(stock) += modify(stock.quantity)")
        assert calculus.ts(expression, window, 5) == -5

    def test_negation_lift_over_empty_window_is_active(self, calculus):
        window = EventBase()
        expression = parse_expression("-=create(stock)")
        assert calculus.ts(expression, window, 5) == 5

    def test_ots_never_exceeds_ts(self, calculus):
        window = history(
            (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 4), (MODIFY_QTY, "o1", 6)
        )
        expression = parse_expression("create(stock)")
        for oid in ("o1", "o2"):
            assert calculus.ots(expression, window, 8, oid) <= calculus.ts(
                expression, window, 8
            )

    def test_evaluate_wrapper_with_oid(self):
        window = history((CREATE_STOCK, "o1", 2))
        value = evaluate(parse_expression("create(stock)"), window, 5, oid="o1")
        assert value.is_active and value.activation_timestamp == 2


class TestActiveObjects:
    def test_active_objects_for_instance_conjunction(self):
        window = history(
            (CREATE_STOCK, "o1", 1),
            (CREATE_STOCK, "o2", 2),
            (MODIFY_QTY, "o1", 3),
            (MODIFY_QTY, "o3", 4),
        )
        expression = parse_expression("create(stock) += modify(stock.quantity)")
        assert active_objects(expression, window, 5) == {"o1"}

    def test_active_objects_with_candidate_restriction(self):
        window = history((CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 2))
        expression = parse_expression("create(stock)")
        assert active_objects(expression, window, 5, candidates=["o2", "o9"]) == {"o2"}

    def test_active_objects_rejects_set_expressions(self):
        window = history((CREATE_STOCK, "o1", 1))
        with pytest.raises(EvaluationError):
            active_objects(parse_expression("create(stock) + delete(stock)"), window, 3)
