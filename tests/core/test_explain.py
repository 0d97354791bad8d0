"""Tests for the activation-explanation facility."""

from repro.core.compile import ts
from repro.core.explain import explain
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation

from tests.conftest import history

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
CREATE_ORDER = EventType(Operation.CREATE, "order")

WINDOW = history(
    (CREATE_STOCK, "o1", 1),
    (CREATE_STOCK, "o2", 2),
    (MODIFY_QTY, "o1", 4),
    (CREATE_ORDER, "o9", 6),
)


class TestPrimitiveExplanations:
    def test_active_primitive_names_its_supporting_occurrence(self):
        explanation = explain(parse_expression("create(stock)"), WINDOW, 5)
        assert explanation.active
        assert explanation.activation_timestamp == 2
        assert explanation.supporting_occurrence is not None
        assert explanation.supporting_occurrence.timestamp == 2

    def test_inactive_primitive_has_no_support(self):
        explanation = explain(parse_expression("delete(stock)"), WINDOW, 5)
        assert not explanation.active
        assert explanation.supporting_occurrence is None

    def test_instance_level_explanation(self):
        explanation = explain(parse_expression("create(stock)"), WINDOW, 5, oid="o1")
        assert explanation.active
        assert explanation.supporting_occurrence.oid == "o1"


class TestCompositeExplanations:
    def test_explanation_value_matches_ts(self):
        for text in (
            "create(stock) + modify(stock.quantity)",
            "create(stock) < modify(stock.quantity)",
            "create(stock) + -create(order)",
            "modify(stock.quantity) , delete(stock)",
        ):
            expression = parse_expression(text)
            for instant in (1, 3, 5, 7):
                explanation = explain(expression, WINDOW, instant)
                assert explanation.value == ts(expression, WINDOW, instant), (
                    text, instant
                )

    def test_children_follow_the_expression_structure(self):
        explanation = explain(
            parse_expression("create(stock) + modify(stock.quantity)"), WINDOW, 5
        )
        assert len(explanation.children) == 2
        assert all(child.active for child in explanation.children)
        assert len(explanation.supporting_occurrences()) == 2

    def test_negation_reports_the_blocking_occurrence(self):
        explanation = explain(parse_expression("-create(order)"), WINDOW, 7)
        assert not explanation.active
        assert explanation.blocking_occurrence is not None
        assert explanation.blocking_occurrence.event_type == CREATE_ORDER

    def test_precedence_probes_left_operand_at_right_activation(self):
        explanation = explain(
            parse_expression("create(stock) < modify(stock.quantity)"), WINDOW, 7
        )
        left, right = explanation.children
        assert right.activation_timestamp == 4
        assert left.instant == 4  # probed at the modify's activation instant

    def test_lifted_instance_expression_records_the_witness_object(self):
        explanation = explain(
            parse_expression("create(stock) += modify(stock.quantity)"), WINDOW, 7
        )
        assert explanation.active
        assert explanation.witness_object == "o1"
        assert explanation.role == "lifted"

    def test_lifted_negation_records_the_deciding_object(self):
        explanation = explain(parse_expression("-=create(stock)"), WINDOW, 7)
        assert not explanation.active
        # The universal lift is the minimum ots over the created objects:
        # o1 reads -1 and o2 -2, so o2 is the object that decides it.
        assert explanation.witness_object == "o2"
        (per_object,) = explanation.children
        assert per_object.value == explanation.value == -2

    def test_leaves_cover_every_primitive(self):
        explanation = explain(
            parse_expression("(create(stock) , delete(stock)) + -create(order)"),
            WINDOW,
            5,
        )
        assert len(explanation.leaves()) == 3


class TestRendering:
    def test_render_is_indented_and_mentions_status(self):
        explanation = explain(
            parse_expression("create(stock) + -create(order)"), WINDOW, 5
        )
        text = explanation.render()
        lines = text.splitlines()
        assert lines[0].startswith("create(stock) + -create(order)")
        assert any(line.startswith("  ") for line in lines[1:])
        assert "active@t" in text
        assert str(explanation) == text
