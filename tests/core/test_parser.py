"""Tests for the textual event-expression parser."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.expressions import (
    InstanceConjunction,
    InstanceDisjunction,
    InstanceNegation,
    InstancePrecedence,
    Primitive,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.core.parser import format_expression, parse_expression, tokenize
from repro.errors import CompositionError, ExpressionSyntaxError
from repro.events.event import EventType, Operation

from tests.conftest import PA, PB, PC


class TestTokenizer:
    def test_two_character_operators_win(self):
        kinds = [(t.kind, t.text) for t in tokenize("a += b , c ,= d")]
        operators = [text for kind, text in kinds if kind == "OP"]
        assert operators == ["+=", ",", ",="]

    def test_unknown_character_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            tokenize("create(stock) ? delete(stock)")

    def test_end_token_is_appended(self):
        assert tokenize("x")[-1].kind == "END"


class TestPrimitives:
    def test_simple_primitive(self):
        assert parse_expression("create(stock)") == Primitive("create(stock)")

    def test_attribute_primitive(self):
        parsed = parse_expression("modify(stock.quantity)")
        assert parsed.event_type.attribute == "quantity"

    def test_unknown_operation_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("frobnicate(stock)")

    def test_missing_class_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("create()")

    def test_empty_input_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("create(stock) delete(stock)")


class TestSetOperators:
    def test_disjunction(self):
        parsed = parse_expression("create(A) , create(B)")
        assert parsed == SetDisjunction(PA, PB)

    def test_conjunction(self):
        parsed = parse_expression("create(A) + create(B)")
        assert parsed == SetConjunction(PA, PB)

    def test_precedence_operator(self):
        parsed = parse_expression("create(A) < create(B)")
        assert parsed == SetPrecedence(PA, PB)

    def test_negation(self):
        parsed = parse_expression("-create(A)")
        assert parsed == SetNegation(PA)

    def test_double_negation(self):
        parsed = parse_expression("--create(A)")
        assert parsed == SetNegation(SetNegation(PA))

    def test_conjunction_binds_tighter_than_disjunction(self):
        parsed = parse_expression("create(A) , create(B) + create(C)")
        assert parsed == SetDisjunction(PA, SetConjunction(PB, PC))

    def test_negation_binds_tighter_than_conjunction(self):
        parsed = parse_expression("-create(A) + create(B)")
        assert parsed == SetConjunction(SetNegation(PA), PB)

    def test_left_associativity(self):
        parsed = parse_expression("create(A) + create(B) + create(C)")
        assert parsed == SetConjunction(SetConjunction(PA, PB), PC)

    def test_conjunction_and_precedence_share_level(self):
        parsed = parse_expression("create(A) + create(B) < create(C)")
        assert parsed == SetPrecedence(SetConjunction(PA, PB), PC)

    def test_parentheses_override_priority(self):
        parsed = parse_expression("(create(A) , create(B)) + create(C)")
        assert parsed == SetConjunction(SetDisjunction(PA, PB), PC)

    def test_unbalanced_parentheses_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(create(A) , create(B)")


class TestInstanceOperators:
    def test_instance_conjunction(self):
        parsed = parse_expression("create(A) += create(B)")
        assert parsed == InstanceConjunction(PA, PB)

    def test_instance_disjunction(self):
        parsed = parse_expression("create(A) ,= create(B)")
        assert parsed == InstanceDisjunction(PA, PB)

    def test_instance_precedence(self):
        parsed = parse_expression("create(A) <= create(B)")
        assert parsed == InstancePrecedence(PA, PB)

    def test_instance_negation(self):
        parsed = parse_expression("-=create(A)")
        assert parsed == InstanceNegation(PA)

    def test_instance_binds_tighter_than_set(self):
        parsed = parse_expression("create(A) + create(B) += create(C)")
        assert parsed == SetConjunction(PA, InstanceConjunction(PB, PC))

    def test_instance_disjunction_binds_tighter_than_set_conjunction(self):
        parsed = parse_expression("create(A) + create(B) ,= create(C)")
        assert parsed == SetConjunction(PA, InstanceDisjunction(PB, PC))

    def test_instance_over_set_group_rejected(self):
        with pytest.raises(CompositionError):
            parse_expression("-=(create(A) + create(B))")

    def test_paper_example_mixed_expression(self):
        # modify(show.quantity) + (create(stock) <= modify(stock.quantity))
        parsed = parse_expression(
            "modify(show.quantity) + (create(stock) <= modify(stock.quantity))"
        )
        assert isinstance(parsed, SetConjunction)
        assert isinstance(parsed.right, InstancePrecedence)


#: Primitives over every operation; modify events with and without an
#: attribute (only they may name one).
_primitives = st.one_of(
    st.builds(
        lambda operation, class_name: Primitive(EventType(operation, class_name)),
        st.sampled_from(list(Operation)),
        st.sampled_from(["stock", "show", "A"]),
    ),
    st.builds(
        lambda attribute: Primitive(EventType(Operation.MODIFY, "stock", attribute)),
        st.sampled_from(["quantity", "minquantity"]),
    ),
)


def _instance_operators(children):
    return st.one_of(
        st.builds(InstanceConjunction, children, children),
        st.builds(InstanceDisjunction, children, children),
        st.builds(InstancePrecedence, children, children),
        st.builds(InstanceNegation, children),
    )


def _set_operators(children):
    return st.one_of(
        st.builds(SetConjunction, children, children),
        st.builds(SetDisjunction, children, children),
        st.builds(SetPrecedence, children, children),
        st.builds(SetNegation, children),
    )


#: Instance trees (instance operators over instance operands only, §3.2),
#: then set trees whose leaves are primitives or instance trees.
_instance_expressions = st.recursive(_primitives, _instance_operators, max_leaves=6)
any_expressions = st.recursive(
    st.one_of(_primitives, _instance_expressions), _set_operators, max_leaves=8
)


class TestRoundTrip:
    EXPRESSIONS = [
        "create(stock)",
        "-create(stock)",
        "create(stock) , modify(stock.quantity)",
        "create(stock) + modify(stock.quantity)",
        "create(stock) < modify(stock.quantity)",
        "create(stock) += modify(stock.quantity)",
        "create(stock) ,= modify(stock.quantity)",
        "create(stock) <= modify(stock.quantity)",
        "-=create(stock)",
        "modify(show.quantity) + -(create(stockOrder) < modify(stockOrder.delquantity))",
        "(create(A) , create(B)) + -create(C)",
        "modify(show.quantity) + (create(stock) += (modify(stock.minquantity) ,= modify(stock.quantity)))",
        # Fig. 1: every operator in one expression.
        "modify(show.quantity) + -("
        "(create(stockOrder) < modify(stockOrder.delquantity)) , "
        "(create(stock) += (-=delete(stock) ,= "
        "(modify(stock.minquantity) <= modify(stock.quantity)))))",
    ]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_parse_format_parse_is_identity(self, text):
        first = parse_expression(text)
        assert parse_expression(format_expression(first)) == first

    @settings(max_examples=400, deadline=None)
    @given(expression=any_expressions)
    @example(SetPrecedence(PA, SetPrecedence(PB, PC)))
    @example(SetDisjunction(PA, SetConjunction(PB, SetNegation(SetNegation(PC)))))
    @example(InstancePrecedence(PA, InstanceConjunction(PB, PC)))
    @example(SetConjunction(InstanceNegation(InstanceNegation(PA)), PB))
    @example(SetNegation(InstanceDisjunction(PA, InstanceDisjunction(PB, PC))))
    def test_printing_any_tree_parses_back_to_it(self, expression):
        """Every tree over the eight operators — right-nested chains of equal
        priority, instance operators under set operators, stacked negations —
        prints to text that parses back to the same tree."""
        assert parse_expression(str(expression)) == expression
        assert parse_expression(format_expression(expression)) == expression

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expression("create(stock) +")
        assert "position" in str(excinfo.value)
