"""Tests for the event-expression AST (operators, priorities, restrictions)."""

import pytest

from repro.core.expressions import (
    OPERATOR_TABLE,
    Dimension,
    Granularity,
    InstanceConjunction,
    InstanceDisjunction,
    InstanceNegation,
    InstancePrecedence,
    Primitive,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
    conjunction,
    disjunction,
    instance_conjunction,
    negation,
    precedence,
)
from repro.errors import CompositionError

from tests.conftest import A, B, PA, PB, PC


class TestPrimitive:
    def test_from_event_type(self):
        assert Primitive(A).event_type == A

    def test_from_text(self):
        assert Primitive("create(stock)").event_type.class_name == "stock"

    def test_rejects_non_event_types(self):
        with pytest.raises(CompositionError):
            Primitive(42)  # type: ignore[arg-type]

    def test_str_matches_event_type(self):
        assert str(PA) == "create(A)"

    def test_no_children(self):
        assert PA.children() == ()
        assert PA.depth() == 1
        assert PA.size() == 1


class TestConstruction:
    def test_operator_overloads(self):
        assert isinstance(PA + PB, SetConjunction)
        assert isinstance(PA | PB, SetDisjunction)
        assert isinstance(-PA, SetNegation)
        assert isinstance(PA >> PB, SetPrecedence)
        assert isinstance(PA.then(PB), SetPrecedence)

    def test_instance_builders(self):
        assert isinstance(PA.iconj(PB), InstanceConjunction)
        assert isinstance(PA.idisj(PB), InstanceDisjunction)
        assert isinstance(PA.ineg(), InstanceNegation)
        assert isinstance(PA.iprec(PB), InstancePrecedence)

    def test_operands_coerced_from_strings(self):
        expression = SetConjunction("create(stock)", "delete(stock)")
        assert {et.class_name for et in expression.event_types()} == {"stock"}

    def test_nary_helpers_fold_left(self):
        expression = conjunction(PA, PB, PC)
        assert isinstance(expression, SetConjunction)
        assert isinstance(expression.left, SetConjunction)
        assert expression.right == PC

    def test_nary_helpers_single_operand(self):
        assert conjunction(PA) == PA
        assert disjunction(PB) == PB

    def test_nary_helpers_require_operands(self):
        with pytest.raises(CompositionError):
            conjunction()

    def test_precedence_helper(self):
        expression = precedence(PA, PB, PC)
        assert isinstance(expression, SetPrecedence)
        assert isinstance(expression.left, SetPrecedence)

    def test_negation_helper(self):
        assert negation(PA) == SetNegation(PA)


class TestStructuralEquality:
    def test_equal_trees_are_equal(self):
        assert PA + PB == SetConjunction(PA, PB)
        assert hash(PA + PB) == hash(SetConjunction(PA, PB))

    def test_operand_order_matters(self):
        assert PA + PB != PB + PA

    def test_set_and_instance_variants_differ(self):
        assert SetConjunction(PA, PB) != InstanceConjunction(PA, PB)

    def test_usable_in_sets(self):
        expressions = {PA + PB, SetConjunction(PA, PB), PA | PB}
        assert len(expressions) == 2


class TestGranularityRestriction:
    """Instance operators cannot contain set-oriented sub-expressions (§3.2)."""

    def test_instance_over_primitives_is_allowed(self):
        InstanceConjunction(PA, PB)
        InstanceNegation(PA)

    def test_instance_over_instance_is_allowed(self):
        InstancePrecedence(InstanceConjunction(PA, PB), PC)

    def test_instance_over_set_conjunction_rejected(self):
        with pytest.raises(CompositionError):
            InstanceConjunction(SetConjunction(PA, PB), PC)

    def test_instance_negation_over_set_rejected(self):
        with pytest.raises(CompositionError):
            InstanceNegation(SetDisjunction(PA, PB))

    def test_set_over_instance_is_allowed(self):
        expression = SetConjunction(InstanceConjunction(PA, PB), PC)
        assert expression.contains_set_operator()

    def test_may_be_instance_operand(self):
        assert PA.may_be_instance_operand()
        assert instance_conjunction(PA, PB).may_be_instance_operand()
        assert not (PA + PB).may_be_instance_operand()


class TestTreeInspection:
    def test_walk_is_preorder(self):
        expression = SetConjunction(SetNegation(PA), PB)
        kinds = [type(node).__name__ for node in expression.walk()]
        assert kinds == ["SetConjunction", "SetNegation", "Primitive", "Primitive"]

    def test_primitives_and_event_types(self):
        expression = SetDisjunction(PA, SetConjunction(PA, PB))
        assert len(list(expression.primitives())) == 3
        assert expression.event_types() == {A, B}

    def test_size_and_depth(self):
        expression = SetConjunction(SetNegation(PA), SetDisjunction(PB, PC))
        assert expression.size() == 6
        assert expression.depth() == 3

    def test_granularity_flags(self):
        assert PA.granularity is Granularity.SET
        assert InstanceConjunction(PA, PB).is_instance_oriented
        assert not SetConjunction(PA, PB).is_instance_oriented


class TestOperatorTable:
    """The operator inventory reproduces Fig. 1 and Fig. 2."""

    def test_four_operators(self):
        assert [info.name for info in OPERATOR_TABLE] == [
            "negation",
            "conjunction",
            "precedence",
            "disjunction",
        ]
        assert [info.set_symbol for info in OPERATOR_TABLE] == ["-", "+", "<", ","]

    def test_priorities_decrease(self):
        priorities = [info.priority for info in OPERATOR_TABLE]
        assert priorities == sorted(priorities, reverse=True)
        negation_priority, conjunction_priority, precedence_priority, disjunction_priority = priorities
        assert conjunction_priority == precedence_priority
        assert negation_priority > conjunction_priority > disjunction_priority

    def test_instance_symbols_add_equal_sign(self):
        for info in OPERATOR_TABLE:
            assert info.instance_symbol == info.set_symbol + "="

    def test_dimensions(self):
        by_name = {info.name: info.dimension for info in OPERATOR_TABLE}
        assert by_name["precedence"] is Dimension.TEMPORAL
        assert by_name["negation"] is Dimension.BOOLEAN
        assert by_name["conjunction"] is Dimension.BOOLEAN
        assert by_name["disjunction"] is Dimension.BOOLEAN
