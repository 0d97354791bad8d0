"""Tests for the exact expression simplifier."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.compile import ts
from repro.core.expressions import (
    InstanceConjunction,
    InstanceNegation,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.core.parser import parse_expression
from repro.core.simplify import simplification_report, simplify_expression

from tests.conftest import A, B, C, PA, PB, history
from tests.core.test_properties import histories, set_expressions


WINDOW = history((A, "o1", 2), (B, "o2", 4), (A, "o2", 6), (C, "o1", 7))
INSTANTS = list(range(1, 10))


def assert_exactly_equivalent(original, simplified):
    for instant in INSTANTS:
        assert ts(original, WINDOW, instant) == ts(simplified, WINDOW, instant)


class TestRewrites:
    def test_primitive_unchanged(self):
        assert simplify_expression(PA) == PA

    def test_double_negation(self):
        assert simplify_expression(SetNegation(SetNegation(PA))) == PA

    def test_instance_double_negation_is_not_collapsed(self):
        # -=-=A lifts universally over the affected objects while A lifts
        # existentially, so collapsing it would not be set-level exact.
        expression = InstanceNegation(InstanceNegation(PA))
        assert simplify_expression(expression) == expression

    def test_quadruple_negation(self):
        expression = SetNegation(SetNegation(SetNegation(SetNegation(PA))))
        assert simplify_expression(expression) == PA

    def test_mixed_granularity_negations_are_not_collapsed(self):
        expression = SetNegation(InstanceNegation(PA))
        assert simplify_expression(expression) == expression

    def test_conjunction_idempotence(self):
        assert simplify_expression(SetConjunction(PA, PA)) == PA

    def test_disjunction_idempotence_modulo_commutativity(self):
        expression = SetDisjunction(SetDisjunction(PA, PB), SetDisjunction(PB, PA))
        simplified = simplify_expression(expression)
        assert simplified.size() == 3
        assert simplified.event_types() == {A, B}

    def test_chain_deduplication_and_canonical_order(self):
        left_heavy = parse_expression("create(A) + create(B) + create(A) + create(C)")
        right_heavy = parse_expression(
            "create(C) + (create(B) + (create(C) + create(A)))"
        )
        assert simplify_expression(left_heavy) == simplify_expression(right_heavy)

    def test_instance_chain_deduplication(self):
        expression = InstanceConjunction(InstanceConjunction(PA, PB), PA)
        assert simplify_expression(expression).size() == 3

    def test_precedence_not_rewritten(self):
        expression = SetPrecedence(PA, PA)
        assert simplify_expression(expression) == expression

    def test_nested_double_negation_inside_chain(self):
        expression = SetConjunction(SetNegation(SetNegation(PA)), PA)
        assert simplify_expression(expression) == PA

    def test_simplification_is_idempotent(self):
        expression = parse_expression(
            "--create(A) + (create(B) + create(B)) , (create(A) , create(A))"
        )
        once = simplify_expression(expression)
        assert simplify_expression(once) == once


class TestEquivalence:
    def test_examples_remain_exactly_equivalent(self):
        texts = [
            "--create(A)",
            "create(A) + create(A)",
            "create(A) , create(A) , create(B)",
            "(create(A) + create(B)) + (create(B) + create(A))",
            "-(create(A) , create(A)) + create(C)",
            "create(A) < (create(B) + create(B))",
        ]
        for text in texts:
            original = parse_expression(text)
            assert_exactly_equivalent(original, simplify_expression(original))

    def test_report_counts_removed_nodes(self):
        report = simplification_report(parse_expression("create(A) + create(A)"))
        assert report["nodes_removed"] == 2
        assert report["changed"] is True
        report = simplification_report(PA)
        assert report["changed"] is False


class TestSimplifyProperties:
    @settings(max_examples=100, deadline=None)
    @given(expression=set_expressions, window=histories(), instant=st.integers(1, 30))
    def test_simplification_preserves_ts_exactly(self, expression, window, instant):
        simplified = simplify_expression(expression)
        assert ts(expression, window, instant) == ts(simplified, window, instant)

    @settings(max_examples=100, deadline=None)
    @given(expression=set_expressions)
    def test_simplification_never_grows_the_expression(self, expression):
        assert simplify_expression(expression).size() <= expression.size()

    @settings(max_examples=60, deadline=None)
    @given(expression=set_expressions)
    def test_simplification_is_idempotent_property(self, expression):
        once = simplify_expression(expression)
        assert simplify_expression(once) == once
