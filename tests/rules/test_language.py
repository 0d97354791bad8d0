"""Tests for the textual rule-definition language."""

import pytest

from repro.core.expressions import InstancePrecedence, SetConjunction, SetDisjunction
from repro.errors import RuleDefinitionError
from repro.rules.actions import CreateStatement, DeleteStatement, ModifyStatement
from repro.rules.conditions import AtFormula, ClassRange, Comparison, OccurredFormula
from repro.rules.language import parse_rule, parse_rules
from repro.rules.rule import ConsumptionMode, ECCoupling
from repro.workloads.stock import CHECK_STOCK_QTY_RULE


class TestPaperRule:
    """The §2 example rule parses into exactly the expected structure."""

    def test_header(self):
        rule = parse_rule(CHECK_STOCK_QTY_RULE)
        assert rule.name == "checkStockQty"
        assert rule.coupling is ECCoupling.IMMEDIATE
        assert rule.consumption is ConsumptionMode.CONSUMING
        assert rule.target_class == "stock"

    def test_events_are_qualified_with_the_target_class(self):
        rule = parse_rule(CHECK_STOCK_QTY_RULE)
        assert str(rule.events) == "create(stock)"

    def test_condition_structure(self):
        rule = parse_rule(CHECK_STOCK_QTY_RULE)
        atoms = list(rule.condition.atoms)
        assert isinstance(atoms[0], ClassRange)
        assert isinstance(atoms[1], OccurredFormula)
        assert isinstance(atoms[2], Comparison)
        assert atoms[0].class_name == "stock"
        assert atoms[2].op == ">"

    def test_action_structure(self):
        rule = parse_rule(CHECK_STOCK_QTY_RULE)
        statement = rule.action.statements[0]
        assert isinstance(statement, ModifyStatement)
        assert statement.class_name == "stock"
        assert statement.attribute == "quantity"

    def test_source_is_preserved(self):
        rule = parse_rule(CHECK_STOCK_QTY_RULE)
        assert "define immediate checkStockQty" in rule.source


class TestHeaderVariants:
    def test_deferred_and_preserving_modifiers(self):
        rule = parse_rule(
            """
            define deferred preserving audit for stock
            events delete
            action delete(S)
            end
            """
        )
        assert rule.coupling is ECCoupling.DEFERRED
        assert rule.consumption is ConsumptionMode.PRESERVING

    def test_untargeted_rule(self):
        rule = parse_rule(
            """
            define watchOrders
            events create(order) , delete(order)
            end
            """
        )
        assert rule.target_class is None
        assert isinstance(rule.events, SetDisjunction)

    def test_priority_and_consumption_clauses(self):
        rule = parse_rule(
            """
            define immediate ranked for stock
            events create
            action modify(stock.quantity, S, 1)
            priority 7
            consumption preserving
            end
            """
        )
        assert rule.priority == 7
        assert rule.consumption is ConsumptionMode.PRESERVING

    def test_missing_name_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define immediate for stock events create end")

    def test_missing_events_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r for stock condition stock(S) end")

    def test_missing_end_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r for stock events create")

    def test_text_after_end_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r for stock events create end garbage")

    def test_must_start_with_define(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("events create end")

    def test_duplicate_clause_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r for stock events create events delete end")

    def test_invalid_priority_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r for stock events create priority high end")


class TestClauseKeywordsInsideNames:
    """A clause keyword splits a rule only at parenthesis depth 0 and not
    after a ``.``: inside an event type or after a dot it is a name."""

    def test_keyword_as_an_attribute_of_an_event_type(self):
        rule = parse_rule("define r events modify(stock.priority) end")
        assert str(rule.events) == "modify(stock.priority)"
        assert rule.priority == 0

    def test_keyword_as_the_class_of_an_event_type(self):
        rule = parse_rule("define r events create(events) end")
        assert str(rule.events) == "create(events)"

    def test_keyword_as_an_attribute_in_a_condition(self):
        rule = parse_rule(
            "define r events create(order) condition order(O), O.end > 3 end"
        )
        range_atom, comparison = rule.condition.atoms
        assert isinstance(range_atom, ClassRange)
        assert isinstance(comparison, Comparison)
        assert str(comparison) == "O.end > 3"

    def test_parse_rules_does_not_split_inside_an_event_type(self):
        (rule,) = parse_rules("define a events create(end) end")
        assert str(rule.events) == "create(end)"

    def test_parse_rules_splits_at_each_closing_end(self):
        rules = parse_rules(
            "define a events create(end) end\n"
            "define b events modify(stock.end) condition stock(S), S.end > 1 end"
        )
        assert [rule.name for rule in rules] == ["a", "b"]


def compared_to(condition: str):
    """The one comparison of a ``stock`` rule whose condition ends in
    ``condition``."""
    rule = parse_rule(
        f"define r for stock events create condition stock(S), {condition} end"
    )
    range_atom, comparison = rule.condition.atoms
    assert isinstance(range_atom, ClassRange)
    assert isinstance(comparison, Comparison)
    return comparison


class TestQuotedText:
    """A quoted string is one opaque token: nothing inside it splits a
    clause, a list, a term or a comparison."""

    def test_a_comma_inside_quotes_splits_no_condition(self):
        assert compared_to("S.name = 'a, b'").right.value == "a, b"

    def test_a_keyword_inside_quotes_ends_no_rule(self):
        assert compared_to("S.name = 'the end'").right.value == "the end"

    def test_a_parenthesis_inside_quotes_opens_nothing(self):
        assert compared_to('S.name = "x (y"').right.value == "x (y"

    def test_an_operator_inside_quotes_is_no_arithmetic(self):
        assert compared_to("S.name = 'a-b'").right.value == "a-b"

    def test_a_comparison_inside_quotes_is_no_comparison(self):
        comparison = compared_to("'x<y' = S.name")
        assert (comparison.left.value, comparison.op) == ("x<y", "=")

    def test_parse_rules_does_not_split_at_a_quoted_end(self):
        rules = parse_rules(
            "define a for stock events create condition stock(S),"
            " S.name = 'the end' end\n"
            "define b for stock events delete end"
        )
        assert [rule.name for rule in rules] == ["a", "b"]
        assert rules[0].condition.atoms[1].right.value == "the end"

    def test_an_unmatched_quote_keeps_its_error(self):
        with pytest.raises(RuleDefinitionError, match="cannot parse term"):
            compared_to("S.name = 'abc")


class TestEventClause:
    def test_bare_attribute_modify_is_qualified(self):
        rule = parse_rule(
            """
            define watch for stock
            events modify(quantity)
            end
            """
        )
        assert str(rule.events) == "modify(stock.quantity)"

    def test_composite_events_with_instance_operators(self):
        rule = parse_rule(
            """
            define reorder for stock
            events modify(minquantity) <= modify(quantity)
            end
            """
        )
        assert isinstance(rule.events, InstancePrecedence)

    def test_fully_qualified_events_left_alone(self):
        rule = parse_rule(
            """
            define watch
            events create(stock) + modify(show.quantity)
            end
            """
        )
        assert isinstance(rule.events, SetConjunction)

    def test_targeted_rule_rejects_foreign_classes(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule(
                """
                define watch for stock
                events create(stock) , create(show)
                end
                """
            )


class TestConditionClause:
    def test_at_formula(self):
        rule = parse_rule(
            """
            define watch for stock
            events modify(quantity)
            condition stock(S), at(create(stock) <= modify(quantity), S, T), T > 3
            end
            """
        )
        atoms = list(rule.condition.atoms)
        assert isinstance(atoms[1], AtFormula)
        assert atoms[1].time_variable == "T"

    def test_holds_alias(self):
        rule = parse_rule(
            """
            define watch for stock
            events create
            condition holds(create(stock), S)
            end
            """
        )
        assert isinstance(rule.condition.atoms[0], OccurredFormula)
        assert rule.condition.atoms[0].keyword == "holds"

    def test_string_and_boolean_constants(self):
        rule = parse_rule(
            """
            define watch for stock
            events create
            condition stock(S), S.name = 'bolt', S.active = true
            end
            """
        )
        comparisons = [
            atom for atom in rule.condition.atoms if isinstance(atom, Comparison)
        ]
        assert comparisons[0].right.value == "bolt"
        assert comparisons[1].right.value is True

    def test_arithmetic_in_comparisons(self):
        rule = parse_rule(
            """
            define watch for stock
            events create
            condition stock(S), S.quantity > S.maxquantity - 10
            end
            """
        )
        comparison = rule.condition.atoms[1]
        assert "maxquantity" in str(comparison)

    def test_unparseable_atom_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule(
                """
                define watch for stock
                events create
                condition what is this
                end
                """
            )

    def test_missing_condition_is_true(self):
        rule = parse_rule("define watch for stock events create end")
        assert list(rule.condition.atoms) == []


class TestActionClause:
    def test_create_delete_and_modify_statements(self):
        rule = parse_rule(
            """
            define watch
            events create(stock)
            condition stock(S)
            action create(stockOrder, item = S, delquantity = 0), modify(stock.onorder, S, 1), delete(S)
            end
            """
        )
        statements = rule.action.statements
        assert isinstance(statements[0], CreateStatement)
        assert isinstance(statements[1], ModifyStatement)
        assert isinstance(statements[2], DeleteStatement)
        assert dict(statements[0].values)["delquantity"].value == 0

    def test_unknown_statement_rejected(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r events create(stock) action drop(S) end")

    def test_modify_argument_count_checked(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule(
                "define r events create(stock) action modify(stock.quantity, S) end"
            )

    def test_create_assignments_checked(self):
        with pytest.raises(RuleDefinitionError):
            parse_rule("define r events create(stock) action create(stockOrder, 5) end")


class TestParseRules:
    def test_multiple_definitions(self):
        text = (
            "define a for stock events create end\n"
            "define b for stock events delete end\n"
        )
        rules = parse_rules(text)
        assert [rule.name for rule in rules] == ["a", "b"]

    def test_empty_text(self):
        assert parse_rules("   \n  ") == []
