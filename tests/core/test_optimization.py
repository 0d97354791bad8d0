"""Static optimization: derivation rules (Fig. 6), simplification (Fig. 7), V(E)."""

from repro.core.expressions import (
    InstanceConjunction,
    Primitive,
    InstanceNegation,
    InstancePrecedence,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.core.optimization import (
    RecomputationFilter,
    Scope,
    Sign,
    Variation,
    derive_variations,
    format_variations,
    simplify_variations,
    variation_set,
)
from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.oodb.database import ChimeraDatabase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.workloads.generator import EventStreamGenerator, ExpressionGenerator

from tests.conftest import A, B, C, D, PA, PB, PC, PD


def names(variations) -> set[str]:
    return {str(variation) for variation in variations}


class TestSignAndScope:
    def test_sign_flip(self):
        assert Sign.POSITIVE.flipped() is Sign.NEGATIVE
        assert Sign.NEGATIVE.flipped() is Sign.POSITIVE
        assert Sign.BOTH.flipped() is Sign.BOTH

    def test_sign_merge(self):
        assert Sign.merge(Sign.POSITIVE, Sign.POSITIVE) is Sign.POSITIVE
        assert Sign.merge(Sign.POSITIVE, Sign.NEGATIVE) is Sign.BOTH
        assert Sign.merge(Sign.BOTH, Sign.NEGATIVE) is Sign.BOTH

    def test_scope_merge(self):
        assert Scope.merge(Scope.SET, Scope.OBJECT) is Scope.SET
        assert Scope.merge(Scope.OBJECT, Scope.OBJECT) is Scope.OBJECT

    def test_includes_positive(self):
        assert Sign.POSITIVE.includes_positive()
        assert Sign.BOTH.includes_positive()
        assert not Sign.NEGATIVE.includes_positive()

    def test_variation_rendering(self):
        assert str(Variation(A, Sign.POSITIVE, Scope.SET)) == "Δ+create(A)"
        assert str(Variation(A, Sign.NEGATIVE, Scope.OBJECT)) == "Δ-O create(A)"
        assert str(Variation(A, Sign.BOTH, Scope.SET)) == "Δcreate(A)"


class TestDerivationRules:
    def test_primitive(self):
        assert derive_variations(PA) == {Variation(A, Sign.POSITIVE, Scope.SET)}

    def test_negation_flips_sign(self):
        assert derive_variations(SetNegation(PA)) == {
            Variation(A, Sign.NEGATIVE, Scope.SET)
        }

    def test_double_negation_restores_sign(self):
        assert derive_variations(SetNegation(SetNegation(PA))) == {
            Variation(A, Sign.POSITIVE, Scope.SET)
        }

    def test_conjunction_propagates_to_both_operands(self):
        assert derive_variations(SetConjunction(PA, PB)) == {
            Variation(A, Sign.POSITIVE, Scope.SET),
            Variation(B, Sign.POSITIVE, Scope.SET),
        }

    def test_disjunction_propagates_to_both_operands(self):
        assert derive_variations(SetDisjunction(PA, SetNegation(PB))) == {
            Variation(A, Sign.POSITIVE, Scope.SET),
            Variation(B, Sign.NEGATIVE, Scope.SET),
        }

    def test_precedence_ignores_left_operand_and_marks_right_with_both_signs(self):
        assert derive_variations(SetPrecedence(PA, PB)) == {
            Variation(B, Sign.BOTH, Scope.SET)
        }

    def test_negated_precedence_still_watches_the_right_operand(self):
        # Regression: -(-A < B) becomes active when a new B occurrence arrives,
        # so B must keep a positive-covering variation through the negation.
        expression = SetNegation(SetPrecedence(SetNegation(PA), PB))
        variations = derive_variations(expression)
        assert variations == {Variation(B, Sign.BOTH, Scope.SET)}
        assert any(
            variation.event_type == B and variation.sign.includes_positive()
            for variation in variations
        )

    def test_instance_operators_switch_to_object_scope(self):
        assert derive_variations(InstanceConjunction(PA, PB)) == {
            Variation(A, Sign.POSITIVE, Scope.OBJECT),
            Variation(B, Sign.POSITIVE, Scope.OBJECT),
        }

    def test_instance_negation_flips_sign_at_object_scope(self):
        assert derive_variations(InstanceNegation(PA)) == {
            Variation(A, Sign.NEGATIVE, Scope.OBJECT)
        }

    def test_instance_precedence_keeps_right_operand_only(self):
        assert derive_variations(InstancePrecedence(PA, PB)) == {
            Variation(B, Sign.BOTH, Scope.OBJECT)
        }

    def test_precedence_with_negated_right_operand_watches_both_operands(self):
        # Regression: A < -B is probed at the current instant (the negation's
        # activation time stamp), so a new A occurrence can activate it.
        variations = derive_variations(SetPrecedence(PA, SetNegation(PB)))
        assert variations == {
            Variation(A, Sign.BOTH, Scope.SET),
            Variation(B, Sign.BOTH, Scope.SET),
        }

    def test_set_negation_over_instance_conjunction(self):
        expression = SetNegation(InstanceConjunction(PA, PB))
        assert derive_variations(expression) == {
            Variation(A, Sign.NEGATIVE, Scope.OBJECT),
            Variation(B, Sign.NEGATIVE, Scope.OBJECT),
        }


class TestSimplificationRules:
    def test_opposite_signs_merge_to_both(self):
        merged = simplify_variations(
            {
                Variation(A, Sign.POSITIVE, Scope.SET),
                Variation(A, Sign.NEGATIVE, Scope.SET),
            }
        )
        assert merged == {Variation(A, Sign.BOTH, Scope.SET)}

    def test_set_scope_absorbs_object_scope(self):
        merged = simplify_variations(
            {
                Variation(A, Sign.POSITIVE, Scope.SET),
                Variation(A, Sign.POSITIVE, Scope.OBJECT),
            }
        )
        assert merged == {Variation(A, Sign.POSITIVE, Scope.SET)}

    def test_object_scope_pair_stays_object_scoped(self):
        merged = simplify_variations(
            {
                Variation(A, Sign.POSITIVE, Scope.OBJECT),
                Variation(A, Sign.NEGATIVE, Scope.OBJECT),
            }
        )
        assert merged == {Variation(A, Sign.BOTH, Scope.OBJECT)}

    def test_cross_scope_opposite_signs(self):
        merged = simplify_variations(
            {
                Variation(B, Sign.POSITIVE, Scope.SET),
                Variation(B, Sign.NEGATIVE, Scope.OBJECT),
            }
        )
        assert merged == {Variation(B, Sign.BOTH, Scope.SET)}

    def test_different_types_are_kept_apart(self):
        merged = simplify_variations(
            {
                Variation(A, Sign.POSITIVE, Scope.SET),
                Variation(B, Sign.POSITIVE, Scope.SET),
            }
        )
        assert len(merged) == 2

    def test_empty_input(self):
        assert simplify_variations([]) == set()


class TestPaperExample:
    """The §5.1 worked example: V(E) = {ΔA, ΔB, Δ+C}.

    The expression is reconstructed from the paper's derivation steps (the OCR
    of the original is ambiguous): three disjuncts over A/B/C where A appears
    positively and negatively, B appears positively at the set level and
    negatively at the object level, and C only positively.
    """

    EXPRESSION = SetDisjunction(
        SetDisjunction(
            SetConjunction(PA, PB),
            SetConjunction(PC, SetNegation(PA)),
        ),
        SetConjunction(
            InstanceConjunction(PA, PC),
            SetNegation(InstanceConjunction(PB, PA)),
        ),
    )

    def test_derived_variations_before_simplification(self):
        derived = derive_variations(self.EXPRESSION)
        assert derived == {
            Variation(A, Sign.POSITIVE, Scope.SET),
            Variation(B, Sign.POSITIVE, Scope.SET),
            Variation(C, Sign.POSITIVE, Scope.SET),
            Variation(A, Sign.NEGATIVE, Scope.SET),
            Variation(A, Sign.POSITIVE, Scope.OBJECT),
            Variation(C, Sign.POSITIVE, Scope.OBJECT),
            Variation(B, Sign.NEGATIVE, Scope.OBJECT),
            Variation(A, Sign.NEGATIVE, Scope.OBJECT),
        }

    def test_simplified_variation_set_matches_paper(self):
        assert variation_set(self.EXPRESSION) == {
            Variation(A, Sign.BOTH, Scope.SET),
            Variation(B, Sign.BOTH, Scope.SET),
            Variation(C, Sign.POSITIVE, Scope.SET),
        }

    def test_rendering_matches_paper_notation(self):
        rendered = format_variations(variation_set(self.EXPRESSION))
        assert rendered == "{Δ+create(C), Δcreate(A), Δcreate(B)}"

    def test_written_form_has_the_same_variation_set(self):
        written = parse_expression(
            "(create(A) + create(B)) , (create(C) + -create(A)) , "
            "((create(A) += create(C)) + -=(create(B) += create(A)))"
        )
        assert variation_set(written) == variation_set(self.EXPRESSION)


class TestRecomputationFilter:
    def occurrence(self, event_type: EventType, oid: str = "o1", timestamp: int = 1):
        return EventOccurrence(
            eid=1, event_type=event_type, oid=oid, timestamp=timestamp
        )

    def test_irrelevant_types_are_skipped(self):
        filter_ = RecomputationFilter(SetConjunction(PA, PB))
        assert not filter_.needs_recomputation([self.occurrence(C)])
        assert filter_.statistics["skipped"] == 1

    def test_relevant_types_require_recomputation(self):
        filter_ = RecomputationFilter(SetConjunction(PA, PB))
        assert filter_.needs_recomputation([self.occurrence(B)])

    def test_negated_types_are_skipped(self):
        filter_ = RecomputationFilter(SetConjunction(PA, SetNegation(PB)))
        assert not filter_.needs_recomputation([self.occurrence(B)])
        assert filter_.needs_recomputation([self.occurrence(A)])

    def test_precedence_left_operand_is_skipped(self):
        filter_ = RecomputationFilter(SetPrecedence(PA, PB))
        assert not filter_.needs_recomputation([self.occurrence(A)])
        assert filter_.needs_recomputation([self.occurrence(B)])

    def test_class_level_subscription_matches_attribute_specific_occurrence(self):
        modify_stock = EventType(Operation.MODIFY, "stock")
        modify_qty = EventType(Operation.MODIFY, "stock", "quantity")
        from repro.core.expressions import Primitive

        filter_ = RecomputationFilter(Primitive(modify_stock))
        assert filter_.needs_recomputation([self.occurrence(modify_qty)])

    def test_accepts_plain_event_types(self):
        filter_ = RecomputationFilter(SetDisjunction(PA, PD))
        assert filter_.needs_recomputation([D])
        assert not filter_.needs_recomputation([B])

    def test_relevant_event_types(self):
        filter_ = RecomputationFilter(SetConjunction(PA, SetNegation(PB)))
        assert filter_.relevant_event_types() == {A}

    def test_mixed_batch_requires_recomputation(self):
        filter_ = RecomputationFilter(PA)
        batch = [self.occurrence(C), self.occurrence(A, timestamp=2)]
        assert filter_.needs_recomputation(batch)

    def test_str_shows_variations(self):
        filter_ = RecomputationFilter(PA)
        assert "Δ+create(A)" in str(filter_)


class TestSchemaAwareMatching:
    """Subclass-aware matching and its memo invalidation (the stale-cache fix)."""

    def occurrence(self, event_type: EventType, timestamp: int = 1):
        return EventOccurrence(
            eid=1, event_type=event_type, oid="o1", timestamp=timestamp
        )

    def _schema(self):
        from repro.oodb.schema import Schema

        schema = Schema()
        schema.define("order", {"amount": int})
        return schema

    def test_subclass_occurrence_matches_superclass_watch(self):
        schema = self._schema()
        schema.define("notFilledOrder", superclass="order")
        watch = EventType(Operation.CREATE, "order")
        filter_ = RecomputationFilter(Primitive(watch), schema=schema)
        assert filter_.matches(EventType(Operation.CREATE, "notFilledOrder"))

    def test_superclass_occurrence_does_not_match_subclass_watch(self):
        schema = self._schema()
        schema.define("notFilledOrder", superclass="order")
        watch = EventType(Operation.CREATE, "notFilledOrder")
        filter_ = RecomputationFilter(Primitive(watch), schema=schema)
        assert not filter_.matches(EventType(Operation.CREATE, "order"))

    def test_attribute_specific_watch_matches_subclass_attribute_occurrence(self):
        schema = self._schema()
        schema.define("notFilledOrder", superclass="order")
        watch = EventType(Operation.MODIFY, "order", "amount")
        filter_ = RecomputationFilter(Primitive(watch), schema=schema)
        assert filter_.matches(EventType(Operation.MODIFY, "notFilledOrder", "amount"))
        assert not filter_.matches(
            EventType(Operation.MODIFY, "notFilledOrder", "other")
        )

    def test_memo_invalidated_when_schema_gains_subclass_after_first_use(self):
        """Regression: a verdict cached before the subclass existed must not stick."""
        schema = self._schema()
        watch = EventType(Operation.CREATE, "order")
        filter_ = RecomputationFilter(Primitive(watch), schema=schema)
        special = EventType(Operation.CREATE, "special")
        # First use caches False: "special" is unknown to the schema.
        assert not filter_.matches(special)
        schema.define("special", superclass="order")
        assert filter_.matches(special)

    def test_bind_schema_after_construction_drops_stale_verdicts(self):
        schema = self._schema()
        schema.define("notFilledOrder", superclass="order")
        watch = EventType(Operation.CREATE, "order")
        filter_ = RecomputationFilter(Primitive(watch))
        sub = EventType(Operation.CREATE, "notFilledOrder")
        assert not filter_.matches(sub)  # schema-less: exact class names only
        filter_.bind_schema(schema)
        assert filter_.matches(sub)

    def test_needs_recomputation_sees_subclass_occurrences(self):
        schema = self._schema()
        schema.define("notFilledOrder", superclass="order")
        filter_ = RecomputationFilter(
            Primitive(EventType(Operation.CREATE, "order")), schema=schema
        )
        assert filter_.needs_recomputation(
            [self.occurrence(EventType(Operation.CREATE, "notFilledOrder"))]
        )


def run_engine(expressions, blocks, optimized: bool):
    """Stream ``blocks`` through a database with one rule per expression.

    Returns the ``(rule, instant)`` of every consideration and the Trigger
    Support counters.
    """
    db = ChimeraDatabase(use_static_optimization=optimized)
    try:
        for index, expression in enumerate(expressions):
            db.define_rule(
                Rule(
                    name=f"r{index}",
                    events=expression,
                    condition=TRUE_CONDITION,
                    action=NO_ACTION,
                )
            )
        for block in blocks:
            db.engine.run_stream_block(block)
        considered = [(rec.rule_name, rec.instant) for rec in db.considerations]
        return considered, db.trigger_statistics()
    finally:
        db.close()


class TestEngineRouting:
    """V(E) on the running engine: routing skips checks, never a triggering."""

    def test_routing_skips_checks_and_the_saving_grows_with_the_rules(self):
        stream = EventStreamGenerator(seed=42, events_per_block=2).blocks(150)
        saved = []
        for rules in (4, 16, 64):
            expressions = ExpressionGenerator(
                seed=100 + rules, instance_probability=0.2
            ).expressions(rules, operators=3)
            routed, routed_stats = run_engine(expressions, stream, optimized=True)
            scanned, scanned_stats = run_engine(expressions, stream, optimized=False)
            assert routed == scanned, rules
            bypassed = routed_stats["rules_bypassed_by_index"]
            assert bypassed > 0
            assert routed_stats["rules_checked"] + bypassed == (
                scanned_stats["rules_checked"]
            )
            assert (
                routed_stats["instants_sampled"] <= scanned_stats["instants_sampled"]
            )
            saved.append(bypassed)
        assert saved == sorted(saved)

    def test_negated_precedence_keeps_the_right_operands_positive_sign(self):
        """The smallest miss of the literal Fig. 6 reading in a generated pool.

        Read literally, precedence hands the requested sign to its right
        operand only: under the outer negation ``modify`` would be watched as
        ``Δ-`` alone, so a block holding only ``modify`` would never be routed
        to the rule.  Yet that block triggers it.  The new ``modify`` moves
        the instant the left operand is probed at past the ``delete``, so the
        precedence stops holding and its negation is active at t21.
        """
        expression = parse_expression("-(-delete(cls0) < modify(cls0.attr0))")
        deleted = EventType(Operation.DELETE, "cls0")
        modified = EventType(Operation.MODIFY, "cls0", "attr0")
        assert Variation(modified, Sign.BOTH, Scope.SET) in variation_set(expression)
        blocks = [
            [EventOccurrence(14, modified, "cls0#4", 15)],
            [EventOccurrence(16, deleted, "cls0#5", 17)],
            [EventOccurrence(20, modified, "cls0#1", 21)],
        ]
        routed, stats = run_engine([expression], blocks, optimized=True)
        scanned, _ = run_engine([expression], blocks, optimized=False)
        assert routed == scanned == [("r0", 21)]
        # Only the delete block was skipped.
        assert stats["rules_bypassed_by_index"] == 1
