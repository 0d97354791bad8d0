"""Algebraic laws of §4.3: De Morgan, commutativity, associativity, factoring."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.compile import ts
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
from repro.core.laws import (
    LAWS,
    check_law,
    eliminate_double_negation,
    expressions_equivalent,
    law_by_name,
    negation_normal_form,
)
from repro.oodb.database import ChimeraDatabase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.workloads.generator import EventStreamGenerator, event_type_universe

from tests.conftest import A, B, C, PA, PB, PC, history

WINDOW = history(
    (A, "o1", 2),
    (B, "o2", 4),
    (A, "o2", 6),
    (C, "o1", 7),
    (B, "o1", 9),
)
INSTANTS = list(range(1, 12))


class TestRegistry:
    def test_registry_is_not_empty(self):
        assert len(LAWS) >= 12

    def test_law_by_name(self):
        assert law_by_name("de_morgan_conjunction").arity == 2
        with pytest.raises(KeyError):
            law_by_name("no_such_law")

    def test_check_law_validates_arity(self):
        with pytest.raises(ValueError):
            check_law(law_by_name("de_morgan_conjunction"), [PA], WINDOW, 5)


class TestLawsOnPrimitiveOperands:
    """Every registered law meets its stated guarantee on primitive operands."""

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
    @pytest.mark.parametrize("instant", [1, 3, 5, 8, 10])
    def test_law_holds(self, law, instant):
        operands = [PA, PB, PC][: law.arity]
        result = check_law(law, operands, WINDOW, instant)
        assert result.holds, (
            f"{law.name} failed at t={instant}: lhs={result.lhs_value} rhs={result.rhs_value}"
        )

    @pytest.mark.parametrize(
        "law",
        [law for law in LAWS if law.guarantee == "exact"],
        ids=lambda law: law.name,
    )
    @pytest.mark.parametrize("instant", [1, 3, 5, 8, 10])
    def test_exact_laws_are_exact(self, law, instant):
        operands = [PA, PB, PC][: law.arity]
        result = check_law(law, operands, WINDOW, instant)
        assert result.exact_equal


class TestLawsOnNegatedOperands:
    """With negated operands the laws still meet their stated guarantee."""

    OPERANDS = [SetNegation(PA), PB, SetNegation(PC)]

    @pytest.mark.parametrize(
        "law",
        [law for law in LAWS if not law.negation_free_operands_only],
        ids=lambda law: law.name,
    )
    @pytest.mark.parametrize("instant", [1, 5, 8, 10])
    def test_activation_agreement(self, law, instant):
        result = check_law(law, self.OPERANDS[: law.arity], WINDOW, instant)
        assert result.holds, (
            f"{law.name} failed at t={instant}: lhs={result.lhs_value} rhs={result.rhs_value}"
        )

    def test_right_factoring_is_restricted_to_negation_free_operands(self):
        law = law_by_name("precedence_right_factoring_disjunction")
        assert law.negation_free_operands_only


class TestDeMorganExplicit:
    """The Fig. 5 identity spelled out: ts(-(A , B)) == ts(-A + -B)."""

    def test_identity_over_all_instants(self, calculus):
        lhs = SetNegation(SetDisjunction(PA, PB))
        rhs = SetConjunction(SetNegation(PA), SetNegation(PB))
        for instant in INSTANTS:
            assert calculus.ts(lhs, WINDOW, instant) == calculus.ts(
                rhs, WINDOW, instant
            )

    def test_dual_identity_over_all_instants(self, calculus):
        lhs = SetNegation(SetConjunction(PA, PB))
        rhs = SetDisjunction(SetNegation(PA), SetNegation(PB))
        for instant in INSTANTS:
            assert calculus.ts(lhs, WINDOW, instant) == calculus.ts(
                rhs, WINDOW, instant
            )


class TestFigure5Traces:
    """Fig. 5: the ts traces of A, -A, B, A , B, -(A , B) and -A + -B.

    The history interleaves A and B with a bystander C; the traces are
    sampled at t1..t10.
    """

    WINDOW = history(
        (C, "o1", 1),
        (A, "o1", 2),
        (C, "o2", 4),
        (B, "o2", 5),
        (A, "o3", 7),
        (B, "o1", 8),
        (C, "o3", 9),
    )
    TRACES = {
        "A": [-1, 2, 2, 2, 2, 2, 7, 7, 7, 7],
        "-A": [1, -2, -2, -2, -2, -2, -7, -7, -7, -7],
        "B": [-1, -2, -3, -4, 5, 5, 5, 8, 8, 8],
        "A , B": [-1, 2, 2, 2, 5, 5, 7, 8, 8, 8],
        "-(A , B)": [1, -2, -2, -2, -5, -5, -7, -8, -8, -8],
        "-A + -B": [1, -2, -2, -2, -5, -5, -7, -8, -8, -8],
    }
    EXPRESSIONS = {
        "A": PA,
        "-A": SetNegation(PA),
        "B": PB,
        "A , B": SetDisjunction(PA, PB),
        "-(A , B)": SetNegation(SetDisjunction(PA, PB)),
        "-A + -B": SetConjunction(SetNegation(PA), SetNegation(PB)),
    }

    def test_traces(self, calculus):
        traces = {
            label: [calculus.ts(expression, self.WINDOW, t) for t in range(1, 11)]
            for label, expression in self.EXPRESSIONS.items()
        }
        assert traces == self.TRACES
        # The identity the figure demonstrates, and negation as a mirror image.
        assert traces["-(A , B)"] == traces["-A + -B"]
        assert traces["-A"] == [-value for value in traces["A"]]


class TestExpressionsEquivalent:
    def test_exact_equivalence(self):
        assert expressions_equivalent(
            SetConjunction(PA, PB), SetConjunction(PB, PA), WINDOW, INSTANTS
        )

    def test_non_equivalent_detected(self):
        assert not expressions_equivalent(PA, PB, WINDOW, INSTANTS)

    def test_activation_level_equivalence(self):
        lhs = SetConjunction(SetNegation(PA), SetDisjunction(PB, PC))
        rhs = SetDisjunction(
            SetConjunction(SetNegation(PA), PB), SetConjunction(SetNegation(PA), PC)
        )
        assert expressions_equivalent(lhs, rhs, WINDOW, INSTANTS, exact=False)


class TestRewriting:
    def test_double_negation_elimination(self):
        assert eliminate_double_negation(SetNegation(SetNegation(PA))) == PA

    def test_double_negation_elimination_is_recursive(self):
        expression = SetConjunction(SetNegation(SetNegation(PA)), PB)
        assert eliminate_double_negation(expression) == SetConjunction(PA, PB)

    def test_instance_double_negation(self):
        assert eliminate_double_negation(InstanceNegation(InstanceNegation(PA))) == PA

    def test_nnf_pushes_set_negation(self):
        expression = SetNegation(SetConjunction(PA, PB))
        assert negation_normal_form(expression) == SetDisjunction(
            SetNegation(PA), SetNegation(PB)
        )

    def test_nnf_pushes_instance_negation(self):
        expression = InstanceNegation(InstanceDisjunction(PA, PB))
        assert negation_normal_form(expression) == InstanceConjunction(
            InstanceNegation(PA), InstanceNegation(PB)
        )

    def test_nnf_stops_at_precedence(self):
        expression = SetNegation(SetPrecedence(PA, PB))
        assert negation_normal_form(expression) == expression

    def test_nnf_preserves_semantics(self):
        expression = SetNegation(
            SetDisjunction(SetConjunction(PA, SetNegation(PB)), PC)
        )
        rewritten = negation_normal_form(expression)
        for instant in INSTANTS:
            assert ts(expression, WINDOW, instant) == ts(rewritten, WINDOW, instant)

    def test_nnf_leaves_primitives_alone(self):
        assert negation_normal_form(PA) == PA
        assert negation_normal_form(Primitive(C)) == PC


# ---------------------------------------------------------------------------
# §4.3 at the engine level: a law rewrite changes no consideration
# ---------------------------------------------------------------------------

#: One class — a create, a delete and two modifies — so instance operators
#: find their operands on the same objects.
UNIVERSE = event_type_universe(classes=1, attributes_per_class=2)

_stream_primitives = st.sampled_from([Primitive(t) for t in UNIVERSE])


def _law_operands(negation_free: bool) -> st.SearchStrategy:
    """Operand trees over the stream's types; instance operators at the
    bottom, set operators above, negations only where the law allows them."""
    instance_ops = [InstanceConjunction, InstanceDisjunction, InstancePrecedence]
    set_ops = [SetConjunction, SetDisjunction, SetPrecedence]

    def extend(operators, negation):
        def build(children):
            options = [st.builds(op, children, children) for op in operators]
            if not negation_free:
                options.append(st.builds(negation, children))
            return st.one_of(options)

        return build

    instance_trees = st.recursive(
        _stream_primitives, extend(instance_ops, InstanceNegation), max_leaves=3
    )
    return st.recursive(instance_trees, extend(set_ops, SetNegation), max_leaves=4)


@st.composite
def law_rewrites(draw) -> tuple:
    """``(law, lhs, rhs)``: one law instance within its operand restriction."""
    law = draw(st.sampled_from(LAWS))
    operands = draw(
        st.lists(
            _law_operands(law.negation_free_operands_only),
            min_size=law.arity,
            max_size=law.arity,
        )
    )
    return law, law.lhs(*operands), law.rhs(*operands)


def _considerations(expressions, seed: int, routed: bool) -> list[tuple]:
    """Condition-free rules ``r0…`` over ``expressions``, fed one generated
    stream block by block; every consideration record, in order."""
    db = ChimeraDatabase(use_static_optimization=routed)
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
        stream = EventStreamGenerator(
            event_types=UNIVERSE, objects_per_class=2, events_per_block=3, seed=seed
        )
        for block in stream.blocks(16):
            db.engine.run_stream_block(block)
        return [
            (r.rule_name, r.instant, r.bindings, r.executed, r.phase)
            for r in db.considerations
        ]
    finally:
        db.close()


@settings(max_examples=60, deadline=None)
@given(
    rewrites=st.lists(law_rewrites(), min_size=1, max_size=4),
    seed=st.integers(0, 999),
)
def test_a_law_rewrite_changes_no_consideration(rewrites, seed):
    """Rules whose expressions are rewritten by §4.3 laws are considered at
    the same instants, in the same order, as the originals — under the
    routed planner (each side planned by its own V(E)) and under the
    paper's exhaustive scan."""
    originals = [lhs for _law, lhs, _rhs in rewrites]
    rewritten = [rhs for _law, _lhs, rhs in rewrites]
    reference = _considerations(originals, seed, routed=False)
    assert _considerations(originals, seed, routed=True) == reference
    for routed in (False, True):
        assert _considerations(rewritten, seed, routed) == reference, [
            law.name for law, _lhs, _rhs in rewrites
        ]
