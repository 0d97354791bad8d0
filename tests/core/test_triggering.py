"""The triggering predicate T(r, t) of paper §4.5."""

from repro.core.parser import parse_expression
from repro.core.evaluation import ts
from repro.core.triggering import is_triggered
from repro.events.event import EventType, Operation

from tests.conftest import event_base_from

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
CREATE_ORDER = EventType(Operation.CREATE, "order")


class TestWindowConstruction:
    def test_window_excludes_already_considered_occurrences(self):
        eb = event_base_from((CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 5))
        window = eb.view(after=1, until=10)
        assert [occurrence.timestamp for occurrence in window] == [5]
        decision = is_triggered(parse_expression("create(stock)"), eb, 1, 10)
        assert decision.window_size == len(window) == 1

    def test_window_with_no_prior_consideration(self):
        eb = event_base_from((CREATE_STOCK, "o1", 1))
        window = eb.view(after=None, until=10)
        assert len(window) == 1
        decision = is_triggered(parse_expression("create(stock)"), eb, None, 10)
        assert decision.window_size == 1


class TestEmptyWindowRule:
    """R = {} means the rule cannot trigger, even for negation expressions."""

    def test_no_new_events_means_no_triggering(self):
        eb = event_base_from((CREATE_STOCK, "o1", 1))
        expression = parse_expression("-create(order)")
        decision = is_triggered(expression, eb, last_consideration=1, now=10)
        assert not decision
        assert decision.window_size == 0

    def test_negation_rule_triggers_once_something_happens(self):
        eb = event_base_from((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o1", 4))
        expression = parse_expression("-create(order)")
        decision = is_triggered(expression, eb, last_consideration=1, now=10)
        assert decision.triggered
        assert decision.ts_value > 0

    def test_empty_event_base(self):
        eb = event_base_from()
        decision = is_triggered(parse_expression("create(stock)"), eb, None, 5)
        assert not decision.triggered
        assert decision.window_size == 0


class TestBasicTriggering:
    def test_simple_event_triggers(self):
        eb = event_base_from((CREATE_STOCK, "o1", 3))
        decision = is_triggered(parse_expression("create(stock)"), eb, None, 5)
        assert decision.triggered
        assert decision.ts_value == 3

    def test_not_triggered_by_other_events(self):
        eb = event_base_from((CREATE_ORDER, "o3", 3))
        decision = is_triggered(parse_expression("create(stock)"), eb, None, 5)
        assert not decision.triggered

    def test_composite_conjunction_triggers_only_when_complete(self):
        expression = parse_expression("create(stock) + modify(stock.quantity)")
        incomplete = event_base_from((CREATE_STOCK, "o1", 2))
        complete = event_base_from((CREATE_STOCK, "o1", 2), (MODIFY_QTY, "o2", 4))
        assert not is_triggered(expression, incomplete, None, 5).triggered
        assert is_triggered(expression, complete, None, 5).triggered

    def test_consideration_consumes_triggering_events(self):
        expression = parse_expression("create(stock)")
        eb = event_base_from((CREATE_STOCK, "o1", 2), (CREATE_ORDER, "o3", 6))
        # After considering at t=4, only the order creation is in the window:
        # the stock creation has lost its capability of triggering the rule.
        decision = is_triggered(expression, eb, last_consideration=4, now=8)
        assert not decision.triggered

    def test_decision_is_truthy(self):
        eb = event_base_from((CREATE_STOCK, "o1", 2))
        assert is_triggered(parse_expression("create(stock)"), eb, None, 3)

    def test_accepts_prebuilt_window(self):
        eb = event_base_from((CREATE_STOCK, "o1", 2))
        window = eb.full_view()
        assert is_triggered(
            parse_expression("create(stock)"), window, None, 3
        ).triggered


class TestExistentialSemantics:
    """T(r, t) holds if ts was positive at *some* instant since last consideration."""

    def test_transient_activation_is_caught_by_exact_check(self):
        # -create(order) is active between the stock creation (t=2) and the
        # order creation (t=5); at t=6 it is no longer active, but the
        # existential over t1 still holds.
        expression = parse_expression("modify(stock.quantity) + -create(order)")
        eb = event_base_from(
            (MODIFY_QTY, "o1", 2),
            (CREATE_ORDER, "o3", 5),
        )
        exact = is_triggered(expression, eb, last_consideration=None, now=6)
        assert exact.triggered
        assert exact.instant == 2
        # Sampling ts at ``now`` alone misses the transient activation.
        assert ts(expression, eb.view(None, 6), 6) < 0

    def test_incremental_check_converges_when_run_per_block(self):
        expression = parse_expression("modify(stock.quantity) + -create(order)")
        eb = event_base_from((MODIFY_QTY, "o1", 2), (CREATE_ORDER, "o3", 5))
        # Sampling at the end of the first block (t=2) already sees it active.
        assert ts(expression, eb.view(None, 2), 2) > 0

    def test_exact_check_reports_first_triggering_instant(self):
        expression = parse_expression("create(stock) , modify(stock.quantity)")
        eb = event_base_from((CREATE_STOCK, "o1", 3), (MODIFY_QTY, "o1", 7))
        decision = is_triggered(expression, eb, None, 9)
        assert decision.instant == 3
