"""The textual rule-definition language.

The surface syntax follows the paper's example::

    define immediate checkStockQty for stock
    events create
    condition stock(S), occurred(create(stock), S), S.quantity > S.maxquantity
    action modify(stock.quantity, S, S.maxquantity)
    end

Clauses:

* ``define`` — modifiers (``immediate``/``deferred`` and
  ``consuming``/``preserving``, in any order), the rule name and an optional
  ``for <class>`` target;
* ``events`` — a composite event expression.  For targeted rules, bare
  operation names (``create``, ``modify(quantity)``) are qualified with the
  target class;
* ``condition`` (optional) — a comma-separated list of class ranges,
  ``occurred``/``holds``/``at`` event formulas and comparisons;
* ``action`` — a comma-separated list of ``modify``/``create``/``delete``
  statements;
* ``priority <n>`` (optional);
* ``end``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.expressions import EventExpression
from repro.core.parser import parse_expression
from repro.errors import RuleDefinitionError
from repro.events.event import Operation
from repro.rules.actions import (
    Action,
    ActionStatement,
    CreateStatement,
    DeleteStatement,
    ModifyStatement,
)
from repro.rules.conditions import (
    AtFormula,
    ClassRange,
    Comparison,
    Condition,
    ConditionAtom,
    OccurredFormula,
)
from repro.rules.rule import ConsumptionMode, ECCoupling, Rule
from repro.rules.terms import AttrRef, BinOp, Const, Term, VarRef

__all__ = ["parse_rule", "parse_rules"]




def _split_top_level(text: str, separator: str = ",") -> list[str]:
    """Split on ``separator`` ignoring occurrences nested inside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        if char == separator and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [part for part in parts if part]


# ---------------------------------------------------------------------------
# Clause splitting
# ---------------------------------------------------------------------------


_CLAUSE_KEYWORD = re.compile(
    r"\b(events|condition|action|priority|consumption|end)\b", flags=re.IGNORECASE
)


def _clause_keywords(text: str) -> list[re.Match[str]]:
    """``text``'s clause keywords at parenthesis depth 0 and not after a ``.``
    (``create(events)``, ``O.end`` name a class and an attribute)."""
    return [
        match
        for match in _CLAUSE_KEYWORD.finditer(text)
        if text.count("(", 0, match.start()) <= text.count(")", 0, match.start())
        and not text[: match.start()].rstrip().endswith(".")
    ]


def _split_clauses(text: str) -> dict[str, str]:
    """Split a rule definition into its clauses keyed by keyword."""
    stripped = text.strip()
    if not stripped.lower().startswith("define"):
        raise RuleDefinitionError("a rule definition must start with 'define'")
    matches = _clause_keywords(stripped)
    if not matches or matches[-1].group(1).lower() != "end":
        raise RuleDefinitionError("a rule definition must finish with 'end'")
    clauses = {"define": stripped[len("define") : matches[0].start()].strip()}
    for match, following in zip(matches, [*matches[1:], None]):
        keyword = match.group(1).lower()
        if keyword == "end":
            trailing = stripped[match.end() :].strip()
            if trailing:
                raise RuleDefinitionError(f"unexpected text after 'end': {trailing!r}")
        elif keyword in clauses:
            raise RuleDefinitionError(f"duplicate clause {keyword!r}")
        else:  # the last keyword is "end", so a clause has a following one
            clauses[keyword] = stripped[match.end() : following.start()].strip()
    return clauses


# ---------------------------------------------------------------------------
# define clause
# ---------------------------------------------------------------------------


@dataclass
class _Header:
    name: str
    coupling: ECCoupling
    consumption: ConsumptionMode
    target_class: str | None


def _parse_header(text: str) -> _Header:
    tokens = text.split()
    if not tokens:
        raise RuleDefinitionError("the define clause needs at least a rule name")
    coupling = ECCoupling.IMMEDIATE
    consumption = ConsumptionMode.CONSUMING
    name: str | None = None
    target: str | None = None
    index = 0
    while index < len(tokens):
        token = tokens[index]
        lowered = token.lower()
        if lowered in ("immediate", "deferred"):
            coupling = ECCoupling(lowered)
        elif lowered in ("consuming", "preserving"):
            consumption = ConsumptionMode(lowered)
        elif lowered == "for":
            if index + 1 >= len(tokens):
                raise RuleDefinitionError("'for' must be followed by a class name")
            target = tokens[index + 1]
            index += 1
        elif name is None:
            name = token
        else:
            raise RuleDefinitionError(f"unexpected token {token!r} in define clause")
        index += 1
    if name is None:
        raise RuleDefinitionError("the define clause is missing the rule name")
    return _Header(
        name=name, coupling=coupling, consumption=consumption, target_class=target
    )


# ---------------------------------------------------------------------------
# events clause
# ---------------------------------------------------------------------------


_BARE_OPERATION = re.compile(
    r"\b(?P<op>"
    + "|".join(sorted(member.value for member in Operation))
    + r")\b\s*(?:\(\s*(?P<arg>[A-Za-z_][A-Za-z_0-9.]*)\s*\))?"
)


def _qualify_events(text: str, target_class: str | None) -> str:
    """Qualify bare operation names with the target class of a targeted rule.

    ``create`` becomes ``create(stock)`` and ``modify(quantity)`` becomes
    ``modify(stock.quantity)`` when the rule is targeted to ``stock`` and
    ``quantity`` is not itself a class name pattern.  Fully qualified event
    types are left untouched.
    """
    if target_class is None:
        return text

    def qualify(match: re.Match[str]) -> str:
        operation = match.group("op")
        argument = match.group("arg")
        if argument is None:
            return f"{operation}({target_class})"
        inner = argument.strip()
        if "." in inner or inner == target_class:
            return f"{operation}({inner})"
        if operation == Operation.MODIFY.value:
            # A bare identifier in a targeted modify names an attribute of the
            # target class: modify(quantity) -> modify(stock.quantity).
            return f"{operation}({target_class}.{inner})"
        # For the other operations the argument can only be a class name; leave
        # it alone so the Rule validation can report the class mismatch.
        return f"{operation}({inner})"

    return _BARE_OPERATION.sub(qualify, text)


def _parse_events(text: str, target_class: str | None) -> EventExpression:
    if not text:
        raise RuleDefinitionError("the events clause cannot be empty")
    return parse_expression(_qualify_events(text, target_class))


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


_NUMBER_PATTERN = re.compile(r"^-?\d+(\.\d+)?$")
_IDENT_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_ATTR_PATTERN = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\.([A-Za-z_][A-Za-z_0-9]*)$")


def _parse_simple_term(text: str) -> Term:
    stripped = text.strip()
    if not stripped:
        raise RuleDefinitionError("empty term")
    if _NUMBER_PATTERN.match(stripped):
        return Const(float(stripped) if "." in stripped else int(stripped))
    if stripped.lower() in ("true", "false"):
        return Const(stripped.lower() == "true")
    if (stripped.startswith("'") and stripped.endswith("'")) or (
        stripped.startswith('"') and stripped.endswith('"')
    ):
        return Const(stripped[1:-1])
    attribute_match = _ATTR_PATTERN.match(stripped)
    if attribute_match:
        return AttrRef(attribute_match.group(1), attribute_match.group(2))
    if _IDENT_PATTERN.match(stripped):
        return VarRef(stripped)
    raise RuleDefinitionError(f"cannot parse term {stripped!r}")


def _parse_term(text: str) -> Term:
    """Parse a term with optional left-associative ``+ - * /`` arithmetic."""
    stripped = text.strip()
    if _NUMBER_PATTERN.match(stripped):
        # Negative literals would otherwise be split on the leading minus.
        return _parse_simple_term(stripped)
    pieces = re.split(r"\s*([+*/-])\s*", stripped)
    if len(pieces) == 1:
        return _parse_simple_term(stripped)
    term = _parse_simple_term(pieces[0])
    index = 1
    while index < len(pieces) - 1:
        operator_symbol = pieces[index]
        operand = _parse_simple_term(pieces[index + 1])
        term = BinOp(operator_symbol, term, operand)
        index += 2
    return term


# ---------------------------------------------------------------------------
# condition clause
# ---------------------------------------------------------------------------


_COMPARISON_PATTERN = re.compile(r"(>=|<=|!=|<>|==|=|>|<)")
_CLASS_RANGE_PATTERN = re.compile(
    r"^([A-Za-z_][A-Za-z_0-9]*)\s*\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*\)$"
)


def _parse_condition_atom(text: str, target_class: str | None) -> ConditionAtom:
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered.startswith(("occurred(", "occurred (", "holds(", "holds (")):
        keyword = "occurred" if lowered.startswith("occurred") else "holds"
        inner = stripped[stripped.index("(") + 1 : stripped.rindex(")")]
        pieces = _split_top_level(inner)
        if len(pieces) < 2:
            raise RuleDefinitionError(
                f"{keyword} needs an event expression and a variable: {stripped!r}"
            )
        expression = _parse_events(", ".join(pieces[:-1]), target_class)
        return OccurredFormula(expression, pieces[-1], keyword=keyword)
    if lowered.startswith(("at(", "at (")):
        inner = stripped[stripped.index("(") + 1 : stripped.rindex(")")]
        pieces = _split_top_level(inner)
        if len(pieces) < 3:
            raise RuleDefinitionError(
                f"at needs an event expression, a variable and a time variable: {stripped!r}"
            )
        expression = _parse_events(", ".join(pieces[:-2]), target_class)
        return AtFormula(expression, pieces[-2], pieces[-1])
    range_match = _CLASS_RANGE_PATTERN.match(stripped)
    if range_match and not _COMPARISON_PATTERN.search(stripped):
        return ClassRange(
            variable=range_match.group(2), class_name=range_match.group(1)
        )
    comparison_match = _COMPARISON_PATTERN.search(stripped)
    if comparison_match:
        operator_symbol = comparison_match.group(1)
        left_text = stripped[: comparison_match.start()].strip()
        right_text = stripped[comparison_match.end() :].strip()
        return Comparison(
            _parse_term(left_text), operator_symbol, _parse_term(right_text)
        )
    raise RuleDefinitionError(f"cannot parse condition atom {stripped!r}")


def _parse_condition(text: str | None, target_class: str | None) -> Condition:
    if not text:
        return Condition(())
    atoms = tuple(
        _parse_condition_atom(part, target_class) for part in _split_top_level(text)
    )
    return Condition(atoms)


# ---------------------------------------------------------------------------
# action clause
# ---------------------------------------------------------------------------


def _parse_action_statement(text: str) -> ActionStatement:
    stripped = text.strip()
    lowered = stripped.lower()
    if "(" not in stripped or not stripped.endswith(")"):
        raise RuleDefinitionError(f"cannot parse action statement {stripped!r}")
    head, _, rest = stripped.partition("(")
    inner = rest[:-1]
    head = head.strip().lower()
    arguments = _split_top_level(inner)
    if head == "modify":
        if len(arguments) != 3:
            raise RuleDefinitionError(
                f"modify needs (class.attribute, variable, value): {stripped!r}"
            )
        path, variable, value = arguments
        class_name, _, attribute = path.partition(".")
        if not attribute:
            raise RuleDefinitionError(
                f"modify needs a class.attribute path, got {path!r}"
            )
        return ModifyStatement(
            class_name.strip(),
            attribute.strip(),
            _parse_term(variable),
            _parse_term(value),
        )
    if head == "create":
        if not arguments:
            raise RuleDefinitionError(
                f"create needs at least a class name: {stripped!r}"
            )
        class_name = arguments[0].strip()
        bind_as: str | None = None
        if " as " in class_name:
            class_name, _, bind_as = class_name.partition(" as ")
            class_name = class_name.strip()
            bind_as = bind_as.strip()
        values: list[tuple[str, Term]] = []
        for assignment in arguments[1:]:
            if "=" not in assignment:
                raise RuleDefinitionError(
                    f"create attribute assignments use attr=value, got {assignment!r}"
                )
            attribute, _, value_text = assignment.partition("=")
            values.append((attribute.strip(), _parse_term(value_text)))
        return CreateStatement(class_name, tuple(values), bind_as=bind_as)
    if head == "delete":
        if len(arguments) != 1:
            raise RuleDefinitionError(
                f"delete needs exactly one variable: {stripped!r}"
            )
        return DeleteStatement(_parse_term(arguments[0]))
    raise RuleDefinitionError(f"unknown action statement {lowered!r}")


def _parse_action(text: str | None) -> Action:
    if not text:
        return Action(())
    statements = tuple(_parse_action_statement(part) for part in _split_top_level(text))
    return Action(statements)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def parse_rule(text: str) -> Rule:
    """Parse one ``define ... end`` rule definition."""
    clauses = _split_clauses(text)
    header = _parse_header(clauses.get("define", ""))
    if "events" not in clauses:
        raise RuleDefinitionError(f"rule {header.name!r} is missing the events clause")
    events = _parse_events(clauses["events"], header.target_class)
    condition = _parse_condition(clauses.get("condition"), header.target_class)
    action = _parse_action(clauses.get("action"))
    priority = 0
    if "priority" in clauses:
        try:
            priority = int(clauses["priority"])
        except ValueError as exc:
            raise RuleDefinitionError(
                f"priority must be an integer, got {clauses['priority']!r}"
            ) from exc
    consumption = header.consumption
    if "consumption" in clauses:
        value = clauses["consumption"].strip().lower()
        try:
            consumption = ConsumptionMode(value)
        except ValueError as exc:
            raise RuleDefinitionError(
                f"consumption must be 'consuming' or 'preserving', got {value!r}"
            ) from exc
    return Rule(
        name=header.name,
        events=events,
        condition=condition,
        action=action,
        coupling=header.coupling,
        consumption=consumption,
        priority=priority,
        target_class=header.target_class,
        source=text.strip(),
    )


def parse_rules(text: str) -> list[Rule]:
    """Parse several rule definitions from one string (``define ... end`` blocks)."""
    ends = [m.end() for m in _clause_keywords(text) if m.group(1).lower() == "end"]
    chunks = [text[start:end] for start, end in zip([0, *ends], [*ends, len(text)])]
    return [parse_rule(chunk) for chunk in chunks if chunk.strip()]
