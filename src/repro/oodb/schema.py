"""Class schemas for the Chimera object store.

Chimera is an object-oriented database: objects belong to classes, classes
declare typed attributes and may specialize a superclass.  The paper's running
examples use classes such as ``stock`` (stock products), ``show`` (products on
shelves in the sale room), ``order`` and ``notFilledOrder``; ``generalize`` and
``specialize`` operations move objects along the class hierarchy and are
themselves event types.

The schema layer is deliberately small: enough typing to catch mistakes in
rules and workloads, not a full Chimera type system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import SchemaError, UnknownAttributeError, UnknownClassError

__all__ = ["AttributeDefinition", "ClassDefinition", "Schema"]


@dataclass(frozen=True)
class AttributeDefinition:
    """One attribute of a class: a name, a Python type and an optional default."""

    name: str
    value_type: type = object
    default: Any = None

    def accepts(self, value: Any) -> bool:
        """True when ``value`` is acceptable for this attribute (None is allowed)."""
        if value is None or self.value_type is object:
            return True
        if self.value_type is float and isinstance(value, int) and not isinstance(
            value, bool
        ):
            return True
        return isinstance(value, self.value_type)


@dataclass
class ClassDefinition:
    """A class of the schema: name, own attributes and optional superclass."""

    name: str
    attributes: dict[str, AttributeDefinition] = field(default_factory=dict)
    superclass: str | None = None

    def attribute(self, name: str) -> AttributeDefinition:
        """The own attribute named ``name`` (inherited ones live in the Schema)."""
        try:
            return self.attributes[name]
        except KeyError as exc:
            raise UnknownAttributeError(self.name, name) from exc


def _normalize_attributes(
    attributes: Mapping[str, Any] | Iterable[str] | None,
) -> dict[str, AttributeDefinition]:
    """Accept several attribute-declaration shapes and normalize them.

    ``{"quantity": int}`` maps names to types, ``{"quantity": AttributeDefinition(...)}``
    passes definitions through, and a plain iterable of names declares untyped
    attributes.
    """
    if attributes is None:
        return {}
    normalized: dict[str, AttributeDefinition] = {}
    if isinstance(attributes, Mapping):
        for name, spec in attributes.items():
            if isinstance(spec, AttributeDefinition):
                normalized[name] = spec
            elif isinstance(spec, type):
                normalized[name] = AttributeDefinition(name, spec)
            else:
                # A literal value declares the attribute's type and default.
                normalized[name] = AttributeDefinition(name, type(spec), spec)
        return normalized
    for name in attributes:
        normalized[str(name)] = AttributeDefinition(str(name))
    return normalized


class Schema:
    """The set of class definitions known to the database.

    The hierarchy serves the store (``specialize`` / ``generalize``, class
    extents with their subclasses, inherited attributes) and conditions'
    class ranges.  It does not reach event matching: an event type names one
    class exactly (:meth:`repro.events.event.EventType.matches`), so a
    ``create(rush)`` occurrence is no ``create(order)`` occurrence even when
    ``rush`` specializes ``order``.
    """

    def __init__(self) -> None:
        self._classes: dict[str, ClassDefinition] = {}

    # -- definition -------------------------------------------------------
    def define(
        self,
        name: str,
        attributes: Mapping[str, Any] | Iterable[str] | None = None,
        superclass: str | None = None,
    ) -> ClassDefinition:
        """Declare a class; raises :class:`SchemaError` on redefinition."""
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid class name: {name!r}")
        if name in self._classes:
            raise SchemaError(f"class {name!r} is already defined")
        if superclass is not None and superclass not in self._classes:
            raise UnknownClassError(superclass)
        definition = ClassDefinition(
            name, _normalize_attributes(attributes), superclass
        )
        self._classes[name] = definition
        return definition

    # -- lookups ----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> ClassDefinition:
        """The definition of class ``name`` (raises when unknown)."""
        try:
            return self._classes[name]
        except KeyError as exc:
            raise UnknownClassError(name) from exc

    def class_names(self) -> list[str]:
        """Every defined class name, in definition order."""
        return list(self._classes)

    def ancestors(self, name: str) -> list[str]:
        """The superclass chain of ``name`` (nearest first, excluding ``name``)."""
        chain: list[str] = []
        current = self.get(name).superclass
        while current is not None:
            if current in chain:
                raise SchemaError(f"cyclic inheritance involving {current!r}")
            chain.append(current)
            current = self.get(current).superclass
        return chain

    def descendants(self, name: str) -> set[str]:
        """Every class that directly or transitively specializes ``name``."""
        self.get(name)
        found: set[str] = set()
        changed = True
        while changed:
            changed = False
            for candidate, definition in self._classes.items():
                if candidate in found or candidate == name:
                    continue
                parent = definition.superclass
                if parent == name or parent in found:
                    found.add(candidate)
                    changed = True
        return found

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """True when ``name`` equals ``ancestor`` or specializes it."""
        if name == ancestor:
            self.get(name)
            return True
        return ancestor in self.ancestors(name)

    def all_attributes(self, name: str) -> dict[str, AttributeDefinition]:
        """Own plus inherited attributes of ``name`` (own definitions win)."""
        merged: dict[str, AttributeDefinition] = {}
        for ancestor in reversed(self.ancestors(name)):
            merged.update(self.get(ancestor).attributes)
        merged.update(self.get(name).attributes)
        return merged

    # -- validation --------------------------------------------------------
    def validate_values(self, name: str, values: Mapping[str, Any]) -> dict[str, Any]:
        """Check ``values`` against the class and fill unset attributes with defaults."""
        declared = self.all_attributes(name)
        for attribute_name, value in values.items():
            definition = declared.get(attribute_name)
            if definition is None:
                raise UnknownAttributeError(name, attribute_name)
            if not definition.accepts(value):
                raise SchemaError(
                    f"attribute {name}.{attribute_name} expects "
                    f"{definition.value_type.__name__}, got {value!r}"
                )
        complete = {
            attribute_name: definition.default
            for attribute_name, definition in declared.items()
        }
        complete.update(values)
        return complete

    def validate_attribute(self, name: str, attribute: str) -> AttributeDefinition:
        """Check that class ``name`` declares (or inherits) ``attribute``."""
        declared = self.all_attributes(name)
        if attribute not in declared:
            raise UnknownAttributeError(name, attribute)
        return declared[attribute]
