"""Uncertain tuples and schemas (paper §II-A).

A tuple ``T_i`` has a membership probability ``p_i`` (tuple uncertainty)
and attributes that are in general probability distributions (attribute
uncertainty).  We represent a distribution-valued attribute as a
:class:`~repro.core.dfsample.DfSized` — a distribution plus the sample
size it was learned from — so accuracy can propagate through queries.
Plain Python numbers and strings are allowed too and behave like
deterministic fields.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

from repro.core.dfsample import DfSized
from repro.distributions.base import Distribution, as_distribution
from repro.errors import SchemaError

__all__ = ["AttributeSpec", "Schema", "UncertainTuple"]

_KINDS = ("distribution", "number", "text", "any")


@dataclasses.dataclass(frozen=True, slots=True)
class AttributeSpec:
    """Declared name and kind of a stream attribute."""

    name: str
    kind: str = "any"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind not in _KINDS:
            raise SchemaError(
                f"unknown attribute kind {self.kind!r}; expected one of {_KINDS}"
            )

    def accepts(self, value: object) -> bool:
        if self.kind == "any":
            return True
        if self.kind == "distribution":
            return isinstance(value, (DfSized, Distribution))
        if self.kind == "number":
            return isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
        return isinstance(value, str)


class Schema:
    """An ordered set of attribute specs with O(1) lookup by name."""

    def __init__(self, attributes: Iterable[AttributeSpec | tuple[str, str] | str]) -> None:
        specs: list[AttributeSpec] = []
        for attr in attributes:
            if isinstance(attr, AttributeSpec):
                specs.append(attr)
            elif isinstance(attr, tuple):
                specs.append(AttributeSpec(*attr))
            else:
                specs.append(AttributeSpec(attr))
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self._specs = tuple(specs)
        self._by_name = {s.name: s for s in specs}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r} in schema") from None

    def validate(self, tup: "UncertainTuple") -> None:
        """Raise SchemaError unless the tuple matches this schema exactly."""
        missing = [n for n in self.names if n not in tup.attributes]
        if missing:
            raise SchemaError(f"tuple missing attributes {missing}")
        extra = [n for n in tup.attributes if n not in self._by_name]
        if extra:
            raise SchemaError(f"tuple has undeclared attributes {extra}")
        for spec in self._specs:
            value = tup.attributes[spec.name]
            if not spec.accepts(value):
                raise SchemaError(
                    f"attribute {spec.name!r} expects kind {spec.kind!r}, "
                    f"got {type(value).__name__}"
                )

    def validate_batch(self, tuples: "Iterable[UncertainTuple]") -> None:
        """Validate many tuples with the per-tuple set algebra hoisted out.

        Equivalent to calling :meth:`validate` on each tuple in order —
        same first error, same message — but tuples whose key layout
        matches the schema (the overwhelmingly common case for a
        stream) skip the missing/extra list computations and only run
        the kind checks that can actually fail.
        """
        checks = tuple(s for s in self._specs if s.kind != "any")
        keys = self._by_name.keys()
        for tup in tuples:
            attributes = tup.attributes
            if attributes.keys() != keys:
                self.validate(tup)  # exact missing/extra error
            for spec in checks:
                if not spec.accepts(attributes[spec.name]):
                    raise SchemaError(
                        f"attribute {spec.name!r} expects kind "
                        f"{spec.kind!r}, "
                        f"got {type(attributes[spec.name]).__name__}"
                    )

    def __repr__(self) -> str:
        fields = ", ".join(f"{s.name}:{s.kind}" for s in self._specs)
        return f"Schema({fields})"


@dataclasses.dataclass(slots=True)
class UncertainTuple:
    """One stream element: attributes + membership probability + timestamp."""

    attributes: dict[str, object]
    probability: float = 1.0
    timestamp: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, Mapping):
            raise SchemaError("attributes must be a mapping")
        self.attributes = dict(self.attributes)
        if not 0.0 <= self.probability <= 1.0:
            raise SchemaError(
                f"membership probability must be in [0,1], "
                f"got {self.probability}"
            )

    def value(self, name: str) -> object:
        try:
            return self.attributes[name]
        except KeyError:
            raise SchemaError(f"tuple has no attribute {name!r}") from None

    def dfsized(self, name: str) -> DfSized:
        """The attribute as a DfSized, coercing raw numbers to exact values."""
        value = self.value(name)
        if isinstance(value, DfSized):
            return value
        if isinstance(value, Distribution):
            return DfSized(value, None)
        return DfSized(as_distribution(value), None)

    def with_attributes(self, attributes: dict[str, object]) -> "UncertainTuple":
        """Copy with replaced attributes (probability/timestamp preserved)."""
        return UncertainTuple(attributes, self.probability, self.timestamp)

    def with_value(self, name: str, value: object) -> "UncertainTuple":
        """Copy with one attribute set (appended when new)."""
        return UncertainTuple(
            {**self.attributes, name: value}, self.probability, self.timestamp
        )

    def scaled(self, factor: float) -> "UncertainTuple":
        """Copy with membership probability multiplied by ``factor``."""
        return UncertainTuple(
            dict(self.attributes),
            self.probability * factor,
            self.timestamp,
        )
