"""Relation and database schemas.

Natural-join semantics: attributes are global names. Two relations that both
mention attribute ``date`` join on it. A :class:`DatabaseSchema` therefore
checks that every shared attribute name is declared with the same kind in
all relations that carry it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from repro.data.types import AttributeKind
from repro.util.errors import SchemaError


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute.

    Attributes
    ----------
    name:
        Globally unique attribute name (natural-join key).
    kind:
        :class:`AttributeKind` — categorical (int64 codes) or continuous
        (float64 measures).
    """

    name: str
    kind: AttributeKind = AttributeKind.CATEGORICAL

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"attribute name must be an identifier, got {self.name!r}")

    @staticmethod
    def categorical(name: str) -> "Attribute":
        """Shorthand for a categorical attribute."""
        return Attribute(name, AttributeKind.CATEGORICAL)

    @staticmethod
    def continuous(name: str) -> "Attribute":
        """Shorthand for a continuous attribute."""
        return Attribute(name, AttributeKind.CONTINUOUS)


@dataclass(frozen=True)
class RelationSchema:
    """An ordered list of attributes under a relation name."""

    name: str
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"relation name must be an identifier, got {self.name!r}")
        names = [attr.name for attr in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {self.name} has duplicate attributes: {names}")
        if not names:
            raise SchemaError(f"relation {self.name} has no attributes")

    @staticmethod
    def of(name: str, attributes: Iterable[Attribute]) -> "RelationSchema":
        """Build a schema from any attribute iterable."""
        return RelationSchema(name, tuple(attributes))

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    @cached_property
    def _name_set(self) -> frozenset[str]:
        return frozenset(self.attribute_names)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name; raises :class:`SchemaError` if absent."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"relation {self.name} has no attribute {name!r}")

    def __contains__(self, attr_name: str) -> bool:
        return attr_name in self._name_set

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)


class DatabaseSchema:
    """A named collection of relation schemas with consistent shared attributes."""

    def __init__(self, relations: Iterable[RelationSchema], name: str = "db") -> None:
        self.name = name
        self._relations: dict[str, RelationSchema] = {}
        kinds: dict[str, tuple[str, AttributeKind]] = {}
        holders: dict[str, list[str]] = {}
        for rel in relations:
            if rel.name in self._relations:
                raise SchemaError(f"duplicate relation name {rel.name!r}")
            self._relations[rel.name] = rel
            for attr in rel.attributes:
                holders.setdefault(attr.name, []).append(rel.name)
                seen = kinds.get(attr.name)
                if seen is not None and seen[1] is not attr.kind:
                    raise SchemaError(
                        f"attribute {attr.name!r} is {seen[1].value} in {seen[0]} "
                        f"but {attr.kind.value} in {rel.name}"
                    )
                kinds.setdefault(attr.name, (rel.name, attr.kind))
        if not self._relations:
            raise SchemaError("database schema needs at least one relation")
        self._kinds = {name: kind for name, (_, kind) in kinds.items()}
        self._holders = {name: tuple(rels) for name, rels in holders.items()}

    @property
    def relations(self) -> tuple[RelationSchema, ...]:
        """Relation schemas in declaration order."""
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def relation(self, name: str) -> RelationSchema:
        """Look up a relation schema by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._relations

    @property
    def all_attributes(self) -> tuple[str, ...]:
        """Every attribute name in the database, first-seen order."""
        return tuple(self._kinds)

    def attribute_kind(self, attr_name: str) -> AttributeKind:
        """Kind of a (global) attribute name."""
        try:
            return self._kinds[attr_name]
        except KeyError:
            raise SchemaError(f"no attribute named {attr_name!r}") from None

    def relations_with(self, attr_name: str) -> tuple[str, ...]:
        """Names of the relations that carry ``attr_name``, in declaration order."""
        return self._holders.get(attr_name, ())

    def shared_attributes(self, left: str, right: str) -> tuple[str, ...]:
        """Attributes shared by two relations — their natural-join key."""
        right_names = set(self.relation(right).attribute_names)
        return tuple(a for a in self.relation(left).attribute_names if a in right_names)

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{rel.name}({', '.join(rel.attribute_names)})" for rel in self.relations
        )
        return f"DatabaseSchema[{self.name}]({rels})"
