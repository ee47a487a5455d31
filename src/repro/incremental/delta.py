"""Delta relations: the unit of change handed to incremental maintenance.

A :class:`RelationDelta` describes one base relation's change as a pair of
bag operations — ``inserts`` (tuples appended) and ``deletes`` (tuples
removed, matched as a multiset, or a boolean tombstone mask over the current
instance). :func:`normalize_deltas` coerces the user-facing ``apply(...)``
arguments (relations, row lists, column dicts, masks) into validated deltas
against the database schema.

The distinction that matters downstream is :attr:`RelationDelta.insert_only`:
sum-product aggregates are *linear* in each relation's row multiset, so an
insert-only delta admits an exact numeric maintenance step (run the
compiled group code over a trie of just the new tuples and add the emitted
values in). The run scans O(|Δ|) tuples; adding its output in copies the
maintained view (:func:`repro.incremental.rules.merge_delta_outputs`), so
the step as a whole is O(|view|). Deletes can silently empty a group — deciding whether a group-by
key survives needs join support, which the numeric path cannot see — so they
route to the rescan path instead.

:func:`coalesce_deltas` composes two *consecutive* delta maps into one —
the group-commit primitive of the serving layer's write queue
(:mod:`repro.serve.writequeue`). Composition cancels the second delta's
deletes against the first's still-pending inserts bag-wise (a tuple
inserted then deleted inside one group never touches the base relation,
which matters because :meth:`repro.data.relation.Relation.remove_rows`
treats deleting an absent tuple as a hard error), and it preserves
:attr:`RelationDelta.insert_only`: a queue of small insert-only writes
merges into one insert-only delta, so one numeric step (and one view
copy) serves the whole group.

A commit costs O(|Δ|) lookups plus linear copies. Every tuple delete —
:meth:`RelationDelta.apply_to` staging it, the commit carrying each cached
trie of the relation to the new version
(:meth:`repro.data.trie.TrieIndex.carried`, through
:meth:`repro.core.snapshot.Snapshot.with_relations`), and the
cancellation above — is matched by one vectorised bag matcher,
:func:`repro.data.keycodes.match_bag`: the delete tuples are coded, the
other side's columns probe them, and a tuple takes its lowest-indexed
equal rows. No relation is sorted. A ``delete_mask`` delta drops the
relation's tries instead; the next reader rebuilds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.data.catalog import Database
from repro.data.keycodes import match_bag
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.util.errors import SchemaError


@dataclass(frozen=True)
class RelationDelta:
    """One relation's change: appended tuples, removed tuples, or both.

    ``deletes`` removes one occurrence per tuple (bag difference);
    ``delete_mask`` marks rows of the *current* instance for removal.
    Deletes are applied before inserts: a tuple inserted by this delta
    cannot be deleted by it.
    """

    relation: str
    inserts: Relation | None = None
    deletes: Relation | None = None
    delete_mask: np.ndarray | None = None

    @property
    def is_empty(self) -> bool:
        return (
            (self.inserts is None or self.inserts.num_rows == 0)
            and (self.deletes is None or self.deletes.num_rows == 0)
            and (self.delete_mask is None or not bool(self.delete_mask.any()))
        )

    @property
    def insert_only(self) -> bool:
        """True when the delta only appends — the numeric fast-path domain."""
        return (self.deletes is None or self.deletes.num_rows == 0) and (
            self.delete_mask is None or not bool(self.delete_mask.any())
        )

    @property
    def num_inserts(self) -> int:
        return self.inserts.num_rows if self.inserts is not None else 0

    def apply_to(self, relation: Relation) -> Relation:
        """The updated instance (deletes first, then inserts)."""
        result = relation
        if self.delete_mask is not None:
            if len(self.delete_mask) != relation.num_rows:
                raise SchemaError(
                    f"delete mask for {self.relation} has {len(self.delete_mask)} "
                    f"entries, relation has {relation.num_rows} rows"
                )
            result = result.filter(~self.delete_mask)
        if self.deletes is not None and self.deletes.num_rows:
            result = result.remove_rows(self.deletes)
        if self.inserts is not None and self.inserts.num_rows:
            result = result.concat(self.inserts)
        return result


def _coerce_relation(schema: RelationSchema, value: object) -> Relation:
    """Coerce rows / column dicts / relations into an instance of ``schema``."""
    if isinstance(value, Relation):
        if value.attribute_names != schema.attribute_names:
            raise SchemaError(
                f"delta for {schema.name} has attributes {value.attribute_names}, "
                f"expected {schema.attribute_names}"
            )
        return value.rename(schema.name)
    if isinstance(value, Mapping):
        return Relation(schema, value)
    if isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, (str, bytes)):
        return Relation.from_rows(schema, value)
    raise SchemaError(
        f"cannot interpret delta of type {type(value).__name__} for {schema.name}; "
        "pass a Relation, a row sequence, a column mapping, or (deletes only) "
        "a boolean mask"
    )


def normalize_deltas(
    db: Database,
    inserts: Mapping[str, object] | None,
    deletes: Mapping[str, object] | None,
) -> dict[str, RelationDelta]:
    """Validate and combine apply() arguments into per-relation deltas."""
    per_relation: dict[str, dict] = {}
    for kind, mapping in (("inserts", inserts), ("deletes", deletes)):
        if not mapping:
            continue
        for name, value in mapping.items():
            if name not in db.relation_names:
                raise SchemaError(f"{kind} target {name!r} is not a relation")
            per_relation.setdefault(name, {})[kind] = value

    deltas: dict[str, RelationDelta] = {}
    for name, parts in per_relation.items():
        schema = db.relation(name).schema
        ins = parts.get("inserts")
        ins_rel = _coerce_relation(schema, ins) if ins is not None else None
        dels = parts.get("deletes")
        del_rel = None
        del_mask = None
        if dels is not None:
            if isinstance(dels, np.ndarray) and dels.dtype == np.bool_:
                del_mask = dels
            else:
                del_rel = _coerce_relation(schema, dels)
        delta = RelationDelta(
            relation=name, inserts=ins_rel, deletes=del_rel, delete_mask=del_mask
        )
        if not delta.is_empty:
            deltas[name] = delta
    return deltas


def _concat_optional(first: Relation | None, second: Relation | None) -> Relation | None:
    """Bag union of two optional relations (None = empty)."""
    if first is None or first.num_rows == 0:
        return second
    if second is None or second.num_rows == 0:
        return first
    return first.concat(second)


def _cancel_inserts(
    pending: Relation, deletes: Relation
) -> tuple[Relation | None, Relation | None]:
    """Cancel ``deletes`` against ``pending`` inserts, bag-wise.

    Returns ``(surviving inserts, surviving deletes)`` (either may be
    None when fully cancelled). Each delete tuple consumes at most one
    matching pending-insert occurrence, the lowest-indexed one left, by
    the bag matcher staging uses (:func:`~repro.data.keycodes.match_bag`);
    unmatched deletes survive and will be removed from the *base*
    relation when the merged delta applies — exactly what applying the
    two deltas in sequence would do, since :meth:`RelationDelta.apply_to`
    appends the first delta's inserts before the second delta's deletes
    run.
    """
    names = pending.attribute_names
    taken, short = match_bag(
        [pending.column(n) for n in names], [deletes.column(n) for n in names]
    )
    if not taken.any():
        return pending, deletes
    inserts = None if taken.all() else pending.filter(~taken)
    return inserts, deletes.filter(short) if short.any() else None


def coalesce_relation_deltas(
    first: RelationDelta, second: RelationDelta
) -> RelationDelta | None:
    """Compose two consecutive deltas on one relation, or None if unmergeable.

    The only unmergeable case is a ``delete_mask`` on ``second``: a mask
    indexes rows of the instance *as the first delta left it*, which the
    composed delta (applied to the original instance) cannot express.
    ``second``'s tuple deletes first cancel against ``first``'s pending
    inserts; the remainder joins ``first``'s deletes. Applying the result
    is multiset-equal to applying ``first`` then ``second`` — and raises
    on exactly the same invalid deltas, since the composed delete bag
    targets the same base-relation occurrences.
    """
    if second.delete_mask is not None and bool(second.delete_mask.any()):
        return None
    inserts = first.inserts
    deletes = second.deletes
    if (
        inserts is not None
        and inserts.num_rows
        and deletes is not None
        and deletes.num_rows
    ):
        inserts, deletes = _cancel_inserts(inserts, deletes)
    return RelationDelta(
        relation=first.relation,
        inserts=_concat_optional(inserts, second.inserts),
        deletes=_concat_optional(first.deletes, deletes),
        delete_mask=first.delete_mask,
    )


def coalesce_deltas(
    first: Mapping[str, RelationDelta], second: Mapping[str, RelationDelta]
) -> dict[str, RelationDelta] | None:
    """Compose two consecutive per-relation delta maps into one, or None.

    ``None`` means the pair cannot be expressed as a single delta map
    (a ``delete_mask`` in ``second`` over a relation ``first`` already
    touched — the mask's row indexes are relative to the intermediate
    state) and the caller must commit them as separate groups. Relations
    touched by only one side pass through by reference; relations touched
    by both compose via :func:`coalesce_relation_deltas`. Entries that
    cancel to nothing are dropped, so the result can be ``{}``.
    """
    merged = dict(first)
    for name, delta in second.items():
        base = merged.get(name)
        if base is None:
            merged[name] = delta
            continue
        combined = coalesce_relation_deltas(base, delta)
        if combined is None:
            return None
        if combined.is_empty:
            del merged[name]
        else:
            merged[name] = combined
    return merged
