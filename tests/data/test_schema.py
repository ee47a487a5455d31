"""Schema validation rules."""

import pytest

from repro.data import (
    Attribute,
    AttributeKind,
    DatabaseSchema,
    RelationSchema,
    favorita,
    retailer,
)
from repro.util.errors import SchemaError


def test_attribute_kinds_have_dtypes():
    assert Attribute.categorical("a").kind.numpy_dtype().kind == "i"
    assert Attribute.continuous("b").kind.numpy_dtype().kind == "f"


def test_attribute_name_must_be_identifier():
    with pytest.raises(SchemaError):
        Attribute("not a name")
    with pytest.raises(SchemaError):
        Attribute("")


def test_relation_schema_rejects_duplicates():
    with pytest.raises(SchemaError):
        RelationSchema("R", (Attribute.categorical("a"), Attribute.continuous("a")))


def test_relation_schema_rejects_empty():
    with pytest.raises(SchemaError):
        RelationSchema("R", ())


def test_relation_schema_lookup():
    schema = RelationSchema("R", (Attribute.categorical("a"), Attribute.continuous("b")))
    assert schema.attribute("b").kind is AttributeKind.CONTINUOUS
    assert "a" in schema
    assert "z" not in schema
    with pytest.raises(SchemaError):
        schema.attribute("z")


def test_database_schema_rejects_kind_conflicts():
    r1 = RelationSchema("R1", (Attribute.categorical("x"),))
    r2 = RelationSchema("R2", (Attribute.continuous("x"),))
    with pytest.raises(SchemaError):
        DatabaseSchema([r1, r2])


def test_database_schema_rejects_duplicate_relations():
    r = RelationSchema("R", (Attribute.categorical("x"),))
    with pytest.raises(SchemaError):
        DatabaseSchema([r, r])


def test_database_schema_shared_attributes():
    r1 = RelationSchema("R1", (Attribute.categorical("x"), Attribute.categorical("y")))
    r2 = RelationSchema("R2", (Attribute.categorical("y"), Attribute.categorical("z")))
    schema = DatabaseSchema([r1, r2])
    assert schema.shared_attributes("R1", "R2") == ("y",)
    assert schema.relations_with("y") == ("R1", "R2")
    assert schema.attribute_kind("z") is AttributeKind.CATEGORICAL
    with pytest.raises(SchemaError):
        schema.attribute_kind("nope")
    with pytest.raises(SchemaError):
        schema.relation("nope")


def test_database_schema_all_attributes_order():
    r1 = RelationSchema("R1", (Attribute.categorical("b"), Attribute.categorical("a")))
    r2 = RelationSchema("R2", (Attribute.categorical("a"), Attribute.categorical("c")))
    schema = DatabaseSchema([r1, r2])
    assert schema.all_attributes == ("b", "a", "c")


def _chain_schema() -> DatabaseSchema:
    return DatabaseSchema([
        RelationSchema("A", (Attribute.categorical("x"),)),
        RelationSchema("B", (Attribute.categorical("x"), Attribute.continuous("y"))),
        RelationSchema("C", (Attribute.continuous("y"), Attribute.categorical("z"))),
    ])


@pytest.mark.parametrize(
    "schema",
    [
        pytest.param(lambda: favorita(scale=0.01, seed=1).schema, id="favorita"),
        pytest.param(lambda: retailer(scale=0.01, seed=1).schema, id="retailer"),
        pytest.param(_chain_schema, id="chain"),
    ],
)
def test_precomputed_lookups_match_the_scans(schema):
    # the holder map and the cached names answer what a scan over the
    # declared relations and attributes would, in the same order
    schema = schema()
    for rel in schema.relations:
        assert rel.attribute_names == tuple(a.name for a in rel.attributes)
    for name in schema.all_attributes + ("no_such_attribute",):
        assert schema.relations_with(name) == tuple(
            rel.name for rel in schema.relations
            if any(a.name == name for a in rel.attributes)
        )
        for rel in schema.relations:
            assert (name in rel) == any(a.name == name for a in rel.attributes)
