"""LMFAO — an engine for batches of group-by aggregates.

Reproduction of: M. Schleich and D. Olteanu, "LMFAO: An Engine for Batches
of Group-By Aggregates", PVLDB 13(12), 2020 (demonstration of the layered
aggregate engine introduced at SIGMOD 2019).

Quick start::

    from repro import LMFAO, favorita, parse_query, QueryBatch

    db = favorita(scale=0.1)
    engine = LMFAO(db)
    batch = QueryBatch([
        parse_query("SELECT SUM(units) FROM D", "Q1"),
        parse_query("SELECT store, SUM(units) FROM D GROUP BY store", "Q2"),
    ])
    result = engine.run(batch)
    print(result["Q1"].scalar())

See ``examples/`` for the three demonstrated applications: ridge linear
regression, CART regression trees, and Rk-means clustering.
"""

from repro.baselines import MaterializedPipeline, SqlEngineBaseline
from repro.core import CompiledBatch, EngineConfig, LMFAO, RunResult, Snapshot
from repro.incremental import ApplyResult, MaintainedBatch, RelationDelta
from repro.serve import AggregateServer, ServerStats
from repro.util.errors import WriteOverloadError
from repro.data import (
    Attribute,
    AttributeKind,
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
    TrieIndex,
    favorita,
    retailer,
)
from repro.jointree import JoinTree, assign_roots, build_join_tree
from repro.ml import (
    CartConfig,
    FeatureSpec,
    IncrementalLinearRegression,
    RegressionTree,
    favorita_features,
    retailer_features,
    rk_means,
    train_linear_regression,
    weighted_kmeans,
)
from repro.query import (
    Aggregate,
    Factor,
    Function,
    FunctionRegistry,
    Op,
    Predicate,
    Query,
    QueryBatch,
    parse_query,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "AggregateServer",
    "ApplyResult",
    "Attribute",
    "AttributeKind",
    "CartConfig",
    "CompiledBatch",
    "Database",
    "DatabaseSchema",
    "EngineConfig",
    "Factor",
    "FeatureSpec",
    "Function",
    "FunctionRegistry",
    "IncrementalLinearRegression",
    "JoinTree",
    "LMFAO",
    "MaintainedBatch",
    "MaterializedPipeline",
    "Op",
    "Predicate",
    "Query",
    "QueryBatch",
    "RegressionTree",
    "Relation",
    "RelationDelta",
    "RelationSchema",
    "RunResult",
    "ServerStats",
    "Snapshot",
    "SqlEngineBaseline",
    "TrieIndex",
    "WriteOverloadError",
    "assign_roots",
    "build_join_tree",
    "favorita",
    "favorita_features",
    "parse_query",
    "retailer",
    "retailer_features",
    "rk_means",
    "train_linear_regression",
    "weighted_kmeans",
]
