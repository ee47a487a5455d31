"""LMFAO's three optimisation layers and the execution engine."""

from repro.core import costmodel, lowering
from repro.core.codegen import CompiledGroup, generate_group
from repro.core.decompose import decompose_group
from repro.core.engine import (
    CompiledBatch,
    EngineConfig,
    LMFAO,
    RunResult,
)
from repro.core.groups import Group, GroupPlan, build_groups
from repro.core.orders import GroupOrder, order_group
from repro.core.plan import MultiOutputPlan
from repro.core.snapshot import Snapshot, SnapshotStore
from repro.core.viewgen import ViewGenerator, ViewPlan
from repro.core.views import AggRef, Output, View, ViewAggregate

__all__ = [
    "AggRef",
    "CompiledBatch",
    "CompiledGroup",
    "EngineConfig",
    "Group",
    "GroupOrder",
    "GroupPlan",
    "LMFAO",
    "MultiOutputPlan",
    "Output",
    "RunResult",
    "Snapshot",
    "SnapshotStore",
    "View",
    "ViewAggregate",
    "ViewGenerator",
    "ViewPlan",
    "build_groups",
    "costmodel",
    "decompose_group",
    "generate_group",
    "lowering",
    "order_group",
]
