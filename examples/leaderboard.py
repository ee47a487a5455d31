"""Leaderboards: top-k-per-group aggregates as first-class batch outputs.

"Top 5 items by inventory in every location" is the canonical serving
query behind dashboards and recommendation panels. With ordered
emissions (``Query.order_by`` / ``limit``) LMFAO computes such
leaderboards inside the same shared-scan batch as ordinary aggregates:
the factorised engine materialises the full grouped result once, and
the finishing seam ranks + truncates it per partition with a bounded
selection. The script also applies a delta that reshuffles one
location's leaderboard and shows the maintained handle tracking it.

Run:  python examples/leaderboard.py [scale]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import Aggregate, EngineConfig, LMFAO, Query, QueryBatch, retailer
from repro.query import OrderSpec


def leaderboard_batch(k: int = 5) -> QueryBatch:
    return QueryBatch(
        [
            Query(
                "top_items_per_location",
                group_by=("locn", "ksn"),
                aggregates=(
                    Aggregate.sum("inventoryunits"),
                    Aggregate.count(),
                ),
                order_by=OrderSpec(
                    agg_index=0, descending=True, partition_by=("locn",)
                ),
                limit=k,
            ),
            Query(
                "busiest_locations",
                group_by=("locn",),
                aggregates=(Aggregate.sum("inventoryunits"),),
                order_by=OrderSpec(agg_index=0, descending=True),
                limit=k,
            ),
            # an unordered query sharing the same scans and views
            Query(
                "inventory_by_zip",
                group_by=("zip",),
                aggregates=(Aggregate.sum("inventoryunits"),),
            ),
        ]
    )


def main(scale: float = 0.1) -> None:
    db = retailer(scale=scale, seed=7)
    batch = leaderboard_batch(k=5)
    engine = LMFAO(db, EngineConfig())

    start = time.perf_counter()
    run = engine.run(batch)
    seconds = time.perf_counter() - start
    topk = run["top_items_per_location"]
    print(
        f"Leaderboard batch over retailer (scale={scale}): "
        f"{db.total_tuples()} tuples, {run.compiled.num_views} views, "
        f"{seconds:.2f}s"
    )

    print("\nBusiest locations (top 5 by total inventory):")
    for key, values in run["busiest_locations"].ranked():
        print(f"  locn={key[0]:>4}  inventory={values[0]:>12.0f}")

    first_locn = next(iter(topk.groups))[0]
    print(f"\nTop items in locn={first_locn}:")
    for key, values in topk.topk(partition=(first_locn,)):
        print(f"  ksn={key[1]:>5}  inventory={values[0]:>10.0f}  rows={values[1]:.0f}")

    # ---- maintenance: a burst of stock for one item flips the board ------
    handle = engine.maintain(batch)
    challenger = topk.topk(partition=(first_locn,))[-1][0][1]
    boost = float(topk.topk(partition=(first_locn,))[0][1][0])
    handle.apply(
        inserts={
            "Inventory": {
                "locn": np.array([first_locn] * 3),
                "dateid": np.array([1, 2, 3]),
                "ksn": np.array([challenger] * 3),
                "inventoryunits": np.array([boost, boost, boost]),
            }
        }
    )
    refreshed = handle["top_items_per_location"]
    print(f"\nAfter restocking ksn={challenger}, top items in locn={first_locn}:")
    for key, values in refreshed.topk(partition=(first_locn,)):
        marker = "  <-- moved" if key[1] == challenger else ""
        print(
            f"  ksn={key[1]:>5}  inventory={values[0]:>10.0f}{marker}"
        )
    leader = refreshed.topk(partition=(first_locn,))[0][0][1]
    print(f"\nNew leader in locn={first_locn}: ksn={leader}")


if __name__ == "__main__":
    main(*(float(a) for a in sys.argv[1:]))
