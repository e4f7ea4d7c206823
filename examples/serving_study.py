"""Two-tenant interference study, in the spirit of the paper's Fig. 9c.

The paper's dual-controller experiment runs two ResNet50s to completion and
watches the shared L2/DRAM slow both down.  Here the same SoC machinery is
driven by *traffic*: each tenant is a Poisson request stream pinned to its
own tile, so any latency inflation in the co-located run comes purely from
shared-memory contention (no cross-tenant queueing); an L2-capacity sweep
then shows how much of the tail a bigger cache can buy back.

SoCs are declared as a ``SoCDesign``: ``tiles=`` lists ``TileComponent``
entries (each tile class with its own accelerator config and replication
count), ``mem=`` is the one ``MemorySystemConfig`` (bus, L2, DRAM) they all
share, and ``simulate_serving(..., design=...)`` serves traffic on it.

Run:  PYTHONPATH=src python examples/serving_study.py
      REPRO_FAST=1 shrinks the workload for smoke runs.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

from repro.eval.report import format_table
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import MemorySystemConfig
from repro.serve import TenantSpec, TrafficProfile, simulate_serving
from repro.soc import SoCDesign, TileComponent

FAST = bool(int(os.environ.get("REPRO_FAST", "0")))
SEED = 0
RATE_QPS = 150.0

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument(
    "--input-hw", type=int, default=32 if FAST else 64, help="CNN input resolution"
)
parser.add_argument(
    "--requests", type=int, default=4 if FAST else 8, help="requests per tenant"
)
ARGS = parser.parse_args()
REQUESTS = ARGS.requests
INPUT_HW = ARGS.input_hw

TENANT_A = TenantSpec(
    name="teamA",
    model="squeezenet",
    arrival="poisson",
    rate_qps=RATE_QPS,
    num_requests=REQUESTS,
    input_hw=INPUT_HW,
    slo_ms=15.0,
    pin_tile=0,
)
TENANT_B = TenantSpec(
    name="teamB",
    model="mobilenetv2",
    arrival="poisson",
    rate_qps=RATE_QPS,
    num_requests=REQUESTS,
    input_hw=INPUT_HW,
    slo_ms=15.0,
    pin_tile=1,
)


def design_with_l2(l2: CacheConfig, num_tiles: int) -> SoCDesign:
    """A homogeneous design: one tile class around a shared L2 + DRAM."""
    return SoCDesign(
        tiles=(TileComponent(count=num_tiles),),
        mem=MemorySystemConfig(l2=l2),
        name=f"l2-{l2.size_bytes >> 20}mb-x{num_tiles}",
    )


L2_CONFIGS = {
    "Base (1 MB L2)": CacheConfig(size_bytes=1 << 20, ways=8),
    "BigL2 (2 MB L2)": CacheConfig(size_bytes=2 << 20, ways=8),
}


def isolated_p99(tenant: TenantSpec, l2: CacheConfig) -> float:
    """One tenant alone on a single-tile SoC: no contention, no cross-queueing."""
    profile = TrafficProfile(
        tenants=(replace(tenant, pin_tile=0),), num_tiles=1, seed=SEED
    )
    result = simulate_serving(profile, design=design_with_l2(l2, num_tiles=1))
    return result.report.tenant(tenant.name).p99_ms


def main() -> None:
    rows = []
    for mem_name, l2 in L2_CONFIGS.items():
        iso_a = isolated_p99(TENANT_A, l2)
        iso_b = isolated_p99(TENANT_B, l2)
        co = simulate_serving(
            TrafficProfile(tenants=(TENANT_A, TENANT_B), num_tiles=2, seed=SEED),
            design=design_with_l2(l2, num_tiles=2),
        )
        co_a = co.report.tenant(TENANT_A.name).p99_ms
        co_b = co.report.tenant(TENANT_B.name).p99_ms
        rows.append(
            (
                mem_name,
                f"{iso_a:.2f}",
                f"{co_a:.2f}",
                f"{co_a / iso_a:.2f}x",
                f"{iso_b:.2f}",
                f"{co_b:.2f}",
                f"{co_b / iso_b:.2f}x",
                f"{co.l2_miss_rate:.1%}",
            )
        )
    print(
        format_table(
            [
                "memory system",
                "A alone p99",
                "A co-loc p99",
                "A inflation",
                "B alone p99",
                "B co-loc p99",
                "B inflation",
                "L2 miss",
            ],
            rows,
            title=(
                f"tail-latency interference: pinned tenants, Poisson {RATE_QPS:.0f} QPS "
                f"each, seed {SEED} (latencies in ms)"
            ),
        )
    )
    print(
        "\nEach tenant owns a tile, so its queue never mixes with the other's —\n"
        "the p99 inflation above is pure shared-L2/DRAM contention (the Fig. 9c\n"
        "mechanism, traffic-driven).  The L2 sweep shows how much of the tail a\n"
        "bigger cache buys back at this working-set size: watch the miss rate."
    )

    # -- heterogeneous coda: big/little fleet under open traffic ----------- #
    from repro.core.config import default_config

    big_little = SoCDesign(
        tiles=(
            TileComponent(gemmini=default_config().with_geometry(32, 1), name="big"),
            TileComponent(gemmini=default_config().with_geometry(8, 1), name="little"),
        ),
        mem=MemorySystemConfig(l2=L2_CONFIGS["Base (1 MB L2)"]),
        name="big-little",
    )
    mixed = simulate_serving(
        TrafficProfile(
            tenants=(
                replace(TENANT_A, pin_tile=None),
                replace(TENANT_B, pin_tile=None),
            ),
            num_tiles=2,
            scheduler="sjf",
            seed=SEED,
        ),
        design=big_little,
    )
    print(
        f"\nbig/little ({big_little.describe()}):\n"
        f"SJF on per-tile cost estimates serves the same traffic at "
        f"p99 {mixed.report.overall.p99_ms:.2f} ms, "
        f"goodput {mixed.report.overall.goodput_qps:.1f} QPS "
        f"({mixed.replayed} trace-replayed)."
    )


if __name__ == "__main__":
    main()
