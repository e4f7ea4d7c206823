#!/usr/bin/env python3
"""SoC memory partitioning: the Section V-B case study, interactively.

Given 1 MB of spare SRAM, should it go to the accelerators' private
scratchpads or to the shared L2?  Runs ResNet-50 on single- and dual-core
SoCs under the three Figure 9 configurations and prints per-layer-type
speedups — the dual-core runs execute concurrently, contending for the
shared L2 and DRAM channel: one event loop steps whichever core's dispatch
clock is furthest behind.
"""

import argparse

from repro.eval.experiments import FIG9_CONFIGS, run_fig9
from repro.eval.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input-hw", type=int, default=112,
                        help="CNN input resolution (224 = paper scale)")
    args = parser.parse_args()

    print("configurations (per core | shared):")
    for name, (sp, acc, l2) in FIG9_CONFIGS.items():
        print(f"  {name:6s} scratchpad {sp >> 10}KB, accumulator {acc >> 10}KB"
              f" | L2 {l2 >> 20}MB")

    result = run_fig9(input_hw=args.input_hw)

    rows = []
    for run in result.runs:
        rows.append(
            (
                run.config_name,
                run.cores,
                f"{run.total_cycles / 1e6:.2f}M",
                f"{result.speedup(run.config_name, run.cores):.3f}",
                f"{result.speedup(run.config_name, run.cores, 'conv'):.3f}",
                f"{result.speedup(run.config_name, run.cores, 'resadd'):.3f}",
                f"{run.l2_miss_rate:.3f}",
            )
        )
    print()
    print(
        format_table(
            ["config", "cores", "cycles", "overall", "conv", "resadd", "L2 miss"],
            rows,
            title=f"ResNet-50 @{args.input_hw}px, normalized to Base per core count",
        )
    )
    print(
        "\nThe dual-core story: two ResNet-50 processes evict each other's"
        "\nresidual-addition inputs from the shared L2; growing the L2"
        "\n(BigL2) relieves that contention, while growing the scratchpads"
        "\n(BigSP) mostly helps the compute-bound convolutions."
    )


if __name__ == "__main__":
    main()
