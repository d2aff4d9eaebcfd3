#!/usr/bin/env python3
"""Run the shipped experiment matrix and summarize the headline comparisons.

Executes all four relay strategies at 1 and 4 pkt/s over 20 seeds on the
default work-zone layout, writes the usual output tree (per-run node CSVs,
summary.csv, comparison.csv, plotdata/), and prints the mean PDR, relay-load
CV, and relay current per cell so the table can be eyeballed without opening
the files.

Usage:
  python3 scripts/run_full_matrix.py --out results/ [--seeds 20] [--workers 4]
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from barrelmesh.cli import EXPERIMENT_PRESETS, run_matrix, write_outputs
from barrelmesh.metrics import cell_stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--preset", default="paper", choices=sorted(EXPERIMENT_PRESETS))
    args = parser.parse_args()

    plan = replace(EXPERIMENT_PRESETS[args.preset], n_seeds=args.seeds)
    started = time.perf_counter()
    results = run_matrix(plan, workers=args.workers)
    elapsed = time.perf_counter() - started
    write_outputs(plan, results, args.out, elapsed, args.workers)

    cells = cell_stats(results, plan.power)
    print(f"{len(results)} runs in {elapsed:.1f}s -> {args.out}/")
    header = f"{'strategy':8s} {'rate':>4s} {'pdr%':>6s} {'load cv':>8s} {'relay mA':>9s}"
    print(header)
    for rate in plan.rates_pps:
        for algorithm in plan.algorithms:
            cell = cells[algorithm, rate]
            print(
                f"{algorithm:8s} {rate:4g} {cell.pdr_mean:6.2f} "
                f"{cell.cv_mean:8.3f} {cell.relay_current_ma:9.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
