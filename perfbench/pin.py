"""Regenerate pins.json, the output digests the benchmark checks against.

    python3 perfbench/pin.py

Run from the root of a checkout whose outputs are known to be right: the
digests are taken from whatever the code produces. For every workload, and
its --smoke size, it pins

- every run file (`runs/<algo>_<rate>_<seed>.csv`) for the seeds in
  PIN_SEEDS, which also covers the correctness probe at run.PROBE_SEED;
- summary.csv, comparison.csv, plotdata and `cat runs/*.csv` for each base
  seed whose default-length plan stays inside PIN_SEEDS;
- for paper, the full preset at seed 1000 with 20 seeds (the golden matrix).

It prints the golden digests so they can be compared with ROADMAP.md.
"""
from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import run as bench

PIN_SEEDS = frozenset([*range(0, 65), *range(1000, 1020)])
PREFIX = 16  # hex digits kept per pin, except the golden matrix's
GOLDEN = ("paper", 20, 1000)
WORKERS = 2
BATCH = 8  # base seeds simulated per pool round; bounds memory


def pin_outputs(cli, pool, plans, out: Path) -> list[dict]:
    """Digest trees of several plans, simulated together on the pool."""
    jobs = [job for plan in plans for job in bench.cell_jobs(plan)]
    results = list(pool.map(cli.execute_cell, jobs))
    trees = []
    for i, plan in enumerate(plans):
        cells = len(bench.cell_jobs(plan))
        mine, results = results[:cells], results[cells:]
        cli.write_outputs(plan, mine, out / str(i), 0.0, WORKERS)
        trees.append(bench.digest_tree(out / str(i)))
        shutil.rmtree(out / str(i))
    return trees


def pin_variant(cli, pool, workload: str, smoke: bool, out: Path) -> dict:
    plan, _ = bench.build_plans(workload, 0, None, smoke)
    length = plan.n_seeds
    bases = sorted(b for b in PIN_SEEDS if all(b + i in PIN_SEEDS for i in range(length)))
    runs, outputs = {}, {}
    for start in range(0, len(bases), BATCH):
        batch = bases[start : start + BATCH]
        plans = [replace(plan, base_seed=b) for b in batch]
        for base, tree in zip(batch, pin_outputs(cli, pool, plans, out)):
            runs.update({name: d[:PREFIX] for name, d in tree["run_files"].items()})
            outputs[str(base)] = {name: d[:PREFIX] for name, d in tree["outputs"].items()}
        print(f"{bench.variant(workload, smoke)}: base seeds up to {batch[-1]}", flush=True)
    entry = {"runs": dict(sorted(runs.items())), "outputs": {str(length): outputs}}
    if (workload, smoke) == (GOLDEN[0], False):
        _, n_seeds, seed = GOLDEN
        golden = bench.build_plans(workload, seed, n_seeds)[0]
        tree = pin_outputs(cli, pool, [golden], out)[0]
        entry["outputs"][str(n_seeds)] = {
            str(seed): {k: tree["outputs"][k] for k in ("summary.csv", "comparison.csv", "runs")}
        }
        print("golden:", json.dumps(entry["outputs"][str(n_seeds)], indent=2))
    return entry


def main() -> int:
    cli = bench.import_cli()
    bench.OUT.mkdir(exist_ok=True)
    pins = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        for workload in bench.WORKLOADS:
            for smoke in (False, True):
                with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
                    pins[bench.variant(workload, smoke)] = pin_variant(
                        cli, pool, workload, smoke, Path(tmp)
                    )
    bench.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
