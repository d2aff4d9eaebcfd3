"""Benchmark of barrelmesh experiment plans through the CLI's public path.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports barrelmesh from
`src/` there. A run builds its workload's plan with `--seed` as the plan's
base_seed, then repeats passes over that plan, back to back from one caller,
for about `--seconds` seconds:

- serial: `cli.execute_cell` per cell, then `cli.write_outputs`;
- traced (`--trace 1` only): the same, with every layer call recorded as a
  span (see spans.py);
- parallel (`--trace 1` only): `cli.run_matrix(plan, workers=min(2, nproc))`.

Serial and traced steps are timed in seconds on an idle core (see speed.py).
Every pass writes the full output tree. All passes must agree byte for byte,
and the outputs must match the digests pinned in pins.json; a mismatch marks
the whole run failed and the command exits 1. With `--trace 0` the result
holds the end-to-end metrics, with `--trace 1` the per-layer ones. The last
line of stdout is the result as one JSON object; the lines before it name
every metric with its unit and sample count, and the machine it ran on.
`--smoke` shrinks every workload to a fraction of a second of simulated
time; `--length N` runs N seeds per plan instead of the workload's default.
README.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

from spans import Recorder
from speed import SpeedSampler, speed_scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

WORKLOADS = ("paper", "saturation", "corridor")
# Seeds per plan for paper: enough cells per pass to damp seed-to-seed
# variation, few enough for several passes in one run.
PAPER_SEEDS = 2
CORRIDOR_BARRELS = 300
CORRIDOR_SPACING_M = 12.0
SMOKE_SIM_S = {"paper": 1.0, "saturation": 0.1, "corridor": 0.2}
# The correctness probe runs the workload's first cell at this seed, which
# pins.json covers whatever --seed a run was given.
PROBE_SEED = 0
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "pkts_per_s": "pkt/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "sim_engine.run.self_s": "s",
    "sim_engine.run.cell_share": "ratio",
    "sim_engine.events": "count",
    "sim_engine.events_per_pkt": "events/pkt",
    "sim_engine.us_per_event": "us",
    "sim_engine.frames": "count",
    "sim_engine.frames_per_delivery": "frames/pkt",
    "sim_engine.requeue_per_frame": "events/frame",
    "sim_engine.pdr_pct": "%",
    "sim_engine.max_hops": "hops",
    "topology.build_layout.calls": "count",
    "topology.build_layout.self_s": "s",
    "relay_selection.select.calls": "count",
    "relay_selection.select.self_s": "s",
    "relay_selection.relays_mean": "relays",
    "cli.materialize.self_s": "s",
    "cli.relay_budget.calls": "count",
    "cli.write_outputs.self_s": "s",
    "cli.write_outputs.files": "count",
    "cli.write_outputs.bytes": "B",
    "metrics.summarize.self_s": "s",
    "metrics.write_node_csv.self_s": "s",
    "cli.parallel.wall_s": "s",
    "cli.parallel.efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}


def build_plans(workload: str, seed: int, length=None, smoke: bool = False):
    """The workload's plan at base_seed `seed`, and its correctness probe."""
    from barrelmesh.cli import EXPERIMENT_PRESETS
    from barrelmesh.topology import LayoutSpec, Segment

    paper = EXPERIMENT_PRESETS["paper"]
    if workload == "paper":
        plan = replace(paper, n_seeds=PAPER_SEEDS)
    elif workload == "saturation":
        plan = replace(
            paper, algorithms=("crns",), rates_pps=(64.0, 256.0), n_seeds=1, sim_time_s=2.0
        )
    elif workload == "corridor":
        row = Segment("work", (CORRIDOR_BARRELS - 1) * CORRIDOR_SPACING_M, CORRIDOR_SPACING_M)
        plan = replace(
            paper,
            layout=LayoutSpec(segments=(row,)),
            algorithms=("crns",),
            rates_pps=(1.0,),
            n_seeds=1,
            sim_time_s=2.0,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        plan = replace(plan, n_seeds=1, sim_time_s=SMOKE_SIM_S[workload])
    if length is not None:
        plan = replace(plan, n_seeds=length)
    probe = replace(
        plan,
        algorithms=plan.algorithms[:1],
        rates_pps=plan.rates_pps[:1],
        n_seeds=1,
        base_seed=PROBE_SEED,
    )
    return replace(plan, base_seed=seed), probe


def variant(workload: str, smoke: bool) -> str:
    """Key of the workload's entry in pins.json."""
    return f"{workload}-smoke" if smoke else workload


# Runs in a fresh interpreter: argv is src, bench dir, workload, seed,
# length ('' for the default), smoke flag. Prints the set-up seconds, then
# the kernel seconds measured around them.
_SETUP_SCRIPT = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import run, speed
kernel_s = [speed.calibrate() for _ in range(5)]
t0 = time.perf_counter()
import barrelmesh.cli
run.build_plans(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]) if sys.argv[5] else None, sys.argv[6] == '1')
took = time.perf_counter() - t0
print(took, *kernel_s, *[speed.calibrate() for _ in range(5)])
"""


def setup_times(args) -> tuple[list[float], list[float]]:
    """Seconds to import barrelmesh and build every plan, once per fresh
    process, and the kernel seconds measured around them."""
    argv = [
        sys.executable, "-c", _SETUP_SCRIPT, str(SRC), str(BENCH_DIR), args.workload,
        str(args.seed), "" if args.length is None else str(args.length), str(int(args.smoke)),
    ]
    times, kernel_s = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        took, *kernels = map(float, done.stdout.split())
        times.append(took)
        kernel_s += kernels
    return times, kernel_s


def import_cli():
    sys.path.insert(0, str(SRC))
    import barrelmesh.cli as cli

    where = Path(cli.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"barrelmesh imported from {where}, not from {SRC}")
    return cli


def cell_jobs(plan) -> list[tuple]:
    """The plan's cells in run_matrix order."""
    return [
        (plan, algorithm, rate, plan.base_seed + i, False)
        for algorithm in plan.algorithms
        for rate in plan.rates_pps
        for i in range(plan.n_seeds)
    ]


def _sha(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def digest_tree(out: Path) -> dict:
    """Digests of one output tree; `runs` is `cat runs/*.csv | sha256sum`."""
    runs = sorted((out / "runs").glob("*.csv"))
    files = [p for p in out.rglob("*") if p.is_file()]
    return {
        "outputs": {
            "summary.csv": _sha([out / "summary.csv"]),
            "comparison.csv": _sha([out / "comparison.csv"]),
            "runs": _sha(runs),
            "plotdata": _sha(sorted((out / "plotdata").glob("*.csv"))),
        },
        "run_files": {p.stem: _sha([p]) for p in runs},
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
    }


def _result_stats(results) -> dict:
    sims = [result for _, _, _, result in results]
    return {
        "sent": sum(sum(r.app_sent) for r in sims),
        "delivered": sum(sum(r.delivered_by_source) for r in sims),
        "frames": sum(sum(r.net_transmissions) for r in sims),
        "events": sum(r.processed_events for r in sims),
        "max_hops": max((r.max_hops for r in sims), default=0),
        "relays": [len(r.relays) for r in sims],
    }


def _finish_pass(record: dict, results, out: Path, written: bool) -> dict:
    record.update(_result_stats(results))
    try:
        record["tree"] = digest_tree(out) if written else None
    except OSError:
        traceback.print_exc()
        record["tree"] = None
    shutil.rmtree(out, ignore_errors=True)
    return record


def serial_pass(cli, plan, out: Path, clock, recorder=None) -> dict:
    """execute_cell per cell, then write_outputs, timed with `clock`.

    steps holds the (start, end) of every cell and of the write.
    """

    def call(name, fn, *args):
        return recorder.call(name, fn, *args) if recorder else fn(*args)

    jobs = cell_jobs(plan)
    results, steps, raised = [], [], 0
    for cell, job in enumerate(jobs):
        if recorder:
            recorder.cell = cell
        t0 = clock()
        try:
            results.append(call("cli.execute_cell", cli.execute_cell, job))
        except Exception:
            traceback.print_exc()
            raised += 1
        steps.append((t0, clock()))
    if recorder:
        recorder.cell = None
    t0 = clock()
    try:
        cells_s = sum(end - start for start, end in steps)
        call("cli.write_outputs", cli.write_outputs, plan, results, out, cells_s, 1)
        written = True
    except Exception:
        traceback.print_exc()
        written = False
    steps.append((t0, clock()))
    step_s = [end - start for start, end in steps]
    record = {
        "wall_s": sum(step_s),
        "cell_s": step_s[:-1],
        "write_s": step_s[-1],
        "steps": steps,
        "cells": len(jobs),
        "raised": raised,
    }
    return _finish_pass(record, results, out, written)


def parallel_pass(cli, plan, out: Path, workers: int) -> dict:
    """run_matrix with a worker pool; its outputs are written untimed.

    Not scaled: two workers on two cores are slowed differently from the
    one process the kernel runs in, and scaling made its spread worse.
    """
    cells = len(cell_jobs(plan))
    t0 = time.perf_counter()
    try:
        results = cli.run_matrix(plan, workers=workers)
    except Exception:
        traceback.print_exc()
        return {"wall_s": None, "cells": cells, "raised": cells, "tree": None,
                **_result_stats([])}
    wall = time.perf_counter() - t0
    try:
        cli.write_outputs(plan, results, out, wall, workers)
        written = True
    except Exception:
        traceback.print_exc()
        written = False
    record = {"wall_s": wall, "cells": cells, "raised": 0}
    return _finish_pass(record, results, out, written)


def _scaled(record: dict, sampler) -> dict:
    """Add each step's speed scale, and the pass time they give."""
    record["scales"] = [sampler.scale(start, end) for start, end in record["steps"]]
    step_s = record["cell_s"] + [record["write_s"]]
    record["scaled_wall_s"] = sum(t * k for t, k in zip(step_s, record["scales"]))
    return record


def measure(cli, plan, seconds: float, trace: bool, workers: int, work: Path, sampler):
    """Cycle through the pass kinds until about `seconds` have passed.

    The run stops at the cycle boundary nearest to `seconds`, after at least
    one cycle, so every kind gets the same number of passes. `sampler` samples
    the machine's speed during the serial and traced passes, which gives each
    of their steps its own scale (see speed.py).
    """
    kinds = ("serial", "traced", "parallel") if trace else ("serial",)
    passes = {kind: [] for kind in kinds}
    recorders = []
    started = time.perf_counter()
    cycles = 0
    while True:
        for kind in kinds:
            out = work / f"{kind}-{cycles}"
            if kind == "parallel":
                record = parallel_pass(cli, plan, out, workers)
            elif kind == "traced":
                recorder = Recorder(sampler.clock)
                with sampler, recorder.installed(cli):
                    record = serial_pass(cli, plan, out, sampler.clock, recorder)
                    record = _scaled(record, sampler)
                record["layers"] = recorder.layers(record["scales"])
                recorders.append(recorder)
            else:
                with sampler:
                    record = _scaled(serial_pass(cli, plan, out, sampler.clock), sampler)
            passes[kind].append(record)
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / cycles / 2 >= seconds:
            return passes, recorders


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text())
    except FileNotFoundError:
        return {}


def check_pins(pins: dict, key: str, plan, tree) -> tuple[list[str], int, bool]:
    """Compare one output tree with pins.json.

    Whole trees are pinned for the workload's own plans, by seeds per plan
    and base seed; pass plan=None to check the run files alone. Returns the
    mismatches, the number of run files that had a pin, and whether the
    whole tree had one. A pin may be a digest prefix.
    """
    if tree is None:
        return ["no output tree to check"], 0, False
    entry = pins.get(key, {})
    problems, pinned_files = [], 0
    for name, digest in tree["run_files"].items():
        want = entry.get("runs", {}).get(name)
        if want is None:
            continue
        pinned_files += 1
        if not digest.startswith(want):
            problems.append(f"runs/{name}.csv differs from its pin")
    outputs = None
    if plan is not None:
        outputs = entry.get("outputs", {}).get(str(plan.n_seeds), {}).get(str(plan.base_seed))
    for name, want in (outputs or {}).items():
        if not tree["outputs"][name].startswith(want):
            problems.append(f"{name} differs from its pin")
    return problems, pinned_files, outputs is not None


def check_outputs(passes: dict, probe: dict, pins: dict, key: str, plan):
    """Every pass agrees with serial pass 0, which agrees with the pins."""
    ref = passes["serial"][0]["tree"]
    problems = []
    for kind, records in passes.items():
        for i, record in enumerate(records):
            tree = record["tree"]
            if ref is None or tree is None or tree["outputs"] != ref["outputs"]:
                problems.append(f"{kind} pass {i} output differs from serial pass 0")
    pin_problems, pinned_files, pinned_outputs = check_pins(pins, key, plan, ref)
    probe_problems, probe_files, _ = check_pins(pins, key, None, probe["tree"])
    if not probe_problems and probe_files == 0:
        probe_problems = [f"pins.json has no pin for the {key} probe"]
    problems += pin_problems + [f"probe: {p}" for p in probe_problems]
    return problems, {
        "pinned_run_files": pinned_files,
        "pinned_outputs": pinned_outputs,
        "outputs_sha256": ref["outputs"] if ref else None,
    }


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(serial: list[dict], setup) -> dict:
    """Scaled timings built from per-step medians over the serial passes."""
    scaled = [[t * k for t, k in zip(p["cell_s"], p["scales"])] for p in serial]
    cells = [statistics.median(times) for times in zip(*scaled)]
    write = statistics.median(p["write_s"] * p["scales"][-1] for p in serial)
    samples = len(cells) * len(serial)
    cell_ms = [t * 1000.0 for t in cells]
    setup_s, setup_kernel_s = setup
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(cells) + write, samples + len(serial)),
        "pkts_per_s": (serial[0]["sent"] / sum(cells), samples),
        "cell_ms_p50": (percentile(cell_ms, 50), samples),
        "cell_ms_p90": (percentile(cell_ms, 90), samples),
        "setup_s": (statistics.median(setup_s) * speed_scale(setup_kernel_s), len(setup_s)),
        "peak_rss_mb": (rss_kib / 1024.0, 1),
    }


def per_layer(passes: dict, workers: int) -> dict:
    """Self times are scaled; the parallel figures are raw."""
    traced, serial, parallel = passes["traced"], passes["serial"], passes["parallel"]
    n = len(traced)

    def self_s(layer):
        return _median(p["layers"].get(layer, {}).get("self_s", 0.0) for p in traced), n

    def calls(layer):
        return traced[0]["layers"].get(layer, {}).get("calls", 0), 1

    first = traced[0]
    events, frames, sent = first["events"], first["frames"], first["sent"]
    run_s = self_s("sim_engine.run")[0]
    share = _median(
        p["layers"]["sim_engine.run"]["self_s"] / p["layers"]["cli.execute_cell"]["total_s"]
        for p in traced
        if "sim_engine.run" in p["layers"]
    )
    serial_cells_s = _median(sum(p["cell_s"]) for p in serial)
    parallel_s = _median(p["wall_s"] for p in parallel)
    serial_wall = _median(p["scaled_wall_s"] for p in serial)
    tree = first["tree"] or {"files": 0, "bytes": 0}
    relays = first["relays"]
    return {
        "sim_engine.run.self_s": (run_s, n),
        "sim_engine.run.cell_share": (share, n),
        "sim_engine.events": (events, 1),
        "sim_engine.events_per_pkt": (events / sent if sent else 0.0, 1),
        "sim_engine.us_per_event": (1e6 * run_s / events if events else 0.0, n),
        "sim_engine.frames": (frames, 1),
        "sim_engine.frames_per_delivery": (
            frames / first["delivered"] if first["delivered"] else 0.0, 1
        ),
        "sim_engine.requeue_per_frame": (
            (events - sent - 2 * frames) / frames if frames else 0.0, 1
        ),
        "sim_engine.pdr_pct": (100.0 * first["delivered"] / sent if sent else 0.0, 1),
        "sim_engine.max_hops": (first["max_hops"], 1),
        "topology.build_layout.calls": calls("topology.build_layout"),
        "topology.build_layout.self_s": self_s("topology.build_layout"),
        "relay_selection.select.calls": calls("relay_selection.select"),
        "relay_selection.select.self_s": self_s("relay_selection.select"),
        "relay_selection.relays_mean": (statistics.fmean(relays) if relays else 0.0, 1),
        "cli.materialize.self_s": self_s("cli.materialize"),
        "cli.relay_budget.calls": calls("cli.relay_budget"),
        "cli.write_outputs.self_s": self_s("cli.write_outputs"),
        "cli.write_outputs.files": (tree["files"], 1),
        "cli.write_outputs.bytes": (tree["bytes"], 1),
        "metrics.summarize.self_s": self_s("metrics.summarize"),
        "metrics.write_node_csv.self_s": self_s("metrics.write_node_csv"),
        "cli.parallel.wall_s": (parallel_s, len(parallel)),
        "cli.parallel.efficiency": (
            serial_cells_s / (workers * parallel_s) if parallel_s else 0.0, len(parallel)
        ),
        "trace.overhead_frac": (
            _median(p["scaled_wall_s"] for p in traced) / serial_wall - 1.0
            if serial_wall
            else 0.0,
            n,
        ),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="barrelmesh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="the plan's base_seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--length", type=int, help="seeds per plan (default: the workload's)")
    parser.add_argument("--smoke", action="store_true", help="tiny simulated time, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or (args.length is not None and args.length < 1):
        parser.error("--seed and --seconds must be >= 0 and --length >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "barrelmesh" / "__init__.py").is_file():
        print(f"error: no barrelmesh sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        cli = import_cli()
        setup = ([], []) if args.trace else setup_times(args)
    except (ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: cannot set up barrelmesh: {exc}", file=sys.stderr)
        return 2
    plan, probe_plan = build_plans(args.workload, args.seed, args.length, args.smoke)
    key = variant(args.workload, args.smoke)
    workers = min(2, nproc())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        sampler = SpeedSampler()
        passes, recorders = measure(
            cli, plan, args.seconds, bool(args.trace), workers, work, sampler
        )
        probe = serial_pass(cli, probe_plan, work / "probe", time.perf_counter)
    problems, checked = check_outputs(passes, probe, load_pins(), key, plan)

    records = [p for kind in passes.values() for p in kind] + [probe]
    attempted = sum(p["cells"] for p in records)
    failed = attempted if problems else sum(p["raised"] for p in records)
    if args.trace:
        metrics, units = per_layer(passes, workers), PER_LAYER_UNITS
        spans = [recorder.as_records() for recorder in recorders]
        (OUT / f"spans-{key}-{args.seed}.json").write_text(json.dumps(spans) + "\n")
    else:
        metrics, units = end_to_end(passes["serial"], setup), END_TO_END_UNITS

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds_per_plan": plan.n_seeds,
        "cells_per_pass": len(cell_jobs(plan)),
        "smoke": args.smoke,
        "trace": args.trace,
        "passes": {kind: len(records) for kind, records in passes.items()},
        "workers": workers,
        "nproc": nproc(),
        "python": sys.version,
        "platform": platform.platform(),
        "commit": git_commit(),
        "failed_frac": failed / attempted,
        **checked,
        "speed_scale": _median(k for p in passes["serial"] for k in p["scales"]),
        "raw_serial_wall_s": _median(p["wall_s"] for p in passes["serial"]),
        "samples": {name: n for name, (_, n) in metrics.items()},
    }
    print(json.dumps({"info": info}))
    for name, (value, n) in metrics.items():
        print(f"{name} = {value!r} {units[name]} (n={n})")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
