"""Command-line front end.

Verbs:
  run       execute an experiment matrix (algorithms x rates x seeds) and
            write per-run, summary, comparison, and plot-ready CSVs
  select    compute one relay assignment and optionally save it
  validate  check a saved assignment for consistency and coverage
  presets   list the shipped layout and experiment presets

Experiment plans come from an INI file (--config) or a named preset
(--preset). Every CSV an experiment writes is a pure function of the plan,
so reruns are byte-identical; wall-clock information goes only into
metadata.json.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .metrics import PowerProfile, cell_stats, summarize, write_csv, write_node_csv
from .relay_selection import (
    RelayAssignment,
    all_relays,
    crns_select,
    knn_relays,
    load_assignment_csv,
    random_relays,
    save_assignment_csv,
    validate_assignment,
)
from .sim_engine import (
    EVENT_COLUMNS,
    ChannelConfig,
    ScenarioConfig,
    SimResult,
    SimulationError,
    check_config,
    run,
)
from .topology import (
    LAYOUT_PRESETS,
    LayoutSpec,
    Segment,
    Topology,
    barrel_chainages,
    build_layout,
    check_count,
    check_range,
    feet,
)

# Strategy name -> assignment for (topology, plan, seed). Entries look their
# functions up when called, so a rebound module name (a tracer, a test
# double) takes effect. The order is a plan's default algorithm order.
STRATEGIES = {
    "crns": lambda topo, plan, seed: crns_select(topo),
    "all": lambda topo, plan, seed: all_relays(topo),
    "random": lambda topo, plan, seed: random_relays(topo, relay_budget(plan), seed=seed),
    "knn": lambda topo, plan, seed: knn_relays(topo, relay_budget(plan), seed=seed),
}
ALGORITHMS = tuple(STRATEGIES)

# The most seeds a plan may run. run_matrix makes one job per run before the
# first run starts and write_outputs holds every result, about 7 KiB a run on
# the paper layout, so the matrix must fit in memory whole.
MAX_SEEDS = 10_000


class PlanError(ValueError):
    """Raised for malformed experiment plans."""


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything an experiment needs: geometry, matrix, radio, power. Made or
    replaced, it checks its values by the rules of the library that uses them."""

    layout: LayoutSpec
    algorithms: tuple[str, ...] = ALGORITHMS
    rates_pps: tuple[float, ...] = (1.0, 4.0)
    n_seeds: int = 20
    base_seed: int = 1000
    sim_time_s: float = 20.0
    ttl: int = 127
    range_r_m: float = 100.0
    # the everyone-forwards baseline is usually quoted with a hotter radio,
    # so its range is configured separately
    all_relays_range_m: float = 150.0
    # copies of each packet per barrel; None scales them with distance
    copies: Optional[int] = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    power: PowerProfile = field(default_factory=PowerProfile)
    # relay budget for the random and knn baselines; None matches whatever
    # size the connectivity-ranked strategy produces on this layout
    relay_budget: Optional[int] = None

    def __post_init__(self):
        # an empty matrix runs nothing, and checks no rate's config
        if not self.algorithms:
            raise ValueError("algorithms must name at least one algorithm")
        if not self.rates_pps:
            raise ValueError("rates_pps must list at least one rate")
        for a in self.algorithms:
            if a not in STRATEGIES:
                raise ValueError(f"unknown algorithm {a!r}")
            if self.algorithms.count(a) > 1:
                raise ValueError(f"lists {a!r} twice")
        labels = Counter(map(_rate_label, self.rates_pps))
        for rate in self.rates_pps:
            check_config(scenario_for(self, rate, self.base_seed))
            if labels[_rate_label(rate)] > 1:  # they would write the same run files
                raise ValueError(f"two rates name their runs {_rate_label(rate)}")
        check_count("n_seeds", self.n_seeds, most=MAX_SEEDS)
        check_range(self.range_r_m)
        check_range(self.all_relays_range_m)
        self.layout.sink_x()
        if self.relay_budget is not None:
            barrels = len(barrel_chainages(self.layout))
            check_count("relay_budget", self.relay_budget, least=0, most=barrels)


def parse_length(text: str) -> float:
    """Meters from '30ft', '9.1m', or a bare number of meters."""
    t = text.strip().lower()
    try:
        if t.endswith("ft"):
            return feet(float(t[:-2]))
        if t.endswith("m"):
            return float(t[:-1])
        return float(t)
    except ValueError:
        raise PlanError(f"cannot parse length {text!r}") from None


def _auto_or_int(text: str) -> Optional[int]:
    return None if text.lower() == "auto" else int(text)


def _one_of(table: dict):
    """A reader of a name in table, which returns its entry."""
    def read(text: str):
        if text not in table:
            raise ValueError("must be one of " + ", ".join(table))
        return table[text]
    return read


def _segments(text: str) -> LayoutSpec:
    segments = []
    for part in filter(None, map(str.strip, text.split(","))):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"segment {part!r} must be name:length:spacing, e.g. taper:540ft:30ft")
        name, length, spacing = pieces
        segments.append(Segment(name.strip(), parse_length(length), parse_length(spacing)))
    if not segments:
        raise ValueError("segments list is empty")
    return LayoutSpec(segments=tuple(segments))


# section -> key -> (part, field, converter from text). The part is "plan"
# for a field of ExperimentPlan, else its nested dataclass; a key left out
# keeps the default. Field None is the whole part. parse_plan applies keys in
# this order: preset or segments before the [layout] keys that amend their
# layout, and sink_placement before the sink_standoff it may use.
PLAN_KEYS = {
    "layout": {
        "preset": ("layout", None, _one_of(LAYOUT_PRESETS)),
        "segments": ("layout", None, _segments),
        "sink_placement": ("layout", "sink_placement", lambda text: (
            text if text in ("start", "end") else parse_length(text)
        )),
        "sink_standoff": ("layout", "sink_standoff_m", parse_length),
    },
    "scenario": {
        "algorithms": ("plan", "algorithms", lambda text: tuple(a.strip() for a in text.split(","))),
        "rates": ("plan", "rates_pps", lambda text: tuple(map(float, text.split(",")))),
        "seeds": ("plan", "n_seeds", int),
        "base_seed": ("plan", "base_seed", int),
        "sim_time_s": ("plan", "sim_time_s", float),
        "ttl": ("plan", "ttl", int),
        "range": ("plan", "range_r_m", parse_length),
        "all_relays_range": ("plan", "all_relays_range_m", parse_length),
    },
    "channel": {
        "n_adv_channels": ("channel", "n_adv_channels", int),
        "frame_duration_us": ("channel", "frame_duration_us", int),
        "adv_jitter_ms": ("channel", "adv_jitter_ms", float),
        "loss_p": ("channel", "loss_p", float),
    },
    "power": {
        "i_tx_ma": ("power", "i_tx_ma", float),
        "i_listen_ma": ("power", "i_listen_ma", float),
        "i_sleep_ma": ("power", "i_sleep_ma", float),
    },
    "plan": {
        "copies": ("plan", "copies", _auto_or_int),
        "relay_budget": ("plan", "relay_budget", _auto_or_int),
    },
}


def parse_plan(path) -> ExperimentPlan:
    """Read an experiment plan from an INI file.

    Unknown sections or keys are errors (a typo silently falling back to a
    default would invalidate a whole study). Keys go one at a time onto a
    plan that checks itself, so a value it rejects is named by its
    section.key; parse_plan only converts text. Lengths accept ft/m suffixes.
    """
    # no header can name the section "", so [DEFAULT] is an unknown section
    # rather than a source of defaults for the others
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not parser.read(path):
            raise PlanError(f"cannot read plan file {path}")
    except configparser.Error as exc:
        raise PlanError(" ".join(str(exc).split())) from None
    if parser.has_option("layout", "preset") and parser.has_option("layout", "segments"):
        raise PlanError("give layout.preset or layout.segments, not both")
    for section in parser.sections():
        if section not in PLAN_KEYS:
            raise PlanError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in PLAN_KEYS[section]:
                raise PlanError(f"unknown key {section}.{key}")
    plan = ExperimentPlan(layout=LAYOUT_PRESETS["fdot_45mph"])
    for section, keys in PLAN_KEYS.items():
        for key, (part, name, convert) in keys.items():
            if not parser.has_option(section, key):
                continue
            text = parser[section][key]
            try:
                value = convert(text)
                if part != "plan":  # a nested dataclass: amend it, or replace it whole
                    value = value if name is None else replace(getattr(plan, part), **{name: value})
                    name = part
                plan = replace(plan, **{name: value})
            except ValueError as exc:
                raise PlanError(f"{section}.{key} = {text!r}: bad value, {exc}") from None
    return plan


def relay_budget(plan: ExperimentPlan) -> int:
    """Relay-set size the sampled baselines must match."""
    if plan.relay_budget is not None:
        return plan.relay_budget
    return _crns_relay_count(plan.layout, plan.range_r_m)


# every random and knn cell of a plan asks for the same count
@functools.lru_cache(maxsize=32)
def _crns_relay_count(layout: LayoutSpec, range_m: float) -> int:
    return len(crns_select(build_layout(layout, range_m)).relays)


def materialize(plan: ExperimentPlan, algorithm: str, seed: int) -> tuple[Topology, RelayAssignment]:
    """Topology plus relay assignment for one cell of the matrix."""
    if algorithm not in STRATEGIES:
        raise PlanError(f"unknown algorithm {algorithm!r}")
    range_m = plan.all_relays_range_m if algorithm == "all" else plan.range_r_m
    topo = build_layout(plan.layout, range_m)
    return topo, STRATEGIES[algorithm](topo, plan, seed)


def scenario_for(
    plan: ExperimentPlan, rate: float, seed: int, emit_events: bool = False
) -> ScenarioConfig:
    """Engine configuration for one run of the plan."""
    return ScenarioConfig(
        app_rate_pps=rate,
        sim_time_s=plan.sim_time_s,
        seed=seed,
        ttl=plan.ttl,
        copies=plan.copies,
        channel=plan.channel,
        emit_events=emit_events,
    )


def execute_cell(job) -> tuple[str, float, int, SimResult]:
    """One simulation run; module-level so worker processes can unpickle it."""
    plan, algorithm, rate, seed, emit_events = job
    topo, assignment = materialize(plan, algorithm, seed)
    config = scenario_for(plan, rate, seed, emit_events)
    return algorithm, rate, seed, run(topo, assignment, config)


def run_matrix(
    plan: ExperimentPlan, workers: int = 1, emit_events: bool = False
) -> list[tuple[str, float, int, SimResult]]:
    """All runs of the plan in plan order: algorithm, then rate, then seed, each
    as the plan lists them."""
    jobs = [
        (plan, algorithm, rate, plan.base_seed + i, emit_events)
        for algorithm in plan.algorithms
        for rate in plan.rates_pps
        for i in range(plan.n_seeds)
    ]
    if workers <= 1:
        return [execute_cell(job) for job in jobs]
    # imported only here: it is a large share of the CLI's import time, which
    # a serial run does not need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(execute_cell, jobs, chunksize=4))


def _rate_label(rate: float) -> str:
    return f"{rate:g}"


# made after the functions ExperimentPlan's checks call
EXPERIMENT_PRESETS: dict[str, ExperimentPlan] = {
    "paper": ExperimentPlan(layout=LAYOUT_PRESETS["fdot_45mph"]),
}


def _run_name(algorithm: str, rate: float, seed: int) -> str:
    return f"{algorithm}_{_rate_label(rate)}_{seed}"


def write_outputs(plan: ExperimentPlan, results, out_dir, elapsed_s: float, workers: int):
    """Write the full output tree for one experiment, and return its
    per-cell values (metrics.cell_stats), in the order of results."""
    out = Path(out_dir)
    runs_dir = out / "runs"
    plot_dir = out / "plotdata"
    runs_dir.mkdir(parents=True, exist_ok=True)
    plot_dir.mkdir(parents=True, exist_ok=True)

    summary = [
        {"algorithm": algorithm, "rate_pps": rate, **summarize(result, plan.power)}
        for algorithm, rate, _seed, result in results
    ]
    write_csv(out / "summary.csv", summary[0], (row.values() for row in summary))

    for algorithm, rate, seed, result in results:
        name = _run_name(algorithm, rate, seed)
        write_node_csv(result, plan.power, runs_dir / f"{name}.csv")
        if result.events:
            write_csv(runs_dir / f"{name}_events.csv", EVENT_COLUMNS, result.events)

    cells = cell_stats(summary, [result for *_, result in results])
    key = ["algorithm", "rate_pps"]
    for path, columns in (
        (out / "comparison.csv", key + ["mean_pdr_pct", "pdr_change_vs_all_pct"]),
        (plot_dir / "pdr_density.csv", key + ["mean_pdr_pct", "stdev_pdr_pct"]),
        (plot_dir / "power_vs_pdr.csv", key + ["mean_relay_current_ma", "mean_pdr_pct"]),
    ):
        write_csv(path, columns, ([cell[name] for name in columns] for cell in cells))
    write_csv(
        plot_dir / "relay_load_hist.csv",
        key + ["bin_lo", "bin_hi", "count"],
        ((cell["algorithm"], cell["rate_pps"], *b) for cell in cells for b in cell["relay_load_hist"]),
    )

    metadata = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(elapsed_s, 3),
        "version": __version__,
        # the determinism contract holds per CPython version
        "python": sys.version,
        "workers": workers,
        "algorithms": list(plan.algorithms),
        "rates_pps": list(plan.rates_pps),
        "seeds": list(range(plan.base_seed, plan.base_seed + plan.n_seeds)),
        "runs": len(results),
    }
    with open(out / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cells


def _cmd_run(args) -> int:
    if args.config:
        plan = parse_plan(args.config)
    else:
        plan = _flag("--preset", _one_of(EXPERIMENT_PRESETS), args.preset or "paper")
    if args.seed is not None:
        plan = replace(plan, base_seed=_flag("--seed", _at_least_0("seed"), args.seed))
    workers = _flag("--workers", _at_least_0("workers"), args.workers)
    # a pool forks all its workers at once, so never ask for more than the CPUs
    cpus = os.cpu_count() or 1
    workers = min(workers or cpus, cpus)
    out = Path(args.out)
    # every file in the directory must come from this one experiment
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise PlanError(f"--out = {args.out!r}: bad value, must be a new or empty directory")
    started = time.perf_counter()
    results = run_matrix(plan, workers=workers, emit_events=args.emit_events)
    elapsed = time.perf_counter() - started
    cells = write_outputs(plan, results, args.out, elapsed, workers)
    print(f"{len(results)} runs in {elapsed:.1f}s -> {args.out}")
    print(f"{'strategy':8s} {'rate':>6s} {'pdr%':>6s} {'load cv':>8s} {'relay mA':>9s}")
    for cell in cells:
        # blank where no run defines the value (no packet offered, say)
        pdr, cv, ma = (
            "" if cell[name] is None else f"{cell[name]:.{digits}f}"
            for name, digits in (
                ("mean_pdr_pct", 2), ("mean_relay_load_cv", 3), ("mean_relay_current_ma", 3)
            )
        )
        print(f"{cell['algorithm']:8s} {cell['rate_pps']:6g} {pdr:>6s} {cv:>8s} {ma:>9s}")
    return 0


def _flag(flag: str, read, text: str):
    """A flag's value through read; a ValueError it raises names the flag."""
    try:
        return read(text)
    except ValueError as exc:
        raise PlanError(f"{flag} = {text!r}: bad value, {exc}") from None


def _at_least_0(name: str):
    """A reader of an integer >= 0, which its errors call name."""
    return lambda text: check_count(name, int(text), least=0)


def _cmd_select(args) -> int:
    if args.config:
        plan = parse_plan(args.config)
    else:
        layout = _flag("--preset", _one_of(LAYOUT_PRESETS), args.preset or "fdot_45mph")
        plan = ExperimentPlan(layout=layout)
        # without a plan file every strategy, `all` included, selects at the
        # one range, and random/knn are sized like crns there
        plan = replace(plan, all_relays_range_m=plan.range_r_m)
    if args.range is not None:
        range_m = _flag("--range", lambda text: check_range(parse_length(text)), args.range)
        plan = replace(plan, range_r_m=range_m, all_relays_range_m=range_m)
    if args.count is not None:
        plan = _flag("--count", lambda text: replace(plan, relay_budget=int(text)), args.count)
    seed = 0 if args.seed is None else _flag("--seed", _at_least_0("seed"), args.seed)
    # like run --out, never overwrite what an earlier call wrote
    if args.out and Path(args.out).exists():
        raise PlanError(f"--out = {args.out!r}: bad value, must be a new file")
    topo, assignment = materialize(plan, args.algorithm, seed)
    issues = validate_assignment(topo, assignment)
    print(
        f"{args.algorithm}: {len(assignment.relays)} relays of "
        f"{topo.sink} barrels at range {topo.range_r:g}m"
    )
    print("relays:", " ".join(str(r) for r in assignment.relays))
    for issue in issues:
        print("warning:", issue)
    if args.out:
        save_assignment_csv(topo, assignment, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    range_m = None
    if args.range is not None:
        range_m = _flag("--range", lambda text: check_range(parse_length(text)), args.range)
    topo, assignment = load_assignment_csv(args.assignment, range_m)
    issues = validate_assignment(topo, assignment)
    if issues:
        for issue in issues:
            print(issue)
        return 1
    print(
        f"ok: {len(assignment.relays)} relays cover {topo.sink} barrels at range {topo.range_r:g}m"
    )
    return 0


def _cmd_presets(args) -> int:
    print("layout presets:")
    for name, spec in LAYOUT_PRESETS.items():
        topo = build_layout(spec)
        segs = ", ".join(
            f"{s.name} {s.length_m:.1f}m @ {s.spacing_m:.2f}m" for s in spec.segments
        )
        print(f"  {name}: {topo.sink} barrels over {spec.total_length_m():.1f}m ({segs})")
    print("experiment presets:")
    for name, plan in EXPERIMENT_PRESETS.items():
        print(
            f"  {name}: {','.join(plan.algorithms)} x rates "
            f"{','.join(map(_rate_label, plan.rates_pps))}/s x {plan.n_seeds} seeds, "
            f"{plan.sim_time_s:g}s each"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrelmesh",
        description="Relay selection and flooding simulation for barrel meshes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment matrix")
    source = p_run.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment plan INI file")
    source.add_argument("--preset", help="experiment preset name (default: paper)")
    p_run.add_argument("--seed", help="override the base seed")
    p_run.add_argument(
        "--workers", default="1", help="parallel processes (0: one per CPU)"
    )
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument(
        "--emit-events", action="store_true", help="write per-run event traces"
    )
    p_run.set_defaults(func=_cmd_run)

    p_sel = sub.add_parser("select", help="compute a relay assignment")
    source = p_sel.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment plan INI file")
    source.add_argument("--preset", help="layout preset name (default: fdot_45mph)")
    p_sel.add_argument(
        "--algorithm", choices=ALGORITHMS, default="crns", help="selection strategy"
    )
    p_sel.add_argument("--range", help="radio range, e.g. 100m or 330ft")
    p_sel.add_argument("--count", help="relay budget for random/knn")
    p_sel.add_argument("--seed", help="sampling seed for random/knn")
    p_sel.add_argument("--out", help="write the assignment CSV here")
    p_sel.set_defaults(func=_cmd_select)

    p_val = sub.add_parser("validate", help="validate a saved assignment")
    p_val.add_argument("--assignment", required=True, help="assignment CSV to check")
    p_val.add_argument(
        "--range", help="radio range to validate at (default: the file's range_m column)"
    )
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list shipped presets")
    p_pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanError, SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
