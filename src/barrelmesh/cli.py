"""Command-line front end.

Verbs:
  run       execute an experiment matrix (algorithms x rates x seeds) and
            write per-run, summary, comparison, and plot-ready CSVs
  select    print the relay set of one cell as a plan line, and its coverage
  presets   list the shipped experiment presets and their layouts

run and select read an experiment plan from an INI file (--config) or a
named preset (--preset); --seed sets its base seed. select prints the relay
set run simulates for one algorithm's cell at that seed as a `relays = ...`
line, which a plan's [plan] section takes for the fixed strategy, and exits
1 when the set leaves a barrel with no relay path to the sink. Every CSV an
experiment writes is a pure function of the plan, so reruns are
byte-identical; wall-clock information goes only into metadata.json.
"""
from __future__ import annotations

import argparse
import configparser
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
    all_relays,
    crns_select,
    knn_relays,
    random_relays,
    validate_assignment,
)
from .sim_engine import (
    EVENT_COLUMNS,
    ChannelConfig,
    ScenarioConfig,
    SimResult,
    check_config,
    run,
)
from .topology import (
    FDOT_45MPH,
    LayoutSpec,
    Segment,
    Topology,
    barrel_chainages,
    build_layout,
    check_count,
    check_range,
    check_relays,
    feet,
)

# Strategy name -> relay set for (topology, plan, seed). Entries look their
# functions up when called, so a rebound module name (a tracer, a test
# double) takes effect. fixed simulates the relay set its plan names.
STRATEGIES = {
    "crns": lambda topo, plan, seed: crns_select(topo),
    "all": lambda topo, plan, seed: all_relays(topo),
    "random": lambda topo, plan, seed: random_relays(topo, relay_budget(plan, topo), seed=seed),
    "knn": lambda topo, plan, seed: knn_relays(topo, relay_budget(plan, topo), seed=seed),
    "fixed": lambda topo, plan, seed: fixed_relays(plan),
}

# The most runs (algorithms x rates x seeds) a plan may make: the paper
# matrix at 10,000 seeds. run_matrix makes one job per run before the first
# run starts and write_outputs holds every result, about 7 KiB a run on the
# paper layout, so the matrix must fit in memory whole.
MAX_RUNS = 80_000


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything an experiment needs: geometry, matrix, radio, power. Made or
    replaced, it checks its values by the rules of the library that uses them."""

    layout: LayoutSpec
    # the paper's four strategies
    algorithms: tuple[str, ...] = ("crns", "all", "random", "knn")
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
    # the relay set fixed simulates, ascending barrel ids of the layout
    relays: Optional[tuple[int, ...]] = None

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
        check_count("n_seeds", self.n_seeds, least=1)
        runs = len(self.algorithms) * len(self.rates_pps) * self.n_seeds
        if runs > MAX_RUNS:
            raise ValueError(f"{runs} runs (algorithms x rates x seeds) exceed the bound of {MAX_RUNS}")
        labels = Counter(map(_rate_label, self.rates_pps))
        for rate in self.rates_pps:
            check_config(scenario_for(self, rate, self.base_seed))
            if labels[_rate_label(rate)] > 1:  # they would write the same run files
                raise ValueError(f"two rates name their runs {_rate_label(rate)}")
        check_range(self.range_r_m)
        check_range(self.all_relays_range_m)
        self.layout.sink_x()
        if self.relay_budget is not None:
            barrels = len(barrel_chainages(self.layout))
            check_count("relay_budget", self.relay_budget, least=0, most=barrels)
        if self.relays is not None:
            check_relays(self.relays, len(barrel_chainages(self.layout)))
            if "fixed" not in self.algorithms:
                raise ValueError("only fixed simulates plan.relays, and algorithms does not list it")
        if "fixed" in self.algorithms:
            fixed_relays(self)


def fixed_relays(plan: ExperimentPlan) -> tuple[int, ...]:
    """The relay set fixed simulates: plan.relays, which must be set."""
    if plan.relays is None:
        raise ValueError("fixed simulates plan.relays, and the plan sets none")
    return plan.relays


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
        raise ValueError(f"cannot parse length {text!r}") from None


def _auto_or_int(text: str) -> Optional[int]:
    return None if text.lower() == "auto" else int(text)


def _one_of(table: dict):
    """A reader of a name in table, which returns its entry."""
    def read(text: str):
        if text not in table:
            raise ValueError("must be one of " + ", ".join(table))
        return table[text]
    return read


def _segments(text: str) -> tuple[Segment, ...]:
    segments = []
    for part in filter(None, map(str.strip, text.split(","))):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"segment {part!r} must be name:length:spacing, e.g. taper:540ft:30ft")
        name, length, spacing = pieces
        segments.append(Segment(name.strip(), parse_length(length), parse_length(spacing)))
    if not segments:
        raise ValueError("segments list is empty")
    return tuple(segments)


# section -> key -> (part, field, converter from text). The part is "plan"
# for a field of ExperimentPlan, else its nested dataclass; a key left out
# keeps the default. parse_plan applies keys in this order, segments before
# the sink and budget keys that must fit the row.
PLAN_KEYS = {
    "layout": {
        "segments": ("layout", "segments", _segments),
        "sink_placement": ("layout", "sink_placement", lambda text: (
            text if text in ("start", "end") else parse_length(text)
        )),
    },
    "scenario": {
        "algorithms": ("plan", "algorithms", lambda text: tuple(a.strip() for a in text.split(","))),
        "seeds": ("plan", "n_seeds", int),
        "rates": ("plan", "rates_pps", lambda text: tuple(map(float, text.split(",")))),
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
        # an empty value is the empty set
        "relays": ("plan", "relays", lambda text: (
            tuple(map(int, text.split(","))) if text.strip() else ()
        )),
    },
}

# Keys whose rules read each other's values: the runs bound counts the
# matrix keys, and fixed in algorithms needs relays that fit the layout.
JOINT_KEYS = (
    ("scenario", "algorithms"), ("scenario", "seeds"), ("scenario", "rates"), ("plan", "relays"),
)


def parse_plan(path) -> ExperimentPlan:
    """Read an experiment plan from an INI file.

    Unknown sections or keys are errors (a typo silently falling back to a
    default would invalidate a whole study). Keys go one at a time onto a
    plan that checks itself, so a value it rejects is named by its
    section.key; parse_plan only converts text. Lengths accept ft/m suffixes.
    The layout keys and JOINT_KEYS first go on together, so the runs bound
    counts none of the matrix keys at its default. Below, algorithms and
    relays go on as one wherever either does, so neither is judged without
    the other, and a refusal of the pair names both.
    """
    # no header can name the section "", so [DEFAULT] is an unknown section
    # rather than a source of defaults for the others
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ValueError(f"cannot read plan file {path}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read plan file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None
    for section in parser.sections():
        if section not in PLAN_KEYS:
            raise ValueError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in PLAN_KEYS[section]:
                raise ValueError(f"unknown key {section}.{key}")
    given = [(section, key) for section in PLAN_KEYS for key in PLAN_KEYS[section]
             if parser.has_option(section, key)]
    plan = ExperimentPlan(layout=FDOT_45MPH)
    try:
        plan = _apply(plan, parser, [k for k in given if k[0] == "layout" or k in JOINT_KEYS])
    except ValueError:
        pass  # named below, where the keys go on one at a time
    pair = [k for k in given if k in (("scenario", "algorithms"), ("plan", "relays"))]
    for key in given:
        plan = _apply(plan, parser, pair if key in pair else [key])
    return plan


def _apply(plan: ExperimentPlan, parser, keys) -> ExperimentPlan:
    """plan with the file's value of each (section, key) of keys. A ValueError
    names the key whose text does not convert, or else every key of keys."""
    fields, parts = {}, {}
    for section, key in keys:
        part, name, convert = PLAN_KEYS[section][key]
        text = parser[section][key]
        try:
            value = convert(text)
        except ValueError as exc:
            raise ValueError(f"{section}.{key} = {text!r}: bad value, {exc}") from None
        # a field of a nested dataclass amends that
        (fields if part == "plan" else parts.setdefault(part, {}))[name] = value
    try:
        for part, values in parts.items():
            fields[part] = replace(getattr(plan, part), **values)
        return replace(plan, **fields)
    except ValueError as exc:
        named = ", ".join(f"{section}.{key} = {parser[section][key]!r}" for section, key in keys)
        raise ValueError(f"{named}: bad value, {exc}") from None


def relay_budget(plan: ExperimentPlan, topology: Topology) -> int:
    """Relay-set size the sampled baselines must match on topology: the
    plan's own budget, or else the size of crns's selection there."""
    if plan.relay_budget is not None:
        return plan.relay_budget
    return len(crns_select(topology))


def materialize(plan: ExperimentPlan, algorithm: str, seed: int) -> tuple[Topology, tuple[int, ...]]:
    """Topology plus relay set for one cell of the matrix."""
    if algorithm not in STRATEGIES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
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
    topo, relays = materialize(plan, algorithm, seed)
    config = scenario_for(plan, rate, seed, emit_events)
    return algorithm, rate, seed, run(topo, relays, config)


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
    "paper": ExperimentPlan(layout=FDOT_45MPH),
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


def _plan(args) -> ExperimentPlan:
    """The plan --config or --preset names, at the --seed base seed when given."""
    if args.config:
        plan = parse_plan(args.config)
    else:
        plan = _flag("--preset", _one_of(EXPERIMENT_PRESETS), args.preset or "paper")
    if args.seed is not None:
        plan = replace(plan, base_seed=_flag("--seed", _at_least_0("seed"), args.seed))
    return plan


def _cmd_run(args) -> int:
    plan = _plan(args)
    workers = _flag("--workers", _at_least_0("workers"), args.workers)
    # a pool forks all its workers at once, so never ask for more than the CPUs
    cpus = os.cpu_count() or 1
    workers = min(workers or cpus, cpus)
    out = Path(args.out)
    # every file in the directory must come from this one experiment
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(f"--out = {args.out!r}: bad value, must be a new or empty directory")
    # made before the matrix runs, so an unwritable --out fails first, and
    # taken away again, deepest first, if the matrix fails
    made = [path for path in (out, *out.parents) if not path.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out = {args.out!r}: bad value, {exc.strerror}") from None
    started = time.perf_counter()
    try:
        results = run_matrix(plan, workers=workers, emit_events=args.emit_events)
    except BaseException:
        for path in made:
            path.rmdir()
        raise
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
        raise ValueError(f"{flag} = {text!r}: bad value, {exc}") from None


def _at_least_0(name: str):
    """A reader of an integer >= 0, which its errors call name."""
    return lambda text: check_count(name, int(text), least=0)


def _cmd_select(args) -> int:
    plan = _plan(args)
    topo, relays = materialize(plan, args.algorithm, plan.base_seed)
    issues = validate_assignment(topo, relays)
    print(
        f"{args.algorithm}: {len(relays)} relays of "
        f"{topo.sink} barrels at range {topo.range_r:g}m"
    )
    print("relays = " + ",".join(map(str, relays)))  # a line a plan's [plan] takes
    for issue in issues:
        print(issue)
    return 1 if issues else 0


def _cmd_presets(args) -> int:
    for name, plan in EXPERIMENT_PRESETS.items():
        spec = plan.layout
        segs = ", ".join(
            f"{s.name} {s.length_m:.1f}m @ {s.spacing_m:.2f}m" for s in spec.segments
        )
        print(
            f"{name}: {','.join(plan.algorithms)} x rates "
            f"{','.join(map(_rate_label, plan.rates_pps))}/s x {plan.n_seeds} seeds, "
            f"{plan.sim_time_s:g}s each, on {len(barrel_chainages(spec))} barrels "
            f"over {spec.total_length_m():.1f}m ({segs})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrelmesh",
        description="Relay selection and flooding simulation for barrel meshes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    plan_flags = argparse.ArgumentParser(add_help=False)  # read by _plan
    source = plan_flags.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment plan INI file")
    source.add_argument("--preset", help="experiment preset name (default: paper)")
    plan_flags.add_argument("--seed", help="override the base seed, which select samples with")

    p_run = sub.add_parser("run", parents=[plan_flags], help="run an experiment matrix")
    p_run.add_argument(
        "--workers", default="1", help="parallel processes (0: one per CPU)"
    )
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument(
        "--emit-events", action="store_true", help="write per-run event traces"
    )
    p_run.set_defaults(func=_cmd_run)

    p_sel = sub.add_parser(
        "select", parents=[plan_flags], help="print a cell's relays and their coverage"
    )
    p_sel.add_argument(
        "--algorithm", choices=STRATEGIES, default="crns", help="selection strategy"
    )
    p_sel.set_defaults(func=_cmd_select)

    p_pre = sub.add_parser("presets", help="list shipped presets")
    p_pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
