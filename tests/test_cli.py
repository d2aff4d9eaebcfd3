import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

import barrelmesh.cli as cli
import barrelmesh.metrics as metrics
import barrelmesh.sim_engine as se
from barrelmesh.cli import (
    ALGORITHMS,
    EXPERIMENT_PRESETS,
    PLAN_KEYS,
    ExperimentPlan,
    PlanError,
    main,
    materialize,
    parse_length,
    parse_plan,
    relay_budget,
    run_matrix,
    write_outputs,
)
from barrelmesh.metrics import PowerProfile
from barrelmesh.relay_selection import all_relays, load_assignment_csv, save_assignment_csv
from barrelmesh.sim_engine import ChannelConfig
from barrelmesh.topology import (
    FDOT_45MPH, MAX_BARRELS, LayoutError, LayoutSpec, Segment, build_layout, feet,
)
from opcodes import count_calls


def tiny_plan(**kw):
    """Four barrels, two seeds, short runs; fast enough for every test here."""
    layout = LayoutSpec(
        segments=(Segment("row", 270.0, 90.0),), sink_standoff_m=10.0
    )
    base = dict(
        layout=layout,
        rates_pps=(1.0,),
        n_seeds=2,
        base_seed=7,
        sim_time_s=2.0,
    )
    base.update(kw)
    return ExperimentPlan(**base)


def write_ini(tmp_path, text):
    path = tmp_path / "plan.ini"
    path.write_text(text)
    return path


class TestParseLength:
    def test_feet_suffix(self):
        assert parse_length("30ft") == pytest.approx(feet(30.0))

    def test_meter_suffix(self):
        assert parse_length("9.1m") == pytest.approx(9.1)

    def test_bare_number_is_meters(self):
        assert parse_length(" 100 ") == pytest.approx(100.0)

    def test_garbage_rejected(self):
        with pytest.raises(PlanError):
            parse_length("fast")


class TestParsePlan:
    def test_defaults_match_shipped_preset(self, tmp_path):
        plan = parse_plan(write_ini(tmp_path, "[layout]\npreset = fdot_45mph\n"))
        assert plan == EXPERIMENT_PRESETS["paper"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlanError):
            parse_plan(tmp_path / "nope.ini")

    def test_unknown_section_named_in_error(self, tmp_path):
        path = write_ini(tmp_path, "[radio]\nx = 1\n")
        with pytest.raises(PlanError, match=r"\[radio\]"):
            parse_plan(path)

    def test_unknown_key_named_in_error(self, tmp_path):
        # layout.lateral_offset moved every node, the sink included, alike,
        # so nothing read it; it is no longer a key
        # nor are the switches that loss_p and plan.copies make redundant
        for section, line in (
            ("scenario", "speed = 9"),
            ("layout", "lateral_offset = 2"),
            ("channel", "reception_model = independent_loss"),
            ("plan", "mode = fixed"),
            ("plan", "fixed_count = 5"),
        ):
            path = write_ini(tmp_path, f"[{section}]\n{line}\n")
            key = line.split(" = ")[0]
            with pytest.raises(PlanError, match=f"^unknown key {section}.{key}$"):
                parse_plan(path)

    def test_preset_and_segments_conflict(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[layout]\npreset = fdot_45mph\nsegments = row:100:50\n",
        )
        with pytest.raises(PlanError, match="not both"):
            parse_plan(path)

    def test_unknown_layout_preset(self, tmp_path):
        path = write_ini(tmp_path, "[layout]\npreset = interstate\n")
        with pytest.raises(PlanError, match="interstate"):
            parse_plan(path)

    def test_segments_accept_mixed_units(self, tmp_path):
        path = write_ini(
            tmp_path, "[layout]\nsegments = taper:540ft:30ft, work:100m:25m\n"
        )
        segments = parse_plan(path).layout.segments
        assert [s.name for s in segments] == ["taper", "work"]
        assert segments[0].length_m == pytest.approx(feet(540.0))
        assert segments[0].spacing_m == pytest.approx(feet(30.0))
        assert segments[1].length_m == pytest.approx(100.0)
        assert segments[1].spacing_m == pytest.approx(25.0)

    def test_malformed_segment_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[layout]\nsegments = taper:540ft\n")
        with pytest.raises(PlanError, match="name:length:spacing"):
            parse_plan(path)

    def test_sink_placement_and_offsets(self, tmp_path):
        # a chainage places the sink by itself; start and end use the standoff
        path = write_ini(tmp_path, "[layout]\npreset = fdot_45mph\nsink_placement = 50ft\n")
        assert parse_plan(path).layout.sink_placement == pytest.approx(feet(50.0))
        path = write_ini(tmp_path, "[layout]\nsink_placement = end\nsink_standoff = 5m\n")
        layout = parse_plan(path).layout
        assert layout.sink_placement == "end"
        assert layout.sink_standoff_m == pytest.approx(5.0)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nalgorithms = crns,best\n")
        with pytest.raises(PlanError, match="best"):
            parse_plan(path)

    def test_scenario_channel_power_plan_sections(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[scenario]\nalgorithms = crns\nrates = 2,8\nseeds = 3\n"
            "base_seed = 55\nsim_time_s = 5\nttl = 9\nrange = 60m\n"
            "all_relays_range = 90\n"
            "[channel]\nn_adv_channels = 2\nframe_duration_us = 700\n"
            "adv_jitter_ms = 5.5\nloss_p = 0.25\n"
            "[power]\ni_tx_ma = 11\ni_listen_ma = 5\ni_sleep_ma = 0.01\n"
            "[plan]\ncopies = 2\nrelay_budget = 4\n",
        )
        plan = parse_plan(path)
        assert plan.algorithms == ("crns",)
        assert plan.rates_pps == (2.0, 8.0)
        assert (plan.n_seeds, plan.base_seed) == (3, 55)
        assert (plan.sim_time_s, plan.ttl) == (5.0, 9)
        assert (plan.range_r_m, plan.all_relays_range_m) == (60.0, 90.0)
        assert plan.channel.n_adv_channels == 2
        assert plan.channel.frame_duration_us == 700
        assert plan.channel.adv_jitter_ms == 5.5
        assert plan.channel.loss_p == 0.25
        assert (plan.power.i_tx_ma, plan.power.i_listen_ma) == (11.0, 5.0)
        assert plan.power.i_sleep_ma == 0.01
        assert plan.copies == 2
        assert plan.relay_budget == 4

    def test_every_config_field_has_one_plan_key(self):
        set_by = Counter(
            (part, name) for keys in PLAN_KEYS.values() for part, name, _ in keys.values()
        )
        # layout.preset and layout.segments each give the whole layout
        assert set_by.pop(("layout", None)) == 2
        parts = {
            "plan": ExperimentPlan,
            "layout": LayoutSpec,
            "channel": ChannelConfig,
            "power": PowerProfile,
        }
        want = {
            (part, f.name)
            for part, cls in parts.items()
            for f in fields(cls)
            if f.name not in parts  # a nested dataclass is set key by key
        }
        assert set_by == Counter(want - {("layout", "segments")})

    def test_readme_table_lists_every_plan_key(self):
        # the rows of the plan-key table alone: other tables may name files
        readme = Path(__file__).resolve().parent.parent / "README.md"
        table = re.search(
            r"^\| key \| accepted values \| default \|\n\|.*\n((?:\|.*\n)*)",
            readme.read_text(),
            re.M,
        )
        rows = table.group(1).splitlines()
        listed = {key for row in rows for key in re.findall(r"`(\w+\.\w+)`", row.split("|")[1])}
        assert listed == {f"{section}.{key}" for section, keys in PLAN_KEYS.items() for key in keys}

    def test_readme_example_plans_parse(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"^```ini\n(.*?)^```", readme.read_text(), re.S | re.M)
        assert len(blocks) == 2
        for block in blocks:
            parse_plan(write_ini(tmp_path, block))

    def test_bad_int_reported_as_plan_error(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nttl = many\n")
        with pytest.raises(PlanError, match="bad value"):
            parse_plan(path)


class TestBudgetAndMaterialize:
    def test_budget_follows_ranked_selection(self):
        assert relay_budget(EXPERIMENT_PRESETS["paper"]) == 18

    def test_budget_selects_once_per_layout_and_range(self):
        # every random and knn cell of a plan asks for the budget; the
        # answer depends only on the layout and the range
        plan = replace(EXPERIMENT_PRESETS["paper"], range_r_m=71.0)
        budgets, selections = count_calls(
            lambda: [relay_budget(plan) for _ in range(8)], cli, "crns_select"
        )
        topo = build_layout(plan.layout, plan.range_r_m)
        assert budgets == [len(cli.crns_select(topo).relays)] * 8
        assert selections <= 1
        assert relay_budget(replace(plan, range_r_m=60.0)) != budgets[0]

    def test_explicit_budget_wins(self):
        plan = replace(EXPERIMENT_PRESETS["paper"], relay_budget=5)
        assert relay_budget(plan) == 5

    def test_all_runs_at_its_own_range(self):
        plan = EXPERIMENT_PRESETS["paper"]
        topo_all, _ = materialize(plan, "all", seed=0)
        topo_crns, _ = materialize(plan, "crns", seed=0)
        assert topo_all.range_r == plan.all_relays_range_m
        assert topo_crns.range_r == plan.range_r_m

    def test_sampled_strategies_sized_to_budget(self):
        plan = EXPERIMENT_PRESETS["paper"]
        _, rnd = materialize(plan, "random", seed=3)
        _, knn = materialize(plan, "knn", seed=3)
        assert len(rnd.relays) == 18
        assert 1 <= len(knn.relays) <= 18  # duplicate heads may collapse

    def test_unknown_algorithm(self):
        with pytest.raises(PlanError):
            materialize(EXPERIMENT_PRESETS["paper"], "flood", seed=0)


class TestRunMatrix:
    def test_results_ordered_and_complete(self):
        plan = tiny_plan(algorithms=("knn", "crns"), rates_pps=(4.0, 1.0))
        results = run_matrix(plan)
        keys = [(a, r, s) for a, r, s, _ in results]
        assert keys == [
            ("knn", 4.0, 7), ("knn", 4.0, 8),
            ("knn", 1.0, 7), ("knn", 1.0, 8),
            ("crns", 4.0, 7), ("crns", 4.0, 8),
            ("crns", 1.0, 7), ("crns", 1.0, 8),
        ]

    def test_rerun_is_identical(self):
        plan = tiny_plan(algorithms=("crns", "random"))
        assert run_matrix(plan) == run_matrix(plan)

    def test_worker_pool_matches_serial(self):
        plan = tiny_plan(algorithms=("crns", "all"))
        assert run_matrix(plan, workers=2) == run_matrix(plan, workers=1)

    def test_cli_import_leaves_the_pool_module_unloaded(self):
        # a serial run never pays for importing the process pool
        code = "import sys, barrelmesh.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "False\n", proc.stderr


@pytest.fixture(scope="module")
def matrix():
    plan = tiny_plan(algorithms=("crns", "all"))
    return plan, run_matrix(plan, emit_events=True)


class TestWriteOutputs:

    def test_output_tree(self, matrix, tmp_path):
        plan, results = matrix
        write_outputs(plan, results, tmp_path, 1.0, workers=1)
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "metadata.json").exists()
        for name in ("pdr_density", "relay_load_hist", "power_vs_pdr"):
            assert (tmp_path / "plotdata" / f"{name}.csv").exists()
        run_files = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert "crns_1_7.csv" in run_files
        assert "crns_1_7_events.csv" in run_files
        assert len(run_files) == 2 * len(results)

    def test_reruns_byte_identical_outside_metadata(self, matrix, tmp_path):
        plan, results = matrix
        a, b = tmp_path / "a", tmp_path / "b"
        write_outputs(plan, results, a, 1.0, workers=1)
        write_outputs(plan, results, b, 2.0, workers=1)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "metadata.json":
                continue
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_comparison_change_formula(self, matrix, tmp_path):
        plan, results = matrix
        write_outputs(plan, results, tmp_path, 1.0, workers=1)
        rows = (tmp_path / "comparison.csv").read_text().splitlines()
        table = {line.split(",")[0]: line.split(",") for line in rows[1:]}
        crns_pdr = float(table["crns"][2])
        all_pdr = float(table["all"][2])
        expected = f"{100.0 * (crns_pdr - all_pdr) / all_pdr:+.1f}"
        assert table["crns"][3] == expected
        assert table["all"][3] == "+0.0"

    def test_files_agree_on_cell_mean_pdr(self, tmp_path):
        # seed 8 offers no packet within 0.15 s; its run has no PDR and must
        # not count as 0% in any file
        plan = tiny_plan(algorithms=("crns", "all"), sim_time_s=0.15)
        write_outputs(plan, run_matrix(plan), tmp_path, 1.0, workers=1)
        tables = [
            (tmp_path / name).read_text().splitlines()[1:]
            for name in ("comparison.csv", "plotdata/pdr_density.csv")
        ]
        assert tables[0] == ["crns,1.0,0.0,-100.0", "all,1.0,100.0,+0.0"]
        assert tables[1] == ["crns,1.0,0.0,0.0", "all,1.0,100.0,0.0"]
        power = (tmp_path / "plotdata" / "power_vs_pdr.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in power] == ["0.0", "100.0"]

    def test_undefined_pdr_leaves_fields_empty(self, tmp_path):
        plan = tiny_plan(algorithms=("crns", "all"), sim_time_s=0.12)
        write_outputs(plan, run_matrix(plan), tmp_path, 1.0, workers=1)
        for name in ("comparison.csv", "plotdata/pdr_density.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert rows == ["crns,1.0,,", "all,1.0,,"], name

    def test_each_run_statistic_is_computed_once(self, matrix, tmp_path):
        # the summary rows are the one per-run record that the per-cell files
        # are built from; write_node_csv is each run's second current pass
        plan, results = matrix
        for name, per_run in (
            ("network_pdr", 1),
            ("relay_load_stats", 1),
            ("mean_relay_current_ma", 1),
            ("per_node_current_ma", 2),
        ):
            _, calls = count_calls(
                write_outputs, metrics, name, plan, results, tmp_path / name, 1.0, 1
            )
            assert calls == per_run * len(results), name

    def test_relay_load_hist_bins(self, tmp_path):
        # the largest load, 10, sets the width of the 10 bins: ceil((10 + 1) / 10) = 2
        plan = tiny_plan(algorithms=("crns", "all"), sim_time_s=3.2)
        write_outputs(plan, run_matrix(plan), tmp_path, 1.0, workers=1)
        rows = (tmp_path / "plotdata" / "relay_load_hist.csv").read_text().splitlines()
        counts = {"crns": [0, 0, 0, 0, 1, 5, 0, 0, 0, 0], "all": [0, 0, 0, 0, 2, 6, 0, 0, 0, 0]}
        assert rows == ["algorithm,rate_pps,bin_lo,bin_hi,count"] + [
            f"{algorithm},1.0,{2 * b},{2 * b + 2},{n}"
            for algorithm in counts
            for b, n in enumerate(counts[algorithm])
        ]

    def test_no_all_cell_leaves_the_change_empty(self, matrix, tmp_path):
        plan, results = matrix
        write_outputs(plan, [run for run in results if run[0] == "crns"], tmp_path, 1.0, 1)
        assert (tmp_path / "comparison.csv").read_text().splitlines() == [
            "algorithm,rate_pps,mean_pdr_pct,pdr_change_vs_all_pct",
            "crns,1.0,87.5,",
        ]

    def test_events_and_assignment_bytes_pinned(self, matrix, tmp_path):
        # the golden digests cover neither the event traces nor `select --out`
        def sha(paths):
            return hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest()

        plan, results = matrix
        write_outputs(plan, results, tmp_path, 1.0, workers=1)
        assert sha(sorted((tmp_path / "runs").glob("*_events.csv"))) == (
            "b82238de8ca54a5ec25f4d34a7b192924c6e81d1739400afb80b4390e349a53d"
        )
        selected = [tmp_path / f"{name}.csv" for name in ("crns", "random", "knn", "all")]
        for path in selected:
            argv = ["select", "--algorithm", path.stem, "--seed", "4", "--out", str(path)]
            assert main(argv) == 0
        assert sha(selected) == "fb3eb47cd1ec7c77769a3e2d024ff348b5b2f563ddde7d5932e77bf21d77a23e"

    def test_metadata_fields(self, matrix, tmp_path):
        plan, results = matrix
        write_outputs(plan, results, tmp_path, 1.5, workers=3)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["runs"] == len(results)
        assert meta["workers"] == 3
        assert meta["seeds"] == [7, 8]
        assert "created_utc" in meta
        assert meta["python"] == sys.version


# (section, line, key): a plan holding `line` in [section] must fail naming
# section.key. Without a key, the file itself is malformed (without a
# section, `line` is the whole file) and the error names the file or the
# section it rejects.
BAD_ENTRIES = [
    ("scenario", "rates = 1, 1", "rates"),
    ("scenario", "algorithms = crns, crns", "algorithms"),
    ("scenario", "rates = 0.1234567, 0.1234568", "rates"),
    ("scenario", "rates = nan", "rates"),
    ("scenario", "rates = inf", "rates"),
    ("scenario", "rates = 1, -inf", "rates"),
    ("scenario", "rates = 0", "rates"),
    ("scenario", "rates = 1000000", "rates"),
    ("scenario", "sim_time_s = nan", "sim_time_s"),
    ("scenario", "sim_time_s = inf", "sim_time_s"),
    ("scenario", "sim_time_s = 0", "sim_time_s"),
    ("scenario", "sim_time_s = 1e-7", "sim_time_s"),  # rounds to a 0 us horizon
    ("scenario", "sim_time_s = 5%", "sim_time_s"),
    # run_matrix used to end in a MemoryError building one job per run
    ("scenario", "seeds = 1000000000", "seeds"),
    ("scenario", "ttl = 0", "ttl"),
    ("scenario", "ttl = many", "ttl"),
    ("scenario", "base_seed = 1.5", "base_seed"),
    ("scenario", "base_seed = -1", "base_seed"),  # would repeat seed 1's sample
    ("scenario", "range = 0", "range"),
    ("scenario", "all_relays_range = inf", "all_relays_range"),
    ("channel", "n_adv_channels = 0", "n_adv_channels"),
    ("channel", "n_adv_channels = 41", "n_adv_channels"),  # BLE has 40
    ("channel", "frame_duration_us = 0", "frame_duration_us"),
    ("channel", "adv_jitter_ms = nan", "adv_jitter_ms"),
    ("channel", "adv_jitter_ms = 10241", "adv_jitter_ms"),  # over 10.24 s
    ("channel", "loss_p = 1.5", "loss_p"),
    ("power", "i_tx_ma = -1", "i_tx_ma"),
    ("power", "i_listen_ma = inf", "i_listen_ma"),
    ("power", "i_sleep_ma = nan", "i_sleep_ma"),
    ("plan", "copies = always", "copies"),
    ("plan", "copies = 0", "copies"),
    ("plan", "relay_budget = 99", "relay_budget"),  # fdot_45mph has 30 barrels
    ("layout", "preset = interstate", "preset"),
    ("layout", "segments = row:270:0", "segments"),
    ("layout", "segments = row:inf:90", "segments"),
    ("layout", "segments = ,", "segments"),
    # each used to end in a MemoryError, run without end, or end in an
    # OverflowError, placing barrels past the bound
    ("layout", "segments = work:1e12m:1m", "segments"),
    ("layout", "segments = a:100m:1e-300m", "segments"),
    ("layout", "segments = a:1e308m:1e-10m", "segments"),
    ("layout", "sink_placement = nan", "sink_placement"),
    ("layout", "sink_standoff = -1", "sink_standoff"),
    ("layout", "sink_placement = 0", "sink_placement"),  # the first barrel's chainage
    ("layout", "sink_standoff = 0", "sink_standoff"),
    # a chainage places the sink by itself, so the standoff would go unused
    ("layout", "sink_placement = 5\nsink_standoff = 60", "sink_standoff"),
    (None, "ttl = 3", None),
    ("scenario", "ttl = 3\nttl = 4", None),
    ("scenario", "ttl = 3\n[scenario]\nseeds = 1", None),
    ("scenario", "ttl = 3\nno equals sign", None),
    ("DEFAULT", "ttl = 3", None),
    ("DEFAULT", "ttl = 3\n[scenario]\nseeds = 1", None),
    ("DEFAULT", "ttl = 3\n[layout]\npreset = fdot_45mph", None),
]

# (argv, flag): a run, select or validate call that must fail naming the flag
BAD_FLAGS = [
    (["run", "--seed", "-1"], "--seed"),
    (["select", "--algorithm", "random", "--seed", "-1"], "--seed"),
    (["select", "--range", "inf"], "--range"),
    (["select", "--range", "nan"], "--range"),
    (["select", "--range", "0"], "--range"),
    (["select", "--algorithm", "random", "--count", "99"], "--count"),
    (["select", "--algorithm", "random", "--count", "-1"], "--count"),
    (["select", "--algorithm", "random", "--count", "x"], "--count"),
    (["validate", "--range", "inf"], "--range"),
    (["validate", "--range", "nan"], "--range"),
]


def _entries_for_replace():
    """Every BAD_ENTRIES line whose text converts, as (part, {field: value})
    with one field for each key of the line. Left out: malformed files, which
    name no key, and values that do not convert."""
    for section, line, key in BAD_ENTRIES:
        if key is None:
            continue
        values = {}
        try:
            for entry in line.split("\n"):
                entry_key, text = map(str.strip, entry.split("=", 1))
                part, name, convert = PLAN_KEYS[section][entry_key]
                values[name] = convert(text)
        except ValueError:
            continue
        yield pytest.param(part, values, id=f"{section}.{line}")


@pytest.mark.parametrize("part, values", list(_entries_for_replace()))
def test_replace_applies_the_plan_file_rules(part, values):
    # library callers (perfbench among them) build plans with replace, so a
    # value a plan file may not hold must fail there too
    paper = EXPERIMENT_PRESETS["paper"]
    with pytest.raises(ValueError):
        if None in values:
            replace(paper, **{part: values[None]})
        elif part == "plan":
            replace(paper, **values)
        else:
            replace(paper, **{part: replace(getattr(paper, part), **values)})


@pytest.mark.parametrize("name", ["algorithms", "rates_pps"])
def test_replace_rejects_an_empty_matrix(name):
    # a plan file cannot leave either list empty, since an empty value does
    # not convert; a plan built with replace could, and then ran no cell,
    # checked no rate's ttl, and failed writing its summary
    with pytest.raises(ValueError, match=name):
        replace(EXPERIMENT_PRESETS["paper"], **{name: ()}, ttl=0)


@pytest.mark.parametrize("budget", [2.5, True, -1, 31])
def test_replace_checks_the_relay_budget(budget):
    # random.sample refused 2.5 only when the matrix ran, and took True as 1;
    # 31 on the paper's 30 barrels failed only at the first random cell
    with pytest.raises(ValueError, match="relay_budget"):
        replace(EXPERIMENT_PRESETS["paper"], relay_budget=budget)


def test_replace_checks_duplicate_rates_in_linear_time():
    # counting each label among all of them took 4.5 s for 20,000 rates
    rates = tuple(k / 100 for k in range(1, 20_001))
    start = time.perf_counter()
    plan = replace(EXPERIMENT_PRESETS["paper"], algorithms=("crns",), rates_pps=rates, n_seeds=1)
    assert time.perf_counter() - start < 1.0
    assert len(plan.rates_pps) == 20_000
    with pytest.raises(ValueError, match="^two rates name their runs 200$"):
        replace(plan, rates_pps=rates + (200.0,))


def test_plan_rejects_an_unused_sink_standoff():
    # a chainage places the sink by itself, so the standoff would go unused
    layout = replace(FDOT_45MPH, sink_placement=50.0, sink_standoff_m=5.0)
    with pytest.raises(LayoutError, match="^sink_standoff_m is set, .* start or end uses it$"):
        ExperimentPlan(layout=layout)
    assert ExperimentPlan(layout=replace(layout, sink_standoff_m=None)).layout.sink_x() == 50.0


def test_plan_rejects_an_unknown_sink_placement():
    layout = LayoutSpec(segments=(Segment("row", 270.0, 90.0),), sink_placement="middle")
    with pytest.raises(LayoutError, match="^unknown sink placement 'middle'$"):
        ExperimentPlan(layout=layout)


def test_plan_bounds_are_inclusive():
    # the most seeds and the largest relay budget a plan may hold
    paper = EXPERIMENT_PRESETS["paper"]
    assert replace(paper, n_seeds=cli.MAX_SEEDS).n_seeds == cli.MAX_SEEDS
    assert replace(paper, relay_budget=30).relay_budget == 30


def cheap_plan_text(**sections):
    """A plan file of one short crns run, with the given {key: text} of each
    section laid over it."""
    plan = {"scenario": {"algorithms": "crns", "rates": "1", "seeds": "1", "sim_time_s": "0.001"}}
    for section, keys in sections.items():
        plan.setdefault(section, {}).update(keys)
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {text}\n" for key, text in keys.items())
        for section, keys in plan.items()
    )


def run_plan(tmp_path, text, out_name="out"):
    """main's exit code for `run` on a plan file holding text."""
    ini = write_ini(tmp_path, text)
    return main(["run", "--config", str(ini), "--out", str(tmp_path / out_name)])


# (section, key, template): every numeric plan key, with the text that
# template.format(value) gives it; a segment's length and spacing are the
# numbers in layout.segments
NUMERIC_KEYS = [
    *[("scenario", key, "{}") for key in (
        "rates", "seeds", "base_seed", "sim_time_s", "ttl", "range", "all_relays_range",
    )],
    *[("channel", key, "{}") for key in (
        "n_adv_channels", "frame_duration_us", "adv_jitter_ms", "loss_p",
    )],
    *[("power", key, "{}") for key in ("i_tx_ma", "i_listen_ma", "i_sleep_ma")],
    ("plan", "copies", "{}"),
    ("plan", "relay_budget", "{}"),
    ("layout", "sink_placement", "{}"),
    ("layout", "sink_standoff", "{}"),
    ("layout", "segments", "row:{}m:90m"),
    ("layout", "segments", "row:270m:{}m"),
]


@pytest.mark.parametrize(
    "section, key, template",
    NUMERIC_KEYS,
    ids=[f"{section}.{key}:{template}" for section, key, template in NUMERIC_KEYS],
)
def test_extreme_plan_values_run_or_fail_in_one_line(capsys, tmp_path, section, key, template):
    # one key at a time on a cheap plan; 1e308 and 1e-307 used to end in
    # OverflowError tracebacks, from round, math.ceil or int of an inf
    for i, value in enumerate(("0", "-1", "1e-307", "1e308", "inf", "nan")):
        text = cheap_plan_text(**{section: {key: template.format(value)}})
        code = run_plan(tmp_path, text, f"out{i}")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (code, err) == (0, "") or (
            code == 2 and err.startswith("error: ") and err.count("\n") == 1
        ), (value, code, err)


@pytest.mark.parametrize(
    "sections, code, err",
    [
        # refused as the plan is read: round(inf) of the horizon and of the interval
        (
            {"scenario": {"sim_time_s": "1e308"}}, 2,
            "error: scenario.sim_time_s = '1e308': bad value, ",
        ),
        ({"scenario": {"rates": "1e-308"}}, 2, "error: scenario.rates = '1e-308': bad value, "),
        # refused by the run: math.ceil(inf) of a barrel's copies
        ({"scenario": {"range": "1e-307"}}, 2, "error: "),
        # run: int(inf) of the zone count, and of the far sink's zone
        ({"scenario": {"range": "1e-307"}, "plan": {"copies": "1"}}, 0, ""),
        ({"layout": {"sink_placement": "end", "sink_standoff": "1e308"}}, 0, ""),
    ],
    ids=["horizon", "interval", "copies", "zone-count", "sink-zone"],
)
def test_overflowing_plan_values(capsys, tmp_path, sections, code, err):
    assert run_plan(tmp_path, cheap_plan_text(**sections)) == code
    got = capsys.readouterr().err
    assert got.startswith(err) and got.count("\n") == (1 if err else 0)


class TestVerbs:
    def test_presets_lists_both_kinds(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fdot_45mph" in out
        assert "paper" in out

    def test_select_reports_relay_set(self, capsys, tmp_path):
        out_csv = tmp_path / "assign.csv"
        assert main(["select", "--algorithm", "crns", "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "18 relays of 30 barrels" in out
        topo, assignment = load_assignment_csv(out_csv)
        assert topo.sink == 30
        assert assignment.relays == tuple(range(7, 25))
        assert topo.range_r == 100.0

    @pytest.mark.parametrize(
        "range_args, range_m", [([], 100.0), (["--range", "130m"], 130.0)]
    )
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_select_writes_materialized_assignment(
        self, algorithm, range_args, range_m, tmp_path
    ):
        got, want = tmp_path / "select.csv", tmp_path / "materialize.csv"
        argv = ["select", "--algorithm", algorithm, "--seed", "4", "--out", str(got)]
        assert main(argv + range_args) == 0
        plan = ExperimentPlan(
            layout=FDOT_45MPH, range_r_m=range_m, all_relays_range_m=range_m
        )
        save_assignment_csv(*materialize(plan, algorithm, seed=4), want)
        assert got.read_bytes() == want.read_bytes()

    def test_select_all_uses_given_range(self, capsys, tmp_path):
        got, ref = tmp_path / "select.csv", tmp_path / "ref.csv"
        assert main(["select", "--algorithm", "all", "--range", "130m", "--out", str(got)]) == 0
        assert "at range 130m" in capsys.readouterr().out
        for range_m, same in ((130.0, True), (150.0, False)):
            topo = build_layout(FDOT_45MPH, range_m)
            save_assignment_csv(topo, all_relays(topo), ref)
            assert (got.read_bytes() == ref.read_bytes()) is same

    def test_select_random_honors_count(self, capsys):
        assert main(["select", "--algorithm", "random", "--count", "5",
                     "--seed", "11"]) == 0
        assert "5 relays of 30 barrels" in capsys.readouterr().out

    def test_select_refuses_an_existing_out(self, capsys, tmp_path):
        out_csv = tmp_path / "assign.csv"
        out_csv.write_text("precious")
        assert main(["select", "--out", str(out_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out = {str(out_csv)!r}: bad value, must be a new file\n"
        )
        assert out_csv.read_text() == "precious"

    def test_select_refuses_a_row_past_the_barrel_bound(self, capsys, tmp_path):
        ini = write_ini(tmp_path, "[layout]\nsegments = work:1e12m:1m\n")
        assert main(["select", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (
            "error: layout.segments = 'work:1e12m:1m': bad value, "
            f"segment 'work' takes the row past {MAX_BARRELS} barrels\n"
        )

    def test_run_refuses_copies_past_the_draw_bound(self, capsys, tmp_path):
        # 30 barrels each offer one packet in 1 s, of 1e11 copies; the run
        # used to draw every copy before its first event, for as long as it
        # was let
        ini = write_ini(tmp_path, "[plan]\ncopies = 100000000000\n[scenario]\nsim_time_s = 1\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: the run would draw 3000000000000 copies up front, "
            f"more than {se.MAX_COPY_DRAWS}\n"
        )
        assert not out_dir.exists()

    def test_validate_accepts_good_assignment(self, capsys, tmp_path):
        out_csv = tmp_path / "assign.csv"
        main(["select", "--out", str(out_csv)])
        capsys.readouterr()
        assert main(["validate", "--assignment", str(out_csv)]) == 0
        assert "ok:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
    def test_bad_flag_exits_2(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "assign.csv"
        if argv[0] == "validate":
            save_assignment_csv(*materialize(EXPERIMENT_PRESETS["paper"], "crns", seed=0), path)
        place = "--assignment" if argv[0] == "validate" else "--out"
        written = path.read_bytes() if path.exists() else None
        assert main(argv + [place, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} = ")
        assert err.count("\n") == 1
        assert (path.read_bytes() if path.exists() else None) == written

    @pytest.mark.parametrize("verb, preset", [("run", "paper"), ("select", "fdot_45mph")])
    def test_config_and_preset_conflict(self, capsys, tmp_path, verb, preset):
        ini = write_ini(tmp_path, "[scenario]\nseeds = 1\n")
        with pytest.raises(SystemExit) as exit_:
            main([verb, "--config", str(ini), "--preset", preset, "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert "--preset: not allowed with argument --config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_uses_the_range_selected_at(self, capsys, tmp_path):
        # at 200 m node 24 attaches to relay 16, which is out of range at
        # the default 100 m
        out_csv = tmp_path / "assign.csv"
        assert main(["select", "--range", "200m", "--out", str(out_csv)]) == 0
        capsys.readouterr()
        assert main(["validate", "--assignment", str(out_csv)]) == 0
        assert "at range 200m" in capsys.readouterr().out
        assert main(["validate", "--assignment", str(out_csv), "--range", "100m"]) == 1
        assert "node 24 attaches to out-of-range relay 16" in capsys.readouterr().out

    @pytest.mark.parametrize("range_args", [[], ["--range", "100m"]])
    def test_validate_refuses_a_file_without_range(self, capsys, tmp_path, range_args):
        # range_m is a required column, with --range or without
        out_csv = tmp_path / "assign.csv"
        assert main(["select", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].endswith(",range_m")
        out_csv.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        written = out_csv.read_bytes()
        capsys.readouterr()
        assert main(["validate", "--assignment", str(out_csv)] + range_args) == 2
        assert capsys.readouterr().err == (
            "error: assignment columns must be node,x,y,role,chosen_relay,score,range_m, "
            "got node,x,y,role,chosen_relay,score\n"
        )
        assert out_csv.read_bytes() == written

    def test_validate_flags_bad_assignment(self, capsys, tmp_path):
        out_csv = tmp_path / "assign.csv"
        main(["select", "--algorithm", "random", "--count", "0",
              "--out", str(out_csv)])
        capsys.readouterr()
        assert main(["validate", "--assignment", str(out_csv)]) == 1
        assert "isolated" in capsys.readouterr().out
        # a non-finite coordinate used to read as an isolated node, exit 1
        assert main(["select", "--out", str(tmp_path / "good.csv")]) == 0
        capsys.readouterr()
        rows = list(csv.DictReader((tmp_path / "good.csv").read_text().splitlines()))
        for x in ("nan", "inf"):
            rows[2]["x"] = x
            with open(out_csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            assert main(["validate", "--assignment", str(out_csv)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: node 2 ") and err.count("\n") == 1

    @pytest.mark.parametrize("column, text, reason", [
        ("y", "", "could not convert string to float: ''"),  # the row cut after x
        ("x", "abc", "could not convert string to float: 'abc'"),
        ("chosen_relay", "x", "invalid literal for int() with base 10: 'x'"),
    ])
    def test_validate_names_the_node_and_column_of_a_bad_field(
        self, capsys, tmp_path, column, text, reason
    ):
        out_csv = tmp_path / "assign.csv"
        assert main(["select", "--out", str(out_csv)]) == 0
        capsys.readouterr()
        lines = out_csv.read_text().splitlines()
        fields = lines[3].split(",")  # node 2
        if column == "y":
            fields = fields[:2]
        else:
            fields[lines[0].split(",").index(column)] = text
        lines[3] = ",".join(fields)
        out_csv.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--assignment", str(out_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: node 2: {column} = {text!r}: bad value, {reason}\n"
        )

    def test_run_with_config(self, capsys, tmp_path):
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns,all\nrates = 1\nseeds = 1\n"
            "sim_time_s = 2\n",
        )
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 0
        assert "2 runs" in capsys.readouterr().out
        assert (out_dir / "summary.csv").exists()

    @pytest.mark.parametrize(
        "section, line, column, sign",
        [("channel", "loss_p = 0.9", "pdr_pct", -1), ("plan", "copies = 5", "net_transmissions", 1)],
    )
    def test_one_key_changes_the_model(self, section, line, column, sign, tmp_path):
        # one key alone switches its model on; no second key is needed
        base = (
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns\nrates = 4\nseeds = 1\nsim_time_s = 2\n"
        )
        values = []
        for text in (base, f"{base}[{section}]\n{line}\n"):
            ini = write_ini(tmp_path, text)
            out_dir = tmp_path / f"out{len(values)}"
            assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 0
            with open(out_dir / "summary.csv", newline="") as fh:
                values.append(float(next(csv.DictReader(fh))[column]))
        assert (values[1] - values[0]) * sign > 0

    def test_run_with_a_zero_relay_budget(self, capsys, tmp_path):
        # every barrel of this short row hears the sink, so crns picks no
        # relay and the auto budget of knn comes out as 0
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:60m:12m\n"
            "[scenario]\nalgorithms = crns, knn\nrates = 1\nseeds = 1\n"
            "sim_time_s = 2\n",
        )
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["crns", "1.0", "1000", "0"], ["knn", "1.0", "1000", "0"]
        ]
        # with no relay, a cell has no load histogram, load cv or relay current
        hist = out_dir / "plotdata" / "relay_load_hist.csv"
        assert hist.read_text() == "algorithm,rate_pps,bin_lo,bin_hi,count\n"
        assert out.splitlines()[2:] == [
            f"{algorithm:8s}      1 100.00 {'':8s} {'':9s}" for algorithm in ("crns", "knn")
        ]

    def test_run_with_a_plan_relay_budget_of_zero(self, capsys, tmp_path):
        # the sampled baselines select no relay, as an auto budget of 0 does
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = random, knn\nrates = 1\nseeds = 1\nsim_time_s = 2\n"
            "[plan]\nrelay_budget = 0\n",
        )
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 0
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["algorithm"], row["n_relays"]) for row in rows] == [("random", "0"), ("knn", "0")]

    def test_select_knn_accepts_a_zero_count(self, capsys):
        assert main(["select", "--algorithm", "knn", "--count", "0"]) == 0
        assert "knn: 0 relays of 30 barrels" in capsys.readouterr().out

    def test_run_refuses_a_used_out_dir(self, capsys, monkeypatch, tmp_path):
        # a second experiment into one directory used to overwrite the first's
        # files and leave its other run files behind
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns\nrates = 1\nseeds = 2\nsim_time_s = 2\n",
        )
        out_dir = tmp_path / "out"
        out_dir.mkdir()  # an empty directory is fine
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 0
        written = {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()}
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_matrix", lambda *args, **kw: pytest.fail("ran"))
        not_a_dir = tmp_path / "plan.ini"
        for target in (out_dir, not_a_dir):
            assert main(["run", "--config", str(ini), "--out", str(target)]) == 2
            assert capsys.readouterr().err == (
                f"error: --out = {str(target)!r}: bad value, must be a new or empty directory\n"
            )
        assert {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()} == written

    def test_run_workers_flag(self, capsys, monkeypatch, tmp_path):
        # --workers 0 takes one process per CPU, and metadata.json records
        # the count used; a pool writes the same CSV bytes as a serial run
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns, all\nrates = 4, 1\nseeds = 2\nsim_time_s = 2\n",
        )
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        trees = []
        for workers, used in (("1", 1), ("0", 2)):
            out_dir = tmp_path / f"workers{workers}"
            argv = ["run", "--config", str(ini), "--workers", workers, "--out", str(out_dir)]
            assert main(argv) == 0
            assert json.loads((out_dir / "metadata.json").read_text())["workers"] == used
            trees.append(
                {path.relative_to(out_dir): path.read_bytes() for path in out_dir.rglob("*.csv")}
            )
        assert trees[0] == trees[1] and len(trees[0]) == 13  # 8 runs, 5 tables
        capsys.readouterr()
        out_dir = tmp_path / "bad"
        for bad in ("-3", "two"):
            argv = ["run", "--config", str(ini), "--workers", bad, "--out", str(out_dir)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --workers = {bad!r}: bad value, ")
            assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_run_caps_workers_at_the_cpu_count(self, monkeypatch, tmp_path):
        # a pool forks every worker it is given at its first job; the stub
        # runs serially, so no process is started
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns\nrates = 1\nseeds = 1\nsim_time_s = 2\n",
        )
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        asked = []
        serial = cli.run_matrix

        def record(plan, workers=1, emit_events=False):
            asked.append(workers)
            return serial(plan, 1, emit_events)

        monkeypatch.setattr(cli, "run_matrix", record)
        for workers in ("100000", "3", "2", "1"):
            out_dir = tmp_path / f"workers{workers}"
            argv = ["run", "--config", str(ini), "--workers", workers, "--out", str(out_dir)]
            assert main(argv) == 0
            assert json.loads((out_dir / "metadata.json").read_text())["workers"] == asked[-1]
        assert asked == [2, 2, 2, 1]

    def test_run_refuses_a_seed_count_past_the_bound(self, capsys, tmp_path):
        ini = write_ini(tmp_path, "[scenario]\nseeds = 1000000000\n")
        out_dir = tmp_path / "out"
        start = time.perf_counter()
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: scenario.seeds = '1000000000': bad value, "
            f"n_seeds must be an integer in [1, {cli.MAX_SEEDS}]\n"
        )
        assert not out_dir.exists()

    def test_run_seed_override_changes_run_names(self, tmp_path):
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns\nrates = 1\nseeds = 1\nsim_time_s = 2\n",
        )
        out_dir = tmp_path / "results"
        main(["run", "--config", str(ini), "--seed", "42", "--out", str(out_dir)])
        assert (out_dir / "runs" / "crns_1_42.csv").exists()

    def test_bad_config_exits_2(self, capsys, tmp_path):
        ini = write_ini(tmp_path, "[radio]\nx = 1\n")
        assert main(["run", "--config", str(ini)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment_preset_exits_2(self, capsys):
        assert main(["run", "--preset", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: --preset = 'bogus': bad value, must be one of paper\n"
        )

    def test_unknown_layout_preset_in_select(self, capsys):
        assert main(["select", "--preset", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: --preset = 'bogus': bad value, must be one of fdot_45mph\n"
        )

    def test_zero_seeds_exits_2(self, capsys, tmp_path):
        ini = write_ini(tmp_path, "[scenario]\nseeds = 0\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario.seeds")
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "section, line, key",
        BAD_ENTRIES,
        ids=[f"{line}-{section}" + (f".{key}" if key else "") for section, line, key in BAD_ENTRIES],
    )
    def test_bad_scenario_entry_exits_2(self, capsys, tmp_path, section, line, key):
        # each used to pass parsing and fail in the engine or in selection
        # without naming its key, or end in a configparser traceback
        ini = write_ini(tmp_path, f"[{section}]\n{line}\n" if section else f"{line}\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        if key:
            assert err.startswith(f"error: {section}.{key} ")
        else:  # a malformed file: the error names the file or the section
            assert str(ini) in err or f"[{section}]" in err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_run_prints_cell_table(self, capsys, tmp_path):
        # within 0.12 s no source offers a packet at 1 pkt/s (seed 7), so
        # those cells have no PDR and print a blank
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns, all\nrates = 100, 1\nseeds = 1\nsim_time_s = 0.12\n",
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--seed", "7", "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("4 runs in ")
        assert lines[1] == "strategy   rate   pdr%  load cv  relay mA"
        comparison = (out_dir / "comparison.csv").read_text().splitlines()[1:]
        assert [line.split()[:2] for line in lines[2:]] == [
            ["crns", "100"], ["crns", "1"], ["all", "100"], ["all", "1"]
        ]
        pdrs = [row.split(",")[2] for row in comparison]
        assert [line[16:22] for line in lines[2:]] == [
            f"{float(pdr):6.2f}" if pdr else " " * 6 for pdr in pdrs
        ]
        assert pdrs[1] == pdrs[3] == "" and pdrs[0] and pdrs[2]
        assert all(len(line) == len(lines[1]) for line in lines[2:])
        # summary.csv lists its runs in the table's (plan) order, 100 before 1
        cells = [("crns", "100.0"), ("crns", "1.0"), ("all", "100.0"), ("all", "1.0")]
        summary = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(tuple(row.split(",")[:2]) for row in summary)) == cells
        assert [tuple(row.split(",")[:2]) for row in comparison] == cells

    @pytest.mark.parametrize("algorithm", ["random", "all"])
    def test_select_config_honors_budget_and_all_range(self, algorithm, tmp_path):
        ini = write_ini(
            tmp_path,
            "[scenario]\nrange = 80m\nall_relays_range = 170\n[plan]\nrelay_budget = 3\n",
        )
        got, want = tmp_path / "select.csv", tmp_path / "materialize.csv"
        argv = ["select", "--config", str(ini), "--algorithm", algorithm, "--seed", "4"]
        assert main(argv + ["--out", str(got)]) == 0
        topo, assignment = materialize(parse_plan(ini), algorithm, seed=4)
        save_assignment_csv(topo, assignment, want)
        assert got.read_bytes() == want.read_bytes()
        assert topo.range_r == (170.0 if algorithm == "all" else 80.0)
        if algorithm == "random":
            assert len(assignment.relays) == 3

    def test_select_config_overrides(self, capsys, tmp_path):
        ini = write_ini(
            tmp_path,
            "[scenario]\nall_relays_range = 170\n[plan]\nrelay_budget = 3\n",
        )
        argv = ["select", "--config", str(ini), "--algorithm"]
        assert main(argv + ["all", "--range", "130m"]) == 0
        assert "at range 130m" in capsys.readouterr().out
        assert main(argv + ["random", "--count", "5"]) == 0
        assert "5 relays of 30 barrels at range 100m" in capsys.readouterr().out
        assert main(argv + ["random", "--count", "31"]) == 2
        assert capsys.readouterr().err == (
            "error: --count = '31': bad value, relay_budget must be an integer in [0, 30]\n"
        )
        # a plan whose own budget the layout cannot hold fails as it is
        # read, whatever --count says
        ini.write_text("[plan]\nrelay_budget = 99\n")
        out_dir = tmp_path / "out"
        for args in (["random", "--count", "5"], ["random"], ["crns"]):
            assert main(argv + args) == 2
            assert capsys.readouterr().err.startswith("error: plan.relay_budget = '99': bad value")
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: plan.relay_budget = '99': bad value")
        assert not out_dir.exists()

    def test_trace_overflow_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(se, "EVENT_LOG_CAP", 10)
        ini = write_ini(
            tmp_path,
            "[layout]\nsegments = row:270:90\n"
            "[scenario]\nalgorithms = crns\nrates = 1\nseeds = 1\nsim_time_s = 2\n",
        )
        argv = ["run", "--config", str(ini), "--out", str(tmp_path / "out"), "--emit-events"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: event trace exceeded 10 entries")
        assert "Traceback" not in err
