import csv
import hashlib
import json
import os
import re
import shlex
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
    EXPERIMENT_PRESETS,
    PLAN_KEYS,
    ExperimentPlan,
    main,
    materialize,
    parse_length,
    parse_plan,
    relay_budget,
    run_matrix,
    write_outputs,
)
from barrelmesh.metrics import PowerProfile
from barrelmesh.relay_selection import crns_select, validate_assignment
from barrelmesh.sim_engine import ChannelConfig
from barrelmesh.topology import (
    MAX_BARRELS, LayoutSpec, Segment, build_layout, feet,
)
from opcodes import count_calls


def tiny_plan(**kw):
    """Four barrels, two seeds, short runs; fast enough for every test here."""
    layout = LayoutSpec(segments=(Segment("row", 270.0, 90.0),))
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


PAPER_ALGORITHMS = EXPERIMENT_PRESETS["paper"].algorithms
# crns's relay set on the paper layout at 100 m, as a plan line
CRNS_RELAYS = "relays = " + ",".join(map(str, range(7, 25)))


def select_report(algorithm, topo, relays):
    """select's exit code and printed lines for relays of algorithm on topo."""
    issues = validate_assignment(topo, relays)
    return 1 if issues else 0, [
        f"{algorithm}: {len(relays)} relays of {topo.sink} barrels at range {topo.range_r:g}m",
        "relays = " + ",".join(map(str, relays)),
        *issues,
    ]


def select(capsys, argv):
    """main's exit code for `select` with argv, and the lines it printed."""
    code = main(["select", *argv])
    return code, capsys.readouterr().out.splitlines()


class TestParseLength:
    def test_feet_suffix(self):
        assert parse_length("30ft") == pytest.approx(feet(30.0))

    def test_meter_suffix(self):
        assert parse_length("9.1m") == pytest.approx(9.1)

    def test_bare_number_is_meters(self):
        assert parse_length(" 100 ") == pytest.approx(100.0)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="^cannot parse length 'fast'$"):
            parse_length("fast")


class TestParsePlan:
    def test_defaults_match_shipped_preset(self, tmp_path):
        plan = parse_plan(write_ini(tmp_path, ""))
        assert plan == EXPERIMENT_PRESETS["paper"]

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.ini"
        with pytest.raises(ValueError, match=f"^cannot read plan file {re.escape(str(path))}$"):
            parse_plan(path)

    def test_undecodable_file_named_in_error(self, tmp_path):
        # the UnicodeDecodeError used to pass through without the file name
        path = tmp_path / "plan.ini"
        path.write_bytes(b"\xff\xfe[scenario]\n")
        with pytest.raises(ValueError) as error:
            parse_plan(path)
        assert str(error.value) == (
            f"cannot read plan file {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        )

    def test_unknown_section_named_in_error(self, tmp_path):
        path = write_ini(tmp_path, "[radio]\nx = 1\n")
        with pytest.raises(ValueError, match=r"\[radio\]"):
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
            with pytest.raises(ValueError, match=f"^unknown key {section}.{key}$"):
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
        with pytest.raises(ValueError, match="name:length:spacing"):
            parse_plan(path)

    def test_sink_placement_and_offsets(self, tmp_path):
        # a chainage places the sink by itself, upstream of the row when negative
        path = write_ini(tmp_path, "[layout]\nsink_placement = 50ft\n")
        assert parse_plan(path).layout.sink_placement == pytest.approx(feet(50.0))
        path = write_ini(tmp_path, "[layout]\nsink_placement = -25m\n")
        topo = build_layout(parse_plan(path).layout)
        assert topo.positions[topo.sink] == (-25.0, 0.0)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nalgorithms = crns,best\n")
        with pytest.raises(ValueError, match="best"):
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
        assert set_by == Counter(want)

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
        assert len(blocks) == 3
        for block in blocks:
            parse_plan(write_ini(tmp_path, block))

    def test_relays_parse_with_fixed(self, tmp_path):
        # an empty value is the empty set; ids are barrels of the plan's own
        # layout, here 91 of them, which also go on before the runs bound
        # counts seeds = 50000 at one rate
        path = write_ini(tmp_path, "[scenario]\nalgorithms = fixed\n[plan]\nrelays =\n")
        assert parse_plan(path).relays == ()
        path = write_ini(
            tmp_path,
            "[layout]\nsegments = row:900m:10m\n"
            "[scenario]\nalgorithms = fixed\nrates = 1\nseeds = 50000\n"
            "[plan]\nrelays = 50, 80\n",
        )
        plan = parse_plan(path)
        assert (plan.algorithms, plan.relays, plan.n_seeds) == (("fixed",), (50, 80), 50000)

    def test_bad_int_reported_as_plan_error(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nttl = many\n")
        with pytest.raises(ValueError, match=re.escape(
            "scenario.ttl = 'many': bad value, invalid literal for int() with base 10: 'many'"
        )):
            parse_plan(path)


class TestBudgetAndMaterialize:
    def test_budget_follows_ranked_selection(self):
        plan = EXPERIMENT_PRESETS["paper"]
        assert relay_budget(plan, build_layout(plan.layout, plan.range_r_m)) == 18

    def test_budget_follows_the_topology_it_is_given(self):
        plan = EXPERIMENT_PRESETS["paper"]
        topo = build_layout(plan.layout, 71.0)
        budget = relay_budget(plan, topo)
        assert budget == len(cli.crns_select(topo))
        assert relay_budget(plan, build_layout(plan.layout, 60.0)) != budget

    def test_explicit_budget_wins(self):
        plan = replace(EXPERIMENT_PRESETS["paper"], relay_budget=5)
        assert relay_budget(plan, build_layout(plan.layout, plan.range_r_m)) == 5

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
        assert len(rnd) == 18
        assert 1 <= len(knn) <= 18  # duplicate heads may collapse

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="^unknown algorithm 'flood'$"):
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

    def test_start_sink_writes_what_its_chainage_writes(self, tmp_path):
        # the sink's position has one key: start is the chainage 10 m before
        # the first barrel, and no second key moves it
        assert [f.name for f in fields(LayoutSpec)] == ["segments", "sink_placement"]
        plan = tiny_plan()
        chainage = replace(plan, layout=replace(plan.layout, sink_placement=-10.0))
        a, b = tmp_path / "start", tmp_path / "chainage"
        write_outputs(plan, run_matrix(plan), a, 1.0, workers=1)
        write_outputs(chainage, run_matrix(chainage), b, 1.0, workers=1)
        names = sorted(p.relative_to(a) for p in a.glob("runs/*.csv"))
        assert names == sorted(p.relative_to(b) for p in b.glob("runs/*.csv"))
        for rel in [Path("summary.csv"), *names]:
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

    def test_events_and_assignment_bytes_pinned(self, capsys, matrix, tmp_path):
        # the golden digests cover neither the event traces nor select's sets
        plan, results = matrix
        write_outputs(plan, results, tmp_path, 1.0, workers=1)
        events = sorted((tmp_path / "runs").glob("*_events.csv"))
        assert hashlib.sha256(b"".join(path.read_bytes() for path in events)).hexdigest() == (
            "b82238de8ca54a5ec25f4d34a7b192924c6e81d1739400afb80b4390e349a53d"
        )
        # the relay rows of the assignment files that select wrote at seed 4
        # (sha256 f2420a8a... for the four), so no selection moved
        pinned = {
            "crns": CRNS_RELAYS,
            "random": "relays = 0,1,2,3,4,5,7,8,9,12,14,15,17,22,23,25,28,29",
            "knn": "relays = 0,1,2,3,4,5,6,8,9,12,14,15,18,20,23,25,27,29",
            "all": "relays = " + ",".join(map(str, range(30))),
        }
        for algorithm, line in pinned.items():
            _, lines = select(capsys, ["--algorithm", algorithm, "--seed", "4"])
            assert lines[1] == line, algorithm

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
    ("plan", "relays = 30", "relays"),  # fdot_45mph's barrels are 0 to 29
    ("plan", "relays = 18,9", "relays"),
    ("plan", "relays = 9.5", "relays"),
    ("plan", "relays = 9", "relays"),  # only fixed simulates them
    ("scenario", "algorithms = fixed", "algorithms"),  # with no relays to simulate
    ("layout", "segments = row:270:0", "segments"),
    ("layout", "segments = row:inf:90", "segments"),
    ("layout", "segments = ,", "segments"),
    # each used to end in a MemoryError, run without end, or end in an
    # OverflowError, placing barrels past the bound
    ("layout", "segments = work:1e12m:1m", "segments"),
    ("layout", "segments = a:100m:1e-300m", "segments"),
    ("layout", "segments = a:1e308m:1e-10m", "segments"),
    ("layout", "sink_placement = nan", "sink_placement"),
    ("layout", "sink_placement = 0", "sink_placement"),  # the first barrel's chainage
    (None, "ttl = 3", None),
    ("scenario", "ttl = 3\nttl = 4", None),
    ("scenario", "ttl = 3\n[scenario]\nseeds = 1", None),
    ("scenario", "ttl = 3\nno equals sign", None),
    ("DEFAULT", "ttl = 3", None),
    ("DEFAULT", "ttl = 3\n[scenario]\nseeds = 1", None),
    ("DEFAULT", "ttl = 3\n[plan]\ncopies = 2", None),
]

# (argv, flag): a run or select call that must fail naming the flag
BAD_FLAGS = [
    (["run", "--seed", "-1"], "--seed"),
    (["select", "--algorithm", "random", "--seed", "-1"], "--seed"),
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
        if part == "plan":
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


def test_plan_rejects_an_unknown_sink_placement():
    layout = LayoutSpec(segments=(Segment("row", 270.0, 90.0),), sink_placement="middle")
    with pytest.raises(ValueError, match="^unknown sink placement 'middle'$"):
        ExperimentPlan(layout=layout)


def test_plan_bounds_are_inclusive():
    # the most runs and the largest relay budget a plan may hold; the
    # paper's 8 cells make MAX_RUNS runs at 10,000 seeds
    paper = EXPERIMENT_PRESETS["paper"]
    assert replace(paper, n_seeds=10_000).n_seeds * 8 == cli.MAX_RUNS
    bound = r"^80008 runs \(algorithms x rates x seeds\) exceed the bound of 80000$"
    with pytest.raises(ValueError, match=bound):
        replace(paper, n_seeds=10_001)
    assert replace(paper, relay_budget=30).relay_budget == 30


def test_plan_counts_its_runs_at_its_own_seed_count(tmp_path):
    # 1,001 rates are judged at 10 seeds, not at the default 20, which would
    # make 80,080 runs
    rates = ", ".join(map(str, range(1, 1002)))
    plan = parse_plan(write_ini(tmp_path, f"[scenario]\nrates = {rates}\nseeds = 10\n"))
    assert (len(plan.rates_pps), plan.n_seeds) == (1001, 10)


def test_plan_counts_its_runs_at_its_own_rate_count(tmp_path):
    # 50,000 seeds are judged at one rate, not at the default two, which
    # would make 100,000 runs
    text = "[scenario]\nalgorithms = crns\nrates = 1\nseeds = 50000\n"
    plan = parse_plan(write_ini(tmp_path, text))
    assert len(plan.algorithms) * len(plan.rates_pps) * plan.n_seeds == 50_000


FIXED = "[scenario]\nalgorithms = fixed\n"


@pytest.mark.parametrize(
    "text, err",
    [
        (
            FIXED + "[plan]\nrelays = 30\n",
            "scenario.algorithms = 'fixed', plan.relays = '30': bad value, "
            "relay 30 is not a barrel id in [0, 30)",
        ),
        (
            FIXED + "[plan]\nrelays = 18,9\n",
            "scenario.algorithms = 'fixed', plan.relays = '18,9': bad value, "
            "relays must ascend, each id once: 9 follows 18",
        ),
        (
            FIXED + "[plan]\nrelays = 9.5\n",
            "plan.relays = '9.5': bad value, invalid literal for int() with base 10: '9.5'",
        ),
        (
            "[plan]\nrelays = 9\n",
            "plan.relays = '9': bad value, only fixed simulates plan.relays, "
            "and algorithms does not list it",
        ),
        (
            "[scenario]\nalgorithms = crns\n[plan]\nrelays =\n",
            "scenario.algorithms = 'crns', plan.relays = '': bad value, "
            "only fixed simulates plan.relays, and algorithms does not list it",
        ),
        (
            FIXED,
            "scenario.algorithms = 'fixed': bad value, fixed simulates plan.relays, "
            "and the plan sets none",
        ),
        # a partner of algorithms that is bad itself is named alone
        (
            FIXED + "seeds = -1\n[plan]\nrelays = 9\n",
            "scenario.seeds = '-1': bad value, n_seeds must be an integer >= 1",
        ),
    ],
    ids=["past-the-row", "descending", "non-integer", "without-fixed", "empty-without-fixed",
         "fixed-without-relays", "bad-partner"],
)
def test_plan_relays_refusals_name_their_keys(capsys, tmp_path, text, err):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_ini(tmp_path, text)), "--out", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not out_dir.exists()


def test_select_fixed_needs_plan_relays(capsys):
    assert main(["select", "--algorithm", "fixed"]) == 2
    assert capsys.readouterr() == ("", "error: fixed simulates plan.relays, and the plan sets none\n")


def test_fixed_runs_exactly_what_crns_runs(tmp_path):
    # the relay set is the engine's whole input: fixed on crns's set writes
    # crns's rows and run files, but for the algorithm label and file names
    ini = write_ini(
        tmp_path,
        "[scenario]\nalgorithms = crns, fixed\nrates = 4\nseeds = 2\nsim_time_s = 2\n"
        f"[plan]\n{CRNS_RELAYS}\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["crns", "crns", "fixed", "fixed"]
    assert [row.replace("fixed,", "crns,", 1) for row in rows[2:]] == rows[:2]
    for seed in (1000, 1001):
        crns, fixed = (out / "runs" / f"{algorithm}_4_{seed}.csv" for algorithm in ("crns", "fixed"))
        assert crns.read_bytes() == fixed.read_bytes()
    assert len(list((out / "runs").iterdir())) == 4


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
        ({"layout": {"sink_placement": "1e308"}}, 0, ""),
    ],
    ids=["horizon", "interval", "copies", "zone-count", "sink-zone"],
)
def test_overflowing_plan_values(capsys, tmp_path, sections, code, err):
    assert run_plan(tmp_path, cheap_plan_text(**sections)) == code
    got = capsys.readouterr().err
    assert got.startswith(err) and got.count("\n") == (1 if err else 0)


class TestVerbs:
    def test_presets_lists_each_plan_with_its_layout(self, capsys):
        assert main(["presets"]) == 0
        assert capsys.readouterr().out == (
            "paper: crns,all,random,knn x rates 1,4/s x 20 seeds, 20s each, on 30 barrels "
            "over 347.5m (taper 146.3m @ 9.14m, buffer 146.3m @ 14.63m, work 54.9m @ 18.29m)\n"
        )

    def test_select_reports_relay_set(self, capsys):
        # as a line a plan takes, and with no barrel isolated, exit 0
        assert select(capsys, ["--algorithm", "crns"]) == (
            0, ["crns: 18 relays of 30 barrels at range 100m", CRNS_RELAYS]
        )

    @pytest.mark.parametrize(
        "range_args, range_m", [([], 100.0), (["range = 130m", "all_relays_range = 130m"], 130.0)]
    )
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_select_writes_materialized_assignment(
        self, capsys, algorithm, range_args, range_m, tmp_path
    ):
        # range_args are the [scenario] lines of the plan, which set both ranges
        ini = write_ini(tmp_path, "[scenario]\n" + "".join(f"{line}\n" for line in range_args))
        got = select(capsys, ["--algorithm", algorithm, "--config", str(ini), "--seed", "4"])
        plan = replace(EXPERIMENT_PRESETS["paper"], base_seed=4, range_r_m=range_m)
        if range_args:
            plan = replace(plan, all_relays_range_m=range_m)
        assert got == select_report(algorithm, *materialize(plan, algorithm, plan.base_seed))

    @pytest.mark.parametrize("overrides", [[], ["--seed", "4"]], ids=["plan", "overrides"])
    @pytest.mark.parametrize("source", ["preset", "config"])
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_select_writes_the_cell_of_its_plan(
        self, capsys, algorithm, source, overrides, tmp_path
    ):
        # the relay set a run of the plan simulates for the algorithm at its
        # base seed: `all` at its own range, random and knn sampled at the seed
        plan, argv = EXPERIMENT_PRESETS["paper"], ["--algorithm", algorithm]
        if source == "config":
            ini = write_ini(
                tmp_path,
                "[scenario]\nbase_seed = 7\nrange = 130m\nall_relays_range = 130m\n"
                "[plan]\nrelay_budget = 5\n",
            )
            plan, argv = parse_plan(ini), argv + ["--config", str(ini)]
        if overrides:
            plan = replace(plan, base_seed=4)
        got = select(capsys, argv + overrides)
        assert got == select_report(algorithm, *materialize(plan, algorithm, plan.base_seed))

    def test_readme_cli_lines_parse(self):
        # a flag that is gone must not live on in the docs
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme.read_text(), re.S | re.M)
        lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
        assert lines and all(words[0] == "barrelmesh" for words in lines)
        for words in lines:
            cli.build_parser().parse_args(words[1:])

    @pytest.mark.parametrize(
        "plan, argv, err",
        [
            ("[layout]\npreset = fdot_45mph\n", ["select"], "error: unknown key layout.preset\n"),
            (
                "[layout]\nsink_standoff = 10m\n", ["select"],
                "error: unknown key layout.sink_standoff\n",
            ),
            (None, ["select", "--range", "130m"], "error: unrecognized arguments: --range 130m\n"),
            (None, ["select", "--count", "5"], "error: unrecognized arguments: --count 5\n"),
            (
                None, ["validate", "--assignment", "a.csv"],
                "error: argument command: invalid choice: 'validate' "
                "(choose from 'run', 'select', 'presets')\n",
            ),
            (None, ["select", "--out", "a.csv"], "error: unrecognized arguments: --out a.csv\n"),
        ],
        ids=["layout.preset", "layout.sink_standoff", "--range", "--count", "validate", "--out"],
    )
    def test_removed_spellings_exit_2(self, capsys, tmp_path, monkeypatch, plan, argv, err):
        # each named a value a plan key names too: the layout, the sink's
        # position, a range or relay budget of select's plan, or a relay set
        # that a file held and plan.relays now holds
        monkeypatch.chdir(tmp_path)
        if plan:
            argv = argv + ["--config", str(write_ini(tmp_path, plan))]
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's own usage error
            code = exit_.code
        assert code == 2
        assert capsys.readouterr().err.endswith(err)
        assert list(tmp_path.iterdir()) == ([tmp_path / "plan.ini"] if plan else [])

    @pytest.mark.parametrize("verb, out, step, reason", [
        ("run", "afile/r", "run_matrix", "Not a directory"),
    ])
    def test_out_under_a_plain_file_exits_2_first(
        self, capsys, tmp_path, monkeypatch, verb, out, step, reason
    ):
        # both used to run or select first, then fail on the directory with
        # an error that named no flag
        (tmp_path / "afile").write_text("precious")
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, step, lambda *args, **kw: calls.append(args))
        assert main([verb, "--out", out]) == 2
        assert calls == []
        assert capsys.readouterr() == ("", f"error: --out = {out!r}: bad value, {reason}\n")
        assert (tmp_path / "afile").read_text() == "precious"

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

    @pytest.mark.parametrize("argv, flag", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
    def test_bad_flag_exits_2(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "out"
        assert main(argv + (["--out", str(path)] if argv[0] == "run" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} = ")
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("verb, preset", [("run", "paper"), ("select", "fdot_45mph")])
    def test_config_and_preset_conflict(self, capsys, tmp_path, verb, preset):
        ini = write_ini(tmp_path, "[scenario]\nseeds = 1\n")
        out = ["--out", str(tmp_path / "o")] if verb == "run" else []
        with pytest.raises(SystemExit) as exit_:
            main([verb, "--config", str(ini), "--preset", preset, *out])
        assert exit_.value.code == 2
        assert "--preset: not allowed with argument --config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_select_fixed_checks_coverage_at_the_plan_range(self, capsys, tmp_path):
        # crns's relays at 200 m, barrels 15 to 20, reach no barrel in the
        # sink's range at 100 m: fixed on them exits 0 at 200 m, and at
        # 100 m exits 1 naming each barrel past the sink's range
        relays = crns_select(build_layout(EXPERIMENT_PRESETS["paper"].layout, 200.0))
        line = "relays = " + ",".join(map(str, relays))
        for range_m, code in ((200, 0), (100, 1)):
            ini = write_ini(tmp_path, f"{FIXED}range = {range_m}m\n[plan]\n{line}\n")
            got = select(capsys, ["--config", str(ini), "--algorithm", "fixed"])
            assert got[0] == code
            assert got[1][:2] == [f"fixed: 6 relays of 30 barrels at range {range_m}m", line]
        assert got[1][2:] == [f"node {i} is isolated: no relay path to the sink" for i in range(10, 30)]

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

    def test_select_knn_accepts_a_zero_count(self, capsys, tmp_path):
        # and reports the barrels out of the sink's range as isolated
        ini = write_ini(tmp_path, "[plan]\nrelay_budget = 0\n")
        code, lines = select(capsys, ["--algorithm", "knn", "--config", str(ini)])
        assert (code, lines[:2]) == (1, ["knn: 0 relays of 30 barrels at range 100m", "relays = "])
        assert lines[2] == "node 10 is isolated: no relay path to the sink"

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
        # a host that cannot count its CPUs runs one worker
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        argv = ["run", "--config", str(ini), "--workers", "0", "--out", str(tmp_path / "unknown")]
        assert main(argv) == 0
        assert asked[-1] == 1

    def test_run_refuses_a_seed_count_past_the_bound(self, capsys, tmp_path):
        ini = write_ini(tmp_path, "[scenario]\nseeds = 1000000000\n")
        out_dir = tmp_path / "out"
        start = time.perf_counter()
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: scenario.seeds = '1000000000': bad value, "
            "8000000000 runs (algorithms x rates x seeds) exceed the bound of 80000\n"
        )
        assert not out_dir.exists()

    def test_run_refuses_a_rate_count_past_the_bound(self, capsys, monkeypatch, tmp_path):
        # 4 algorithms x 1,001 rates x 20 seeds; such a plan used to be read
        # whole, and 100,000 rates ended in a MemoryError as run_matrix
        # listed its jobs
        monkeypatch.setattr(cli, "run_matrix", lambda *args, **kw: pytest.fail("ran"))
        rates = ", ".join(map(str, range(1, 1002)))
        ini = write_ini(tmp_path, f"[scenario]\nrates = {rates}\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: scenario.rates = {rates!r}: bad value, "
            "80080 runs (algorithms x rates x seeds) exceed the bound of 80000\n"
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

    @pytest.mark.parametrize("preset", ["bogus", "fdot_45mph"])
    def test_unknown_experiment_preset_in_select(self, capsys, preset):
        # select names a plan like run does, never a layout
        assert main(["select", "--preset", preset]) == 2
        assert capsys.readouterr().err == (
            f"error: --preset = {preset!r}: bad value, must be one of paper\n"
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
        # load cv and relay mA to 3 decimals
        power = (out_dir / "plotdata" / "power_vs_pdr.csv").read_text().splitlines()[1:]
        assert [line[32:] for line in lines[2:]] == [
            f"{float(row.split(',')[2]):9.3f}" for row in power
        ]
        assert all(re.fullmatch(r" *\d+\.\d{3}", line[23:31]) for line in lines[2:])
        assert all(len(line) == len(lines[1]) for line in lines[2:])
        # summary.csv lists its runs in the table's (plan) order, 100 before 1
        cells = [("crns", "100.0"), ("crns", "1.0"), ("all", "100.0"), ("all", "1.0")]
        summary = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(tuple(row.split(",")[:2]) for row in summary)) == cells
        assert [tuple(row.split(",")[:2]) for row in comparison] == cells

    @pytest.mark.parametrize("algorithm", ["random", "all"])
    def test_select_config_honors_budget_and_all_range(self, capsys, algorithm, tmp_path):
        ini = write_ini(
            tmp_path,
            "[scenario]\nrange = 80m\nall_relays_range = 170\n[plan]\nrelay_budget = 3\n",
        )
        got = select(capsys, ["--config", str(ini), "--algorithm", algorithm, "--seed", "4"])
        topo, relays = materialize(parse_plan(ini), algorithm, seed=4)
        assert got == select_report(algorithm, topo, relays)
        assert topo.range_r == (170.0 if algorithm == "all" else 80.0)
        if algorithm == "random":
            assert len(relays) == 3

    def test_select_config_overrides(self, capsys, tmp_path):
        # a plan whose own budget the layout cannot hold fails as it is read,
        # for every algorithm and verb
        ini = write_ini(tmp_path, "[plan]\nrelay_budget = 99\n")
        argv = ["select", "--config", str(ini), "--algorithm"]
        out_dir = tmp_path / "out"
        for args in (["random"], ["crns"]):
            assert main(argv + args) == 2
            assert capsys.readouterr().err == (
                "error: plan.relay_budget = '99': bad value, "
                "relay_budget must be an integer in [0, 30]\n"
            )
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
