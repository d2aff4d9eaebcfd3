"""Acceptance gate for the shipped experiment.

One test per release claim, each printing a single PASS/FAIL line (run with
-s or -v to see them). The expensive part, the full four-strategy two-rate
twenty-seed matrix on the shipped layout, runs once as a session fixture and
feeds every statistical check. A8, the invariant suite's time budget, is the
last test of tests/test_properties.py, where it judges the suite's own run.
"""
import hashlib
import math
import os
import random
import statistics
import time

import pytest

from oracles import crns_oracle
from barrelmesh.cli import (
    EXPERIMENT_PRESETS,
    execute_cell,
    materialize,
    run_matrix,
    scenario_for,
    write_outputs,
)
from barrelmesh.metrics import (
    PowerProfile,
    mean_relay_current_ma,
    network_pdr,
    node_current_ma,
    per_node_pdr,
    relay_load_stats,
    write_node_csv,
)
from barrelmesh.relay_selection import crns_select, isolated_nodes
from barrelmesh.sim_engine import run
from barrelmesh.topology import build_layout, topology_from_chainages

N_SEEDS = 20
RATES = (1.0, 4.0)

# sha256 of the shipped matrix's outputs; "runs" is `cat runs/*.csv | sha256sum`
# and "plotdata" is `cat plotdata/*.csv | sha256sum`
GOLDEN_DIGESTS = {
    "summary.csv": "22ef372620571c8a16e459a9292efb1e9e78e43249861e844ca2612350b4eb93",
    "comparison.csv": "f906feac05157d1f611a9354be5623d726c1c0639541f393e3f971843f3afb5f",
    "runs": "2b8e6993571a17becd5af514e6ad0bfb8ba2fd1553a5716e1c8c4e1fd1aedff1",
    "plotdata": "da9b1910d622fa407e773f1f7113db3dbdd62f98aeee8020097bc168d5ea1e80",
}


def check(tag, label, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {label} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def matrix():
    """All four strategies at both rates on the shipped layout, 20 seeds, run
    in a process pool where there is more than one core. worker_s is the
    pool's wall time times its workers: no less than the serial work, since
    no worker is busy for longer than the wall time."""
    plan = EXPERIMENT_PRESETS["paper"]
    assert plan.n_seeds == N_SEEDS and plan.rates_pps == RATES
    workers = min(2, os.cpu_count() or 1)
    start = time.perf_counter()
    results = run_matrix(plan, workers=workers)
    worker_s = workers * (time.perf_counter() - start)
    by_cell = {}
    for algorithm, rate, seed, result in results:
        by_cell.setdefault((algorithm, rate), []).append(result)
    assert all(len(v) == N_SEEDS for v in by_cell.values())
    return {"plan": plan, "results": results, "cells": by_cell, "worker_s": worker_s}


def mean_pdr(cells, algorithm, rate):
    return statistics.fmean(network_pdr(r) for r in cells[algorithm, rate])


def test_selection_matches_independent_walkthrough():
    """A1: ranked selection equals a brute-force restaging, 50 random rows."""
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    for case in range(50):
        n_barrels = rng.randint(1, 7)
        xs = [rng.uniform(0.0, 400.0) for _ in range(n_barrels + 1)]
        r = rng.uniform(25.0, 160.0)
        topo = topology_from_chainages(xs[:-1], xs[-1], r)
        got = crns_select(topo)
        is_relay, _, _ = crns_oracle(xs, topo.sink, r)
        assert got == tuple(i for i, f in enumerate(is_relay) if f)
    elapsed = time.perf_counter() - start
    check(
        "A1",
        "relay selection matches the independent walkthrough",
        elapsed < 5.0,
        f"50 random topologies, exact relay sets, {elapsed:.2f}s",
    )


def test_shipped_layout_leaves_no_barrel_stranded():
    """A2: every barrel on the shipped layout has a relay path to the sink."""
    start = time.perf_counter()
    topo = build_layout(EXPERIMENT_PRESETS["paper"].layout)
    isolated = isolated_nodes(topo, crns_select(topo))
    elapsed = time.perf_counter() - start
    check(
        "A2",
        "shipped 30-barrel layout is fully served",
        isolated == [] and elapsed < 1.0,
        f"isolated barrels: {isolated!r}, {elapsed:.2f}s",
    )


def test_delivery_ordering_across_strategies(matrix):
    """A3: mean delivery ratio ranks the strategies as published."""
    cells = matrix["cells"]
    p = {
        (a, r): mean_pdr(cells, a, r)
        for a in ("crns", "random", "knn", "all")
        for r in RATES
    }
    ordering_hot = (
        p["crns", 4.0] > p["random", 4.0] > p["knn", 4.0] >= p["all", 4.0]
    )
    ordering_idle = all(
        p["crns", 1.0] > p[a, 1.0] for a in ("random", "knn", "all")
    )
    in_band = all(66.0 <= p["crns", r] <= 97.0 for r in RATES)
    fast_enough = matrix["worker_s"] < 120.0
    detail = (
        "4pps crns/random/knn/all = "
        + "/".join(f"{p[a, 4.0]:.1f}" for a in ("crns", "random", "knn", "all"))
        + "; 1pps = "
        + "/".join(f"{p[a, 1.0]:.1f}" for a in ("crns", "random", "knn", "all"))
        + f"; matrix {matrix['worker_s']:.0f}s wall x workers"
    )
    check(
        "A3",
        "delivery ordering and band over 20 seeds",
        ordering_hot and ordering_idle and in_band and fast_enough,
        detail,
    )


def test_every_barrel_keeps_usable_delivery(matrix):
    """A4: no dead barrels, and most barrels deliver well, at both rates."""
    cells = matrix["cells"]
    worst = 100.0
    medians = {}
    zero_nodes = 0
    for rate in RATES:
        per_node = []
        for result in cells["crns", rate]:
            pdrs = [v for v in per_node_pdr(result) if v is not None]
            worst = min(worst, min(pdrs))
            zero_nodes += sum(1 for v in pdrs if v == 0.0)
            per_node.append(pdrs)
        node_means = [statistics.fmean(col) for col in zip(*per_node)]
        medians[rate] = statistics.median(node_means)
    ok = zero_nodes == 0 and all(m > 50.0 for m in medians.values())
    check(
        "A4",
        "per-barrel delivery floor under ranked selection",
        ok,
        f"zero-delivery barrel-runs: {zero_nodes}, worst {worst:.1f}, "
        f"medians {medians[1.0]:.1f}@1pps {medians[4.0]:.1f}@4pps",
    )


def test_ranked_selection_balances_relay_load(matrix):
    """A5: forwarding load varies less across ranked relays than random ones."""
    cells = matrix["cells"]

    def mean_cv(algorithm):
        cvs = []
        for rate in RATES:
            for result in cells[algorithm, rate]:
                cvs.append(relay_load_stats(result)["cv"])
        return statistics.fmean(cvs)

    cv_crns, cv_random = mean_cv("crns"), mean_cv("random")
    check(
        "A5",
        "relay-load spread, ranked vs random at equal budget",
        cv_crns < cv_random,
        f"mean cv {cv_crns:.3f} < {cv_random:.3f}",
    )


def test_power_draw_ordering(matrix):
    """A6: relay current ordering, plus the exact blend arithmetic."""
    cells = matrix["cells"]
    profile = PowerProfile()

    def relay_ma(algorithm):
        return statistics.fmean(
            mean_relay_current_ma(result, profile)
            for rate in RATES
            for result in cells[algorithm, rate]
        )

    ma = {a: relay_ma(a) for a in ("crns", "all", "random", "knn")}
    ordered = all(
        ma[low] <= ma[high]
        for low in ("crns", "all")
        for high in ("random", "knn")
    )
    blend = node_current_ma(0.1, 0.3, 0.6, profile)
    arithmetic = (
        math.isclose(blend, 2.8018, abs_tol=1e-12)
        and node_current_ma(0.0, 0.0, 1.0, profile) == profile.i_sleep_ma
        and node_current_ma(1.0, 0.0, 0.0, profile) == profile.i_tx_ma
    )
    check(
        "A6",
        "relay power ordering and reference blend",
        ordered and arithmetic,
        "mA " + " ".join(f"{a}={ma[a]:.3f}" for a in ma) + f", blend {blend:.4f}",
    )


def test_reruns_are_bit_identical(matrix, tmp_path):
    """A7: same inputs, same bits, in and out of process pools."""
    plan = matrix["plan"]
    seed = plan.base_seed + 3
    topo, assignment = materialize(plan, "crns", seed)
    config = scenario_for(plan, 4.0, seed)
    first = run(topo, assignment, config)
    second = run(topo, assignment, config)
    cell = execute_cell((plan, "crns", 4.0, seed, False))[3]
    stored = matrix["cells"]["crns", 4.0][3]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_node_csv(first, PowerProfile(), paths[0])
    write_node_csv(second, PowerProfile(), paths[1])
    same_bytes = paths[0].read_bytes() == paths[1].read_bytes()
    ok = first == second == cell == stored and same_bytes
    check(
        "A7",
        "bit-identical reruns and byte-identical CSVs",
        ok,
        f"result equality {first == second == cell == stored}, csv {same_bytes}",
    )


def test_outputs_match_golden_digests(matrix, tmp_path):
    """A9: the shipped matrix writes exactly the pinned output bytes."""
    write_outputs(matrix["plan"], matrix["results"], tmp_path, 0.0, 1)

    def sha(paths):
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.read_bytes())
        return digest.hexdigest()

    got = {
        "summary.csv": sha([tmp_path / "summary.csv"]),
        "comparison.csv": sha([tmp_path / "comparison.csv"]),
        "runs": sha(sorted((tmp_path / "runs").glob("*.csv"))),
        "plotdata": sha(sorted((tmp_path / "plotdata").glob("*.csv"))),
    }
    differ = [name for name in GOLDEN_DIGESTS if got[name] != GOLDEN_DIGESTS[name]]
    check(
        "A9",
        "shipped matrix reproduces the golden digests",
        not differ,
        f"differing: {differ or 'none'}",
    )

