import random

import pytest

from oracles import crns_oracle, kmeans_oracle
from barrelmesh.cli import ExperimentPlan
from barrelmesh.relay_selection import (
    TIE_EPS,
    all_relays,
    crns_select,
    isolated_nodes,
    knn_relays,
    random_relays,
)
from barrelmesh.sim_engine import ScenarioConfig, run
from barrelmesh.topology import (
    FDOT_45MPH, LayoutSpec, Segment, build_layout, mask_of, topology_from_chainages,
)


@pytest.fixture(scope="module")
def preset():
    return build_layout(FDOT_45MPH)


def line_topology(*barrel_xs, sink_x=0.0, range_r=100.0):
    return topology_from_chainages(barrel_xs, sink_x, range_r)


class TestCrns:
    # Worked example used throughout: barrels at 90/180/270 m, sink at 0,
    # range 100. Node 0 hears the sink directly; 1 nominates 0 (score 2
    # minus 0.9 beats node 2's 1 minus 0.9); 2 then nominates 1.
    def test_three_barrel_line_trace(self):
        topo = line_topology(90.0, 180.0, 270.0)
        assert crns_select(topo) == (0, 1)

    def test_shipped_layout_matches_reference(self, preset):
        is_relay, _, _ = crns_oracle(preset.chainages, preset.sink, preset.range_r)
        assert list(crns_select(preset)) == [i for i, v in enumerate(is_relay) if v]

    def test_shipped_layout_relay_set_frozen(self, preset):
        assert crns_select(preset) == (
            7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        )

    def test_random_topologies_match_reference(self):
        rng = random.Random(1234)
        for _ in range(25):
            # unsorted rows: ids need not follow the chainage
            xs = [rng.uniform(0, 400) for _ in range(rng.randint(1, 8) + 1)]
            topo = topology_from_chainages(xs[:-1], xs[-1], 100.0)
            is_relay, _, _ = crns_oracle(xs, topo.sink, topo.range_r)
            assert list(crns_select(topo)) == [i for i, v in enumerate(is_relay) if v]

    def test_rating_exactly_tie_eps_short_is_a_tie(self):
        # barrel 2 at 0 m hears barrels 0 (5.00000001 m) and 1 (-5 m), each
        # of score 2 and not nominated yet, at range 10: 0 rates exactly
        # TIE_EPS below 1's 1.5, so both tie and the lower id, 0, wins. The
        # others' picks: 0 and 1 nominate 2 and 3 (in the sink's range at
        # -20 m), 4 nominates 5, and 5 and 6 nominate 4 and 5.
        topo = line_topology(
            5.00000001, -5.0, 0.0, -12.0, 13.0, 16.0, 24.0, sink_x=-20.0, range_r=10.0
        )
        assert 2.0 - 0.5 - TIE_EPS == 2.0 - topo.distance(2, 0) / topo.range_r
        assert crns_select(topo) == (0, 2, 3, 4, 5)
        is_relay, _, _ = crns_oracle(topo.chainages, topo.sink, topo.range_r)
        assert [i for i, v in enumerate(is_relay) if v] == [0, 2, 3, 4, 5]

    def test_everyone_in_sink_range_yields_no_relays(self):
        topo = line_topology(30.0, 60.0, 90.0)
        assert crns_select(topo) == ()

    def test_relay_mask(self):
        # the listener mask the engine builds from a relay set
        topo = line_topology(90.0, 180.0, 270.0)
        assert mask_of(crns_select(topo)) == 0b011


class TestBaselines:
    def test_all_relays_covers_every_barrel(self, preset):
        assert all_relays(preset) == tuple(range(30))

    def test_unreachable_barrel_attaches_nowhere(self):
        # barrel 1 is 510 m from every other node: no relay can carry it
        topo = line_topology(90.0, 600.0)
        assert isolated_nodes(topo, all_relays(topo)) == [1]

    def test_random_is_seed_deterministic(self, preset):
        a = random_relays(preset, 7, seed=42)
        assert a == random_relays(preset, 7, seed=42)
        assert len(a) == 7
        assert a == tuple(sorted(set(a)))

    def test_random_different_seeds_differ(self, preset):
        sets = {random_relays(preset, 7, seed=s) for s in range(20)}
        assert len(sets) > 1

    def test_random_accepts_zero_and_full_counts(self, preset):
        assert random_relays(preset, 0, seed=1) == ()
        assert random_relays(preset, 30, seed=1) == tuple(range(30))

    def test_knn_accepts_zero_count(self, preset):
        # a relay budget of 0 is in range, as it is for random
        assert knn_relays(preset, 0, seed=1) == ()

    def test_random_rejects_out_of_range_counts(self, preset):
        # True used to run as a count of 1, and 2.5 to end in random.sample's TypeError
        for count in (31, -1, True, 2.5):
            with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 30\]$"):
                random_relays(preset, count, seed=1)

    def test_knn_matches_reference_on_a_line(self, preset):
        xs = preset.chainages[: preset.sink]
        for k, seed in [(3, 0), (7, 1), (16, 2), (1, 3)]:
            assert list(knn_relays(preset, k, seed=seed)) == kmeans_oracle(xs, k, seed)

    def test_knn_with_k_equal_to_barrels_selects_all(self, preset):
        assert knn_relays(preset, 30, seed=9) == tuple(range(30))

    def test_knn_duplicate_heads_collapse(self):
        # the centroids start at 80, 35, 270 and 280 m and settle at 125,
        # 60, 187.5 and 275 m. The first one's cluster empties on the way,
        # so it keeps 125 m, where 80 m (barrel 4) and 170 m (barrel 1) are
        # nearest; barrel 1 heads it, and heads the cluster at 187.5 m too,
        # tied with 205 m (barrel 6): 4 clusters yield 3 distinct heads
        topo = line_topology(280.0, 170.0, 35.0, 65.0, 80.0, 270.0, 205.0, sink_x=-10.0)
        assert knn_relays(topo, 4, seed=5) == (0, 1, 3)

    def test_knn_rejects_bad_k(self, preset):
        for k in (-1, 31, True, 2.5):
            with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 30\]$"):
                knn_relays(preset, k, seed=1)


class TestCoverage:
    def test_shipped_layout_has_no_isolated_nodes_under_crns(self, preset):
        assert isolated_nodes(preset, crns_select(preset)) == []

    def test_gap_breaks_the_backbone(self):
        # barrel 2 is 200 m from everything that can still reach the sink
        topo = line_topology(90.0, 180.0, 380.0)
        assert isolated_nodes(topo, (0, 1)) == [2]

    def test_sink_adjacent_barrel_never_isolated(self):
        topo = line_topology(50.0, 400.0)
        assert isolated_nodes(topo, ()) == [1]

    def test_validate_accepts_every_strategy_on_the_preset(self, preset):
        budget = len(crns_select(preset))
        for a in (
            crns_select(preset),
            all_relays(preset),
            random_relays(preset, budget, seed=3),
            knn_relays(preset, budget, seed=3),
        ):
            assert isolated_nodes(preset, a) == []

    @pytest.mark.parametrize(
        "taker", ["run", "isolated_nodes", "ExperimentPlan"]
    )
    @pytest.mark.parametrize(
        "on_preset, relays, message",
        [
            pytest.param(False, (1, 0), "relays must ascend, each id once: 0 follows 1",
                         id="row-descending"),
            pytest.param(False, (0, 0, 1), "relays must ascend, each id once: 0 follows 0",
                         id="row-repeat"),
            pytest.param(False, [0, 1], "relays must be a tuple of barrel ids, got list",
                         id="row-list"),
            pytest.param(False, (0, 1, 3), r"relay 3 is not a barrel id in \[0, 3\)",
                         id="row-sink"),
            pytest.param(False, (-1, 0, 1), r"relay -1 is not a barrel id in \[0, 3\)",
                         id="row-negative"),
            pytest.param(False, (0, True), r"relay True is not a barrel id in \[0, 3\)",
                         id="row-bool"),
            # run used to count 4 relays here, where the set {9, 18, 24} has 3
            pytest.param(True, (9, 9, 18, 24), "relays must ascend, each id once: 9 follows 9",
                         id="preset-repeat"),
            pytest.param(True, (24, 9, 18), "relays must ascend, each id once: 9 follows 24",
                         id="preset-descending"),
            pytest.param(True, [9, 18], "relays must be a tuple of barrel ids, got list",
                         id="preset-list"),
            pytest.param(True, (-1,), r"relay -1 is not a barrel id in \[0, 30\)",
                         id="preset-negative"),
            pytest.param(True, (30,), r"relay 30 is not a barrel id in \[0, 30\)",
                         id="preset-sink"),
        ],
    )
    def test_every_taker_refuses_a_bad_relay_set(self, preset, taker, on_preset, relays, message):
        # topology.check_relays: a tuple of int ids, not bools, each a barrel
        # of the row, ascending, each once; anything else is a one-line error.
        # A plan holds its relays for fixed on a layout of as many barrels.
        topo = preset if on_preset else line_topology(90.0, 180.0, 270.0)
        layout = FDOT_45MPH if on_preset else LayoutSpec(segments=(Segment("row", 180.0, 90.0),))
        call = {
            "run": lambda: run(topo, relays, ScenarioConfig(app_rate_pps=4.0, seed=1000)),
            "isolated_nodes": lambda: isolated_nodes(topo, relays),
            "ExperimentPlan": lambda: ExperimentPlan(layout, algorithms=("fixed",), relays=relays),
        }[taker]
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_validate_flags_isolation(self):
        topo = line_topology(90.0, 180.0, 380.0)
        a = crns_select(topo)
        assert isolated_nodes(topo, a) == [2]

