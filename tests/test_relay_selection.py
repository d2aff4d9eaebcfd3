import csv
import random

import pytest

from oracles import crns_oracle, kmeans_oracle
from barrelmesh.relay_selection import (
    RelayAssignment,
    all_relays,
    crns_select,
    isolated_nodes,
    knn_relays,
    load_assignment_csv,
    random_relays,
    save_assignment_csv,
    validate_assignment,
)
from barrelmesh.topology import FDOT_45MPH, build_layout, topology_from_positions


@pytest.fixture(scope="module")
def preset():
    return build_layout(FDOT_45MPH)


def line_topology(*barrel_xs, sink_x=0.0, range_r=100.0):
    return topology_from_positions(
        [(x, 0.0) for x in barrel_xs], (sink_x, 0.0), range_r
    )


class TestCrns:
    # Worked example used throughout: barrels at 90/180/270 m, sink at 0,
    # range 100. Node 0 hears the sink directly; 1 nominates 0 (score 2
    # minus 0.9 beats node 2's 1 minus 0.9); 2 then nominates 1.
    def test_three_barrel_line_trace(self):
        topo = line_topology(90.0, 180.0, 270.0)
        a = crns_select(topo)
        assert a.relays == (0, 1)
        assert a.chosen == (None, 0, 1, None)
        assert a.scores == (1.0, 1.0, 1.0, 1.0)

    def test_shipped_layout_matches_reference(self, preset):
        a = crns_select(preset)
        is_relay, chosen, score = crns_oracle(
            preset.positions, preset.sink, preset.range_r
        )
        assert list(a.relays) == [i for i, v in enumerate(is_relay) if v]
        assert list(a.chosen) == chosen
        assert list(a.scores) == score

    def test_shipped_layout_relay_set_frozen(self, preset):
        assert crns_select(preset).relays == (
            7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        )

    def test_random_topologies_match_reference(self):
        rng = random.Random(1234)
        for _ in range(25):
            n = rng.randint(1, 8)
            pts = set()
            while len(pts) < n + 1:
                pts.add((rng.uniform(0, 400), rng.uniform(0, 30)))
            pts = sorted(pts)
            topo = topology_from_positions(pts[:-1], pts[-1], 100.0)
            a = crns_select(topo)
            is_relay, chosen, score = crns_oracle(
                topo.positions, topo.sink, topo.range_r
            )
            assert list(a.relays) == [i for i, v in enumerate(is_relay) if v]
            assert list(a.chosen) == chosen
            assert list(a.scores) == score

    def test_everyone_in_sink_range_yields_no_relays(self):
        topo = line_topology(30.0, 60.0, 90.0)
        a = crns_select(topo)
        assert a.relays == ()
        assert all(c is None for c in a.chosen)

    def test_relay_mask(self):
        topo = line_topology(90.0, 180.0, 270.0)
        assert crns_select(topo).relay_mask() == 0b011


class TestBaselines:
    def test_all_relays_covers_every_barrel(self, preset):
        a = all_relays(preset)
        assert a.relays == tuple(range(30))
        assert a.scores is None

    def test_attachment_prefers_nearest_relay(self):
        topo = line_topology(90.0, 180.0, 270.0)
        a = all_relays(topo)
        # node 0 talks to the sink directly; 1 is 90 m from both 0 and 2,
        # tie resolved to the lower id
        assert a.chosen == (None, 0, 1, None)

    def test_unreachable_barrel_attaches_nowhere(self):
        topo = line_topology(90.0, 600.0)
        a = all_relays(topo)
        assert a.chosen[1] is None

    def test_random_is_seed_deterministic(self, preset):
        a = random_relays(preset, 7, seed=42)
        b = random_relays(preset, 7, seed=42)
        assert a.relays == b.relays
        assert len(a.relays) == 7
        assert a.relays == tuple(sorted(set(a.relays)))

    def test_random_different_seeds_differ(self, preset):
        sets = {random_relays(preset, 7, seed=s).relays for s in range(20)}
        assert len(sets) > 1

    def test_random_accepts_zero_and_full_counts(self, preset):
        assert random_relays(preset, 0, seed=1).relays == ()
        assert random_relays(preset, 30, seed=1).relays == tuple(range(30))

    def test_knn_accepts_zero_count(self, preset):
        # a relay budget of 0 is in range, as it is for random
        a = knn_relays(preset, 0, seed=1)
        assert a.relays == ()
        assert a.chosen == (None,) * preset.node_count

    def test_random_rejects_out_of_range_counts(self, preset):
        # True used to run as a count of 1, and 2.5 to end in random.sample's TypeError
        for count in (31, -1, True, 2.5):
            with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 30\]$"):
                random_relays(preset, count, seed=1)

    def test_knn_matches_reference_on_a_line(self, preset):
        xs = [p[0] for p in preset.positions[: preset.sink]]
        for k, seed in [(3, 0), (7, 1), (16, 2), (1, 3)]:
            a = knn_relays(preset, k, seed=seed)
            assert list(a.relays) == kmeans_oracle(xs, k, seed)

    def test_knn_with_k_equal_to_barrels_selects_all(self, preset):
        assert knn_relays(preset, 30, seed=9).relays == tuple(range(30))

    def test_knn_duplicate_heads_collapse(self):
        # the tight clump around x=245 attracts two centroids whose nearest
        # barrel coincides, so 6 clusters yield 5 distinct heads
        pts = [
            (55.5, 6.9), (106.4, 23.3), (149.9, 14.5), (182.3, 37.1),
            (243.5, 0.4), (246.6, 15.7), (249.4, 12.4), (262.1, 37.6),
            (289.7, 14.4),
        ]
        topo = topology_from_positions(pts, (297.2, 0.7), 100.0)
        a = knn_relays(topo, 6, seed=5)
        assert a.relays == (0, 3, 6, 7, 8)

    def test_knn_rejects_bad_k(self, preset):
        for k in (-1, 31, True, 2.5):
            with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 30\]$"):
                knn_relays(preset, k, seed=1)


class TestCoverage:
    def test_shipped_layout_has_no_isolated_nodes_under_crns(self, preset):
        assert isolated_nodes(preset, crns_select(preset).relays) == []

    def test_gap_breaks_the_backbone(self):
        # barrel 2 is 200 m from everything that can still reach the sink
        topo = line_topology(90.0, 180.0, 380.0)
        assert isolated_nodes(topo, (0, 1)) == [2]

    def test_repeated_relay_ids_count_once(self):
        # validate_assignment passes a relay list as loaded, repeats included
        topo = line_topology(90.0, 180.0, 270.0)
        assert isolated_nodes(topo, (0, 0)) == [2]

    def test_sink_adjacent_barrel_never_isolated(self):
        topo = line_topology(50.0, 400.0)
        assert isolated_nodes(topo, ()) == [1]

    def test_validate_accepts_every_strategy_on_the_preset(self, preset):
        budget = len(crns_select(preset).relays)
        for a in (
            crns_select(preset),
            all_relays(preset),
            random_relays(preset, budget, seed=3),
            knn_relays(preset, budget, seed=3),
        ):
            assert validate_assignment(preset, a) == []

    def test_validate_flags_foreign_relay(self, preset):
        a = crns_select(preset)
        bad = type(a)(
            relays=a.relays + (preset.sink,),
            chosen=a.chosen,
            scores=a.scores,
        )
        assert any("not a barrel" in msg for msg in validate_assignment(preset, bad))

    def test_validate_flags_out_of_range_attachment(self, preset):
        a = crns_select(preset)
        chosen = list(a.chosen)
        chosen[29] = 8  # 8 is a relay but far outside node 29's range
        bad = type(a)(
            relays=a.relays,
            chosen=tuple(chosen),
            scores=a.scores,
        )
        assert any("out-of-range" in msg for msg in validate_assignment(preset, bad))

    @pytest.mark.parametrize(
        "relays, chosen, message",
        [
            ((0, 1), (None, 0, 1), "chosen has 3 entries for 4 nodes"),
            ((1, 0), (None, 0, 1, None), "relay list is not sorted and distinct"),
            ((0, 1), (None, 0, 1, 0), "sink has a chosen relay"),
            ((0,), (None, 0, 1, None), "node 2 attaches to 1, which is not a relay"),
        ],
    )
    def test_validate_flags_inconsistent_assignment(self, relays, chosen, message):
        topo = line_topology(90.0, 180.0, 270.0)
        a = RelayAssignment(relays=relays, chosen=chosen)
        assert message in validate_assignment(topo, a)

    def test_validate_flags_isolation(self):
        topo = line_topology(90.0, 180.0, 380.0)
        a = crns_select(topo)
        issues = validate_assignment(topo, a)
        assert any("isolated" in msg for msg in issues)


class TestAssignmentFile:
    def test_roundtrip(self, tmp_path, preset):
        a = crns_select(preset)
        path = tmp_path / "assignment.csv"
        save_assignment_csv(preset, a, path)
        assert load_assignment_csv(path) == (preset, a)

    def test_loads_at_a_given_range(self, tmp_path, preset):
        path = tmp_path / "assignment.csv"
        save_assignment_csv(preset, crns_select(preset), path)
        topo, _ = load_assignment_csv(path, 60.0)
        assert topo == topology_from_positions(preset.positions[:-1], preset.positions[-1], 60.0)

    def test_roundtrip_without_scores(self, tmp_path, preset):
        a = random_relays(preset, 5, seed=8)
        path = tmp_path / "assignment.csv"
        save_assignment_csv(preset, a, path)
        _, loaded = load_assignment_csv(path)
        assert loaded.relays == a.relays
        assert loaded.scores is None

    @pytest.mark.parametrize("bad", ["inf", "nan", "0", "-5", "mixed", "two"])
    def test_rejects_bad_range(self, tmp_path, preset, bad):
        # "mixed" holds a range per row, and "two" just two distinct ranges
        path = tmp_path / "assignment.csv"
        save_assignment_csv(preset, crns_select(preset), path)
        lines = path.read_text().splitlines()
        ranges = {"mixed": lambda i: str(100.0 + i), "two": lambda i: str(100.0 + i % 2)}
        body = [
            line.rsplit(",", 1)[0] + "," + ranges.get(bad, lambda i: bad)(i)
            for i, line in enumerate(lines[1:])
        ]
        path.write_text("\n".join([lines[0], *body]) + "\n")
        with pytest.raises(ValueError, match="range_m"):
            load_assignment_csv(path)

    @pytest.mark.parametrize(
        "edits, error",
        [
            ({3: ("node", "7")}, "contiguous"),
            ({3: ("role", "gateway")}, "unknown role 'gateway'"),
            ({0: ("role", "sink"), 3: ("role", "barrel")}, "sink must be the last node"),
            ({0: ("role", "sink")}, "node 3 is a second sink, after node 0"),
        ],
        ids=["ids-not-contiguous", "unknown-role", "sink-not-last", "two-sinks"],
    )
    def test_rejects_malformed_rows(self, tmp_path, edits, error):
        # a sound file with the given (column, text) edits by row
        topo = line_topology(90.0, 180.0, 270.0)
        path = tmp_path / "assignment.csv"
        save_assignment_csv(topo, crns_select(topo), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, (column, text) in edits.items():
            rows[row][column] = text
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(ValueError, match=error):
            load_assignment_csv(path)

    @pytest.mark.parametrize("keep", [1, 2, 5])
    def test_rejects_a_short_row(self, tmp_path, keep):
        # a missing field used to read as None, and float(None) raised a TypeError
        topo = line_topology(90.0, 180.0, 270.0)
        path = tmp_path / "assignment.csv"
        save_assignment_csv(topo, crns_select(topo), path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:keep])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_assignment_csv(path)

    def test_rejects_unknown_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_assignment_csv(path)
