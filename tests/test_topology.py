import math
from dataclasses import replace

import pytest

from barrelmesh.topology import (
    COORD_EPS,
    FDOT_45MPH,
    MAX_BARRELS,
    LayoutError,
    LayoutSpec,
    Segment,
    barrel_chainages,
    build_layout,
    feet,
    neighbor_degrees,
    topology_from_positions,
)
from opcodes import count_calls


def test_feet_conversion():
    assert feet(540.0) == pytest.approx(164.592)
    assert feet(1.0) == 0.3048


class TestBarrelPlacement:
    def test_single_segment_includes_both_ends(self):
        spec = LayoutSpec(segments=(Segment("s", 100.0, 25.0),))
        assert barrel_chainages(spec) == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_non_divisible_length_truncates(self):
        spec = LayoutSpec(segments=(Segment("s", 110.0, 25.0),))
        assert barrel_chainages(spec) == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_shared_boundary_barrel_placed_once(self):
        spec = LayoutSpec(
            segments=(Segment("a", 100.0, 50.0), Segment("b", 60.0, 30.0))
        )
        assert barrel_chainages(spec) == [0.0, 50.0, 100.0, 130.0, 160.0]
        # a barrel exactly COORD_EPS past the last one is that barrel
        spec = LayoutSpec(segments=(Segment("a", COORD_EPS, 1.0), Segment("b", 10.0, 5.0)))
        assert barrel_chainages(spec) == [0.0, 5.0 + COORD_EPS, 10.0 + COORD_EPS]

    def test_zero_length_segment_contributes_nothing(self):
        spec = LayoutSpec(
            segments=(Segment("a", 0.0, 10.0), Segment("b", 20.0, 10.0))
        )
        assert barrel_chainages(spec) == [0.0, 10.0, 20.0]

    def test_all_zero_segments_leave_only_the_sink(self):
        spec = LayoutSpec(segments=(Segment("a", 0.0, 10.0),))
        topo = build_layout(spec)
        assert topo.node_count == 1
        assert topo.sink == 0
        assert topo.positions[0] == (-10.0, 0.0)

    def test_nonpositive_spacing_rejected(self):
        # a NaN spacing used to fail converting the barrel count to an int,
        # naming no field, and an infinite one to place a lone barrel
        for spacing in (0.0, math.nan, math.inf):
            spec = LayoutSpec(segments=(Segment("a", 10.0, spacing),))
            with pytest.raises(LayoutError, match="spacing"):
                barrel_chainages(spec)

    def test_negative_length_rejected(self):
        # an infinite length used to end in an OverflowError
        for length in (-1.0, math.nan, math.inf):
            spec = LayoutSpec(segments=(Segment("a", length, 5.0),))
            with pytest.raises(LayoutError, match="length"):
                barrel_chainages(spec)

    def test_barrel_bound_is_exact_on_one_segment(self):
        row = Segment("a", 12.0 * (MAX_BARRELS - 1), 12.0)
        assert len(barrel_chainages(LayoutSpec(segments=(row,)))) == MAX_BARRELS
        longer = replace(row, length_m=12.0 * MAX_BARRELS)
        with pytest.raises(LayoutError, match="segment 'a' takes"):
            barrel_chainages(LayoutSpec(segments=(longer,)))
        # the second segment is named when the two together pass the bound
        half = Segment("b", 12.0 * (MAX_BARRELS // 2), 12.0)
        with pytest.raises(LayoutError, match="segment 'b' takes"):
            barrel_chainages(LayoutSpec(segments=(half, half)))
        # COORD_EPS short of 10,000 spacings, the slack counts a 10,001st place
        with pytest.raises(LayoutError, match="segment 'a' takes"):
            barrel_chainages(LayoutSpec(segments=(Segment("a", 9999.999999999, 1.0),)))
        # two segments of 5,000 places each, both ends counted, meet the
        # bound exactly; the shared end is placed once, and a spacing of 1 m is fine
        just = Segment("c", MAX_BARRELS // 2 - 1.0, 1.0)
        assert len(barrel_chainages(LayoutSpec(segments=(just, just)))) == MAX_BARRELS - 1


class TestSinkPlacement:
    def test_start_places_sink_upstream(self):
        spec = LayoutSpec(segments=(Segment("s", 100.0, 50.0),), sink_placement="start")
        topo = build_layout(spec)
        assert topo.positions[topo.sink] == (-10.0, 0.0)

    def test_end_places_sink_downstream(self):
        spec = LayoutSpec(segments=(Segment("s", 100.0, 50.0),), sink_placement="end")
        topo = build_layout(spec)
        assert topo.positions[topo.sink] == (110.0, 0.0)
        # at 30 m spacing the row ends on no barrel, so a standoff of 0 is allowed
        spec = replace(spec, segments=(Segment("s", 100.0, 30.0),), sink_standoff_m=0.0)
        topo = build_layout(spec)
        assert topo.positions[topo.sink] == (100.0, 0.0)

    def test_explicit_chainage_used_verbatim(self):
        spec = LayoutSpec(segments=(Segment("s", 100.0, 50.0),), sink_placement=37.5)
        topo = build_layout(spec)
        assert topo.positions[topo.sink] == (37.5, 0.0)

    def test_chainage_takes_no_standoff(self):
        # even a standoff of 0 is one the chainage would leave unused
        spec = LayoutSpec(
            segments=(Segment("s", 100.0, 50.0),), sink_placement=37.5, sink_standoff_m=0.0
        )
        with pytest.raises(LayoutError, match="sink_standoff_m"):
            spec.sink_x()

    @pytest.mark.parametrize("standoff", [-5.0, math.inf, math.nan])
    @pytest.mark.parametrize("placement", ["start", "end"])
    def test_bad_standoff_rejected(self, placement, standoff):
        # a negative standoff would put the sink inside the row
        spec = LayoutSpec(
            segments=(Segment("s", 100.0, 50.0),),
            sink_placement=placement,
            sink_standoff_m=standoff,
        )
        with pytest.raises(LayoutError, match="sink_standoff_m"):
            spec.sink_x()

    def test_sink_on_a_barrel_rejected(self):
        spec = LayoutSpec(segments=(Segment("s", 100.0, 50.0),), sink_placement=50.0)
        with pytest.raises(LayoutError):
            build_layout(spec)
        # COORD_EPS from a barrel is on it
        spec = replace(spec, sink_placement=COORD_EPS)
        with pytest.raises(LayoutError, match="^the sink sits on the barrel at 0 m$"):
            spec.sink_x()
        # a NaN chainage used to build a sink at (nan, 0) that hears no one
        spec = LayoutSpec(segments=(Segment("s", 100.0, 50.0),), sink_placement=math.nan)
        with pytest.raises(LayoutError, match="sink_placement"):
            build_layout(spec)

    def test_unknown_placement_rejected(self):
        spec = LayoutSpec(segments=(Segment("s", 100.0, 50.0),), sink_placement="middle")
        with pytest.raises(LayoutError, match="^unknown sink placement 'middle'$"):
            spec.sink_x()


class TestConnectivity:
    def test_neighbor_iff_strictly_inside_range(self):
        topo = topology_from_positions(
            [(0.0, 0.0), (60.0, 0.0), (160.0, 0.0)], (259.0, 0.0), 100.0
        )
        assert topo.neighbor(0, 1)
        assert not topo.neighbor(1, 2)  # exactly at range, excluded
        assert not topo.neighbor(0, 2)
        assert topo.neighbor(2, 3)

    def test_adjacency_symmetric_without_self_loops(self):
        topo = build_layout(FDOT_45MPH)
        for i in range(topo.node_count):
            assert not topo.neighbor(i, i)
            for j in range(topo.node_count):
                assert topo.neighbor(i, j) == topo.neighbor(j, i)

    def test_degrees_match_pairwise_distances(self):
        topo = build_layout(FDOT_45MPH)
        expected = [
            sum(
                1
                for j in range(topo.node_count)
                if j != i and 0.0 < topo.distance(i, j) < topo.range_r
            )
            for i in range(topo.node_count)
        ]
        assert neighbor_degrees(topo) == expected

    def test_coincident_nodes_rejected(self):
        with pytest.raises(LayoutError):
            topology_from_positions([(0.0, 0.0), (0.0, 0.0)], (10.0, 0.0), 50.0)

    def test_coincident_nodes_named_by_the_lowest_pair(self):
        # two coincident pairs, (1, 4) and (2, 3), the higher one first on
        # x; the error names the pair with the lowest first id, then second
        barrels = [(9.0, 0.0), (5.0, 1.0), (3.0, 0.0), (3.0, 0.0), (5.0, 1.0 + 1e-10)]
        with pytest.raises(LayoutError, match=r"nodes 1 and 4 share"):
            topology_from_positions(barrels, (-1.0, 0.0), 50.0)
        # and, at one first id, the lowest second id
        barrels = [(2.0, 0.0), (7.0, 0.0), (2.0, 0.0), (2.0, 0.0)]
        with pytest.raises(LayoutError, match=r"nodes 0 and 2 share"):
            topology_from_positions(barrels, (2.0, 0.0), 50.0)

    def test_nonpositive_range_rejected(self):
        # a NaN range used to build a topology without a single link
        for range_r in (0.0, math.nan):
            with pytest.raises(LayoutError, match="range"):
                topology_from_positions([(0.0, 0.0)], (10.0, 0.0), range_r)

    def test_long_row_build_tests_only_pairs_close_on_x(self):
        # 300 barrels at 12 m and the sink, at 100 m: the graph is built by
        # a sweep along x, which made 2372 distance evaluations here where
        # testing every pair made 45150
        spec = LayoutSpec(segments=(Segment("row", 299 * 12.0, 12.0),))
        topo, calls = count_calls(build_layout, math, "hypot", spec, 100.0)
        assert topo.node_count == 301
        assert calls <= 3000

    def test_neighbors_of_lists_set_bits(self):
        topo = topology_from_positions(
            [(0.0, 0.0), (50.0, 0.0), (500.0, 0.0)], (25.0, 0.0), 100.0
        )
        assert topo.neighbors_of(0) == [1, 3]
        assert topo.neighbors_of(2) == []


class TestShippedLayout:
    def test_barrel_count_and_extent(self):
        topo = build_layout(FDOT_45MPH)
        assert topo.sink == 30  # 30 barrels, sink last
        assert topo.node_count == 31
        last_barrel_x = topo.positions[29][0]
        assert last_barrel_x == pytest.approx(feet(1140.0))

    def test_segment_spacings(self):
        xs = [p[0] for p in build_layout(FDOT_45MPH).positions[:30]]
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        # 16 taper gaps at 30 ft, 10 buffer gaps at 48 ft, 3 work gaps at 60 ft
        assert gaps[:16] == pytest.approx([feet(30.0)] * 16)
        assert gaps[16:26] == pytest.approx([feet(48.0)] * 10)
        assert gaps[26:] == pytest.approx([feet(60.0)] * 3)

    def test_connected_at_default_range(self):
        topo = build_layout(FDOT_45MPH)
        seen = {0}
        frontier = [0]
        while frontier:
            for j in topo.neighbors_of(frontier.pop()):
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        assert seen == set(range(topo.node_count))

    def test_same_spec_at_wider_range_gains_edges(self):
        narrow = build_layout(FDOT_45MPH, range_r=100.0)
        wide = build_layout(FDOT_45MPH, range_r=150.0)
        assert narrow.positions == wide.positions
        assert sum(neighbor_degrees(wide)) > sum(neighbor_degrees(narrow))
