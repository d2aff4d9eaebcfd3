"""Generated-input invariant checks across all four library layers.

Each test states a law the implementation must satisfy for every input in
its domain and lets hypothesis hunt for counterexamples. Reception
resolution is additionally checked against an independent brute-force
reference. The suite is derandomized so a run is reproducible; EXAMPLES
records the per-test case budget.
"""
import math
import statistics
import time
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from opcodes import count_events_taken
from oracles import Frame, crns_oracle, reference_run, resolve_receptions
from barrelmesh import sim_engine
from barrelmesh.metrics import (
    PowerProfile,
    network_current_ma,
    network_pdr,
    node_current_ma,
    per_node_current_ma,
    per_node_pdr,
    relay_load_stats,
)
from barrelmesh.relay_selection import (
    RelayAssignment,
    _attach_nearest,
    all_relays,
    crns_select,
    isolated_nodes,
    knn_relays,
    random_relays,
    validate_assignment,
)
from barrelmesh.sim_engine import (
    ChannelConfig,
    ScenarioConfig,
    SimResult,
    _zone_lanes,
    packet_interval_us,
    plan_transmissions,
    run,
)
from barrelmesh.topology import (
    COORD_EPS,
    FDOT_45MPH,
    LayoutError,
    LayoutSpec,
    Segment,
    barrel_chainages,
    build_layout,
    neighbor_degrees,
    topology_from_positions,
)

EXAMPLES = {
    "adjacency_laws": 60,
    "sweep_matches_all_pairs": 80,
    "coincident_pair_named": 40,
    "barrel_count_law": 60,
    "layout_determinism": 20,
    "crns_matches_reference": 60,
    "score_conservation": 60,
    "attachment_laws": 50,
    "attach_nearest_reference": 50,
    "chain_connectivity": 30,
    "isolation_reference": 50,
    "degenerate_baselines": 30,
    "resolver_vs_reference": 120,
    "engine_accounting": 18,
    "engine_determinism": 10,
    "engine_vs_reference": 60,
    "engine_vs_reference_wide": 40,
    "processed_events_law": 30,
    "lanes_cover_every_jammer": 60,
    "sole_source_delivery": 14,
    "two_hop_delivery": 14,
    "pdr_definitions_agree": 80,
    "load_stats_laws": 60,
    "current_bounds": 60,
}

settings.register_profile("invariants", deadline=None, derandomize=True)
settings.load_profile("invariants")


@pytest.fixture(scope="module", autouse=True)
def suite_start():
    """The time the module's first test set up; A8, the last test, reads it."""
    return time.perf_counter()


# ---------------------------------------------------------------------------
# input generators

# Coordinates land on a 12 m grid, ranges on round integers: squared
# distances are then 144 * (integer), which never equals any R**2 below,
# so no generated pair ever sits exactly on the range boundary where a
# one-ulp disagreement between two distance computations could flip an edge.
GRID_M = 12.0
RANGES = (30.0, 50.0, 80.0, 130.0)


@st.composite
def small_topologies(draw, min_barrels=1, max_barrels=7):
    n = draw(st.integers(min_barrels, max_barrels)) + 1  # plus sink
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 4)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pts = [(GRID_M * x, GRID_M * y) for x, y in cells]
    r = draw(st.sampled_from(RANGES))
    return topology_from_positions(pts[:-1], pts[-1], r)


@st.composite
def chain_topologies(draw, max_barrels=5):
    """Connected single-file rows: every gap below the 100 m range."""
    gaps = draw(
        st.lists(st.integers(30, 90), min_size=1, max_size=max_barrels - 1)
    )
    standoff = draw(st.integers(5, 60))
    xs = [0.0]
    for g in gaps:
        xs.append(xs[-1] + g)
    return topology_from_positions(
        [(x, 0.0) for x in xs], (-float(standoff), 0.0), 100.0
    )


@st.composite
def wide_topologies(draw):
    """2-D scatter on the grid over two to five 2R zones along x, with the
    sink at the start or the end of the row, mid-row or off the row."""
    r = draw(st.sampled_from(RANGES[:2]))
    span = math.ceil(draw(st.integers(2, 5)) * 2 * r / GRID_M)
    n = draw(st.integers(5, 12))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, span), st.integers(0, 2)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    xs = [x for x, _ in cells]
    where = draw(st.sampled_from(["start", "end", "mid", "off"]))
    if where == "start":
        sink = (min(xs) - 1, 0)
    elif where == "end":
        sink = (max(xs) + 1, 0)
    elif where == "mid":
        x = (min(xs) + max(xs)) // 2
        sink = (x, min({0, 1, 2, 3} - {y for cx, y in cells if cx == x}))
    else:
        sink = (draw(st.integers(min(xs), max(xs))), draw(st.integers(4, 6)))
    pts = [(GRID_M * x, GRID_M * y) for x, y in cells + [sink]]
    return topology_from_positions(pts[:-1], pts[-1], r)


@st.composite
def scatters(draw):
    """(points, range): a 2-D scatter, sink last, for topology_from_positions.
    Many x values sit on a grid of range/2, so several nodes share one x
    and many pairs are exactly range apart on x; negative x is common."""
    r = draw(st.sampled_from(RANGES))
    xs = st.one_of(
        st.integers(-8, 8).map(lambda k: k * r / 2), st.floats(-4 * r, 4 * r)
    )
    ys = st.one_of(st.sampled_from((0.0, -6.0, 6.0, 12.0)), st.floats(-r, r))
    points = draw(st.lists(st.tuples(xs, ys), min_size=2, max_size=14, unique=True))
    return points, r


@st.composite
def frame_soups(draw):
    """A finished frame plus overlapping/disjoint traffic on a random graph."""
    n = draw(st.integers(2, 6))
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    listener_mask = draw(st.integers(0, (1 << n) - 1))

    def some_frame(tx):
        start = draw(st.integers(0, 2500))
        dur = draw(st.integers(1, 1200))
        return Frame(
            start,
            start + dur,
            tx,
            draw(st.integers(0, 2)),
            tx,
            0,
            127,
            1,
        )

    frame = some_frame(draw(st.integers(0, n - 1)))
    concurrent = [frame]  # the resolver must skip the frame itself
    for _ in range(draw(st.integers(0, 6))):
        concurrent.append(some_frame(draw(st.integers(0, n - 1))))
    if draw(st.booleans()):
        # equal fields, distinct object: must count as interference
        f = frame
        concurrent.append(
            Frame(f.start, f.end, f.tx, f.channel, f.source, f.pkt, f.ttl, f.hops)
        )
    return tuple(adjacency), listener_mask, frame, concurrent


# ---------------------------------------------------------------------------
# topology


@settings(max_examples=EXAMPLES["adjacency_laws"])
@given(small_topologies(), st.floats(1.2, 2.5))
def test_adjacency_laws(topo, growth):
    n = topo.node_count
    for i in range(n):
        assert not topo.adjacency[i] >> i & 1
        for j in range(n):
            assert (topo.adjacency[i] >> j & 1) == (topo.adjacency[j] >> i & 1)
            if topo.adjacency[i] >> j & 1:
                assert topo.distance(i, j) < topo.range_r
    wider = topology_from_positions(
        topo.positions[:-1], topo.positions[-1], topo.range_r * growth
    )
    for a, b in zip(topo.adjacency, wider.adjacency):
        assert a & ~b == 0, "growing the range must never remove an edge"
    assert neighbor_degrees(topo) == [m.bit_count() for m in topo.adjacency]


def all_pairs_rebuild(points, r):
    """The unit-disk masks and the lowest coincident pair (None if there is
    none), by testing every pair in id order."""
    n = len(points)
    masks = [0] * n
    coincident = None
    for a in range(n):
        for b in range(a + 1, n):
            (xa, ya), (xb, yb) = points[a], points[b]
            if coincident is None and abs(xa - xb) <= COORD_EPS and abs(ya - yb) <= COORD_EPS:
                coincident = (a, b)
            if 0.0 < math.hypot(xa - xb, ya - yb) < r:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return tuple(masks), coincident


@settings(max_examples=EXAMPLES["sweep_matches_all_pairs"])
@given(scatters())
@example(([(-50.0, 0.0), (0.0, 0.0), (50.0, 0.0), (0.0, 6.0), (-100.0, 0.0)], 50.0))
def test_sweep_matches_all_pairs(scatter):
    # the graph is built by a sweep along x; every edge and every non-edge
    # must match testing all pairs, on shared x and on gaps of exactly r
    points, r = scatter
    masks, coincident = all_pairs_rebuild(points, r)
    if coincident is not None:
        with pytest.raises(LayoutError, match=f"nodes {coincident[0]} and {coincident[1]} "):
            topology_from_positions(points[:-1], points[-1], r)
    else:
        assert topology_from_positions(points[:-1], points[-1], r).adjacency == masks


@settings(max_examples=EXAMPLES["coincident_pair_named"])
@given(scatters(), st.data())
def test_coincident_pair_named(scatter, data):
    # copy two nodes onto two others: the error names the lowest coincident
    # pair, lowest first id, then lowest second id
    points, r = list(scatter[0]), scatter[1]
    n = len(points)
    for _ in range(2):
        src = data.draw(st.integers(0, n - 1))
        dst = (src + data.draw(st.integers(1, n - 1))) % n
        points[dst] = points[src]
    a, b = all_pairs_rebuild(points, r)[1]
    with pytest.raises(LayoutError, match=f"nodes {a} and {b} "):
        topology_from_positions(points[:-1], points[-1], r)


@settings(max_examples=EXAMPLES["barrel_count_law"])
@given(
    st.integers(1, 400),
    st.integers(1, 60),
    st.lists(st.tuples(st.integers(1, 6), st.integers(3, 50)), min_size=1, max_size=4),
)
def test_barrel_count_law(length, spacing, exact_segments):
    # single segment: floor(L/s) + 1 barrels, both ends included
    single = LayoutSpec(segments=(Segment("a", float(length), float(spacing)),))
    assert len(barrel_chainages(single)) == length // spacing + 1

    # segment lengths that are exact multiples of their spacing share each
    # boundary barrel, so the row totals sum(L_i/s_i) + 1
    segs = tuple(
        Segment(f"s{i}", float(m * s), float(s))
        for i, (m, s) in enumerate(exact_segments)
    )
    n = len(barrel_chainages(LayoutSpec(segments=segs)))
    assert n == sum(m for m, _ in exact_segments) + 1


@settings(max_examples=EXAMPLES["layout_determinism"])
@given(
    st.lists(st.tuples(st.integers(2, 8), st.integers(5, 40)), min_size=1, max_size=3),
    st.sampled_from(["start", "end"]),
)
def test_layout_determinism(seg_params, placement):
    spec = LayoutSpec(
        segments=tuple(
            Segment(f"s{i}", float(m * s), float(s))
            for i, (m, s) in enumerate(seg_params)
        ),
        sink_placement=placement,
    )
    assert build_layout(spec, 100.0) == build_layout(spec, 100.0)
    assert build_layout(FDOT_45MPH) == build_layout(FDOT_45MPH)


# ---------------------------------------------------------------------------
# relay selection


@settings(max_examples=EXAMPLES["crns_matches_reference"])
@given(small_topologies())
def test_crns_matches_reference(topo):
    got = crns_select(topo)
    is_relay, chosen, scores = crns_oracle(
        list(topo.positions), topo.sink, topo.range_r
    )
    assert got.relays == tuple(i for i, f in enumerate(is_relay) if f)
    assert got.chosen == tuple(chosen)
    assert got.scores == tuple(scores)


@settings(max_examples=EXAMPLES["score_conservation"])
@given(small_topologies())
def test_score_conservation(topo):
    """Every point a node's score drops is one nomination it absorbed."""
    got = crns_select(topo)
    nominations = Counter(t for t in got.chosen if t is not None)
    for j, degree in enumerate(neighbor_degrees(topo)):
        assert degree - got.scores[j] == nominations.get(j, 0)
    assert sum(nominations.values()) == sum(
        1
        for i in topo.barrels
        if not topo.adjacency[topo.sink] >> i & 1 and topo.adjacency[i]
    )


@settings(max_examples=EXAMPLES["attachment_laws"])
@given(small_topologies(), st.integers(0, 2**16), st.data())
def test_attachment_laws(topo, seed, data):
    n_barrels = topo.sink
    strategies = [crns_select(topo), all_relays(topo)]
    if n_barrels >= 1:
        strategies.append(
            random_relays(topo, data.draw(st.integers(1, n_barrels)), seed)
        )
    for got in strategies:
        assert list(got.relays) == sorted(set(got.relays))
        assert all(0 <= r < n_barrels for r in got.relays)
        assert got.chosen[topo.sink] is None
        for i in topo.barrels:
            target = got.chosen[i]
            if topo.adjacency[topo.sink] >> i & 1:
                assert target is None, "sink-adjacent barrels need no relay"
            if target is not None:
                assert target in got.relays
                assert target != i
                assert topo.distance(i, target) < topo.range_r


def attach_by_scan(topo, relays):
    """_attach_nearest's definition: every relay tested for every barrel."""
    sink_adj = topo.adjacency[topo.sink]
    chosen = [None] * topo.node_count
    for i in topo.barrels:
        if sink_adj >> i & 1:
            continue
        candidates = [r for r in relays if r != i and topo.neighbor(i, r)]
        if candidates:
            chosen[i] = min(candidates, key=lambda r: (topo.distance(i, r), r))
    return tuple(chosen)


@settings(max_examples=EXAMPLES["attach_nearest_reference"])
@given(small_topologies(), st.none() | st.sets(st.integers(0, 7)))
# every barrel a relay, and barrel 1 midway between relays 0 and 2
@example(topology_from_positions([(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)], (-200.0, 0.0), 80.0), None)
def test_attach_nearest_matches_scan(topo, relay_ids):
    # None stands for every barrel, as all_relays passes
    if relay_ids is None:
        relays = tuple(topo.barrels)
    else:
        relays = tuple(sorted(r for r in relay_ids if r < topo.sink))
    assert _attach_nearest(topo, relays) == RelayAssignment(relays, attach_by_scan(topo, relays))


@settings(max_examples=EXAMPLES["chain_connectivity"])
@given(chain_topologies())
def test_chain_connectivity(topo):
    """Flooding over every barrel spans any gap-connected row."""
    got = all_relays(topo)
    assert isolated_nodes(topo, got.relays) == []
    assert validate_assignment(topo, got) == []
    for i in topo.barrels:
        near_sink = bool(topo.adjacency[topo.sink] >> i & 1)
        assert near_sink or got.chosen[i] is not None


def reference_isolated(topo, relays):
    """Reverse flood: which relays can pass traffic onward to the sink."""
    backbone = set(relays) | {topo.sink}
    reach = {topo.sink}
    stack = [topo.sink]
    while stack:
        for v in topo.neighbors_of(stack.pop()):
            if v in backbone and v not in reach:
                reach.add(v)
                stack.append(v)
    return [
        i
        for i in topo.barrels
        if not any(v in reach for v in topo.neighbors_of(i))
    ]


@settings(max_examples=EXAMPLES["isolation_reference"])
@given(small_topologies(), st.data())
def test_isolation_matches_reference(topo, data):
    mask = data.draw(st.integers(0, (1 << topo.sink) - 1)) if topo.sink else 0
    relays = tuple(i for i in topo.barrels if mask >> i & 1)
    assert isolated_nodes(topo, relays) == reference_isolated(topo, relays)


@settings(max_examples=EXAMPLES["degenerate_baselines"])
@given(chain_topologies(), st.integers(0, 2**16))
def test_degenerate_baselines(topo, seed):
    n = topo.sink
    everyone = tuple(range(n))
    assert all_relays(topo).relays == everyone
    assert random_relays(topo, n, seed).relays == everyone
    assert knn_relays(topo, n, seed).relays == everyone


# ---------------------------------------------------------------------------
# reception resolution, checked against a brute-force reference


def reference_resolution(adjacency, listener_mask, frame, concurrent):
    clear = jam = busy = 0
    for lid in range(len(adjacency)):
        if not listener_mask >> lid & 1:
            continue
        if not adjacency[frame.tx] >> lid & 1:
            continue
        jammed = transmitting = False
        for g in concurrent:
            if g is frame or g.start >= frame.end or g.end <= frame.start:
                continue
            if g.tx == lid:
                transmitting = True
            if g.channel == frame.channel and adjacency[g.tx] >> lid & 1:
                jammed = True
        if jammed:
            jam |= 1 << lid
        elif transmitting:
            busy |= 1 << lid
        else:
            clear |= 1 << lid
    return clear, jam, busy


@settings(max_examples=EXAMPLES["resolver_vs_reference"])
@given(frame_soups())
def test_resolver_vs_reference(soup):
    adjacency, listener_mask, frame, concurrent = soup
    got = resolve_receptions(adjacency, listener_mask, frame, concurrent)
    assert got == reference_resolution(adjacency, listener_mask, frame, concurrent)
    clear, jam, busy = got
    assert clear & jam == clear & busy == jam & busy == 0
    reach = adjacency[frame.tx] & listener_mask
    assert clear | jam | busy == reach


# ---------------------------------------------------------------------------
# simulation engine


def draw_assignment(draw, topo):
    picker = draw(st.sampled_from(["crns", "all", "random"]))
    if picker == "crns":
        return crns_select(topo)
    if picker == "all":
        return all_relays(topo)
    return random_relays(
        topo, draw(st.integers(1, topo.sink)), draw(st.integers(0, 99))
    )


@st.composite
def engine_cases(draw):
    topo = draw(chain_topologies())
    assignment = draw_assignment(draw, topo)
    config = ScenarioConfig(
        app_rate_pps=draw(st.sampled_from([1.0, 2.0])),
        sim_time_s=2.0,
        seed=draw(st.integers(0, 2**20)),
        copies=draw(st.sampled_from([None, 1, 2])),
        channel=ChannelConfig(
            n_adv_channels=draw(st.integers(1, 3)),
            frame_duration_us=draw(st.sampled_from([300, 900])),
            adv_jitter_ms=draw(st.sampled_from([3.0, 9.0])),
        ),
        emit_events=True,
    )
    return topo, assignment, config


@settings(max_examples=EXAMPLES["engine_accounting"])
@given(engine_cases())
def test_engine_accounting(case):
    """The run's counters must all be re-derivable from its event trace."""
    topo, assignment, config = case
    result = run(topo, assignment, config)
    n = topo.node_count
    copies = plan_transmissions(topo, config.copies)

    origins = Counter()
    tx_by_node = Counter()
    forwards = Counter()
    tx_per_packet = Counter()
    forward_keys = Counter()
    deliver_events = []
    for time_us, node, kind, source, pkt, channel in result.events:
        assert 0 <= time_us <= result.sim_time_us
        if kind == "origin":
            origins[node] += 1
        elif kind == "tx":
            tx_by_node[node] += 1
            tx_per_packet[source, pkt] += 1
            if node != source:
                forwards[node] += 1
                forward_keys[node, source, pkt] += 1
        elif kind == "deliver":
            deliver_events.append((source, pkt, time_us))
        else:
            assert kind == "rx"

    for node in range(n):
        assert result.app_sent[node] == origins.get(node, 0)
        assert result.net_transmissions[node] == tx_by_node.get(node, 0)
        assert result.relayed_count[node] == forwards.get(node, 0)
        total = (
            result.t_tx_frac[node]
            + result.t_listen_frac[node]
            + result.t_sleep_frac[node]
        )
        assert abs(total - 1.0) <= 1e-9
    assert result.app_sent[topo.sink] == 0

    # duplicate cache: one forward per (relay, packet); flood size is capped
    # by the origination burst plus one frame per relay
    assert all(c == 1 for c in forward_keys.values())
    for (source, pkt), count in tx_per_packet.items():
        assert count <= copies[source] + len(assignment.relays)

    by_source = Counter(s for s, _, _ in deliver_events)
    for node in range(n):
        assert result.delivered_by_source[node] == by_source.get(node, 0)
        assert result.delivered_by_source[node] <= result.app_sent[node]
    assert len({(s, p) for s, p, _ in deliver_events}) == len(deliver_events)

    assert result.max_hops <= len(assignment.relays) + 1
    assert result.max_hops <= config.ttl

    # the two delivery-ratio definitions agree on live runs
    sent, delivered = sum(result.app_sent), sum(result.delivered_by_source)
    pdr = network_pdr(result)
    assert pdr == 100.0 * delivered / sent
    weighted = sum(
        s * p for s, p in zip(result.app_sent, per_node_pdr(result)) if s
    )
    assert abs(weighted - 100.0 * delivered) <= 1e-9 * max(1.0, weighted)

    stats = relay_load_stats(result)
    assert stats["loads"] == [result.relayed_count[r] for r in assignment.relays]
    assert sum(stats["loads"]) == sum(forwards.values())

    profile = PowerProfile()
    currents = per_node_current_ma(result, profile)
    for cur in currents:
        assert profile.i_sleep_ma - 1e-12 <= cur <= profile.i_tx_ma + 1e-12
    assert abs(network_current_ma(result, profile) - statistics.fmean(currents)) <= 1e-9


@settings(max_examples=EXAMPLES["engine_determinism"])
@given(engine_cases())
def test_engine_determinism(case):
    topo, assignment, config = case
    assert run(topo, assignment, config) == run(topo, assignment, config)


@st.composite
def congested_cases(draw, topologies=chain_topologies(max_barrels=12)):
    """Short, busy runs: queues at every radio, frames cut by the horizon."""
    topo = draw(topologies)
    assignment = draw_assignment(draw, topo)
    rate = draw(st.sampled_from([64.0, 256.0, 1024.0, 2048.0]))
    # at most ~50 packets a source: the reference re-pushes every waiting
    # frame each time its radio frees, so its cost grows with the square of
    # the queue
    horizon = draw(st.sampled_from([s for s in (0.013, 0.05, 0.2) if rate * s <= 52]))
    config = ScenarioConfig(
        app_rate_pps=rate,
        sim_time_s=horizon,
        seed=draw(st.integers(0, 2**20)),
        ttl=draw(st.sampled_from([1, 2, 127])),
        copies=draw(st.sampled_from([None, 1, 2, 3])),
        channel=ChannelConfig(
            n_adv_channels=draw(st.integers(1, 3)),
            frame_duration_us=draw(st.sampled_from([100, 300, 1100])),
            # short or zero jitter puts frame starts on the microsecond
            # another frame ends, or on the horizon
            adv_jitter_ms=draw(st.sampled_from([0.0, 0.2, 0.5, 3.0])),
            loss_p=draw(st.sampled_from([0.0, 0.3, 1.0])),
        ),
        emit_events=draw(st.booleans()),
    )
    return topo, assignment, config


ROW = [0.0, 60.0, 130.0, 190.0, 260.0]


def tie_case(
    xs, picker, rate, horizon, seed, copies, nch, dur=100, jitter_ms=0.2, loss_p=0.0, trace=False
):
    """A congested row with short frames and little or no jitter, where
    frame starts land on the microsecond another frame ends."""
    topo = topology_from_positions([(x, 0.0) for x in xs], (-20.0, 0.0), 100.0)
    config = ScenarioConfig(
        app_rate_pps=rate,
        sim_time_s=horizon,
        seed=seed,
        copies=copies,
        channel=ChannelConfig(
            n_adv_channels=nch, frame_duration_us=dur, adv_jitter_ms=jitter_ms, loss_p=loss_p
        ),
        emit_events=trace,
    )
    return topo, picker(topo), config


@settings(max_examples=EXAMPLES["engine_vs_reference"])
@given(congested_cases())
# a listener whose own frame starts the instant a neighbour's frame ends
# still hears that frame
@example(tie_case([0.0, 89.0, 140.0, 214.0, 284.0], all_relays, 1024.0, 0.01, 673130, 1, 2))
# and so does one whose frames end the instant a neighbour's frame starts
# and start again the instant it ends
@example(tie_case(ROW, all_relays, 1000.0, 0.02, 3, 2, 1, 250, 0.0))
# a node whose radio frees up exactly at the horizon sends nothing more
@example(tie_case([0.0, 75.0, 133.0, 182.0, 259.0], crns_select, 2048.0, 0.02, 328357, 2, 1))
# no jitter, one channel, and frames that divide the packet interval: frame
# ends, forwards and scheduled starts share microseconds
@example(tie_case([0.0, 60.0, 130.0, 190.0, 260.0], all_relays, 1000.0, 0.05, 11, 2, 1, 250, 0.0))
# The engine keeps one origination on its heap and takes the next from a
# round-robin over the sources in (phase, id) order. A 2 us interval makes
# every phase 1, so every round is a tie broken by source id
@example(tie_case(ROW, all_relays, 500000.0, 0.0001, 5, 1, 2, trace=True))
# a horizon off the interval grid: source 1 sends one packet fewer
@example(tie_case(ROW, crns_select, 1000.0, 0.0105, 9, 2, 2, 300, 3.0, trace=True))
# a horizon inside the first interval: sources 0, 2 and 4 send nothing
@example(tie_case(ROW, all_relays, 10.0, 0.05, 5, 1, 3, 1100, 12.0, trace=True))
# copies scaled with distance: 1, 1, 2, 3 and 3 a packet
@example(tie_case(ROW, all_relays, 1000.0, 0.02, 4, None, 2, 300, 1.0, trace=True))
# loss draws, where a listener the lack mask no longer names drops a copy
@example(tie_case(ROW, crns_select, 1000.0, 0.02, 6, 2, 2, 300, 1.0, 0.3, trace=True))
def test_engine_vs_reference(case):
    """The engine returns what the frozen reference engine returns, traces
    included; only the count of processed events may differ."""
    assert_matches_reference(*case)


def assert_matches_reference(topo, assignment, config):
    got = run(topo, assignment, config)
    want = reference_run(topo, assignment, config)
    assert replace(got, processed_events=0) == replace(want, processed_events=0)
    return got


@pytest.mark.parametrize(
    "case, edges",
    [
        # 3 ms of jitter against a 1 ms interval: copies start after their
        # source's next packets originate, and one exactly on an interval
        # multiple (11 ms)
        (
            tie_case(ROW, all_relays, 1000.0, 0.05, 4, 2, 2, 300, 3.0),
            ("copies outlive the next origination", "frames on interval multiples"),
        ),
        # no jitter, and frames queued back to back start on interval multiples
        (
            tie_case(ROW, all_relays, 5000.0, 0.01, 1, 2, 1, 131, 0.0),
            ("frames on interval multiples",),
        ),
        # a horizon inside the first interval: some sources send nothing
        (tie_case(ROW, crns_select, 1.0, 0.4, 3, 2, 2, 1100, 12.0), ("silent sources",)),
    ],
    ids=["copies-outlive-next-origination", "frames-on-interval-multiples", "silent-sources"],
)
def test_origination_edges_match_reference(case, edges):
    """Each origination pushes its packet's copies and the next origination
    of the round-robin over the sources onto the engine's heap. Each case
    puts the run on the named edges of that rule and still matches the
    reference."""
    topo, assignment, config = case
    got = assert_matches_reference(topo, assignment, replace(config, emit_events=True))
    interval = packet_interval_us(config.app_rate_pps)
    origin_at = {(node, pkt): t for t, node, kind, _, pkt, _ in got.events if kind == "origin"}
    sent = got.app_sent[: topo.sink]
    found = {
        "copies outlive the next origination": any(
            kind == "tx" and node == source and t > origin_at.get((node, pkt + 1), math.inf)
            for t, node, kind, source, pkt, _ in got.events
        ),
        "frames on interval multiples": any(
            t % interval == 0 and kind == "tx" for t, _, kind, *_ in got.events
        ),
        "silent sources": min(sent) == 0 < max(sent),
    }
    assert all(found[edge] for edge in edges)


@pytest.mark.parametrize(
    "case, state",
    [
        (tie_case(ROW, crns_select, 256.0, 0.05, 1, 1, 3, 1100, 12.0), "last frame past T"),
        # no jitter: every copy is due at its origination, before T, so a
        # copy still owed at T is waiting for its radio
        (tie_case(ROW, crns_select, 2048.0, 0.02, 3, 2, 1, 300, 0.0), "owed, waiting"),
        # 30 ms of jitter against a 10 ms interval: a radio free before T
        # while copies are still owed, which are due at or past T
        (tie_case(ROW, crns_select, 100.0, 0.1, 1, 2, 2, 1000, 30.0), "owed, due past T"),
    ],
    ids=["last-frame-past-T", "owed-waiting", "owed-due-past-T"],
)
def test_counters_at_the_horizon_match_reference(case, state):
    """The engine derives net_transmissions and tx airtime after the run:
    a node started every copy it was offered but those still owed, plus its
    forwards, and only its last frame can run past T. Each case puts some
    node in the named state at T and still matches the reference."""
    topo, assignment, config = case
    got = assert_matches_reference(topo, assignment, replace(config, emit_events=True))
    T, dur = got.sim_time_us, config.channel.frame_duration_us
    last_end = [0] * topo.sink
    started = [0] * topo.sink
    for t, node, kind, source, *_ in got.events:
        if kind == "tx":
            last_end[node] = t + dur
            started[node] += node == source
    owed = [sent * config.copies - s for sent, s in zip(got.app_sent, started)]
    states = {
        "last frame past T": any(end > T for end in last_end),
        "owed, waiting": any(o and end > T for o, end in zip(owed, last_end)),
        "owed, due past T": any(o and end < T for o, end in zip(owed, last_end)),
    }
    assert states[state]


def horizon_case(horizon, seed):
    """Three relays 30 m apart, the sink 10 m off the first, range 50 m,
    1000 pkt/s and 0.5 ms of jitter: at horizons of 1 to 3 ms, about one
    run in 700 has a frame start due exactly at T, and as many a frame end
    exactly at T."""
    topo = topology_from_positions([(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)], (-10.0, 0.0), 50.0)
    config = ScenarioConfig(
        app_rate_pps=1000.0,
        sim_time_s=horizon,
        seed=seed,
        channel=ChannelConfig(adv_jitter_ms=0.5),
    )
    return topo, all_relays(topo), config


@pytest.mark.parametrize(
    "case, events",
    [
        # taken, and dropped: the frame would start on the horizon
        (horizon_case(0.001, 76), 6),
        # resolved, and counted as an event
        (horizon_case(0.002, 516), 13),
    ],
    ids=["frame-start-at-T", "frame-end-at-T"],
)
def test_frames_on_the_horizon(case, events):
    """The horizon entry (T, inf) sorts after every event due at T. A frame
    start due at T starts no frame, so it adds nothing to net_transmissions,
    and a frame end at T is an event taken, so it counts in
    processed_events."""
    got = assert_matches_reference(*case)
    assert got.processed_events == events


@settings(max_examples=EXAMPLES["processed_events_law"])
@given(congested_cases())
# frames that wait for their radio
@example(tie_case([0.0, 89.0, 140.0, 214.0, 284.0], all_relays, 1024.0, 0.01, 673130, 1, 2))
# a stale radio-free entry, whose key its node's queue no longer matches
@example(tie_case(ROW, all_relays, 1000.0, 0.005, 4, 2, 1, 300, 0.2))
# a frame start due at T, and a frame end at T
@example(horizon_case(0.001, 76))
@example(horizon_case(0.002, 516))
def test_processed_events_are_the_events_taken(case):
    """The engine derives processed_events after its loop. Counted another
    way, it is every event taken off the heap, plus the end of every frame
    that ends by T, read from the trace. A budget of exactly that many
    events holds: the runaway guard in the loop refuses no such run."""
    topo, assignment, config = case
    config = replace(config, emit_events=True)
    got, taken = count_events_taken(run, topo, assignment, config)
    T, dur = got.sim_time_us, config.channel.frame_duration_us
    ends = sum(kind == "tx" and t + dur <= T for t, _, kind, *_ in got.events)
    assert got.processed_events == taken + ends
    with patch.object(sim_engine, "MAX_EVENTS", got.processed_events):
        assert run(topo, assignment, config) == got


def zone_case(barrels, sink, range_r, seed, loss_p=0.0):
    """A busy single-channel run on an explicit layout at a short range,
    every barrel a relay, so frames collide across zone edges; loss_p > 0
    adds the loss draw."""
    topo = topology_from_positions(barrels, sink, range_r)
    config = ScenarioConfig(
        app_rate_pps=256.0,
        sim_time_s=0.1,
        seed=seed,
        copies=2,
        channel=ChannelConfig(
            n_adv_channels=1, frame_duration_us=300, adv_jitter_ms=0.5, loss_p=loss_p
        ),
    )
    return topo, all_relays(topo), config


@settings(max_examples=EXAMPLES["engine_vs_reference_wide"])
@given(congested_cases(wide_topologies()))
# four zones 60 m wide, with barrels on the edges at 60, 120 and 180 m
@example(
    zone_case(
        [(x, 0.0) for x in (12, 36, 60, 84, 108, 120, 144, 168, 180, 204, 228, 240)],
        (0.0, 0.0),
        30.0,
        5,
    )
)
# every node at one x: zero extent, one zone
@example(zone_case([(0.0, 12.0 * k) for k in range(1, 7)], (0.0, 0.0), 30.0, 6))
# three zones, the middle one holding only the sink
@example(
    zone_case([(x, 0.0) for x in (0, 24, 48, 132, 156, 180)], (66.0, 0.0), 30.0, 7)
)
# extents just below and just above 4R: one zone, then two
@example(
    zone_case([(x, 0.0) for x in (0, 20, 40, 60, 80, 100, 119.5)], (50.0, 10.0), 30.0, 8)
)
@example(
    zone_case([(x, 0.0) for x in (0, 20, 40, 60, 80, 100, 120.5)], (50.0, 10.0), 30.0, 8)
)
# four zones under loss, where a frame end's scan starts from every listener
# in reach, holders included: a frame end whose own lane jams them all stops
# there and leaves its side lanes unpruned, and later frame ends scan those
# sides while they still hold frames that ended before their own started
@example(zone_case([(12.0 * k, 0.0) for k in range(1, 21)], (0.0, 0.0), 30.0, 2, 0.3))
def test_engine_vs_reference_wide(case):
    """As test_engine_vs_reference, on layouts several 2R zones wide, where
    a frame end scans the frames on air in its own zone and its neighbours'."""
    assert_matches_reference(*case)


@settings(max_examples=EXAMPLES["lanes_cover_every_jammer"])
@given(st.one_of(wide_topologies(), small_topologies()))
def test_lanes_cover_every_jammer(topo):
    """A frame end scans its transmitter's lane and that lane's sides. Every
    transmitter in range of one of its listeners must be in one of them,
    those lanes lie in at most three zones, and a layout narrower than 4R is
    one zone."""
    nch = 2
    lanes = _zone_lanes(topo, list(topo.adjacency), nch)
    for tx in topo.barrels:
        for c in range(nch):
            on_air, sides, channel = lanes[tx][c]
            assert channel == c
            scanned = [on_air, *sides]
            assert len(scanned) <= 3
            for g in topo.barrels:
                if topo.adjacency[g] & topo.adjacency[tx]:
                    assert any(lanes[g][c][0] is d for d in scanned)
                    assert lanes[g][c][2] == c
    xs = [x for x, _ in topo.positions]
    if max(xs) - min(xs) < 4 * topo.range_r:
        assert all(lanes[node] is lanes[0] for node in range(topo.node_count))
        assert all(sides == () for _, sides, _ in lanes[0])


@settings(max_examples=EXAMPLES["sole_source_delivery"])
@given(
    st.integers(20, 90),
    st.integers(0, 2**20),
    st.sampled_from([300, 900]),
    st.integers(1, 3),
)
def test_sole_source_delivery(standoff, seed, dur, copies):
    """One barrel, no contention: every frame that fits the horizon lands."""
    topo = topology_from_positions([(0.0, 0.0)], (-float(standoff), 0.0), 100.0)
    config = ScenarioConfig(
        app_rate_pps=1.0,
        sim_time_s=2.0,
        seed=seed,
        copies=copies,
        channel=ChannelConfig(frame_duration_us=dur, adv_jitter_ms=2.0),
        emit_events=True,
    )
    result = run(topo, crns_select(topo), config)
    assert result.app_sent[0] == 2  # the packet interval divides the horizon
    # a copy is jittered at most 2 ms past its origination, so packets this
    # clear of the end of the run always resolve
    cutoff = result.sim_time_us - 2000 - dur
    safe = sum(
        1 for t, node, kind, _, _, _ in result.events
        if kind == "origin" and t <= cutoff
    )
    assert safe <= result.delivered_by_source[0] <= result.app_sent[0]
    assert result.max_hops <= 1

    adrift = topology_from_positions([(0.0, 0.0)], (-150.0, 0.0), 100.0)
    out = run(adrift, crns_select(adrift), config)
    assert isolated_nodes(adrift, ()) == [0]
    assert out.delivered_by_source[0] == 0
    assert per_node_pdr(out)[0] == 0.0


@settings(max_examples=EXAMPLES["two_hop_delivery"])
@given(st.integers(45, 90), st.integers(0, 2**20), st.sampled_from([300, 800]))
def test_two_hop_delivery(gap, seed, dur):
    """In a two-barrel row the far barrel's traffic must ride the relay
    whenever the event log shows its frames met no concurrent airtime."""
    # sink -60, relay 0, source at gap: the source is 105..150 m from the
    # sink (out of range) but within range of the relay
    topo = topology_from_positions(
        [(0.0, 0.0), (float(gap), 0.0)], (-60.0, 0.0), 100.0
    )
    assignment = crns_select(topo)
    assert assignment.relays == (0,)
    assert assignment.chosen[1] == 0
    config = ScenarioConfig(
        app_rate_pps=1.0,
        sim_time_s=2.0,
        seed=seed,
        copies=1,
        channel=ChannelConfig(frame_duration_us=dur, adv_jitter_ms=3.0),
        emit_events=True,
    )
    result = run(topo, assignment, config)
    assert result.app_sent == (2, 2, 0)

    tx_windows = [
        (t, t + dur, node)
        for t, node, kind, _, _, _ in result.events
        if kind == "tx"
    ]
    contested = any(
        a0 < b1 and b0 < a1
        for a0, a1, na in tx_windows
        for b0, b1, nb in tx_windows
        if na != nb
    )
    # origination, one forward, each jittered up to 3 ms: packets this far
    # from the horizon complete both hops inside the run
    cutoff = result.sim_time_us - 2 * (3000 + dur)
    if not contested:
        delivered = {
            (source, pkt)
            for _, _, kind, source, pkt, _ in result.events
            if kind == "deliver"
        }
        for t, node, kind, source, pkt, _ in result.events:
            if kind == "origin" and t <= cutoff:
                assert (source, pkt) in delivered
        assert result.max_hops == 2


# ---------------------------------------------------------------------------
# metrics on synthetic results


def synthetic_result(app_sent, delivered, fractions=None, relays=()):
    n = len(app_sent)
    fractions = fractions or [(0.0, 0.0, 1.0)] * n
    return SimResult(
        sim_time_us=1_000_000,
        seed=0,
        relays=tuple(relays),
        app_sent=tuple(app_sent),
        net_transmissions=(0,) * n,
        relayed_count=(0,) * n,
        delivered_by_source=tuple(delivered),
        t_tx_frac=tuple(f[0] for f in fractions),
        t_listen_frac=tuple(f[1] for f in fractions),
        t_sleep_frac=tuple(f[2] for f in fractions),
        max_hops=0,
        processed_events=0,
        events=(),
    )


@settings(max_examples=EXAMPLES["pdr_definitions_agree"])
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
            lambda p: (max(p), min(p))
        ),
        min_size=1,
        max_size=8,
    )
)
def test_pdr_definitions_agree(pairs):
    sent = [s for s, _ in pairs]
    delivered = [d for _, d in pairs]
    result = synthetic_result(sent, delivered)
    got = network_pdr(result)
    per_node = per_node_pdr(result)
    if sum(sent) == 0:
        assert got is None
        assert all(p is None for p in per_node)
        return
    assert got == 100.0 * sum(delivered) / sum(sent)
    weighted = sum(s * p for s, p in zip(sent, per_node) if s)
    assert math.isclose(weighted / sum(sent), got, rel_tol=0, abs_tol=1e-9)
    for s, d, p in zip(sent, delivered, per_node):
        if s == 0:
            assert p is None
        else:
            assert p == 100.0 * d / s
            assert 0.0 <= p <= 100.0


@settings(max_examples=EXAMPLES["load_stats_laws"])
@given(st.lists(st.integers(0, 500), min_size=0, max_size=10))
def test_load_stats_laws(loads):
    n = len(loads)
    result = SimResult(
        sim_time_us=1_000_000,
        seed=0,
        relays=tuple(range(n)),
        app_sent=(0,) * (n + 1),
        net_transmissions=tuple(loads) + (0,),
        relayed_count=tuple(loads) + (0,),
        delivered_by_source=(0,) * (n + 1),
        t_tx_frac=(0.0,) * (n + 1),
        t_listen_frac=(0.0,) * (n + 1),
        t_sleep_frac=(1.0,) * (n + 1),
        max_hops=0,
        processed_events=0,
        events=(),
    )
    stats = relay_load_stats(result)
    if n == 0:
        assert stats == {"loads": [], "mean": None, "stdev": None, "cv": None}
        return
    assert stats["loads"] == loads
    assert sum(stats["loads"]) == sum(loads)
    assert stats["mean"] == statistics.fmean(loads)
    if max(loads) == min(loads):
        assert stats["cv"] == 0.0
    else:
        assert stats["cv"] == statistics.pstdev(loads) / statistics.fmean(loads)
        assert stats["cv"] >= 0.0


@settings(max_examples=EXAMPLES["current_bounds"])
@given(
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0.001, 1)),
    st.tuples(st.floats(0, 0.1), st.floats(0.1, 8), st.floats(8, 30)),
)
def test_current_bounds(weights, ladder):
    total = sum(weights)
    t_tx, t_listen = weights[0] / total, weights[1] / total
    t_sleep = 1.0 - t_tx - t_listen
    i_sleep, i_listen, i_tx = ladder
    profile = PowerProfile(i_tx_ma=i_tx, i_listen_ma=i_listen, i_sleep_ma=i_sleep)
    current = node_current_ma(t_tx, t_listen, t_sleep, profile)
    assert i_sleep - 1e-9 <= current <= i_tx + 1e-9


# ---------------------------------------------------------------------------
# horizon-length insensitivity (statistical, wide band)


def test_pdr_insensitive_to_horizon():
    """Twice the horizon is twice the packets at the same traffic density,
    so the delivery ratio should move little."""
    topo = build_layout(FDOT_45MPH)
    assignment = crns_select(topo)
    means = []
    for sim_time in (4.0, 8.0):
        pdrs = []
        for seed in range(4):
            result = run(
                topo,
                assignment,
                ScenarioConfig(app_rate_pps=1.0, sim_time_s=sim_time, seed=seed),
            )
            pdrs.append(network_pdr(result))
        means.append(statistics.fmean(pdrs))
    assert abs(means[0] - means[1]) <= 15.0
    assert all(50.0 <= m <= 100.0 for m in means)


def test_declared_case_budget():
    assert sum(EXAMPLES.values()) >= 200


# ---------------------------------------------------------------------------
# A8 of the release gate (see tests/test_acceptance.py), last in the module


def test_invariant_suite_budget(suite_start):
    """A8: the generated-input suite runs within its time budget. It judges
    the run this session made of the tests above, from the first one's set-up
    to here, so a -k selection judges the part that ran. Any failing test of
    the module fails the run, and test_declared_case_budget holds the case
    count."""
    elapsed = time.perf_counter() - suite_start
    ok = elapsed < 30.0
    line = (
        f"[A8] {'PASS' if ok else 'FAIL'}: invariant suite runs within its time budget "
        f"({sum(EXAMPLES.values())} generated cases, {elapsed:.1f}s)"
    )
    print(line)
    assert ok, line
