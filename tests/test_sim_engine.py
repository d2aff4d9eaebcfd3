import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import barrelmesh.sim_engine as se
from barrelmesh.relay_selection import (
    all_relays,
    crns_select,
    random_relays,
)
from barrelmesh.sim_engine import (
    ChannelConfig,
    ScenarioConfig,
    _zone_lanes,
    plan_transmissions,
    run,
)
from barrelmesh.topology import (
    FDOT_45MPH,
    LayoutSpec,
    Segment,
    build_layout,
    topology_from_positions,
)
from opcodes import (
    count_calls, count_deque_appends, count_heap_calls, count_heap_pushes, count_opcodes,
)
from oracles import Frame, pair_loss_probability, reference_run, resolve_receptions


def line_topology(*barrel_xs, sink_x=0.0, range_r=100.0):
    return topology_from_positions(
        [(x, 0.0) for x in barrel_xs], (sink_x, 0.0), range_r
    )


def scenario(**kw):
    return ScenarioConfig(**kw)


def peak_rss_growth_mib(setup: str) -> float:
    """The growth of a fresh process's peak RSS (Linux VmHWM), in MiB, over
    one `run` of the topo, relays and config that `setup` defines.

    Measured this way since tracing allocations slows `run` about 60-fold;
    not by ru_maxrss, which a child inherits from this test session.
    """
    code = textwrap.dedent("""
        from barrelmesh.relay_selection import crns_select
        from barrelmesh.sim_engine import ScenarioConfig, run
        from barrelmesh.topology import FDOT_45MPH, LayoutSpec, Segment, build_layout

        def peak_kib():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status
                            if line.startswith("VmHWM:"))
    """) + textwrap.dedent(setup) + textwrap.dedent("""
        before = peak_kib()
        run(topo, relays, config)
        print(peak_kib() - before)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 2**10


class TestRepeatPlan:
    def test_distance_scaled_rounds_up_per_hop(self):
        topo = line_topology(90.0, 180.0, 270.0)
        assert plan_transmissions(topo, None) == (1, 2, 3)

    def test_exact_multiples_do_not_round_up(self):
        topo = line_topology(100.0, 200.0)
        assert plan_transmissions(topo, None) == (1, 2)

    def test_fixed(self):
        topo = line_topology(90.0, 180.0, 270.0)
        assert plan_transmissions(topo, 2) == (2, 2, 2)

    def test_fixed_requires_at_least_one(self):
        topo = line_topology(90.0)
        with pytest.raises(ValueError):
            plan_transmissions(topo, 0)


class TestResolveReceptions:
    # chain 0-1-2-3: each node hears only its immediate neighbors
    ADJ = (0b0010, 0b0101, 0b1010, 0b0100)
    ALL = 0b1111

    def frame(self, start, tx, channel=0, end=None):
        return Frame(start, start + 100 if end is None else end, tx, channel, tx, 0, 3, 1)

    def test_lone_frame_reaches_in_range_listeners(self):
        f = self.frame(0, tx=1)
        assert resolve_receptions(self.ADJ, self.ALL, f, [f]) == (0b0101, 0, 0)

    def test_listener_mask_filters_receivers(self):
        f = self.frame(0, tx=1)
        assert resolve_receptions(self.ADJ, 0b0100, f, [f]) == (0b0100, 0, 0)

    def test_same_channel_overlap_jams_only_the_jammers_range(self):
        f = self.frame(0, tx=1)
        g = self.frame(50, tx=3)  # reaches node 2 but not node 0
        clear, jam, busy = resolve_receptions(self.ADJ, self.ALL, f, [f, g])
        assert (clear, jam, busy) == (0b0001, 0b0100, 0)

    def test_other_channel_overlap_does_not_jam(self):
        f = self.frame(0, tx=1)
        g = self.frame(50, tx=3, channel=1)
        clear, jam, busy = resolve_receptions(self.ADJ, self.ALL, f, [f, g])
        assert (clear, jam, busy) == (0b0101, 0, 0)

    def test_transmitting_listener_is_busy_not_clear(self):
        f = self.frame(0, tx=1)
        g = self.frame(50, tx=2, channel=1)  # node 2 on air, other channel
        clear, jam, busy = resolve_receptions(self.ADJ, self.ALL, f, [f, g])
        assert (clear, jam, busy) == (0b0001, 0, 0b0100)

    def test_jam_wins_over_busy(self):
        f = self.frame(0, tx=1)
        g1 = self.frame(50, tx=2, channel=1)  # node 2 transmitting
        g2 = self.frame(20, tx=3, channel=0)  # and jammed by node 3
        clear, jam, busy = resolve_receptions(self.ADJ, self.ALL, f, [f, g1, g2])
        assert (clear, jam, busy) == (0b0001, 0b0100, 0)

    def test_touching_frames_do_not_interact(self):
        f = self.frame(0, tx=1)
        g = self.frame(100, tx=3)  # starts exactly as f ends
        h = self.frame(-100, tx=3, end=0)  # ends exactly as f starts
        clear, jam, busy = resolve_receptions(self.ADJ, self.ALL, f, [h, f, g])
        assert (clear, jam, busy) == (0b0101, 0, 0)

    def test_jammer_cannot_reach_past_its_neighbors(self):
        f = self.frame(0, tx=2)  # listeners 1 and 3
        g = self.frame(10, tx=0)  # jams only node 1
        clear, jam, busy = resolve_receptions(self.ADJ, self.ALL, f, [f, g])
        assert (clear, jam, busy) == (0b1000, 0b0010, 0)


class TestSingleBarrel:
    def test_every_packet_delivered_directly(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), scenario(seed=7))
        assert result.relays == ()
        assert result.app_sent == (20, 0)
        assert result.delivered_by_source == (20, 0)
        assert result.net_transmissions == (20, 0)
        assert result.max_hops == 1

    def test_sink_listens_continuously(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), scenario(seed=7))
        assert result.t_tx_frac[1] == 0.0
        assert result.t_listen_frac[1] == 1.0
        assert result.t_sleep_frac[1] == 0.0

    def test_plain_barrel_mostly_sleeps(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), scenario(seed=7))
        assert result.t_sleep_frac[0] > 0.9
        assert result.t_tx_frac[0] > 0.0


class TestChainForwarding:
    def test_two_hop_chain_delivers_everything(self):
        # barrel 1 is out of sink range; its packets arrive via relay 0.
        # The sink can only be jammed by a transmitter inside its own range,
        # and the only such node is barrel 0, which never overlaps itself,
        # so direct and forwarded deliveries are both collision-proof here.
        topo = line_topology(90.0, 180.0)
        a = crns_select(topo)
        assert a == (0,)
        result = run(topo, a, scenario(seed=3))
        assert result.app_sent == (20, 20, 0)
        assert result.delivered_by_source == (20, 20, 0)
        assert result.max_hops == 2
        assert result.relayed_count[0] == 20

    def test_ttl_one_stops_forwarding(self):
        topo = line_topology(90.0, 180.0)
        result = run(topo, crns_select(topo), scenario(seed=3, ttl=1))
        assert result.delivered_by_source == (20, 0, 0)
        assert result.relayed_count == (0, 0, 0)

    def test_relay_forwards_each_packet_once_despite_repeats(self):
        # barrel 1 sends 2 copies per packet; the duplicate cache must keep
        # the relay at one forward per packet
        topo = line_topology(90.0, 180.0)
        result = run(topo, crns_select(topo), scenario(seed=11))
        assert plan_transmissions(topo, None)[1] == 2
        assert result.net_transmissions[1] == 40
        assert result.relayed_count[0] == 20

    def test_generous_ttl_changes_nothing(self):
        topo = build_layout(FDOT_45MPH)
        a = crns_select(topo)
        deep = run(topo, a, scenario(seed=5, ttl=127))
        shallow = run(topo, a, scenario(seed=5, ttl=40))
        assert deep == shallow
        assert deep.max_hops < 40


class TestDeterminism:
    def test_identical_runs_are_identical(self):
        topo = build_layout(FDOT_45MPH)
        a = crns_select(topo)
        cfg = scenario(seed=123, app_rate_pps=4.0, emit_events=True)
        assert run(topo, a, cfg) == run(topo, a, cfg)

    def test_seed_changes_the_run(self):
        topo = build_layout(FDOT_45MPH)
        a = crns_select(topo)
        r1 = run(topo, a, scenario(seed=1, app_rate_pps=4.0))
        r2 = run(topo, a, scenario(seed=2, app_rate_pps=4.0))
        assert r1 != r2

    def test_offered_load_is_exact(self):
        topo = build_layout(FDOT_45MPH)
        a = crns_select(topo)
        for rate, expect in [(1.0, 20), (4.0, 80)]:
            result = run(topo, a, scenario(seed=9, app_rate_pps=rate))
            assert result.app_sent == tuple([expect] * 30 + [0])


class TestStateTime:
    @pytest.mark.parametrize("algo", ["crns", "all", "random"])
    def test_fractions_close_to_one(self, algo):
        topo = build_layout(FDOT_45MPH)
        a = {
            "crns": crns_select(topo),
            "all": all_relays(topo),
            "random": random_relays(topo, 10, seed=4),
        }[algo]
        result = run(topo, a, scenario(seed=21, app_rate_pps=4.0))
        for i in range(topo.node_count):
            total = result.t_tx_frac[i] + result.t_listen_frac[i] + result.t_sleep_frac[i]
            assert total == pytest.approx(1.0, abs=1e-9)
            assert result.t_tx_frac[i] >= 0.0
            assert result.t_listen_frac[i] >= 0.0
            assert result.t_sleep_frac[i] >= 0.0

    def test_relays_never_sleep(self):
        topo = build_layout(FDOT_45MPH)
        a = crns_select(topo)
        result = run(topo, a, scenario(seed=21))
        for r in a:
            assert result.t_sleep_frac[r] == 0.0


class TestEventTrace:
    def test_disabled_by_default(self):
        topo = line_topology(50.0)
        assert run(topo, crns_select(topo), scenario(seed=1)).events == ()

    def test_trace_kinds_and_order(self):
        topo = line_topology(90.0, 180.0)
        result = run(topo, crns_select(topo), scenario(seed=3, emit_events=True))
        kinds = {e[2] for e in result.events}
        assert kinds == {"origin", "tx", "rx", "deliver"}
        times = [e[0] for e in result.events]
        assert times == sorted(times)
        origins = [e for e in result.events if e[2] == "origin"]
        assert len(origins) == 40
        assert all(e[5] == -1 for e in origins)

    def test_per_node_transmissions_serialized(self):
        topo = build_layout(FDOT_45MPH)
        cfg = scenario(seed=17, emit_events=True)
        result = run(topo, all_relays(topo), cfg)
        dur = cfg.channel.frame_duration_us
        last = {}
        saw_tx = 0
        for t, node, kind, *_ in result.events:
            if kind != "tx":
                continue
            saw_tx += 1
            if node in last:
                assert t - last[node] >= dur
            last[node] = t
        assert saw_tx > 100

    def test_trace_capacity_is_enforced(self, monkeypatch):
        monkeypatch.setattr(se, "EVENT_LOG_CAP", 10)
        topo = line_topology(50.0)
        with pytest.raises(ValueError, match=(
            "^event trace exceeded 10 entries; run without emit_events or shorten the scenario$"
        )):
            run(topo, crns_select(topo), scenario(seed=1, emit_events=True))

    def test_trace_capacity_holds_a_trace_of_its_size(self, monkeypatch):
        topo = line_topology(50.0)
        config = scenario(seed=1, emit_events=True)
        result = run(topo, crns_select(topo), config)
        monkeypatch.setattr(se, "EVENT_LOG_CAP", len(result.events))
        assert run(topo, crns_select(topo), config) == result
        monkeypatch.setattr(se, "EVENT_LOG_CAP", len(result.events) - 1)
        with pytest.raises(ValueError, match=f"^event trace exceeded {len(result.events) - 1} entries;"):
            run(topo, crns_select(topo), config)


class TestGuards:
    def test_event_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(se, "MAX_EVENTS", 50)
        topo = build_layout(FDOT_45MPH)
        with pytest.raises(ValueError, match=(
            "^exceeded 50 events: the run originates 600 packets by t=20000000us$"
        )):
            run(topo, crns_select(topo), scenario(seed=1))

    @pytest.mark.parametrize(
        "rate, events",
        [
            pytest.param(4.0, 7135, id="4pps"),
            # 512 packet rounds: nearly every listener is jammed, and most
            # frame starts wait for their radio
            pytest.param(256.0, 105383, id="256pps"),
        ],
    )
    def test_processed_event_count_is_pinned(self, rate, events, monkeypatch):
        # processed_events and the MAX_EVENTS budget count every event
        # taken, frame ends and stale radio-free entries included, so the
        # figure does not depend on how the engine stores its events
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=rate, sim_time_s=2.0, seed=7)
        result = run(topo, crns_select(topo), config)
        assert result.processed_events == events
        monkeypatch.setattr(se, "MAX_EVENTS", events - 1)
        with pytest.raises(ValueError, match=(
            f"^exceeded {events - 1} events by t=2000000us; "
            "the run is too large for the event budget$"
        )):
            run(topo, crns_select(topo), config)
        monkeypatch.setattr(se, "MAX_EVENTS", events)
        assert run(topo, crns_select(topo), config) == result

    def test_budget_ends_at_the_horizon(self, monkeypatch):
        # one origination and its frame start by the 1 ms horizon, whose
        # frame ends past it: the heap's horizon entry ends the run and is
        # not an event, so a budget of exactly 2 holds
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=4.0, sim_time_s=0.001, seed=1)
        result = run(topo, crns_select(topo), config)
        assert result.processed_events == 2
        monkeypatch.setattr(se, "MAX_EVENTS", 2)
        assert run(topo, crns_select(topo), config) == result

    def test_budget_of_the_originations_alone_holds(self, monkeypatch):
        # one origination by the 1 ms horizon, whose copy is due past it:
        # the run takes that one event, so a budget of exactly 1 holds
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=4.0, sim_time_s=0.001, seed=6)
        result = run(topo, crns_select(topo), config)
        assert sum(result.app_sent) == result.processed_events == 1
        monkeypatch.setattr(se, "MAX_EVENTS", 1)
        assert run(topo, crns_select(topo), config) == result
        monkeypatch.setattr(se, "MAX_EVENTS", 0)
        with pytest.raises(ValueError, match="originates 1 packets"):
            run(topo, crns_select(topo), config)

    def test_runaway_stops_at_an_origination(self, monkeypatch):
        # 2 s at 256 pkt/s offers 15360 originations and takes 105383 events
        # (see test_processed_event_count_is_pinned). A budget of 20000 holds
        # the originations, so the run gets past the check made before the
        # copies are drawn. An origination refuses it once its frames and
        # forwards, with every origination, pass the budget: at 289 ms, with
        # 15005 events taken. Counting each event as it was taken, the loop
        # stopped at 550 ms.
        topo = build_layout(FDOT_45MPH)
        monkeypatch.setattr(se, "MAX_EVENTS", 20000)
        config = scenario(app_rate_pps=256.0, sim_time_s=2.0, seed=7)
        with pytest.raises(ValueError, match=(
            r"^exceeded 20000 events at t=\d+us; the run is too large for the event budget$"
        )) as refused:
            run(topo, crns_select(topo), config)
        stopped_at = int(str(refused.value).split("at t=")[1].split("us")[0])
        assert stopped_at < 500_000

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="the bound counts CPython 3.11 opcodes",
    )
    def test_saturated_run_opcodes_per_event_are_bounded(self):
        # At 256 pkt/s nearly every listener a frame reaches is jammed, and
        # the jam scan stops once none is left. Counted exactly, `run`
        # executed 228.6 opcodes per event on this cell when it scanned every
        # frame in reach and bumped its frame counters at each frame start,
        # and 168.1 without; the bound sits 20% under the former. It read
        # 176.4 once `run` built each packet's copies in its own frames as
        # the packet originates. When a separate generator built them in
        # batches ahead of the run, that work went uncounted; counted with
        # the generator's frames too, that engine read 188.4. It read 168.6
        # once the count of frame ends was derived after the loop and the
        # half-duplex test read busy_until, and 163.2 once the loop handled
        # the heap's head in place and counted seqs itself. It read 158.0
        # once a frame start was one flat heap entry, frames kept no start,
        # and the event count was derived after the loop, and now reads
        # 158.2: lossy and lossless runs share one liveness test, one `|`
        # more per frame start.
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=256.0, sim_time_s=0.2, seed=1)
        result, opcodes = count_opcodes(run, topo, crns_select(topo), config)
        assert opcodes / result.processed_events < 182.0

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="the bound counts CPython 3.11 opcodes",
    )
    def test_paper_cell_opcodes_per_event_are_bounded(self):
        # A cell of the paper matrix: 1380 of its 3274 frames start when
        # every listener in reach already holds their packet. Counted
        # exactly, `run` executed 191.75 opcodes per event here when it
        # queued every frame for its end, and 164.7 once such frames were
        # not queued; the bound sits between the two. It read 156.3 once the
        # loop handled the heap's head in place and counted seqs itself,
        # 146.7 once a frame start was one flat heap entry, frames kept no
        # start, and the event count was derived after the loop, and now
        # reads 147.5, with one liveness test for lossy and lossless runs.
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=4.0, sim_time_s=2.0, seed=1000)
        result, opcodes = count_opcodes(run, topo, crns_select(topo), config)
        assert opcodes / result.processed_events < 178.0

    @pytest.mark.parametrize("loss_p, frames, queued", [(0.0, 3274, 1894), (0.1, 3253, 3253)])
    def test_frames_queued_for_their_end(self, loss_p, frames, queued):
        # On the paper cell of the opcode bound above, every frame joins its
        # lane, and one is queued in `air` for its end only if that end would
        # consider a listener: at loss_p = 0, the 1380 frames that start
        # when every listener in reach holds their packet are not; a lossy
        # end draws for every listener in reach, so every frame is.
        topo = build_layout(FDOT_45MPH)
        config = scenario(
            app_rate_pps=4.0, sim_time_s=2.0, seed=1000, channel=ChannelConfig(loss_p=loss_p)
        )
        result, appends = count_deque_appends(run, topo, crns_select(topo), config)
        assert sum(result.net_transmissions) == frames
        assert appends - frames == queued

    def test_budget_below_the_originations_fails_before_drawing(self, monkeypatch):
        # Every origination is an event taken, and 2000 s at 4 pkt/s offers
        # 240000 of them, so a budget of 10 cannot hold the run. It fails
        # before the copy draws' arrays are made; it used to draw every copy
        # first and fail in the event loop, after 0.1 s and 21 MiB.
        topo = build_layout(FDOT_45MPH)
        monkeypatch.setattr(se, "MAX_EVENTS", 10)
        config = scenario(app_rate_pps=4.0, sim_time_s=2000.0, seed=1)

        def attempt():
            with pytest.raises(ValueError, match="originates 240000 packets"):
                run(topo, crns_select(topo), config)

        _, arrays = count_calls(attempt, se, "array")
        assert arrays == 0

    def test_copy_draws_are_bounded_before_drawing(self):
        # 30 barrels each offer one packet in 1 s, of 1e11 copies: the run
        # used to draw every copy's jitter and channel before its first
        # event. Its 30 originations are well inside MAX_EVENTS, and the
        # draw bound refuses it before the arrays are made.
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=1.0, sim_time_s=1.0, seed=1, copies=10**11)

        def attempt():
            with pytest.raises(ValueError, match="^the run would draw 3000000000000 copies up front"):
                run(topo, crns_select(topo), config)

        _, arrays = count_calls(attempt, se, "array")
        assert arrays == 0

    def test_saturated_run_heap_calls_per_event_are_bounded(self):
        # Most events here push exactly one heap entry: a frame start that
        # finds its radio on air, or one with frames waiting behind it. Each
        # now replaces the heap's head with that entry in one heapreplace,
        # and the run makes 1.430 heap calls per event (pushes, pops and
        # replaces, pending queues included); it made 1.810 when every heap
        # event was popped first and its entries pushed after. The paper
        # cell (crns@4, seed 1000, 2 s) reads 1.093, against 1.175.
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=256.0, sim_time_s=0.2, seed=1)
        result, calls = count_heap_calls(run, topo, crns_select(topo), config)
        assert calls / result.processed_events < 1.6

    def test_heap_holds_one_origination(self):
        # Originations run round-robin over the sources, each pushing the
        # next, so the heap holds what is due soon. When every source kept
        # its own next origination there, the heap held 30 of them on this
        # cell and a mean of 43.7 entries at a push; it now holds one and
        # 16.7. An origination's copies are pushed while it is still the
        # heap's head, so the count of pushes, heapreplace's included, is
        # what shows that the next originations are seen at all.
        topo = build_layout(FDOT_45MPH)
        config = scenario(app_rate_pps=4.0, sim_time_s=2.0, seed=1000)
        _, pushes = count_heap_pushes(run, topo, crns_select(topo), config)
        assert len(pushes) == 3855
        assert max(origins for _, origins in pushes) == 1
        assert sum(length for length, _ in pushes) / len(pushes) < 25.0

    @pytest.mark.parametrize(
        "sim_time_s, bound_mib",
        [
            # the up-front schedule is built in batches as the run reaches
            # them, so the peak no longer holds every origination and copy at
            # once: the peak RSS grew over 12 MiB across this run when the
            # whole schedule was built before the first event
            pytest.param(2.0, 12.1 / 2, id="2s"),
            # each origination pushes its own copies and the next
            # origination, so the heap holds only what is due soon and the growth
            # is mostly the up-front draw arrays: 0.26-0.47 MiB, against
            # 2.1 MiB when the originations and copies were built ahead in
            # batches of packet rounds
            pytest.param(2.0, 1.0, id="2s-heap-only"),
            # a packet's lack mask lives on a record its frames share, not
            # in a table kept for the whole run: the growth was about 29 MiB
            # with one mask per offered packet and a list of its deliveries
            pytest.param(20.0, 12.0, id="20s"),
        ],
    )
    def test_saturated_run_memory_is_bounded(self, sim_time_s, bound_mib):
        growth = peak_rss_growth_mib(f"""
            topo = build_layout(FDOT_45MPH)
            relays = crns_select(topo)
            config = ScenarioConfig(app_rate_pps=256.0, sim_time_s={sim_time_s}, seed=1)
        """)
        assert growth < bound_mib

    def test_lanes_of_dead_frames_stay_bounded(self):
        # With no relays, only the sink listens, and the frames of the far
        # zones of this eight-zone row reach no listener: none is queued for
        # its end, so no frame end of their own prunes those lanes. Each
        # such frame prunes its lane as it joins it. The growth read 0.15
        # MiB; without that prune it read 8.9 MiB, as those lanes kept every
        # frame they got to the end of the run.
        growth = peak_rss_growth_mib("""
            topo = build_layout(LayoutSpec(segments=(Segment("row", 149 * 12.0, 12.0),)))
            relays = ()
            config = ScenarioConfig(app_rate_pps=16.0, sim_time_s=2.0, seed=1)
        """)
        assert growth < 2.0

    def test_multi_zone_row_scans_only_neighbouring_zones(self):
        # The row below spans 1798 m, sink included: eight zones of 224.75
        # m, each wider than 2 * range. With every node a listener, a zone's
        # jammers lie within 2 * range of it, so each lane's sides are the
        # zones next to its own and no more.
        topo = build_layout(LayoutSpec(segments=(Segment("row", 149 * 12.0, 12.0),)))
        lanes = _zone_lanes(topo, list(topo.adjacency), 1)
        # barrel ids ascend with x, so zones first appear in x order
        zones = list({id(lane[0][0]): None for lane in lanes})
        assert len(zones) == 8
        for lane in lanes:
            zone = zones.index(id(lane[0][0]))
            sides = [zones.index(id(side)) for side in lane[0][1]]
            assert sides == [z for z in (zone - 1, zone + 1) if 0 <= z < 8]

    def test_multi_zone_row_matches_reference(self):
        # 150 barrels at 12 m span eight 2R zones, so frame ends scan their
        # neighbours' lanes too; the golden digests cover only the one-zone
        # shipped layout
        topo = build_layout(LayoutSpec(segments=(Segment("row", 149 * 12.0, 12.0),)))
        config = scenario(app_rate_pps=1.0, sim_time_s=1.0, seed=7)
        got = run(topo, crns_select(topo), config)
        assert got.processed_events == 26590
        want = reference_run(topo, crns_select(topo), config)
        assert replace(got, processed_events=0) == replace(want, processed_events=0)

    def test_wake_time_spans_copies_still_owed(self):
        # 30 ms of jitter against a 10 ms interval: a copy of a packet often
        # starts after the barrel's next packet originates, with its radio
        # idle in between. The barrel stays awake through that gap, so the
        # origination must not end one wake period and open another.
        topo = line_topology(50.0)
        cfg = scenario(
            seed=1,
            app_rate_pps=100.0,
            sim_time_s=0.1,
            copies=2,
            channel=ChannelConfig(frame_duration_us=1000, adv_jitter_ms=30.0),
            emit_events=True,
        )
        result = run(topo, crns_select(topo), cfg)
        starts = [(t, pkt) for t, _, kind, _, pkt, _ in result.events if kind == "tx"]
        assert any(
            kind == "origin"
            and any(s > t and p < pkt for s, p in starts)
            and all(s + 1000 < t for s, _ in starts if s < t)
            for t, _, kind, _, pkt, _ in result.events
        )
        want = reference_run(topo, crns_select(topo), cfg)
        assert result.t_listen_frac == want.t_listen_frac
        assert result.t_sleep_frac == want.t_sleep_frac

    def test_bad_ttl_rejected(self):
        topo = line_topology(50.0)
        with pytest.raises(ValueError):
            run(topo, crns_select(topo), scenario(ttl=0))

    def test_rate_too_high_for_the_clock_rejected(self):
        topo = line_topology(50.0)
        with pytest.raises(ValueError, match="microsecond"):
            run(topo, crns_select(topo), scenario(app_rate_pps=1e6))

    @pytest.mark.parametrize(
        "relays, config, name",
        [
            pytest.param((1,), {}, "relay 1", id="sink-relay"),
            *[
                pytest.param(None, {key: value}, key, id=f"{key}={value}")
                for key in ("sim_time_s", "app_rate_pps")
                for value in (0.0, -1.0, math.inf, math.nan)
            ],
            # a horizon that rounds to 0 us used to end in a ZeroDivisionError,
            # and one or an interval past the largest float in an OverflowError
            *[
                pytest.param(None, {"sim_time_s": value}, "sim_time_s", id=f"sim_time_s={value}")
                for value in (1e-7, 5e-7, 1e308)
            ],
            pytest.param(
                None, {"app_rate_pps": 1e-308}, "app rate too low", id="app_rate_pps=1e-308"
            ),
            # a non-integer count used to run (ttl) or end in a TypeError
            *[
                pytest.param(None, {key: 1.5}, key, id=f"{key}=1.5") for key in ("ttl", "copies")
            ],
            *[
                pytest.param(
                    None, {"channel": ChannelConfig(**{key: value})}, key, id=f"{key}={value}"
                )
                for key, value in (
                    ("frame_duration_us", 0),
                    ("frame_duration_us", 1.5),
                    ("n_adv_channels", 0),
                    ("n_adv_channels", 1.5),
                    # BLE has 40 channels, and its longest advertising interval is 10.24 s
                    ("n_adv_channels", 41),
                    ("adv_jitter_ms", -1.0),
                    ("adv_jitter_ms", 10240.001),
                    ("adv_jitter_ms", math.inf),
                    ("adv_jitter_ms", math.nan),
                    ("loss_p", -0.1),
                    ("loss_p", 1.5),
                    ("loss_p", math.nan),
                )
            ],
        ],
    )
    def test_invalid_run_rejected_naming_its_field(self, relays, config, name):
        # the checks a plan's readers make, so a library caller gets a
        # ValueError naming the field, never an OverflowError from the clock
        topo = line_topology(50.0)
        with pytest.raises(ValueError, match=name):
            run(topo, relays or crns_select(topo), scenario(**config))

    def test_one_tick_horizon_runs(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), scenario(sim_time_s=1e-6))
        assert result.sim_time_us == 1
        assert sum(result.app_sent) == 0

    def test_channel_bounds_are_inclusive(self):
        topo = line_topology(50.0)
        channel = ChannelConfig(n_adv_channels=40, adv_jitter_ms=10240.0)
        result = run(topo, crns_select(topo), scenario(sim_time_s=1e-6, channel=channel))
        assert result.sim_time_us == 1


class TestLossModel:
    def cfg(self, p, seed=5):
        return scenario(seed=seed, channel=ChannelConfig(loss_p=p))

    def test_certain_loss_delivers_nothing(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), self.cfg(1.0))
        assert sum(result.delivered_by_source) == 0

    def test_zero_loss_delivers_everything_here(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), self.cfg(0.0))
        assert result.delivered_by_source[0] == 20

    def test_partial_loss_lands_between(self):
        topo = line_topology(50.0)
        result = run(topo, crns_select(topo), self.cfg(0.6))
        assert 0 < result.delivered_by_source[0] < 20


class TestHardStop:
    def test_unfinished_frames_are_not_received(self):
        # one barrel, one packet; the frame straddles the end of the run
        # (the phase draw lands below 10 ms only one seed in a hundred)
        topo = line_topology(50.0)
        cfg = scenario(
            seed=2,
            app_rate_pps=1.0,
            sim_time_s=1.0,
            channel=ChannelConfig(frame_duration_us=990_000, adv_jitter_ms=0.0),
        )
        result = run(topo, crns_select(topo), cfg)
        assert result.app_sent[0] == 1
        assert result.delivered_by_source[0] == 0
        assert result.net_transmissions[0] == 1
        # airtime is clipped at the end of the run
        assert 0.0 < result.t_tx_frac[0] < 0.99
        total = result.t_tx_frac[0] + result.t_listen_frac[0] + result.t_sleep_frac[0]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_copies_still_queued_keep_the_node_awake(self):
        # three 400 ms copies cannot all finish inside one second, so the
        # barrel is still awake (queued, not sleeping) when the run ends
        topo = line_topology(50.0, range_r=60.0)
        cfg = scenario(
            seed=2,
            sim_time_s=1.0,
            copies=3,
            channel=ChannelConfig(frame_duration_us=400_000, adv_jitter_ms=0.0),
        )
        result = run(topo, crns_select(topo), cfg)
        assert result.t_tx_frac[0] > 0.0
        assert result.t_sleep_frac[0] < 1.0
        total = result.t_tx_frac[0] + result.t_listen_frac[0] + result.t_sleep_frac[0]
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCollisions:
    def test_aligned_copies_jam_the_shared_relay(self):
        # interval 2 us forces every source phase to exactly 1 us, so the
        # two sources transmit in lockstep on the single channel with zero
        # jitter: the relay between them is jammed on every frame and never
        # forwards, and neither source can reach the sink directly.
        topo = topology_from_positions(
            [(110.0, 60.0), (110.0, -60.0), (90.0, 0.0)], (0.0, 0.0), 100.0
        )
        a = (2,)
        cfg = scenario(
            seed=6,
            app_rate_pps=500_000.0,
            sim_time_s=0.00002,
            channel=ChannelConfig(
                n_adv_channels=1, frame_duration_us=1, adv_jitter_ms=0.0
            ),
        )
        result = run(topo, a, cfg)
        assert result.app_sent[0] == result.app_sent[1] == 10
        # the relay's own packets go straight to the sink (it sits in sink
        # range and nothing in sink range ever overlaps it); the jammed
        # sources get nothing through
        assert result.delivered_by_source == (0, 0, 10, 0)
        assert result.relayed_count[2] == 0

    def test_second_channel_lets_copies_through(self):
        # same geometry, but copies hop over two channels: whenever the two
        # sources draw different channels the relay hears one of them
        topo = topology_from_positions(
            [(110.0, 60.0), (110.0, -60.0), (90.0, 0.0)], (0.0, 0.0), 100.0
        )
        a = (2,)
        cfg = scenario(
            seed=6,
            app_rate_pps=500_000.0,
            sim_time_s=0.00002,
            channel=ChannelConfig(
                n_adv_channels=2, frame_duration_us=1, adv_jitter_ms=0.0
            ),
        )
        result = run(topo, a, cfg)
        assert sum(result.delivered_by_source) > 0

    def test_two_sources_lose_what_the_closed_form_predicts(self):
        # Two barrels 120 m apart, each 60 m from the sink, hear only the
        # sink. With nothing relaying and one copy a packet, a packet is lost
        # only where the other source's frame overlaps it on its channel.
        topo = line_topology(-60.0, 60.0)
        assert topo.adjacency[0] >> 1 & 1 == 0
        channel = ChannelConfig()
        interval = se.packet_interval_us(40.0)
        jitter = round(channel.adv_jitter_ms * 1000)
        seeds = range(10)
        lost, expected, variance = [0, 0], [0.0, 0.0], [0.0, 0.0]
        for seed in seeds:
            config = scenario(app_rate_pps=40.0, sim_time_s=100.0, seed=seed, copies=1)
            result = run(topo, (), config)
            rng = random.Random(seed)  # the run's first draws: each source's phase
            phases = [rng.randrange(1, interval) for _ in range(2)]
            for src in (0, 1):
                q = float(pair_loss_probability(
                    phases[1 - src] - phases[src], interval, jitter,
                    channel.frame_duration_us, channel.n_adv_channels,
                ))
                n = result.app_sent[src]
                lost[src] += n - result.delivered_by_source[src]
                expected[src] += n * q
                variance[src] += n * q * (1 - q)
        # A collision loses both frames, so each source is checked alone: no
        # frame of the other overlaps two of its frames, so its losses are
        # near independent. The horizon may cut one frame per source and run.
        for src in (0, 1):
            assert abs(lost[src] - expected[src]) <= 4 * math.sqrt(variance[src]) + len(seeds)


class TestBoundedDraw:
    """The engine draws through its own copy of CPython's randrange; a
    change to the interpreter's randrange must fail here, not shift outputs."""

    BOUNDS = [1, 2, 3, 4, 5, 12000, 2**14, 2**14 + 1]

    @pytest.mark.parametrize("m", BOUNDS)
    def test_matches_randrange(self, m):
        ours, theirs = random.Random(m), random.Random(m)
        got = [se._randbelow(ours.getrandbits, m) for _ in range(300)]
        assert got == [theirs.randrange(m) for _ in range(300)]
        assert ours.getstate() == theirs.getstate()

    def test_zero_bits_draw_nothing(self):
        # a run with no jitter draws its jitters as getrandbits(0) < 1
        rng = random.Random(1)
        state = rng.getstate()
        assert [rng.getrandbits(0) for _ in range(300)] == [0] * 300
        assert rng.getstate() == state

    @pytest.mark.parametrize("interval", [m for m in BOUNDS if m > 1])
    def test_phase_draw_matches_randrange_from_one(self, interval):
        ours, theirs = random.Random(interval), random.Random(interval)
        got = [1 + se._randbelow(ours.getrandbits, interval - 1) for _ in range(300)]
        assert got == [theirs.randrange(1, interval) for _ in range(300)]
        assert ours.getstate() == theirs.getstate()
