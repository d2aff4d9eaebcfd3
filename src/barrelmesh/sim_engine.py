"""Deterministic event simulation of flooding dissemination.

Time is integer microseconds. Every stochastic quantity comes from one
`random.Random(config.seed)` stream with a fixed draw order, so a run is a
pure function of (topology, relays, config):

1. per-source phase offsets, ascending source id;
2. jitter and channel for every origination copy, ascending (source, packet,
   copy);
3. event-stream draws at frame ends: receivers are visited in ascending id,
   and each receiver's loss draw (when loss_p > 0) and forward
   jitter/channel draws complete before the next receiver is considered.

Every bounded draw is CPython 3.11's `randrange`: `_randbelow` reproduces its
`_randbelow_with_getrandbits` bit for bit (draw n.bit_length() bits until
the value is below n). A test checks the two against each other on the
running interpreter, so an interpreter whose `randrange` differs fails there
instead of silently drawing a different stream than the reference engine.

Events run in (time, seq) order. seq counts events as they are created:
originations and origin copies in the draw order above, then each forward
when it is drawn and each frame end when its frame starts. The engine keeps
two streams, each in (time, seq) order, and always takes the lesser head:
the frames on air (a FIFO: every frame lasts the same time and frames start
in order, so they end in order) and one heap of every other event. That is
exactly the order one heap of all events would give. The heap ends with the
horizon entry (sim_time, inf), after every event due by sim_time, frame ends
included, and before every later one: the loop stops on reaching it, and
takes nothing past sim_time off either stream. An event pushes only entries
that sort after it, so the loop handles the heap's head in place and takes
it off at the end of its branch, by heapreplace when the event pushes
exactly one entry and by heappop otherwise. A frame is live, and queued on
the FIFO, when its end would consider some listener: one in range that
lacks its packet as it starts or, in a lossy run, whose draws keep their
order, any one in range. The lack mask only shrinks, so a dead frame's end
could deliver and draw nothing; it still jams and occupies its radio. A
frame whose radio is still on air waits in its node's pending queue. When
the radio frees at busy_until, the node's waiting frames are served in
(busy_until, original seq) order: each takes its place among that
instant's events, the node's own frame end and frames due at the same
microsecond included, by the seq it was first given, exactly as if it had
been re-pushed at busy_until. Waiting consumes no seq and no draw.

processed_events counts the events one heap of all events would take by
sim_time: originations, scheduled frame starts (whether the frame starts,
waits or falls on the horizon), frame ends, dead or not, and radio-free
entries, stale ones included. A waiting frame is never re-taken, so the
count does not grow with how long frames wait. The loop counts only the
heap events that start no frame; the rest is derived after it: every
origination, and the start and end of every frame started, less the ends
past sim_time. The MAX_EVENTS budget is checked against the originations
before any copy is drawn, and exactly after the loop. In between, an
origination due at least the jitter range before sim_time refuses the run
once the event-stream seqs, each a frame started or a forward scheduled,
pass MAX_EVENTS - originations + n, for n nodes. Every forward scheduled
by then is due by sim_time, so it is taken and starts a frame or is an
event that starts none, and each frame started counts twice, less at most
one end a node past sim_time. So the cap refuses no run its budget holds,
and stops a larger run at the first origination after its frames and
forwards pass its budget. Apart from that budget, a run that would draw
more than MAX_COPY_DRAWS copies up front is refused before it draws any.

The draws of items 1 and 2 all come first: the copies' jitters and channels
go into compact arrays before any event. The up-front seqs are computed,
not counted: a source that sends p packets of c copies owns p * (1 + c)
seqs from base, the number owned by the sources below it. Packet k's
origination gets base + k * (1 + c), and its copy j (from 0) that plus
1 + j. The event-stream seqs come from a local counter past the last
source's; only their order matters. The heap holds one origination: round
k visits the sources in (phase, id) order, each at phase + k * interval,
and each origination pushes its packet's copies and then the next
origination of the round-robin. Every phase lies in [1, interval), so round
k ends before round k + 1 begins; at equal phases, seq ascends with source
id; and packet counts never rise along the order and differ by at most 1,
so the stream ends at the first source with no packet k. What an
origination pushes is on the heap before it can be due, so the events run
in the same order as if every origination and copy had been pushed first.

Radio model: frames have one fixed duration and one advertising channel.
A frame is received by an in-range listener unless a same-channel frame
from another in-range transmitter overlaps it in time (collision), the
listener is itself transmitting during the frame (half-duplex), or an
independent loss draw, made only when loss_p > 0, discards it. Only relays
and the sink listen; a non-relay barrel wakes to transmit its own packets
and sleeps otherwise, so receptions at non-relays are not modeled. Collision beats half-duplex
beats loss beats the duplicate cache when classifying an attempt. The
reference classifier of these rules is `resolve_receptions` in
`tests/oracles.py`. The engine applies them inline, with no busy or jam
mask: the frames on air in the zone lanes below clear the listeners they
jam, the half-duplex test reads the ends of each listener's last two
frames, and loss draws are made only for the listeners left. At
loss_p = 0, it skips the jam scan when every listener in range already
holds the packet.

Frames on air are indexed by zone along the row. Its extent is cut into
the most equal zones that are each at least 2 * range wide, and every frame
joins the lane of its transmitter's zone and channel. A jammer must be in
range of a listener that is in range of the transmitter. The distance
between two nodes is |dx|, the difference of their chainages, so the
jammer lies within 2 * range of the transmitter along the row: in its zone
or a neighbouring one. A frame end scans its own lane and the lanes that
the adjacency masks name for its zone, never every frame on air. A layout
shorter than 4 * range (the shipped one) is one zone, whose frame ends
scan the one lane of their channel. Which frames are scanned changes no
result, only the cost: the scan clears jammed listeners and stops when
none is left, before the side lanes if its own lane jams them all. A side
is pruned before it is scanned, and a lane at the end of each of its live
frames and the start of each of its dead ones.

Dissemination: a source transmits each packet as one or more identical
copies (plan_transmissions), each copy independently jittered. A relay
hearing a packet for the first time forwards it exactly once, one jittered
frame with ttl-1, while later copies die in the duplicate cache. The sink
counts the first arrival of each (source, packet). Per-packet state, the
lack mask of the listeners that do not yet hold the packet, lives on a
record that its frames share.

The engine stops at sim_time: frames that would end after it are never
resolved and their airtime is clipped for the duty-cycle accounting.
net_transmissions and tx airtime are derived at the end from owed, relayed
and busy_until: every origination lies before sim_time and is taken, and a
node's frames never overlap, so only its last one can run past sim_time. A
plain barrel is awake from each packet's origination until that packet's
last copy leaves the air; the engine folds this into per-node counters as it
goes, opening a wake period at an origination that finds the barrel asleep
and extending it to each copy's frame end, so it keeps no per-packet record.
"""
from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .topology import Topology, bits, check_count, check_relays, mask_of

# Bound a large run's work, and refuse silently truncating an event trace
# the caller asked for. A flood cannot loop: a relay forwards a packet only
# on a fresh reception, which clears its bit in the packet's lack mask, so it
# forwards each packet at most once and every run ends. run reads both when
# it is called.
MAX_EVENTS = 100_000_000
EVENT_LOG_CAP = 1_000_000
# Every copy's jitter and channel are drawn before the first event and held
# for the whole run, 9 bytes a copy: refuse a run that would draw more,
# which caps them at 450 MB and about half a minute of drawing.
MAX_COPY_DRAWS = 50_000_000

_ORIGIN, _TX_START, _RADIO_FREE, _HORIZON = 0, 1, 2, 3


@dataclass(frozen=True)
class ChannelConfig:
    """Link-layer timing and reception model for advertising frames.

    Collisions and half-duplex always apply. loss_p > 0 adds an independent
    loss draw for every listener left after them; at 0 no draw is made.
    """

    n_adv_channels: int = 3
    frame_duration_us: int = 1100
    adv_jitter_ms: float = 12.0
    loss_p: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation run: traffic, radio, and replication settings.

    copies is the number of copies every barrel sends of each packet; None
    scales it with distance (see plan_transmissions).
    """

    app_rate_pps: float = 1.0
    sim_time_s: float = 20.0
    seed: int = 0
    ttl: int = 127
    copies: Optional[int] = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    emit_events: bool = False


EVENT_COLUMNS = ("time_us", "node", "kind", "source", "packet", "channel")


@dataclass(frozen=True)
class SimResult:
    """Per-node counters and duty-cycle fractions for one run.

    Tuples are indexed by node id (sink last). events is empty unless the
    scenario asked for a trace; its entries hold EVENT_COLUMNS, with kind in
    origin/tx/rx/deliver and channel -1 where not applicable.
    processed_events counts the events that one heap of all events would
    take, the ends of dead frames included (see the module docstring); it is
    engine bookkeeping, not a model output.
    """

    sim_time_us: int
    seed: int
    relays: tuple[int, ...]
    app_sent: tuple[int, ...]
    net_transmissions: tuple[int, ...]
    relayed_count: tuple[int, ...]
    delivered_by_source: tuple[int, ...]
    t_tx_frac: tuple[float, ...]
    t_listen_frac: tuple[float, ...]
    t_sleep_frac: tuple[float, ...]
    max_hops: int
    processed_events: int
    events: tuple[tuple, ...] = ()


def plan_transmissions(topology: Topology, copies: Optional[int]) -> tuple[int, ...]:
    """Copies per packet for every barrel: the given count everywhere, or with
    None ceil(distance-to-sink / range), minimum 1, so far barrels push
    harder against the thinner delivery odds of a long flood path."""
    if copies is not None:
        check_count("copies", copies)
        return (copies,) * topology.sink
    spans = [topology.distance(i, topology.sink) / topology.range_r for i in topology.barrels]
    # past the largest float, a barrel's copies have no count, let alone draws
    if math.inf in spans:
        raise ValueError("a barrel lies too many ranges from the sink to count its copies")
    return tuple(max(1, math.ceil(span)) for span in spans)


def _randbelow(getrandbits, n: int) -> int:
    """CPython 3.11's Random._randbelow_with_getrandbits, bit for bit.

    randrange(n) is this draw, and randrange(a, b) is a + this draw over
    b - a. n must be positive; n == 1 still consumes random bits.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def packet_interval_us(app_rate_pps: float) -> int:
    """A source's packet interval on the microsecond clock.

    Raises ValueError below 2 us, which leaves no room for the phase draw
    in [1, interval), and past the largest float.
    """
    if not 1e6 / app_rate_pps < math.inf:
        raise ValueError("app rate too low for the microsecond clock")
    interval = round(1e6 / app_rate_pps)
    if interval < 2:
        raise ValueError("app rate too high for the microsecond clock")
    return interval


def _zone_lanes(topology: Topology, reach_of: list[int], nch: int) -> list[list[tuple]]:
    """Each node's lane per channel, (on_air, sides, channel): the deque of
    frames on air, in (end, seq) order, that its frames on that channel
    join; the deques of that channel in other zones that a frame end from
    it must also scan for jammers; and the channel number.

    Zones are the most equal stretches of the row's extent that are each at
    least 2 * range_r wide, and no more than there are nodes (see the module
    docstring). The sides of a lane come from the adjacency masks, not from
    that bound, so float rounding at a zone edge cannot drop a jammer.
    """
    xs = topology.chainages
    x0 = min(xs)
    extent = max(xs) - x0
    # each float is clamped before int: a tiny range or a far sink makes it inf,
    # or NaN over an infinite extent, and min keeps its first argument over NaN
    zones = max(1, int(min(len(xs), extent // (2 * topology.range_r))))
    zone_of = [int(min(zones - 1, (x - x0) * zones / (extent or 1))) for x in xs]
    heard = [0] * zones  # listeners in range of a transmitter in the zone
    for node, zone in enumerate(zone_of):
        heard[zone] |= reach_of[node]
    on_air = [[deque() for _ in range(nch)] for _ in range(zones)]
    lanes = []
    for zone in range(zones):
        # adjacency is symmetric: whoever a listener hears can jam it. The
        # sink never transmits, so it jams nothing.
        jammers = 0
        for listener in bits(heard[zone]):
            jammers |= topology.adjacency[listener]
        jammers &= ~(1 << topology.sink)
        sides = sorted({zone_of[node] for node in bits(jammers)} - {zone})
        lanes.append(
            [(on_air[zone][c], tuple(on_air[z][c] for z in sides), c) for c in range(nch)]
        )
    return [lanes[zone] for zone in zone_of]


def check_config(config: ScenarioConfig) -> None:
    """Raise a ValueError naming the field of a config that run cannot simulate."""
    # run's horizon, sim_time_s rounded to the microsecond clock, must be a finite tick or more
    if not 0.5 < config.sim_time_s * 1e6 < math.inf:
        raise ValueError("sim_time_s must be at least 1 us and finite in microseconds")
    if not 0 < config.app_rate_pps < math.inf:
        raise ValueError("app_rate_pps must be finite and > 0")
    packet_interval_us(config.app_rate_pps)
    check_count("seed", config.seed, least=0)
    check_count("ttl", config.ttl)
    if config.copies is not None:
        check_count("copies", config.copies)
    check_count("frame_duration_us", config.channel.frame_duration_us)
    # BLE's 40 channels and longest advertising interval, which fit run's arrays
    check_count("n_adv_channels", config.channel.n_adv_channels, most=40)
    if not 0 <= config.channel.adv_jitter_ms <= 10240:
        raise ValueError("adv_jitter_ms must be in [0, 10240]")
    if not (0.0 <= config.channel.loss_p <= 1.0):
        raise ValueError("loss_p must be in [0, 1]")


def run(topology: Topology, relays: tuple[int, ...], config: ScenarioConfig) -> SimResult:
    """Simulate one scenario; see the module docstring for the model."""
    check_relays(relays, topology.sink)
    check_config(config)
    n = topology.node_count
    sink = topology.sink
    adj = topology.adjacency
    T = round(config.sim_time_s * 1e6)
    dur = config.channel.frame_duration_us
    jit_max = round(config.channel.adv_jitter_ms * 1000)
    nch = config.channel.n_adv_channels
    loss_p = config.channel.loss_p
    lossy = loss_p > 0
    max_events = MAX_EVENTS
    listener_mask = mask_of(relays) | (1 << sink)
    copies = plan_transmissions(topology, config.copies)
    interval = packet_interval_us(config.app_rate_pps)

    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    random_ = rng.random
    jit_bits = jit_max.bit_length()
    ch_bits = nch.bit_length()
    # A frame's end considers the listeners in reach_of[tx] & (lack | draw_all),
    # and the frame is live, queued in `air`, if some are as it starts
    reach_of = [a & listener_mask for a in adj]
    draw_all = -lossy  # every bit set in a lossy run, none otherwise
    # the listeners a frame of each node cannot jam
    unjammed_by = [listener_mask & ~a for a in adj]
    lanes = _zone_lanes(topology, reach_of, nch)

    # Drawn up front in the contract order. The phase keeps packet k of a
    # source strictly inside (k*interval, (k+1)*interval), so every source
    # originates exactly rate*sim_time packets when the interval divides T.
    phases = [1 + _randbelow(getrandbits, interval - 1) for _ in range(sink)]
    # every origination lies before T, so each is taken and counted here
    app_sent = [0] * n
    # each source's first copy draw in jitters and channels, and first seq
    draw0, seq0 = [0] * sink, [0] * sink
    seq = draws = 0
    for src, phase in enumerate(phases):
        packets = app_sent[src] = max(0, -(-(T - phase) // interval))
        draw0[src], seq0[src] = draws, seq
        seq += packets * (1 + copies[src])
        draws += packets * copies[src]
    # every origination is an event taken, so a run that originates more
    # than its budget fails: fail before drawing every copy
    if sum(app_sent) > max_events:
        raise ValueError(
            f"exceeded {max_events} events: the run originates {sum(app_sent)} "
            f"packets by t={T}us"
        )
    if draws > MAX_COPY_DRAWS:
        raise ValueError(
            f"the run would draw {draws} copies up front, more than {MAX_COPY_DRAWS}"
        )
    # Originations take turns (see the module docstring). Each source's
    # successor: the next in (phase, id) order, the time to its origination,
    # 1 where a round ends, and its packets' lack mask at origination.
    order = sorted(range(sink), key=phases.__getitem__)
    succ = [None] * sink
    for src, nxt in zip(order, order[1:] + order[:1]):
        wrap = int(nxt == order[0])
        gap = phases[nxt] - phases[src] + wrap * interval
        succ[src] = (nxt, gap, wrap, listener_mask & ~(1 << nxt))
    # Every event but frame ends (see `air`), starting from the first
    # origination, and the horizon entry. A packet's record, [listeners that
    # lack it, source, packet], is its origination's payload and rides on
    # each of its frame starts: (time, seq, _TX_START, node, lane of its
    # channel, record, hops), hops 1 for a copy and more for a forward.
    heap: list = [(T, math.inf, _HORIZON, None)]
    if order and app_sent[order[0]]:
        src = order[0]
        heap.insert(0, (phases[src], seq0[src], _ORIGIN, [listener_mask & ~(1 << src), src, 0]))
    # every copy's jitter then channel, ascending (source, packet, copy)
    jitters = array("q")
    channels = bytearray()
    # with no jitter, getrandbits(0) is 0 and draws nothing
    jit_max = max(jit_max, 1)
    for _ in range(draws):
        # _randbelow, inlined
        jitter = getrandbits(jit_bits)
        while jitter >= jit_max:
            jitter = getrandbits(jit_bits)
        channel = getrandbits(ch_bits)
        while channel >= nch:
            channel = getrandbits(ch_bits)
        jitters.append(jitter)
        channels.append(channel)
    seq_cap = seq + max_events - sum(app_sent) + n  # see the module docstring
    ttl = config.ttl
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    busy_until = [0] * n
    # Frame starts that found their radio busy, per node, as (seq, heap
    # entry). The heap holds a _RADIO_FREE entry keyed (busy_until, least
    # pending seq) for the node; one whose key no longer matches is stale.
    pending: list[list] = [[] for _ in range(n)]
    # The end of each node's frame before the one that ends at busy_until:
    # with it, enough to tell whether the node was on air during any frame,
    # since its own frames never overlap.
    prev_end = [0] * n
    # Frames on air as (end, seq, tx, lane, packet record, hops, the
    # listeners tx cannot jam): each in the lane of its transmitter's zone
    # and channel, and the live ones in `air`, which is in (end, seq) order
    # because every frame lasts dur and frames start in (time, seq) order.
    air: deque = deque()
    # A source's wake time, folded as the run goes: awake holds its closed
    # wake periods, [wake_from, wake_until) the open one, owed the copies of
    # its packets not yet started.
    awake = [0] * n
    wake_from = [0] * n
    wake_until = [0] * n
    owed = [0] * n
    relayed = [0] * n
    delivered_by = [0] * n
    max_hops = 0
    tracing = config.emit_events
    events: list = []
    idle = 0  # heap events taken that start no frame

    def log(time_us, node, kind, source, pkt, channel):
        if len(events) >= EVENT_LOG_CAP:
            raise ValueError(
                f"event trace exceeded {EVENT_LOG_CAP} entries; run without "
                "emit_events or shorten the scenario"
            )
        events.append((time_us, node, kind, source, pkt, channel))

    while True:
        # the lesser (time, seq) head of the heap and `air`
        ev = heap[0]
        if air and air[0] < ev:
            frame = air.popleft()
            t, _, tx, lane, rec, hops, _ = frame
            # a lane is pruned at the end of each of its live frames and the
            # start of each of its dead ones, so none grows without bound,
            # whether or not another frame end ever scans it
            on_air = lane[0]
            cutoff = t - dur
            while on_air[0][0] <= cutoff:
                on_air.popleft()
            # A lossy run draws for every listener in reach; without draws to keep
            # in order, drop holders up front, and skip the jam scan if none is left
            lack = rec[0]
            fresh = reach_of[tx] & (lack | draw_all)
            if not fresh:
                continue
            # Every frame left in a pruned lane ends after this one starts;
            # those that started before it ends, which are those that end
            # before lim as every frame lasts dur, jam the listeners they can.
            lim = t + dur
            for g in on_air:
                if g[0] < lim and g is not frame:
                    fresh &= g[6]
                    if not fresh:
                        break
            if fresh and lane[1]:  # a one-zone layout has no sides
                for side in lane[1]:
                    while side and side[0][0] <= cutoff:
                        side.popleft()
                    for g in side:
                        if g[0] < lim:
                            fresh &= g[6]
                            if not fresh:
                                break
                    if not fresh:
                        break
            if not fresh:
                continue
            fwd_hops = hops + 1 if hops < ttl else 0  # 0: the ttl allows none
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                r = low.bit_length() - 1
                # half-duplex: r had a frame of its own overlapping this one,
                # its latest (which started by t) or the one before
                r_end = busy_until[r]
                if r_end > cutoff and (r_end < lim or prev_end[r] > cutoff):
                    continue
                if lossy and (random_() < loss_p or not lack & low):
                    continue
                lack ^= low
                if r == sink:
                    delivered_by[rec[1]] += 1
                    if hops > max_hops:
                        max_hops = hops
                    if tracing:
                        log(t, r, "deliver", rec[1], rec[2], lane[2])
                    continue
                if tracing:
                    log(t, r, "rx", rec[1], rec[2], lane[2])
                if fwd_hops:
                    # _randbelow, inlined
                    jitter = getrandbits(jit_bits)
                    while jitter >= jit_max:
                        jitter = getrandbits(jit_bits)
                    fwd_channel = getrandbits(ch_bits)
                    while fwd_channel >= nch:
                        fwd_channel = getrandbits(ch_bits)
                    seq += 1
                    heappush(heap, (t + jitter, seq, _TX_START, r, lanes[r][fwd_channel],
                                    rec, fwd_hops))
            rec[0] = lack
            continue
        # the heap's head, taken off at the end of its branch
        if ev[2] == _TX_START:
            t, s, _, node, lane, rec, hops = ev
            end = busy_until[node]
            if end > t:
                # radio on air: wait in the node's queue under this seq
                queue = pending[node]
                if not queue or s < queue[0][0]:
                    heapreplace(heap, (end, s, _RADIO_FREE, node))
                else:
                    heappop(heap)
                heappush(queue, (s, ev))
                idle += 1
                continue
            if t >= T:
                heappop(heap)
                idle += 1
                continue
        elif ev[2] == _RADIO_FREE:  # serve the node's earliest waiting frame
            t, s, _, node = ev
            # holds frame s: it leaves only by its latest entry, due after its others
            queue = pending[node]
            end = busy_until[node]
            if queue[0][0] != s or end != t or t >= T:
                heappop(heap)
                idle += 1
                continue
            _, _, _, node, lane, rec, hops = heappop(queue)[1]
        elif ev[2] == _ORIGIN:
            t, s, _, rec = ev
            if seq > seq_cap and t + jit_max <= T:
                raise ValueError(
                    f"exceeded {max_events} events at t={t}us; the run is too "
                    "large for the event budget"
                )
            _, src, pkt = rec
            n_copies = copies[src]
            # Owed copies all start at or after t, so the open period
            # reaches past t; otherwise it ended at wake_until.
            if not owed[src] and t > wake_until[src]:
                awake[src] += wake_until[src] - wake_from[src]
                wake_from[src] = t
            owed[src] += n_copies
            if tracing:
                log(t, src, "origin", src, pkt, -1)
            # the packet's copies, under the seqs that follow this
            # origination's, then the next origination of the round-robin
            src_lanes = lanes[src]
            c = draw0[src] + pkt * n_copies
            for j in range(1, n_copies + 1):
                heappush(heap, (t + jitters[c], s + j, _TX_START, src, src_lanes[channels[c]],
                                rec, 1))
                c += 1
            nxt, gap, wrap, lack = succ[src]
            pkt += wrap
            if pkt < app_sent[nxt]:
                seq_next = seq0[nxt] + pkt * (1 + copies[nxt])
                heapreplace(heap, (t + gap, seq_next, _ORIGIN, [lack, nxt, pkt]))
            else:
                heappop(heap)
            continue
        else:  # the horizon entry
            break
        prev_end[node] = end
        end = t + dur
        busy_until[node] = end
        if hops == 1:
            # a copy; a node's frames start in time order: this end is its latest
            owed[node] -= 1
            wake_until[node] = end
        else:
            relayed[node] += 1
        seq += 1
        frame = (end, seq, node, lane, rec, hops, unjammed_by[node])
        lane[0].append(frame)
        if reach_of[node] & (rec[0] | draw_all):
            air.append(frame)
        else:
            # a dead frame still jams, but has no end of its own to prune
            # its lane: drop now what every later frame end would
            on_air = lane[0]
            cutoff = t - dur
            while on_air[0][0] <= cutoff:
                on_air.popleft()
        queue = pending[node]
        if queue:
            heapreplace(heap, (end, queue[0][0], _RADIO_FREE, node))
        else:
            heappop(heap)
        if tracing:
            log(t, node, "tx", rec[1], rec[2], lane[2])

    # frames started: offered copies less those owed, plus forwards (the
    # sink offers none); only a node's last frame can be clipped at T
    net_tx = [k * c - o + r for k, c, o, r in zip(app_sent, copies + (0,), owed, relayed)]
    airtime = [k * dur - max(0, end - T) for k, end in zip(net_tx, busy_until)]
    # events taken (see the module docstring)
    processed = sum(app_sent) + 2 * sum(net_tx) - sum(end > T for end in busy_until) + idle
    if processed > max_events:
        raise ValueError(
            f"exceeded {max_events} events by t={T}us; the run is too large for the event budget"
        )
    # Listeners (relays, sink) are awake for the whole run. A plain barrel
    # is awake for its closed periods plus the open one, which lasts to T if
    # copies are still owed; whatever of its wake time is not airtime is
    # listening.
    wake_us = [
        T if listener_mask >> node & 1
        else awake[node] + (T if owed[node] else min(wake_until[node], T)) - wake_from[node]
        for node in range(n)
    ]

    return SimResult(
        sim_time_us=T,
        seed=config.seed,
        relays=relays,
        app_sent=tuple(app_sent),
        net_transmissions=tuple(net_tx),
        relayed_count=tuple(relayed),
        delivered_by_source=tuple(delivered_by),
        t_tx_frac=tuple(a / T for a in airtime),
        t_listen_frac=tuple((w - a) / T for w, a in zip(wake_us, airtime)),
        t_sleep_frac=tuple((T - w) / T for w in wake_us),
        max_hops=max_hops,
        processed_events=processed,
        events=tuple(events),
    )
