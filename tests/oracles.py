"""Slow reference implementations used to pin expected values.

Everything here is written for legibility, not speed, and deliberately avoids
sharing code with the package under test: plain lists, explicit loops, no
adjacency masks. Tests compare package output against these. The exception is
reference_run, a frozen copy of the event engine as it was before its hot
loop was rewritten, with its reception classifier resolve_receptions; they
work on adjacency masks and share only the result type, validation and
repeat plan with the package. pair_loss_probability shares nothing with
either engine: it is the closed form of one two-source setting.
"""
from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from fractions import Fraction
from typing import Optional

from barrelmesh import sim_engine
from barrelmesh.sim_engine import (
    EVENT_LOG_CAP,
    SimResult,
    check_config,
    plan_transmissions,
)
from barrelmesh.topology import check_relays

TIE_EPS = 1e-9


def _dist(positions, i, j):
    (xi, yi), (xj, yj) = positions[i], positions[j]
    return math.hypot(xi - xj, yi - yj)


def crns_oracle(positions, sink, range_r):
    """Step-by-step connectivity-ranked relay pass.

    positions includes the sink. Returns (is_relay, chosen, final_score) over
    all node ids. Seed score is the in-range neighbor count (sink counts as a
    neighbor like any node). Nodes already within range of the sink do not
    pick a relay. Every other node, in ascending id order, rates each of its
    neighbors as score - d/range_r, takes the max with ties broken to the
    lowest id, marks that neighbor a relay, and permanently decrements the
    winner's score by 1. The distance term is recomputed fresh per chooser.
    """
    n = len(positions)
    neigh = [
        [j for j in range(n) if j != i and 0.0 < _dist(positions, i, j) < range_r]
        for i in range(n)
    ]
    score = [float(len(neigh[i])) for i in range(n)]
    is_relay = [False] * n
    chosen: list = [None] * n
    for i in range(n):
        if i == sink:
            continue
        if 0.0 < _dist(positions, i, sink) < range_r:
            continue
        if not neigh[i]:
            continue
        adjusted = {j: score[j] - _dist(positions, i, j) / range_r for j in neigh[i]}
        best_value = max(adjusted.values())
        best = min(j for j, v in adjusted.items() if v >= best_value - TIE_EPS)
        is_relay[best] = True
        score[best] -= 1.0
        chosen[i] = best
    return is_relay, chosen, score


def kmeans_oracle(xs, k, seed):
    """1-d Lloyd iteration matching the package's k-means relay picker.

    xs are barrel x coordinates (id = index). Initial centroids are a seeded
    sample of k distinct barrel positions. Assignment ties go to the lowest
    centroid index; an emptied cluster keeps its previous centroid. Runs to
    convergence or 100 rounds, then returns the relay ids: per centroid, the
    barrel nearest it (ties to the lowest id), deduplicated, sorted.
    """
    import random

    rng = random.Random(seed)
    centroids = [xs[i] for i in rng.sample(range(len(xs)), k)]
    for _ in range(100):
        clusters: list[list[float]] = [[] for _ in range(k)]
        for x in xs:
            dists = [abs(x - c) for c in centroids]
            best = min(range(k), key=lambda ci: (dists[ci], ci))
            clusters[best].append(x)
        new_centroids = [
            sum(cl) / len(cl) if cl else centroids[ci] for ci, cl in enumerate(clusters)
        ]
        if new_centroids == centroids:
            break
        centroids = new_centroids
    heads = []
    for c in centroids:
        best_id = min(range(len(xs)), key=lambda i: (abs(xs[i] - c), i))
        heads.append(best_id)
    return sorted(set(heads))


# ---------------------------------------------------------------------------
# reference engine

_ORIGIN, _TX_START, _FRAME_END = 0, 1, 2


class Frame:
    """One frame on air, as resolve_receptions reads it."""

    __slots__ = ("start", "end", "tx", "channel", "source", "pkt", "ttl", "hops")

    def __init__(self, start, end, tx, channel, source, pkt, ttl, hops):
        self.start = start
        self.end = end
        self.tx = tx
        self.channel = channel
        self.source = source
        self.pkt = pkt
        self.ttl = ttl
        self.hops = hops


def resolve_receptions(adjacency, listener_mask, frame, concurrent):
    """Classify the in-range listeners of a finished frame.

    concurrent is an iterable of frames (any channel) that may overlap it;
    non-overlapping entries and the frame itself are skipped. Returns
    bitmasks (clear, jammed, busy): jammed listeners saw a same-channel
    overlap from another in-range transmitter, busy listeners were
    themselves on air, and the rest hear the frame cleanly. Jam wins when
    both apply. This is the reference classifier of the engine's radio
    model (see the barrelmesh.sim_engine docstring).
    """
    jam = 0
    on_air = 0
    for g in concurrent:
        if g is frame:
            continue
        if g.start < frame.end and g.end > frame.start:
            on_air |= 1 << g.tx
            if g.channel == frame.channel:
                jam |= adjacency[g.tx]
    reach = adjacency[frame.tx] & listener_mask
    return reach & ~jam & ~on_air, reach & jam, reach & on_air & ~jam


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_run(topology, relays, config) -> SimResult:
    """The engine before its pending-queue rewrite, kept verbatim.

    Blocked frames are re-pushed onto the main heap, every frame end scans
    every frame on air, and every bounded draw goes through
    `random.Random.randrange`. The fast engine must return the same
    SimResult in every field except processed_events.
    """
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
    listener_mask = sum(1 << r for r in set(relays)) | (1 << sink)
    copies = plan_transmissions(topology, config.copies)
    interval = round(1e6 / config.app_rate_pps)
    if interval < 2:
        raise ValueError("app rate too high for the microsecond clock")

    rng = random.Random(config.seed)
    seq = itertools.count()
    heap: list = []

    # Drawn up front in the contract order. The phase keeps packet k of a
    # source strictly inside (k*interval, (k+1)*interval), so every source
    # originates exactly rate*sim_time packets when the interval divides T.
    phases = [rng.randrange(1, interval) for _ in range(sink)]
    wake: list[list[list]] = [[] for _ in range(n)]
    for src in range(sink):
        is_listener = bool(listener_mask >> src & 1)
        t_pkt = phases[src]
        pkt = 0
        while t_pkt < T:
            rec = None
            if not is_listener:
                rec = [t_pkt, t_pkt, copies[src]]
                wake[src].append(rec)
            heapq.heappush(heap, (t_pkt, next(seq), _ORIGIN, (src, pkt, rec)))
            for _ in range(copies[src]):
                jitter = rng.randrange(jit_max) if jit_max > 0 else 0
                channel = rng.randrange(nch)
                heapq.heappush(
                    heap,
                    (
                        t_pkt + jitter,
                        next(seq),
                        _TX_START,
                        (src, src, pkt, config.ttl, 1, channel, False, rec),
                    ),
                )
            t_pkt += interval
            pkt += 1

    busy_until = [0] * n
    caches: list[set] = [set() for _ in range(n)]
    airtime = [0] * n
    app_sent = [0] * n
    net_tx = [0] * n
    relayed = [0] * n
    delivered_by = [0] * n
    max_hops = 0
    events: Optional[list] = [] if config.emit_events else None
    recent: deque = deque()
    processed = 0

    def log(time_us, node, kind, source, pkt, channel):
        if events is None:
            return
        if len(events) >= EVENT_LOG_CAP:
            raise ValueError(
                f"event trace exceeded {EVENT_LOG_CAP} entries; run without "
                "emit_events or shorten the scenario"
            )
        events.append((time_us, node, kind, source, pkt, channel))

    while heap and heap[0][0] <= T:
        t, s, kind, payload = heapq.heappop(heap)
        processed += 1
        if processed > sim_engine.MAX_EVENTS:
            raise ValueError(
                f"exceeded {sim_engine.MAX_EVENTS} events at t={t}us; the run is too "
                "large for the event budget"
            )
        if kind == _ORIGIN:
            src, pkt, rec = payload
            app_sent[src] += 1
            caches[src].add((src, pkt))
            log(t, src, "origin", src, pkt, -1)
        elif kind == _TX_START:
            node = payload[0]
            if busy_until[node] > t:
                # radio still on air; keep the original sequence number so
                # a node's queued frames stay first-come-first-served
                heapq.heappush(heap, (busy_until[node], s, kind, payload))
                continue
            if t >= T:
                continue
            _, src, pkt, ttl, hops, channel, is_forward, rec = payload
            end = t + dur
            busy_until[node] = end
            airtime[node] += min(end, T) - t
            net_tx[node] += 1
            if is_forward:
                relayed[node] += 1
            if rec is not None:
                rec[1] = max(rec[1], min(end, T))
                rec[2] -= 1
            frame = Frame(t, end, node, channel, src, pkt, ttl, hops)
            recent.append(frame)
            heapq.heappush(heap, (end, next(seq), _FRAME_END, frame))
            log(t, node, "tx", src, pkt, channel)
        else:
            frame = payload
            cutoff = t - dur
            while recent and recent[0].end <= cutoff:
                recent.popleft()
            clear, _, _ = resolve_receptions(adj, listener_mask, frame, recent)
            key = (frame.source, frame.pkt)
            for r in _bits(clear):
                if lossy and rng.random() < loss_p:
                    continue
                if key in caches[r]:
                    continue
                caches[r].add(key)
                if r == sink:
                    delivered_by[frame.source] += 1
                    if frame.hops > max_hops:
                        max_hops = frame.hops
                    log(t, r, "deliver", frame.source, frame.pkt, frame.channel)
                else:
                    log(t, r, "rx", frame.source, frame.pkt, frame.channel)
                    if frame.ttl > 1:
                        jitter = rng.randrange(jit_max) if jit_max > 0 else 0
                        channel = rng.randrange(nch)
                        heapq.heappush(
                            heap,
                            (
                                t + jitter,
                                next(seq),
                                _TX_START,
                                (
                                    r,
                                    frame.source,
                                    frame.pkt,
                                    frame.ttl - 1,
                                    frame.hops + 1,
                                    channel,
                                    True,
                                    None,
                                ),
                            ),
                        )

    # Duty cycle. Listeners (relays, sink) are awake for the whole run:
    # whatever is not their own airtime is listening. A plain barrel wakes
    # when a packet is due and stays up until its last copy leaves the air
    # (or the run ends with copies still queued), then sleeps.
    listen_us = [0] * n
    sleep_us = [0] * n
    for node in range(n):
        if listener_mask >> node & 1 or node == sink:
            listen_us[node] = T - airtime[node]
            continue
        merged = 0
        cur_start = cur_end = None
        for rec in wake[node]:
            start, end, pending = rec
            if pending > 0:
                end = T
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                merged += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            merged += cur_end - cur_start
        listen_us[node] = merged - airtime[node]
        sleep_us[node] = T - merged

    return SimResult(
        sim_time_us=T,
        seed=config.seed,
        relays=relays,
        app_sent=tuple(app_sent),
        net_transmissions=tuple(net_tx),
        relayed_count=tuple(relayed),
        delivered_by_source=tuple(delivered_by),
        t_tx_frac=tuple(a / T for a in airtime),
        t_listen_frac=tuple(l / T for l in listen_us),
        t_sleep_frac=tuple(s / T for s in sleep_us),
        max_hops=max_hops,
        processed_events=processed,
        events=tuple(events) if events is not None else (),
    )


# ---------------------------------------------------------------------------
# closed form


def pair_loss_probability(delta, interval, jitter, dur, channels) -> Fraction:
    """The exact probability that a packet of source A is lost, when A and B
    hear only the sink, nothing relays, and each sends one copy per packet.

    Each source's packet k starts its frame at its phase + k * interval + j,
    j uniform on range(jitter), on a uniform one of `channels`; delta is B's
    phase less A's, and B's packet m packets after A's lies delta + m *
    interval + jB - jA from it. A's frame is lost if a frame of B on its channel starts
    less than dur from it:

        q = 1 - E over jA of the product over m of
                (1 - P(|delta + m * interval + jB - jA| < dur) / channels)

    over every offset delta + m * interval within jitter + dur of 0, since a
    neighbouring packet of B can reach A's frame as well as the one at m = 0.
    """
    span = (jitter + dur + abs(delta)) // interval + 1
    offsets = [delta + m * interval for m in range(-span, span + 1)]
    offsets = [o for o in offsets if abs(o) < jitter + dur]
    whole = channels * jitter
    clear = 0  # sum over jA of the product of whole - (the jB that overlap)
    for ja in range(jitter):
        product = 1
        for o in offsets:
            product *= whole - max(0, min(jitter, ja - o + dur) - max(0, ja - o - dur + 1))
        clear += product
    return 1 - Fraction(clear, jitter * whole ** len(offsets))
