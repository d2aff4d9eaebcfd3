"""Linear work-zone layouts and unit-disk connectivity.

A layout is a row of barrels placed along roadway chainage, split into
segments (taper, buffer, work area) that each have their own spacing, plus a
single sink node. Distances are meters internally; helpers accept feet where
noted because roadway standards are written in feet.

A node is its chainage: every barrel and the sink stand in the one closed
lane, so the distance between two nodes is the difference of their
chainages. Connectivity is a unit-disk graph on that line: two nodes are
neighbors iff their distance d satisfies 0 < d < range_r. Node ids are
contiguous, barrels first in ascending chainage, sink last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

METERS_PER_FOOT = 0.3048

# Nodes no farther apart than this coincide: barrels on a shared segment
# boundary are placed once, and any other coincident pair is an error.
COORD_EPS = 1e-9

# The most barrels a topology may hold; a layout counts each segment with
# both its ends. Node masks are n-bit ints, so memory grows as n**2: on
# a row of 10,000 barrels at 12 m the build took 0.04 s (best of 7 on a
# shared 2-vCPU host), and a 0.2 s crns run with one copy peaked at 69 MiB.
MAX_BARRELS = 10_000

# How far upstream/downstream of the row a start/end sink sits: roadside
# equipment is staged off the row, clear of its end barrel.
SINK_STANDOFF_M = 10.0


def feet(value: float) -> float:
    """Convert feet to meters."""
    return value * METERS_PER_FOOT


@dataclass(frozen=True)
class Segment:
    name: str
    length_m: float
    spacing_m: float


@dataclass(frozen=True)
class LayoutSpec:
    """Geometry of one closed lane: ordered segments plus sink placement.

    sink_placement is "start", "end", or an explicit finite chainage in
    meters. For start/end the sink sits SINK_STANDOFF_M upstream/downstream
    of the barrel row. Either way it must not sit on a barrel;
    barrel_chainages and sink_x check the spec where it is used.
    """

    segments: tuple[Segment, ...]
    sink_placement: Union[str, float] = "start"

    def total_length_m(self) -> float:
        return sum(s.length_m for s in self.segments)

    def sink_x(self) -> float:
        """Chainage of the sink; raises ValueError unless it is finite and off every barrel."""
        x = self.sink_placement
        if x in ("start", "end"):
            x = -SINK_STANDOFF_M if x == "start" else self.total_length_m() + SINK_STANDOFF_M
        elif isinstance(x, str):
            raise ValueError(f"unknown sink placement {x!r}")
        elif not math.isfinite(x):
            raise ValueError(f"sink_placement must be finite, got {x}")
        for barrel in barrel_chainages(self):
            if abs(barrel - x) <= COORD_EPS:
                raise ValueError(f"the sink sits on the barrel at {barrel:g} m")
        return x


@dataclass(frozen=True)
class Topology:
    """Immutable node set with precomputed unit-disk adjacency.

    chainages[i] is the chainage of node i in meters; sink is the last id.
    adjacency is one bitmask per node: bit j of adjacency[i] set means i and
    j are neighbors. The mask form keeps the hot simulation paths cheap.
    """

    chainages: tuple[float, ...]
    sink: int
    range_r: float
    adjacency: tuple[int, ...] = field(repr=False)

    @property
    def node_count(self) -> int:
        return len(self.chainages)

    @property
    def barrels(self) -> range:
        return range(self.sink)

    def distance(self, i: int, j: int) -> float:
        return abs(self.chainages[i] - self.chainages[j])

    def neighbor(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def neighbors_of(self, i: int) -> list[int]:
        return list(bits(self.adjacency[i]))


def bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids) -> int:
    """The mask with the bit of every id set, a repeated id once; the
    inverse of bits."""
    return sum(1 << i for i in set(ids))


def _build_adjacency(
    chainages: Sequence[float], order: Sequence[int], range_r: float
) -> tuple[int, ...]:
    """One mask per node. A sweep along the row, which order lists by
    ascending chainage: each node links to the nodes behind it until one is
    range_r or more behind, and every node farther behind is too, so the
    work grows with the links, not with all n * (n - 1) / 2 pairs.
    topology_from_chainages rejects coincident nodes first: none is at 0."""
    masks = [0] * len(chainages)
    for k, i in enumerate(order):
        b = k - 1
        while b >= 0 and chainages[i] - chainages[order[b]] < range_r:
            masks[i] |= 1 << order[b]
            masks[order[b]] |= 1 << i
            b -= 1
    return tuple(masks)


def check_count(name: str, value, least: int = 1, most: Optional[int] = None) -> int:
    """value itself; raises a ValueError naming it unless it is an int, not a
    bool, >= least and, when most is given, <= most. A seed takes least 0:
    random.Random seeds with abs(seed), so a negative seed would repeat the
    sample of its positive twin."""
    if type(value) is not int or value < least or (most is not None and value > most):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}")
    return value


def check_relays(relays, barrels: int) -> tuple[int, ...]:
    """relays itself; raises a ValueError naming the first bad id, or the order,
    unless it is a tuple of int ids (not bools) in [0, barrels), ascending, each once."""
    if type(relays) is not tuple:
        raise ValueError(f"relays must be a tuple of barrel ids, got {type(relays).__name__}")
    for k, r in enumerate(relays):
        if type(r) is not int or not 0 <= r < barrels:
            raise ValueError(f"relay {r!r} is not a barrel id in [0, {barrels})")
        if k and r <= relays[k - 1]:
            raise ValueError(f"relays must ascend, each id once: {r} follows {relays[k - 1]}")
    return relays


def check_range(range_r: float) -> float:
    """range_r itself; raises ValueError unless it is finite and > 0."""
    if not 0 < range_r < math.inf:
        raise ValueError(f"range must be finite and > 0, got {range_r}")
    return range_r


def topology_from_chainages(barrels: Sequence[float], sink_x: float, range_r: float) -> Topology:
    """Build a topology from explicit, finite chainages: at most MAX_BARRELS
    barrels, in any order, whose ids follow that order, and the sink, whose
    id is last."""
    check_range(range_r)
    if len(barrels) > MAX_BARRELS:
        raise ValueError(f"{len(barrels)} barrels exceed the bound of {MAX_BARRELS}")
    chainages = [float(x) for x in barrels]
    chainages.append(float(sink_x))
    for a, x in enumerate(chainages):
        if not math.isfinite(x):
            raise ValueError(f"node {a} has a non-finite chainage {x}")
    order = sorted(range(len(chainages)), key=chainages.__getitem__)
    # a node within COORD_EPS of another is within it of a neighbour in order;
    # the lowest such node and its lowest partner are the lowest such pair
    close = [
        i for p, q in zip(order, order[1:]) if chainages[q] - chainages[p] <= COORD_EPS
        for i in (p, q)
    ]
    if close:
        a = min(close)
        b = min(j for j, x in enumerate(chainages) if j != a and abs(x - chainages[a]) <= COORD_EPS)
        raise ValueError(f"nodes {a} and {b} share the chainage {chainages[a]}")
    return Topology(
        chainages=tuple(chainages),
        sink=len(chainages) - 1,
        range_r=float(range_r),
        adjacency=_build_adjacency(chainages, order, range_r),
    )


def barrel_chainages(spec: LayoutSpec) -> list[float]:
    """Chainage of every barrel: multiples of each segment's spacing measured
    from the segment start, shared boundaries placed once. A single segment of
    length L > 0 and spacing s yields floor(L/s) + 1 barrels (both ends
    included); a segment of length 0 yields none. Every segment's count is
    checked against MAX_BARRELS before its barrels are placed.
    """
    chainages: list[float] = []
    places = 0
    seg_start = 0.0
    for seg in spec.segments:
        if not 0 < seg.spacing_m < math.inf:
            raise ValueError(f"segment {seg.name!r} spacing must be finite and > 0")
        if not 0 <= seg.length_m < math.inf:
            raise ValueError(f"segment {seg.name!r} length must be finite and >= 0")
        if seg.length_m == 0:
            continue
        ratio = seg.length_m / seg.spacing_m + COORD_EPS
        # its floor(ratio) + 1 places fit iff ratio < MAX_BARRELS - places,
        # which an infinite ratio fails too
        if not ratio < MAX_BARRELS - places:
            raise ValueError(f"segment {seg.name!r} takes the row past {MAX_BARRELS} barrels")
        count = int(ratio)
        places += count + 1
        for k in range(count + 1):
            x = seg_start + k * seg.spacing_m
            if not chainages or x - chainages[-1] > COORD_EPS:
                chainages.append(x)
        seg_start += seg.length_m
    return chainages


def build_layout(spec: LayoutSpec, range_r: float = 100.0) -> Topology:
    """Materialize a LayoutSpec into a Topology at the given radio range."""
    return topology_from_chainages(barrel_chainages(spec), spec.sink_x(), range_r)


def neighbor_degrees(topology: Topology) -> list[int]:
    """In-range neighbor count per node (row sums of the adjacency matrix)."""
    return [mask.bit_count() for mask in topology.adjacency]


# Shipped layout: one 45 mph freeway lane closure, 1140 ft end to end, 30
# barrels. The taper row is delineated densest (30 ft on centers), the buffer
# at 48 ft, the short work area sparsest; segment lengths are chosen so the
# three segments tile 1140 ft with exactly 30 barrels.
FDOT_45MPH = LayoutSpec(
    segments=(
        Segment("taper", feet(480.0), feet(30.0)),
        Segment("buffer", feet(480.0), feet(48.0)),
        Segment("work", feet(180.0), feet(60.0)),
    ),
    sink_placement="start",
)
