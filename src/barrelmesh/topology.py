"""Linear work-zone layouts and unit-disk connectivity.

A layout is a row of barrels placed along roadway chainage, split into
segments (taper, buffer, work area) that each have their own spacing, plus a
single sink node. Distances are meters internally; helpers accept feet where
noted because roadway standards are written in feet.

Connectivity is a unit-disk graph: two nodes are neighbors iff their
euclidean distance d satisfies 0 < d < range_r. Node ids are contiguous,
barrels first in ascending chainage, sink last.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

METERS_PER_FOOT = 0.3048

# Nodes no farther apart than this on both axes coincide: barrels on a shared
# segment boundary are placed once, and any other coincident pair is an error.
COORD_EPS = 1e-9

# The most barrels a layout may place, each segment counted with both its
# ends. Node masks are n-bit ints, so a topology's memory grows as n**2: on
# a row of 10,000 barrels at 12 m the build took 0.06 s, and a 0.2 s crns
# run with one copy peaked at 70 MiB.
MAX_BARRELS = 10_000

# How far upstream/downstream of the row a start/end sink sits when a layout
# names no standoff: roadside equipment is staged off the row, clear of its
# end barrel.
SINK_STANDOFF_M = 10.0


def feet(value: float) -> float:
    """Convert feet to meters."""
    return value * METERS_PER_FOOT


class LayoutError(ValueError):
    """Raised for geometrically invalid layout specs."""


@dataclass(frozen=True)
class Segment:
    name: str
    length_m: float
    spacing_m: float


@dataclass(frozen=True)
class LayoutSpec:
    """Geometry of one closed lane: ordered segments plus sink placement.

    sink_placement is "start", "end", or an explicit finite chainage in
    meters. For start/end the sink sits sink_standoff_m (finite, >= 0; None
    is SINK_STANDOFF_M) upstream/downstream of the barrel row; a chainage
    places the sink by itself and takes no standoff. Either way it must not
    sit on a barrel; barrel_chainages and sink_x check the spec where it is
    used.
    """

    segments: tuple[Segment, ...]
    sink_placement: Union[str, float] = "start"
    sink_standoff_m: Optional[float] = None

    def total_length_m(self) -> float:
        return sum(s.length_m for s in self.segments)

    def sink_x(self) -> float:
        """Chainage of the sink; raises LayoutError unless it is finite and off every barrel."""
        x, standoff = self.sink_placement, self.sink_standoff_m
        if x in ("start", "end"):
            standoff = SINK_STANDOFF_M if standoff is None else standoff
            if not 0 <= standoff < math.inf:
                raise LayoutError("sink_standoff_m must be finite and >= 0")
            x = -standoff if x == "start" else self.total_length_m() + standoff
        elif isinstance(x, str):
            raise LayoutError(f"unknown sink placement {x!r}")
        elif not math.isfinite(x):
            raise LayoutError(f"sink_placement must be finite, got {x}")
        elif standoff is not None:
            raise LayoutError("sink_standoff_m is set, but only sink_placement = start or end uses it")
        for barrel in barrel_chainages(self):
            if abs(barrel - x) <= COORD_EPS:
                raise LayoutError(f"the sink sits on the barrel at {barrel:g} m")
        return x


@dataclass(frozen=True)
class Topology:
    """Immutable node set with precomputed unit-disk adjacency.

    positions[i] is the (x, y) of node i; sink is the last id. adjacency is
    one bitmask per node: bit j of adjacency[i] set means i and j are
    neighbors. The mask form keeps the hot simulation paths cheap.
    """

    positions: tuple[tuple[float, float], ...]
    sink: int
    range_r: float
    adjacency: tuple[int, ...] = field(repr=False)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def barrels(self) -> range:
        return range(self.sink)

    def distance(self, i: int, j: int) -> float:
        (xi, yi), (xj, yj) = self.positions[i], self.positions[j]
        return math.hypot(xi - xj, yi - yj)

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


def _pairs_near_on_x(positions: Sequence[tuple[float, float]], order: Sequence[int], width: float):
    """Every pair (i, j) of nodes at most width apart on x, once, with j
    before i in order, which lists the node ids by ascending x.

    A sweep along x: each node meets only the window of nodes behind it
    that are still within width, so the work grows with the pairs it
    yields, not with all n * (n - 1) / 2 pairs.
    """
    window: deque = deque()
    for i in order:
        xi = positions[i][0]
        while window and xi - positions[window[0]][0] > width:
            window.popleft()
        for j in window:
            yield i, j
        window.append(i)


def _build_adjacency(
    positions: Sequence[tuple[float, float]], order: Sequence[int], range_r: float
) -> tuple[int, ...]:
    """One mask per node. Only pairs within range_r on x are tested: |dx|
    never exceeds the distance, so no pair farther apart can be linked.
    topology_from_positions rejects coincident nodes first: none is at 0."""
    masks = [0] * len(positions)
    for i, j in _pairs_near_on_x(positions, order, range_r):
        (xi, yi), (xj, yj) = positions[i], positions[j]
        if math.hypot(xi - xj, yi - yj) < range_r:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
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


def check_range(range_r: float) -> float:
    """range_r itself; raises LayoutError unless it is finite and > 0."""
    if not 0 < range_r < math.inf:
        raise LayoutError(f"range must be finite and > 0, got {range_r}")
    return range_r


def topology_from_positions(
    barrel_positions: Sequence[tuple[float, float]],
    sink_position: tuple[float, float],
    range_r: float,
) -> Topology:
    """Build a topology from explicit, finite coordinates (barrels first, sink last)."""
    check_range(range_r)
    positions = [tuple(map(float, p)) for p in barrel_positions]
    positions.append(tuple(map(float, sink_position)))
    for a, p in enumerate(positions):
        if not all(map(math.isfinite, p)):
            raise LayoutError(f"node {a} has non-finite coordinates {p}")
    order = sorted(range(len(positions)), key=lambda i: positions[i][0])
    # only nodes within COORD_EPS on x can coincide; name the lowest pair
    coincident = [
        (min(i, j), max(i, j))
        for i, j in _pairs_near_on_x(positions, order, COORD_EPS)
        if abs(positions[i][1] - positions[j][1]) <= COORD_EPS
    ]
    if coincident:
        a, b = min(coincident)
        raise LayoutError(f"nodes {a} and {b} share coordinates {positions[a]}")
    return Topology(
        positions=tuple(positions),
        sink=len(positions) - 1,
        range_r=float(range_r),
        adjacency=_build_adjacency(positions, order, range_r),
    )


def barrel_chainages(spec: LayoutSpec) -> list[float]:
    """Chainage of every barrel: multiples of each segment's spacing measured
    from the segment start, shared boundaries placed once. A single segment of
    length L and spacing s yields floor(L/s) + 1 barrels (both ends included).
    Every segment's count is checked against MAX_BARRELS before any barrel is
    placed.
    """
    counts = []  # (segment, floor(L/s)) for each segment that places barrels
    places = 0
    for seg in spec.segments:
        if not 0 < seg.spacing_m < math.inf:
            raise LayoutError(f"segment {seg.name!r} spacing must be finite and > 0")
        if not 0 <= seg.length_m < math.inf:
            raise LayoutError(f"segment {seg.name!r} length must be finite and >= 0")
        if seg.length_m == 0:
            continue
        ratio = seg.length_m / seg.spacing_m + COORD_EPS
        # its floor(ratio) + 1 places fit iff ratio < MAX_BARRELS - places,
        # which an infinite ratio fails too
        if not ratio < MAX_BARRELS - places:
            raise LayoutError(f"segment {seg.name!r} takes the row past {MAX_BARRELS} barrels")
        count = int(ratio)
        counts.append((seg, count))
        places += count + 1
    chainages: list[float] = []
    seg_start = 0.0
    for seg, count in counts:
        for k in range(count + 1):
            x = seg_start + k * seg.spacing_m
            if not chainages or x - chainages[-1] > COORD_EPS:
                chainages.append(x)
        seg_start += seg.length_m
    return chainages


def build_layout(spec: LayoutSpec, range_r: float = 100.0) -> Topology:
    """Materialize a LayoutSpec into a Topology at the given radio range."""
    barrels = [(x, 0.0) for x in barrel_chainages(spec)]
    return topology_from_positions(barrels, (spec.sink_x(), 0.0), range_r)


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

LAYOUT_PRESETS: dict[str, LayoutSpec] = {
    "fdot_45mph": FDOT_45MPH,
}
