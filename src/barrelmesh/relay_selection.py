"""Relay-set construction over a barrel topology.

Four strategies share one output type:

* crns_select: connectivity-ranked selection. Nodes outside sink range each
  nominate their best-connected neighbor, discounted by distance, and every
  nomination costs the winner a point of score so load spreads down the row.
* all_relays: every barrel forwards.
* random_relays: a seeded uniform sample of barrels.
* knn_relays: barrels nearest the k-means cluster centroids of the row.

An assignment also records, per barrel, which relay it leans on (its first
hop toward the backbone): `validate` checks it, and `select --out` writes it
as the `chosen_relay` column. Every strategy but crns, which records the
barrel's own nomination, attaches barrels through one function, _attach_nearest.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Optional

from .topology import (
    LayoutError, Topology, bits, check_count, check_range, mask_of, neighbor_degrees,
    topology_from_positions,
)

# Scores land on exact float grids except for the distance discount, so
# equality up to this slack is treated as a tie (broken to the lowest id).
TIE_EPS = 1e-9

KMEANS_MAX_ROUNDS = 100


@dataclass(frozen=True)
class RelayAssignment:
    """A relay set plus per-node bookkeeping.

    relays: sorted barrel ids acting as forwarders.
    chosen: per node id, the relay it attaches to, or None when the node is
        the sink, talks to the sink directly, or cannot reach any relay.
    scores: final per-node scores for score-driven strategies, else None.
    """

    relays: tuple[int, ...]
    chosen: tuple[Optional[int], ...]
    scores: Optional[tuple[float, ...]] = None

    def relay_mask(self) -> int:
        return mask_of(self.relays)


def crns_select(topology: Topology) -> RelayAssignment:
    """Connectivity-ranked neighbor selection.

    Every node starts with a score equal to its in-range neighbor count (the
    sink counts like any neighbor). Barrels outside sink range, visited in
    ascending id order, rate each neighbor j as score[j] - d/r and nominate
    the maximum, ties to the lowest id. The winner becomes a relay and
    permanently loses one point, so a node that has already absorbed a
    nomination is less attractive to the next chooser.
    """
    n = topology.node_count
    sink = topology.sink
    score = [float(d) for d in neighbor_degrees(topology)]
    is_relay = [False] * n
    chosen: list[Optional[int]] = [None] * n
    sink_adj = topology.adjacency[sink]
    for i in topology.barrels:
        if sink_adj >> i & 1:
            continue
        neighbors = topology.neighbors_of(i)
        if not neighbors:
            continue
        rating = {
            j: score[j] - topology.distance(i, j) / topology.range_r
            for j in neighbors
        }
        best_value = max(rating.values())
        best = min(j for j, v in rating.items() if v >= best_value - TIE_EPS)
        is_relay[best] = True
        score[best] -= 1.0
        chosen[i] = best
    relays = tuple(i for i in topology.barrels if is_relay[i])
    return RelayAssignment(
        relays=relays,
        chosen=tuple(chosen),
        scores=tuple(score),
    )


def _attach_nearest(topology: Topology, relays: tuple[int, ...]) -> RelayAssignment:
    """The assignment of relays, sorted barrel ids, whose first hop per
    barrel is its nearest in-range relay (ties to lowest id), None for
    sink-adjacent or unreachable barrels."""
    relay_mask = mask_of(relays)
    sink_adj = topology.adjacency[topology.sink]
    chosen: list[Optional[int]] = [None] * topology.node_count
    for i in topology.barrels:
        if sink_adj >> i & 1:
            continue
        # the relays in range; a node is never its own neighbor
        candidates = bits(topology.adjacency[i] & relay_mask)
        chosen[i] = min(candidates, key=lambda r: (topology.distance(i, r), r), default=None)
    return RelayAssignment(relays, tuple(chosen))


def all_relays(topology: Topology) -> RelayAssignment:
    """Every barrel forwards."""
    return _attach_nearest(topology, tuple(topology.barrels))


def random_relays(topology: Topology, count: int, seed: int) -> RelayAssignment:
    """A seeded uniform sample of `count` distinct barrels."""
    check_count("count", count, least=0, most=topology.sink)
    rng = random.Random(seed)
    return _attach_nearest(topology, tuple(sorted(rng.sample(topology.barrels, count))))


def knn_relays(topology: Topology, k: int, seed: int) -> RelayAssignment:
    """Cluster-head relays: k-means over barrel positions, one head per
    centroid (the nearest barrel, ties to the lowest id), deduplicated.

    Lloyd iteration runs from a seeded sample of k distinct barrel positions
    until assignments stop moving or 100 rounds pass. A cluster that empties
    keeps its previous centroid. Assignment ties go to the lowest centroid
    index. Duplicate heads collapse, so the relay count can come out below k.
    k = 0 has no centroid and so no relay.
    """
    check_count("k", k, least=0, most=topology.sink)
    n_barrels = topology.sink
    points = topology.positions[:n_barrels]
    rng = random.Random(seed)
    centroids = [points[i] for i in rng.sample(range(n_barrels), k)]
    for _ in range(KMEANS_MAX_ROUNDS if k else 0):
        clusters: list[list[tuple[float, float]]] = [[] for _ in range(k)]
        for x, y in points:
            best = min(
                range(k),
                key=lambda ci: ((x - centroids[ci][0]) ** 2 + (y - centroids[ci][1]) ** 2, ci),
            )
            clusters[best].append((x, y))
        new_centroids = [
            (sum(x for x, _ in members) / len(members), sum(y for _, y in members) / len(members))
            if members else old
            for members, old in zip(clusters, centroids)
        ]
        if new_centroids == centroids:
            break
        centroids = new_centroids
    heads = set()
    for cx, cy in centroids:
        head = min(
            range(n_barrels),
            key=lambda i: ((points[i][0] - cx) ** 2 + (points[i][1] - cy) ** 2, i),
        )
        heads.add(head)
    return _attach_nearest(topology, tuple(sorted(heads)))


def isolated_nodes(topology: Topology, relays: tuple[int, ...]) -> list[int]:
    """Barrels whose packets cannot reach the sink over the relay backbone.

    A barrel is served when it neighbors the sink directly, or neighbors a
    relay from which a chain of relay-to-relay hops ends within sink range.
    Flood reachability is computed over relays plus the sink with unit-disk
    edges.
    """
    relay_mask = mask_of(relays)
    reachable = 1 << topology.sink
    frontier = [topology.sink]
    while frontier:
        fresh = topology.adjacency[frontier.pop()] & relay_mask & ~reachable
        reachable |= fresh
        frontier.extend(bits(fresh))
    return [i for i in topology.barrels if topology.adjacency[i] & reachable == 0]


def validate_assignment(topology: Topology, assignment: RelayAssignment) -> list[str]:
    """Consistency and coverage check; returns human-readable issues, empty
    when the assignment is sound for this topology."""
    issues = []
    n = topology.node_count
    if len(assignment.chosen) != n:
        issues.append(
            f"chosen has {len(assignment.chosen)} entries for {n} nodes"
        )
        return issues
    relay_set = set(assignment.relays)
    for r in assignment.relays:
        if not (0 <= r < topology.sink):
            issues.append(f"relay {r} is not a barrel id")
    if list(assignment.relays) != sorted(relay_set):
        issues.append("relay list is not sorted and distinct")
    for i, target in enumerate(assignment.chosen):
        if target is None:
            continue
        if i == topology.sink:
            issues.append("sink has a chosen relay")
        if target not in relay_set:
            issues.append(f"node {i} attaches to {target}, which is not a relay")
        elif not topology.neighbor(i, target):
            issues.append(f"node {i} attaches to out-of-range relay {target}")
    for i in isolated_nodes(topology, assignment.relays):
        issues.append(f"node {i} is isolated: no relay path to the sink")
    return issues


_CSV_FIELDS = ["node", "x", "y", "role", "chosen_relay", "score", "range_m"]


def save_assignment_csv(topology: Topology, assignment: RelayAssignment, path) -> None:
    """One row per node: id, position, role (sink/relay/barrel), attachment,
    final score where the strategy produces one, and the radio range the
    assignment was selected at."""
    scores = assignment.scores or [None] * topology.node_count
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for i, (x, y) in enumerate(topology.positions):
            if i == topology.sink:
                role = "sink"
            elif i in assignment.relays:
                role = "relay"
            else:
                role = "barrel"
            writer.writerow([i, x, y, role, assignment.chosen[i], scores[i], topology.range_r])


def _field(row: dict, node: int, column: str, convert=float):
    """convert(row[column]), or a ValueError that names the node and column."""
    try:
        return convert(row[column])
    except ValueError as exc:
        raise ValueError(f"node {node}: {column} = {row[column]!r}: bad value, {exc}") from None


def load_assignment_csv(path, range_m: Optional[float] = None) -> tuple[Topology, RelayAssignment]:
    """Inverse of save_assignment_csv: the topology the assignment was saved
    on, built at the file's range_m or at range_m when given, and the
    assignment."""
    positions: list[tuple[float, float]] = []
    relays: list[int] = []
    chosen: list[Optional[int]] = []
    scores: list[Optional[float]] = []
    ranges: set[float] = set()
    sink = None
    with open(path, newline="") as fh:
        # a short row reads "" for its missing fields, so at least its range_m fails
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames != _CSV_FIELDS:
            raise ValueError(
                f"assignment columns must be {','.join(_CSV_FIELDS)}, "
                f"got {','.join(reader.fieldnames or ())}"
            )
        for row in reader:
            i = _field(row, len(positions), "node", int)
            if i != len(positions):
                raise ValueError(f"node ids must be contiguous, saw {i}")
            positions.append((_field(row, i, "x"), _field(row, i, "y")))
            if row["role"] == "sink":
                if sink is not None:
                    raise ValueError(f"node {i} is a second sink, after node {sink}")
                sink = i
            elif row["role"] == "relay":
                relays.append(i)
            elif row["role"] != "barrel":
                raise ValueError(f"unknown role {row['role']!r}")
            chosen.append(_field(row, i, "chosen_relay", int) if row["chosen_relay"] else None)
            scores.append(_field(row, i, "score") if row["score"] else None)
            ranges.add(_field(row, i, "range_m"))
    if sink != len(positions) - 1:
        raise ValueError("sink must be the last node")
    if len(ranges) > 1:
        raise ValueError(f"range_m must be one value, saw {sorted(ranges)}")
    try:
        stored = check_range(ranges.pop())
    except LayoutError as exc:
        raise ValueError(f"range_m: {exc}") from None
    topology = topology_from_positions(
        positions[:-1], positions[-1], stored if range_m is None else range_m
    )
    return topology, RelayAssignment(
        relays=tuple(relays),
        chosen=tuple(chosen),
        scores=None if None in scores else tuple(scores),
    )
