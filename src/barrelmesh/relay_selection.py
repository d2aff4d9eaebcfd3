"""Relay-set construction over a barrel topology.

Four strategies each return a relay set, the sorted tuple of barrel ids that
forward:

* crns_select: connectivity-ranked selection. Nodes outside sink range each
  nominate their best-connected neighbor, discounted by distance, and every
  nomination costs the winner a point of score so load spreads down the row.
* all_relays: every barrel forwards.
* random_relays: a seeded uniform sample of barrels.
* knn_relays: barrels nearest the k-means cluster centroids of the row.

A flood needs nothing else: the engine reads only which barrels relay, so a
relay set written down by hand (a plan's `relays`) is simulated like any
strategy's. isolated_nodes, which applies `topology.check_relays`, names
the barrels a set leaves without a path to the sink.
"""
from __future__ import annotations

import random

from .topology import Topology, bits, check_count, check_relays, mask_of, neighbor_degrees

# Scores land on exact float grids except for the distance discount, so
# equality up to this slack is treated as a tie (broken to the lowest id).
TIE_EPS = 1e-9

KMEANS_MAX_ROUNDS = 100


def crns_select(topology: Topology) -> tuple[int, ...]:
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
    return tuple(i for i in topology.barrels if is_relay[i])


def all_relays(topology: Topology) -> tuple[int, ...]:
    """Every barrel forwards."""
    return tuple(topology.barrels)


def random_relays(topology: Topology, count: int, seed: int) -> tuple[int, ...]:
    """A seeded uniform sample of `count` distinct barrels."""
    check_count("count", count, least=0, most=topology.sink)
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(topology.barrels, count)))


def knn_relays(topology: Topology, k: int, seed: int) -> tuple[int, ...]:
    """Cluster-head relays: k-means over barrel chainages, one head per
    centroid (the nearest barrel, ties to the lowest id), deduplicated.

    Lloyd iteration runs from a seeded sample of k distinct barrel chainages
    until assignments stop moving or 100 rounds pass. A barrel joins the
    centroid of least squared distance, ties to the lowest centroid index. A
    cluster that empties keeps its previous centroid. Duplicate heads
    collapse, so the relay count can come out below k. k = 0 has no centroid
    and so no relay.
    """
    check_count("k", k, least=0, most=topology.sink)
    n_barrels = topology.sink
    xs = topology.chainages[:n_barrels]
    rng = random.Random(seed)
    centroids = [xs[i] for i in rng.sample(range(n_barrels), k)]
    for _ in range(KMEANS_MAX_ROUNDS if k else 0):
        clusters: list[list[float]] = [[] for _ in range(k)]
        for x in xs:
            best = min(range(k), key=lambda ci: ((x - centroids[ci]) ** 2, ci))
            clusters[best].append(x)
        new_centroids = [
            sum(members) / len(members) if members else old
            for members, old in zip(clusters, centroids)
        ]
        if new_centroids == centroids:
            break
        centroids = new_centroids
    heads = {min(range(n_barrels), key=lambda i: ((xs[i] - c) ** 2, i)) for c in centroids}
    return tuple(sorted(heads))


def isolated_nodes(topology: Topology, relays: tuple[int, ...]) -> list[int]:
    """Barrels whose packets cannot reach the sink over the relay backbone.

    A barrel is served when it neighbors the sink directly, or neighbors a
    relay from which a chain of relay-to-relay hops ends within sink range.
    Flood reachability is computed over relays plus the sink with unit-disk
    edges. Raises a ValueError unless relays passes topology.check_relays.
    """
    relay_mask = mask_of(check_relays(relays, topology.sink))
    reachable = 1 << topology.sink
    frontier = [topology.sink]
    while frontier:
        fresh = topology.adjacency[frontier.pop()] & relay_mask & ~reachable
        reachable |= fresh
        frontier.extend(bits(fresh))
    return [i for i in topology.barrels if topology.adjacency[i] & reachable == 0]
