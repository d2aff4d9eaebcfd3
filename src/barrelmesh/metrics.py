"""Delivery, load-balance, and power summaries over simulation results.

Power uses a three-state duty-cycle model: a node's mean current is the
time-weighted blend of its transmit, listen, and sleep currents. Network
mean current is the same blend applied to the network-mean state fractions,
which equals the mean of the per-node currents; both forms are computed and
kept consistent.
"""
from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import Optional

from .sim_engine import SimResult

STATE_SUM_TOL = 1e-6

# The most current a radio state may draw, in mA: a kiloamp is no radio's,
# and under it no mean of node currents overflows statistics.fmean's sum
MAX_CURRENT_MA = 1e6


@dataclass(frozen=True)
class PowerProfile:
    """Radio current draw per state, in mA, each in [0, MAX_CURRENT_MA]."""

    i_tx_ma: float = 10.0
    i_listen_ma: float = 6.0
    i_sleep_ma: float = 0.003

    def __post_init__(self):
        for name in ("i_tx_ma", "i_listen_ma", "i_sleep_ma"):
            if not 0 <= getattr(self, name) <= MAX_CURRENT_MA:
                raise ValueError(f"{name} must be in [0, {MAX_CURRENT_MA:.0f}]")


def network_pdr(result: SimResult) -> Optional[float]:
    """Unique packets at the sink over packets offered, in percent.

    None when nothing was offered (a sink-only or zero-length scenario has
    no meaningful delivery ratio).
    """
    sent = sum(result.app_sent)
    if sent == 0:
        return None
    return 100.0 * sum(result.delivered_by_source) / sent


def per_node_pdr(result: SimResult) -> list[Optional[float]]:
    """Delivery percentage per node; None for nodes that offered nothing
    (including the sink)."""
    out: list[Optional[float]] = []
    for sent, delivered in zip(result.app_sent, result.delivered_by_source):
        out.append(100.0 * delivered / sent if sent else None)
    return out


def relay_load_stats(result: SimResult) -> dict:
    """Forwarding-load balance over the relay set.

    loads are forwarded-frame counts per relay, in relay-id order. cv is
    the coefficient of variation (population stdev over mean), defined as
    0.0 when every relay carried the same load (for a zero mean that is the
    natural continuation: perfectly even). No relays: every field is None.
    """
    loads = [result.relayed_count[r] for r in result.relays]
    if not loads:
        return {"loads": [], "mean": None, "stdev": None, "cv": None}
    mean = statistics.fmean(loads)
    stdev = statistics.pstdev(loads)
    if max(loads) == min(loads):
        cv = 0.0
    else:
        cv = stdev / mean
    return {"loads": loads, "mean": mean, "stdev": stdev, "cv": cv}


def node_current_ma(
    t_tx: float, t_listen: float, t_sleep: float, profile: PowerProfile
) -> float:
    """Mean current of one node from its state-time fractions."""
    total = t_tx + t_listen + t_sleep
    if abs(total - 1.0) > STATE_SUM_TOL:
        raise ValueError(f"state fractions sum to {total}, expected 1")
    return t_tx * profile.i_tx_ma + t_listen * profile.i_listen_ma + t_sleep * profile.i_sleep_ma


def per_node_current_ma(result: SimResult, profile: PowerProfile) -> list[float]:
    return [
        node_current_ma(tx, li, sl, profile)
        for tx, li, sl in zip(result.t_tx_frac, result.t_listen_frac, result.t_sleep_frac)
    ]


def network_current_ma(result: SimResult, profile: PowerProfile) -> float:
    """Blend of the network-mean state fractions; equals the mean of the
    per-node currents because the blend is linear."""
    n = len(result.t_tx_frac)
    mean_tx = sum(result.t_tx_frac) / n
    mean_listen = sum(result.t_listen_frac) / n
    mean_sleep = sum(result.t_sleep_frac) / n
    return node_current_ma(mean_tx, mean_listen, mean_sleep, profile)


def mean_relay_current_ma(result: SimResult, profile: PowerProfile) -> Optional[float]:
    """Mean current over relay nodes only; None when there are none."""
    if not result.relays:
        return None
    currents = per_node_current_ma(result, profile)
    return statistics.fmean(currents[r] for r in result.relays)


def _mean(values) -> Optional[float]:
    defined = [v for v in values if v is not None]
    return statistics.fmean(defined) if defined else None


def cell_stats(rows, results) -> list[dict]:
    """One dict per (algorithm, rate_pps) cell of the summary rows, in the
    order the cells first appear: the per-cell files' columns, by name, and
    mean_relay_load_cv.

    results are the rows' SimResults, in row order, read only for the
    per-relay loads that no row holds. Means and the PDR stdev skip runs
    whose value is None and are None if every run's is. The change against
    the `all` cell of the rate is None without one or when it reads 0.
    """
    cells: dict[tuple, list] = {}
    for row, result in zip(rows, results):
        cells.setdefault((row["algorithm"], row["rate_pps"]), []).append((row, result))
    out = []
    for (algorithm, rate), runs in cells.items():
        pdrs = [row["pdr_pct"] for row, _ in runs if row["pdr_pct"] is not None]
        loads = [result.relayed_count[r] for _, result in runs for r in result.relays]
        # 10 equal bins from 0, wide enough that the largest load falls in one
        width = -(-(max(loads, default=0) + 1) // 10)
        out.append({
            "algorithm": algorithm,
            "rate_pps": rate,
            "mean_pdr_pct": statistics.fmean(pdrs) if pdrs else None,
            "stdev_pdr_pct": statistics.pstdev(pdrs) if pdrs else None,
            "mean_relay_load_cv": _mean(row["relay_load_cv"] for row, _ in runs),
            "mean_relay_current_ma": _mean(row["mean_relay_current_ma"] for row, _ in runs),
            "relay_load_hist": [
                (b * width, (b + 1) * width, sum(load // width == b for load in loads))
                for b in range(10 if loads else 0)
            ],
        })
    base = {cell["rate_pps"]: cell["mean_pdr_pct"] for cell in out if cell["algorithm"] == "all"}
    for cell in out:
        pdr, all_pdr = cell["mean_pdr_pct"], base.get(cell["rate_pps"])
        cell["pdr_change_vs_all_pct"] = (
            f"{100.0 * (pdr - all_pdr) / all_pdr:+.1f}" if all_pdr and pdr is not None else None
        )
    return out


def summarize(result: SimResult, profile: Optional[PowerProfile] = None) -> dict:
    """Flat summary of one run: its keys, in order, are the columns of
    summary.csv after algorithm and rate_pps."""
    profile = profile or PowerProfile()
    load = relay_load_stats(result)
    return {
        "seed": result.seed,
        "n_relays": len(result.relays),
        "app_sent": sum(result.app_sent),
        "delivered": sum(result.delivered_by_source),
        "pdr_pct": network_pdr(result),
        "relay_load_mean": load["mean"],
        "relay_load_cv": load["cv"],
        "net_transmissions": sum(result.net_transmissions),
        "mean_current_ma": network_current_ma(result, profile),
        "mean_relay_current_ma": mean_relay_current_ma(result, profile),
        "max_hops": result.max_hops,
    }


def write_csv(path, header, rows) -> None:
    """Write a header row, then rows of raw values. csv formats each cell:
    None as an empty field, a float as its shortest round-trip repr, any
    other value as str; the byte-identical outputs rely on exactly this."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_node_csv(result: SimResult, profile: PowerProfile, path) -> None:
    """Per-node breakdown of one run."""
    nodes = range(len(result.app_sent))
    relay_set = set(result.relays)
    columns = {
        "node": nodes,
        "is_relay": [int(i in relay_set) for i in nodes],
        "app_sent": result.app_sent,
        "delivered": result.delivered_by_source,
        "pdr_pct": per_node_pdr(result),
        "net_transmissions": result.net_transmissions,
        "relayed": result.relayed_count,
        "t_tx": result.t_tx_frac,
        "t_listen": result.t_listen_frac,
        "t_sleep": result.t_sleep_frac,
        "current_ma": per_node_current_ma(result, profile),
    }
    write_csv(path, columns, zip(*columns.values()))
