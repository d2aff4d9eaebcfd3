import csv
import math

import pytest

from barrelmesh.metrics import (
    MAX_CURRENT_MA,
    PowerProfile,
    cell_stats,
    mean_relay_current_ma,
    network_current_ma,
    network_pdr,
    node_current_ma,
    per_node_current_ma,
    per_node_pdr,
    relay_load_stats,
    summarize,
    write_node_csv,
)
from barrelmesh.relay_selection import crns_select
from barrelmesh.sim_engine import ScenarioConfig, SimResult, run
from barrelmesh.topology import FDOT_45MPH, build_layout


def make_result(**kw):
    n = kw.pop("n", 4)
    base = dict(
        sim_time_us=20_000_000,
        seed=0,
        relays=(),
        app_sent=tuple([10] * (n - 1) + [0]),
        net_transmissions=tuple([10] * (n - 1) + [0]),
        relayed_count=tuple([0] * n),
        delivered_by_source=tuple([10] * (n - 1) + [0]),
        t_tx_frac=tuple([0.0] * n),
        t_listen_frac=tuple([0.0] * n),
        t_sleep_frac=tuple([1.0] * n),
        max_hops=1,
        processed_events=0,
        events=(),
    )
    base.update(kw)
    return SimResult(**base)


class TestPdr:
    def test_network_pdr_counts_unique_deliveries(self):
        r = make_result(delivered_by_source=(10, 5, 0, 0))
        assert network_pdr(r) == pytest.approx(100.0 * 15 / 30)

    def test_network_pdr_none_when_nothing_offered(self):
        r = make_result(app_sent=(0, 0, 0, 0), delivered_by_source=(0, 0, 0, 0))
        assert network_pdr(r) is None

    def test_per_node_pdr(self):
        r = make_result(app_sent=(10, 20, 0, 0), delivered_by_source=(10, 5, 0, 0))
        assert per_node_pdr(r) == [100.0, 25.0, None, None]


class TestRelayLoad:
    def test_no_relays_has_no_statistics(self):
        stats = relay_load_stats(make_result())
        assert stats == {"loads": [], "mean": None, "stdev": None, "cv": None}

    def test_known_spread(self):
        r = make_result(relays=(0, 1), relayed_count=(2, 4, 0, 0))
        stats = relay_load_stats(r)
        assert stats["loads"] == [2, 4]
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["stdev"] == pytest.approx(1.0)
        assert stats["cv"] == pytest.approx(1.0 / 3.0)

    def test_equal_loads_have_zero_cv(self):
        r = make_result(relays=(0, 1), relayed_count=(7, 7, 0, 0))
        assert relay_load_stats(r)["cv"] == 0.0

    def test_all_idle_relays_count_as_perfectly_even(self):
        r = make_result(relays=(0, 1), relayed_count=(0, 0, 0, 0))
        assert relay_load_stats(r)["cv"] == 0.0


class TestPower:
    def test_reference_blend(self):
        # 10% transmit, 30% listen, 60% sleep at the default profile
        assert node_current_ma(0.1, 0.3, 0.6, PowerProfile()) == pytest.approx(
            2.8018, abs=1e-12
        )

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            node_current_ma(0.5, 0.5, 0.1, PowerProfile())

    def test_slack_within_tolerance_accepted(self):
        node_current_ma(0.1, 0.3, 0.6 + 5e-7, PowerProfile())

    def test_profile_bounds_are_inclusive(self):
        # past MAX_CURRENT_MA, a mean of relay currents could overflow fmean's sum
        assert PowerProfile(MAX_CURRENT_MA, 0.0, 0.0).i_tx_ma == MAX_CURRENT_MA
        with pytest.raises(ValueError, match=r"^i_listen_ma must be in \[0, 1000000\]$"):
            PowerProfile(i_listen_ma=math.nextafter(MAX_CURRENT_MA, math.inf))

    def test_network_current_equals_mean_of_node_currents(self):
        topo = build_layout(FDOT_45MPH)
        result = run(topo, crns_select(topo), ScenarioConfig(seed=3))
        profile = PowerProfile()
        per_node = per_node_current_ma(result, profile)
        assert network_current_ma(result, profile) == pytest.approx(
            sum(per_node) / len(per_node), abs=1e-9
        )

    def test_mean_relay_current_none_without_relays(self):
        assert mean_relay_current_ma(make_result(), PowerProfile()) is None

    def test_mean_relay_current_averages_relays_only(self):
        r = make_result(
            relays=(0, 1),
            t_tx_frac=(0.5, 0.0, 0.0, 0.0),
            t_listen_frac=(0.5, 1.0, 0.0, 1.0),
            t_sleep_frac=(0.0, 0.0, 1.0, 0.0),
        )
        # node 0: 0.5*10 + 0.5*6 = 8; node 1: 6
        assert mean_relay_current_ma(r, PowerProfile()) == pytest.approx(7.0)


class TestSummaries:
    def test_hist_bins_are_one_wide_up_to_a_largest_load_of_9(self):
        # ceil((9 + 1) / 10) = 1: ten bins of one load each, the last holding 9
        result = make_result(relays=(0, 1, 2), relayed_count=(0, 4, 9, 0))
        row = {"algorithm": "crns", "rate_pps": 1.0, "pdr_pct": None,
               "relay_load_cv": None, "mean_relay_current_ma": None}
        (cell,) = cell_stats([row], [result])
        assert cell["relay_load_hist"] == [
            (b, b + 1, int(b in (0, 4, 9))) for b in range(10)
        ]

    def test_summary_fields(self):
        topo = build_layout(FDOT_45MPH)
        result = run(topo, crns_select(topo), ScenarioConfig(seed=3))
        s = summarize(result)
        assert s["seed"] == 3
        assert s["n_relays"] == 18
        assert s["app_sent"] == 600
        assert 0 <= s["pdr_pct"] <= 100
        assert s["mean_current_ma"] > 0
        assert s["mean_relay_current_ma"] > s["mean_current_ma"] / 2

    def test_node_csv(self, tmp_path):
        topo = build_layout(FDOT_45MPH)
        result = run(topo, crns_select(topo), ScenarioConfig(seed=3))
        path = tmp_path / "nodes.csv"
        write_node_csv(result, PowerProfile(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == topo.node_count
        sink_row = rows[-1]
        assert sink_row["pdr_pct"] == ""
        assert float(sink_row["t_listen"]) == 1.0
        relay_row = rows[8]
        assert relay_row["is_relay"] == "1"
        assert int(relay_row["relayed"]) == result.relayed_count[8]
