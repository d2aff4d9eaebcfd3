"""Relay selection and flooding dissemination for linear barrel meshes.

The pieces compose in layout -> selection -> simulation -> metrics order:

    topo = build_layout(FDOT_45MPH)
    relays = crns_select(topo)
    result = run(topo, relays, ScenarioConfig(app_rate_pps=4.0, seed=7))
    print(summarize(result))

The cli module wires the same pipeline to config files and CSV outputs.
"""
from .topology import (
    FDOT_45MPH,
    LayoutSpec,
    Segment,
    Topology,
    build_layout,
    topology_from_chainages,
)
from .relay_selection import (
    all_relays,
    crns_select,
    isolated_nodes,
    knn_relays,
    random_relays,
)
from .sim_engine import (
    ChannelConfig,
    ScenarioConfig,
    SimResult,
    run,
)
from .metrics import (
    PowerProfile,
    network_current_ma,
    network_pdr,
    per_node_pdr,
    relay_load_stats,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "FDOT_45MPH",
    "LayoutSpec",
    "Segment",
    "Topology",
    "build_layout",
    "topology_from_chainages",
    "all_relays",
    "crns_select",
    "isolated_nodes",
    "knn_relays",
    "random_relays",
    "ChannelConfig",
    "ScenarioConfig",
    "SimResult",
    "run",
    "PowerProfile",
    "network_current_ma",
    "network_pdr",
    "per_node_pdr",
    "relay_load_stats",
    "summarize",
    "__version__",
]
