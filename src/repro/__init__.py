"""MAGE: Mobility Attributes Guide Execution — a full Python reproduction.

Reproduces *"MAGE: A Distributed Programming Model"* (Barr, Pandey,
Haungs; ICDCS 2001): mobility attributes as first-class distribution
policies over a from-scratch RMI substrate with weak object migration,
forwarding-chain registries, class cloning/caching, and stay/move locking.

Quickstart::

    from repro import Cluster, REV

    with Cluster(["lab", "sensor1"]) as cluster:
        lab = cluster["lab"]
        lab.register_class(GeoDataFilterImpl)
        rev = REV("GeoDataFilterImpl", "geoData", "sensor1",
                  runtime=lab.namespace)
        geo_filter = rev.bind()       # class ships to sensor1, instantiates
        geo_filter.filter_data()      # runs on sensor1

See DESIGN.md for the module map and the wire contract.
"""

from repro import errors
from repro.cluster import Cluster, LoadMonitor, Membership, Node
from repro.core import (
    CLE,
    COD,
    GREV,
    LPC,
    Agent,
    AgentContext,
    AgentManager,
    Combined,
    FactoryMode,
    LoadBalancing,
    Locus,
    MAgent,
    MobilityAttribute,
    MobilityTriple,
    REV,
    RPC,
    Restricted,
    ResumableAgent,
    current_runtime,
    launch_resumable,
    use_runtime,
)
from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    PerLinkLatency,
    SimNetwork,
    TcpNetwork,
    UniformLatency,
)
from repro.runtime import Namespace
from repro.util import MageUrl, SimClock, WallClock

__version__ = "1.0.0"

__all__ = [
    "Agent",
    "AgentContext",
    "AgentManager",
    "BernoulliLoss",
    "CLE",
    "COD",
    "Cluster",
    "Combined",
    "ConstantLatency",
    "Membership",
    "FactoryMode",
    "GREV",
    "LPC",
    "LoadBalancing",
    "LoadMonitor",
    "Locus",
    "MAgent",
    "MageUrl",
    "MobilityAttribute",
    "MobilityTriple",
    "Namespace",
    "Node",
    "PerLinkLatency",
    "REV",
    "RPC",
    "Restricted",
    "ResumableAgent",
    "SimClock",
    "SimNetwork",
    "TcpNetwork",
    "UniformLatency",
    "WallClock",
    "current_runtime",
    "errors",
    "launch_resumable",
    "use_runtime",
]
