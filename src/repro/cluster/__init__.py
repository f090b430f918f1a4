"""Cluster harness: nodes, bring-up, discovery, load modelling/balancing."""

from repro.cluster.cluster import Cluster
from repro.cluster.discovery import Membership
from repro.cluster.load import (
    LoadBalancer,
    LoadMonitor,
    OscillatingProfile,
    RampProfile,
)
from repro.cluster.node import Node

__all__ = [
    "Cluster",
    "Membership",
    "LoadBalancer",
    "LoadMonitor",
    "Node",
    "OscillatingProfile",
    "RampProfile",
]
