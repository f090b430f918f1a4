"""Shared fixtures: cluster factories over the simulated network."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster


@pytest.fixture
def make_cluster():
    """Factory for simulated-network clusters, torn down after the test."""
    created: list[Cluster] = []

    def factory(node_ids, **kwargs) -> Cluster:
        cluster = Cluster(node_ids, **kwargs)
        created.append(cluster)
        return cluster

    yield factory
    for cluster in created:
        cluster.shutdown()


@pytest.fixture
def pair(make_cluster) -> Cluster:
    """A two-node cluster: alpha, beta."""
    return make_cluster(["alpha", "beta"])


@pytest.fixture
def trio(make_cluster) -> Cluster:
    """A three-node cluster: alpha, beta, gamma."""
    return make_cluster(["alpha", "beta", "gamma"])


@pytest.fixture
def quad(make_cluster) -> Cluster:
    """A four-node cluster: alpha, beta, gamma, delta."""
    return make_cluster(["alpha", "beta", "gamma", "delta"])
