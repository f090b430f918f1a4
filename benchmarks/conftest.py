"""Bench fixtures: result-artifact writing and cluster factories.

Every bench regenerates one of the paper's tables or figures, asserts the
shape that must hold, and renders an artifact ``<name>.txt`` (also echoed
to stdout under ``-s``).  A bench that also passes a ``data`` mapping gets
a machine-readable twin ``BENCH_<name>.json`` for dashboards and
regression tracking.  Artifacts go to a temp dir; ``--bench-record``
writes them into the committed ``benchmarks/results/`` instead, so only a
deliberate recording run changes the tree.

Wall-clock *thresholds* (speedup bars) carry the ``perf`` marker and are
excluded from the default run — a busy box must not fail tier-1.  The
measurements, artifacts and shape assertions still run there; run the
bars with ``python -m pytest -m perf benchmarks/``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cluster import Cluster

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> pathlib.Path:
    if not request.config.getoption("--bench-record"):
        return tmp_path_factory.mktemp("bench-results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Write (and print) a named bench artifact."""

    def writer(name: str, text: str, data: dict | None = None) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        if data is not None:
            json_path = results_dir / f"BENCH_{name}.json"
            json_path.write_text(
                json.dumps(data, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        print(f"\n{text}\n[written to {path}]")

    return writer


@pytest.fixture
def make_cluster():
    """Simulated-network cluster factory (torn down after the bench)."""
    created: list[Cluster] = []

    def factory(node_ids, **kwargs) -> Cluster:
        kwargs.setdefault("synchronous_casts", True)
        cluster = Cluster(node_ids, **kwargs)
        created.append(cluster)
        return cluster

    yield factory
    for cluster in created:
        cluster.shutdown()
