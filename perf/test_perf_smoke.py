"""Smoke test of the benchmark: every workload for a fraction of a second.

No wall-clock threshold anywhere: the assertions are the workloads' own
correctness checks and the shape of what they emit.
"""

from __future__ import annotations

import json
import math

import pytest

from perf import layers, run
from perf.workloads import WORKLOADS

SPEC = run.load_spec()
NAMES = list(WORKLOADS)


def test_benchmark_json_gates_workloads_that_exist():
    assert {entry["name"] for entry in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_emits_every_end_to_end_metric(name):
    result = run.run_one(name, seed=3, seconds=0.25, trace=0,
                         burn=False, setups=2)
    assert result["problems"] == []
    assert result["failed"] == 0, result["failures"]
    line = json.loads(run.contract_line(result, SPEC))
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    for name_, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name_


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric_and_linked_spans(name, tmp_path):
    result = run.run_one(name, seed=3, seconds=0.6, trace=1, burn=False,
                         setups=1, effort=0.02, out_dir=str(tmp_path))
    assert result["problems"] == []
    assert result["failed"] == 0, result["failures"]
    assert result["skipped"] == []
    line = json.loads(run.contract_line(result, SPEC))
    assert set(line["metrics"]) == {e["name"] for e in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert line["metrics"]["runtime.mover.staging_leak"]["value"] == 0
    assert line["metrics"]["bench.unattributed_share"]["value"] != layers.NOT_MEASURED
    spans = [json.loads(row) for row in open(result["spans"])]
    ops = {span["id"]: span for span in spans if span["name"] == "op"}
    replays = [span for span in spans if span["name"] == "replay"]
    assert replays, "no op was replayed"
    for replay in replays:
        assert ops[replay["parent"]]["op_id"] == replay["op_id"]
    stages = [span for span in spans if span["name"] not in ("op", "replay")]
    replay_ids = {replay["id"]: replay["op_id"] for replay in replays}
    assert stages and all(
        replay_ids[stage["parent"]] == stage["op_id"] for stage in stages)


def test_missing_probe_target_degrades_to_not_measured(monkeypatch, capsys):
    monkeypatch.setitem(layers.TARGETS, "encode_envelope",
                        "repro.net.wirecodec:renamed_away")
    result = run.run_one("invoke_small", seed=3, seconds=0.3, trace=1,
                         burn=False, setups=1, effort=0.02)
    assert result["problems"] == []
    assert "codec probe" in result["skipped"]
    line = json.loads(run.contract_line(result, SPEC))
    assert line["metrics"]["net.wirecodec.encode_us"]["value"] == layers.NOT_MEASURED
    assert line["metrics"]["rmi.marshal.call_us"]["value"] > 0
    assert "target absent" in capsys.readouterr().err
