"""The benchmark's one command.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Without ``--workload`` it runs all
seven, each in a fresh child process; ``--selfcheck`` runs the four that
``BENCHMARK.json`` gates twice and compares the two passes against the
benchmark's own bounds.

See perf/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perf: the program under test (src/repro) is not in this checkout")
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perf import harness, layers  # noqa: E402
from perf.spans import SpanLog  # noqa: E402
from perf.workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 15
#: Every this-many-th op of a traced phase replays its stages.
REPLAY_EVERY = 20
#: Ops of the fixed-length trace window, per workload.
WINDOW_OPS = {"move_stream_1m": 32, "mobile_mix": 400, "mobile_mix_sim": 2000}
#: Open-loop rate steps after the traced phase (diagnostic, never gating).
RATE_STEPS = (2000, 3000)
#: Per-layer metrics that must repeat exactly between two runs.
EXACT = ("net.simnet.msgs_per_op", "net.simnet.virtual_ms_per_op",
         "runtime.mover.staging_leak")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def build_timed(workload_cls: type[Workload], seed: int,
                setups: int) -> tuple[Workload, list[float]]:
    """Set up ``setups`` times; keep the last one, return every duration."""
    durations = []
    workload = None
    for k in range(setups):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = workload_cls(seed)
        workload.build()
        durations.append(time.perf_counter() - start)
    return workload, durations


def finish(workload: Workload, succeeded: int) -> list[str]:
    """Postconditions, then shutdown; returns everything that is wrong."""
    problems = workload.check(succeeded)
    if workload.wrong:
        problems.append(f"{workload.wrong} ops returned a wrong result")
    leak = workload.staging_leak()
    if leak:
        problems.append(f"{leak} staged transfers left behind")
    workload.close()
    strays = [t.name for t in threading.enumerate()
              if t is not threading.main_thread() and not t.daemon]
    if strays:
        problems.append(f"non-daemon threads survive shutdown: {strays}")
    return problems


def summarize(series: dict[str, list[float]]) -> dict[str, tuple[float, float, float]]:
    """``(reported, q1, q3)`` of each metric's per-second values.

    Reported is the median, except for the tail (``p95_over_p50``,
    ``p95_ms``), where it is the lower quartile.  The sandbox shares its
    host, and a neighbour's burst adds a handful of slow ops to a second:
    that second's median barely moves, its p95 jumps, and never downwards.
    The median of the seconds' tails is dragged about by how many seconds
    were hit; their lower quartile stays with the undisturbed ones.  A
    change that lengthens the program's own tail lengthens it in every
    second and moves the quartile just as far.
    """
    out = {}
    for name, values in series.items():
        if values:
            q1, median, q3 = harness.quartiles(values)
            out[name] = (q1 if name.startswith("p95") else median, q1, q3)
    return out


# -- the untraced run: end-to-end metrics -----------------------------------------


def phase_extras(workload: Workload, phase: harness.Phase) -> dict[str, float]:
    """Harness metrics of one phase that gate nothing: the three the issue
    wanted end to end (see README), and how busy the process was."""
    first, last = phase.marks[0], phase.marks[-1]
    succeeded, failed = phase.succeeded(), phase.failed()
    lats = phase.segment_latencies_ms(first.wall, last.wall)
    out = {
        "bench.p99_ms": harness.percentile(lats, 0.99) if lats else layers.NOT_MEASURED,
        "bench.cpu_util": (last.cpu - first.cpu) / (last.wall - first.wall),
        "bench.ctxsw_per_op": (last.ctxsw - first.ctxsw) / max(1, succeeded),
        "bench.rss_growth_mb": (last.rss_kb - first.rss_kb) / 1024.0,
        "bench.failed_share": failed / max(1, succeeded + failed),
    }
    if hasattr(workload, "bytes_per_op"):
        out["bench.mb_per_s"] = (succeeded * workload.bytes_per_op / 1e6
                                 / (last.wall - first.wall))
    return out


def run_untraced(name: str, seed: int, seconds: float, burn: bool = True,
                 setups: int = SETUPS) -> dict[str, Any]:
    settle_s = harness.SETTLE_S if burn else 0.0
    if burn:
        harness.burn_cpu()
    workload, setup_times = build_timed(WORKLOADS[name], seed, setups)
    phase = harness.run_phase(workload, seconds, settle_s=settle_s)
    succeeded, failed = phase.succeeded(), phase.failed()
    problems = finish(workload, succeeded)
    stats = summarize(harness.segment_metrics(phase))
    q1, median, q3 = harness.quartiles(setup_times)
    stats["setup_s"] = (median, q1, q3)
    peak = harness.peak_rss_mb()
    stats["peak_rss_mb"] = (peak, peak, peak)
    extra = phase_extras(workload, phase)
    return {
        "workload": name, "seed": seed, "trace": 0, "problems": problems,
        "attempted": succeeded + failed, "failed": failed,
        "failures": dict(phase.failures_by_class()),
        "stats": stats, "extra": extra,
        "samples": succeeded, "segments": len(phase.marks) - 1,
    }


# -- the traced run: per-layer metrics ----------------------------------------------


class Tracer:
    """Op spans for every op, a stage replay for every 20th."""

    def __init__(self, probes: layers.Probes) -> None:
        self.log = SpanLog()
        self.probes = probes

    def _replay(self, stages: list[layers.Stage], op_id: str, parent: int) -> None:
        clock = time.perf_counter
        with self.log.span("replay", op_id, parent) as replay:
            for stage in stages:
                start = clock()
                stage.fn()
                self.log.add(stage.name, op_id, start, clock(), replay)

    def wrap(self, op: Any, caller: int) -> Any:
        """Closed loop: the caller thread records and replays."""
        stages = self.probes.pipeline(caller)
        add, clock = self.log.add, time.perf_counter

        def traced(i: int) -> None:
            start = clock()
            op(i)
            end = clock()
            op_id = f"{caller}:{i}"
            span = add("op", op_id, start, end)
            if stages and i % REPLAY_EVERY == 0:
                self._replay(stages, op_id, span)
        return traced

    def on_done(self) -> Any:
        """Open loop: the collector thread records and replays."""
        stages = self.probes.pipeline(0)

        def done(k: int, intended: float, stamp: float) -> None:
            op_id = f"0:{k}"
            span = self.log.add("op", op_id, intended, stamp)
            if stages and k % REPLAY_EVERY == 0:
                self._replay(stages, op_id, span)
        return done

    def budget(self, stages: list[layers.Stage]) -> dict[str, Any]:
        """Stage medians (self times), their sum, the op median, the rest."""
        medians = {name: statistics.median(times)
                   for name, times in self.log.self_times_us().items()}
        rows = [(stage.name, medians[stage.name], stage.times)
                for stage in stages if stage.name in medians]
        total = sum(median * times for _name, median, times in rows)
        op_us = medians.get("op")
        return {
            "rows": rows, "sum_us": total, "op_us": op_us,
            "replay_overhead_us": medians.get("replay"),
            "unattributed": 1.0 - total / op_us if op_us and rows else None,
        }


def print_budget(name: str, budget: dict[str, Any]) -> None:
    print(f"budget {name}: where one op's time goes (traced phase, medians)")
    for stage, median, times in budget["rows"]:
        note = "inside the round trip, not added" if times == 0 else f"x{times}"
        print(f"  {stage:30s} {median:10.1f} us  {note}")
    if budget["unattributed"] is not None:
        print(f"  {'sum of stages':30s} {budget['sum_us']:10.1f} us")
        print(f"  {'op (traced p50)':30s} {budget['op_us']:10.1f} us")
        print(f"  {'unattributed':30s} {budget['unattributed']:10.3f} share")
        print(f"  {'replay span self time':30s} {budget['replay_overhead_us']:10.1f} us"
              "  (the harness's own cost per replay)")


def phase_metrics(workload: Workload, tcp: bool, plain: harness.Phase,
                  traced: harness.Phase) -> dict[str, float]:
    """Harness and counter metrics from the untraced and the traced phase."""
    (before, cpu_before), (after, cpu_after) = traced.sampled
    out = phase_extras(workload, plain)
    out.update(layers.cpu_shares(cpu_before, cpu_after))
    if not tcp:
        del out["net.reactor.cpu_share"], out["net.tcpnet.pool_cpu_share"]
    if before is not None and after is not None:
        out.update(layers.counter_metrics(before, after, traced.succeeded(), tcp))
    series = harness.segment_metrics(plain)
    if not series["ops_per_s"]:
        return out
    plain_stats = summarize(series)
    traced_stats = summarize(harness.segment_metrics(traced))
    out["bench.p95_ms"] = plain_stats["p95_ms"][0]
    out["bench.segment_drift"] = series["ops_per_s"][-1] / series["ops_per_s"][0]
    if "ops_per_s" in traced_stats:
        if workload.rate is None:
            out["bench.trace_overhead_share"] = (
                1.0 - traced_stats["ops_per_s"][0] / plain_stats["ops_per_s"][0])
        else:  # the delivered rate is pinned; tracing shows as CPU per op
            out["bench.trace_overhead_share"] = (
                traced_stats["cpu_us_per_op"][0]
                / plain_stats["cpu_us_per_op"][0] - 1.0)
    if traced.sched is not None:
        out["bench.sched_lag_p99_ms"] = harness.percentile(
            sorted(traced.sched[1]), 0.99) * 1e3
    return out


def side_phases(workload: Workload, seconds: float,
                plain: harness.Phase) -> tuple[list[harness.Phase], dict[str, float]]:
    """Closed loop: one caller alone, for ``scaling_2v1``.  Open loop: two
    higher rate steps, to show the knee without gating on it."""
    out: dict[str, float] = {}
    phases = []
    if workload.rate is not None:
        for rate in RATE_STEPS:
            step = harness.run_open(workload, seconds, float(rate), 0.0, segments=1)
            phases.append(step)
            lo, hi = step.window()
            lats = step.segment_latencies_ms(lo, hi)
            if lats:
                out[f"bench.open.r{rate}.p99_ms"] = harness.percentile(lats, 0.99)
                out[f"bench.open.r{rate}.delivered_share"] = (
                    len(lats) / (rate * (hi - lo)))
    elif workload.callers > 1:
        single = harness.run_closed(workload, seconds, 0.0, callers=1)
        phases.append(single)
        alone = harness.segment_metrics(single)["ops_per_s"]
        together = harness.segment_metrics(plain)["ops_per_s"]
        if alone and together:
            out["bench.scaling_2v1"] = (statistics.median(together)
                                        / statistics.median(alone))
    return phases, out


def run_traced(name: str, seed: int, seconds: float, burn: bool = True,
               setups: int = SETUPS, out_dir: str | None = None,
               effort: float = 1.0) -> dict[str, Any]:
    """``seconds`` of measuring in all: an untraced phase (a sixth), the
    traced phase (a third), a one-caller phase or two rate steps (a sixth
    each), and the idle-system probes and trace window in what is left."""
    workload_cls = WORKLOADS[name]
    if burn:
        harness.burn_cpu()
    workload, _setup_times = build_timed(workload_cls, seed, setups)
    probes = layers.Probes(workload, effort)
    try:
        probes.install()
    except layers.Absent as exc:
        probes.skip("spare data-plane nodes", exc)
    tracer = Tracer(probes)

    def sample() -> tuple[dict[str, float] | None, dict[str, float]]:
        try:
            counters = layers.read_counters(workload.topo)
        except layers.Absent as exc:
            probes.skip("counters", exc)
            counters = None
        return counters, layers.thread_cpu_s()

    plain = harness.run_phase(workload, seconds / 6,
                              settle_s=harness.SETTLE_S if burn else 0.0)
    if workload.rate is not None:
        traced = harness.run_open(workload, seconds / 3, workload.rate, 0.0,
                                  on_done=tracer.on_done(), sample=sample)
    else:
        traced = harness.run_closed(workload, seconds / 3, 0.0,
                                    wrap=tracer.wrap, sample=sample)
    layer = phase_metrics(workload, probes.tcp, plain, traced)
    sides, side_metrics = side_phases(workload, seconds / 6, plain)
    layer.update(side_metrics)
    layer.update(probes.micro())
    budget = tracer.budget(probes.pipeline(0))
    if budget["unattributed"] is not None:
        layer["bench.unattributed_share"] = budget["unattributed"]

    phases = [plain, traced] + sides
    succeeded = sum(phase.succeeded() for phase in phases)
    failed = sum(phase.failed() for phase in phases)
    layer["bench.failed_share"] = failed / max(1, succeeded + failed)
    layer["runtime.mover.staging_leak"] = float(workload.staging_leak())
    problems = finish(workload, succeeded)
    try:
        layer.update(layers.trace_window(
            workload_cls, seed, max(8, round(WINDOW_OPS.get(name, 200) * effort))))
    except layers.Absent as exc:
        probes.skip("trace window", exc)

    spans_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans_{name}.jsonl")
        tracer.log.dump(spans_path)
    failures: Counter = Counter()
    for phase in phases:
        failures.update(phase.failures_by_class())
    return {
        "workload": name, "seed": seed, "trace": 1, "problems": problems,
        "attempted": succeeded + failed, "failed": failed,
        "failures": dict(failures), "layer": layer, "budget": budget,
        "skipped": probes.skipped, "spans": spans_path,
        "span_count": len(tracer.log.rows),
    }


# -- output -----------------------------------------------------------------------------


def contract_line(result: dict[str, Any], spec: dict) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    metrics = {}
    if result["trace"]:
        for entry in spec["per_layer"]:
            value = result["layer"].get(entry["name"], layers.NOT_MEASURED)
            if not math.isfinite(value):
                value = layers.NOT_MEASURED
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": result["stats"][entry["name"]][0], "unit": entry["unit"]}
    return json.dumps({
        "correct": not result["problems"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict[str, Any], spec: dict) -> None:
    name = result["workload"]
    workload = WORKLOADS[name]
    loop = (f"open loop, {workload.rate:.0f}/s" if workload.rate is not None
            else f"closed loop, {workload.callers} caller(s)")
    print(f"workload {name}  seed {result['seed']}  {loop}, {workload.topology}")
    if result["trace"]:
        for entry in spec["per_layer"]:
            value = result["layer"].get(entry["name"])
            shown = "not measured" if value is None or value == layers.NOT_MEASURED \
                else f"{value:.6g} {entry['unit']}"
            print(f"  {entry['name']:42s} {shown}")
        print_budget(name, result["budget"])
        print(f"  spans: {result['span_count']} recorded"
              + (f", written to {result['spans']}" if result["spans"] else ""))
    else:
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        for metric, (value, q1, q3) in result["stats"].items():
            print(f"  {metric:16s} {value:12.4f} {units.get(metric, 'ms'):6s} "
                  f"(quartiles {q1:.4f} .. {q3:.4f})"
                  + ("" if metric in units else "  (not gating)"))
        print(f"  medians over {result['segments']} one-second segments (p95*: "
              f"their lower quartile), {result['samples']} latency samples in all")
        for metric, value in result["extra"].items():
            print(f"  {metric:22s} {value:12.4f}  (not gating)")
    print(f"  attempted {result['attempted']}  failed {result['failed']}"
          f"  {result['failures'] or ''}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def run_one(name: str, seed: int, seconds: float, trace: int,
            out_dir: str | None = None, burn: bool = True,
            setups: int = SETUPS, effort: float = 1.0) -> dict[str, Any]:
    """``burn=False`` and a small ``effort`` are for the smoke test only."""
    if trace:
        return run_traced(name, seed, seconds, burn, setups, out_dir, effort)
    return run_untraced(name, seed, seconds, burn, setups)


# -- all workloads, self-check, history ---------------------------------------------------


def run_child(name: str, seed: int, seconds: int, trace: int, out_dir: str,
              quiet: bool = False) -> dict[str, Any]:
    """One workload in a fresh process; returns its contract object."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", out_dir]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.rstrip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    sys.stderr.write(done.stderr)
    if not lines:
        raise RuntimeError(f"{name}: no output (exit {done.returncode})")
    contract = json.loads(lines[-1])
    contract["exit"] = done.returncode
    return contract


def fingerprint() -> dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(), "load_1m": os.getloadavg()[0]}


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def record(results: dict[str, dict], seed: int, trace: int, machine: dict) -> None:
    path = os.path.join(ROOT, "perf", "results", "history.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    machine = dict(machine, load_1m_after=os.getloadavg()[0])
    line = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "sha": git_sha(), "seed": seed, "trace": trace, "machine": machine,
            "metrics": {name: {metric: entry["value"]
                               for metric, entry in contract["metrics"].items()}
                        for name, contract in results.items()}}
    with open(path, "a") as history:
        history.write(json.dumps(line) + "\n")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    machine = fingerprint()
    results = {name: run_child(name, args.seed, args.seconds, args.trace, args.out)
               for name in WORKLOADS}
    bad = [name for name, contract in results.items()
           if contract["exit"] or not contract["correct"]]
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"\nsummary, seed {args.seed}, trace {args.trace}")
    for entry in spec[kind]:
        row = "  ".join(f"{results[name]['metrics'][entry['name']]['value']:12.4f}"
                        for name in WORKLOADS)
        print(f"  {entry['name']:42s} {entry['unit']:6s} {row}")
    print("  columns: " + "  ".join(WORKLOADS))
    with open(os.path.join(args.out, "result.json"), "w") as out:
        json.dump({"seed": args.seed, "trace": args.trace, "machine": machine,
                   "results": results}, out, indent=1)
    if args.record:
        record(results, args.seed, args.trace, machine)
    if bad:
        print(f"FAILED: {bad}")
    return 1 if bad else 0


def selfcheck(args: argparse.Namespace, spec: dict) -> int:
    """Two passes of the same code over the gated workloads (those
    ``BENCHMARK.json`` names), interleaved; every end-to-end metric must
    agree within its bound and every exact counter exactly."""
    names = [entry["name"] for entry in spec["workloads"]]
    passes: list[dict[str, dict]] = [{}, {}]
    for results in passes:
        for name in names:
            results[name] = run_child(name, args.seed, args.seconds, 0,
                                      args.out, quiet=True)
    exact = [run_child("mobile_mix_sim", args.seed, args.seconds, 1,
                       args.out, quiet=True) for _ in passes]
    worst = 0
    print(f"{'workload':18s} {'metric':14s} {'pass A':>12s} {'pass B':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for name in names:
        for entry in spec["end_to_end"]:
            a, b = (results[name]["metrics"][entry["name"]]["value"]
                    for results in passes)
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            over = abs(worse) > entry["bound"]
            worst += over
            print(f"{name:18s} {entry['name']:14s} {a:12.4f} {b:12.4f} "
                  f"{worse:+8.3f} {entry['bound']:6.2f}{'  OVER' if over else ''}")
        for results in passes:
            if results[name]["exit"] or not results[name]["correct"] \
                    or results[name]["failed"]:
                print(f"{name}: a pass was incorrect or had failed ops")
                worst += 1
    for metric in EXACT:
        a, b = (run["metrics"][metric]["value"] for run in exact)
        same = a == b
        worst += not same
        print(f"{'mobile_mix_sim':18s} {metric:34s} {a!r} {b!r} "
              f"{'==' if same else 'DIFFERS'}")
    print("selfcheck", "FAILED" if worst else "passed")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="append this run to perf/results/history.jsonl")
    parser.add_argument("--out", default=os.path.join(ROOT, "perf", "out"),
                        help="where result.json and spans_*.jsonl go")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    if args.selfcheck:
        return selfcheck(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    result = run_one(args.workload, args.seed, float(args.seconds), args.trace,
                     out_dir=args.out)
    print_result(result, spec)
    print(contract_line(result, spec))
    return 0 if not result["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
