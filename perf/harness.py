"""Load generation and end-to-end measurement.

One phase = caller threads running a workload's operation while the main
thread marks segment boundaries, one a second.  A boundary is a snapshot of
wall clock, process CPU, RSS and context switches; every metric is computed
per segment from the samples that completed inside it and reported as the
median over segments (the tail metrics as their lower quartile: see
``run.summarize``), with the quartiles beside it.

Closed loop: each caller waits for its reply before sending the next
request, so a slower system receives less load.  Open loop: one generator
thread sends at a fixed rate whatever the system does, and latency counts
from the *intended* send time, so a stall is charged to every request it
delays.
"""

from __future__ import annotations

import bisect
import hashlib
import resource
import statistics
import threading
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

#: Length of one segment of a measured phase, seconds.
SEGMENT_S = 1.0
#: CPU-seconds the process burns before anything is timed, set-up
#: included.  The sandbox runs about 1.7x faster for the first seconds
#: after idle, and settles at a level that depends on how busy both cores
#: were just before; burning a fixed amount on both cores spends the burst
#: and leaves every run in the same state.
BURN_CPU_S = 5.0
#: The workload's own ops run for this long before the measured window.
SETTLE_S = 1.0

_PAGE_KB = resource.getpagesize() // 1024


class Mark(NamedTuple):
    """A segment boundary."""

    wall: float
    cpu: float
    rss_kb: int
    ctxsw: int


def rss_kb() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_KB


def mark() -> Mark:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return Mark(time.perf_counter(), time.process_time(), rss_kb(),
                usage.ru_nvcsw + usage.ru_nivcsw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def burn_cpu(until_cpu_s: float = BURN_CPU_S) -> None:
    """Keep both cores busy until the process has used ``until_cpu_s``.

    SHA-256 over a large buffer releases the interpreter lock, so two
    threads load two cores.
    """
    buf = bytes(1 << 20)

    def spin() -> None:
        while time.process_time() < until_cpu_s:
            hashlib.sha256(buf).digest()

    threads = [threading.Thread(target=spin, name=f"perf-burn-{i}")
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Lane:
    """One caller's samples: completion times and latencies, in order."""

    ends: array = field(default_factory=lambda: array("d"))
    lats: array = field(default_factory=lambda: array("d"))
    fail_ends: array = field(default_factory=lambda: array("d"))
    failures: Counter = field(default_factory=Counter)


@dataclass
class Phase:
    """What one measured phase recorded."""

    lanes: list[Lane]
    marks: list[Mark]
    #: Open loop only: how late each request left the generator, seconds,
    #: paired with its intended send time.
    sched: tuple[array, array] | None = None
    #: What the caller's ``sample`` hook returned at the first and the last
    #: mark, while the load threads were still alive.
    sampled: tuple[Any, Any] | None = None

    def window(self) -> tuple[float, float]:
        return self.marks[0].wall, self.marks[-1].wall

    def _count(self, times: array, lo: float, hi: float) -> int:
        return bisect.bisect_right(times, hi) - bisect.bisect_right(times, lo)

    def succeeded(self) -> int:
        lo, hi = self.window()
        return sum(self._count(lane.ends, lo, hi) for lane in self.lanes)

    def failed(self) -> int:
        lo, hi = self.window()
        return sum(self._count(lane.fail_ends, lo, hi) for lane in self.lanes)

    def failures_by_class(self) -> Counter:
        total: Counter = Counter()
        for lane in self.lanes:
            total.update(lane.failures)
        return total

    def segment_latencies_ms(self, lo: float, hi: float) -> list[float]:
        out: list[float] = []
        for lane in self.lanes:
            a = bisect.bisect_right(lane.ends, lo)
            b = bisect.bisect_right(lane.ends, hi)
            out.extend(lat * 1000.0 for lat in lane.lats[a:b])
        out.sort()
        return out


def segment_metrics(phase: Phase) -> dict[str, list[float]]:
    """Per-segment values of every end-to-end metric that has them.

    The tail is p95: the highest percentile with about ten samples beyond
    it in one segment of the slowest workload (~200 ops).  What gates is
    its ratio to the same segment's median, from which the speed of the
    machine cancels; ``p95_ms`` itself is shown and gates nothing.
    """
    series: dict[str, list[float]] = {
        "ops_per_s": [], "p50_ms": [], "p95_over_p50": [], "p95_ms": [],
        "cpu_us_per_op": [],
    }
    for before, after in zip(phase.marks, phase.marks[1:]):
        lats = phase.segment_latencies_ms(before.wall, after.wall)
        if not lats:
            continue
        series["ops_per_s"].append(len(lats) / (after.wall - before.wall))
        p50, p95 = percentile(lats, 0.50), percentile(lats, 0.95)
        series["p50_ms"].append(p50)
        series["p95_over_p50"].append(p95 / p50)
        series["p95_ms"].append(p95)
        series["cpu_us_per_op"].append(
            (after.cpu - before.cpu) * 1e6 / len(lats))
    return series


def _run_marks(seconds: float, segments: int | None, settle_s: float,
               sample: Callable[[], Any] | None) -> tuple[list[Mark], Any]:
    """Runs on the main thread while the load threads issue ops."""
    if segments is None:
        segments = max(1, round(seconds / SEGMENT_S))
    time.sleep(settle_s)
    first = sample() if sample is not None else None
    marks = [mark()]
    for k in range(1, segments + 1):
        delay = marks[0].wall + seconds * k / segments - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        marks.append(mark())
    return marks, (first, sample()) if sample is not None else None


def run_closed(workload: Any, seconds: float, settle_s: float = SETTLE_S,
               callers: int | None = None,
               wrap: Callable[[Callable, int], Callable] | None = None,
               sample: Callable[[], Any] | None = None) -> Phase:
    """``callers`` threads (the workload's own count by default) loop the
    workload's op until the measured window has passed."""
    callers = workload.callers if callers is None else callers
    lanes = [Lane() for _ in range(callers)]
    stop = threading.Event()
    clock = time.perf_counter

    def caller(k: int) -> None:
        op = workload.make_op(k)
        if wrap is not None:
            op = wrap(op, k)
        lane = lanes[k]
        ends, lats = lane.ends.append, lane.lats.append
        clear_every = workload.clear_every if k == 0 else 0
        i = 0
        while not stop.is_set():
            start = clock()
            try:
                op(i)
            except Exception as exc:  # counted by class; the run goes on
                lane.failures[type(exc).__name__] += 1
                lane.fail_ends.append(clock())
            else:
                end = clock()
                ends(end)
                lats(end - start)
            i += 1
            if clear_every and i % clear_every == 0:
                workload.clear_traces()

    threads = [threading.Thread(target=caller, args=(k,), name=f"perf-caller-{k}")
               for k in range(callers)]
    for thread in threads:
        thread.start()
    try:
        marks, sampled = _run_marks(seconds, None, settle_s, sample)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a caller thread did not finish its last op")
    return Phase(lanes, marks, sampled=sampled)


#: How long an open-loop phase waits for replies still outstanding.
DRAIN_S = 20.0


def run_open(workload: Any, seconds: float, rate: float,
             settle_s: float = SETTLE_S,
             segments: int | None = None,
             on_done: Callable[[int, float, float], None] | None = None,
             sample: Callable[[], Any] | None = None) -> Phase:
    """One generator thread issues request ``k`` at ``t0 + k / rate``.

    The workload's op returns a future.  Its done callback (on the
    transport's thread) stamps the completion and hands the future to a
    collector thread, which checks the value, empties the traces, and
    drops the future: nothing per request stays alive but three floats,
    so the collector's heap is the system's, not the harness's.
    """
    issue = workload.make_op(0)
    stop = threading.Event()
    clock = time.perf_counter
    intended, late, done = array("d"), array("d"), array("d")
    completed: deque[tuple[int, Any]] = deque()
    lane = Lane()
    samples: list[tuple[float, float]] = []
    issued = collected = 0

    def generator() -> None:
        nonlocal issued
        t0 = clock()
        k = 0
        while not stop.is_set():
            due = t0 + k / rate
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            done.append(0.0)
            intended.append(due)
            late.append(clock() - due)
            issued = k + 1
            issue(k).add_done_callback(
                lambda future, k=k: (done.__setitem__(k, clock()),
                                     completed.append((k, future))))
            k += 1

    def collector() -> None:
        nonlocal collected
        clear_every = workload.clear_every
        while True:
            if not completed:
                if stop.is_set() and collected >= issued:
                    return
                time.sleep(0.005)
                continue
            k, future = completed.popleft()
            collected += 1
            try:
                workload.verify_result(k, future.result(0))
            except Exception as exc:  # counted by class; the run goes on
                lane.failures[type(exc).__name__] += 1
                lane.fail_ends.append(done[k])
            else:
                samples.append((done[k], done[k] - intended[k]))
                if on_done is not None:
                    on_done(k, intended[k], done[k])
            if collected % clear_every == 0:
                workload.clear_traces()

    threads = [threading.Thread(target=generator, name="perf-generator"),
               threading.Thread(target=collector, name="perf-collector")]
    for thread in threads:
        thread.start()
    try:
        marks, sampled = _run_marks(seconds, segments, settle_s, sample)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=DRAIN_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"{issued - collected} requests never completed")
    samples.sort()
    for stamp, latency in samples:
        lane.ends.append(stamp)
        lane.lats.append(latency)
    lane.fail_ends = array("d", sorted(lane.fail_ends))
    return Phase([lane], marks, sched=(intended, late), sampled=sampled)


def run_phase(workload: Any, seconds: float, **kwargs: Any) -> Phase:
    if workload.rate is not None:
        return run_open(workload, seconds, workload.rate, **kwargs)
    return run_closed(workload, seconds, **kwargs)
