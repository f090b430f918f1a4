"""Per-layer measurement from outside the program.

Nothing in ``src/`` knows it is being measured.  Each layer is measured
by timing calls into its public functions with the workload's own inputs
(*stages*), and by differencing the public counters it already keeps.

Every function and attribute the probes touch is named once, in
``TARGETS`` (module-level functions) or as a dotted path handed to
:func:`dig` (attributes of live objects).  A name that no longer resolves
raises :class:`Absent`; the probe that needed it is skipped with a
warning and its metrics are reported as not measured, so a refactor of
``src/`` is never blocked by the benchmark.
"""

from __future__ import annotations

import importlib
import pickle
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Reported for a metric that was not measured on this workload: the layer
#: does not exist in its topology, or the probe's target is absent.
NOT_MEASURED = -1.0

TARGETS = {
    "marshal_call": "repro.rmi.marshal:marshal_call",
    "unmarshal_call": "repro.rmi.marshal:unmarshal_call",
    "marshal": "repro.rmi.marshal:marshal",
    "unmarshal": "repro.rmi.marshal:unmarshal",
    "isolate": "repro.rmi.marshal:isolate",
    "InvokeRequest": "repro.rmi.protocol:InvokeRequest",
    "MessageKind": "repro.net.message:MessageKind",
    "build_message": "repro.net.message:build_message",
    "inline_safe": "repro.net.message:inline_safe",
    "encode_envelope": "repro.net.wirecodec:encode_envelope",
    "decode_envelope": "repro.net.wirecodec:decode_envelope",
    "collect": "repro.runtime.metrics:collect",
    "CLE": "repro.core.models:CLE",
}


class Absent(Exception):
    """A probe target does not exist (any more)."""


def resolve(key: str) -> Any:
    path = TARGETS[key]
    module_name, _, attr = path.partition(":")
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise Absent(f"{key} -> {path}: {exc}") from exc


def dig(obj: Any, path: str) -> Any:
    """``obj.a.b.c`` for ``path == "a.b.c"``, or :class:`Absent`."""
    for part in path.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError as exc:
            raise Absent(f"{type(obj).__name__}.{part} (of {path})") from exc
    return obj


def median_us(fn: Callable[[], Any], budget_s: float = 0.06,
              max_iters: int = 400) -> float:
    """Median duration of ``fn()`` in microseconds: at least 3 calls, then
    as many as fit in ``budget_s``."""
    clock = time.perf_counter
    samples = []
    stop_at = clock() + budget_s
    while len(samples) < max_iters:
        start = clock()
        fn()
        end = clock()
        samples.append(end - start)
        if len(samples) >= 3 and end >= stop_at:
            break
    return statistics.median(samples) * 1e6


@dataclass
class Stage:
    """One step of an operation's pipeline, replayed from its inputs."""

    name: str
    fn: Callable[[], Any]
    #: How often the real op runs this step (a move makes 3 control
    #: round trips); 0 marks a step that happens *inside* another stage
    #: and is shown beside the budget, not added to it.
    times: int = 1


def thread_cpu_s() -> dict[str, float]:
    """CPU seconds of every live thread, by thread name."""
    out: dict[str, float] = {}
    for thread in threading.enumerate():
        if thread.ident is None:
            continue
        try:
            clock_id = time.pthread_getcpuclockid(thread.ident)
            out[thread.name] = out.get(thread.name, 0.0) + time.clock_gettime(clock_id)
        except (OSError, AttributeError):
            continue  # the thread ended between enumerate and the read
    return out


def _share(cpu: dict[str, float], total: float, *needles: str) -> float:
    if total <= 0:
        return 0.0
    return sum(value for name, value in cpu.items()
               if any(needle in name for needle in needles)) / total


def cpu_shares(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Who burned the process's CPU between two :func:`thread_cpu_s` reads."""
    delta = {name: after[name] - before.get(name, 0.0) for name in after}
    total = sum(delta.values())
    return {
        "net.reactor.cpu_share": _share(delta, total, "-loop-"),
        "net.tcpnet.pool_cpu_share": _share(delta, total, "-worker-", "-overflow"),
        "bench.cpu.caller_share": _share(delta, total, "perf-caller", "perf-generator",
                                         "perf-collector"),
    }


COUNTERS = ("local_hits", "frames_sent", "flushes", "auto_batches",
            "auto_batched_msgs", "inline_dispatches", "lock_waits",
            "moved_rejections", "class_hits", "class_loads")
GAUGES = ("loop_lag_ewma_ms", "loop_lag_max_ms", "max_queue_bytes")


def read_counters(topo: Any) -> dict[str, float]:
    """The public counters of a topology: summed over its nodes, the
    gauges as their maximum.  :class:`Absent` if one of them is gone."""
    values = dict.fromkeys(COUNTERS + GAUGES, 0.0)
    for ns in topo.ns.values():
        values["local_hits"] += dig(ns, "client.local_hits")
        stats = dig(ns, "locks.stats")
        values["lock_waits"] += stats.stay_waits + stats.move_waits
        values["moved_rejections"] += stats.moved_rejections
        values["class_hits"] += dig(ns, "classcache.hits")
        values["class_loads"] += dig(ns, "classcache.loads")
    for net in topo.nets:
        if not hasattr(net, "data_plane_metrics"):
            continue  # the simulated network has no data plane
        plane = net.data_plane_metrics()
        for name in ("frames_sent", "flushes", "auto_batches",
                     "auto_batched_msgs", "inline_dispatches"):
            values[name] += dig(plane, name)
        for name in GAUGES:
            values[name] = max(values[name], dig(plane, name))
    return values


def counter_metrics(before: dict[str, float], after: dict[str, float],
                    ops: int, tcp: bool) -> dict[str, float]:
    """Per-layer ratios from two :func:`read_counters` snapshots."""
    d = {name: after[name] - before[name] for name in COUNTERS}
    ops = max(ops, 1)
    out = {
        "rmi.bypass.hit_share": d["local_hits"] / ops,
        "runtime.locks.waits_per_op": d["lock_waits"] / ops,
        "runtime.locks.moved_rejections_per_op": d["moved_rejections"] / ops,
    }
    loads = d["class_hits"] + d["class_loads"]
    out["runtime.classcache.hit_share"] = (
        d["class_hits"] / loads if loads else NOT_MEASURED)
    if tcp:
        out.update({
            "net.tcpnet.msgs_per_batch": (
                d["auto_batched_msgs"] / d["auto_batches"]
                if d["auto_batches"] else 0.0),
            "net.tcpnet.batched_share": d["auto_batched_msgs"] / ops,
            "net.tcpnet.inline_dispatches_per_op": d["inline_dispatches"] / ops,
            "net.reactor.frames_per_flush": (
                d["frames_sent"] / d["flushes"] if d["flushes"] else 0.0),
            "net.reactor.flushes_per_op": d["flushes"] / ops,
            "net.reactor.loop_lag_ewma_ms": after["loop_lag_ewma_ms"],
            "net.reactor.loop_lag_max_ms": after["loop_lag_max_ms"],
            "net.reactor.max_queue_bytes": after["max_queue_bytes"],
        })
    return out


class Probes:
    """Stage pipelines and idle-system probes for one built workload."""

    def __init__(self, workload: Any, effort: float = 1.0) -> None:
        self.workload = workload
        #: Scales every probe's time budget (the smoke test runs at 2 %).
        self.effort = effort
        self.topo = workload.topo
        self.kind = workload.topology
        self.tcp = self.kind != "sim5"
        #: Probes run from ``src`` to ``dst``: caller->server on a pair,
        #: c0->h0 on a cluster, solo->solo.
        self.src = self.topo.ns[{"pair": "caller", "solo": "solo"}.get(self.kind, "c0")]
        self.dst = self.topo.ns[{"pair": "server", "solo": "solo"}.get(self.kind, "h0")]
        self.multi = len(self.topo.ns) > 1
        self.installed = False
        self.skipped: list[str] = []

    # -- spare nodes for the bare data plane ------------------------------------

    def install(self) -> None:
        """Register spare node ids beside the namespaces: an echo served
        inline on the reactor thread, the same echo through the worker
        pool, and a sink that answers a payload with its length."""
        inline_safe = resolve("inline_safe")
        src_net, dst_net = self.src.transport, self.dst.transport
        self.reply_blob = b""

        def echo(message: Any) -> bytes:
            return self.reply_blob

        def pooled_echo(message: Any) -> bytes:
            return self.reply_blob

        def sink(message: Any) -> int:
            return len(message.payload)

        src_net.register("probe-src", lambda message: None)
        dst_net.register("probe-inline", inline_safe(echo))
        dst_net.register("probe-pool", pooled_echo)
        dst_net.register("probe-sink", sink)
        if src_net is not dst_net:
            for node in ("probe-inline", "probe-pool", "probe-sink"):
                src_net.connect(node, dst_net.endpoint_of(node))
            dst_net.connect("probe-src", src_net.endpoint_of("probe-src"))
        self.ping = resolve("MessageKind").PING
        self.installed = True

    def _rtt(self, node: str, blob: bytes) -> Callable[[], Any]:
        if not self.installed:
            raise Absent("the spare data-plane nodes were not installed")
        call, ping = self.src.transport.call, self.ping
        return lambda: call("probe-src", node, ping, blob)

    # -- stage pipelines ---------------------------------------------------------

    def pipeline(self, caller: int) -> list[Stage]:
        """The steps one op of this workload takes, as replayable stages."""
        if self.workload.name == "move_stream_1m":
            build = self._streamed_move
        elif self.kind == "pair":
            build = self._wire_invoke
        elif self.kind == "solo":
            build = self._local_invoke
        else:
            build = lambda: self._bracket(caller)
        try:
            return build()
        except Absent as exc:
            self.skip("stage replay", exc)
            return []

    def skip(self, what: str, exc: Exception) -> None:
        self.skipped.append(what)
        print(f"perf: {what} skipped, target absent: {exc}", file=sys.stderr)

    def _sample(self) -> dict[str, Any]:
        """The workload's representative call, marshalled both ways."""
        host, name, method, args, result = self.workload.sample_call()
        args_blob = resolve("marshal_call")(args, {})
        result_blob = resolve("marshal")(result)
        self.reply_blob = result_blob  # what the spare echo nodes answer
        return dict(host=self.topo.ns[host], name=name, method=method,
                    args=args, result=result, args_blob=args_blob,
                    result_blob=result_blob)

    def _marshal_stages(self, p: dict[str, Any]) -> list[Stage]:
        marshal_call, unmarshal_call = resolve("marshal_call"), resolve("unmarshal_call")
        marshal, unmarshal = resolve("marshal"), resolve("unmarshal")
        dispatch = dig(p["host"], "external.invoker.dispatch")
        stub_for = dig(self.src, "client.stub_for")
        name, method, args, result = p["name"], p["method"], p["args"], p["result"]
        args_blob, result_blob = p["args_blob"], p["result_blob"]
        return [
            Stage("rmi.marshal.call", lambda: marshal_call(args, {})),
            Stage("rmi.marshal.uncall", lambda: unmarshal_call(args_blob, stub_for)),
            Stage("rmi.invoker.dispatch", lambda: dispatch(name, method, args, {})),
            Stage("rmi.marshal.result", lambda: marshal(result)),
            Stage("rmi.marshal.unresult", lambda: unmarshal(result_blob, stub_for)),
        ]

    def _codec_stages(self, p: dict[str, Any]) -> list[Stage]:
        """Shown beside the budget, not added: they run inside the round trip."""
        build_message, request = resolve("build_message"), resolve("InvokeRequest")
        encode, decode = resolve("encode_envelope"), resolve("decode_envelope")
        invoke = resolve("MessageKind").INVOKE
        src, dst = self.src.node_id, self.dst.node_id
        name, method, args_blob = p["name"], p["method"], p["args_blob"]

        def encoded() -> Any:
            return encode(build_message(invoke, src, dst,
                                        request(name, method, args_blob)))

        envelope = b"".join(bytes(part) for part in encoded())
        self.envelope_bytes = len(envelope)
        return [
            Stage("net.wirecodec.encode", encoded, times=0),
            Stage("net.wirecodec.decode", lambda: decode(envelope), times=0),
        ]

    def _wire_invoke(self) -> list[Stage]:
        p = self._sample()
        call, *served = self._marshal_stages(p)
        round_trip = Stage("net.tcpnet.rtt_pool",
                           self._rtt("probe-pool", p["args_blob"]))
        return [call, round_trip] + self._codec_stages(p) + served

    def _local_invoke(self) -> list[Stage]:
        p = self._sample()
        isolate = resolve("isolate")
        dispatch = dig(p["host"], "external.invoker.dispatch")
        stub_for = dig(self.src, "client.stub_for")
        name, method, args, result = p["name"], p["method"], p["args"], p["result"]
        return [
            Stage("rmi.marshal.isolate_args", lambda: isolate(args, stub_for)),
            Stage("rmi.invoker.dispatch", lambda: dispatch(name, method, args, {})),
            Stage("rmi.marshal.isolate_result", lambda: isolate(result, stub_for)),
        ]

    def _streamed_move(self) -> list[Stage]:
        from perf.servants import Blob
        twin = Blob(bytes(self.workload.state_bytes))
        pack = dig(self.dst, "mover.pack_state")
        unpack = dig(self.dst, "mover.unpack")
        stream = dig(self.src.transport, "stream")
        blob = pack(twin)
        round_trip = self._rtt("probe-pool", b"move")
        chunk = [(self.ping, blob)]
        return [
            # MOVE_REQUEST, TRANSFER_PREPARE and TRANSFER_COMMIT.
            Stage("net.tcpnet.rtt_pool", round_trip, times=3),
            Stage("runtime.mover.pack", lambda: pack(twin)),
            Stage("net.transport.stream",
                  lambda: stream("probe-src", "probe-sink", chunk)),
            Stage("runtime.mover.unpack", lambda: unpack(Blob, blob)),
        ]

    def _bracket(self, caller: int) -> list[Stage]:
        """The CLE op (the mix's median op) taken apart: lock, bind, a
        read-only invoke, unlock — on one of this driver's own counters."""
        from perf.workloads import DRIVERS, LOCK_TIMEOUT_MS
        workload = self.workload
        ns = self.topo.ns[DRIVERS[caller]]
        name = workload.names[caller::workload.callers][-1]
        origin = workload.origin[name]
        attr = resolve("CLE")(name, runtime=ns, origin=origin)
        lock, unlock = dig(ns, "lock"), dig(ns, "unlock")
        held: dict[str, Any] = {}

        def do_lock() -> None:
            held["grant"] = lock(name, ns.node_id, origin_hint=origin,
                                 timeout_ms=LOCK_TIMEOUT_MS)

        def do_bind() -> None:
            held["stub"] = attr.bind()

        return [
            Stage("runtime.server.lock", do_lock),
            Stage("core.attr.bind", do_bind),
            Stage("rmi.stub.invoke", lambda: held["stub"].value()),
            Stage("runtime.server.unlock", lambda: unlock(held["grant"])),
        ]

    # -- idle-system probes --------------------------------------------------------

    def timed(self, fn: Callable[[], Any], budget_s: float = 0.06) -> float:
        return median_us(fn, budget_s * self.effort)

    def micro(self) -> dict[str, float]:
        """Every probe that times public functions on the idle system."""
        out: dict[str, float] = {}
        for probe in (self._marshal, self._codec, self._data_plane,
                      self._stream, self._registry, self._locks,
                      self._mover, self._core):
            try:
                out.update(probe())
            except Absent as exc:
                self.skip(probe.__name__.lstrip("_") + " probe", exc)
        return out

    def _marshal(self) -> dict[str, float]:
        p = self._sample()
        stages = {stage.name: stage.fn for stage in self._marshal_stages(p)}
        args = p["args"]
        call_us = self.timed(stages["rmi.marshal.call"])
        plain_us = self.timed(
            lambda: pickle.dumps((args, {}), pickle.HIGHEST_PROTOCOL))
        return {
            "rmi.marshal.call_us": call_us,
            "rmi.marshal.uncall_us": self.timed(stages["rmi.marshal.uncall"]),
            "rmi.marshal.result_us": self.timed(stages["rmi.marshal.result"]),
            "rmi.marshal.bytes_per_op": float(
                len(p["args_blob"]) + len(p["result_blob"])),
            "rmi.marshal.pickle_us": plain_us,
            "rmi.marshal.vs_pickle": call_us / plain_us,
            "rmi.invoker.dispatch_us": self.timed(stages["rmi.invoker.dispatch"]),
        }

    def _codec(self) -> dict[str, float]:
        encode, decode = self._codec_stages(self._sample())
        return {
            "net.wirecodec.encode_us": self.timed(encode.fn),
            "net.wirecodec.decode_us": self.timed(decode.fn),
            "net.wirecodec.envelope_bytes": float(self.envelope_bytes),
        }

    def _data_plane(self) -> dict[str, float]:
        if not (self.tcp and self.installed):
            return {}
        p = self._sample()
        inline = self.timed(self._rtt("probe-inline", p["args_blob"]), 0.15)
        pool = self.timed(self._rtt("probe-pool", p["args_blob"]), 0.15)
        return {
            "net.tcpnet.rtt_inline_us": inline,
            "net.tcpnet.rtt_pool_us": pool,
            "net.tcpnet.pool_handoff_us": pool - inline,
        }

    def _stream(self) -> dict[str, float]:
        if not self.installed:
            return {}
        stream = dig(self.src.transport, "stream")
        chunks = [(self.ping, bytes(256 * 1024))] * 4
        return {"net.transport.stream_1m_us": self.timed(
            lambda: stream("probe-src", "probe-sink", chunks), 0.15)}

    def _registry(self) -> dict[str, float]:
        """``find`` of a hosted name, and down a three-hop stale chain."""
        from perf.servants import Counter
        find_here = dig(self.dst, "find")
        self.dst.register("probe-obj", Counter())
        out = {"runtime.registry.find_local_us": self.timed(
            lambda: find_here("probe-obj"))}
        if len(self.topo.ns) >= 5:
            from perf.workloads import HOSTS
            find, forget = dig(self.src, "find"), dig(self.src, "client.forget_location")
            mover = dig(self.topo.ns["c1"], "move")
            origin = self.dst.node_id
            hops = [host for host in HOSTS if host != origin] + ["c1"]
            traces = [net.trace for net in self.topo.nets]
            times, msgs = [], []
            for _ in range(max(2, round(12 * self.effort))):
                # The finder last saw the object at its origin; three moves
                # by another node leave three forwarding hops behind.
                forget("probe-obj")
                for target in hops:
                    mover("probe-obj", target, origin_hint=origin)
                before = sum(len(trace) for trace in traces)
                start = time.perf_counter()
                where = find("probe-obj", origin, verify=True)
                times.append(time.perf_counter() - start)
                msgs.append(sum(len(trace) for trace in traces) - before)
                mover("probe-obj", origin, origin_hint=origin)
                if where != hops[-1]:
                    raise RuntimeError(f"find said {where}, object is on {hops[-1]}")
            out["runtime.registry.find_chain3_us"] = statistics.median(times) * 1e6
            out["runtime.registry.find_chain3_msgs"] = statistics.median(msgs)
        self.dst.unregister("probe-obj")
        return out

    def _locks(self) -> dict[str, float]:
        acquire, release = dig(self.dst, "locks.acquire"), dig(self.dst, "locks.release")
        here = self.dst.node_id

        def local() -> None:
            grant = acquire("probe-lock", here, here)
            release("probe-lock", grant.token)

        out = {"runtime.locks.local_us": self.timed(local)}
        if self.multi:
            from perf.servants import Counter
            lock, unlock = dig(self.src, "lock"), dig(self.src, "unlock")
            self.dst.register("probe-locked", Counter())

            def remote() -> None:
                unlock(lock("probe-locked", here, origin_hint=here))

            out["runtime.locks.remote_bracket_us"] = self.timed(remote, 0.15)
            self.dst.unregister("probe-locked")
        return out

    def _mover(self) -> dict[str, float]:
        from perf.servants import Blob, Counter
        pack, unpack = dig(self.dst, "mover.pack_state"), dig(self.dst, "mover.unpack")
        if self.workload.name == "move_stream_1m":
            cls, twin = Blob, Blob(bytes(self.workload.state_bytes))
        else:
            cls, twin = Counter, Counter()
        blob = pack(twin)
        out = {
            "runtime.mover.pack_us": self.timed(lambda: pack(twin)),
            "runtime.mover.unpack_us": self.timed(lambda: unpack(cls, blob)),
        }
        if self.multi:
            move = dig(self.src, "move")
            a, b = self.dst.node_id, self.src.node_id
            self.dst.register("probe-small", Blob(bytes(64)))
            state = {"at": a}

            def hop() -> None:
                state["at"] = b if state["at"] == a else a
                move("probe-small", state["at"], origin_hint=a)

            out["runtime.mover.move_small_us"] = self.timed(hop, 0.15)
            self.topo.ns[state["at"]].unregister("probe-small")
        return out

    def _core(self) -> dict[str, float]:
        if not self.multi:
            return {}
        from perf.servants import Counter
        here = self.dst.node_id
        self.dst.register("probe-bound", Counter())
        attr = resolve("CLE")("probe-bound", runtime=self.src, origin=here)

        def bracket() -> None:
            with attr.locked():
                pass

        out = {
            "core.attr_bind_us": self.timed(attr.bind, 0.15),
            "core.locked_bracket_us": self.timed(bracket, 0.15),
        }
        self.dst.unregister("probe-bound")
        return out


def trace_window(workload_cls: type, seed: int, ops: int) -> dict[str, float]:
    """Message counts over a fixed number of ops on a *fresh* topology.

    One thread, the workload's own seeded sequence from its start, traces
    read after the last op: on the simulated network every number here
    repeats exactly from run to run.
    """
    workload = workload_cls(seed)
    workload.build()
    try:
        workload.clear_traces()
        topo = workload.topo
        clocks = [net.clock.now_ms() for net in topo.nets]
        op = workload.make_op(0)
        for i in range(ops):
            outcome = op(i)
            if workload.rate is not None:
                outcome.result()
        events = sum(len(net.trace) for net in topo.nets)
        remote = sum(net.trace.remote_message_count() for net in topo.nets)
        wire_bytes = sum(net.trace.remote_bytes() for net in topo.nets)
        payload = sum(event.nbytes for net in topo.nets
                      for event in net.trace.events())
        chunks = sum(net.trace.summary().get("TRANSFER_CHUNK", 0)
                     for net in topo.nets)
        out = {
            "net.transport.msgs_per_op": remote / ops,
            "net.transport.wire_bytes_per_op": wire_bytes / ops,
            "net.trace.events_per_op": events / ops,
            "net.trace.payload_kb_per_op": payload / 1024.0 / ops,
            "runtime.mover.chunks_per_move": (
                chunks / ops if workload.name == "move_stream_1m" else NOT_MEASURED),
        }
        collect = resolve("collect")
        out["runtime.server.finds_served_per_op"] = sum(
            collect(ns).finds_served for ns in topo.ns.values()) / ops
        if workload.topology == "sim5":
            out["net.simnet.msgs_per_op"] = remote / ops
            out["net.simnet.virtual_ms_per_op"] = (
                topo.nets[0].clock.now_ms() - clocks[0]) / ops
        return out
    finally:
        workload.close()
