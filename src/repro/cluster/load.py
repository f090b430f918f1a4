"""Host load modelling and cluster-wide balancing decisions.

§3.1 opens with a migration policy keyed on host load
(``if cloc.getLoad() > 100``), and the printer/oil scenarios move
components "as resources appear and disappear".  Real load averages do not
exist inside a simulation, so each node carries a :class:`LoadMonitor`
whose value is either set directly by tests/examples or generated by a
deterministic synthetic profile.

:class:`LoadBalancer` lifts the §3.1 policy to the whole cluster: every
decision starts from one *parallel* load sweep
(:meth:`~repro.cluster.cluster.Cluster.query_all_loads`, scatter-gather
over ``Transport.call_async``), so pricing a migration costs one
round-trip latency regardless of how many hosts are candidates.  With a
``probe_timeout_ms`` the sweep is deadline-bounded and *silence is a
signal*: a host that cannot price itself inside the window is treated as
overloaded (``inf``), not as absent — an overload so deep the probe
starved is exactly when the balancer must stop routing work there.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

from repro.errors import MageError
from repro.net.deadline import Deadline


def least_loaded(loads: dict[str, float],
                 exclude: tuple[str, ...] = ()) -> str:
    """The least-loaded host in ``loads`` (ties broken by name).

    The one tie-break rule every balancing path shares (the balancer
    below, :meth:`Membership.least_loaded`).  Raises
    :class:`~repro.errors.MageError` when no candidate remains.
    """
    candidates = {n: v for n, v in loads.items() if n not in exclude}
    if not candidates:
        raise MageError("no candidate host answered a load query")
    return min(candidates.items(), key=lambda item: (item[1], item[0]))[0]


class LoadMonitor:
    """A node's load metric: settable, or driven by a profile function."""

    def __init__(self, initial: float = 0.0) -> None:
        self._value = float(initial)
        self._provider: Callable[[], float] | None = None
        self._lock = threading.Lock()

    def get_load(self) -> float:
        """Current load (provider wins over the set value when installed)."""
        with self._lock:
            provider = self._provider
            value = self._value
        if provider is not None:
            return float(provider())
        return value

    def set_load(self, value: float) -> None:
        """Pin the load to ``value`` (removes any provider)."""
        if value < 0:
            raise ValueError(f"load cannot be negative: {value}")
        with self._lock:
            self._provider = None
            self._value = float(value)

    def use_profile(self, provider: Callable[[], float]) -> None:
        """Drive the load from ``provider`` (e.g. a synthetic profile)."""
        with self._lock:
            self._provider = provider


class LoadBalancer:
    """Cluster-wide balancing decisions from parallel load sweeps.

    The paper's policy fragment ``if cloc.getLoad() > 100: move(...)``
    needs two facts — is the current host overloaded, and who is least
    loaded — both answered by one :meth:`snapshot` (a scatter-gather
    LOAD_QUERY sweep).  Dead hosts drop out of the snapshot and are never
    chosen as targets.
    """

    def __init__(self, cluster, threshold: float = 100.0,
                 probe_timeout_ms: float | None = None,
                 membership=None) -> None:
        """``cluster`` is a :class:`~repro.cluster.cluster.Cluster` (or
        anything exposing ``query_all_loads``/``issuer``/``node_ids``);
        ``threshold`` is §3.1's overload bar.

        ``probe_timeout_ms`` bounds each :meth:`snapshot` by one shared
        deadline and treats expiry **as a load signal**: a host too
        swamped to price itself within the window is priced ``inf`` —
        it counts as overloaded and is never chosen as a migration
        target — while a host that is outright unreachable still drops
        out of the snapshot entirely.  ``None`` (the default) keeps the
        unbounded sweep.

        ``membership`` plugs in a
        :class:`~repro.cluster.discovery.Membership` service: sweeps then
        cover its live-host view — which may include peers in *other
        processes*, reached through the transport's address book — and a
        host its heartbeat declared **dead** is excluded before any
        probe is sent, so a corpse is never a migration target and never
        costs the sweep a timeout window.
        """
        self.cluster = cluster
        self.threshold = float(threshold)
        self.probe_timeout_ms = probe_timeout_ms
        self.membership = membership

    def _sweep_targets(self) -> list[str] | None:
        """The hosts one snapshot covers (``None`` = the cluster's own).

        With a membership attached this is its live view — dead hosts
        are already gone from it (heartbeat verdicts feed the balancer).
        """
        if self.membership is None:
            return None
        return self.membership.hosts()

    def snapshot(self) -> dict[str, float]:
        """Every live host's load, gathered from one parallel sweep.

        With ``probe_timeout_ms`` set, the sweep shares one deadline;
        probes it expires on are cancelled and their hosts priced
        ``inf`` (overloaded-by-silence) instead of silently dropped.
        """
        targets = self._sweep_targets()
        if self.probe_timeout_ms is None:
            # Unbounded by explicit choice: with no probe timeout the
            # sweep inherits whatever the transport enforces.
            return self.cluster.query_all_loads(deadline=None, targets=targets)
        return self.cluster.query_all_loads(
            deadline=Deadline.after_ms(self.probe_timeout_ms),
            timeout_load=float("inf"),
            targets=targets,
        )

    def overloaded(self, loads: dict[str, float] | None = None) -> list[str]:
        """Hosts above the threshold (sorted), per ``loads`` or a fresh sweep."""
        if loads is None:
            loads = self.snapshot()
        return sorted(n for n, value in loads.items() if value > self.threshold)

    def least_loaded(self, loads: dict[str, float] | None = None,
                     exclude: tuple[str, ...] = ()) -> str:
        """The least-loaded candidate host (ties broken by name)."""
        return least_loaded(self.snapshot() if loads is None else loads,
                            exclude)

    def hedge_candidates(self, loads: dict[str, float] | None = None,
                         exclude: tuple[str, ...] = (), k: int = 2) -> list[str]:
        """The ``k`` best migration targets, least-loaded first.

        Hosts priced ``inf`` (overloaded-by-silence) are never candidates.
        A hedged move hands ``[0]`` as the primary target and the rest as
        ``alternates``; the mover then streams to all of them at once
        and commits whichever finishes staging first.  Raises
        :class:`~repro.errors.MageError` when no candidate remains.
        """
        loads = self.snapshot() if loads is None else loads
        ranked = sorted(
            (value, node) for node, value in loads.items()
            if node not in exclude and value != float("inf")
        )
        if not ranked:
            raise MageError("no candidate host answered a load query")
        return [node for _value, node in ranked[:k]]

    def rebalance(self, name: str, src: str | None = None,
                  hedge: bool = False) -> str:
        """Move ``name`` off an overloaded host; returns its location.

        One sweep prices the whole decision: when the hosting node's load
        is at or under the threshold — or no better-loaded host exists —
        the component stays put.

        ``hedge=True`` hedges the write for large (streamed) objects: the
        two least-loaded hosts both receive the speculative stream, the
        first to finish staging wins, and the result is wherever the
        object actually landed — one stalled target no longer serializes
        an urgent off-load.
        """
        issuer = self.cluster.issuer(src)
        loads = self.snapshot()
        location = issuer.find(name)
        if loads.get(location, 0.0) <= self.threshold:
            return location
        if not any(node != location for node in loads):
            raise MageError("no candidate host answered a load query")
        try:
            candidates = self.hedge_candidates(loads, exclude=(location,),
                                               k=2 if hedge else 1)
        except MageError:
            # Every peer is priced inf (overloaded-by-silence): nowhere
            # better to go, the component stays put — the same graceful
            # degrade an inf-valued least_loaded() target produced.
            return location
        target = candidates[0]
        if loads[target] >= loads[location]:
            return location  # nowhere better to go
        alternates = tuple(
            node for node in candidates[1:] if loads[node] < loads[location]
        )
        return issuer.move(name, target, hedge=hedge, alternates=alternates)


class RampProfile:
    """Load that climbs linearly per query: ``start + step * n_queries``.

    Deterministic: load depends on how often it has been observed, which
    makes "host becomes overloaded over time" scenarios reproducible.
    """

    def __init__(self, start: float = 0.0, step: float = 10.0) -> None:
        self.start = start
        self.step = step
        self._calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            value = self.start + self.step * self._calls
            self._calls += 1
        return value


class OscillatingProfile:
    """Load that swings sinusoidally per query between ``lo`` and ``hi``.

    Models the paper's "a host whose CPU was pegged may become idle"
    dynamics without wall-clock dependence.
    """

    def __init__(self, lo: float = 0.0, hi: float = 200.0,
                 period_queries: int = 10) -> None:
        if period_queries <= 0:
            raise ValueError("period_queries must be positive")
        if hi < lo:
            raise ValueError(f"hi ({hi}) must be >= lo ({lo})")
        self.lo = lo
        self.hi = hi
        self.period = period_queries
        self._calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            phase = (self._calls % self.period) / self.period
            self._calls += 1
        mid = (self.hi + self.lo) / 2.0
        amplitude = (self.hi - self.lo) / 2.0
        return mid + amplitude * math.sin(2.0 * math.pi * phase)
