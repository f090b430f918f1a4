"""A node: one namespace plus its operational trimmings.

:class:`~repro.runtime.namespace.Namespace` is the pure runtime;
:class:`Node` adds what a deployed MAGE host carries — a load monitor
answering LOAD_QUERY, a membership service, an attached agent manager —
and the ``with node.activate():`` sugar that makes the paper's
runtime-implicit code read naturally.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.discovery import Membership
from repro.cluster.load import LoadMonitor
from repro.core.agents import AgentManager, agent_manager_for
from repro.core.context import use_runtime
from repro.net.transport import Transport
from repro.runtime.namespace import Namespace


class Node:
    """One MAGE host: namespace + load monitor + membership + agents."""

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        class_cache: bool = True,
        path_collapsing: bool = True,
        stream_threshold: int | None = None,
        chunk_bytes: int | None = None,
    ) -> None:
        self.load_monitor = LoadMonitor()
        self.namespace = Namespace(
            node_id,
            transport,
            class_cache=class_cache,
            path_collapsing=path_collapsing,
            stream_threshold=stream_threshold,
            chunk_bytes=chunk_bytes,
            load_provider=self.load_monitor.get_load,
        )
        #: Membership service: discovery queries, seed-list join, and the
        #: heartbeat failure detector (opt-in via ``start_heartbeat``).
        self.membership = Membership(self.namespace)
        self.agents: AgentManager = agent_manager_for(self.namespace)

    # -- identity ------------------------------------------------------------

    @property
    def node_id(self) -> str:
        return self.namespace.node_id

    def activate(self):
        """Make this node the ambient runtime: ``with node.activate(): …``"""
        return use_runtime(self.namespace)

    # -- convenience delegation to the namespace -------------------------------

    def register(self, name: str, obj: Any, shared: bool = True,
                 pinned: bool = False):
        """Host ``obj`` here under ``name`` (see :meth:`Namespace.register`)."""
        return self.namespace.register(name, obj, shared=shared, pinned=pinned)

    def register_class(self, cls: type):
        """Publish a class definition this node can serve."""
        return self.namespace.register_class(cls)

    def find(self, name: str, origin_hint: str | None = None,
             verify: bool = True, candidates=None) -> str:
        """Node id currently hosting ``name``."""
        return self.namespace.find(name, origin_hint, verify=verify,
                                   candidates=candidates)

    def stub(self, name: str, location: str | None = None):
        """A live proxy for ``name``."""
        return self.namespace.stub(name, location)

    def move(self, name: str, target: str, origin_hint: str | None = None,
             hedge: bool = False, alternates=()) -> str:
        """Weakly migrate ``name`` to ``target`` (see :meth:`Namespace.move`)."""
        return self.namespace.move(name, target, origin_hint,
                                   hedge=hedge, alternates=alternates)

    def set_load(self, value: float) -> None:
        """Pin this host's advertised load (examples, tests, benches)."""
        self.load_monitor.set_load(value)

    def join(self, seed: str, seed_endpoint=None) -> list[str]:
        """Join a cluster through ``seed`` (see :meth:`Membership.join`)."""
        return self.membership.join(seed, seed_endpoint)

    def shutdown(self) -> None:
        """Stop the membership service, then detach this node from the
        transport; an agent step posted for it is then dropped."""
        self.membership.stop()
        self.namespace.shutdown()

    def __repr__(self) -> str:
        return f"Node({self.node_id!r})"
