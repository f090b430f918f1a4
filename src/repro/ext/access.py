"""Access control (§7 future work).

"Currently, MAGE trusts its constituent servers.  We are exploring a
version of MAGE that runs on and scales to WANs … fragmented into
competing and disjoint administrative domains, each with different
services, resources and security needs … We also are working on adding
access control and resource allocation models to MAGE."

This module implements that sketched model: namespaces belong to
**administrative domains**; a :class:`AccessPolicy` decides, per domain
and principal, which of the mobility verbs are allowed:

* ``invoke`` — run methods on components hosted here,
* ``move_in`` — accept migrating objects,
* ``move_out`` — let hosted objects leave,
* ``load_class`` — accept foreign class definitions.

A :class:`GuardedNamespace` wraps a namespace's dispatcher with the
policy.  Denials surface as :class:`~repro.errors.AccessDeniedError` at
the caller, exactly like any other remote protocol error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import AccessDeniedError
from repro.net.message import Message, MessageKind
from repro.runtime.namespace import Namespace

#: The mobility verbs a policy can grant or deny.
VERBS = ("invoke", "move_in", "move_out", "load_class")

#: Wildcard principal/domain.
ANY = "*"


@dataclass
class AccessRule:
    """Grant of some verbs to a principal (a node id or domain name)."""

    principal: str
    verbs: frozenset[str]

    def __post_init__(self) -> None:
        unknown = set(self.verbs) - set(VERBS)
        if unknown:
            raise ValueError(f"unknown verbs: {sorted(unknown)} (know {VERBS})")


@dataclass
class AccessPolicy:
    """Per-namespace rule set with domain membership.

    Default posture is **trusting** (the paper's current MAGE): every verb
    allowed for everyone until :meth:`restrict` flips the default to deny,
    after which only explicit rules (and same-domain peers, if
    ``trust_domain``) pass.
    """

    domain: str = "default"
    trust_domain: bool = True
    _default_allow: bool = True
    _rules: list[AccessRule] = field(default_factory=list)
    _domains: dict[str, str] = field(default_factory=dict)  # node -> domain

    def restrict(self) -> "AccessPolicy":
        """Switch to deny-by-default (returns self for chaining)."""
        self._default_allow = False
        return self

    def allow(self, principal: str, *verbs: str) -> "AccessPolicy":
        """Grant ``verbs`` (or all verbs, when none given) to ``principal``."""
        grant = frozenset(verbs) if verbs else frozenset(VERBS)
        self._rules.append(AccessRule(principal=principal, verbs=grant))
        return self

    def join_domain(self, node_id: str, domain: str) -> "AccessPolicy":
        """Record that ``node_id`` belongs to ``domain``."""
        self._domains[node_id] = domain
        return self

    def domain_of(self, node_id: str) -> str:
        """The administrative domain ``node_id`` belongs to."""
        return self._domains.get(node_id, "default")

    def permits(self, principal: str, verb: str) -> bool:
        """Does ``principal`` (a node id) get ``verb`` here?"""
        if verb not in VERBS:
            raise ValueError(f"unknown verb {verb!r}")
        if self._default_allow:
            return True
        if self.trust_domain and self.domain_of(principal) == self.domain:
            return True
        for rule in self._rules:
            if rule.principal in (ANY, principal) and verb in rule.verbs:
                return True
            # Domain-name rules match every node of that domain.
            if rule.principal == self.domain_of(principal) and verb in rule.verbs:
                return True
        return False


#: Message kinds gated by each verb.  An object — an agent on its tour
#: included — arrives as one OBJECT_TRANSFER or as a stream of
#: TRANSFER_CHUNKs whose first opens the staging slot; refusing the
#: first chunk refuses the stream before anything stages.
_VERB_FOR_KIND = {
    MessageKind.INVOKE: "invoke",
    MessageKind.OBJECT_TRANSFER: "move_in",
    MessageKind.TRANSFER_CHUNK: "move_in",
    MessageKind.INSTANTIATE: "move_in",
    MessageKind.MOVE_REQUEST: "move_out",
    MessageKind.AGENT_LAUNCH: "move_out",
    MessageKind.CLASS_TRANSFER: "load_class",
}


class GuardedNamespace:
    """Wraps a namespace's inbound dispatcher with an access policy.

    Local traffic (``src == dst``) is never gated — a namespace trusts
    itself; everything else consults the policy before the real handler
    runs.
    """

    def __init__(self, namespace: Namespace, policy: AccessPolicy) -> None:
        self.ns = namespace
        self.policy = policy
        self._denials = 0
        self._lock = threading.Lock()
        self._inner_handle = namespace.external.handle
        namespace.transport.register(namespace.node_id, self.handle)

    @property
    def denials(self) -> int:
        with self._lock:
            return self._denials

    def handle(self, message: Message) -> Any:
        """Gate one inbound message, then delegate to the real dispatcher."""
        verb = _VERB_FOR_KIND.get(message.kind)
        if verb is not None and not message.is_local:
            if not self.policy.permits(message.src, verb):
                with self._lock:
                    self._denials += 1
                raise AccessDeniedError(
                    principal=message.src, action=verb,
                    resource=f"{self.ns.node_id}:{message.kind.value}",
                )
        return self._inner_handle(message)


def guard(namespace: Namespace, policy: AccessPolicy) -> GuardedNamespace:
    """Install ``policy`` on ``namespace``'s inbound path."""
    return GuardedNamespace(namespace, policy)
