"""MAGE006 — MessageKind exhaustiveness across the whole program."""

from __future__ import annotations

import ast
from typing import Iterable

from magelint.findings import Finding
from magelint.rules.base import ModuleContext, ProgramFacts, Rule, attr_chain

#: Kinds the node dispatcher never sees: REPLY is the response envelope
#: (matched to waiters by msg id at the transport) and BATCH is unpacked
#: into its sub-requests by ``Transport.execute_batch`` itself.
DISPATCH_EXEMPT = frozenset({"REPLY", "BATCH"})

#: Kinds that legitimately travel with no protocol payload dataclass.
PAYLOAD_EXEMPT = frozenset({"PING", "REPLY", "BATCH"})

#: Where the payload vocabulary must live.
PROTOCOL_MODULES = ("rmi/protocol.py", "net/message.py")

#: Constructors at send sites that are envelopes, not payloads.
_NOT_PAYLOADS = frozenset({"Message", "Deadline", "dict", "list", "tuple"})


class KindExhaustiveRule(Rule):
    id = "MAGE006"
    title = "MessageKind member without dispatch handler / protocol payload"
    rationale = """
The protocol's single source of truth is the ``MessageKind`` enum; the
things that must stay in lockstep with it are scattered: the node
dispatcher's handler table (``runtime/external.py``) and the payload
vocabulary (``rmi/protocol.py``).  Adding a kind without a handler gives
peers a frame the receiver answers with "unhandled kind" at runtime —
found only when the first message arrives; pairing a kind with an ad-hoc
payload class outside ``rmi/protocol.py`` hides it from the payload
round-trip tests that keep the wire picklable.  This rule closes the
loop program-wide: every member needs a dispatch entry, and every
payload constructed at a send site must be declared in the protocol
module.
"""
    example_bad = """
class MessageKind(enum.Enum):
    GOSSIP = "GOSSIP"     # added ...
# ... but no MessageKind.GOSSIP key in any dispatch table
"""
    example_good = """
self._handlers = {
    ...,
    MessageKind.GOSSIP: self._on_gossip,
}
"""

    # -- pass 1: collect ----------------------------------------------------

    def collect(self, module: ModuleContext, facts: ProgramFacts) -> None:
        members: dict[str, tuple[str, int]] = facts.setdefault("kinds:members", {})
        handled: set[str] = facts.setdefault("kinds:handled", set())
        payload_classes: set[str] = facts.setdefault("kinds:payload_classes", set())
        send_payloads: list[tuple[str, str, str, int]] = facts.setdefault(
            "kinds:send_payloads", [])

        for node in ast.walk(module.tree):
            # The enum itself.
            if isinstance(node, ast.ClassDef) and node.name == "MessageKind":
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                            and isinstance(stmt.targets[0], ast.Name):
                        members[stmt.targets[0].id] = (module.path, stmt.lineno)
            # Dispatch tables: any dict literal keyed by MessageKind.X.
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    kind = _kind_member(key)
                    if kind is not None:
                        handled.add(kind)
            # Payload vocabulary.
            if isinstance(node, ast.ClassDef) \
                    and module.path.endswith(PROTOCOL_MODULES):
                payload_classes.add(node.name)
            # Send sites: call(..., MessageKind.X, SomePayload(...), ...).
            if isinstance(node, ast.Call):
                kind = None
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    kind = kind or _kind_member(arg)
                if kind is None:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    ctor = _payload_ctor(arg)
                    if ctor is not None:
                        send_payloads.append(
                            (kind, ctor, module.path, node.lineno))

    # -- pass 2: judge ------------------------------------------------------

    def check_program(self, facts: ProgramFacts) -> Iterable[Finding]:
        findings: list[Finding] = []
        members: dict[str, tuple[str, int]] = facts.get("kinds:members", {})
        handled: set[str] = facts.get("kinds:handled", set())
        payload_classes: set[str] = facts.get("kinds:payload_classes", set())

        for member, (path, lineno) in sorted(members.items()):
            if member in DISPATCH_EXEMPT or member in handled:
                continue
            findings.append(Finding(
                rule=self.id,
                path=path,
                line=lineno,
                symbol=member,
                message=(
                    f"MessageKind.{member} has no dispatch handler anywhere "
                    f"(no `MessageKind.{member}: handler` entry in any "
                    f"dispatch table) — a peer sending it gets a runtime "
                    f"'unhandled kind' error; wire it into the node "
                    f"dispatcher or retire the member"
                ),
            ))

        seen: set[tuple[str, str]] = set()
        for kind, ctor, path, lineno in facts.get("kinds:send_payloads", []):
            if kind in PAYLOAD_EXEMPT or ctor in payload_classes:
                continue
            if (kind, ctor) in seen:
                continue
            seen.add((kind, ctor))
            findings.append(Finding(
                rule=self.id,
                path=path,
                line=lineno,
                symbol=f"{kind}:{ctor}",
                message=(
                    f"MessageKind.{kind} is sent with payload `{ctor}(...)`, "
                    f"which is not declared in the protocol module "
                    f"(rmi/protocol.py) — ad-hoc payloads escape the wire "
                    f"round-trip tests; move the dataclass there"
                ),
            ))
        return findings


def _kind_member(node: ast.AST | None) -> str | None:
    if node is None:
        return None
    chain = attr_chain(node)
    if chain.startswith("MessageKind.") and chain.count(".") == 1:
        return chain.split(".", 1)[1]
    return None


def _payload_ctor(node: ast.AST) -> str | None:
    """CamelCase constructor call used as a payload argument."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    if name in _NOT_PAYLOADS:
        return None
    return name if name[:1].isupper() else None
