"""MAGE008 — every protocol payload must be placed in the wire codec."""

from __future__ import annotations

import ast
from typing import Iterable

from magelint.findings import Finding
from magelint.rules.base import ModuleContext, ProgramFacts, Rule, terminal_name

#: Where the payload vocabulary lives.
PROTOCOL_MODULE = "rmi/protocol.py"
#: Payload classes declared outside the protocol module (the reply body).
MESSAGE_MODULE = "net/message.py"
EXTRA_PAYLOADS = frozenset({"ReplyPayload"})
#: Where every payload must be accounted for.
CODEC_MODULE = "net/wirecodec.py"
REGISTRY_NAME = "REGISTERED_PAYLOADS"


class WireCoverageRule(Rule):
    id = "MAGE008"
    title = "Protocol payload class missing from the wire-codec registry"
    rationale = """
The binary wire codec compiles a per-class encoder/decoder for every
entry in ``net/wirecodec.py``'s ``REGISTERED_PAYLOADS`` tuple; any other
value is pickled inside the envelope.  That path is *silent*: a new
payload dataclass added to ``rmi/protocol.py`` but not registered still
round-trips, so nothing fails — it just quietly pays the pickle tax on
every hop and stays out of the schema digest that refuses a peer whose
layout differs.  This rule closes the loop program-wide: every payload
dataclass in the protocol module (plus ``ReplyPayload``) must appear in
``REGISTERED_PAYLOADS``.
"""
    example_bad = """
# rmi/protocol.py
@dataclass(frozen=True)
class GossipDigest:          # new payload ...
    entries: "tuple[str, ...]"
# ... but net/wirecodec.py's REGISTERED_PAYLOADS never mentions it
"""
    example_good = """
# net/wirecodec.py
REGISTERED_PAYLOADS = (
    ...,
    protocol.GossipDigest,   # registered: compiled codec, in the digest
)
"""

    # -- pass 1: collect ----------------------------------------------------

    def collect(self, module: ModuleContext, facts: ProgramFacts) -> None:
        payloads: dict[str, tuple[str, int]] = facts.setdefault(
            "wire:payloads", {})
        covered: set[str] = facts.setdefault("wire:covered", set())

        if module.path.endswith(PROTOCOL_MODULE):
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    payloads[node.name] = (module.path, node.lineno)
        elif module.path.endswith(MESSAGE_MODULE):
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) \
                        and node.name in EXTRA_PAYLOADS:
                    payloads[node.name] = (module.path, node.lineno)
        elif module.path.endswith(CODEC_MODULE):
            facts.data["wire:codec_seen"] = True
            for node in ast.walk(module.tree):
                covered.update(_registry_entries(node))

    # -- pass 2: judge ------------------------------------------------------

    def check_program(self, facts: ProgramFacts) -> Iterable[Finding]:
        if not facts.get("wire:codec_seen"):
            # No wire codec in the linted set (e.g. the magelint
            # self-check): coverage is someone else's program.
            return ()
        covered: set[str] = facts.get("wire:covered", set())
        payloads: dict[str, tuple[str, int]] = facts.get("wire:payloads", {})
        findings: list[Finding] = []
        for name, (path, lineno) in sorted(payloads.items()):
            if name in covered:
                continue
            findings.append(Finding(
                rule=self.id,
                path=path,
                line=lineno,
                symbol=name,
                message=(
                    f"payload class `{name}` is not in the wire codec's "
                    f"REGISTERED_PAYLOADS in {CODEC_MODULE} — it is "
                    f"silently pickled on every hop and missing from the "
                    f"wire-format digest; add it to REGISTERED_PAYLOADS"
                ),
            ))
        return findings


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        terminal_name(dec.func if isinstance(dec, ast.Call) else dec)
        == "dataclass"
        for dec in node.decorator_list
    )


def _registry_entries(node: ast.AST) -> Iterable[str]:
    """Class names inside ``REGISTERED_PAYLOADS = (...)`` style tuples."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target, value = node.target, node.value
    else:
        return
    if not (isinstance(target, ast.Name) and target.id == REGISTRY_NAME):
        return
    if not isinstance(value, (ast.Tuple, ast.List)):
        return
    for elt in value.elts:
        name = terminal_name(elt)
        if name:
            yield name
