"""MAGE004 — fan-outs must carry the ambient deadline."""

from __future__ import annotations

import ast
from typing import Iterable

from magelint.findings import Finding
from magelint.rules.base import (
    ModuleContext, QualnameIndex, Rule, attr_chain, ordinal_symbols,
    terminal_name,
)

#: The scatter/gather primitives every multi-node operation is built from.
#: A fan-out that omits ``deadline=`` silently re-introduces the pre-PR 3
#: unbounded-walk behaviour for every caller above it.
FANOUT_METHODS = frozenset({
    "scatter", "gather", "ping_many", "push_class_many", "query_all_loads",
})

#: Only the layers that *compose* calls are held to this; leaf modules
#: (the transports themselves) legitimately implement the primitives.
SCOPED_PREFIXES = ("src/repro/cluster/", "src/repro/runtime/")


class DeadlineDropRule(Rule):
    id = "MAGE004"
    title = "fan-out call site drops the ambient `deadline=`"
    rationale = """
PR 3 made the end-to-end deadline ambient: a server's nested calls
inherit the caller's shrinking budget via ``effective_deadline`` —
*provided every fan-out site threads it*.  One ``scatter`` or ``gather``
without ``deadline=`` and the whole subtree below it runs unbounded: an
8-hop chase can again spend a full io timeout per hop, which is the
exact pathology deadlines were introduced to kill.  Sites in ``cluster/``
and ``runtime/`` (the composing layers) must pass ``deadline=`` —
explicitly ``None`` where unbounded is the *considered* choice.
"""
    example_bad = """
futures = self.scatter(node_ids, MessageKind.LOAD_QUERY, LoadQuery())
"""
    example_good = """
deadline = effective_deadline(deadline)
futures = self.scatter(node_ids, MessageKind.LOAD_QUERY, LoadQuery(),
                       deadline=deadline)
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.path.startswith(SCOPED_PREFIXES):
            return ()
        offenders = [
            node for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and terminal_name(node.func) in FANOUT_METHODS
            and not _has_deadline(node)
        ]
        offenders.sort(key=lambda n: n.lineno)
        symbols = ordinal_symbols(QualnameIndex(module.tree), "deadline-drop",
                                  [n.lineno for n in offenders])
        findings: list[Finding] = []
        for node, symbol in zip(offenders, symbols):
            spelled = attr_chain(node.func) or terminal_name(node.func)
            findings.append(Finding(
                rule=self.id,
                path=module.path,
                line=node.lineno,
                symbol=symbol,
                message=(
                    f"fan-out `{spelled}(...)` carries no `deadline=`; the "
                    f"subtree below it runs unbounded — thread the ambient "
                    f"budget (`deadline=deadline` or "
                    f"`deadline=effective_deadline(None)`), or pass "
                    f"`deadline=None` to record that unbounded is deliberate"
                ),
            ))
        return findings


def _has_deadline(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "deadline" or kw.arg is None:  # **kwargs may carry it
            return True
    return False
