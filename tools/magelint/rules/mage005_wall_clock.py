"""MAGE005 — deadline/lease/EWMA arithmetic must use the monotonic clock."""

from __future__ import annotations

import ast
from typing import Iterable

from magelint.findings import Finding
from magelint.rules.base import (
    ModuleContext, QualnameIndex, Rule, attr_chain, ordinal_symbols,
)

#: The layers whose time arithmetic feeds deadlines, lock leases,
#: heartbeat verdicts, and the reactor's loop-lag EWMA.  Wall-clock
#: readings there are corrupted by NTP steps and manual clock changes;
#: ``time.monotonic()`` is the only clock those computations may
#: difference.
SCOPED_PREFIXES = ("src/repro/net/", "src/repro/runtime/", "src/repro/cluster/")


class WallClockRule(Rule):
    id = "MAGE005"
    title = "`time.time()` in deadline/lease/timing code"
    rationale = """
Every duration in the stack — Deadline expiry, lock lease TTLs,
heartbeat timeouts, the reactor's loop lag — is a *difference of two
clock readings*.  ``time.time()`` differences jump when NTP steps the
wall clock: a one-second backward step makes every outstanding deadline
one second longer and can mark a healthy peer dead.  PR 3 anchored
``Deadline`` on ``time.monotonic()`` for exactly this reason; this rule
keeps the rest of the net/runtime/cluster layers on the same clock.
Wall-clock readings are fine for *display* (log timestamps) — those
belong in bench/CLI code, outside this rule's scope.
"""
    example_bad = """
granted_at = time.time()
if time.time() - granted_at > ttl_s: ...
"""
    example_good = """
granted_at = time.monotonic()
if time.monotonic() - granted_at > ttl_s: ...
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.path.startswith(SCOPED_PREFIXES):
            return ()
        offenders = [
            node for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and attr_chain(node.func) == "time.time"
        ]
        offenders.sort(key=lambda n: n.lineno)
        symbols = ordinal_symbols(QualnameIndex(module.tree), "wall-clock",
                                  [n.lineno for n in offenders])
        findings: list[Finding] = []
        for node, symbol in zip(offenders, symbols):
            original = module.line(node.lineno).rstrip("\n")
            findings.append(Finding(
                rule=self.id,
                path=module.path,
                line=node.lineno,
                symbol=symbol,
                message=(
                    "`time.time()` in deadline/lease/timing code: wall-clock "
                    "differences jump under NTP steps — use `time.monotonic()` "
                    "(or the module's Clock abstraction)"
                ),
                suggestion=_unified(
                    module.path, node.lineno, original,
                    original.replace("time.time()", "time.monotonic()"),
                ),
            ))
        return findings


def _unified(path: str, lineno: int, old: str, new: str) -> str:
    if old == new:
        return ""
    return (f"--- a/{path}\n+++ b/{path}\n"
            f"@@ -{lineno},1 +{lineno},1 @@\n-{old}\n+{new}")
