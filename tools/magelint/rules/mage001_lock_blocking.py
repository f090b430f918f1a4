"""MAGE001 — blocking call while holding a lock."""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from magelint.findings import Finding
from magelint.rules.base import (
    ModuleContext, Rule, attr_chain, is_lock_name, iter_functions,
    terminal_name,
)

#: Method names that block the calling thread until remote/IO progress.
#: ``call`` is the transport's synchronous RPC form,
#: ``result``/``exception`` block on a CallFuture, ``stream`` drives a
#: windowed transfer to completion, and the socket verbs speak for
#: themselves.  ``call_async``/``cast`` are deliberately absent: they
#: return immediately and are the *correct* thing to do under a lock.
BLOCKING_METHODS = frozenset({
    "call", "result", "exception", "stream",
    "recv", "recv_into", "accept", "sendall", "connect",
})

#: ``module.function`` chains that block (checked against the full chain).
BLOCKING_CHAINS = frozenset({"time.sleep"})


class LockBlockingRule(Rule):
    id = "MAGE001"
    title = "blocking call inside a `with <lock>` body"
    rationale = """
A thread that blocks on remote progress (an RPC, a future's result, a
socket read, a sleep) while holding a local lock is the distributed-
deadlock shape: the remote side may need that very lock to make the
progress being waited for.  PR 4's LockManager "departing state" race was
exactly this — the mover held the per-name lock across the streamed
OBJECT_TRANSFER call, and lock requests arriving for the departing object
wedged behind it.  The fix (begin_departure/abort_departure bracketing
the call *outside* the mutex) is the rewrite this rule demands.

``cond.wait()`` on the *held* condition is exempt — waiting releases the
lock; that is what condition variables are for.  Waiting on anything
else (an Event, a different condition, a future) still flags.
"""
    example_bad = """
with self._lock:
    ack = self._transport.call(src, dst, kind, payload)  # holds lock across RPC
"""
    example_good = """
with self._lock:
    self._begin_departure(name)        # state flip only
ack = self._transport.call(src, dst, kind, payload)
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        cond_over_lock = _condition_bindings(module.tree)
        for func, qualname in iter_functions(module.tree):
            for with_node, ctx_expr in _lock_withs(func):
                held = attr_chain(ctx_expr)
                for call in _calls_in_body(with_node):
                    reason = _blocking_reason(call, held, cond_over_lock)
                    if reason is None:
                        continue
                    findings.append(Finding(
                        rule=self.id,
                        path=module.path,
                        line=call.lineno,
                        symbol=f"{qualname}:{reason}",
                        message=(
                            f"`{reason}` blocks while `{held or 'a lock'}` is "
                            f"held (acquired on line {with_node.lineno}); move "
                            f"the blocking call outside the critical section "
                            f"or flip state under the lock and wait outside it"
                        ),
                    ))
        return findings


def _lock_withs(func: ast.AST) -> Iterator[tuple[ast.With, ast.expr]]:
    for node in ast.walk(func):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            ctx = item.context_expr
            # `with self._lock:` / `with lock:` — compare the terminal
            # identifier; `with self._cond:` is excluded by is_lock_name.
            name = terminal_name(ctx)
            if name and is_lock_name(name):
                yield node, ctx


def _calls_in_body(with_node: ast.With) -> Iterator[ast.Call]:
    for stmt in with_node.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node


def _condition_bindings(tree: ast.Module) -> dict[str, str]:
    """``self.X = threading.Condition(self.Y)`` -> ``{"self.X": "self.Y"}``.

    A condition's ``wait()`` *releases* the lock it wraps, so waiting on
    ``self.X`` while holding ``self.Y`` is the intended pattern, not a
    deadlock — the worker-pool idle wait in tcpnet is the canonical case.
    """
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and terminal_name(node.value.func) == "Condition"
                and node.value.args):
            continue
        wrapped = attr_chain(node.value.args[0])
        if not wrapped:
            continue
        for target in node.targets:
            cond = attr_chain(target)
            if cond:
                bindings[cond] = wrapped
    return bindings


def _blocking_reason(call: ast.Call, held_lock: str,
                     cond_over_lock: dict[str, str]) -> str | None:
    """The dotted spelling of a blocking call, or None when benign."""
    chain = attr_chain(call.func)
    if chain in BLOCKING_CHAINS:
        return chain
    name = terminal_name(call.func)
    if name in BLOCKING_METHODS:
        return chain or name
    if name == "wait":
        # cond.wait() on the held condition (or on a Condition constructed
        # *over* the held lock) releases it — fine.  event.wait() /
        # other.wait() under a mutex blocks while holding.
        receiver = attr_chain(getattr(call.func, "value", ast.Name(id="")))
        if receiver and receiver == held_lock:
            return None
        if receiver and cond_over_lock.get(receiver) == held_lock:
            return None
        return chain or name
    return None
