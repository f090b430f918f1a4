"""MAGE011 — per-object Python hook on a pickler."""

from __future__ import annotations

import ast
from typing import Iterable

from magelint.findings import Finding
from magelint.rules.base import ModuleContext, Rule, attr_chain

#: How the stdlib pickler is spelled as a base class.
_PICKLER_BASES = frozenset({
    "Pickler", "pickle.Pickler", "pickle._Pickler", "_pickle.Pickler",
})


class PicklerHookRule(Rule):
    id = "MAGE011"
    title = "`persistent_id` hook on a `pickle.Pickler` subclass"
    rationale = """
The C pickler calls a ``persistent_id`` method for *every object it
visits*, before any of its own fast paths: a 5 000-int list costs 5 000
Python calls.  The marshal boundary used that hook to spot stubs and
mobile instances, and a 15 KB by-value call cost 28–35x the pickling of
its own payload (1.8 ms of hook calls around 50 µs of C, twice per
invoke, under the GIL).  ``reducer_override`` is consulted only after
the exact-type fast paths for None/bool/int/float/str/bytes/tuple/list/
dict/set/frozenset have declined, so it runs once per *non-builtin*
object and never for the primitives beside them; subclasses of builtins
still reach it.  Any object a hook could want to intercept is by
construction not an exact builtin, so nothing is lost by the switch.
"""
    example_bad = """
class WirePickler(pickle.Pickler):
    def persistent_id(self, obj):
        return ("stub", obj.ref) if isinstance(obj, Stub) else None
"""
    example_good = """
class WirePickler(pickle.Pickler):
    def reducer_override(self, obj):
        if isinstance(obj, Stub):
            return attach_stub, (obj.ref,)
        return NotImplemented
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.path.startswith("src/"):
            return ()
        classes = [node for node in ast.walk(module.tree)
                   if isinstance(node, ast.ClassDef)]
        classes.sort(key=lambda node: node.lineno)
        # Picklers by inheritance within the module: a subclass of a local
        # Pickler subclass pays for the hook just the same.
        picklers: set[str] = set()
        findings: list[Finding] = []
        for cls in classes:
            bases = {attr_chain(base) for base in cls.bases}
            if not bases & (_PICKLER_BASES | picklers):
                continue
            picklers.add(cls.name)
            for item in cls.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "persistent_id"):
                    findings.append(Finding(
                        rule=self.id,
                        path=module.path,
                        line=item.lineno,
                        symbol=f"{cls.name}.persistent_id",
                        message=(
                            f"`{cls.name}.persistent_id` is a per-object "
                            "Python hook on a hot serializer: the C pickler "
                            "calls it for every object it visits — use "
                            "`reducer_override`, which only sees objects "
                            "that are not exact builtins"
                        ),
                    ))
        return findings
