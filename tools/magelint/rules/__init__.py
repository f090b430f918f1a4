"""Rule registry.

Rules register by being listed here; the fixture suite in ``tests/lint/``
asserts each rule's id is present *and* that it flags its fixture, so
deleting a rule module (or dropping it from this list) fails tests —
the "rules are provably live" acceptance criterion.
"""

from __future__ import annotations

from magelint.rules.base import ModuleContext, ProgramFacts, Rule
from magelint.rules.mage001_lock_blocking import LockBlockingRule
from magelint.rules.mage002_error_reduce import ErrorReduceRule
from magelint.rules.mage003_broad_except import BroadExceptRule
from magelint.rules.mage004_deadline_drop import DeadlineDropRule
from magelint.rules.mage005_wall_clock import WallClockRule
from magelint.rules.mage006_kind_exhaustive import KindExhaustiveRule
from magelint.rules.mage007_shared_mutation import SharedMutationRule
from magelint.rules.mage008_wire_coverage import WireCoverageRule
from magelint.rules.mage009_inline_blocking import InlineBlockingRule
from magelint.rules.mage010_servant_call import ServantCallRule
from magelint.rules.mage011_pickler_hook import PicklerHookRule

ALL_RULES: tuple[Rule, ...] = (
    LockBlockingRule(),
    ErrorReduceRule(),
    BroadExceptRule(),
    DeadlineDropRule(),
    WallClockRule(),
    KindExhaustiveRule(),
    SharedMutationRule(),
    WireCoverageRule(),
    InlineBlockingRule(),
    ServantCallRule(),
    PicklerHookRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID", "Rule", "ModuleContext", "ProgramFacts"]
