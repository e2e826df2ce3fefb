"""Rule mining on top of partial periodic patterns."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.rules.cyclic": ("Cycle", "find_perfect_cycles", "perfect_patterns"),
    "repro.rules.periodic_rules": ("PeriodicRule", "derive_rules", "rules_about"),
})

if TYPE_CHECKING:
    from repro.rules.cyclic import Cycle, find_perfect_cycles, perfect_patterns
    from repro.rules.periodic_rules import PeriodicRule, derive_rules, rules_about

__all__ = [
    "Cycle",
    "PeriodicRule",
    "derive_rules",
    "find_perfect_cycles",
    "perfect_patterns",
    "rules_about",
]
