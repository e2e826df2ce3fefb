"""Perturbation-tolerant mining transforms (paper Section 6 extension)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perturbation.slots": (
        "enlarge_slots",
        "mine_with_tolerance",
        "neighborhood_union",
    ),
})

if TYPE_CHECKING:
    from repro.perturbation.slots import (
        enlarge_slots,
        mine_with_tolerance,
        neighborhood_union,
    )

__all__ = ["enlarge_slots", "mine_with_tolerance", "neighborhood_union"]
