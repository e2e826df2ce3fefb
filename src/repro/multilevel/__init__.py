"""Multi-level partial periodicity mining (paper Section 6 extension)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.multilevel.miner": (
        "MultiLevelResult",
        "generalize_series",
        "mine_multilevel",
    ),
    "repro.multilevel.taxonomy": ("Taxonomy",),
})

if TYPE_CHECKING:
    from repro.multilevel.miner import (
        MultiLevelResult,
        generalize_series,
        mine_multilevel,
    )
    from repro.multilevel.taxonomy import Taxonomy

__all__ = [
    "MultiLevelResult",
    "Taxonomy",
    "generalize_series",
    "mine_multilevel",
]
