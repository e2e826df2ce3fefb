"""Synthetic workloads (paper Section 5.1 generator and canned scenarios)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.synth.generator": ("SyntheticSeries", "SyntheticSpec", "generate_series"),
})

if TYPE_CHECKING:
    from repro.synth.generator import SyntheticSeries, SyntheticSpec, generate_series

__all__ = ["SyntheticSeries", "SyntheticSpec", "generate_series"]
