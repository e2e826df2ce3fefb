"""Baselines the paper positions itself against (Section 1).

* :mod:`repro.baselines.specified` — the specified-pattern verification
  primitive and its naive enumeration adaptation;
* :mod:`repro.baselines.fft` — FFT full-periodicity detection on feature
  indicator vectors.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.fft": (
        "FFTPeriodScore",
        "detect_dominant_period",
        "fft_period_scores",
        "indicator_vector",
    ),
    "repro.baselines.specified": (
        "SpecifiedCheck",
        "enumerate_hypotheses",
        "log10_hypothesis_count",
        "mine_by_enumeration",
        "naive_hypothesis_count",
        "verify_specified",
    ),
})

if TYPE_CHECKING:
    from repro.baselines.fft import (
        FFTPeriodScore,
        detect_dominant_period,
        fft_period_scores,
        indicator_vector,
    )
    from repro.baselines.specified import (
        SpecifiedCheck,
        enumerate_hypotheses,
        log10_hypothesis_count,
        mine_by_enumeration,
        naive_hypothesis_count,
        verify_specified,
    )

__all__ = [
    "FFTPeriodScore",
    "SpecifiedCheck",
    "detect_dominant_period",
    "enumerate_hypotheses",
    "fft_period_scores",
    "indicator_vector",
    "log10_hypothesis_count",
    "mine_by_enumeration",
    "naive_hypothesis_count",
    "verify_specified",
]
