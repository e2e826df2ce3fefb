"""Analytical bounds, period discovery, significance, evolution, visuals."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.bounds": (
        "ScanBudget",
        "apriori_candidate_bound",
        "hit_set_bound",
        "hit_set_buffer_bound",
        "tree_node_bound",
    ),
    "repro.analysis.evolution": (
        "PatternChange",
        "Window",
        "WindowDiff",
        "diff_windows",
        "evolution_report",
        "mine_windows",
        "track_pattern",
    ),
    "repro.analysis.periodogram": ("PeriodScore", "score_periods", "suggest_periods"),
    "repro.analysis.significance": (
        "PatternSignificance",
        "feature_base_rates",
        "score_result",
        "significant_patterns",
    ),
    "repro.analysis.visualize": (
        "confidence_heatmap",
        "pattern_timeline",
        "render_result",
    ),
})

if TYPE_CHECKING:
    from repro.analysis.bounds import (
        ScanBudget,
        apriori_candidate_bound,
        hit_set_bound,
        hit_set_buffer_bound,
        tree_node_bound,
    )
    from repro.analysis.evolution import (
        PatternChange,
        Window,
        WindowDiff,
        diff_windows,
        evolution_report,
        mine_windows,
        track_pattern,
    )
    from repro.analysis.periodogram import PeriodScore, score_periods, suggest_periods
    from repro.analysis.significance import (
        PatternSignificance,
        feature_base_rates,
        score_result,
        significant_patterns,
    )
    from repro.analysis.visualize import (
        confidence_heatmap,
        pattern_timeline,
        render_result,
    )

__all__ = [
    "PatternChange",
    "PatternSignificance",
    "PeriodScore",
    "ScanBudget",
    "Window",
    "WindowDiff",
    "apriori_candidate_bound",
    "confidence_heatmap",
    "diff_windows",
    "evolution_report",
    "feature_base_rates",
    "hit_set_bound",
    "hit_set_buffer_bound",
    "mine_windows",
    "pattern_timeline",
    "render_result",
    "score_periods",
    "score_result",
    "significant_patterns",
    "suggest_periods",
    "track_pattern",
    "tree_node_bound",
]
