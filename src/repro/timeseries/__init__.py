"""Time-series substrate: feature series, scans, derivation, persistence."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.timeseries.dimensions": (
        "cross_dimensional",
        "dimension_feature",
        "project_pattern",
        "records_to_series",
        "split_feature",
    ),
    "repro.timeseries.events": ("Event", "EventDatabase", "derive_feature_series"),
    "repro.timeseries.feature_series": ("FeatureSeries", "as_feature_series"),
    "repro.timeseries.io": (
        "load_events_csv",
        "load_numeric_csv",
        "load_series",
        "save_series",
    ),
    "repro.timeseries.numeric": (
        "deltas",
        "movement_series",
        "percent_changes",
        "zscores",
    ),
    "repro.timeseries.scan": ("ScanCountingSeries",),
})

if TYPE_CHECKING:
    from repro.timeseries.dimensions import (
        cross_dimensional,
        dimension_feature,
        project_pattern,
        records_to_series,
        split_feature,
    )
    from repro.timeseries.events import Event, EventDatabase, derive_feature_series
    from repro.timeseries.feature_series import FeatureSeries, as_feature_series
    from repro.timeseries.io import (
        load_events_csv,
        load_numeric_csv,
        load_series,
        save_series,
    )
    from repro.timeseries.numeric import (
        deltas,
        movement_series,
        percent_changes,
        zscores,
    )
    from repro.timeseries.scan import ScanCountingSeries

__all__ = [
    "Event",
    "EventDatabase",
    "FeatureSeries",
    "ScanCountingSeries",
    "as_feature_series",
    "cross_dimensional",
    "deltas",
    "derive_feature_series",
    "dimension_feature",
    "load_events_csv",
    "load_numeric_csv",
    "load_series",
    "movement_series",
    "percent_changes",
    "project_pattern",
    "records_to_series",
    "save_series",
    "split_feature",
    "zscores",
]
