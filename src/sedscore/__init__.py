"""Evaluation toolkit for polyphonic sound event detection.

Scores detection outputs against ground truth with intersection tolerance
criteria (robust to labelling subjectivity), counts cross-triggers between
classes, and summarizes whole operating-point sweeps as a single
polyphonic sound detection score (PSDS). A collar-based matcher is
included as the conventional baseline for comparison.
"""

from .errors import (
    BadRow,
    DegenerateClassCount,
    EmptyClassGroundTruth,
    EventExceedsFileDuration,
    MalformedHeader,
    NegativeOnset,
    NonPositiveDuration,
    NoOperatingPoints,
    ParseError,
    SedScoreError,
    UnknownClassLabel,
    UnknownFile,
    ValidationError,
    ZeroLabelDuration,
)
from .events import (
    CollarParams,
    Dataset,
    EvalParams,
    Event,
    EventSet,
    TimeUnit,
    intersection_duration,
    total_intersection,
    validate_events,
)
from .io import (
    emit_report,
    load_dataset,
    load_durations,
    load_event_table,
    parse_durations_table,
    parse_event_table,
    sweep_operating_points,
)
from .matching import (
    CountsMatrix,
    collar_counts,
    collar_match,
    count_matrix,
)
from .psdroc import (
    ClassCurve,
    OpPoint,
    PsdRoc,
    integrate_psds,
    merge_psd_roc,
    pareto_filter,
    psd_roc_from_rates,
    staircase,
)
from .rates import (
    ClassRates,
    F1Report,
    compute_rates,
    effective_fpr,
    effective_tpr,
    f1_scores,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # events
    "Event",
    "EventSet",
    "Dataset",
    "EvalParams",
    "CollarParams",
    "TimeUnit",
    "intersection_duration",
    "total_intersection",
    "validate_events",
    # matching
    "CountsMatrix",
    "count_matrix",
    "collar_match",
    "collar_counts",
    # rates
    "ClassRates",
    "F1Report",
    "compute_rates",
    "effective_fpr",
    "effective_tpr",
    "f1_scores",
    # psd roc
    "OpPoint",
    "ClassCurve",
    "PsdRoc",
    "pareto_filter",
    "staircase",
    "merge_psd_roc",
    "integrate_psds",
    "psd_roc_from_rates",
    # io
    "parse_event_table",
    "parse_durations_table",
    "load_event_table",
    "load_durations",
    "load_dataset",
    "sweep_operating_points",
    "emit_report",
    # errors
    "SedScoreError",
    "ValidationError",
    "NonPositiveDuration",
    "NegativeOnset",
    "UnknownFile",
    "EventExceedsFileDuration",
    "UnknownClassLabel",
    "ParseError",
    "MalformedHeader",
    "BadRow",
    "NoOperatingPoints",
    "EmptyClassGroundTruth",
    "ZeroLabelDuration",
    "DegenerateClassCount",
]
