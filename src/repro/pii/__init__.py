"""PII detection: taxonomy, encodings, matching, and the ReCon classifier."""

from .detector import MATCHING, RECON, DetectionReport, PiiDetector, PiiObservation
from .encodings import encode_value, variants
from .matcher import GroundTruthMatcher, PiiMatch, matcher_for
from .recon import (
    DecisionTree,
    ReconClassifier,
    ReconPrediction,
    TrainingExample,
    TypeMetrics,
    evaluate_classifier,
    featurize,
    render_metrics,
)
from .structure import Field, extract_fields, searchable_text
from .types import ALL_PII_TYPES, TABLE1_ORDER, PiiType

__all__ = [
    "ALL_PII_TYPES",
    "DecisionTree",
    "DetectionReport",
    "Field",
    "GroundTruthMatcher",
    "MATCHING",
    "PiiDetector",
    "PiiMatch",
    "PiiObservation",
    "RECON",
    "ReconClassifier",
    "ReconPrediction",
    "TABLE1_ORDER",
    "TrainingExample",
    "TypeMetrics",
    "evaluate_classifier",
    "render_metrics",
    "encode_value",
    "extract_fields",
    "featurize",
    "matcher_for",
    "searchable_text",
    "variants",
]
