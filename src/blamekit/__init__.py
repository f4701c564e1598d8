"""Contrastive anomaly explanations for device telemetry.

Pipeline: train a negative-sampling detector on normalized telemetry,
build a multimodal exemplar baseline set, then attribute each anomaly
to its dimensions with integrated gradients against the nearest
exemplar. An evaluation harness scores attribution quality against
labeled synthetic faults.
"""

from .attribution import (
    Explanations,
    blame,
    check_desiderata,
    completeness_gap,
    explain,
    integrated_gradients,
)
from .benchmark import BenchmarkConfig, LabeledSet, Mode, generate_fault_benchmark
from .dataio import Dataset, Normalizer, fit_normalizer, load_telemetry
from .detector import Detector, NegativeSamplingConfig, fit_detector, sample_negatives
from .evaluation import attribution_error, evaluate_methods, mann_whitney_u
from .exemplar import (
    ExemplarSet,
    naive_baseline,
    nearest_exemplar,
    select_baseline,
)
from .network import NetworkModel, TrainConfig, train
from .surrogate import surrogate_attribution

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "Dataset",
    "Detector",
    "ExemplarSet",
    "Explanations",
    "LabeledSet",
    "Mode",
    "NegativeSamplingConfig",
    "NetworkModel",
    "Normalizer",
    "TrainConfig",
    "attribution_error",
    "blame",
    "check_desiderata",
    "completeness_gap",
    "evaluate_methods",
    "explain",
    "fit_detector",
    "fit_normalizer",
    "generate_fault_benchmark",
    "integrated_gradients",
    "load_telemetry",
    "mann_whitney_u",
    "naive_baseline",
    "nearest_exemplar",
    "sample_negatives",
    "select_baseline",
    "surrogate_attribution",
    "train",
]
