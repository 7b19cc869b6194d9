"""Two-hop QA worlds, dataset entropy accounting, and content estimation."""

from .entropy import ModelKind, baseline_content, dataset_entropy, name_selection_entropy
from .estimator import (
    bits_per_parameter,
    content_estimate,
    effective_loss_recurrent,
    effective_loss_two_function,
)
from .generalization import (
    PresenceFlags,
    classify_algorithm,
    evaluate_holdouts,
    predict_generalization,
    uniform_baselines,
)
from .logs import summarize
from .simulate import (
    ReliabilityProfile,
    allocate_budget,
    ground_truth_content,
    loss_impact_ratio,
    loss_records,
)
from .worldgen import HOLDOUT_KINDS, WorldConfig, build_splits, generate_world, persist_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
