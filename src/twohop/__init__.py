"""Two-hop QA worlds, dataset entropy accounting, and content estimation."""

from .entropy import (
    EntropyReport,
    ModelKind,
    attribute_entropy,
    baseline_content,
    dataset_entropy,
    name_selection_entropy,
)
from .estimator import (
    AggregateLoss,
    Branch,
    ContentEstimate,
    EffectiveLoss,
    aggregate_losses,
    bits_per_parameter,
    content_estimate,
    effective_loss_recurrent,
    effective_loss_two_function,
)
from .generalization import (
    GeneralizationSignature,
    PresenceFlags,
    TrainIndex,
    classify_algorithm,
    evaluate_holdouts,
    predict_generalization,
    presence_flags,
    uniform_baselines,
)
from .logs import LossRecord, read_loss_log, validate_loss_log, write_loss_log
from .simulate import (
    ReliabilityProfile,
    allocate_budget,
    generate_loss_log,
    ground_truth_content,
    loss_impact_ratio,
    simulate_two_hop_prob,
)
from .worldgen import (
    HOLDOUT_KINDS,
    QuestionKind,
    SplitSet,
    World,
    WorldConfig,
    build_splits,
    generate_world,
    load_dataset,
    persist_dataset,
    profile_lines,
    question_lines,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
