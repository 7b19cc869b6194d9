"""Two-hop QA worlds, dataset entropy accounting, and content estimation.

Each exported name is imported from its module on first access (PEP 562),
so ``import twohop`` loads no submodule and a command loads only the
modules it uses.
"""

import importlib

_EXPORTS = {
    "entropy": ("ModelKind", "baseline_content", "dataset_entropy", "name_selection_entropy"),
    "estimator": ("bits_per_parameter", "content_estimate"),
    "generalization": ("PresenceFlags", "classify_algorithm", "evaluate_holdouts",
                       "predict_generalization", "uniform_baselines"),
    "logs": ("summarize",),
    "simulate": ("ReliabilityProfile", "allocate_budget", "ground_truth_content",
                 "loss_impact_ratio", "loss_records"),
    "worldgen": ("HOLDOUT_KINDS", "WorldConfig", "build_splits", "generate_world", "persist_dataset"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
