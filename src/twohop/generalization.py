"""Holdout generalization evaluation and algorithm-signature classification.

Each computational model predicts a distinct pattern of which holdout sets
a model can still answer: independent memorization generalizes to nothing,
two-function composition only to excluded complete questions, and recurrent
composition to every holdout (all facts stay present as one-hop questions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .entropy import ModelKind
from .estimator import AggregateLoss, aggregate_losses
from .worldgen import HOLDOUT_KINDS, QuestionKind, SplitSet, World, WorldConfig


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class PresenceFlags:
    """What parts of a two-hop question the training data contains."""

    facts_one_hop_present: bool
    first_hop_pair_present: bool
    second_hop_pair_present: bool
    full_question_present: bool

    @property
    def both_pairs_present(self) -> bool:
        return self.first_hop_pair_present and self.second_hop_pair_present


class Inferred(str, Enum):
    INDEPENDENT = "independent"
    TWO_FUNCTION = "2f"
    RECURRENT = "recurrent"
    INCONSISTENT = "inconsistent"


@dataclass
class GeneralizationSignature:
    generalizes: dict[str, bool]
    deltas: dict[str, float]
    inferred: Inferred | None = None

    def to_dict(self) -> dict:
        return {
            "generalizes": self.generalizes,
            "deltas_bits": self.deltas,
            "inferred": self.inferred.value if self.inferred else None,
        }


class TrainIndex:
    """Membership sets over the train split for exact presence scans."""

    def __init__(self, world: World, split_set: SplitSet):
        self.world = world
        self.one_hop_facts: set[tuple[int, str]] = set()
        self.first_hop_pairs: set[tuple[int, str]] = set()
        self.second_hop_pairs: set[tuple[int, str]] = set()
        self.full_questions: set[tuple[int, str, str]] = set()
        for item in split_set.train:
            if item.kind is QuestionKind.ONE_HOP:
                self.one_hop_facts.add((item.e1, item.a))
            else:
                self.first_hop_pairs.add((item.e1, item.r))
                self.second_hop_pairs.add((world.relation_target(item.e1, item.r), item.a))
                self.full_questions.add((item.e1, item.r, item.a))


def presence_flags(index: TrainIndex, e1: int, r: str, a: str) -> PresenceFlags:
    """Exact membership flags for the two-hop question (e1, r, a)."""
    if not 0 <= e1 < index.world.config.n_profiles:
        raise EvaluationError(f"unknown entity: {e1}")
    e2 = index.world.relation_target(e1, r)
    return PresenceFlags(
        facts_one_hop_present=(e1, r) in index.one_hop_facts
        and (e2, a) in index.one_hop_facts,
        first_hop_pair_present=(e1, r) in index.first_hop_pairs,
        second_hop_pair_present=(e2, a) in index.second_hop_pairs,
        full_question_present=(e1, r, a) in index.full_questions,
    )


def predict_generalization(model_kind: ModelKind, flags: PresenceFlags) -> bool:
    """Whether the model answers the question correctly, given what train contains.

    Independent memorization needs the complete question; two-function
    composition needs both pairs in their hop roles; recurrent composition
    needs only the underlying one-hop facts.
    """
    if model_kind is ModelKind.INDEPENDENT:
        return flags.full_question_present
    if model_kind is ModelKind.TWO_FUNCTION:
        return flags.both_pairs_present
    return flags.facts_one_hop_present


def uniform_baselines(split_set: SplitSet, config: WorldConfig) -> dict[str, float]:
    """Per-holdout uniform-guessing loss in bits.

    Built by aggregating synthetic uniform losses item by item so that the
    accumulation matches the observed aggregates bit for bit.
    """
    baselines = {}
    space = split_set.space
    for kind in HOLDOUT_KINDS:
        questions = split_set.heldout[kind]
        if not questions:
            continue
        # log(1/pool), not -log(pool): bitwise identical to a simulated
        # uniform guess, so chance-level deltas cancel exactly. Questions
        # share their attribute's record; key % |A| is a key's attribute index.
        by_attribute = [
            (f"uniform:{a}", kind, space.two_hop_kind.value, math.log(1.0 / config.pool_size(a)))
            for a in space.attributes
        ]
        uniform = [by_attribute[key % space.n_attributes] for key in questions.keys]
        baselines[kind] = aggregate_losses(uniform).mean_loss_bits
    return baselines


def evaluate_holdouts(
    aggregates: dict[str, AggregateLoss],
    baselines: dict[str, float],
) -> GeneralizationSignature:
    """Per-holdout deltas (baseline minus observed loss, bits) and booleans.

    A holdout set generalizes when its delta is positive.
    """
    missing = [k for k in HOLDOUT_KINDS if k in baselines and k not in aggregates]
    if missing:
        raise EvaluationError(f"no aggregates for holdout sets: {missing}")
    deltas = {}
    generalizes = {}
    for kind in HOLDOUT_KINDS:
        if kind not in baselines:
            continue
        delta = baselines[kind] - aggregates[kind].mean_loss_bits
        deltas[kind] = delta
        generalizes[kind] = delta > 0.0
    return GeneralizationSignature(generalizes, deltas)


def classify_algorithm(signature: GeneralizationSignature) -> Inferred:
    """Map an exact holdout signature to its algorithm; partial matches stay raw."""
    missing = [k for k in HOLDOUT_KINDS if k not in signature.generalizes]
    if missing:
        raise EvaluationError(f"signature incomplete, missing: {missing}")
    flags = signature.generalizes
    if not any(flags.values()):
        inferred = Inferred.INDEPENDENT
    elif all(flags.values()):
        inferred = Inferred.RECURRENT
    elif flags["heldout_full"] and not any(v for k, v in flags.items() if k != "heldout_full"):
        inferred = Inferred.TWO_FUNCTION
    else:
        inferred = Inferred.INCONSISTENT
    signature.inferred = inferred
    return inferred

