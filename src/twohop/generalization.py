"""Holdout generalization evaluation and algorithm-signature classification.

Each computational model predicts a distinct pattern of which holdout sets
a model can still answer: independent memorization generalizes to nothing,
two-function composition only to excluded complete questions, and recurrent
composition to every holdout (all facts stay present as one-hop questions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import ModelKind
from .estimator import AggregateLoss, aggregate_losses
from .worldgen import _IS_TRAIN, HOLDOUT_KINDS, SplitSet, World, WorldConfig


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


@dataclass(frozen=True)
class GeneralizationSignature:
    generalizes: dict[str, bool]
    deltas: dict[str, float]

    def to_dict(self) -> dict:
        return {"generalizes": self.generalizes, "deltas_bits": self.deltas}


class TrainIndex:
    """What the train split's two-hop questions contain, from the split table.

    ``hop1`` and ``hop2`` hold one flag per fact unit ``e·|A| + a``: a set
    flag marks a fact asked as the first hop of a train two-hop question, or
    as the second hop of one. Whether a whole question is in train is its
    byte in the split table; every one-hop question is in train.
    """

    def __init__(self, world: World, split_set: SplitSet):
        space, table, facts = split_set.space, split_set.table, world.facts
        self.space, self.table, self.facts = space, table, facts
        n_rel, n_attrs = space.n_relations, space.n_attributes
        hop1 = bytearray(space.n_profiles * n_attrs)
        # e2's hop2 flags as an int, one byte per attribute: the OR of the
        # train flags of the (e1, r) rows whose target is e2
        hop2 = [0] * space.n_profiles
        for e1, start in enumerate(range(0, space.size, space.per_entity)):
            flags = table[start : start + n_rel * n_attrs].translate(_IS_TRAIN)
            for r in range(n_rel):
                row = flags[r * n_attrs : (r + 1) * n_attrs]
                if 1 in row:
                    unit = e1 * n_attrs + r
                    hop1[unit] = 1
                    hop2[facts[unit]] |= int.from_bytes(row, "big")
        self.hop1 = hop1
        self.hop2 = bytearray().join(row.to_bytes(n_attrs, "big") for row in hop2)


def train_two_hops(split_set: SplitSet) -> bytearray:
    """One flag per two-hop question (e1, r, a), at ``(e1·|R| + r)·|A| + a``: set if in train."""
    space = split_set.space
    n = space.n_relations * space.n_attributes
    rows = (split_set.table[start : start + n] for start in range(0, space.size, space.per_entity))
    return bytearray().join(rows).translate(_IS_TRAIN)


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

    Built by aggregating synthetic uniform losses item by item in key order,
    so that it matches the observed aggregate of a log in file order bit for
    bit.
    """
    baselines = {}
    space = split_set.space
    for kind in HOLDOUT_KINDS:
        keys = split_set.heldout[kind]
        if not keys:
            continue
        # log(1/pool), not -log(pool): bitwise identical to a simulated
        # uniform guess, so chance-level deltas cancel exactly. Questions
        # share their attribute's record; key % |A| is a key's attribute index.
        by_attribute = [
            (f"uniform:{a}", kind, space.two_hop_kind.value, math.log(1.0 / config.pool_size(a)))
            for a in space.attributes
        ]
        uniform = [by_attribute[key % space.n_attributes] for key in keys]
        baselines[kind] = aggregate_losses(uniform).mean_loss_bits
    return baselines


def evaluate_holdouts(
    aggregates: dict[str, AggregateLoss],
    baselines: dict[str, float],
) -> GeneralizationSignature:
    """Per-holdout deltas (baseline minus observed loss, bits) and booleans.

    A holdout set generalizes when its delta is above 1e-9 of its baseline.
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
        # A delta within 1e-9 of the baseline counts as zero. The observed
        # mean is folded in log order and the baseline in key order, so a
        # chance-level holdout differs from its baseline by rounding alone:
        # Welford's relative error stays below about 4e-10 up to millions of
        # questions, while one learned question in a million moves the delta
        # by 1e-6 of the baseline.
        generalizes[kind] = delta > 1e-9 * baselines[kind]
    return GeneralizationSignature(generalizes, deltas)


def classify_algorithm(signature: GeneralizationSignature) -> ModelKind | None:
    """The model whose exact holdout signature this is; None for a partial match."""
    missing = [k for k in HOLDOUT_KINDS if k not in signature.generalizes]
    if missing:
        raise EvaluationError(f"signature incomplete, missing: {missing}")
    flags = signature.generalizes
    if not any(flags.values()):
        return ModelKind.INDEPENDENT
    if all(flags.values()):
        return ModelKind.RECURRENT
    if flags["heldout_full"] and not any(v for k, v in flags.items() if k != "heldout_full"):
        return ModelKind.TWO_FUNCTION
    return None

