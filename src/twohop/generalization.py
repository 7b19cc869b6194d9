"""Holdout generalization evaluation and algorithm-signature classification.

Each computational model predicts a distinct pattern of which holdout sets
a model can still answer: independent memorization generalizes to nothing,
two-function composition only to excluded complete questions, and recurrent
composition to every holdout (all facts stay present as one-hop questions).
Each model's row in ``entropy.SPECS`` states its rule, ``predict_generalization``
reads it, and the signatures that ``classify_algorithm`` tells apart follow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .entropy import SPECS, ModelKind
from .estimator import AggregateLoss, LossAccumulator
from .worldgen import _IS_TRAIN, _SPLIT_CODE, HOLDOUT_KINDS, SplitSet, World, WorldConfig


class EvaluationError(ValueError):
    pass


class PresenceFlags(NamedTuple):
    """What parts of a two-hop question the training data contains."""

    facts_one_hop_present: bool
    first_hop_pair_present: bool
    second_hop_pair_present: bool
    full_question_present: bool

    @property
    def both_pairs_present(self) -> bool:
        return self.first_hop_pair_present and self.second_hop_pair_present


class GeneralizationSignature(NamedTuple):
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
    """Whether the model answers the question correctly, given what train contains: its row's ``needs``."""
    return getattr(flags, SPECS[model_kind].needs)


def uniform_baselines(split_set: SplitSet, config: WorldConfig) -> dict[str, float]:
    """Per-holdout uniform-guessing loss in bits: the exact mean of each held-out key's chance loss.

    A chance-level log's holdout group holds the same losses, so its mean
    is the same bits whatever the order of the log's rows.
    """
    baselines = {}
    n_attrs = split_set.space.n_attributes
    for kind in HOLDOUT_KINDS:
        # key % |A| is a key's attribute: held-out keys per attribute
        per_attribute = [split_set.table[a::n_attrs].count(_SPLIT_CODE[kind]) for a in range(n_attrs)]
        if not any(per_attribute):
            continue
        acc = LossAccumulator()
        for pool, count in zip(config.pools, per_attribute):
            # log(1/pool), not -log(pool): bitwise a simulated uniform guess's logprob
            acc.add(math.log(1.0 / pool), count)
        baselines[kind] = acc.result().mean_loss_bits
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
        # A delta within 1e-9 of the baseline counts as zero. A chance-level
        # holdout of a log equals its baseline exactly, since both are exact
        # sums rounded once; the tolerance only matters for aggregates from
        # elsewhere, such as a summary written by another tool, whose rounding
        # may differ. One learned question in a million moves the delta by
        # 1e-6 of the baseline.
        generalizes[kind] = delta > 1e-9 * baselines[kind]
    return GeneralizationSignature(generalizes, deltas)


# The holdout sets that take out of train, besides each question itself, its
# first-hop pair (e1, r) or its second-hop pair (e2, a) in that hop's role
_FIRST_HOP_HELD = ("heldout_e1", "heldout_r", "heldout_e1r")
_SECOND_HOP_HELD = ("heldout_e2", "heldout_a", "heldout_e2a")


def predicted_signature(model_kind: ModelKind) -> dict[str, bool]:
    """Whether the model generalizes to each holdout set.

    That is ``predict_generalization`` on what the set takes out of train.
    """
    return {
        kind: predict_generalization(
            model_kind,
            PresenceFlags(
                facts_one_hop_present=True,
                first_hop_pair_present=kind not in _FIRST_HOP_HELD,
                second_hop_pair_present=kind not in _SECOND_HOP_HELD,
                full_question_present=False,
            ),
        )
        for kind in HOLDOUT_KINDS
    }


def classify_algorithm(signature: GeneralizationSignature) -> ModelKind | None:
    """The model whose predicted holdout signature this is; None when no model's is."""
    missing = [k for k in HOLDOUT_KINDS if k not in signature.generalizes]
    if missing:
        raise EvaluationError(f"signature incomplete, missing: {missing}")
    matches = (kind for kind in ModelKind if predicted_signature(kind) == signature.generalizes)
    return next(matches, None)
