"""Exact simulators of the three two-hop computational models.

Each simulator assigns a known reliability (probability of correct
retrieval) to every storable fact and produces a deterministic loss log
whose ground-truth information content is computable exactly. This is the
validation bench for the loss-based estimators and for the generalization
signature classifier.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from .entropy import ModelKind, Task, dataset_entropy
from .logs import LossRecord
from .worldgen import QuestionKind, SplitSet, World, WorldConfig, one_hop_qid, two_hop_qid


class CoverageError(KeyError):
    """A reliability profile is missing an entry the simulation needs."""


FactKey = tuple[int, str]
MemoKey = tuple[int, str, str]


@dataclass
class ReliabilityProfile:
    """Per-fact retrieval probabilities for one computational model.

    Recurrent uses a single fact map applied to both hops; two-function
    keeps separate first-hop and second-hop maps (each spanning all
    attributes, since each fact is stored once per pass); independent keeps
    one memo per complete two-hop question. When ``unlearned_uniform`` is
    set, a missing entry means the model answers uniformly at random, which
    is how holdout generalization rules emerge from trained profiles.
    """

    model_kind: ModelKind
    facts: dict[FactKey, float] | None = None
    hop1: dict[FactKey, float] | None = None
    hop2: dict[FactKey, float] | None = None
    memo: dict[MemoKey, float] | None = None
    unlearned_uniform: bool = False

    @classmethod
    def homogeneous(
        cls, config: WorldConfig, model_kind: ModelKind, reliability: float | None
    ) -> "ReliabilityProfile":
        """Uniform reliability for every fact, floored at each fact's chance rate.

        ``reliability=None`` means chance everywhere; otherwise it must be in [0, 1].
        """
        if reliability is not None and not 0.0 <= reliability <= 1.0:
            raise ValueError(f"reliability must be in [0, 1], got {reliability}")

        def level(pool: int) -> float:
            chance = 1.0 / pool
            if reliability is None:
                return chance
            return max(chance, reliability)

        return cls._from_level_fn(config, model_kind, lambda e, a, pool: level(pool))

    @classmethod
    def two_point(
        cls,
        config: WorldConfig,
        model_kind: ModelKind,
        p_low: float,
        p_high: float,
        frac_high: float,
        seed: int,
    ) -> "ReliabilityProfile":
        """Seeded mixture: each fact gets p_high with probability frac_high.

        Each of p_low, p_high and frac_high must be in [0, 1].
        """
        for name, value in (("p_low", p_low), ("p_high", p_high), ("frac_high", frac_high)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        rng = random.Random(seed)

        def level(e, a, pool):
            p = p_high if rng.random() < frac_high else p_low
            return max(1.0 / pool, p)

        return cls._from_level_fn(config, model_kind, level)

    @classmethod
    def _from_level_fn(cls, config: WorldConfig, model_kind: ModelKind, level) -> "ReliabilityProfile":
        n = config.n_profiles
        attrs = config.attributes
        if model_kind is ModelKind.RECURRENT:
            facts = {
                (e, a): level(e, a, config.pool_size(a)) for e in range(n) for a in attrs
            }
            return cls(model_kind, facts=facts)
        if model_kind is ModelKind.TWO_FUNCTION:
            hop1 = {(e, a): level(e, a, config.pool_size(a)) for e in range(n) for a in attrs}
            hop2 = {(e, a): level(e, a, config.pool_size(a)) for e in range(n) for a in attrs}
            return cls(model_kind, hop1=hop1, hop2=hop2)
        memo = {
            (e, r, a): level(e, a, config.pool_size(a))
            for e in range(n)
            for r in config.relations
            for a in attrs
        }
        return cls(model_kind, memo=memo)

    @classmethod
    def trained(
        cls,
        world: World,
        split_set: SplitSet,
        model_kind: ModelKind,
    ) -> "ReliabilityProfile":
        """Mark as learned exactly the facts occurring in the train split.

        Recurrent learns from one-hop facts (always all present); two-function
        learns first-hop pairs and second-hop pairs only from their in-role
        occurrences in train two-hop questions; independent memorizes the
        train two-hop questions. A learned fact has reliability 1; everything
        else answers uniformly.
        """
        space = split_set.space
        relations, attributes = space.relations, space.attributes
        one_hop = space.n_relations
        train = map(space.unpack, split_set.train.keys)  # (e1, r, a) indices, read once
        if model_kind is ModelKind.RECURRENT:
            facts = {(e1, attributes[a]): 1.0 for e1, r, a in train if r == one_hop}
            return cls(model_kind, facts=facts, unlearned_uniform=True)
        if model_kind is ModelKind.TWO_FUNCTION:
            hop1: dict[FactKey, float] = {}
            hop2: dict[FactKey, float] = {}
            for e1, r, a in train:
                if r == one_hop:
                    continue
                hop1[(e1, relations[r])] = 1.0
                hop2[(world.relation_target(e1, relations[r]), attributes[a])] = 1.0
            return cls(model_kind, hop1=hop1, hop2=hop2, unlearned_uniform=True)
        memo = {
            (e1, relations[r], attributes[a]): 1.0 for e1, r, a in train if r != one_hop
        }
        return cls(model_kind, memo=memo, unlearned_uniform=True)


def _chance(config: WorldConfig, attribute: str) -> float:
    return 1.0 / config.pool_size(attribute)


def _lookup(table: dict | None, key, profile: ReliabilityProfile) -> float | None:
    """Fetch a reliability; None signals an unlearned fact under uniform fallback."""
    if table is None:
        raise CoverageError(f"profile has no table for {key}")
    p = table.get(key)
    if p is None and not profile.unlearned_uniform:
        raise CoverageError(f"missing reliability entry for {key}")
    return p


def simulate_one_hop_prob(world: World, profile: ReliabilityProfile, e1: int, a: str) -> float:
    """Probability of the correct one-hop answer under the profile's model."""
    cfg = world.config
    if profile.model_kind is ModelKind.INDEPENDENT:
        # the memo model stores two-hop answers only
        return _chance(cfg, a)
    table = profile.facts if profile.model_kind is ModelKind.RECURRENT else profile.hop2
    p = _lookup(table, (e1, a), profile)
    return _chance(cfg, a) if p is None else p


def simulate_two_hop_prob(
    world: World,
    profile: ReliabilityProfile,
    e1: int,
    r: str,
    a: str,
) -> float:
    """Probability of the correct two-hop answer.

    For composing models, a first-hop miss falls back to a uniform guess
    over |N| entities, the fallback both inversions assume.
    """
    cfg = world.config
    if not cfg.is_relation(r):
        raise ValueError(f"first hop must be a relation, got {r!r}")
    if profile.model_kind is ModelKind.INDEPENDENT:
        p = _lookup(profile.memo, (e1, r, a), profile)
        return _chance(cfg, a) if p is None else p
    e2 = world.relation_target(e1, r)
    if profile.model_kind is ModelKind.RECURRENT:
        p1 = _lookup(profile.facts, (e1, r), profile)
        p2 = _lookup(profile.facts, (e2, a), profile)
    else:
        p1 = _lookup(profile.hop1, (e1, r), profile)
        p2 = _lookup(profile.hop2, (e2, a), profile)
    if p1 is None or p2 is None:
        return _chance(cfg, a)
    return p1 * p2 + (1.0 - p1) / cfg.n_profiles


def loss_records(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
) -> Iterator[tuple[str, str, str, float]]:
    """Yield (qid, split, kind, ln q of the simulated answer) per question, in file order."""
    space = split_set.space
    relations, attributes = space.relations, space.attributes
    one_hop, two_hop = QuestionKind.ONE_HOP.value, space.two_hop_kind.value
    for questions in split_set.splits():
        split = questions.split
        for key in questions.keys:
            e1, r, a = space.unpack(key)
            a = attributes[a]
            if r == space.n_relations:
                prob = simulate_one_hop_prob(world, profile, e1, a)
                yield one_hop_qid(e1, a), split, one_hop, math.log(prob)
            else:
                r = relations[r]
                prob = simulate_two_hop_prob(world, profile, e1, r, a)
                yield two_hop_qid(e1, r, a), split, two_hop, math.log(prob)


def generate_loss_log(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
) -> list[LossRecord]:
    """One record per QA item with logprob = ln q of the simulated answer."""
    return list(map(LossRecord._make, loss_records(world, profile, split_set)))


def ground_truth_content(world: World, profile: ReliabilityProfile) -> float:
    """Exact content in bits: model-kind entropy minus the per-fact loss sum."""
    cfg = world.config
    n = cfg.n_profiles
    attrs = cfg.attributes

    def fact_loss(table: dict | None, key, pool: int) -> float:
        p = None if table is None else table.get(key)
        if p is None:
            if not profile.unlearned_uniform:
                raise CoverageError(f"missing reliability entry for {key}")
            p = 1.0 / pool
        return -math.log2(p)

    if profile.model_kind is ModelKind.RECURRENT:
        entropy = dataset_entropy(cfg, Task.TWO_HOP, ModelKind.RECURRENT)
        loss = sum(
            fact_loss(profile.facts, (e, a), cfg.pool_size(a))
            for e in range(n)
            for a in attrs
        )
    elif profile.model_kind is ModelKind.TWO_FUNCTION:
        entropy = dataset_entropy(cfg, Task.TWO_HOP, ModelKind.TWO_FUNCTION)
        loss = sum(
            fact_loss(table, (e, a), cfg.pool_size(a))
            for table in (profile.hop1, profile.hop2)
            for e in range(n)
            for a in attrs
        )
    else:
        entropy = dataset_entropy(cfg, Task.TWO_HOP, ModelKind.INDEPENDENT)
        loss = sum(
            fact_loss(profile.memo, (e, r, a), cfg.pool_size(a))
            for e in range(n)
            for r in cfg.relations
            for a in attrs
        )
    return entropy.total_bits - loss


def allocate_budget(
    model_kind: ModelKind, budget_bits: float, config: WorldConfig
) -> ReliabilityProfile:
    """Spread an information budget uniformly over the model's storable units.

    Each unit of answer entropy b = log2 |V| keeps a residual loss of
    max(0, b - budget/units); its reliability is 2^(-loss). This yields the
    predicted loss of a capacity-limited model for curve overlays.
    """
    if not budget_bits >= 0:  # also rejects NaN
        raise ValueError(f"budget must be >= 0, got {budget_bits}")
    n = config.n_profiles
    n_attrs = len(config.attributes)
    if model_kind is ModelKind.RECURRENT:
        units = n * n_attrs
    elif model_kind is ModelKind.TWO_FUNCTION:
        units = 2 * n * n_attrs
    else:
        units = n * len(config.relations) * n_attrs
    share = budget_bits / units

    def level(e, a, pool):
        b = math.log2(pool)
        return 2.0 ** -max(0.0, b - share)

    return ReliabilityProfile._from_level_fn(config, model_kind, level)


def loss_impact_ratio(mix_ratio: float, n_relations: int) -> float:
    """Per-question gradient weight of a two-hop answer relative to a one-hop one.

    Under a training mix of ``mix_ratio`` two-hop questions per one-hop
    question, an individual two-hop question recurs mix_ratio / |R| times as
    often as an individual one-hop question.
    """
    if n_relations < 1:
        raise ValueError("n_relations must be >= 1")
    if mix_ratio < 0:
        raise ValueError("mix_ratio must be >= 0")
    return mix_ratio / n_relations
