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
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .entropy import ModelKind, dataset_entropy
from .estimator import FOLD_ROWS, LossAccumulator
from .generalization import TrainIndex, train_two_hops
from .logs import LossRecord, group_names, refused_cot, row_head, row_tail
from .worldgen import KeySpace, SplitSet, World, WorldConfig


@dataclass(slots=True)
class ReliabilityTable:
    """One role's reliabilities: two levels per attribute and one flag per unit.

    A unit's attribute index is ``unit % len(low)``; a set flag picks its
    ``high`` level, a clear one its ``low`` level. A level of None marks the
    unit unlearned: a question that needs it is answered at chance.
    """

    low: tuple[float | None, ...]
    high: tuple[float | None, ...]
    flags: bytearray

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, unit: int) -> float | None:
        return (self.high if self.flags[unit] else self.low)[unit % len(self.low)]


@dataclass
class ReliabilityProfile:
    """Per-unit retrieval probabilities for one computational model.

    Recurrent stores one table, ``facts``, applied to both hops; two-function
    stores ``hop1`` and ``hop2`` (each spanning all attributes, since each
    fact is stored once per pass); independent stores ``memo``, one unit per
    two-hop question. A fact's unit is ``e·|A| + a`` and a memo's
    ``(e·|R| + r)·|A| + a``, with relation and attribute indices in config
    order. A role the model lacks is None.
    """

    model_kind: ModelKind
    config: WorldConfig
    facts: ReliabilityTable | None = None
    hop1: ReliabilityTable | None = None
    hop2: ReliabilityTable | None = None
    memo: ReliabilityTable | None = None
    # 1/|V_a| per attribute index: the answer to a question at chance
    chance: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.chance = tuple(1.0 / self.config.pool_size(a) for a in self.config.attributes)

    @classmethod
    def homogeneous(
        cls, config: WorldConfig, model_kind: ModelKind, reliability: float | None
    ) -> "ReliabilityProfile":
        """Uniform reliability for every fact, floored at each fact's chance rate.

        ``reliability=None`` means chance everywhere; otherwise it must be in [0, 1].
        """
        if reliability is not None and not 0.0 <= reliability <= 1.0:
            raise ValueError(f"reliability must be in [0, 1], got {reliability}")
        floor = 0.0 if reliability is None else reliability
        levels = tuple(max(1.0 / config.pool_size(a), floor) for a in config.attributes)
        return cls._build(config, model_kind, levels, levels)

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
        pools = [config.pool_size(a) for a in config.attributes]
        low = tuple(max(1.0 / pool, p_low) for pool in pools)
        high = tuple(max(1.0 / pool, p_high) for pool in pools)
        return cls._build(config, model_kind, low, high, lambda: rng.random() < frac_high)

    @classmethod
    def _build(cls, config: WorldConfig, model_kind: ModelKind, low, high, flag=None):
        """One table per role of ``model_kind``, drawing ``flag()`` per unit in unit order."""
        units = _role_units(config, model_kind)

        def table() -> ReliabilityTable:
            flags = bytearray(units) if flag is None else bytearray(flag() for _ in range(units))
            return ReliabilityTable(low, high, flags)

        if model_kind is ModelKind.RECURRENT:
            return cls(model_kind, config, facts=table())
        if model_kind is ModelKind.TWO_FUNCTION:
            return cls(model_kind, config, hop1=table(), hop2=table())
        return cls(model_kind, config, memo=table())

    @classmethod
    def trained(
        cls,
        world: World,
        split_set: SplitSet,
        model_kind: ModelKind,
    ) -> "ReliabilityProfile":
        """Mark as learned exactly the facts occurring in the train split.

        Recurrent learns from one-hop facts, which train holds all of, so it
        learns every fact; two-function learns first-hop pairs and second-hop
        pairs only from their in-role occurrences in train two-hop questions;
        independent memorizes the train two-hop questions. A learned fact has
        reliability 1; everything else answers uniformly. Two-function's flags
        are ``TrainIndex``'s; the memo's are the split table's train two-hops.
        """
        cfg = world.config
        levels = (None,) * len(cfg.attributes), (1.0,) * len(cfg.attributes)
        if model_kind is ModelKind.RECURRENT:
            learned = bytearray(b"\x01") * _role_units(cfg, model_kind)
            return cls(model_kind, cfg, facts=ReliabilityTable(*levels, learned))
        if model_kind is ModelKind.INDEPENDENT:
            return cls(model_kind, cfg, memo=ReliabilityTable(*levels, train_two_hops(split_set)))
        index = TrainIndex(world, split_set)
        hop1, hop2 = ReliabilityTable(*levels, index.hop1), ReliabilityTable(*levels, index.hop2)
        return cls(model_kind, cfg, hop1=hop1, hop2=hop2)


def _role_units(config: WorldConfig, model_kind: ModelKind) -> int:
    """Units in one table of the model: facts for composing models, questions for the memo."""
    units = config.n_profiles * len(config.attributes)
    return units * len(config.relations) if model_kind is ModelKind.INDEPENDENT else units


class LossTable:
    """The log-prob and row text of every question one profile answers, built once per run.

    A question's answer depends on its entry ``(r, a)``, the part
    ``rest = key % per_entity`` of its key, and on at most two unit flags,
    so a run needs at most four log-probs per entry. For a key with
    ``q, a = divmod(key, |A|)``, where ``q = e1·(|R|+1) + r``, the flag index
    is ``f = lead[q] + flags[base[q] + a]``:

    - a composing model's two-hop question: twice the flag of its first-hop
      unit ``e1·|A| + r`` plus the flag of its second-hop unit ``e2·|A| + a``;
    - its one-hop question: the flag of unit ``e1·|A| + a``, as its first hop
      is certain;
    - the memo's two-hop question: the flag of its unit; its one-hop question
      is answered at chance whatever the flag.

    ``cells[rest][f]`` is ``(ln q, row head)``: the log of the probability of
    the correct answer, and the loss-log row's text up to the entity of its
    qid (``logs.row_head``). A composing model that misses the first hop
    guesses uniformly over |N| entities, the fallback both inversions
    assume, so ``q = p1·p2 + (1 − p1)/|N|``; a question that needs an
    unlearned unit is answered at chance 1/|V_a|.
    """

    def __init__(self, world: World, profile: ReliabilityProfile, space: KeySpace):
        n_profiles, n_relations, n_attrs = space.n_profiles, space.n_relations, space.n_attributes
        if profile.memo is None:
            first, second = profile.hop1, profile.hop2
            if profile.facts is not None:  # recurrent: one table for both hops
                first = second = profile.facts
            facts = world.facts
            self.base = array(space.typecode, (
                e * n_attrs
                for e1, start in enumerate(range(0, len(facts), n_attrs))
                for e in (*facts[start : start + n_relations], e1)  # a one-hop e2 is e1
            ))
            self.lead = bytearray(
                2 * flag
                for start in range(0, len(first.flags), n_attrs)
                for flag in (*first.flags[start : start + n_relations], 0)
            )
        else:
            first, second = None, profile.memo
            # a one-hop question reads its entity's first memo unit, and ignores it
            self.base = array(space.typecode, (
                (e1 * n_relations + r % n_relations) * n_attrs
                for e1 in range(n_profiles)
                for r in range(n_relations + 1)
            ))
            self.lead = bytearray(len(self.base))
        self.flags, self.space = second.flags, space
        chance, cells = profile.chance, {}

        def cell(kind: str, head: str, a: int, p1: float | None, p2: float | None):
            q = chance[a] if p1 is None or p2 is None else p1 * p2 + (1.0 - p1) / n_profiles
            x = math.log(q)
            text = row_head(kind, x, head)
            return cells.setdefault(text, (x, text))  # one object per distinct row head

        self.cells = []
        for r, a, head, _, kind in space.entries:
            one_hop = r == n_relations
            hop1 = (1.0, 1.0) if first is None or one_hop else (first.low[r], first.high[r])
            hop2 = (None, None) if first is None and one_hop else (second.low[a], second.high[a])
            self.cells.append([cell(kind, head, a, p1, p2) for p1 in hop1 for p2 in hop2])

    def lookup(self, keys) -> Iterator[tuple[int, int, tuple[float, str]]]:
        """``(e1, rest, cells[rest][f])`` of each key, in order."""
        cells, lead, base, flags = self.cells, self.lead, self.base, self.flags
        per_entity, n_attrs = self.space.per_entity, self.space.n_attributes
        for key in keys:
            q, a = divmod(key, n_attrs)
            e1, rest = divmod(key, per_entity)
            yield e1, rest, cells[rest][lead[q] + flags[base[q] + a]]


def loss_records(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
) -> Iterator[tuple[str, str, str, float]]:
    """Yield (qid, split, kind, ln q of the simulated answer) per question, in file order."""
    table, entries = LossTable(world, profile, split_set.space), split_set.space.entries
    for split, keys in split_set.splits():
        for e1, rest, (x, _) in table.lookup(keys):
            _, _, head, tail, kind = entries[rest]
            yield f"{head}{e1}{tail}", split, kind, x


def write_log(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
    path: Path,
    groups: dict[str, LossAccumulator] | None,
) -> int:
    """Write ``loss_records``' rows to ``path``, one ``write`` per row; return the count.

    A row is its table cell's head, ``str(e1)`` and ``logs.row_tail``'s text.
    When ``groups`` is given, each row's logprob also joins the groups of
    ``logs.group_names``, in file order: the keys go in chunks of
    ``estimator.FOLD_ROWS``, and once a chunk's rows are written each group
    folds its logprobs with one ``LossAccumulator.extend``. A row that no
    fold takes (a positive logprob, or a ``two_hop_cot`` row) raises
    EstimatorError once it is written and before the next row is: a split
    whose table may give one goes one row at a time.
    """
    space = split_set.space
    table, entries = LossTable(world, profile, space), space.entries
    names = [str(e1) for e1 in range(world.config.n_profiles)]  # once per entity, not per row
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        write = f.write
        for split, keys in split_set.splits():
            tails = [row_tail(entry.qid_tail, split) for entry in entries]
            routes = [group_names(kind, split) if groups else () for *_, kind in entries]
            buffers = {route: [] for route in routes}  # each route's logprobs, not folded yet
            appends = [buffers[route].append for route in routes]
            foldable = all(
                route is not None and all(x <= 0 for x, _ in cells)
                for route, cells in zip(routes, table.cells)
                if route != ()
            )
            step = FOLD_ROWS if foldable else 1
            for start in range(0, len(keys), step):
                chunk = keys[start : start + step]
                for e1, rest, (x, head) in table.lookup(chunk):
                    write(head + names[e1] + tails[rest])
                    appends[rest](x)
                # only a one-row chunk can hold a row that no fold takes (see step)
                qid_of = lambda _: space.qid(chunk[0])
                for route, buffer in buffers.items():
                    if route is None and buffer:
                        raise refused_cot(qid_of(0))
                    for name in route or ():
                        groups[name].extend(buffer, qid_of)
                    buffer.clear()
            count += len(keys)
    return count


def generate_loss_log(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
) -> list[LossRecord]:
    """One record per QA item with logprob = ln q of the simulated answer."""
    return list(map(LossRecord._make, loss_records(world, profile, split_set)))


def ground_truth_content(world: World, profile: ReliabilityProfile) -> float:
    """Exact content in bits: model-kind entropy minus the loss of every stored unit."""
    cfg = world.config
    n_attrs = len(cfg.attributes)
    loss = 0.0
    for table in (profile.facts, profile.hop1, profile.hop2, profile.memo):
        if table is None:
            continue
        for a, chance in enumerate(profile.chance):
            flags = table.flags[a::n_attrs]
            high = flags.count(1)
            for count, p in ((high, table.high[a]), (len(flags) - high, table.low[a])):
                loss -= count * math.log2(chance if p is None else p)
    return dataset_entropy(cfg, profile.model_kind).total_bits - loss


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
    roles = 2 if model_kind is ModelKind.TWO_FUNCTION else 1
    share = budget_bits / (roles * _role_units(config, model_kind))
    levels = tuple(
        2.0 ** -max(0.0, math.log2(config.pool_size(a)) - share) for a in config.attributes
    )
    return ReliabilityProfile._build(config, model_kind, levels, levels)


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
