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
from functools import cache, partial
from itertools import repeat
from operator import floordiv
from pathlib import Path
from typing import Iterator

from .entropy import SPECS, ModelKind, dataset_entropy
from .estimator import EstimatorError, LossAccumulator, first_hop_group, first_hop_reading
from .generalization import TrainIndex, train_two_hops
from .logs import ROW_GROUPS, LossRecord, group_names, row_head, row_tail
from .worldgen import (_CHUNK_BYTES, KeySpace, QuestionKind, SplitSet, World, WorldConfig, answer_rows,
                       write_blocks)


class ReliabilityTable:
    """One role's reliabilities: two levels per attribute and one flag per unit.

    A unit's attribute index is ``unit % len(low)``; a set flag picks its
    ``high`` level, a clear one its ``low`` level. A level of None marks the
    unit unlearned: a question that needs it is answered at chance.
    """

    __slots__ = ("low", "high", "flags")

    def __init__(self, low: tuple[float | None, ...], high: tuple[float | None, ...],
                 flags: bytearray):
        self.low, self.high, self.flags = low, high, flags

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, unit: int) -> float | None:
        return (self.high if self.flags[unit] else self.low)[unit % len(self.low)]


class ReliabilityProfile:
    """Per-unit retrieval probabilities for one computational model.

    One table per table of its row (``entropy.SPECS``), None for the others:
    ``facts``, ``hop1`` and ``hop2`` hold a unit per fact ``e·|A| + a``, and ``memo``
    one per two-hop question ``(e·|R| + r)·|A| + a``, indices in config order.
    """

    __slots__ = ("model_kind", "config", "facts", "hop1", "hop2", "memo", "chance")

    def __init__(
        self,
        model_kind: ModelKind,
        config: WorldConfig,
        facts: ReliabilityTable | None = None,
        hop1: ReliabilityTable | None = None,
        hop2: ReliabilityTable | None = None,
        memo: ReliabilityTable | None = None,
    ):
        self.model_kind, self.config = model_kind, config
        self.facts, self.hop1, self.hop2, self.memo = facts, hop1, hop2, memo
        # 1/|V_a| per attribute index: the answer to a question at chance
        self.chance = tuple(1.0 / pool for pool in config.pools)

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
        levels = tuple(max(1.0 / pool, floor) for pool in config.pools)
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
        low = tuple(max(1.0 / pool, p_low) for pool in config.pools)
        high = tuple(max(1.0 / pool, p_high) for pool in config.pools)
        return cls._build(config, model_kind, low, high,
                          lambda _, units: bytearray(rng.random() < frac_high for _ in range(units)))

    @classmethod
    def _build(cls, config: WorldConfig, model_kind: ModelKind, low, high, flags=None):
        """One table per table of ``model_kind``'s row, in its order, its flags ``flags(name, units)``."""
        facts = config.n_profiles * len(config.attributes)
        flags = flags or (lambda _, units: bytearray(units))  # none set
        return cls(model_kind, config, **{name: ReliabilityTable(low, high, flags(name, passes * facts))
                                          for name, passes in SPECS[model_kind].tables(config).items()})

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
        index = cache(partial(TrainIndex, world, split_set))  # built only for a model with hop tables
        learned = {"facts": lambda units: bytearray(b"\x01") * units,
                   "hop1": lambda _: index().hop1, "hop2": lambda _: index().hop2,
                   "memo": lambda _: train_two_hops(split_set)}
        levels = (None,) * len(cfg.attributes), (1.0,) * len(cfg.attributes)
        return cls._build(cfg, model_kind, *levels, lambda name, units: learned[name](units))


# A question's code is lead + flag (0 to 3), plus 4 when the dataset lacks it (split code 0)
_ABSENT = bytes([4]) + bytes(255)
# A first-hop flag, 0 or 1, as its row's lead, 0 or 2
_LEAD = bytes([0, 2]) + bytes(254)


class LossTable:
    """The log-prob and row text of every question one profile answers, built once per run.

    A question's answer depends on its entry ``(r, a)``, the part
    ``rest = key % per_entity`` of its key, and on at most two unit flags,
    so a run needs at most four log-probs per entry. For a key with
    ``q, a = divmod(key, |A|)``, where ``q = e1·(|R|+1) + r``, the flag index
    is ``f = lead[q] + flags[base[q] + a]`` (a composing model's ``base`` is
    ``worldgen.answer_rows``; each table is built a relation column at a time):

    - a composing model's two-hop question: twice the flag of its first-hop
      unit ``e1·|A| + r`` plus the flag of its second-hop unit ``e2·|A| + a``;
    - its one-hop question: the flag of unit ``e1·|A| + a``, as its first hop
      is certain;
    - the memo's two-hop question: the flag of its unit; its one-hop question
      is answered at chance whatever the flag.

    A key's cell is ``4·rest + f`` (``cells_of``). ``heads[cell]`` is its row's
    text up to its qid's entity (``logs.row_head``), and ``cells[cell]`` its place
    in ``values``, which holds ``(ln q, kind)`` once per distinct head: the log of
    the probability of the correct answer, and the kind. A composing model that
    misses the first hop guesses uniformly over |N| entities, the fallback
    the first-hop reading assumes, so ``q = p1·p2 + (1 − p1)/|N|``; a question
    that needs an unlearned unit is answered at chance 1/|V_a|. A cell with
    ``ln q > 0`` raises EstimatorError naming its entry (``2h:E1:R:A``).
    """

    def __init__(self, world: World, profile: ReliabilityProfile, space: KeySpace):
        n_profiles, n_relations, n_attrs = space.n_profiles, space.n_relations, space.n_attributes
        hops = n_relations + 1
        self.lead = bytearray(n_profiles * hops)  # a one-hop row's first hop is certain: lead 0
        first, second = (getattr(profile, name) if name else None for name in SPECS[profile.model_kind].hops)
        if first is not None:
            self.base = answer_rows(world)
            for r in range(n_relations):
                self.lead[r::hops] = first.flags[r::n_attrs].translate(_LEAD)
        else:
            # row (e1, r)'s units start at (e1·|R| + r)·|A|; a one-hop row reads e1's first, unused
            memo_row = n_relations * n_attrs
            self.base = array(space.typecode, [0]) * (n_profiles * hops)
            for r in range(hops):
                start = r % n_relations * n_attrs
                self.base[r::hops] = array(space.typecode, range(start, n_profiles * memo_row, memo_row))
        self.flags, self.space = second.flags, space
        chance, places, self.values = profile.chance, {}, []

        def cell(kind: str, head: str, tail: str, a: int, p1: float | None, p2: float | None):
            q = chance[a] if p1 is None or p2 is None else p1 * p2 + (1.0 - p1) / n_profiles
            x = math.log(q)
            if x > 0:  # q <= 1 for levels in [0, 1], so only a faulty profile gets here
                raise EstimatorError(f"positive logprob for {head}E1{tail}: {x}")
            text = row_head(kind, x, head)
            if text not in places:  # one object per distinct row head
                places[text] = text, len(self.values)
                self.values.append((x, kind))
            return places[text]

        pairs = []  # each cell's row head and place in values
        for r, a, head, tail, kind in space.entries:
            one_hop = r == n_relations
            hop1 = (1.0, 1.0) if first is None or one_hop else (first.low[r], first.high[r])
            hop2 = (None, None) if first is None and one_hop else (second.low[a], second.high[a])
            pairs += [cell(kind, head, tail, a, p1, p2) for p1 in hop1 for p2 in hop2]
        self.heads, self.cells = zip(*pairs)

    def cells_of(self, keys) -> list[int]:
        """Each key's cell, ``4·rest + f``, in order."""
        lead, base, flags = self.lead, self.base, self.flags
        per_entity, n_attrs = self.space.per_entity, self.space.n_attributes
        return [4 * (key % per_entity) + lead[q := key // n_attrs] + flags[base[q] + key % n_attrs]
                for key in keys]

    def first_hop_readings(self, split_set: SplitSet) -> Iterator[float]:
        """Each unit (e1, r)'s least ``first_hop_reading`` over its rows, r by r.

        Its rows are its questions (e1, r, a) with a relation a that the split
        table holds. Such a question's cell is ``4·rest + code``, with ``code =
        lead[q] + flags[base[q] + a]``, and the one-hop question (e2, a) of its
        second hop has cell ``4·rest' + code % 2`` (a memo's one-hop answer is
        at chance whatever its flag): (r, a) reads one value per code. Per r,
        each a is a column of the units' readings, inf where the question is
        absent, and a unit's least is the least of its row across the columns.
        """
        space, n = self.space, self.space.n_profiles
        n_relations, n_attrs = space.n_relations, space.n_attributes
        x = [self.values[place][0] for place in self.cells]  # each cell's logprob
        for r in range(n_relations):
            leads = int.from_bytes(self.lead[r :: n_relations + 1], "big")
            rows = list(map(floordiv, self.base[r :: n_relations + 1], repeat(n_attrs)))  # of flags[a::|A|]
            columns = []
            for a in range(n_relations):
                flags = bytes(map(self.flags[a::n_attrs].__getitem__, rows))
                absent = split_set.table[r * n_attrs + a :: space.per_entity].translate(_ABSENT)
                codes = leads | int.from_bytes(flags, "big") | int.from_bytes(absent, "big")
                values = [first_hop_reading(x[4 * (r * n_attrs + a) + code],
                                            x[4 * (n_relations * n_attrs + a) + code % 2], n)
                          for code in range(4)] + [math.inf] * 4
                columns.append(map(values.__getitem__, codes.to_bytes(n, "big")))
            yield from map(min, repeat(math.inf), *columns)


def loss_records(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
) -> Iterator[tuple[str, str, str, float]]:
    """Yield (qid, split, kind, ln q of the simulated answer) per question, in file order."""
    table, space = LossTable(world, profile, split_set.space), split_set.space
    for split, keys in split_set.splits():
        for key, cell in zip(keys, table.cells_of(keys)):
            _, _, head, tail, kind = space.entries[cell // 4]
            x, _ = table.values[table.cells[cell]]
            yield f"{head}{key // space.per_entity}{tail}", split, kind, x


def write_log(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
    path: Path,
) -> tuple[str, dict[str, LossAccumulator] | None]:
    """Write ``loss_records``' rows to ``path`` a block at a time; return the log's sha256 and groups.

    A row is its cell's head (``LossTable.heads``), ``str(e1)`` and
    ``logs.row_tail``'s text; a block is a split's next rows, as many as fit
    in ``_CHUNK_BYTES`` at the longest of each, written and hashed by
    ``worldgen.write_blocks``, so the hash needs no second read of the log.
    The groups are ``logs.ROW_GROUPS`` holding every row, and ``hop1`` from
    the table's ``first_hop_readings``; or None for a chain-of-thought
    space, whose losses no estimator reads. Each split's rows are counted
    per value of the table, and once the split is written each value that
    holds rows is added to the groups of ``logs.group_names`` with its
    count. A profile with a positive cell is refused by ``LossTable``
    before the file is opened.
    """
    space = split_set.space
    table, per_entity = LossTable(world, profile, space), space.per_entity
    cot = space.two_hop_kind is QuestionKind.TWO_HOP_COT
    groups = None if cot else {name: LossAccumulator() for name in ROW_GROUPS}
    names = [str(e1) for e1 in range(world.config.n_profiles)]  # once per entity, not per row
    heads, places = table.heads, table.cells

    def blocks() -> Iterator[bytes]:
        for split, keys in split_set.splits():
            tails = [tail for entry in space.entries for tail in [row_tail(entry.qid_tail, split)] * 4]
            widest = max(map(len, heads)) + len(names[-1]) + max(map(len, tails))
            rows = [0] * len(table.values)  # the split's rows per value
            for start in range(0, len(keys), per_block := max(1, _CHUNK_BYTES // widest)):
                block = keys[start : start + per_block]
                cells = table.cells_of(block)
                yield "".join([f"{heads[cell]}{names[key // per_entity]}{tails[cell]}"
                               for key, cell in zip(block, cells)]).encode("utf-8")
                for cell in cells:
                    rows[places[cell]] += 1
            for (x, kind), n in zip(table.values, rows) if groups is not None else ():
                for name in group_names(kind, split) if n else ():
                    groups[name].add(x, n)

    log_sha256 = write_blocks(path, blocks())
    if groups is not None:
        groups["hop1"] = first_hop_group(table.first_hop_readings(split_set), space.n_profiles)
    return log_sha256, groups


def generate_loss_log(
    world: World,
    profile: ReliabilityProfile,
    split_set: SplitSet,
) -> list[LossRecord]:
    """One record per QA item with logprob = ln q of the simulated answer."""
    return list(map(LossRecord._make, loss_records(world, profile, split_set)))


def ground_truth_content(world: World, profile: ReliabilityProfile) -> float:
    """Exact content in bits: model-kind entropy minus the loss of every unit that questions read.

    That is every stored unit but a two-function first hop to a property, which counts at chance.
    """
    cfg, spec = world.config, SPECS[profile.model_kind]
    n_attrs = len(cfg.attributes)
    loss = 0.0
    for name in spec.tables(cfg):
        table = getattr(profile, name)
        for a, chance in enumerate(profile.chance):
            flags = table.flags[a::n_attrs]
            high = flags.count(1)
            unread = name == spec.own_first_hop and a >= len(cfg.relations)
            for count, p in ((high, table.high[a]), (len(flags) - high, table.low[a])):
                loss -= count * math.log2(chance if p is None or unread else p)
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
    # the stored units: one per (entity, attribute) in each of the entropy's fact passes
    units = SPECS[model_kind].passes(config) * config.n_profiles * len(config.attributes)
    share = budget_bits / units
    levels = tuple(2.0 ** -max(0.0, math.log2(pool) - share) for pool in config.pools)
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
