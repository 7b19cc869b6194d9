"""Loss aggregation and information-content lower bounds, one stored unit at a time.

A fact unit is read off its one-hop question and a memo unit off its
two-hop question; a two-function first hop (e1, r) inverts its two-hop
answers q = u1·u2 + (1 − u1)/n, a search oracle in the tests checks how.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple

from .entropy import LN2, SPECS, ModelKind, attribute_entropy, dataset_entropy, task_name
from .worldgen import WorldConfig


class EstimatorError(ValueError):
    pass


class AggregateLoss(NamedTuple):
    """Mean/count summary of per-question losses, in nats."""

    mean_loss_nats: float
    count: int

    @property
    def mean_loss_bits(self) -> float:
        return self.mean_loss_nats / LN2


# Every finite double is an integer multiple of 2**-1074, the least subnormal
_SCALE = 1074


class LossAccumulator:
    """Exact count and sum of loss = -logprob over the records added.

    ``total`` is Σ loss · 2**1074, a Python int, so it holds every finite
    double exactly. ``result()`` rounds the mean once, so the records give
    the same bits in any order.
    """

    __slots__ = ("count", "total")

    def __init__(self):
        self.count = 0
        self.total = 0

    def add(self, logprob: float, count: int = 1) -> None:
        """Add ``count`` records of the finite ``logprob``."""
        # logprob is num / 2**k with k <= 1074, so the shift is exact
        num, den = logprob.as_integer_ratio()
        shift = _SCALE + 1 - den.bit_length()
        self.count += count
        self.total -= count * num << shift

    def result(self) -> AggregateLoss:
        """The mean, one correctly rounded int/int division: finite, as the records are."""
        if self.count == 0:
            raise EstimatorError("no records match the selection")
        return AggregateLoss(self.total / (self.count << _SCALE), self.count)


def aggregate_losses(records: Iterable) -> AggregateLoss:
    """Exact mean of loss = -logprob over every ``(qid, split, kind, logprob_nats)`` record.

    The first positive logprob raises EstimatorError naming its record.
    """
    acc = LossAccumulator()
    for qid, _, _, x in records:
        if x > 0:
            raise EstimatorError(f"positive logprob for {qid}: {x}")
        acc.add(x)
    return acc.result()


def first_hop_reading(x_two_hop: float, x_one_hop: float, n: int) -> float:
    """The first-hop reliability that one two-hop answer shows, or inf when it shows none.

    ``x_two_hop`` is the logprob of a two-hop question (e1, r, a) with a
    relation a, and ``x_one_hop`` that of the one-hop question (e2, a) of
    its second hop. With q and u2 their exps, it inverts q = u1·u2 + (1 −
    u1)/n: u1 = (q − 1/n) / (u2 − 1/n). An exp is off its probability by at
    most (16 + 4·|logprob|)·2**-53, relative: a few roundings of the
    probability, about |logprob| of its log, one of the exp. q is taken at
    its low end and u2 at its high end, so the reading is at most u1; a u2
    whose low end is at chance 1/n (exp(log(1/n)) may round above it) shows nothing.
    """
    q_low, u2_low, u2_high = (math.exp(x) * (1.0 + side * (8.0 + 2.0 * abs(x)) * 2.0**-52)
                              for x, side in ((x_two_hop, -1), (x_one_hop, -1), (x_one_hop, 1)))
    if u2_low <= 1.0 / n:
        return math.inf
    return (q_low - 1.0 / n) / (u2_high - 1.0 / n)


def first_hop_group(readings: Iterable[float], n: int) -> LossAccumulator:
    """One group of first-hop unit losses: −ln of each unit's least reading, in any order.

    A least ``first_hop_reading`` is clamped to [1/n, 1]; inf, where no
    question shows the unit, is chance 1/n.
    """
    acc = LossAccumulator()
    for u, count in Counter(readings).items():
        acc.add(math.log(1.0 / n if u == math.inf else min(1.0, max(1.0 / n, u))), count)
    return acc


class ContentEstimate(NamedTuple):
    entropy_bits: float
    total_loss_bits: float
    content_bits: float
    model_kind: ModelKind | None
    fact_count: int

    def to_dict(self) -> dict:
        return {**self._asdict(), "task": task_name(self.model_kind),
                "model_kind": self.model_kind.value if self.model_kind else None}


def content_estimate(
    config: WorldConfig,
    model_kind: ModelKind | None,
    aggregate: AggregateLoss,
    hop1: AggregateLoss | None = None,
) -> ContentEstimate:
    """Lower-bound content: the model's entropy minus the loss of every unit it stores, in bits.

    ``aggregate`` is the loss of the row's ``reads`` group (``entropy.SPECS``),
    whose questions read one second-hop unit each, and ``hop1`` the
    ``first_hop_group`` of the units (e1, r) of its ``own_first_hop`` table,
    if any; a first hop to a property, which no question reads, counts at
    chance. ``fact_count`` is the number of units stored. A two-hop
    ``aggregate`` of fewer questions than units (no train two-hops), or no
    ``hop1`` for a row that reads one, raises EstimatorError.
    """
    spec, n = SPECS[model_kind], config.n_profiles
    reads = spec.tables(config)[spec.hops[1]] * n * len(config.attributes)
    if spec.reads == "two_hop" and aggregate.count < reads:  # one unit per two-hop question
        raise EstimatorError(f"the {model_kind.value} estimate reads every {spec.hops[1]} unit's two-hop "
                             f"question: {aggregate.count} of {reads} are in the log")
    loss_bits = reads * aggregate.mean_loss_bits
    if spec.own_first_hop:
        if hop1 is None:
            raise EstimatorError(f"the {model_kind.value} estimate reads the hop1 group: none was given")
        unread = sum(map(attribute_entropy, config.pools[len(config.relations):]))
        loss_bits += n * len(config.relations) * hop1.mean_loss_bits + n * unread
    entropy = dataset_entropy(config, model_kind)
    return ContentEstimate(
        entropy_bits=entropy.total_bits,
        total_loss_bits=loss_bits,
        content_bits=entropy.total_bits - loss_bits,
        model_kind=model_kind,
        fact_count=entropy.multiplier * n * len(config.attributes),
    )


def bits_per_parameter(content_bits: float, param_count: int) -> float:
    """Information content per parameter; the reference capacity line is 2."""
    if param_count <= 0:
        raise EstimatorError("parameter count must be positive")
    return content_bits / param_count
