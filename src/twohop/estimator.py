"""Loss aggregation and information-content lower bounds.

Observed two-hop losses are converted to per-hop "effective losses" by
inverting the composition mixture q = p1*p2 + (1-p1)/n, either for a single
reused fact function (recurrent) or for a pair of hop functions with a
shared budget (two-function). Both closed forms are validated against
independent numerical oracles in the test suite.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, NamedTuple

from .entropy import LN2, ModelKind, dataset_entropy, task_name
from .worldgen import WorldConfig


class EstimatorError(ValueError):
    pass


class AggregateLoss(NamedTuple):
    """Mean/variance/count summary of per-question losses, in nats."""

    mean_loss_nats: float
    var_loss_nats: float
    count: int

    @property
    def mean_loss_bits(self) -> float:
        return self.mean_loss_nats / LN2


# Every finite double is an integer multiple of 2**-1074, the least subnormal
_SCALE = 1074


class LossAccumulator:
    """Exact count, sum and sum of squares of loss = -logprob over the records added.

    ``total`` is Σ loss · 2**1074 and ``squares`` Σ loss² · 2**2148, both
    Python ints, so they hold every finite double exactly. ``result()``
    rounds the mean and the variance once, so the records give the same
    bits in any order.
    """

    __slots__ = ("count", "total", "squares")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.squares = 0

    def add(self, logprob: float, count: int = 1) -> None:
        """Add ``count`` records of the finite ``logprob``."""
        # logprob is num / 2**k with k <= 1074, so the shifts are exact
        num, den = logprob.as_integer_ratio()
        shift = _SCALE + 1 - den.bit_length()
        self.count += count
        self.total -= count * num << shift
        self.squares += count * num * num << 2 * shift

    def result(self) -> AggregateLoss:
        """The mean and variance, each one correctly rounded int/int division."""
        n = self.count
        if n == 0:
            raise EstimatorError("no records match the selection")
        try:
            mean = self.total / (n << _SCALE)
            var = (n * self.squares - self.total * self.total) / (n * n << 2 * _SCALE)
        except OverflowError:
            raise EstimatorError("its loss mean or variance is too large for a float") from None
        return AggregateLoss(mean, var, n)


def refused_positive(qid: str, logprob: float) -> EstimatorError:
    return EstimatorError(f"positive logprob for {qid}: {logprob}")


def aggregate_losses(records: Iterable) -> AggregateLoss:
    """Exact mean/variance of loss = -logprob over every ``(qid, split, kind, logprob_nats)`` record.

    The first positive logprob raises EstimatorError naming its record.
    """
    acc = LossAccumulator()
    for qid, _, _, x in records:
        if x > 0:
            raise refused_positive(qid, x)
        acc.add(x)
    return acc.result()


class Branch(str, Enum):
    ABOVE_THRESHOLD = "above_threshold"
    BELOW_THRESHOLD = "below_threshold"
    CLAMPED = "clamped"


class EffectiveLoss(NamedTuple):
    """Per-hop (recurrent) or summed (two-function) loss imputed from two-hop loss."""

    per_hop_loss_nats: float | None
    summed_loss_nats: float | None
    branch: Branch
    u: float
    q_tilde: float


def _q_tilde(mean_loss_nats: float, var_loss_nats: float, n: int) -> tuple[float, bool]:
    """Two-hop probability exp(-mean) * (1 + Var/2), clamped to [1/n, 1]."""
    if mean_loss_nats < -1e-12:
        raise EstimatorError("mean loss must be >= 0")
    mean_loss_nats = max(0.0, mean_loss_nats)
    if var_loss_nats < 0:
        raise EstimatorError("loss variance must be >= 0")
    q = math.exp(-mean_loss_nats) * (1.0 + var_loss_nats / 2.0)
    clamped = not (1.0 / n <= q <= 1.0)
    return min(1.0, max(1.0 / n, q)), clamped


def two_function_threshold(n: int) -> float:
    """Two-hop probability at which both hop budgets hit their bounds: 2/n - 1/n^2."""
    return 2.0 / n - 1.0 / (n * n)


def effective_loss_recurrent(mean_loss_nats: float, n: int) -> EffectiveLoss:
    """Invert q = u^2 + (1-u)/n for the per-hop probability of a reused fact map.

    Takes the root that maps q=1 to u=1 and fixes the chance level q=1/n at
    u=1/n. q is exp(-mean) with no variance factor: only the two-function
    inversion applies one.
    """
    if n < 2:
        raise EstimatorError("n must be >= 2")
    q, clamped = _q_tilde(mean_loss_nats, 0.0, n)
    disc = 1.0 - 4.0 * n * (1.0 - n * q)
    u = (1.0 + math.sqrt(disc)) / (2.0 * n)
    u = min(1.0, max(1.0 / n, u))
    branch = Branch.CLAMPED if clamped else (
        Branch.ABOVE_THRESHOLD if q > two_function_threshold(n) else Branch.BELOW_THRESHOLD
    )
    # 0.0 - log(1.0) is 0.0 where -log(1.0) is -0.0
    return EffectiveLoss(
        per_hop_loss_nats=0.0 - math.log(u),
        summed_loss_nats=None,
        branch=branch,
        u=u,
        q_tilde=q,
    )


def effective_loss_two_function(
    mean_loss_nats: float,
    var_loss_nats: float = 0.0,
    n: int = 2,
) -> EffectiveLoss:
    """Summed hop loss for a pair of hop functions with a shared budget.

    The conservative feasible split minimizes the joint hop probability:
    above the threshold q* = 2/n - 1/n^2 the second hop saturates at 1,
    below it the first hop is pinned at the chance floor 1/n. q carries the
    second-order factor (1 + Var/2).
    """
    if n < 2:
        raise EstimatorError("n must be >= 2")
    q, clamped = _q_tilde(mean_loss_nats, var_loss_nats, n)
    inv_n = 1.0 / n
    if q > two_function_threshold(n):
        p1 = (q - inv_n) / (1.0 - inv_n)
        p2 = 1.0
        branch = Branch.ABOVE_THRESHOLD
    else:
        p1 = inv_n
        p2 = (q - inv_n * (1.0 - inv_n)) / p1
        branch = Branch.BELOW_THRESHOLD
    if clamped:
        branch = Branch.CLAMPED
    product = p1 * p2
    return EffectiveLoss(
        per_hop_loss_nats=None,
        summed_loss_nats=0.0 - math.log(product),
        branch=branch,
        u=math.sqrt(product),
        q_tilde=q,
    )


class ContentEstimate(NamedTuple):
    entropy_bits: float
    total_loss_bits: float
    content_bits: float
    model_kind: ModelKind | None
    fact_count: int
    branch: Branch | None = None

    def to_dict(self) -> dict:
        return {
            "entropy_bits": self.entropy_bits,
            "total_loss_bits": self.total_loss_bits,
            "content_bits": self.content_bits,
            "task": task_name(self.model_kind),
            "model_kind": self.model_kind.value if self.model_kind else None,
            "fact_count": self.fact_count,
            "branch": self.branch.value if self.branch else None,
        }


def content_estimate(
    config: WorldConfig, model_kind: ModelKind | None, aggregate: AggregateLoss
) -> ContentEstimate:
    """Lower-bound content: dataset entropy minus total (effective) loss in bits.

    ``aggregate`` summarizes the one-hop losses when ``model_kind`` is None,
    the two-hop losses otherwise.
    """
    n = config.n_profiles
    if model_kind in (ModelKind.RECURRENT, ModelKind.TWO_FUNCTION) and n < 2:
        raise EstimatorError(f"the recurrent and two-function inversions need at least 2 "
                             f"profiles; the dataset has {n}")
    fact_count = n * len(config.attributes)
    branch = None
    if model_kind is ModelKind.RECURRENT:
        eff = effective_loss_recurrent(aggregate.mean_loss_nats, n)
        loss_bits = fact_count * eff.per_hop_loss_nats / LN2
        branch = eff.branch
    elif model_kind is ModelKind.TWO_FUNCTION:
        eff = effective_loss_two_function(aggregate.mean_loss_nats, aggregate.var_loss_nats, n)
        loss_bits = fact_count * eff.summed_loss_nats / LN2
        branch = eff.branch
    else:
        if model_kind is ModelKind.INDEPENDENT:  # one unit per two-hop question
            fact_count *= len(config.relations)
        loss_bits = fact_count * aggregate.mean_loss_bits
    entropy_bits = dataset_entropy(config, model_kind).total_bits
    return ContentEstimate(
        entropy_bits=entropy_bits,
        total_loss_bits=loss_bits,
        content_bits=entropy_bits - loss_bits,
        model_kind=model_kind,
        fact_count=fact_count,
        branch=branch,
    )


def bits_per_parameter(content_bits: float, param_count: int) -> float:
    """Information content per parameter; the reference capacity line is 2."""
    if param_count <= 0:
        raise EstimatorError("parameter count must be positive")
    return content_bits / param_count
