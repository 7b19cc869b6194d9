"""Closed-form dataset entropies and uniform-guessing baselines.

A dataset's entropy is the number of bits needed to encode it given the
generation scheme: selecting the names plus the passes over all attribute
values per entity that the model's tables hold (``SPECS``): one under
recurrent composition, two under two-function composition, and |R| under
independent memorization.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import NamedTuple

from .worldgen import WorldConfig

LN2 = math.log(2.0)

# Above this occupancy of the name space, n*log2(n0) noticeably overstates
# the exact log2 C(n0, n) selection entropy.
NAME_APPROX_OCCUPANCY = 1e-3


class ModelKind(str, Enum):
    """How a model answers two-hop questions; None in its place is the one-hop task."""

    RECURRENT = "recurrent"
    TWO_FUNCTION = "2f"
    INDEPENDENT = "independent"


class ModelSpec(NamedTuple):
    """A model's row: the tables its two hops read, and the ``PresenceFlags`` attribute it ``needs``.

    A first hop of None is no lookup. One-hop questions read the second
    hop's table, but the memo, one unit per two-hop question, answers them at chance.
    """

    hops: tuple[str | None, str]
    needs: str

    def tables(self, config: WorldConfig) -> dict[str, int]:
        """Each stored table, in draw order, and the passes over all facts it holds: |R| for the memo."""
        return {name: len(config.relations) if name == "memo" else 1 for name in self.hops if name}

    def passes(self, config: WorldConfig) -> int:
        """The passes over all facts that the stored tables hold: the entropy's multiplier."""
        return sum(self.tables(config).values())

    @property
    def own_first_hop(self) -> str | None:
        """A first-hop table that no one-hop question reads, or None; no question reads its properties."""
        return self.hops[0] if self.hops[0] != self.hops[1] else None

    @property
    def reads(self) -> str:
        """The group of questions that read one second-hop unit each."""
        return "two_hop" if self.hops[1] == "memo" else "one_hop"


SPECS = {
    None: ModelSpec(hops=(None, "facts"), needs="facts_one_hop_present"),
    ModelKind.RECURRENT: ModelSpec(hops=("facts", "facts"), needs="facts_one_hop_present"),
    ModelKind.TWO_FUNCTION: ModelSpec(hops=("hop1", "hop2"), needs="both_pairs_present"),
    ModelKind.INDEPENDENT: ModelSpec(hops=(None, "memo"), needs="full_question_present"),
}


def task_name(model_kind: ModelKind | None) -> str:
    """The task a model argument selects, as outputs print it."""
    return "one-hop" if model_kind is None else "two-hop"


class NameEntropyApproximationWarning(UserWarning):
    pass


class EntropyReport(NamedTuple):
    name_bits: float
    fact_bits_per_pass: float
    multiplier: int
    total_bits: float
    model_kind: ModelKind | None

    def to_dict(self) -> dict:
        return {
            "name_bits": self.name_bits,
            "fact_bits_per_pass": self.fact_bits_per_pass,
            "multiplier": self.multiplier,
            "total_bits": self.total_bits,
            "task": task_name(self.model_kind),
            "model_kind": self.model_kind.value if self.model_kind else None,
        }


def name_selection_entropy(n: int, n0: int) -> float:
    """The name term for n names drawn without replacement from a pool of n0: n*log2(n0) bits.

    This is log2 of the ordered draws, n0**n, not of the sets of names,
    log2 C(n0, n). It exceeds the latter by log2 n! plus
    log2(n0**n / (n0*(n0-1)*...*(n0-n+1))) >= 0, so by at least log2 n! at
    every occupancy, however small (log2 400! = 2,886 bits). When the
    occupancy n/n0 exceeds 1e-3 a warning reports the overstatement against
    the exact binomial value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > n0:
        raise ValueError(f"cannot select {n} names from a pool of {n0}")
    bits = n * math.log2(n0)
    if n / n0 > NAME_APPROX_OCCUPANCY:
        exact = exact_name_selection_entropy(n, n0)
        warnings.warn(
            f"n*log2(n0) = {bits:.6f} bits overstates the exact selection "
            f"entropy {exact:.6f} by {bits - exact:.6f} bits (n/n0 = {n / n0:.3g})",
            NameEntropyApproximationWarning,
            stacklevel=2,
        )
    return bits


def exact_name_selection_entropy(n: int, n0: int) -> float:
    """Exact log2 C(n0, n) via log-gamma."""
    if not 1 <= n <= n0:
        raise ValueError("need 1 <= n <= n0")
    return (math.lgamma(n0 + 1) - math.lgamma(n + 1) - math.lgamma(n0 - n + 1)) / LN2


def attribute_entropy(value_pool_size: int) -> float:
    """Bits of a single attribute answer: log2 of its value-pool size."""
    if value_pool_size < 1:
        raise ValueError("value pool size must be >= 1")
    return math.log2(value_pool_size)


def _fact_bits_per_pass(config: WorldConfig) -> float:
    per_entity = sum(attribute_entropy(pool) for pool in config.pools)
    return config.n_profiles * per_entity


def dataset_entropy(config: WorldConfig, model_kind: ModelKind | None) -> EntropyReport:
    """Total dataset entropy: name selection plus the model's passes over facts.

    ``model_kind`` None is the one-hop dataset, one pass over facts.
    """
    name_bits = name_selection_entropy(config.n_profiles, config.name_space_size)
    fact_bits = _fact_bits_per_pass(config)
    multiplier = SPECS[model_kind].passes(config)
    return EntropyReport(
        name_bits=name_bits,
        fact_bits_per_pass=fact_bits,
        multiplier=multiplier,
        total_bits=name_bits + multiplier * fact_bits,
        model_kind=model_kind,
    )


def uniform_guess_loss_bits(config: WorldConfig, model_kind: ModelKind | None) -> float:
    """Total loss of guessing uniformly over each answer pool, in bits.

    Summed over the same fact passes the matching entropy counts: one pass
    of per-fact losses log2 |V_a|, times the model's multiplier.
    """
    return SPECS[model_kind].passes(config) * _fact_bits_per_pass(config)


def baseline_content(config: WorldConfig, model_kind: ModelKind | None) -> float:
    """Information content at uniform-guessing loss: entropy minus uniform loss.

    The fact terms cancel analytically, leaving the name-selection entropy;
    the value is still computed as the difference.
    """
    report = dataset_entropy(config, model_kind)
    return report.total_bits - uniform_guess_loss_bits(config, model_kind)
