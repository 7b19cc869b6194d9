import math

import pytest
from oracles import presence_flags, unpack

from twohop.entropy import LN2, ModelKind
from twohop.estimator import aggregate_losses
from twohop.generalization import (
    EvaluationError,
    GeneralizationSignature,
    PresenceFlags,
    TrainIndex,
    classify_algorithm,
    evaluate_holdouts,
    predict_generalization,
    uniform_baselines,
)
from twohop.logs import LossRecord
from twohop.worldgen import HOLDOUT_KINDS, build_splits


def _flags(pairs: bool, full: bool) -> PresenceFlags:
    return PresenceFlags(
        facts_one_hop_present=True,
        first_hop_pair_present=pairs,
        second_hop_pair_present=pairs,
        full_question_present=full,
    )


class TestPrediction:
    @pytest.mark.parametrize(
        "kind,pairs,full,expected",
        [
            (ModelKind.INDEPENDENT, True, True, True),
            (ModelKind.INDEPENDENT, True, False, False),
            (ModelKind.INDEPENDENT, False, False, False),
            (ModelKind.TWO_FUNCTION, True, True, True),
            (ModelKind.TWO_FUNCTION, True, False, True),
            (ModelKind.TWO_FUNCTION, False, False, False),
            (ModelKind.RECURRENT, True, True, True),
            (ModelKind.RECURRENT, True, False, True),
            (ModelKind.RECURRENT, False, False, True),
        ],
    )
    def test_table(self, kind, pairs, full, expected):
        assert predict_generalization(kind, _flags(pairs, full)) is expected

    def test_two_function_needs_both_pairs(self):
        for first, second in [(True, False), (False, True), (False, False)]:
            flags = PresenceFlags(True, first, second, False)
            assert predict_generalization(ModelKind.TWO_FUNCTION, flags) is False


@pytest.fixture(scope="module")
def setup(micro_world):
    fractions = {"heldout_full": 0.02, "heldout_e1r": 0.02}
    ss = build_splits(micro_world, fractions, mix_ratio=10, seed=8)
    return ss, TrainIndex(micro_world, ss)


def _two_hop_questions(split_set, keys):
    """(e1, r, a) of each two-hop key, with r and a as names."""
    space = split_set.space
    for key in keys:
        e1, r, a = unpack(space, key)
        if r < space.n_relations:
            yield e1, space.relations[r], space.attributes[a]


class TestPresenceScan:
    def test_train_items_fully_present(self, setup):
        ss, index = setup
        for e1, r, a in _two_hop_questions(ss, ss.train[:200]):
            flags = presence_flags(index, e1, r, a)
            assert flags.full_question_present
            assert flags.both_pairs_present
            assert flags.facts_one_hop_present

    def test_full_holdout_lacks_exact_question(self, setup):
        ss, index = setup
        for e1, r, a in _two_hop_questions(ss, ss.heldout["heldout_full"]):
            flags = presence_flags(index, e1, r, a)
            assert not flags.full_question_present
            assert flags.facts_one_hop_present  # one-hop facts are never excluded

    def test_pair_holdout_lacks_first_pair(self, setup):
        ss, index = setup
        for e1, r, a in _two_hop_questions(ss, ss.heldout["heldout_e1r"]):
            flags = presence_flags(index, e1, r, a)
            assert not flags.first_hop_pair_present
            assert not flags.full_question_present

    def test_unknown_entity_rejected(self, setup):
        _, index = setup
        with pytest.raises(EvaluationError):
            presence_flags(index, 10**6, "mother", "birth city")


def _agg(mean_bits: float):
    return aggregate_losses([LossRecord("q", "s", "two_hop", -mean_bits * LN2)])


class TestEvaluation:
    def test_zero_delta_at_baseline(self):
        baselines = {k: 9.0 for k in HOLDOUT_KINDS}
        aggregates = {k: _agg(9.0) for k in HOLDOUT_KINDS}
        sig = evaluate_holdouts(aggregates, baselines)
        assert all(not v for v in sig.generalizes.values())
        assert all(abs(d) < 1e-12 for d in sig.deltas.values())
        assert classify_algorithm(sig) is ModelKind.INDEPENDENT

    def test_full_only_signature(self):
        baselines = {k: 9.0 for k in HOLDOUT_KINDS}
        aggregates = {k: _agg(9.0) for k in HOLDOUT_KINDS}
        aggregates["heldout_full"] = _agg(0.0)
        sig = evaluate_holdouts(aggregates, baselines)
        assert sig.generalizes == {k: k == "heldout_full" for k in HOLDOUT_KINDS}
        assert sig.deltas["heldout_full"] == pytest.approx(9.0)
        assert classify_algorithm(sig) is ModelKind.TWO_FUNCTION

    def test_all_generalize(self):
        baselines = {k: 9.0 for k in HOLDOUT_KINDS}
        aggregates = {k: _agg(1.0) for k in HOLDOUT_KINDS}
        sig = evaluate_holdouts(aggregates, baselines)
        assert classify_algorithm(sig) is ModelKind.RECURRENT

    def test_rounding_delta_is_zero(self):
        # a chance-level holdout folded in another order than its baseline
        # misses it by a few ulps: that is no generalization, while a millionth
        # of the baseline is
        baselines = {k: 9.0 for k in HOLDOUT_KINDS}
        aggregates = {k: _agg(9.0 * (1 - 1e-15)) for k in HOLDOUT_KINDS}
        sig = evaluate_holdouts(aggregates, baselines)
        assert all(d > 0.0 for d in sig.deltas.values())
        assert classify_algorithm(sig) is ModelKind.INDEPENDENT
        aggregates["heldout_full"] = _agg(9.0 * (1 - 1e-6))
        sig = evaluate_holdouts(aggregates, baselines)
        assert classify_algorithm(sig) is ModelKind.TWO_FUNCTION

    def test_partial_pattern_is_inconsistent(self):
        baselines = {k: 9.0 for k in HOLDOUT_KINDS}
        aggregates = {k: _agg(9.0) for k in HOLDOUT_KINDS}
        aggregates["heldout_r"] = _agg(1.0)
        sig = evaluate_holdouts(aggregates, baselines)
        assert classify_algorithm(sig) is None

    def test_missing_aggregate_rejected(self):
        baselines = {k: 9.0 for k in HOLDOUT_KINDS}
        with pytest.raises(EvaluationError):
            evaluate_holdouts({}, baselines)

    def test_incomplete_signature_rejected(self):
        sig = GeneralizationSignature({"heldout_full": True}, {"heldout_full": 1.0})
        with pytest.raises(EvaluationError):
            classify_algorithm(sig)


class TestBaselines:
    def test_uniform_baseline_mixes_pools(self, micro_world):
        ss = build_splits(micro_world, {"heldout_e1": 0.02}, mix_ratio=10, seed=8)
        baselines = uniform_baselines(ss, micro_world.config)
        keys = ss.heldout["heldout_e1"]
        attributes = micro_world.config.attributes
        expected = sum(
            math.log2(micro_world.config.pool_size(attributes[unpack(ss.space, key)[2]]))
            for key in keys
        ) / len(keys)
        assert baselines["heldout_e1"] == pytest.approx(expected, rel=1e-12)
        assert set(baselines) == {"heldout_e1"}

