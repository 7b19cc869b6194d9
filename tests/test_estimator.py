import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_invert_recurrent, oracle_two_function_loss
from twohop.entropy import LN2, ModelKind, dataset_entropy
from twohop.estimator import (
    Branch,
    FOLD_ROWS,
    EstimatorError,
    aggregate_losses,
    bits_per_parameter,
    content_estimate,
    effective_loss_recurrent,
    effective_loss_two_function,
    two_function_threshold,
)
from twohop.logs import SUMMARY_GROUPS, LossRecord, summarize


def _records(losses):
    return [LossRecord(f"q{i}", "train", "one_hop", -x) for i, x in enumerate(losses)]


def _matches(record, split=None, kind=None):
    return split in (None, record[1]) and kind in (None, record[2])


class TestAggregation:
    def test_mean_and_variance(self):
        agg = aggregate_losses(_records([1.0, 1.0, 1.0]))
        assert agg.mean_loss_nats == 1.0
        assert agg.var_loss_nats == 0.0
        assert agg.count == 3
        assert agg.mean_loss_bits == pytest.approx(1.0 / LN2)

    def test_matches_sampled_distribution(self):
        rng = random.Random(0)
        losses = [abs(rng.gauss(2.0, 0.5)) for _ in range(200_000)]
        agg = aggregate_losses(_records(losses))
        se_mean = 0.5 / math.sqrt(len(losses))
        assert abs(agg.mean_loss_nats - 2.0) < 3 * se_mean
        assert abs(agg.var_loss_nats - 0.25) < 3 * 0.25 * math.sqrt(2 / len(losses))

    def test_empty_selection_rejected(self):
        with pytest.raises(EstimatorError):
            aggregate_losses([])

    def test_positive_logprob_rejected(self):
        with pytest.raises(EstimatorError):
            aggregate_losses([LossRecord("q", "train", "one_hop", 0.5)])

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from(["train", "heldout_r", "heldout_full"]),
        st.sampled_from(["one_hop", "two_hop"]),
        # bounded so that Welford's squares stay finite and a NaN cannot break ==
        st.sampled_from([-0.0, -5e-324]) | st.floats(-1e150, 0.0),
    ), max_size=40))
    def test_groups_equal_single_selections(self, rows):
        # logs.summarize folds every group in one pass; each must equal its
        # own selection's aggregate
        records = [(f"q{i}", split, kind, x) for i, (split, kind, x) in enumerate(rows)]
        selections = {
            "one_hop": {"kind": "one_hop"},
            "two_hop": {"kind": "two_hop"},
            **{f"two_hop/{split}": {"split": split, "kind": "two_hop"}
               for split in ["train", "heldout_r", "heldout_full"]},
        }
        expected = {
            name: aggregate_losses(r for r in records if _matches(r, **selection))
            for name, selection in selections.items()
            if any(_matches(r, **selection) for r in records)
        }
        for rows_in in (records, map(LossRecord._make, records)):
            groups = summarize(rows_in)
            assert set(groups) == set(SUMMARY_GROUPS)
            assert {name: acc.result() for name, acc in groups.items() if acc.count} == expected
        cot = ("c", "train", "two_hop_cot", -1.0)
        with pytest.raises(EstimatorError, match="two_hop_cot"):
            summarize(records + [cot])

    @pytest.mark.parametrize("offset", [0, FOLD_ROWS - 2, FOLD_ROWS - 1])
    @pytest.mark.parametrize("last_kind, last_x", [("one_hop", 0.5), ("two_hop_cot", -1.0)])
    def test_summarize_names_the_first_row_it_cannot_fold(self, offset, last_kind, last_x):
        # the groups fold their buffers one after another, yet the error
        # names the first row, in row order, that no fold takes
        rows = [(f"p{i}", "train", "one_hop", -1.0) for i in range(offset)]
        rows += [("a", "heldout_r", "two_hop", 0.25), ("c", "train", last_kind, last_x)]
        with pytest.raises(EstimatorError, match="^positive logprob for a: 0.25$"):
            summarize(rows)
        with pytest.raises(EstimatorError, match="^c is a two_hop_cot record"):
            summarize(rows[:offset] + [("c", "train", "two_hop_cot", -1.0), rows[offset]])


class TestRecurrentInversion:
    def test_perfect_answers(self):
        eff = effective_loss_recurrent(0.0, 1000)
        assert eff.u == 1.0
        assert eff.per_hop_loss_nats == 0.0

    def test_chance_fixed_point(self):
        n = 1000
        eff = effective_loss_recurrent(math.log(n), n)
        assert eff.per_hop_loss_nats == pytest.approx(math.log(n), rel=1e-12)

    def test_round_trip_against_oracle(self):
        for n in (50, 1000):
            for u in (1 / n, 0.05, 0.3, 0.7, 1.0):
                if u < 1 / n:
                    continue
                q = u * u + (1 - u) / n
                eff = effective_loss_recurrent(-math.log(q), n)
                assert eff.u == pytest.approx(u, abs=1e-9)
                assert oracle_invert_recurrent(q, n) == pytest.approx(u, abs=1e-9)

    def test_clamps_sub_chance_loss(self):
        eff = effective_loss_recurrent(math.log(10_000), 100)
        assert eff.branch is Branch.CLAMPED
        assert eff.q_tilde == pytest.approx(0.01)

    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.floats(0.0, 6.0),
        n=st.integers(2, 10_000),
    )
    def test_loss_monotone_in_mean(self, mean, n):
        lo = effective_loss_recurrent(mean, n)
        hi = effective_loss_recurrent(mean + 0.1, n)
        assert hi.per_hop_loss_nats >= lo.per_hop_loss_nats - 1e-12
        assert 0.0 <= lo.per_hop_loss_nats <= math.log(n) + 1e-12


class TestTwoFunctionInversion:
    def test_worked_example(self):
        # q=0.1008 at n=1000 sits above threshold: hop 2 saturates
        n = 1000
        q = 0.1008
        eff = effective_loss_two_function(-math.log(q), 0.0, n)
        assert eff.branch is Branch.ABOVE_THRESHOLD
        p1, p2, loss = oracle_two_function_loss(q, n)
        assert p2 == 1.0
        assert eff.summed_loss_nats == pytest.approx(loss, rel=1e-9)
        assert eff.summed_loss_nats == pytest.approx(2.3036, abs=5e-4)

    def test_chance_fixed_point(self):
        n = 1000
        eff = effective_loss_two_function(math.log(n), 0.0, n)
        assert eff.summed_loss_nats == pytest.approx(2 * math.log(n), rel=1e-12)

    def test_branch_continuity(self):
        for n in (100, 1000):
            q_star = two_function_threshold(n)
            lo = effective_loss_two_function(-math.log(q_star * (1 - 1e-12)), 0.0, n)
            hi = effective_loss_two_function(-math.log(q_star * (1 + 1e-12)), 0.0, n)
            assert lo.branch is Branch.BELOW_THRESHOLD
            assert hi.branch is Branch.ABOVE_THRESHOLD
            assert lo.summed_loss_nats == pytest.approx(hi.summed_loss_nats, abs=1e-9)
            assert lo.summed_loss_nats == pytest.approx(math.log(n), abs=1e-9)

    def test_oracle_agreement_on_grid(self):
        n = 100
        lo = 1.0 / n
        for i in range(50):
            q = lo + (1 - lo) * i / 49
            eff = effective_loss_two_function(-math.log(q), 0.0, n)
            _, _, oracle = oracle_two_function_loss(q, n)
            assert eff.summed_loss_nats == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    def test_variance_correction_applied_by_default(self):
        plain = effective_loss_two_function(2.0, 0.0, 1000)
        corrected = effective_loss_two_function(2.0, 1.0, 1000)
        assert corrected.summed_loss_nats < plain.summed_loss_nats

    @settings(max_examples=60, deadline=None)
    @given(mean=st.floats(0.0, 6.0), n=st.integers(2, 10_000))
    def test_summed_loss_bounds(self, mean, n):
        eff = effective_loss_two_function(mean, 0.0, n)
        assert -1e-12 <= eff.summed_loss_nats <= 2 * math.log(n) + 1e-9


class TestContentEstimate:
    def test_one_hop_worked_example(self, micro_cfg):
        # 400 facts at a flat 3-bit loss against the 3321.93-bit dataset
        recs = _records([3.0 * LN2] * 10)
        agg = aggregate_losses(recs)
        est = content_estimate(micro_cfg, None, agg)
        assert est.fact_count == 400
        assert est.content_bits == pytest.approx(3321.928094887362 - 1200.0, abs=1e-6)
        assert bits_per_parameter(est.content_bits, 1500) == pytest.approx(1.4146, abs=1e-4)

    def test_zero_loss_recovers_entropy(self, micro_cfg):
        agg = aggregate_losses(_records([0.0] * 5))
        for kind in ModelKind:
            rep = dataset_entropy(micro_cfg, kind)
            est = content_estimate(micro_cfg, kind, agg)
            assert est.content_bits == pytest.approx(rep.total_bits, rel=1e-12)

    def test_zero_loss_is_positive_zero(self, micro_cfg):
        # a perfect model's loss prints as 0.0, not -0.0
        assert math.copysign(1.0, effective_loss_recurrent(0.0, 100).per_hop_loss_nats) == 1.0
        assert math.copysign(1.0, effective_loss_two_function(0.0, 0.0, 100).summed_loss_nats) == 1.0
        agg = aggregate_losses(_records([0.0] * 5))
        for kind in ModelKind:
            est = content_estimate(micro_cfg, kind, agg)
            assert math.copysign(1.0, est.total_loss_bits) == 1.0, kind

    def test_bits_per_parameter_guards(self):
        assert bits_per_parameter(0.0, 10) == 0.0
        with pytest.raises(EstimatorError):
            bits_per_parameter(1.0, 0)
