import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_invert_first_hop, read_unit_content
from twohop.entropy import LN2, ModelKind, dataset_entropy
from twohop.estimator import (
    EstimatorError,
    aggregate_losses,
    bits_per_parameter,
    content_estimate,
    first_hop_group,
    first_hop_reading,
)
from twohop.logs import ROW_GROUPS, LossRecord, fold_log, results, summarize
from twohop.simulate import ReliabilityProfile, allocate_budget, ground_truth_content, write_log
from twohop.worldgen import WorldConfig, build_splits, generate_world


def _records(losses):
    return [LossRecord(f"q{i}", "train", "one_hop", -x) for i, x in enumerate(losses)]


def _matches(record, split=None, kind=None):
    return split in (None, record[1]) and kind in (None, record[2])


class TestAggregation:
    def test_mean_and_count(self):
        agg = aggregate_losses(_records([1.0, 1.0, 1.0]))
        assert agg.mean_loss_nats == 1.0
        assert agg.count == 3
        assert agg.mean_loss_bits == pytest.approx(1.0 / LN2)

    def test_matches_sampled_distribution(self):
        rng = random.Random(0)
        losses = [abs(rng.gauss(2.0, 0.5)) for _ in range(200_000)]
        agg = aggregate_losses(_records(losses))
        se_mean = 0.5 / math.sqrt(len(losses))
        assert abs(agg.mean_loss_nats - 2.0) < 3 * se_mean

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
        # finite, so that a NaN cannot break ==
        st.sampled_from([-0.0, -5e-324]) | st.floats(-1e150, 0.0),
    ), max_size=40))
    def test_groups_equal_single_selections(self, rows):
        # logs.summarize adds to every group in one pass; each must equal its
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
            assert set(groups) == set(ROW_GROUPS)
            assert {name: acc.result() for name, acc in groups.items() if acc.count} == expected


class TestFirstHopReading:
    def test_perfect_answers(self):
        # read at most 1, by the slack of two exps; clamped back to no loss
        assert 1.0 - 1e-14 < first_hop_reading(0.0, 0.0, 1000) <= 1.0
        group = first_hop_group([1.0, 1.0], 1000)
        assert (group.count, group.result().mean_loss_nats) == (2, 0.0)

    def test_round_trip_against_oracle(self):
        for n in (50, 1000):
            for u2 in (1.0, 0.3):
                for u in (1 / n, 0.05, 0.3, 0.7, 1.0):
                    q = u * u2 + (1 - u) / n
                    reading = first_hop_reading(math.log(q), math.log(u2), n)
                    assert reading == pytest.approx(u, abs=1e-9)
                    assert oracle_invert_first_hop(q, u2, n) == pytest.approx(u, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 7, 10, 100, 400, 1000, 12_000])
    def test_second_hop_at_chance_shows_nothing(self, n):
        # exp(log(1/n)) may round above 1/n; the reading is still none
        assert first_hop_reading(math.log(1.0 / n), math.log(1.0 / n), n) == math.inf
        assert first_hop_reading(0.0, math.log(0.5 / n), n) == math.inf
        assert first_hop_reading(0.0, math.log(1.0 / n) + 1e-12, n) < math.inf

    def test_group_clamps_to_chance_and_certainty(self):
        n = 100
        group = first_hop_group([math.inf, 0.0, -0.5, 1.5, 0.5], n)
        expected = 3 * math.log(n) + 0.0 - math.log(0.5)
        assert group.count == 5
        assert group.result().mean_loss_nats == pytest.approx(expected / 5, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(readings=st.lists(st.floats(-1.0, 2.0) | st.just(math.inf), max_size=20),
           n=st.integers(2, 10_000), seed=st.integers(0, 2**32 - 1))
    def test_group_bounds_and_order(self, readings, n, seed):
        group = first_hop_group(readings, n)
        shuffled = readings[:]
        random.Random(seed).shuffle(shuffled)
        assert first_hop_group(shuffled, n).total == group.total
        if readings:
            assert 0.0 <= group.result().mean_loss_nats <= math.log(n) * (1 + 1e-15)


_POOL = st.sampled_from(["below", "equal", "above"])
_LEVEL = st.none() | st.floats(0.0, 1.0)
_PROFILE = st.one_of(
    st.tuples(st.just("homogeneous"), _LEVEL),
    st.tuples(st.just("two-point"), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.tuples(st.just("budget"), st.floats(0.0, 4.0)),
    st.tuples(st.just("trained")),
)


def _profile(spec, world, split_set, kind):
    cfg = world.config
    if spec[0] == "homogeneous":
        return ReliabilityProfile.homogeneous(cfg, kind, spec[1])
    if spec[0] == "two-point":
        return ReliabilityProfile.two_point(cfg, kind, *spec[1:], seed=5)
    if spec[0] == "budget":  # in units of one pass over the facts at their pools' bits
        fact_bits = sum(math.log2(pool) for pool in cfg.pools) * cfg.n_profiles
        return allocate_budget(kind, spec[1] * fact_bits, cfg)
    return ReliabilityProfile.trained(world, split_set, kind)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), relations=st.integers(1, 3), pools=st.lists(_POOL, max_size=2),
       kind=st.sampled_from(ModelKind), spec=_PROFILE, holdout=st.booleans(),
       mix_ratio=st.integers(0, 4), seed=st.integers(0, 100))
def test_estimate_is_a_lower_bound(n, relations, pools, kind, spec, holdout, mix_ratio, seed):
    # the estimate under the log's own model is at most the simulator's
    # read-unit truth, and equals the content of the units that some answer
    # depends on; the fallback fold of the written log gives the summary's groups.
    # Independent's estimate spreads its two-hop mean over every memo unit, so
    # it is refused when a two-hop question is not in the log: at mix ratio 0
    sizes = {"below": max(1, n // 2), "equal": n, "above": 3 * n}
    cfg = WorldConfig(n_profiles=n, first_names=100, middle_names=100, last_names=100,
                      relations=tuple(f"r{i}" for i in range(relations)),
                      properties=tuple((f"p{i}", sizes[pool]) for i, pool in enumerate(pools)),
                      seed=seed)
    world = generate_world(cfg)
    fractions = dict.fromkeys(("heldout_e1", "heldout_e2", "heldout_e1r", "heldout_e2a",
                               "heldout_full"), 0.2 if holdout else 0.0)
    split_set = build_splits(world, fractions, mix_ratio=mix_ratio, seed=seed)
    profile = _profile(spec, world, split_set, kind)
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.jsonl"
        _, groups = write_log(world, profile, split_set, log)
        aggregates = results(groups)
        assert results(fold_log(log, world)) == aggregates
    reads = aggregates["two_hop" if kind is ModelKind.INDEPENDENT else "one_hop"]
    units = n * len(cfg.attributes) * relations
    if kind is ModelKind.INDEPENDENT and reads.count < units:
        assert mix_ratio == 0
        with pytest.raises(EstimatorError, match=f": {reads.count} of {units} are in the log$"):
            content_estimate(cfg, kind, reads)
        return
    estimate = content_estimate(cfg, kind, reads, aggregates["hop1"]).content_bits
    truth = ground_truth_content(world, profile)
    assert estimate <= truth + 1e-9 * abs(truth)
    # a second hop within 1e-6 above chance leaves a first hop's reading to
    # rounding, where it reads low; elsewhere it is exact
    second_hops = [] if profile.hop2 is None else [
        level for a in range(relations) for level in (profile.hop2.low[a], profile.hop2.high[a])]
    if not any(1.0 / n < (level or 0.0) < (1.0 + 1e-6) / n for level in second_hops):
        assert estimate == pytest.approx(read_unit_content(world, profile, split_set), rel=1e-9)


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
        agg = aggregate_losses(_records([0.0] * 1200))  # a record per memo unit
        # two-function's first hops to the property (pool 10) are read by no question
        unread = micro_cfg.n_profiles * math.log2(10)
        for kind in ModelKind:
            rep = dataset_entropy(micro_cfg, kind)
            est = content_estimate(micro_cfg, kind, agg, agg)
            expected = rep.total_bits - (unread if kind is ModelKind.TWO_FUNCTION else 0.0)
            assert est.content_bits == pytest.approx(expected, rel=1e-12)
            assert est.fact_count == rep.multiplier * 400

    def test_zero_loss_is_positive_zero(self, micro_cfg):
        # a perfect model's loss prints as 0.0, not -0.0
        assert math.copysign(1.0, first_hop_group([1.0], 100).result().mean_loss_nats) == 1.0
        agg = aggregate_losses(_records([0.0] * 1200))
        for kind in (None, ModelKind.RECURRENT, ModelKind.INDEPENDENT):
            est = content_estimate(micro_cfg, kind, agg)
            assert math.copysign(1.0, est.total_loss_bits) == 1.0, kind

    def test_independent_needs_every_memo_unit(self, micro_cfg):
        # 100 profiles, 4 attributes and 3 relations: 1200 memo units, one per
        # two-hop question; a log without some of them reads no mean of all
        agg = aggregate_losses(_records([0.0] * 1199))
        with pytest.raises(EstimatorError, match="1199 of 1200 are in the log"):
            content_estimate(micro_cfg, ModelKind.INDEPENDENT, agg)
        assert content_estimate(micro_cfg, ModelKind.RECURRENT, agg).content_bits > 0

    def test_two_function_needs_its_hop1_group(self, micro_cfg):
        # 2f's first-hop table is read off the hop1 group alone
        agg = aggregate_losses(_records([0.0] * 400))
        with pytest.raises(EstimatorError, match="reads the hop1 group"):
            content_estimate(micro_cfg, ModelKind.TWO_FUNCTION, agg)

    def test_bits_per_parameter_guards(self):
        assert bits_per_parameter(0.0, 10) == 0.0
        with pytest.raises(EstimatorError):
            bits_per_parameter(1.0, 0)
