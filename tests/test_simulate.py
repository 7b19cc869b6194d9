import json
import math
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import answer_prob, block_lines, presence_flags, reference_loss_table, unpack

from twohop.cli import main
from twohop.entropy import ModelKind, dataset_entropy, name_selection_entropy
from twohop.generalization import TrainIndex
from twohop.estimator import EstimatorError
from twohop.logs import _loss_rows
from twohop.simulate import (
    LossTable,
    ReliabilityProfile,
    allocate_budget,
    generate_loss_log,
    ground_truth_content,
    loss_impact_ratio,
    loss_records,
    write_log,
)
from twohop.worldgen import (
    HOLDOUT_KINDS,
    WorldConfig,
    build_splits,
    generate_world,
    answer_rows,
    persist_dataset,
    question_lines,
)


def _question(split_set, key):
    """(e1, r, a) of a two-hop key, on config indices."""
    e1, r, a = unpack(split_set.space, key)
    assert r < split_set.space.n_relations
    return e1, r, a


def _two_hop_prob(world, profile, e1, r, a):
    """``profile.answer_prob`` of the two-hop question (e1, r, a), on config indices."""
    # facts[e1·|A| + r] is relation r's target of e1
    return answer_prob(profile, e1, r, a, world.facts[e1 * len(world.config.attributes) + r])


@pytest.fixture(scope="module")
def tiny_world():
    cfg = WorldConfig(
        n_profiles=1000,
        relations=("mother",),
        properties=(("birth city", 10),),
        seed=2,
    )
    return generate_world(cfg)


def _flat_profile(world, kind, p1, p2):
    """Two-function profile with distinct flat hop reliabilities."""
    base = ReliabilityProfile.homogeneous(world.config, kind, 1.0)
    if kind is ModelKind.TWO_FUNCTION:
        n_attrs = len(world.config.attributes)
        base.hop1.low = base.hop1.high = (p1,) * n_attrs
        base.hop2.low = base.hop2.high = (p2,) * n_attrs
    return base


class TestMixture:
    def test_perfect_hops(self, tiny_world):
        profile = ReliabilityProfile.homogeneous(tiny_world.config, ModelKind.RECURRENT, 1.0)
        assert _two_hop_prob(tiny_world, profile, 0, 0, 0) == 1.0

    def test_worked_mixture(self, tiny_world):
        # p1=0.8, p2=0.5 over 1000 entities: 0.4 + 0.2/1000
        profile = _flat_profile(tiny_world, ModelKind.TWO_FUNCTION, 0.8, 0.5)
        q = _two_hop_prob(tiny_world, profile, 0, 0, 0)
        assert q == pytest.approx(0.4002, rel=1e-12)

    def test_chance_everywhere(self, tiny_world):
        profile = ReliabilityProfile.homogeneous(tiny_world.config, ModelKind.RECURRENT, None)
        q = _two_hop_prob(tiny_world, profile, 0, 0, 0)
        # chance squared plus the first-hop miss fallback lands back near chance
        n = tiny_world.config.n_profiles
        assert q == pytest.approx((1 / n) ** 2 + (1 - 1 / n) / n, rel=1e-12)

    def test_independent_reads_the_memo(self, tiny_world):
        profile = ReliabilityProfile.homogeneous(tiny_world.config, ModelKind.INDEPENDENT, 0.7)
        assert _two_hop_prob(tiny_world, profile, 0, 0, 0) == 0.7
        # and answers one-hop questions (r = |R|, e2 = e1) at chance: it
        # stores two-hop answers only
        assert answer_prob(profile, 0, 1, 1, 0) == 0.1

    def test_homogeneous_floors_at_chance(self, tiny_world):
        profile = ReliabilityProfile.homogeneous(tiny_world.config, ModelKind.RECURRENT, 0.0001)
        # relations have a 1/1000 chance floor, the 10-value property 1/10;
        # unit e·|A| + a of attributes (mother, birth city)
        assert profile.facts[0] == 0.001
        assert profile.facts[1] == 0.1


@pytest.fixture(scope="module")
def holdout_setup(micro_world):
    fractions = {"heldout_full": 0.02, "heldout_r": 0.34}
    return build_splits(micro_world, fractions, mix_ratio=10, seed=6)


class TestTrainedProfiles:
    def test_recurrent_answers_everything(self, micro_world, holdout_setup):
        profile = ReliabilityProfile.trained(micro_world, holdout_setup, ModelKind.RECURRENT)
        e1, r, a = _question(holdout_setup, holdout_setup.heldout["heldout_full"][0])
        q = _two_hop_prob(micro_world, profile, e1, r, a)
        assert q == 1.0

    def test_two_function_matches_pair_presence(self, micro_world, holdout_setup):
        profile = ReliabilityProfile.trained(micro_world, holdout_setup, ModelKind.TWO_FUNCTION)
        index, space = TrainIndex(micro_world, holdout_setup), holdout_setup.space
        # per item: perfect iff both hop pairs still occur in train two-hops
        for key in holdout_setup.heldout["heldout_full"]:
            e1, r, a = _question(holdout_setup, key)
            flags = presence_flags(micro_world, holdout_setup, index, e1, space.relations[r], space.attributes[a])
            q = _two_hop_prob(micro_world, profile, e1, r, a)
            if flags.both_pairs_present:
                assert q == 1.0
            else:
                assert q < 1.0
        e1, r, a = _question(holdout_setup, holdout_setup.heldout["heldout_r"][0])
        q = _two_hop_prob(micro_world, profile, e1, r, a)
        assert q == 1.0 / micro_world.config.pools[a]

    def test_independent_answers_train_only(self, micro_world, holdout_setup):
        profile = ReliabilityProfile.trained(micro_world, holdout_setup, ModelKind.INDEPENDENT)
        e1, r, a = _question(holdout_setup, holdout_setup.heldout["heldout_full"][0])
        q = _two_hop_prob(micro_world, profile, e1, r, a)
        space = holdout_setup.space
        assert q == 1.0 / micro_world.config.pools[a]
        trained_key = next(k for k in holdout_setup.train if unpack(space, k)[1] < space.n_relations)
        e1, r, a = _question(holdout_setup, trained_key)
        assert _two_hop_prob(micro_world, profile, e1, r, a) == 1.0


class TestGroundTruth:
    def test_perfect_recall_is_entropy(self, micro_world):
        # but for two-function's first hops to the property (pool 10), which no question reads
        unread = micro_world.config.n_profiles * math.log2(10)
        for kind in ModelKind:
            profile = ReliabilityProfile.homogeneous(micro_world.config, kind, 1.0)
            entropy = dataset_entropy(micro_world.config, kind).total_bits
            if kind is ModelKind.TWO_FUNCTION:
                entropy -= unread
            assert ground_truth_content(micro_world, profile) == pytest.approx(entropy, rel=1e-12)

    def test_chance_is_name_bits(self, micro_world):
        cfg = micro_world.config
        name = name_selection_entropy(cfg.n_profiles, cfg.name_space_size)
        for kind in ModelKind:
            profile = ReliabilityProfile.homogeneous(cfg, kind, None)
            assert ground_truth_content(micro_world, profile) == pytest.approx(name, abs=1e-6)

    def test_homogeneous_half_reliability(self, micro_world):
        # 400 facts remembered at p=0.5 cost one bit each below full entropy
        profile = ReliabilityProfile.homogeneous(micro_world.config, ModelKind.RECURRENT, 0.5)
        entropy = dataset_entropy(micro_world.config, ModelKind.RECURRENT).total_bits
        assert ground_truth_content(micro_world, profile) == pytest.approx(entropy - 400, rel=1e-12)


class TestLossLog:
    def test_one_record_per_item(self, micro_world):
        ss = build_splits(micro_world, {"heldout_full": 0.02}, mix_ratio=10, seed=6)
        profile = ReliabilityProfile.homogeneous(micro_world.config, ModelKind.RECURRENT, 0.9)
        records = generate_loss_log(micro_world, profile, ss)
        qids = [json.loads(line)["qid"] for line in block_lines(question_lines(micro_world, ss))]
        assert len(records) == len(qids) == sum(ss.counts().values())
        assert [r.qid for r in records] == qids
        assert all(r.logprob_nats <= 0 for r in records)

    def test_deterministic(self, micro_world):
        ss = build_splits(micro_world, {}, mix_ratio=10, seed=6)
        profile = ReliabilityProfile.two_point(
            micro_world.config, ModelKind.TWO_FUNCTION, 0.2, 0.9, 0.5, seed=3
        )
        assert generate_loss_log(micro_world, profile, ss) == generate_loss_log(
            micro_world, profile, ss
        )


# simulate --reliability SPEC and the profile it builds, for a world, its splits and a seed
PROFILES = {
    "trained": lambda world, ss, kind, seed: ReliabilityProfile.trained(world, ss, kind),
    "chance": lambda world, ss, kind, seed: ReliabilityProfile.homogeneous(
        world.config, kind, None),
    "0.7": lambda world, ss, kind, seed: ReliabilityProfile.homogeneous(world.config, kind, 0.7),
    "budget:40": lambda world, ss, kind, seed: allocate_budget(kind, 40.0, world.config),
    "two-point:0.01,0.99,0.5": lambda world, ss, kind, seed: ReliabilityProfile.two_point(
        world.config, kind, 0.01, 0.99, 0.5, seed),
}



@pytest.mark.parametrize("kind", list(ModelKind))
def test_stored_units_are_the_entropy_passes(micro_world, holdout_setup, kind):
    # every constructor stores one unit per fact in each pass its dataset entropy counts
    cfg = micro_world.config
    units = dataset_entropy(cfg, kind).multiplier * cfg.n_profiles * len(cfg.attributes)
    for spec, build in PROFILES.items():
        profile = build(micro_world, holdout_setup, kind, 3)
        tables = (profile.facts, profile.hop1, profile.hop2, profile.memo)
        assert sum(len(table) for table in tables if table is not None) == units, spec

@st.composite
def table_worlds(draw):
    """A small world with property pools below, equal to and above |N|, and names to escape."""
    n = draw(st.integers(2, 8))
    names = draw(st.lists(st.text(st.sampled_from('ab"\\\u00e9\u2028\U0001f600'), min_size=1,
                                  max_size=3), min_size=4, max_size=6, unique=True))
    n_relations = len(names) - 3
    pools = (draw(st.integers(1, n - 1)), n, draw(st.integers(n + 1, 2 * n + 3)))
    cfg = WorldConfig(n_profiles=n, first_names=3, middle_names=3, last_names=3,
                      relations=tuple(names[:n_relations]),
                      properties=tuple(zip(names[n_relations:], pools)),
                      seed=draw(st.integers(0, 5)))
    return generate_world(cfg)


@settings(max_examples=60, deadline=None)
@given(world=table_worlds(), kind=st.sampled_from(list(ModelKind)),
       spec=st.sampled_from(sorted(PROFILES)), cot=st.booleans(), seed=st.integers(0, 3))
def test_table_is_answer_prob(world, kind, spec, cot, seed):
    # every key's table entry is ln answer_prob exactly, and the lines that
    # simulate writes read back as loss_records' tuples, in order
    fractions = dict.fromkeys(HOLDOUT_KINDS, 0.2)
    if len(world.config.relations) == 1:
        del fractions["heldout_r"]  # one relation cannot be held out
    ss = build_splits(world, fractions, mix_ratio=3, seed=seed, cot=cot)
    profile = PROFILES[spec](world, ss, kind, seed)
    space = ss.space
    keys = range(space.size)
    table = LossTable(world, profile, space)
    for key, cell in zip_longest(keys, table.cells_of(keys)):
        e1, rest = divmod(key, space.per_entity)
        x, _ = table.values[table.cells[cell]]
        assert cell // 4 == rest
        _, r, a = unpack(space, key)
        e2 = e1 if r == space.n_relations else world.facts[e1 * space.n_attributes + r]
        assert x == math.log(answer_prob(profile, e1, r, a, e2)), key
    with tempfile.TemporaryDirectory() as tmp:
        ds, log = Path(tmp) / "ds", Path(tmp) / "run.jsonl"
        persist_dataset(ss, world, ds)
        assert main(["simulate", "--dataset", str(ds), "--model", kind.value, "--reliability",
                     spec, "--seed", str(seed), "--param-count", "5000", "--out", str(log)]) == 0
        rows = [record for _, record in _loss_rows(log)]
        text = log.read_text(encoding="utf-8")
    records = list(loss_records(world, profile, ss))
    assert rows == records
    fields = ("qid", "split", "kind", "logprob_nats")
    assert text == "".join(json.dumps(dict(zip(fields, record)), sort_keys=True) + "\n"
                           for record in records)


@settings(max_examples=60, deadline=None)
@given(world=table_worlds(), kind=st.sampled_from(list(ModelKind)),
       spec=st.sampled_from(["trained", "two-point:0.01,0.99,0.5"]), cot=st.booleans(),
       mix_ratio=st.sampled_from([0, 3]), holdouts=st.booleans(), seed=st.integers(0, 3))
def test_row_tables_are_the_per_row_reference(world, kind, spec, cot, mix_ratio, holdouts, seed):
    # the answer-row table and LossTable's base and lead, built a relation
    # column at a time, are the tables built one (e1, r) row at a time
    fractions = dict.fromkeys(HOLDOUT_KINDS, 0.2) if holdouts else {}
    if len(world.config.relations) == 1:
        fractions.pop("heldout_r", None)  # one relation cannot be held out
    ss = build_splits(world, fractions, mix_ratio=mix_ratio, seed=seed, cot=cot)
    profile = PROFILES[spec](world, ss, kind, seed)
    table = LossTable(world, profile, ss.space)
    rows, base, lead = reference_loss_table(world, profile, ss.space)
    assert list(answer_rows(world)) == rows
    assert list(table.base) == base
    assert list(table.lead) == lead


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("cot", [False, True])
def test_positive_cell_is_refused_before_the_log_exists(tmp_path, kind, cot):
    # no constructor gives a level above 1 (q <= 1), so _build, past their
    # checks, stands in for a faulty profile: the table refuses the first
    # positive cell by its entry, and write_log opens no file
    world = generate_world(WorldConfig(
        n_profiles=20, relations=("mother", "boss"), properties=(("birth city", 10),), seed=2))
    ss = build_splits(world, {"heldout_e1": 0.1, "heldout_full": 0.1}, mix_ratio=1, seed=1, cot=cot)
    levels = (1.0, 1.5, 0.5)  # mother, boss, birth city
    profile = ReliabilityProfile._build(world.config, kind, levels, levels)
    log = tmp_path / "run.jsonl"
    with pytest.raises(EstimatorError) as exc:
        write_log(world, profile, ss, log)
    assert str(exc.value) == f"positive logprob for 2h:E1:mother:boss: {math.log(1.5)}"
    assert not log.exists()


class TestBudget:
    def test_share_applies_per_unit(self):
        cfg = WorldConfig(
            n_profiles=10,
            relations=("mother",),
            properties=(("birth city", 1024),),
            seed=0,
        )
        # 20 storable facts, 100 bits: each unit gets 5 bits of its answer
        profile = allocate_budget(ModelKind.RECURRENT, 100.0, cfg)
        assert profile.facts[1] == pytest.approx(2.0**-5)  # (0, "birth city")
        # the 10-entity relation needs only log2(10) < 5 bits: fully reliable
        assert profile.facts[0] == 1.0  # (0, "mother")

    def test_zero_budget_is_chance(self, micro_cfg):
        profile = allocate_budget(ModelKind.INDEPENDENT, 0.0, micro_cfg)
        # unit (e·|R| + r)·|A| + a of (0, "mother", "birth city")
        attributes = micro_cfg.attributes
        r, a = micro_cfg.relations.index("mother"), attributes.index("birth city")
        assert profile.memo[r * len(attributes) + a] == pytest.approx(0.1)

    def test_content_monotone_in_budget(self, micro_world):
        entropy = dataset_entropy(micro_world.config, ModelKind.TWO_FUNCTION).total_bits
        contents = [
            ground_truth_content(
                micro_world, allocate_budget(ModelKind.TWO_FUNCTION, b, micro_world.config)
            )
            for b in (0.0, 500.0, 2000.0, 10_000.0)
        ]
        assert contents == sorted(contents)
        assert contents[-1] <= entropy + 1e-9

    def test_negative_budget_rejected(self, micro_cfg):
        with pytest.raises(ValueError):
            allocate_budget(ModelKind.RECURRENT, -1.0, micro_cfg)


class TestLossImpact:
    def test_worked_ratios(self):
        assert loss_impact_ratio(10, 4) == 2.5
        assert loss_impact_ratio(10, 17) == pytest.approx(10 / 17)
        assert loss_impact_ratio(0, 4) == 0.0

    def test_guards(self):
        with pytest.raises(ValueError):
            loss_impact_ratio(10, 0)
        with pytest.raises(ValueError):
            loss_impact_ratio(-1, 4)
