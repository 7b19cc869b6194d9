import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import strict_two_function_total_bits

from twohop import (
    ModelKind,
    WorldConfig,
    baseline_content,
    dataset_entropy,
    name_selection_entropy,
)
from twohop.entropy import (
    NameEntropyApproximationWarning,
    attribute_entropy,
    exact_name_selection_entropy,
    uniform_guess_loss_bits,
)

ALL_CASES = [None, *ModelKind]


def small_configs():
    relations = st.integers(2, 6).map(lambda k: tuple(f"r{i}" for i in range(k)))
    properties = st.lists(
        st.integers(2, 4000), min_size=1, max_size=4
    ).map(lambda sizes: tuple((f"p{i}", s) for i, s in enumerate(sizes)))
    return st.builds(
        WorldConfig,
        n_profiles=st.integers(2, 400),
        first_names=st.integers(100, 9000),
        middle_names=st.integers(100, 9000),
        last_names=st.integers(100, 9000),
        relations=relations,
        properties=properties,
        seed=st.just(0),
    )


class TestNameSelection:
    def test_power_of_two_pool(self):
        assert name_selection_entropy(1, 1024) == 10.0

    def test_default_name_space(self):
        # 8000 * 5000 * 10000 combinations for 1000 entities
        bits = name_selection_entropy(1000, 4 * 10**11)
        assert bits == pytest.approx(38541.20904376098, abs=1e-6)

    def test_warns_at_high_occupancy(self):
        with pytest.warns(NameEntropyApproximationWarning):
            bits = name_selection_entropy(3, 20)
        assert bits == pytest.approx(3 * math.log2(20))

    def test_exact_binomial(self):
        # C(20, 3) = 1140
        assert exact_name_selection_entropy(3, 20) == pytest.approx(math.log2(1140))

    def test_silent_at_low_occupancy(self, recwarn):
        name_selection_entropy(10, 10**6)
        assert not [w for w in recwarn if issubclass(w.category, NameEntropyApproximationWarning)]

    def test_rejects_oversized_selection(self):
        with pytest.raises(ValueError):
            name_selection_entropy(30, 20)
        with pytest.raises(ValueError):
            name_selection_entropy(0, 20)


class TestAttributeEntropy:
    def test_values(self):
        assert attribute_entropy(1) == 0.0
        assert attribute_entropy(1024) == 10.0
        assert attribute_entropy(1000) == pytest.approx(9.965784284662087)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            attribute_entropy(0)


class TestDatasetEntropy:
    def test_micro_world_values(self, micro_cfg):
        # 100 entities in a 1000-name space, 3 relations (pool 100) and one
        # 10-value property: hand-computable totals
        name = 100 * math.log2(1000)
        fact = 100 * (3 * math.log2(100) + math.log2(10))
        e1 = dataset_entropy(micro_cfg, None)
        assert e1.total_bits == pytest.approx(name + fact, rel=1e-12)
        assert e1.total_bits == pytest.approx(3321.928094887362, abs=1e-6)

        rec = dataset_entropy(micro_cfg, ModelKind.RECURRENT)
        two = dataset_entropy(micro_cfg, ModelKind.TWO_FUNCTION)
        ind = dataset_entropy(micro_cfg, ModelKind.INDEPENDENT)
        assert rec.total_bits == e1.total_bits
        assert two.total_bits == pytest.approx(name + 2 * fact, rel=1e-12)
        assert two.total_bits == pytest.approx(5647.277761308515, abs=1e-6)
        assert ind.total_bits == pytest.approx(name + 3 * fact, rel=1e-12)
        assert ind.total_bits == pytest.approx(7972.627427729669, abs=1e-6)

    def test_multipliers(self, micro_cfg):
        assert dataset_entropy(micro_cfg, None).multiplier == 1
        assert dataset_entropy(micro_cfg, ModelKind.RECURRENT).multiplier == 1
        assert dataset_entropy(micro_cfg, ModelKind.TWO_FUNCTION).multiplier == 2
        assert dataset_entropy(micro_cfg, ModelKind.INDEPENDENT).multiplier == len(
            micro_cfg.relations
        )

    def test_strict_two_function_variant_is_smaller(self, micro_cfg):
        two = dataset_entropy(micro_cfg, ModelKind.TWO_FUNCTION)
        strict = strict_two_function_total_bits(micro_cfg)
        assert strict < two.total_bits
        # the difference is exactly one pass over the property values
        prop_bits = micro_cfg.n_profiles * sum(
            math.log2(size) for _, size in micro_cfg.properties
        )
        assert two.total_bits - strict == pytest.approx(prop_bits, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(cfg=small_configs())
    def test_ordering_and_additivity(self, cfg):
        e1 = dataset_entropy(cfg, None)
        rec = dataset_entropy(cfg, ModelKind.RECURRENT)
        two = dataset_entropy(cfg, ModelKind.TWO_FUNCTION)
        ind = dataset_entropy(cfg, ModelKind.INDEPENDENT)
        assert e1.total_bits == rec.total_bits <= two.total_bits <= ind.total_bits
        for rep in (e1, rec, two, ind):
            assert rep.total_bits == pytest.approx(
                rep.name_bits + rep.multiplier * rep.fact_bits_per_pass, rel=1e-12
            )


class TestBaseline:
    @settings(max_examples=40, deadline=None)
    @given(cfg=small_configs())
    def test_baseline_is_name_bits(self, cfg):
        name = name_selection_entropy(cfg.n_profiles, cfg.name_space_size)
        for kind in ALL_CASES:
            assert baseline_content(cfg, kind) == pytest.approx(name, abs=1e-6)

    def test_uniform_loss_scales_with_multiplier(self, micro_cfg):
        one = uniform_guess_loss_bits(micro_cfg, None)
        ind = uniform_guess_loss_bits(micro_cfg, ModelKind.INDEPENDENT)
        assert ind == pytest.approx(len(micro_cfg.relations) * one, rel=1e-12)
