"""End-to-end acceptance checks for the whole toolkit.

Each test guards one acceptance criterion and prints a single pass/fail
line; run with ``pytest -v -s tests/test_acceptance.py`` to see them.
"""

import math
from contextlib import contextmanager

import pytest

from oracles import oracle_first_hop_loss, oracle_invert_first_hop, relation_target, unpack
from twohop import (
    HOLDOUT_KINDS,
    ModelKind,
    PresenceFlags,
    ReliabilityProfile,
    WorldConfig,
    allocate_budget,
    baseline_content,
    bits_per_parameter,
    build_splits,
    classify_algorithm,
    content_estimate,
    dataset_entropy,
    evaluate_holdouts,
    generate_world,
    ground_truth_content,
    loss_impact_ratio,
    loss_records,
    name_selection_entropy,
    persist_dataset,
    predict_generalization,
    summarize,
    uniform_baselines,
)
from twohop.estimator import first_hop_group, first_hop_reading
from twohop.logs import results
from twohop.report import CapacityPoint, capacity_table, scaling_plot
from twohop.simulate import write_log
from twohop.worldgen import sha256_file


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def _estimate_bits(world, split_set, kind, profile, log) -> float:
    # the groups of the summary that simulate writes beside the log at ``log``
    _, groups = write_log(world, profile, split_set, log)
    aggregates = results(groups)
    reads = aggregates["two_hop" if kind is ModelKind.INDEPENDENT else "one_hop"]
    return content_estimate(world.config, kind, reads, aggregates["hop1"]).content_bits


def _first_hop_loss(q: float, u2: float, n: int) -> float:
    """The loss of a unit whose one question composes to q with second hop u2."""
    reading = first_hop_reading(math.log(q), math.log(u2), n)
    return first_hop_group([reading], n).result().mean_loss_nats


def test_criterion_1_signature_table():
    """All 9 predicted generalization rows, zero mismatches."""
    rows = [
        (ModelKind.INDEPENDENT, True, True, True),
        (ModelKind.INDEPENDENT, True, False, False),
        (ModelKind.INDEPENDENT, False, False, False),
        (ModelKind.TWO_FUNCTION, True, True, True),
        (ModelKind.TWO_FUNCTION, True, False, True),
        (ModelKind.TWO_FUNCTION, False, False, False),
        (ModelKind.RECURRENT, True, True, True),
        (ModelKind.RECURRENT, True, False, True),
        (ModelKind.RECURRENT, False, False, True),
    ]
    with criterion(1, "predicted generalization table"):
        for kind, pairs, full, expected in rows:
            flags = PresenceFlags(
                facts_one_hop_present=True,
                first_hop_pair_present=pairs,
                second_hop_pair_present=pairs,
                full_question_present=full,
            )
            assert predict_generalization(kind, flags) is expected, (kind, pairs, full)


def test_criterion_2_first_hop_inversion_round_trip():
    """Forward-compose then invert recovers the first-hop probability."""
    with criterion(2, "first-hop inversion round trip"):
        worst = 0.0
        for n in (10, 100, 1000, 10_000):
            for u2 in (1.0, 0.5):
                for u in (1.0 / n, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
                    if u < 1.0 / n:
                        continue  # below the chance floor: not producible by the model
                    q = u * u2 + (1.0 - u) / n
                    worst = max(worst, abs(first_hop_reading(math.log(q), math.log(u2), n) - u))
                    assert abs(oracle_invert_first_hop(q, u2, n) - u) <= 1e-9
        assert worst <= 1e-9, worst


def test_criterion_3_first_hop_oracle_agreement():
    """The per-unit first-hop loss matches the search oracle across q."""
    with criterion(3, "per-unit first-hop loss vs search"):
        for n in (100, 1000):
            for u2 in (1.0, 0.5):
                lo = u2 / n + (1.0 - 1.0 / n) / n  # q at u = 1/n
                for i in range(200):
                    q = lo + (u2 - lo) * i / 199
                    loss, oracle = _first_hop_loss(q, u2, n), oracle_first_hop_loss(q, u2, n)
                    err = abs(loss - oracle) / max(1.0, abs(oracle))
                    assert err <= 1e-6, (n, u2, q, err)


def test_criterion_4_chance_fixed_points():
    """Chance-level answers map to chance-level first-hop losses."""
    with criterion(4, "chance fixed points"):
        for n in (10, 100, 1000, 10_000):
            for q, u2 in ((1.0 / n, 1.0), (1.0 / n, 1.0 / n), (1.0, 1.0 / n)):
                # at chance: the question itself, or its second hop, which then shows nothing
                assert abs(_first_hop_loss(q, u2, n) - math.log(n)) <= 1e-12 * math.log(n)
            assert first_hop_group([], n).count == 0
            unseen = first_hop_group([math.inf] * 3, n).result()
            assert abs(unseen.mean_loss_nats - math.log(n)) <= 1e-12 * math.log(n)


def test_criterion_5_entropy_ordering_and_baseline():
    """Model entropies are ordered; baseline content reduces to name bits."""
    import random

    rng = random.Random(99)
    with criterion(5, "entropy ordering and uniform baseline"):
        for _ in range(20):
            n = rng.randint(10, 500)
            n_rel = rng.randint(2, 8)
            props = tuple(
                (f"p{i}", rng.randint(2, 5000)) for i in range(rng.randint(1, 4))
            )
            cfg = WorldConfig(
                n_profiles=n,
                first_names=n * 10,
                middle_names=50,
                last_names=60,
                relations=tuple(f"r{i}" for i in range(n_rel)),
                properties=props,
                seed=0,
            )
            e1 = dataset_entropy(cfg, None).total_bits
            rec = dataset_entropy(cfg, ModelKind.RECURRENT).total_bits
            two = dataset_entropy(cfg, ModelKind.TWO_FUNCTION).total_bits
            ind = dataset_entropy(cfg, ModelKind.INDEPENDENT).total_bits
            assert e1 == rec <= two <= ind
            name = name_selection_entropy(cfg.n_profiles, cfg.name_space_size)
            for kind in (None, *ModelKind):
                assert abs(baseline_content(cfg, kind) - name) <= 1e-6


def test_criterion_6_closed_loop_capacity(desk_world, desk_splits, tmp_path):
    """Simulated losses estimate back to the simulator's exact content."""
    kinds = (ModelKind.RECURRENT, ModelKind.TWO_FUNCTION, ModelKind.INDEPENDENT)
    log = tmp_path / "run.jsonl"
    with criterion(6, "closed-loop capacity recovery"):
        for kind in kinds:
            for level in (None, 0.25, 0.5, 0.9, 1.0):
                profile = ReliabilityProfile.homogeneous(desk_world.config, kind, level)
                est = _estimate_bits(desk_world, desk_splits, kind, profile, log)
                truth = ground_truth_content(desk_world, profile)
                assert abs(est - truth) <= 1e-9 * max(1.0, abs(truth)), (kind, level)
        for kind in kinds:
            profile = ReliabilityProfile.two_point(
                desk_world.config, kind, 0.3, 0.9, 0.5, seed=17
            )
            est = _estimate_bits(desk_world, desk_splits, kind, profile, log)
            truth = ground_truth_content(desk_world, profile)
            entropy = dataset_entropy(desk_world.config, kind).total_bits
            assert abs(est - truth) <= 1e-9 * max(1.0, abs(truth)), kind
            assert est <= entropy + 1e-6


def test_criterion_7_signature_closed_loop(desk_world, desk_holdout_splits):
    """Each simulated model classifies back to its own holdout signature."""
    baselines = uniform_baselines(desk_holdout_splits, desk_world.config)
    with criterion(7, "holdout signature closed loop"):
        expected = {
            ModelKind.INDEPENDENT: "independent",
            ModelKind.TWO_FUNCTION: "2f",
            ModelKind.RECURRENT: "recurrent",
        }
        for kind, label in expected.items():
            profile = ReliabilityProfile.trained(desk_world, desk_holdout_splits, kind)
            groups = summarize(loss_records(desk_world, profile, desk_holdout_splits))
            aggregates = {holdout: groups[f"two_hop/{holdout}"].result()
                          for holdout in HOLDOUT_KINDS}
            signature = evaluate_holdouts(aggregates, baselines)
            assert classify_algorithm(signature).value == label
            if kind is ModelKind.TWO_FUNCTION:
                assert signature.generalizes == {
                    k: (k == "heldout_full") for k in HOLDOUT_KINDS
                }


def test_criterion_8_trap_regime(trap_cfg, tmp_path):
    """Loss-weight arithmetic plus a budget sweep tracking the memo entropy."""
    with criterion(8, "trap-regime arithmetic and budget sweep"):
        assert loss_impact_ratio(10, 4) == 2.5
        world = generate_world(trap_cfg)
        split_set = build_splits(world, {}, mix_ratio=10, seed=3)
        kind = ModelKind.INDEPENDENT
        entropy = dataset_entropy(trap_cfg, kind).total_bits
        name = name_selection_entropy(trap_cfg.n_profiles, trap_cfg.name_space_size)
        fact_bits = entropy - name
        contents = []
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            budget = frac * fact_bits
            profile = allocate_budget(kind, budget, trap_cfg)
            est = _estimate_bits(world, split_set, kind, profile, tmp_path / "run.jsonl")
            predicted = name + min(budget, fact_bits)
            assert abs(est - predicted) <= 0.005 * max(1.0, predicted), frac
            assert est <= entropy + 1e-6
            contents.append(est)
        assert contents == sorted(contents)


def test_criterion_9_dataset_contracts(tmp_path):
    """Holdout soundness, one-hop completeness, and byte-identical regeneration."""
    cfg = WorldConfig(
        n_profiles=1000,
        relations=("mother", "father", "boss", "mentor", "rival"),
        properties=(("birth city", 1000), ("employer", 1000)),
        seed=11,
    )
    fractions = {kind: 0.01 for kind in HOLDOUT_KINDS}
    with criterion(9, "dataset contracts and regeneration"):
        paths = []
        for run in range(2):
            world = generate_world(cfg)
            split_set = build_splits(world, fractions, mix_ratio=10, seed=5)
            out = tmp_path / f"run{run}"
            persist_dataset(split_set, world, out)
            paths.append(out)

        for name in ("profiles.jsonl", "qa.jsonl", "manifest.json"):
            assert sha256_file(paths[0] / name) == sha256_file(paths[1] / name), name

        comp = {k: set(map(tuple, v)) for k, v in split_set.holdout_manifest.items()}
        space = split_set.space
        violations = 0
        one_hop = 0
        for key in split_set.train:
            e1, r_index, a_index = unpack(space, key)
            if r_index == space.n_relations:
                one_hop += 1
                continue
            r, a = cfg.relations[r_index], cfg.attributes[a_index]
            e2 = relation_target(world, e1, r)
            if (
                (e1,) in comp["heldout_e1"]
                or (r,) in comp["heldout_r"]
                or (e2,) in comp["heldout_e2"]
                or (a,) in comp["heldout_a"]
                or (e1, r) in comp["heldout_e1r"]
                or (e2, a) in comp["heldout_e2a"]
                or (e1, r, a) in comp["heldout_full"]
            ):
                violations += 1
        assert violations == 0
        assert one_hop == cfg.n_profiles * len(cfg.attributes)
        assert len(set(world.profiles)) == cfg.n_profiles


def test_criterion_10_capacity_overlay():
    """The 2 bits/param reference line and deterministic reference curves."""
    with criterion(10, "capacity-line overlay"):
        assert bits_per_parameter(2_000_000, 1_000_000) == 2.0
        points = [
            CapacityPoint("a", 10**5, "2f", "two-hop", 5e6, 4.3e6, 7e5, 7.0, 4e4),
            CapacityPoint("b", 10**6, "2f", "two-hop", 5e6, 3.1e6, 1.9e6, 1.9, 4e4),
        ]
        csv_text = capacity_table(points)
        svg1 = scaling_plot(csv_text)
        svg2 = scaling_plot(csv_text)
        assert svg1 == svg2
        assert svg1.count('class="reference"') == 3  # entropy, baseline, capacity
        assert svg1.count('class="series"') == 1
