"""Reference implementations that the tests hold the toolkit's fast paths to.

The numerical oracles solve the same equation as
``twohop.estimator.first_hop_reading`` by a search that shares no algebra
with it, and ``read_unit_content`` counts a log's content unit by unit.
``reference_validate`` joins a loss log one decoded line at a time.
``answer_prob``, ``pack``, ``unpack``, ``relation_target`` and
``presence_flags`` evaluate one question, key or fact directly, where the
toolkit reads tables, and ``reference_loss_table`` builds the answer-row
table and ``LossTable``'s row tables one ``(e1, r)`` row at a time; ``strict_two_function_total_bits`` is an entropy
variant that only tests compare against. ``reference_world`` draws a world
through ``random.Random``'s own methods, ``reference_split_table`` assigns
splits one ``(e1, r)`` block at a time, and ``reference_train_stream``
shuffles and interleaves lists. ``reference_first_fault`` names a data
file's first bad line from a decoded line-by-line walk.
``reference_classify`` names a model from three hand-written holdout patterns.
``block_lines`` reads the data-file blocks that the toolkit renders one line
at a time.
"""

import math
import random
from array import array
from itertools import zip_longest

from twohop.entropy import (ModelKind, _fact_bits_per_pass, attribute_entropy, dataset_entropy,
                            name_selection_entropy)
from twohop.estimator import EstimatorError
from twohop.generalization import EvaluationError, PresenceFlags
from twohop.logs import LogDiagnostics, _loss_rows
from twohop.worldgen import (_SPLIT_CODE, _TRAIN, HOLDOUT_KINDS, SPLITS, ConfigError, World,
                             load_dataset)


def reference_world(config) -> World:
    """``generate_world``: the names by ``rng.sample``, then each fact by ``rng.randrange``."""
    config.validate()
    rng = random.Random(config.seed)
    names = config.name_space_size
    profiles = array("Q", rng.sample(range(names), config.n_profiles))
    pools = [config.n_profiles] * len(config.relations) + [size for _, size in config.properties]
    facts = array("Q", (rng.randrange(pool) for _ in range(config.n_profiles) for pool in pools))
    return World(config, profiles, facts)


def reference_split_table(world, space, sets, mix_ratio: int) -> bytearray:
    """``split_table`` as a per-pair cascade: each ``(e1, r)`` block tested against every set.

    The holdout cascade: a two-hop question (e1, r, a), with e2 the target
    of (e1, r), goes to the first holdout set in HOLDOUT_KINDS order whose
    components hold e1, r, e2, a, (e1, r), (e2, a) or (e1, r, a). Any other
    two-hop question is train, or absent (0) when ``mix_ratio`` is 0. Every
    one-hop question is train. ``sets`` takes ``_sample_components``' form.
    """
    e1s, rs, e2s, held_a = (
        {value for (value,) in sets[kind]}
        for kind in ("heldout_e1", "heldout_r", "heldout_e2", "heldout_a")
    )
    e1r = sets["heldout_e1r"]
    e2a = {}
    for e2, a in sets["heldout_e2a"]:
        e2a.setdefault(e2, []).append(a)
    full = {}
    for e1, r_index, a in sets["heldout_full"]:
        full.setdefault((e1, r_index), []).append(a)
    code = _SPLIT_CODE

    n_attrs = space.n_attributes
    train = _TRAIN if mix_ratio else 0

    def row(fill: int) -> bytes:
        return bytes(code["heldout_a"] if a in held_a else fill for a in range(n_attrs))

    whole = {
        kind: bytes([code[kind]]) * n_attrs for kind in ("heldout_e1", "heldout_r", "heldout_e2")
    }
    plain_row, e1r_row = row(train), row(code["heldout_e1r"])
    one_hop_row = bytes([_TRAIN]) * n_attrs
    table = bytearray(space.size)
    facts = world.facts
    for e1 in range(space.n_profiles):
        start = e1 * space.per_entity
        for r_index in range(space.n_relations):
            e2 = facts[e1 * n_attrs + r_index]
            if e1 in e1s:
                block = whole["heldout_e1"]
            elif r_index in rs:
                block = whole["heldout_r"]
            elif e2 in e2s:
                block = whole["heldout_e2"]
            elif (e1, r_index) in e1r:
                block = e1r_row
            else:
                block = plain_row
                if e2 in e2a or (e1, r_index) in full:
                    block = bytearray(block)
                    # (e2, a) before (e1, r, a); heldout_a already took its attributes
                    for kind, attrs in (("heldout_e2a", e2a.get(e2, ())),
                                        ("heldout_full", full.get((e1, r_index), ()))):
                        for a in attrs:
                            if block[a] == train:
                                block[a] = code[kind]
            table[start : start + n_attrs] = block
            start += n_attrs
        table[start : start + n_attrs] = one_hop_row
    return table


def reference_train_stream(space, table, mix_ratio: int, rng) -> list[int]:
    """The train stream over split ``table``, by ``rng.shuffle`` and an append loop.

    The two-hop train keys and the one-hop keys are each shuffled, and one
    one-hop key follows every ``mix_ratio`` two-hop keys while both last;
    ``mix_ratio`` 0 keeps the one-hop keys only, unshuffled.
    """
    one_hop_key = lambda key: unpack(space, key)[1] == space.n_relations
    two = [k for k in range(space.size) if table[k] == _TRAIN and not one_hop_key(k)]
    one = [k for k in range(space.size) if one_hop_key(k)]
    if mix_ratio == 0:
        return one
    rng.shuffle(two)
    rng.shuffle(one)
    expected, taken = [], 0
    for i, key in enumerate(two):
        expected.append(key)
        if (i + 1) % mix_ratio == 0 and taken < len(one):
            expected.append(one[taken])
            taken += 1
    expected.extend(one[taken:])
    return expected


def answer_prob(profile, e1: int, r: int, a: int, e2: int) -> float:
    """Probability of the correct answer to question (e1, r, a) under ``profile``, on config indices.

    ``r = |R|`` is the one-hop question, with ``e2 = e1``; otherwise e2 is
    relation r's target of e1. For composing models, a first-hop miss
    falls back to a uniform guess over |N| entities, the fallback the
    first-hop reading assumes. A question that needs an unlearned unit is
    answered at chance 1/|V_a|. This is the reference for ``LossTable``,
    which gives the log of it for every question of a run.
    """
    n_relations, n_attrs = len(profile.config.relations), len(profile.chance)
    if profile.memo is not None:  # the memo model stores two-hop answers only
        p1 = 1.0
        p2 = None if r == n_relations else profile.memo[(e1 * n_relations + r) * n_attrs + a]
    else:
        first, second = (profile.hop1, profile.hop2) if profile.facts is None else (profile.facts,) * 2
        p1 = 1.0 if r == n_relations else first[e1 * n_attrs + r]
        p2 = second[e2 * n_attrs + a]
    if p1 is None or p2 is None:
        return profile.chance[a]
    return p1 * p2 + (1.0 - p1) / profile.config.n_profiles


def reference_loss_table(world, profile, space) -> tuple[list[int], list[int], list[int]]:
    """The answer-row table and ``LossTable``'s ``base`` and ``lead``, one ``(e1, r)`` row at a time.

    Row ``e1·(|R| + 1) + r`` is answered by e2, the target of e1's relation
    r, or by e1 itself in the one-hop row ``r = |R|``; the answer-row table
    holds ``e2·|A|``. So does a composing model's ``base``, and its ``lead``
    is twice the flag of the first-hop unit ``e1·|A| + r`` (0 for one-hop).
    The memo's row reads its units from ``(e1·|R| + r)·|A|``, a one-hop row
    from its entity's first, and its lead is 0.
    """
    n_relations, n_attrs = space.n_relations, space.n_attributes
    first = profile.hop1 if profile.facts is None else profile.facts
    rows, base, lead = [], [], []
    for e1 in range(space.n_profiles):
        for r in range(n_relations + 1):
            one_hop = r == n_relations
            e2 = e1 if one_hop else world.facts[e1 * n_attrs + r]
            rows.append(e2 * n_attrs)
            if profile.memo is None:
                base.append(e2 * n_attrs)
                lead.append(0 if one_hop else 2 * first.flags[e1 * n_attrs + r])
            else:
                base.append((e1 * n_relations + (0 if one_hop else r)) * n_attrs)
                lead.append(0)
    return rows, base, lead


def pack(space, e1: int, r_index: int, a_index: int) -> int:
    """The key of question (e1, r_index, a_index) in ``space``; ``unpack`` is its inverse."""
    return (e1 * (space.n_relations + 1) + r_index) * space.n_attributes + a_index


def unpack(space, key: int) -> tuple[int, int, int]:
    """``(e1, r_index, a_index)`` of a key of ``space``; ``r_index == n_relations`` for one-hop."""
    e1, rest = divmod(key, space.per_entity)
    r_index, a_index = divmod(rest, space.n_attributes)
    return e1, r_index, a_index


def relation_target(world, e1: int, relation: str) -> int:
    """The entity that ``relation`` of entity e1 names in ``world``."""
    relations = world.config.relations
    if relation not in relations:
        raise ConfigError(f"unknown relation: {relation!r}")
    return world.facts[e1 * len(world.config.attributes) + relations.index(relation)]


def presence_flags(world, split_set, index, e1: int, r: str, a: str) -> PresenceFlags:
    """Exact membership flags for the two-hop question (e1, r, a), from ``split_set``'s ``TrainIndex``."""
    space = split_set.space
    if not 0 <= e1 < space.n_profiles:
        raise EvaluationError(f"unknown entity: {e1}")
    if r not in space.relations or a not in space.attributes:
        raise EvaluationError(f"no two-hop question asks {r!r} then {a!r}")
    r_index, a_index = space.relations.index(r), space.attributes.index(a)
    first = e1 * space.n_attributes + r_index
    second = world.facts[first] * space.n_attributes + a_index
    return PresenceFlags(
        facts_one_hop_present=True,  # split_table puts every one-hop question in train
        first_hop_pair_present=bool(index.hop1[first]),
        second_hop_pair_present=bool(index.hop2[second]),
        full_question_present=split_set.table[pack(space, e1, r_index, a_index)] == _TRAIN,
    )


def reference_classify(signature) -> ModelKind | None:
    """The model whose holdout pattern ``signature.generalizes`` is, written out per model.

    Independent memorization generalizes to no holdout set, two-function
    composition to ``heldout_full`` alone, recurrent composition to all.
    """
    missing = [k for k in HOLDOUT_KINDS if k not in signature.generalizes]
    if missing:
        raise EvaluationError(f"signature incomplete, missing: {missing}")
    flags = signature.generalizes
    if not any(flags.values()):
        return ModelKind.INDEPENDENT
    if all(flags.values()):
        return ModelKind.RECURRENT
    if flags["heldout_full"] and not any(v for k, v in flags.items() if k != "heldout_full"):
        return ModelKind.TWO_FUNCTION
    return None


def strict_two_function_total_bits(config) -> float:
    """Two-function entropy counting only relations in the first pass.

    The as-written formula doubles the full attribute sum even though first
    hops can only be relations; this variant is reported for comparison.
    """
    name_bits = name_selection_entropy(config.n_profiles, config.name_space_size)
    # a relation's answer pool is the n_profiles entities
    relation_bits = config.n_profiles * sum(
        attribute_entropy(config.n_profiles) for _ in config.relations
    )
    return name_bits + relation_bits + _fact_bits_per_pass(config)


def _check_q_range(q: float, u2: float, n: int, slack: float = 1e-9) -> float:
    """Validate q against the range [u2/n + (1 - 1/n)/n, u2] of q = u*u2 + (1-u)/n on u in [1/n, 1]."""
    lo, hi = u2 / n + (1.0 - 1.0 / n) / n, u2
    if q < lo - slack * lo or q > hi + slack:
        raise EstimatorError(f"q = {q} outside [{lo}, {hi}]")
    return min(hi, max(lo, q))


def oracle_invert_first_hop(q: float, u2: float, n: int, tol: float = 1e-12) -> float:
    """Bisection solve of q = u*u2 + (1-u)/n on [1/n, 1] for u2 > 1/n, independent of the closed form."""
    q = _check_q_range(q, u2, n)

    def residual(u: float) -> float:
        return u * u2 + (1.0 - u) / n - q

    lo, hi = 1.0 / n, 1.0
    # residual is increasing in u when u2 > 1/n; bisect down to float resolution
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    u = 0.5 * (lo + hi)
    if abs(residual(u)) > tol:
        raise EstimatorError(f"bisection failed to reach residual {tol} at q={q}")
    return u


def oracle_first_hop_loss(q: float, u2: float, n: int) -> float:
    """Grid-plus-refinement search for the first-hop loss -ln u that composes to q with u2.

    Scans u over [1/n, 1] for the least |u*u2 + (1-u)/n - q| and refines
    around the best grid point.
    """
    q = _check_q_range(q, u2, n)
    lo, hi, grid = 1.0 / n, 1.0, 64
    best = lo
    for _ in range(40):
        step = (hi - lo) / grid
        best = min((lo + i * step for i in range(grid + 1)),
                   key=lambda u: abs(u * u2 + (1.0 - u) / n - q))
        lo, hi = max(1.0 / n, best - step), min(1.0, best + step)
        if hi - lo < 1e-15:
            break
    return -math.log(best)


def read_unit_content(world, profile, split_set) -> float:
    """Exact content in bits of the units some loss of ``split_set``'s log depends on.

    It is ``ground_truth_content`` with each unit that no answer depends on
    counted at chance: a memo unit whose question the dataset lacks, a
    two-function first hop to a property, and a first hop (e1, r) none of
    whose questions (e1, r, a) with a relation a is in the dataset with a
    second hop (e2, a) above chance 1/n; each answer is ``answer_prob``'s.
    """
    cfg, space = world.config, split_set.space
    n, n_relations, n_attrs = cfg.n_profiles, len(cfg.relations), len(cfg.attributes)
    loss = 0.0
    for e1 in range(n):
        for a in range(n_attrs):
            for r in range(n_relations):
                e2 = world.facts[e1 * n_attrs + r]
                question = split_set.table[pack(space, e1, r, a)]
                if profile.memo is not None:  # a memo unit per two-hop question
                    q = answer_prob(profile, e1, r, a, e2) if question else profile.chance[a]
                    loss -= math.log2(q)
                elif profile.hop1 is not None and a == 0:  # the first hop (e1, r), once
                    p1 = profile.hop1[e1 * n_attrs + r]
                    seen = any(split_set.table[pack(space, e1, r, b)]
                               and (profile.hop2[e2 * n_attrs + b] or 0.0) > 1.0 / n
                               for b in range(n_relations))
                    loss -= math.log2(p1 if seen and p1 is not None else 1.0 / n)
            if profile.memo is None:  # the one-hop question reads (e1, a) of the one table
                loss -= math.log2(answer_prob(profile, e1, n_relations, a, e1))
    if profile.hop1 is not None:  # the first hops to properties, at chance
        loss += n * sum(math.log2(pool) for pool in cfg.pools[n_relations:])
    return dataset_entropy(cfg, profile.model_kind).total_bits - loss


def reference_validate(log_path, dataset_dir) -> LogDiagnostics:
    """``validate_loss_log`` as a per-line join: every line decoded and joined through its qid."""
    split_set, _ = load_dataset(dataset_dir)
    totals = split_set.counts()
    space, table = split_set.space, split_set.table

    diag = LogDiagnostics(n_records=0)
    seen = bytearray(len(table))
    unknown_seen = set()
    covered = dict.fromkeys(totals, 0)
    for lineno, (qid, rec_split, rec_kind, x) in _loss_rows(log_path):
        diag.n_records += 1
        if x > 0:
            diag.positive_logprobs.append((lineno, qid))
        key = space.key_of_qid(qid)
        code = 0 if key is None else table[key]
        if not code:
            diag.unknown_qids.append(qid)
            repeat = qid in unknown_seen
            unknown_seen.add(qid)
        else:
            repeat = seen[key]
            seen[key] = 1
            split, kind = SPLITS[code - 1], space.entries[key % space.per_entity].kind
            if rec_split != split or rec_kind != kind:
                diag.mislabeled.append((lineno, qid, split, kind))
        if repeat:
            diag.duplicate_qids.append(qid)
        elif code:
            covered[split] += 1

    for split, total in totals.items():
        if total:
            diag.coverage[split] = covered[split] / total
            if not covered[split]:
                diag.missing_splits.append(split)
    return diag


def reference_first_fault(path, lines, row: str, name_row) -> str | None:
    """The message naming the first line of the file at ``path`` that is not ``lines``' line, or None.

    The file is decoded one line at a time and walked beside ``lines``.
    Line ends are kept as written and undecodable bytes become U+FFFD, so a
    ``\\r\\n`` or a bad byte differs from the expected line instead of passing
    or failing unnamed.
    """
    with open(path, encoding="utf-8", errors="replace", newline="") as f:
        pairs = enumerate(zip_longest(f, lines), 1)
        for lineno, (line, want) in pairs:
            if line == want:
                continue
            if line is None:
                total = lineno + sum(1 for _ in pairs)
                return f"{path}:{lineno}: missing {row} row ({total} expected)"
            if want is None:
                return f"{path}:{lineno}: extra row"
            return f"{path}:{lineno}: not the canonical row of {name_row(want)}"
    return None


def block_lines(blocks):
    """Each line of ``(number of lines, bytes)`` blocks, as text; each block's count is checked."""
    for n, data in blocks:
        # JSON escapes every control character, so only \n ends a rendered line
        lines = data.decode("ascii").splitlines(keepends=True)
        assert len(lines) == n and data.endswith(b"\n"), (n, data[-80:])
        yield from lines
