"""Reference implementations that the tests hold the toolkit's fast paths to.

The numerical oracles solve the same equations as ``twohop.estimator``'s
closed forms by a search that shares no algebra with them.
``reference_validate`` joins a loss log one decoded line at a time.
``answer_prob``, ``pack``, ``unpack``, ``relation_target`` and
``presence_flags`` evaluate one question, key or fact directly, where the
toolkit reads tables; ``strict_two_function_total_bits`` is an entropy
variant that only tests compare against.
"""

import math

from twohop.entropy import _fact_bits_per_pass, attribute_entropy, name_selection_entropy
from twohop.estimator import EstimatorError
from twohop.generalization import EvaluationError, PresenceFlags
from twohop.logs import LogDiagnostics, _loss_rows
from twohop.worldgen import _TRAIN, SPLITS, ConfigError, load_dataset


def answer_prob(profile, e1: int, r: int, a: int, e2: int) -> float:
    """Probability of the correct answer to question (e1, r, a) under ``profile``, on config indices.

    ``r = |R|`` is the one-hop question, with ``e2 = e1``; otherwise e2 is
    relation r's target of e1. For composing models, a first-hop miss
    falls back to a uniform guess over |N| entities, the fallback both
    inversions assume. A question that needs an unlearned unit is
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


def presence_flags(index, e1: int, r: str, a: str) -> PresenceFlags:
    """Exact membership flags for the two-hop question (e1, r, a), from a ``TrainIndex``."""
    space = index.space
    if not 0 <= e1 < space.n_profiles:
        raise EvaluationError(f"unknown entity: {e1}")
    if r not in space.relations or a not in space.attributes:
        raise EvaluationError(f"no two-hop question asks {r!r} then {a!r}")
    r_index, a_index = space.relations.index(r), space.attributes.index(a)
    first = e1 * space.n_attributes + r_index
    second = index.facts[first] * space.n_attributes + a_index
    return PresenceFlags(
        facts_one_hop_present=True,  # split_table puts every one-hop question in train
        first_hop_pair_present=bool(index.hop1[first]),
        second_hop_pair_present=bool(index.hop2[second]),
        full_question_present=index.table[pack(space, e1, r_index, a_index)] == _TRAIN,
    )


def strict_two_function_total_bits(config) -> float:
    """Two-function entropy counting only relations in the first pass.

    The as-written formula doubles the full attribute sum even though first
    hops can only be relations; this variant is reported for comparison.
    """
    name_bits = name_selection_entropy(config.n_profiles, config.name_space_size)
    relation_bits = config.n_profiles * sum(
        attribute_entropy(config.pool_size(r)) for r in config.relations
    )
    return name_bits + relation_bits + _fact_bits_per_pass(config)


def _check_q_range(q: float, n: int, slack: float = 1e-9) -> float:
    """Validate q against [1/n, 1], absorbing float rounding at the endpoints."""
    lo = 1.0 / n
    if q < lo - slack * lo or q > 1.0 + slack:
        raise EstimatorError(f"q = {q} outside [1/{n}, 1]")
    return min(1.0, max(lo, q))


def oracle_invert_recurrent(q: float, n: int, tol: float = 1e-12) -> float:
    """Bisection solve of q = u^2 + (1-u)/n on [1/n, 1], independent of the closed form."""
    q = _check_q_range(q, n)

    def residual(u: float) -> float:
        return u * u + (1.0 - u) / n - q

    lo, hi = 1.0 / n, 1.0
    # residual is increasing in u on [1/n, 1]; bisect down to float resolution,
    # which leaves the residual far below tol even where the slope is flat
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


def oracle_two_function_loss(q: float, n: int) -> tuple[float, float, float]:
    """Grid-plus-refinement search for the conservative hop split.

    Scans p1 over its feasible range (p2 = (q - (1-p1)/n)/p1 within
    [1/n, 1]) and refines around the feasible point of minimal joint
    probability, i.e. maximal summed loss. Returns (p1, p2, summed loss).
    """
    inv_n = 1.0 / n
    q = _check_q_range(q, n)
    feas_eps = 1e-9

    def p2_of(p1: float) -> float:
        return (q - (1.0 - p1) / n) / p1

    def summed_loss(p1: float) -> float | None:
        p2 = p2_of(p1)
        if p2 < inv_n - feas_eps or p2 > 1.0 + feas_eps:
            return None
        p2 = min(1.0, max(inv_n, p2))
        return -math.log(p1) - math.log(p2)

    lo, hi = inv_n, 1.0
    best_p1 = None
    grid = 64
    for _ in range(14):
        step = (hi - lo) / grid
        best_val = None
        best_idx = None
        for i in range(grid + 1):
            p1 = lo + i * step
            val = summed_loss(p1)
            if val is not None and (best_val is None or val > best_val):
                best_val, best_idx = val, i
        if best_idx is None:
            raise EstimatorError(f"no feasible hop split for q = {q}")
        best_p1 = lo + best_idx * step
        lo = max(inv_n, best_p1 - step)
        hi = min(1.0, best_p1 + step)
        if hi - lo < 1e-15:
            break
    p2 = min(1.0, max(inv_n, p2_of(best_p1)))
    return best_p1, p2, -math.log(best_p1) - math.log(p2)


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
