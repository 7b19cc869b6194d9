import hashlib
import json
import math
import random
import tempfile
import tracemalloc
from array import array
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_lines,
    pack,
    reference_first_fault,
    reference_split_table,
    reference_train_stream,
    reference_world,
    relation_target,
    unpack,
)

from twohop.entropy import ModelKind
from twohop.simulate import ReliabilityProfile, loss_records
from twohop.worldgen import (
    DEFAULT_PROPERTIES,
    DEFAULT_RELATIONS,
    HOLDOUT_KINDS,
    SPLITS,
    ConfigError,
    DatasetIOError,
    HashMismatchError,
    KeySpace,
    QuestionKind,
    WorldConfig,
    _CHUNK_BYTES,
    _COMPONENT_FIELDS,
    _first_fault,
    _sample_components,
    _shuffle,
    build_splits,
    generate_world,
    load_dataset,
    persist_dataset,
    profile_lines,
    question_lines,
    split_table,
)


def _world_bytes(world):
    return world.profiles.tobytes() + world.facts.tobytes()


def _fact(world, entity, attribute):
    """Entity's value of an attribute: an entity id or a value index."""
    attributes = world.config.attributes
    return world.facts[entity * len(attributes) + attributes.index(attribute)]


def _questions(split_set, keys):
    """(e1, r, a) of each key, with r and a as names and r None for one-hop."""
    space = split_set.space
    for key in keys:
        e1, r, a = unpack(space, key)
        yield e1, space.relations[r] if r < space.n_relations else None, space.attributes[a]


def _all_keys(split_set):
    return [key for _, keys in split_set.splits() for key in keys]


# Traced memory a world keeps per fact: 4 B for its value plus a share of
# its entity's 8 B name, 6 B in all at 4 attributes, with headroom
BYTES_PER_FACT = 16


class TestWorldGeneration:
    def test_deterministic(self, micro_cfg, micro_world):
        again = generate_world(micro_cfg)
        assert _world_bytes(again) == _world_bytes(micro_world)

    def test_different_seed_differs(self, micro_cfg, micro_world):
        other = generate_world(micro_cfg._replace(seed=micro_cfg.seed + 1))
        assert _world_bytes(other) != _world_bytes(micro_world)

    def test_names_unique(self, micro_world):
        names = {micro_world.name_indices(e) for e in range(micro_world.config.n_profiles)}
        assert len(names) == len(micro_world.profiles) == micro_world.config.n_profiles

    def test_name_space_too_small(self):
        cfg = WorldConfig(n_profiles=100, first_names=4, middle_names=5, last_names=4)
        with pytest.raises(ConfigError):
            generate_world(cfg)

    def test_duplicate_attribute_names_rejected(self):
        cfg = WorldConfig(n_profiles=10, relations=("boss",), properties=(("boss", 5),))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_profiles", True),
            ("seed", 1.5),
            ("relations", "mother"),
            ("relations", ["mother", 1]),
            ("properties", [["birth city", "10"]]),
            ("properties", [["birth city"]]),
            ("properties", {"birth city": 10}),
        ],
    )
    def test_from_dict_rejects_wrong_types(self, micro_cfg, key, value):
        data = micro_cfg.to_dict()
        assert WorldConfig.from_dict(data) == micro_cfg
        with pytest.raises(ConfigError, match=key):
            WorldConfig.from_dict({**data, key: value})

    def test_pools(self, micro_cfg):
        pools = dict(zip(micro_cfg.attributes, micro_cfg.pools, strict=True))
        assert pools["mother"] == micro_cfg.n_profiles
        assert pools["birth city"] == 10

    def test_world_is_fact_sized(self):
        # what a world keeps is a few bytes per (entity, attribute) fact: its
        # values in one array and each entity's packed name. At this shape
        # (2 relations, 2 properties) an object per profile with a dict per
        # role cost 182 B per fact.
        for n_profiles in (2000, 8000):
            cfg = WorldConfig(n_profiles=n_profiles, relations=DEFAULT_RELATIONS[:2],
                              properties=DEFAULT_PROPERTIES[:2], seed=1)
            tracemalloc.start()
            try:
                world = generate_world(cfg)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            facts = n_profiles * len(cfg.attributes)
            assert len(world.facts) == facts
            assert kept / facts <= BYTES_PER_FACT, (n_profiles, kept / facts)

    def test_no_systematic_inverse_relations(self):
        # parent-of composed with child-of should invert only by chance (~1/|N|)
        cfg = WorldConfig(
            n_profiles=1000,
            relations=("parent", "child"),
            properties=(("birth city", 10),),
            seed=3,
        )
        w = generate_world(cfg)
        hits = sum(
            1
            for e in range(cfg.n_profiles)
            if relation_target(w, relation_target(w, e, "parent"), "child") == e
        )
        # Binomial(1000, 1/1000): mean 1, sd ~1; anything under 7 is unremarkable
        assert hits <= 7


def _rows(world, cot=False):
    """Every question's qa.jsonl row, decoded, by qid."""
    ss = build_splits(world, {}, mix_ratio=10, seed=1, cot=cot)
    return {row["qid"]: row for row in map(json.loads, block_lines(question_lines(world, ss)))}


class TestRendering:
    def test_one_hop_template(self, micro_world):
        row = _rows(micro_world)["1h:0:birth city"]
        name = micro_world.entity_name(0)
        assert row["text"] == f"What was {name}'s birth city? {row['answer']}"
        assert row["e2"] is None

    def test_two_hop_template(self, micro_world):
        row = _rows(micro_world)["2h:0:mother:birth city"]
        name = micro_world.entity_name(0)
        assert row["text"] == f"What was {name}'s mother's birth city? {row['answer']}"
        assert row["e2"] == relation_target(micro_world, 0, "mother")
        assert row["answer"] == _answer(micro_world, row["e2"], "birth city")

    def test_cot_template(self, micro_world):
        row = _rows(micro_world, cot=True)["2h:0:boss:birth city"]
        assert row["kind"] == QuestionKind.TWO_HOP_COT.value
        name = micro_world.entity_name(0)
        e2_name = micro_world.entity_name(row["e2"])
        assert row["text"] == (
            f"What was {name}'s boss's birth city? "
            f"{name}'s boss was {e2_name}. {e2_name}'s birth city was {row['answer']}."
        )

    def test_cot_self_loop(self, micro_cfg):
        # an entity may be its own relation target; the trace then names it twice.
        # The edit goes to a world of its own: the shared one must stay the
        # config's, or persisting it writes a dataset that does not load.
        world = generate_world(micro_cfg)
        father = micro_cfg.attributes.index("father")
        world.facts[5 * len(micro_cfg.attributes) + father] = 5
        name = world.entity_name(5)
        row = _rows(world, cot=True)["2h:5:father:birth city"]
        assert f"{name}'s father was {name}." in row["text"]

    def test_relation_answer_is_a_name(self, micro_world):
        target = relation_target(micro_world, 1, "mother")
        answer = _rows(micro_world)["1h:1:mother"]["answer"]
        assert answer == micro_world.entity_name(target)

    def test_bad_queries(self, micro_world):
        # a question is a key of the world's key space; a qid that names an
        # unknown attribute or entity, or a one-hop question with a first
        # relation or a two-hop one without, has no key
        space = KeySpace(micro_world.config, cot=False)
        for qid in ("1h:0:nope", "1h:1000000:mother", "1h:0:mother:birth city",
                    "2h:0:birth city", "2h:0:birth city:mother"):
            assert space.key_of_qid(qid) is None, qid
        with pytest.raises(ValueError):
            relation_target(micro_world, 0, "birth city")

    def test_item_is_its_key(self, micro_world):
        # a question stores only its key; e2, answer and text are rendered.
        # Every split is an array of packed keys, and a key is its (e1, r, a)
        ss = build_splits(micro_world, {"heldout_full": 0.05}, mix_ratio=10, seed=1)
        space = ss.space
        for _, keys in ss.splits():
            assert type(keys) is array and keys.typecode == space.typecode
        for key in _all_keys(ss):
            assert pack(space, *unpack(space, key)) == key
            ((e1, r, a),) = _questions(ss, [key])
            qid = f"1h:{e1}:{a}" if r is None else f"2h:{e1}:{r}:{a}"
            assert space.key_of_qid(qid) == key


class TestSplits:
    def test_one_hop_complete(self, micro_world):
        ss = build_splits(micro_world, {}, mix_ratio=10, seed=1)
        cfg = micro_world.config
        one_hop = {(e1, a) for e1, r, a in _questions(ss, ss.train) if r is None}
        assert len(one_hop) == cfg.n_profiles * len(cfg.attributes)

    def test_no_holdouts_means_all_two_hops_in_train(self, micro_world):
        ss = build_splits(micro_world, {}, mix_ratio=10, seed=1)
        cfg = micro_world.config
        two_hop = [q for q in _questions(ss, ss.train) if q[1] is not None]
        assert len(two_hop) == cfg.n_profiles * len(cfg.relations) * len(cfg.attributes)
        assert all(not v for v in ss.heldout.values())

    def test_mix_ratio_zero_keeps_one_hop_only(self, micro_world):
        ss = build_splits(micro_world, {}, mix_ratio=0, seed=1)
        assert all(r is None for _, r, _ in _questions(ss, ss.train))

    def test_interleaving_cadence(self, micro_world):
        ss = build_splits(micro_world, {}, mix_ratio=10, seed=1)
        one_hop = [r is None for _, r, _ in _questions(ss, ss.train)]
        # the first 11 items follow the 10:1 cadence exactly
        assert one_hop[:11] == [False] * 10 + [True]

    @pytest.mark.parametrize("mix_ratio", [1, 2, 3, 10, 2000])
    def test_interleave_matches_reference(self, micro_world, mix_ratio):
        # the append loop below is the reference for the in-place interleave:
        # one-hop keys run out first at mix_ratio 1 and 2, two-hop at 3 and
        # 10, and no one-hop key fits between two-hop runs at 2000
        fractions = {"heldout_full": 0.1}
        ss = build_splits(micro_world, fractions, mix_ratio=mix_ratio, seed=3)
        rng = random.Random(3)
        _sample_components(micro_world, fractions, rng)
        assert list(ss.train) == reference_train_stream(ss.space, ss.table, mix_ratio, rng)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**64))
    @pytest.mark.parametrize("typecode", ["I", "Q"])
    def test_shuffle_is_random_shuffle(self, typecode, seed):
        # the train shuffle draws what random.Random.shuffle draws: the same
        # permutation and the same generator state after it, across the
        # ends of the runs of equal bit length (2, 4, ..., 2**16)
        base = 1 << 40 if typecode == "Q" else 0  # Q keys past what I holds
        for n in (*range(301), (1 << 16) + 3):
            keys = array(typecode, range(base, base + n))
            expected, reference = list(keys), random.Random(seed)
            reference.shuffle(expected)
            rng = random.Random(seed)
            _shuffle(keys, rng)
            assert list(keys) == expected, n
            assert rng.getstate() == reference.getstate(), n

    def test_heldout_relation_removes_it_from_train_two_hops(self, micro_world):
        ss = build_splits(micro_world, {"heldout_r": 0.34}, mix_ratio=10, seed=2)
        held = {r for (r,) in map(tuple, ss.holdout_manifest["heldout_r"])}
        assert len(held) == math.ceil(0.34 * 3)
        for _, r, _ in _questions(ss, ss.train):
            assert r not in held
        # the underlying facts stay present as one-hop questions
        one_hop_attrs = {a for _, r, a in _questions(ss, ss.train) if r is None}
        assert held <= one_hop_attrs

    def test_holdout_priority_order(self, micro_world):
        # an item matching several holdout components lands in the first one
        ss = build_splits(
            micro_world,
            {"heldout_e1": 0.05, "heldout_full": 0.05},
            mix_ratio=10,
            seed=2,
        )
        held_e1 = {e for (e,) in map(tuple, ss.holdout_manifest["heldout_e1"])}
        for e1, _, _ in _questions(ss, ss.heldout["heldout_full"]):
            assert e1 not in held_e1

    def test_two_hop_answer_consistency(self, micro_world):
        ss = build_splits(micro_world, {"heldout_full": 0.01}, mix_ratio=10, seed=2)
        questions = _questions(ss, _all_keys(ss)[:500])
        for (e1, r, a), line in zip(questions, block_lines(question_lines(micro_world, ss))):
            if r is None:
                continue
            e2 = relation_target(micro_world, e1, r)
            row = json.loads(line)
            assert row["e2"] == e2
            assert row["answer"] == _answer(micro_world, e2, a)

    def test_exhausting_fraction_rejected(self, micro_world):
        with pytest.raises(ConfigError):
            build_splits(micro_world, {"heldout_r": 0.99}, mix_ratio=10, seed=2)
        with pytest.raises(ConfigError):
            build_splits(micro_world, {"nope": 0.1}, mix_ratio=10, seed=2)
        with pytest.raises(ConfigError):
            build_splits(micro_world, {}, mix_ratio=-1, seed=2)

    def test_cot_flag(self, micro_world):
        ss = build_splits(micro_world, {}, mix_ratio=10, seed=1, cot=True)
        assert ss.space.two_hop_kind is QuestionKind.TWO_HOP_COT
        kinds = {json.loads(line)["kind"] for line in block_lines(question_lines(micro_world, ss))}
        assert kinds == {QuestionKind.ONE_HOP.value, QuestionKind.TWO_HOP_COT.value}


class TestPersistence:
    def test_round_trip(self, micro_world, tmp_path):
        ss = build_splits(micro_world, {"heldout_full": 0.02}, mix_ratio=10, seed=4)
        manifest = persist_dataset(ss, micro_world, tmp_path)
        loaded_ss, loaded_world = load_dataset(tmp_path)
        assert _world_bytes(loaded_world) == _world_bytes(micro_world)
        lines = list(block_lines(question_lines(micro_world, ss)))
        assert list(block_lines(question_lines(loaded_world, loaded_ss))) == lines
        assert (tmp_path / "qa.jsonl").read_text().splitlines(keepends=True) == lines
        assert manifest["counts"]["train"] == len(ss.train)
        assert loaded_ss.params["mix_ratio"] == 10

    def test_loaded_items_share_names(self, micro_world, tmp_path):
        # a loaded split holds packed keys, no decoded object per question:
        # names come from the config alone, through the key space
        ss = build_splits(micro_world, {"heldout_full": 0.02}, mix_ratio=10, seed=4)
        persist_dataset(ss, micro_world, tmp_path)
        loaded_ss, world = load_dataset(tmp_path)
        space = loaded_ss.space
        assert space.relations is world.config.relations
        assert space.attributes is world.config.attributes
        for (split, keys), (_, built) in zip(loaded_ss.splits(), ss.splits(), strict=True):
            assert type(keys) is array and keys.typecode == space.typecode, split
            assert keys == built, split

    def test_world_not_from_config_rejected(self, micro_cfg, tmp_path):
        # one in-range relation target changed: the dataset is not the one its
        # config describes, and the first profile row that differs is named
        world = generate_world(micro_cfg)
        mother = 3 * len(micro_cfg.attributes) + micro_cfg.attributes.index("mother")
        world.facts[mother] = (world.facts[mother] + 1) % micro_cfg.n_profiles
        ss = build_splits(world, {}, mix_ratio=10, seed=4)
        persist_dataset(ss, world, tmp_path)
        with pytest.raises(DatasetIOError, match=r"profiles\.jsonl:4:"):
            load_dataset(tmp_path)

    def test_tamper_detection(self, micro_world, tmp_path):
        ss = build_splits(micro_world, {}, mix_ratio=10, seed=4)
        persist_dataset(ss, micro_world, tmp_path)
        qa = tmp_path / "qa.jsonl"
        qa.write_text(qa.read_text().replace("birth_city", "birth_town"))
        with pytest.raises(HashMismatchError):
            load_dataset(tmp_path)


def _answer(world, entity, attribute):
    """The rendered answer of the one-hop fact (entity, attribute)."""
    if attribute in world.config.relations:
        return world.entity_name(relation_target(world, entity, attribute))
    return world.value_string(attribute, _fact(world, entity, attribute))


def _reference_row(world, split_set, split, key):
    """A question's qa.jsonl row as a dict, rendered from the templates."""
    ((e1, r, a),) = _questions(split_set, [key])
    kind = QuestionKind.ONE_HOP if r is None else split_set.space.two_hop_kind
    name = world.entity_name(e1)
    if r is None:
        qid = f"1h:{e1}:{a}"
        e2 = None
        answer = _answer(world, e1, a)
        text = f"What was {name}'s {a}? {answer}"
    else:
        qid = f"2h:{e1}:{r}:{a}"
        e2 = relation_target(world, e1, r)
        answer = _answer(world, e2, a)
        text = f"What was {name}'s {r}'s {a}? "
        if kind is QuestionKind.TWO_HOP:
            text += answer
        else:
            e2_name = world.entity_name(e2)
            text += f"{name}'s {r} was {e2_name}. {e2_name}'s {a} was {answer}."
    return {"qid": qid, "kind": kind.value, "e1": e1, "r": r, "a": a, "e2": e2,
            "answer": answer, "text": text, "split": split}


# Attribute names with what JSON must escape or may pass through: quotes,
# backslashes, control characters, spaces and non-ASCII text, and the '%'
# that a profile line's format string escapes. ':' separates qid fields, so
# no name holds one.
name_chars = st.sampled_from('"\\ %\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
name_chars |= st.characters(blacklist_characters=":")


@st.composite
def named_worlds(draw):
    names = draw(st.lists(st.text(name_chars, max_size=5), min_size=2, max_size=5, unique=True))
    n_relations = draw(st.integers(1, len(names) - 1))
    properties = tuple((name, draw(st.integers(1, 4))) for name in names[n_relations:])
    cfg = WorldConfig(n_profiles=6, first_names=3, middle_names=3, last_names=3,
                      relations=tuple(names[:n_relations]), properties=properties,
                      seed=draw(st.integers(0, 5)))
    return generate_world(cfg)


@settings(max_examples=60, deadline=None)
@given(world=named_worlds(), cot=st.booleans(), mix_ratio=st.sampled_from((0, 1, 3)))
def test_question_lines_are_encoder_bytes(world, cot, mix_ratio):
    # a line is the encoder's bytes for the row the templates give, a profile
    # line the encoder's bytes for the profile's row, and gen then load gives
    # the same world and questions back; mix ratio 0 leaves train no two-hop
    # row, and 1 alternates one-hop rows with single two-hop rows
    cfg = world.config
    for e, line in zip_longest(range(cfg.n_profiles), block_lines(profile_lines(world))):
        first, rest = divmod(world.profiles[e], cfg.middle_names * cfg.last_names)
        middle, last = divmod(rest, cfg.last_names)
        row = {"id": e, "first": first, "middle": middle, "last": last,
               "relations": {r: _fact(world, e, r) for r in cfg.relations},
               "properties": {p: _fact(world, e, p) for p in cfg.property_names}}
        assert line == json.dumps(row, sort_keys=True) + "\n"
    fractions = dict.fromkeys(HOLDOUT_KINDS, 0.2)
    if len(world.config.relations) == 1:
        del fractions["heldout_r"]  # one relation cannot be held out
    ss = build_splits(world, fractions, mix_ratio=mix_ratio, seed=1, cot=cot)
    lines = list(block_lines(question_lines(world, ss)))
    assert len(lines) == sum(ss.counts().values())
    # the loss log carries each question's qid and kind, and the qid leads
    # back to the question's key
    profile = ReliabilityProfile.homogeneous(cfg, ModelKind.RECURRENT, None)
    records = loss_records(world, profile, ss)
    questions = ((split, key) for split, keys in ss.splits() for key in keys)
    for (split, key), line, record in zip_longest(questions, lines, records):
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
        row = _reference_row(world, ss, split, key)
        assert line == json.dumps(row, sort_keys=True) + "\n"
        assert record[:3] == (row["qid"], split, row["kind"])
        assert ss.space.key_of_qid(row["qid"]) == key
    with tempfile.TemporaryDirectory() as tmp:
        persist_dataset(ss, world, tmp)
        loaded_ss, loaded_world = load_dataset(tmp)
    assert _world_bytes(loaded_world) == _world_bytes(world)
    assert list(block_lines(question_lines(loaded_world, loaded_ss))) == lines


# Edits of a data file: each takes the file's bytes, an offset in them, a
# byte value and the slice of the line that holds the offset, and gives the
# edited bytes.
FILE_EDITS = {
    "none": lambda data, i, b, line: data,
    "flip": lambda data, i, b, line: data[:i] + bytes([data[i] ^ (b or 1)]) + data[i + 1:],
    "insert": lambda data, i, b, line: data[:i] + bytes([b]) + data[i:],
    "delete": lambda data, i, b, line: data[:i] + data[i + 1:],
    "truncate": lambda data, i, b, line: data[:i],
    "truncate_at_line": lambda data, i, b, line: data[:line.start],
    "append": lambda data, i, b, line: data + bytes([b]) * (i % 3 + 1),
    "lone_cr": lambda data, i, b, line: data[:i] + b"\r" + data[i:],
    "crlf": lambda data, i, b, line: data[:line.stop - 1] + b"\r" + data[line.stop - 1:],
    "bad_byte": lambda data, i, b, line: data[:i] + b"\xff" + data[i + 1:],
    "drop_line": lambda data, i, b, line: data[:line.start] + data[line.stop:],
    "repeat_line": lambda data, i, b, line: data[:line.stop] + data[line],
}


def _blocks(lines, rng):
    """``lines`` as ``(number of lines, bytes)`` blocks of 1 to 40 lines each."""
    starts = range(0, len(lines), 40)
    cuts = sorted({0, len(lines), *rng.sample(range(1, len(lines)), len(lines) // 20), *starts})
    for start, end in zip(cuts, cuts[1:]):
        yield end - start, "".join(lines[start:end]).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n_lines=st.integers(150, 400),
       edit=st.sampled_from(sorted(FILE_EDITS)), where=st.integers(0, 2**32),
       value=st.integers(0, 255), hashed=st.booleans())
def test_first_fault_names_the_decoded_walks_line(seed, n_lines, edit, where, value, hashed):
    # the fault named from the first differing byte is the one a decoded
    # line-by-line walk names, on files of several chunks under byte and line
    # edits, and the hasher sees every byte of the edited file
    rng = random.Random(seed)
    lines = [json.dumps({"id": i, "pad": "x" * rng.randrange(100, 500)}) + "\n"
             for i in range(n_lines)]
    original = "".join(lines).encode("ascii")
    assert len(original) > _CHUNK_BYTES
    i = where % len(original)
    line = slice(original.rfind(b"\n", 0, i) + 1, original.index(b"\n", i) + 1)
    data = FILE_EDITS[edit](original, i, value, line)
    hasher = hashlib.sha256() if hashed else None
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.jsonl"
        with open(path, "wb") as f:
            f.write(data)
        fault = _first_fault(path, _blocks(lines, rng), "test", repr, hasher)
        expected = reference_first_fault(path, iter(lines), "test", repr)
    assert (str(fault) if fault else None) == expected
    assert fault is None or isinstance(fault, DatasetIOError)
    if edit == "none":
        assert fault is None
    if hashed:
        assert hasher.hexdigest() == hashlib.sha256(data).hexdigest()


@st.composite
def pooled_configs(draw, max_profiles=40, min_relations=1):
    """Configs with value pools below, at and above |N|, and past 2**32 and 2**64.

    A pool of 2**k rejects about half of its draws, and a pool past 2**32
    draws more than one 32-bit word per value. The name space is |N| itself
    in some draws, and far above it in others.
    """
    n = draw(st.integers(min_relations, max_profiles))
    pools = (1, 2, max(n - 1, 1), n, n + 1, 1 << 16, (1 << 32) + 1, 1 << 64)
    first, middle = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    last = -(-n // (first * middle)) + draw(st.sampled_from((0, 1, 7, 1 << 20)))
    return WorldConfig(
        n_profiles=n,
        first_names=first,
        middle_names=middle,
        last_names=last,
        relations=DEFAULT_RELATIONS[: draw(st.integers(min_relations, 3))],
        properties=tuple(
            (f"p{i}", pool) for i, pool in enumerate(draw(st.lists(st.sampled_from(pools), max_size=4)))
        ),
        seed=draw(st.integers(0, 2**64)),
    )


@settings(max_examples=60, deadline=None)
@given(config=pooled_configs())
def test_generate_world_is_reference(config):
    # the fact draws are rng.randrange's, value for value
    world, reference = generate_world(config), reference_world(config)
    assert world.profiles.tolist() == reference.profiles.tolist()
    assert world.facts.tolist() == reference.facts.tolist()


def _reference_pools(config) -> list[int]:
    """The answer pools as ``reference_world`` draws from them: |N| per relation, then each |V_a|."""
    return [config.n_profiles] * len(config.relations) + [size for _, size in config.properties]


@settings(max_examples=60, deadline=None)
@given(config=pooled_configs(), n_profiles=st.integers(1, 50))
def test_pools_are_the_answer_pools(config, n_profiles):
    assert list(config.pools) == _reference_pools(config)
    # the cache lives in each instance's __dict__: a changed copy reports its own |N|
    copy = config._replace(n_profiles=n_profiles)
    assert copy.n_profiles == n_profiles
    assert list(copy.pools) == _reference_pools(copy)
    assert list(config.pools) == _reference_pools(config)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mix_ratio=st.sampled_from((0, 1, 10)), cot=st.booleans())
def test_split_table_is_reference(data, mix_ratio, cot):
    # every holdout kind holds components, and they overlap: a world of at
    # most 6 entities repeats targets and loops them back to their source,
    # and heldout_r holds every relation but one in some draws
    config = data.draw(pooled_configs(max_profiles=6, min_relations=2))
    world, space = generate_world(config), KeySpace(config, cot)
    fields = {"e": range(config.n_profiles), "r": range(len(config.relations)),
              "a": range(len(config.attributes))}
    sets = {}
    for kind in HOLDOUT_KINDS:
        population = list(product(*(fields[field_] for field_ in _COMPONENT_FIELDS[kind])))
        sets[kind] = data.draw(
            st.sets(st.sampled_from(population), min_size=1, max_size=len(population) - 1), kind
        )
    table = split_table(world, space, sets, mix_ratio)
    assert table == reference_split_table(world, space, sets, mix_ratio)


@settings(max_examples=40, deadline=None)
@given(config=pooled_configs(max_profiles=12, min_relations=2), fraction=st.floats(0.01, 0.5),
       mix_ratio=st.sampled_from((0, 1, 3)), cot=st.booleans(), seed=st.integers(0, 2**64))
def test_build_splits_is_reference(config, fraction, mix_ratio, cot, seed):
    # the table, each held-out split and the train stream are those of the
    # per-pair cascade, read key by key
    world = generate_world(config)
    fractions = dict.fromkeys(HOLDOUT_KINDS, fraction)
    ss = build_splits(world, fractions, mix_ratio, seed, cot)
    rng = random.Random(seed)
    table = reference_split_table(world, ss.space, _sample_components(world, fractions, rng), mix_ratio)
    assert ss.table == table
    for code, kind in enumerate(SPLITS[1:], 2):
        assert ss.heldout[kind].tolist() == [key for key, c in enumerate(table) if c == code]
    assert ss.train.tolist() == reference_train_stream(ss.space, table, mix_ratio, rng)
