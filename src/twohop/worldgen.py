"""Synthetic profile worlds and one-/two-hop QA dataset construction.

Profiles are generated deterministically from a seed: unique name triples
drawn without replacement, relation targets drawn uniformly over entities,
property values uniformly over their pools. Questions are rendered from
fixed templates and partitioned into a train stream (one-hop facts mixed
with two-hop questions at a configurable cadence) plus seven systematic
holdout sets.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import chain, compress, zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

HOLDOUT_KINDS = (
    "heldout_e1",
    "heldout_r",
    "heldout_e2",
    "heldout_a",
    "heldout_e1r",
    "heldout_e2a",
    "heldout_full",
)

DEFAULT_RELATIONS = (
    "mother",
    "father",
    "sibling",
    "child",
    "spouse",
    "best friend",
    "boss",
    "assistant",
    "mentor",
    "protege",
    "neighbor",
    "landlord",
    "tenant",
    "doctor",
    "lawyer",
    "accountant",
    "rival",
)

DEFAULT_PROPERTIES = (
    ("birth city", 1000),
    ("birth date", 36524),
    ("employer", 1000),
    ("university", 1000),
)

# 8000 * 5000 * 10000 = 4e11 possible name combinations
DEFAULT_NAME_POOLS = (8000, 5000, 10000)


class ConfigError(ValueError):
    """The world configuration is internally inconsistent."""


class DatasetIOError(RuntimeError):
    """A persisted dataset is missing, malformed, or corrupt."""


class HashMismatchError(DatasetIOError):
    """A dataset file does not match the hash recorded in its manifest."""


class QuestionKind(str, Enum):
    ONE_HOP = "one_hop"
    TWO_HOP = "two_hop"
    TWO_HOP_COT = "two_hop_cot"


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a generated world: entity count, name pools, attributes."""

    n_profiles: int
    first_names: int = DEFAULT_NAME_POOLS[0]
    middle_names: int = DEFAULT_NAME_POOLS[1]
    last_names: int = DEFAULT_NAME_POOLS[2]
    relations: tuple[str, ...] = DEFAULT_RELATIONS
    properties: tuple[tuple[str, int], ...] = DEFAULT_PROPERTIES
    seed: int = 0

    @property
    def name_space_size(self) -> int:
        return self.first_names * self.middle_names * self.last_names

    @cached_property
    def property_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.properties)

    @cached_property
    def attributes(self) -> tuple[str, ...]:
        """All attributes: relations first, then properties."""
        return tuple(self.relations) + self.property_names

    def pool_size(self, attribute: str) -> int:
        """Answer-pool size of an attribute: |N| for relations, |V_a| for properties."""
        if attribute in self.relations:
            return self.n_profiles
        for name, size in self.properties:
            if name == attribute:
                return size
        raise ConfigError(f"unknown attribute: {attribute!r}")

    def validate(self) -> None:
        if self.n_profiles < 1:
            raise ConfigError("n_profiles must be positive")
        if min(self.first_names, self.middle_names, self.last_names) < 1:
            raise ConfigError("name pools must be positive")
        if not self.relations:
            raise ConfigError("relations must not be empty: a world needs one for two-hop questions")
        if self.name_space_size < self.n_profiles:
            raise ConfigError(
                f"name space {self.name_space_size} smaller than "
                f"{self.n_profiles} profiles; cannot sample without replacement"
            )
        names = list(self.relations) + list(self.property_names)
        if len(set(names)) != len(names):
            raise ConfigError("relation and property names must be unique and disjoint")
        # every name index and value then fits a "Q" array
        if self.name_space_size > 1 << 64:
            raise ConfigError(f"name space {self.name_space_size} larger than 2**64")
        for name, size in self.properties:
            if not 1 <= size <= 1 << 64:
                raise ConfigError(f"value pool for {name!r} must be in [1, 2**64]")
        for name in names:
            if ":" in name:
                raise ConfigError(f"attribute name {name!r} may not contain ':'")

    def to_dict(self) -> dict:
        return {
            "n_profiles": self.n_profiles,
            "first_names": self.first_names,
            "middle_names": self.middle_names,
            "last_names": self.last_names,
            "relations": list(self.relations),
            "properties": [[name, size] for name, size in self.properties],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorldConfig":
        """Rebuild a config from ``to_dict``'s JSON form.

        A missing key, a value of the wrong type or a config that
        ``validate`` rejects raises ConfigError.
        """
        try:
            ints = {key: data[key] for key in _CONFIG_INT_KEYS}
            relations = data["relations"]
            properties = data["properties"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed config: {exc!r}") from None
        # type(), not isinstance(): a JSON true must not pass as the integer 1
        for key, value in ints.items():
            if type(value) is not int:
                raise ConfigError(f"malformed config: {key} must be an integer, got {value!r}")
        if type(relations) is not list or any(type(r) is not str for r in relations):
            raise ConfigError("malformed config: relations must be a list of strings")
        if type(properties) is not list or any(
            type(p) is not list or len(p) != 2 or type(p[0]) is not str or type(p[1]) is not int
            for p in properties
        ):
            raise ConfigError("malformed config: properties must be a list of [name, size] pairs")
        config = cls(
            relations=tuple(relations),
            properties=tuple((name, size) for name, size in properties),
            **ints,
        )
        config.validate()
        return config


_CONFIG_INT_KEYS = ("n_profiles", "first_names", "middle_names", "last_names", "seed")


def typecode(bound: int) -> str:
    """The narrowest unsigned array typecode that holds every integer below ``bound``."""
    return "I" if bound <= 1 << (8 * array("I").itemsize) else "Q"


@dataclass
class World:
    """Ground truth: each entity's name and its value of each attribute.

    ``profiles[e]`` is entity e's packed name index, ``(first·|M| + middle)·|L|
    + last``. ``facts[e·|A| + a]`` is its value of attribute a, in config
    order: an entity id for a relation, a value index for a property.
    """

    config: WorldConfig
    profiles: array
    facts: array

    def name_indices(self, e: int) -> tuple[int, int, int]:
        """Entity e's (first, middle, last) name indices."""
        cfg = self.config
        first, rest = divmod(self.profiles[e], cfg.middle_names * cfg.last_names)
        return (first, *divmod(rest, cfg.last_names))

    def entity_name(self, e: int) -> str:
        return "F{} M{} L{}".format(*self.name_indices(e))

    def value_string(self, prop: str, value: int) -> str:
        slug = prop.replace(" ", "_")
        return f"{slug}_{value}"


class QuestionEntry(NamedTuple):
    """The (r, a) part of a question; its qid is ``qid_head + str(e1) + qid_tail``."""

    r_index: int
    a_index: int
    qid_head: str
    qid_tail: str
    kind: str


class KeySpace:
    """Packs each question (e1, r, a) of a world into one int, its key.

    ``key = (e1 * (|R| + 1) + r_index) * |A| + a_index``, where ``r_index``
    is the relation's place in the config and a one-hop question takes
    ``r_index = |R|``. Keys run over ``range(size)`` in (e1, r, a) order,
    the order in which ``build_splits`` visits questions. The entry table,
    ``entries[key % per_entity]``, alone defines each question's qid and
    kind; ``key_of_qid`` is its inverse.
    """

    def __init__(self, config: WorldConfig, cot: bool):
        self.n_profiles = config.n_profiles
        self.relations = config.relations
        self.attributes = config.attributes
        self.n_relations = len(self.relations)
        self.n_attributes = len(self.attributes)
        self.per_entity = (self.n_relations + 1) * self.n_attributes
        self.size = self.n_profiles * self.per_entity
        self.two_hop_kind = QuestionKind.TWO_HOP_COT if cot else QuestionKind.TWO_HOP
        self.typecode = typecode(self.size)
        # names hold no ':' (WorldConfig.validate), so qid.split(":", 2) inverts the table
        self.entries, self._entry_of = [], {}
        for r in range(self.n_relations + 1):
            for a, a_name in enumerate(self.attributes):
                if r < self.n_relations:
                    head, tail, kind = "2h", f"{self.relations[r]}:{a_name}", self.two_hop_kind
                else:
                    head, tail, kind = "1h", a_name, QuestionKind.ONE_HOP
                self._entry_of[head, tail] = len(self.entries)
                self.entries.append(QuestionEntry(r, a, f"{head}:", f":{tail}", kind.value))

    def qid(self, key: int) -> str:
        """The qid of ``key``: its entry's ``qid_head``, ``str(e1)`` and ``qid_tail``."""
        e1, rest = divmod(key, self.per_entity)
        return f"{self.entries[rest].qid_head}{e1}{self.entries[rest].qid_tail}"

    def key_of_qid(self, qid: str) -> int | None:
        """The key whose qid is exactly ``qid``, or None.

        The entity field must be ``str(e1)`` of an entity of the space: a
        field that ``int()`` reads but that is not the canonical decimal
        (``007``, ``+7``, ``1_0``, `` 7``) matches nothing.
        """
        fields = qid.split(":", 2)
        rest = self._entry_of.get((fields[0], fields[2])) if len(fields) == 3 else None
        if rest is None:
            return None
        try:
            e1 = int(fields[1])
        except ValueError:
            return None
        if not 0 <= e1 < self.n_profiles or str(e1) != fields[1]:
            return None
        return e1 * self.per_entity + rest


# Split names in file order; a split table stores 1 + a split's index here.
SPLITS = ("train",) + HOLDOUT_KINDS
_TRAIN = 1
# bytes.translate tables that map a split code to 1 when it is train's
# (_IS_TRAIN) or a held-out split's (_IS_HELDOUT), and any other byte to 0
_IS_TRAIN = bytes(code == _TRAIN for code in range(256))
_IS_HELDOUT = bytes(code > _TRAIN for code in range(256))


class SplitSet:
    """Train stream plus the seven holdout sets and the components that define them.

    Each split is an ``array`` of packed keys in file order: ``train`` and
    ``heldout[kind]``. ``table`` has one byte per key of ``space``: 1 + the
    index in ``SPLITS`` of the split holding that question, or 0 when the
    dataset has no such question. The train stream is built by
    ``make_train()`` the first time it is read, so a reader of the held-out
    sets and the table alone never builds it.
    """

    def __init__(
        self,
        space: KeySpace,
        heldout: Mapping[str, array],
        table: bytearray,
        holdout_manifest: dict[str, list],
        params: dict,
        make_train: Callable[[], array],
    ):
        self.space = space
        self.table = table
        self.heldout = {kind: heldout[kind] for kind in HOLDOUT_KINDS}
        self.holdout_manifest = holdout_manifest
        self.params = params
        self._make_train = make_train

    @cached_property
    def train(self) -> array:
        make_train, self._make_train = self._make_train, None  # what it holds goes with it
        return make_train()

    def splits(self) -> Iterator[tuple[str, array]]:
        """Every split's (name, keys) in file order: train, then HOLDOUT_KINDS order."""
        yield "train", self.train
        for kind in HOLDOUT_KINDS:
            yield kind, self.heldout[kind]

    def counts(self) -> dict[str, int]:
        """Items per split: train, then the holdout sets in HOLDOUT_KINDS order."""
        return {split: len(keys) for split, keys in self.splits()}


def generate_world(config: WorldConfig) -> World:
    """Deterministically generate a world from its config and seed."""
    config.validate()
    rng = random.Random(config.seed)
    names = config.name_space_size
    # the names without replacement, then the values in fact order
    profiles = array(typecode(names), rng.sample(range(names), config.n_profiles))
    pools = [config.n_profiles] * len(config.relations) + [size for _, size in config.properties]
    facts = array(
        typecode(max(pools, default=0)),
        (rng.randrange(pool) for _ in range(config.n_profiles) for pool in pools),
    )
    return World(config, profiles, facts)


def profile_lines(world: World) -> Iterator[str]:
    """Each profiles.jsonl line of ``world``, in id order.

    A line is ``json.dumps(row, sort_keys=True) + "\\n"`` for the profile's
    row: its id, its name indices, and its relation targets and property
    values keyed by name. It is one f-string over names JSON-escaped once
    per call, in the sorted order the encoder writes keys in.
    """
    cfg = world.config
    n_attrs = len(cfg.attributes)
    # (attribute index, escaped name) of the relations, then of the properties,
    # each in the sorted order the encoder writes keys in
    relations, properties = (
        [(cfg.attributes.index(name), json.dumps(name)) for name in sorted(names)]
        for names in (cfg.relations, cfg.property_names)
    )
    facts = world.facts.tolist()
    for e in range(cfg.n_profiles):
        first, middle, last = world.name_indices(e)
        start = e * n_attrs
        rels = ", ".join([f"{name}: {facts[start + a]}" for a, name in relations])
        props = ", ".join([f"{name}: {facts[start + a]}" for a, name in properties])
        yield (
            f'{{"first": {first}, "id": {e}, "last": {last}, "middle": {middle}, '
            f'"properties": {{{props}}}, "relations": {{{rels}}}}}\n'
        )


def question_lines(world: World, split_set: SplitSet) -> Iterator[str]:
    """Each qa.jsonl line of ``split_set``, in file order.

    A line is ``json.dumps(row, sort_keys=True) + "\\n"`` for the question's
    row: its key (qid, kind, e1, r, a, split) plus e2, answer and text from
    the templates. Each ``KeySpace.entries`` entry's fixed text is
    JSON-escaped once per call into pieces, and a line is one f-string over
    its entry's pieces, its split and its entities' ids, names and answer.
    """
    cfg, space = world.config, split_set.space
    n_rel, n_attrs, per_entity = space.n_relations, space.n_attributes, space.per_entity
    names = [world.entity_name(e) for e in range(cfg.n_profiles)]
    ids = [str(e) for e in range(cfg.n_profiles)]
    facts = world.facts
    cot = space.two_hop_kind is QuestionKind.TWO_HOP_COT

    # ensure_ascii escapes each character on its own, so escaped pieces splice
    # into one escaped string; entity names are ASCII letters, digits and spaces
    def escaped(text: str) -> str:
        return json.dumps(text)[1:-1]

    # Per entry: the relation whose target answers (None for one-hop, where
    # e1 does), the attribute, the names an answer indexes (None for a
    # property, whose answer is its escaped prefix and the value index), and
    # the text around the per-row values; the last two pieces are the
    # chain-of-thought trace's.
    entries = []
    for r, a, head, tail, kind in space.entries:
        a_name = escaped(cfg.attributes[a])
        prefix = "" if a < n_rel else escaped(world.value_string(cfg.attributes[a], ""))
        if r == n_rel:
            hop, r_name, r_field, ask = None, "", "null", f"'s {a_name}? {prefix}"
        else:
            hop, r_name = r, escaped(cfg.relations[r])
            r_field, ask = f'"{r_name}"', f"'s {r_name}'s {a_name}? " + ("" if cot else prefix)
        entries.append((
            hop,
            a,
            names if a < n_rel else None,
            f'{{"a": "{a_name}", "answer": "{prefix}',
            f', "kind": "{kind}", "qid": "{escaped(head)}',
            f'{escaped(tail)}", "r": {r_field}, "split": "',
            ask,
            f"'s {r_name} was ",
            f"'s {a_name} was {prefix}",
        ))
    for split, keys in split_set.splits():
        split_text = f'{split}", "text": "What was '
        for key in keys:
            e1, rest = divmod(key, per_entity)
            hop, a, answers, lead, kind_qid, tail_split, ask, r_was, a_was = entries[rest]
            name, eid = names[e1], ids[e1]
            if hop is None:
                answerer, e2_id = e1, "null"
            else:
                answerer = facts[e1 * n_attrs + hop]
                e2_id = ids[answerer]
            answer = facts[answerer * n_attrs + a]
            if answers is not None:
                answer = answers[answer]
            if cot and hop is not None:
                e2_name = names[answerer]
                yield (
                    f'{lead}{answer}", "e1": {eid}, "e2": {e2_id}{kind_qid}{eid}{tail_split}'
                    f'{split_text}{name}{ask}{name}{r_was}{e2_name}. {e2_name}{a_was}{answer}."}}\n'
                )
            else:
                yield (
                    f'{lead}{answer}", "e1": {eid}, "e2": {e2_id}{kind_qid}{eid}{tail_split}'
                    f'{split_text}{name}{ask}{answer}"}}\n'
                )


# The fields of each holdout kind's components: an entity (e), a relation
# (r) or an attribute (a).
_COMPONENT_FIELDS = {
    "heldout_e1": "e",
    "heldout_r": "r",
    "heldout_e2": "e",
    "heldout_a": "a",
    "heldout_e1r": "er",
    "heldout_e2a": "ea",
    "heldout_full": "era",
}
_SPLIT_CODE = {split: code for code, split in enumerate(SPLITS, 1)}


def _sample_components(
    world: World, fractions: Mapping[str, float], rng: random.Random
) -> dict[str, set[tuple]]:
    """Each holdout kind's components, as tuples of entity, relation-index and attribute-index."""
    cfg = world.config
    sizes = {"e": cfg.n_profiles, "r": len(cfg.relations), "a": len(cfg.attributes)}
    components = {}
    for kind in HOLDOUT_KINDS:
        frac = fractions.get(kind, 0.0)
        if not 0.0 <= frac < 1.0:
            raise ConfigError(f"holdout fraction for {kind} must be in [0, 1)")
        radices = [sizes[field_] for field_ in _COMPONENT_FIELDS[kind]]
        size = math.prod(radices)
        k = math.ceil(frac * size) if frac > 0 else 0
        if k >= size:
            raise ConfigError(f"holdout fraction for {kind} would exhaust its population")
        # index i of the population is the i-th tuple of itertools.product over
        # the fields' ranges: its fields are i's digits in mixed radix
        components[kind] = set()
        for index in rng.sample(range(size), k):
            digits = []
            for radix in reversed(radices):
                index, digit = divmod(index, radix)
                digits.append(digit)
            components[kind].add(tuple(reversed(digits)))
    return components


def split_table(
    world: World, space: KeySpace, sets: Mapping[str, set[tuple]], mix_ratio: int
) -> bytearray:
    """The split of every question of ``world``, as a split table over ``space``.

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
    e2a: dict[int, list[int]] = {}
    for e2, a in sets["heldout_e2a"]:
        e2a.setdefault(e2, []).append(a)
    full: dict[tuple[int, int], list[int]] = {}
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


def build_splits(
    world: World,
    holdout_fractions: Mapping[str, float],
    mix_ratio: int,
    seed: int,
    cot: bool = False,
) -> SplitSet:
    """Assign every two-hop question to train or its first matching holdout set.

    The train stream interleaves one one-hop item after every ``mix_ratio``
    two-hop items (mix_ratio 0 keeps one-hop items only). Every (entity,
    attribute) fact appears exactly once as a one-hop item.
    """
    cfg = world.config
    if mix_ratio < 0:
        raise ConfigError("mix_ratio must be >= 0")
    unknown = set(holdout_fractions) - set(HOLDOUT_KINDS)
    if unknown:
        raise ConfigError(f"unknown holdout kinds: {sorted(unknown)}")
    rng = random.Random(seed)
    components = _sample_components(world, holdout_fractions, rng)
    names = {"e": range(cfg.n_profiles), "r": cfg.relations, "a": cfg.attributes}
    manifest = {
        kind: sorted(
            [names[field_][value] for field_, value in zip(_COMPONENT_FIELDS[kind], comp)]
            for comp in components[kind]
        )
        for kind in HOLDOUT_KINDS
    }

    space = KeySpace(cfg, cot)
    table = split_table(world, space, components, mix_ratio)
    heldout = {kind: array(space.typecode) for kind in HOLDOUT_KINDS}
    two_hop_keys = space.n_relations * space.n_attributes
    for start in range(0, space.size, space.per_entity):
        end = start + two_hop_keys
        for key in compress(range(start, end), table[start:end].translate(_IS_HELDOUT)):
            heldout[SPLITS[table[key] - 1]].append(key)
    params = {
        "seed": seed,
        "mix_ratio": mix_ratio,
        "holdout_fractions": {k: holdout_fractions.get(k, 0.0) for k in HOLDOUT_KINDS},
        "cot": cot,
    }
    # the train shuffle is the last use of rng, so it waits until train is read
    make_train = partial(_train_stream, space, table, mix_ratio, rng)
    return SplitSet(space, heldout, table, manifest, params, make_train)


def _train_stream(space: KeySpace, table: bytearray, mix_ratio: int, rng: random.Random) -> array:
    """The train stream of ``build_splits``: its keys in file order, drawn from ``rng``.

    One one-hop key follows each run of ``mix_ratio`` two-hop keys while
    both last, then the rest of each; each kind is shuffled first.
    ``mix_ratio`` 0 keeps the one-hop keys only, unshuffled.
    """
    two_hop_keys = space.n_relations * space.n_attributes
    starts = range(0, space.size, space.per_entity)
    one_hop = array(space.typecode, chain.from_iterable(
        range(start + two_hop_keys, start + space.per_entity) for start in starts
    ))
    if mix_ratio == 0:
        return one_hop
    train = array(space.typecode)
    for start in starts:
        end = start + two_hop_keys
        train.extend(compress(range(start, end), table[start:end].translate(_IS_TRAIN)))
    _shuffle(train, rng)
    _shuffle(one_hop, rng)
    # The keys are moved in place, back to front, so no second copy of the
    # train stream is held.
    n_two = len(train)
    taken = min(n_two // mix_ratio, len(one_hop))
    train.extend(one_hop)  # one_hop[taken:] is now in place
    # the two-hop keys after the last run move taken places right, back
    # to front in runs of at most taken keys: each run's copy stays small
    # and no run lands on a key not yet moved
    tail = mix_ratio * taken
    for end in range(n_two, tail, -taken) if taken else ():
        start = max(end - taken, tail)
        train[start + taken : end + taken] = train[start:end]
    for i in reversed(range(taken)):
        start = i * (mix_ratio + 1)
        train[start : start + mix_ratio] = train[i * mix_ratio : (i + 1) * mix_ratio]
        train[start + mix_ratio] = one_hop[i]
    return train


def _shuffle(keys: array, rng: random.Random) -> None:
    """Shuffle ``keys`` in place as ``rng.shuffle(keys)`` does: same permutation, same draws.

    ``random.Random.shuffle`` swaps each ``keys[i]``, from the last down to
    ``keys[1]``, with ``keys[j]``, where ``j`` is the first of the draws
    ``rng.getrandbits(k)``, ``k = (i + 1).bit_length()``, that is at most
    ``i``. Here the same draws are made one run of equal ``k`` at a time,
    with no Python-level call per key.
    """
    getrandbits = rng.getrandbits
    i = len(keys) - 1
    while i > 0:
        k = (i + 1).bit_length()
        low = 1 << (k - 1)  # the smallest i + 1 with k bits
        for i in range(i, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            keys[i], keys[j] = keys[j], keys[i]
        i = low - 2


# --- persistence ---------------------------------------------------------

# Every JSONL row of a dataset has the bytes that json.dumps(row,
# sort_keys=True) gives it, written as an f-string. Dataset files are never
# decoded, only compared with the lines their manifest gives.


def sha256_file(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def persist_dataset(split_set: SplitSet, world: World, path: Path) -> dict:
    """Write profiles.jsonl, qa.jsonl, and manifest.json; return the manifest.

    ``load_dataset`` derives both data files from the manifest alone, so a
    world that is not ``generate_world(world.config)`` writes a dataset that
    will not load.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    profiles_path = path / "profiles.jsonl"
    with open(profiles_path, "w", encoding="utf-8") as f:
        f.writelines(profile_lines(world))
    qa_path = path / "qa.jsonl"
    with open(qa_path, "w", encoding="utf-8") as f:
        f.writelines(question_lines(world, split_set))

    manifest = {
        "config": world.config.to_dict(),
        "seed": world.config.seed,
        "split_params": split_set.params,
        "counts": split_set.counts(),
        "holdout_components": split_set.holdout_manifest,
        "files": {
            "profiles.jsonl": sha256_file(profiles_path),
            "qa.jsonl": sha256_file(qa_path),
        },
    }
    digest = hashlib.sha256(
        json.dumps(manifest["files"], sort_keys=True).encode()
    ).hexdigest()
    manifest["dataset_sha256"] = digest
    with open(path / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def load_manifest(path: Path) -> tuple[dict, str]:
    """The dataset manifest at ``path`` and the sha256 of its bytes, from one read."""
    try:
        data = (Path(path) / "manifest.json").read_bytes()
        manifest = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DatasetIOError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetIOError("manifest is not a JSON object")
    keys_read = ("config", "files", "holdout_components", "split_params")
    missing = [key for key in keys_read if key not in manifest]
    if missing:
        raise DatasetIOError(f"manifest lacks {', '.join(missing)}")
    files = manifest["files"]
    if not isinstance(files, dict) or any(type(sha) is not str for sha in files.values()):
        raise DatasetIOError("manifest files must map file names to sha256 strings")
    return manifest, hashlib.sha256(data).hexdigest()


def _verify_files(path: Path, manifest: Mapping) -> None:
    """Check each dataset file against the sha256 its manifest records."""
    for name, expected in manifest["files"].items():
        actual = sha256_file(Path(path) / name)
        if actual != expected:
            raise HashMismatchError(f"{name}: expected {expected}, got {actual}")


def _split_params(manifest: Mapping) -> tuple[dict, int, int, bool]:
    """The manifest's ``split_params``, checked: ``build_splits``' arguments after the world."""
    params = manifest["split_params"]
    if not isinstance(params, dict):
        raise DatasetIOError("manifest split_params is not a JSON object")
    fractions, mix_ratio, seed, cot = (
        params.get(key) for key in ("holdout_fractions", "mix_ratio", "seed", "cot")
    )
    if type(cot) is not bool:
        raise DatasetIOError(f"manifest split_params cot must be true or false, got {cot!r}")
    if type(mix_ratio) is not int or mix_ratio < 0:
        raise DatasetIOError(
            f"manifest split_params mix_ratio must be an integer >= 0, got {mix_ratio!r}"
        )
    # type(), not isinstance(): a JSON true must not pass as the integer 1
    if type(seed) is not int:
        raise DatasetIOError(f"manifest split_params seed must be an integer, got {seed!r}")
    if (
        type(fractions) is not dict
        or fractions.keys() != set(HOLDOUT_KINDS)
        or any(type(f) not in (int, float) or not 0 <= f < 1 for f in fractions.values())
    ):
        raise DatasetIOError(
            f"manifest split_params holdout_fractions must map exactly {list(HOLDOUT_KINDS)} "
            f"to numbers in [0, 1), got {fractions!r}"
        )
    return fractions, mix_ratio, seed, cot


# The byte compare's chunk, in bytes: capped in bytes rather than lines, so
# that what a compare holds at once does not grow with a dataset's questions.
_COMPARE_BYTES = 1 << 14


def _require_lines(path: Path, lines: Callable[[], Iterable[str]], row: str, name_row) -> None:
    """Require the file at ``path`` to be exactly the lines ``lines()`` gives, in order.

    The file's bytes are compared with the lines, joined and ASCII-encoded,
    in chunks of about ``_COMPARE_BYTES``. Only a file that differs is read
    again, line by line against a fresh ``lines()``: the first line that
    differs raises DatasetIOError naming ``path:line`` and ``name_row(expected
    line)``, as does a missing line (with the number of ``row`` rows
    expected) or an extra one.
    """
    # the lines are ASCII (JSON with ensure_ascii), so a file with their bytes
    # reads back as exactly those lines; any other file fails the line loop
    with open(path, "rb") as f:
        chunk, size = [], 0
        for line in lines():
            chunk.append(line)
            size += len(line)
            if size >= _COMPARE_BYTES:
                data = "".join(chunk).encode("ascii")
                if f.read(len(data)) != data:
                    break
                chunk, size = [], 0
        else:
            data = "".join(chunk).encode("ascii")
            if f.read(len(data)) == data and not f.read(1):
                return
    # line ends are kept as written and undecodable bytes become U+FFFD, so a
    # \r\n or a bad byte differs from the expected line instead of passing or
    # failing unnamed
    with open(path, encoding="utf-8", errors="replace", newline="") as f:
        pairs = enumerate(zip_longest(f, lines()), 1)
        for lineno, (line, want) in pairs:
            if line == want:
                continue
            if line is None:
                total = lineno + sum(1 for _ in pairs)
                raise DatasetIOError(f"{path}:{lineno}: missing {row} row ({total} expected)")
            if want is None:
                raise DatasetIOError(f"{path}:{lineno}: extra row")
            raise DatasetIOError(f"{path}:{lineno}: not the canonical row of {name_row(want)}")


def replay_dataset(path: Path, manifest: dict) -> tuple[SplitSet, World]:
    """The splits and world that ``manifest``, the dataset's at ``path``, defines.

    The world is ``generate_world`` of the config, and the splits are
    replayed from ``split_params`` and must give ``holdout_components``. The
    only file read is profiles.jsonl, whose rows are counted: a config that
    claims more profiles than the file has rows is refused before the world
    is built, so a replay never builds more profiles than the file holds.
    Neither data file is compared with its lines; ``checked_dataset`` does that.
    ``holdout_components`` is taken out of ``manifest``.
    """
    config = WorldConfig.from_dict(manifest["config"])
    fractions, mix_ratio, seed, cot = _split_params(manifest)
    profiles_path = Path(path) / "profiles.jsonl"
    with open(profiles_path, "rb") as f:
        rows = sum(1 for _ in f)
    if rows < config.n_profiles:
        raise DatasetIOError(
            f"{profiles_path}:{rows + 1}: missing profile row ({config.n_profiles} expected)"
        )
    world = generate_world(config)
    # held as text during the replay, so that two copies of the components
    # are not held at once
    components = json.dumps(manifest.pop("holdout_components"), sort_keys=True)
    try:
        split_set = build_splits(world, fractions, mix_ratio, seed, cot)
    except ConfigError as exc:
        raise DatasetIOError(f"manifest split_params: {exc}") from None
    if json.dumps(split_set.holdout_manifest, sort_keys=True) != components:
        raise DatasetIOError("manifest holdout_components differ from those its split_params give")
    return split_set, world


def load_dataset(path: Path) -> tuple[SplitSet, World]:
    """Load a persisted dataset: ``load_manifest``, then ``checked_dataset`` entered and left."""
    manifest, _ = load_manifest(path)
    with checked_dataset(path, manifest) as loaded:
        return loaded


@contextmanager
def checked_dataset(path: Path, manifest: dict) -> Iterator[tuple[SplitSet, World]]:
    """The splits and world of the dataset at ``path``; its data files are checked as the body runs.

    ``manifest`` is ``load_manifest``'s, and loses ``holdout_components`` to
    ``replay_dataset``. The file hashes, the replay and the train stream come
    first, in this process. A forked child then requires each profiles.jsonl
    and qa.jsonl line to be the one ``profile_lines`` and ``question_lines``
    write, and leaves by ``os._exit``: it never returns into the caller.
    When the body ends, the child is reaped first. Its fault (the first line
    that differs, a missing line or an extra one, named ``path:line``) is
    raised as a DatasetIOError in place of any Exception of the body, as a
    check made first would have been. Any other exit of the body
    (KeyboardInterrupt) kills the child and goes on once it is reaped.
    """
    path = Path(path)
    _verify_files(path, manifest)
    split_set, world = replay_dataset(path, manifest)
    split_set.train  # built here, and not once more in the child
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1  # any way out but a check that passed
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    _require_lines(path / "profiles.jsonl", partial(profile_lines, world),
                                   "profile", lambda want: f"profile {json.loads(want)['id']}")
                    _require_lines(path / "qa.jsonl", partial(question_lines, world, split_set),
                                   "question", lambda want: repr(json.loads(want)["qid"]))
                    status = 0
                except Exception as exc:
                    pipe.write(str(exc).encode("utf-8", "surrogatepass"))
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield split_set, world
    except Exception:
        _reap_check(pid, read_end)  # the child's fault, if any, in place of the body's
        raise
    except BaseException:  # an interrupt: the check is not waited for
        import signal  # here, not at the top: its import costs every command about 1 ms
        os.kill(pid, signal.SIGKILL)
        with suppress(DatasetIOError):
            _reap_check(pid, read_end)
        raise
    _reap_check(pid, read_end)


def _reap_check(pid: int, read_end: int) -> None:
    """Reap the check in child ``pid``; raise the fault it sent through ``read_end``, if any."""
    try:
        with open(read_end, "rb") as pipe:
            message = pipe.read().decode("utf-8", "surrogatepass")
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise DatasetIOError(message or f"the data-file check died (status {status})") from None
