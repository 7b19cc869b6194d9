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
import sys
from array import array
from contextlib import contextmanager, suppress
from enum import Enum
from functools import cached_property, partial
from itertools import compress, count, islice, repeat
from operator import floordiv, mod, mul
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


class _ConfigFields(NamedTuple):
    n_profiles: int
    first_names: int = DEFAULT_NAME_POOLS[0]
    middle_names: int = DEFAULT_NAME_POOLS[1]
    last_names: int = DEFAULT_NAME_POOLS[2]
    relations: tuple[str, ...] = DEFAULT_RELATIONS
    properties: tuple[tuple[str, int], ...] = DEFAULT_PROPERTIES
    seed: int = 0


class WorldConfig(_ConfigFields):
    """Parameters of a generated world: entity count, name pools, attributes.

    The fields are a NamedTuple's, so ``_replace`` gives a changed copy.
    This subclass adds a ``__dict__``, which holds the cached name and pool tuples.
    """

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

    @cached_property
    def pools(self) -> tuple[int, ...]:
        """Answer-pool sizes in ``attributes`` order: |N| per relation, then each |V_a|."""
        return (self.n_profiles,) * len(self.relations) + tuple(size for _, size in self.properties)

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
        # a name space of at most sys.maxsize has a len() to sample from, and
        # every name index and value then fits a "Q" array
        if self.name_space_size > sys.maxsize:
            raise ConfigError(f"name space {self.name_space_size} larger than {sys.maxsize}")
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


class World(NamedTuple):
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
# The size, in bytes, of a chunk of a data file as written and as compared,
# and of a span of a split table that one pass copies: capped in bytes rather
# than lines or entities, so that what a pass holds at once does not grow
# with a dataset's questions.
_CHUNK_BYTES = 1 << 14


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
    facts = array(typecode(max(config.pools)), _randranges(rng, config.pools, config.n_profiles))
    return World(config, profiles, facts)


def _randranges(rng: random.Random, pools: tuple[int, ...], times: int) -> Iterator[int]:
    """``rng.randrange(pool)`` for each pool of ``pools`` in turn, ``times`` over: same values, same draws.

    ``randrange(pool)`` returns the first of the draws ``rng.getrandbits(k)``,
    ``k = pool.bit_length()``, that is below ``pool``. Here the same draws
    are made with no Python-level call per value but the draw itself; only a
    rejected first draw calls ``redraw``.
    """
    getrandbits = rng.getrandbits

    def redraw(pool: int, k: int) -> int:
        value = getrandbits(k)
        while value >= pool:
            value = getrandbits(k)
        return value

    bits = [(pool, pool.bit_length()) for pool in pools]
    return (
        value if (value := getrandbits(k)) < pool else redraw(pool, k)
        for _ in range(times)
        for pool, k in bits
    )


def profile_lines(world: World) -> Iterator[tuple[int, bytes]]:
    """profiles.jsonl's lines for ``world``, in id order, as ``(number of lines, bytes)`` blocks.

    A line is ``json.dumps(row, sort_keys=True) + "\\n"`` for the profile's
    row: its id, its name indices, and its relation targets and property
    values keyed by name. It is one ``%``-format string per call, over names
    JSON-escaped in the sorted order the encoder writes keys in, applied to
    the columns of the row's integers. A block holds as many lines as fit in
    ``_CHUNK_BYTES`` bytes at the widest row (each column's largest value).
    """
    cfg = world.config
    n_attrs = len(cfg.attributes)
    # the attributes in the order the encoder writes them: properties, then
    # relations, each sorted by name; a '%' in a name is escaped as '%%'
    properties, relations = sorted(cfg.property_names), sorted(cfg.relations)

    def fields(names: list[str]) -> str:
        return ", ".join(json.dumps(name).replace("%", "%%") + ": %d" for name in names)

    row = (
        '{"first": %d, "id": %d, "last": %d, "middle": %d, '
        f'"properties": {{{fields(properties)}}}, "relations": {{{fields(relations)}}}}}\n'
    )
    profiles, below_last = world.profiles, repeat(cfg.last_names)
    columns = (
        map(floordiv, profiles, repeat(cfg.middle_names * cfg.last_names)),
        range(cfg.n_profiles),
        map(mod, profiles, below_last),
        map(mod, map(floordiv, profiles, below_last), repeat(cfg.middle_names)),
        *(world.facts[cfg.attributes.index(name) :: n_attrs] for name in properties + relations),
    )
    pools = dict(zip(cfg.attributes, cfg.pools))
    widest = row % (cfg.first_names - 1, cfg.n_profiles - 1, cfg.last_names - 1,
                    cfg.middle_names - 1, *(pools[name] - 1 for name in properties + relations))
    lines, n = map(row.__mod__, zip(*columns)), max(1, _CHUNK_BYTES // len(widest))
    while block := list(islice(lines, n)):
        yield len(block), "".join(block).encode("ascii")


def answer_rows(world: World) -> array:
    """``e2·|A|`` per row ``q = e1·(|R| + 1) + r``: where the row's answers begin in ``world.facts``.

    e2 is the target of e1's relation r, or e1 itself in the one-hop row
    ``r = |R|``. The table is built one relation column at a time.
    """
    cfg, facts = world.config, world.facts
    n_rel, n_attrs = len(cfg.relations), len(cfg.attributes)
    rows = array(typecode(len(facts)), [0]) * (cfg.n_profiles * (n_rel + 1))
    rows[n_rel :: n_rel + 1] = array(rows.typecode, range(0, len(facts), n_attrs))
    for r in range(n_rel):
        rows[r :: n_rel + 1] = array(rows.typecode, map(mul, facts[r::n_attrs], repeat(n_attrs)))
    return rows


def question_lines(world: World, split_set: SplitSet) -> Iterator[tuple[int, bytes]]:
    """qa.jsonl's lines for ``split_set``, in file order, as ``(number of lines, bytes)`` blocks.

    A line is ``json.dumps(row, sort_keys=True) + "\\n"`` for the question's
    row: its key (qid, kind, e1, r, a, split) plus e2, answer and text from
    the templates. Each ``KeySpace.entries`` entry's fixed text is
    JSON-escaped once per call into pieces, and a line is one f-string over
    its entry's pieces, its split and its entities' ids, names and answer.
    Two tables indexed by ``(e1, r) = key // |A|`` give where the answering
    entity's facts begin (``answer_rows``) and e2's JSON. A block is a
    split's next lines, about ``_CHUNK_BYTES`` by the last row size.
    """
    cfg, space = world.config, split_set.space
    n_rel, n_attrs, per_entity = space.n_relations, space.n_attributes, space.per_entity
    names = [world.entity_name(e) for e in range(cfg.n_profiles)]
    ids = [str(e) for e in range(cfg.n_profiles)]
    facts, rows = world.facts, answer_rows(world)
    cot = space.two_hop_kind is QuestionKind.TWO_HOP_COT
    # per (e1, r): e2's JSON, its id, or null for a one-hop row
    e2_fields = list(map(ids.__getitem__, map(floordiv, rows, repeat(n_attrs))))
    e2_fields[n_rel :: n_rel + 1] = ["null"] * cfg.n_profiles

    # ensure_ascii escapes each character on its own, so escaped pieces splice
    # into one escaped string; entity names are ASCII letters, digits and spaces
    def escaped(text: str) -> str:
        return json.dumps(text)[1:-1]

    # Per entry: the text around the per-row values, up to the split; the trace's two
    # pieces (empty but in a chain-of-thought two-hop row) and the row's end; what an
    # answer's value indexes (names, or a property's value itself); and the attribute.
    entries = []
    for r, a, head, tail, kind in space.entries:
        a_name = escaped(cfg.attributes[a])
        prefix = "" if a < n_rel else escaped(world.value_string(cfg.attributes[a], ""))
        r_was = a_was = ""
        if r == n_rel:
            r_field, ask = "null", f"'s {a_name}? {prefix}"
        else:
            r_name = escaped(cfg.relations[r])
            r_field, ask = f'"{r_name}"', f"'s {r_name}'s {a_name}? " + ("" if cot else prefix)
            if cot:
                r_was, a_was = f"'s {r_name} was ", f"'s {a_name} was {prefix}"
        entries.append((
            f'{{"a": "{a_name}", "answer": "{prefix}', f', "kind": "{kind}", "qid": "{escaped(head)}',
            f'{escaped(tail)}", "r": {r_field}, "split": "', ask,
            r_was, a_was, '."}\n' if r_was else '"}\n',
            names if a < n_rel else range(cfg.pools[a]), a,
        ))
    n = _CHUNK_BYTES >> 8  # rows in the first block, at a guess of 256 bytes each
    for split, keys in split_set.splits():
        pieces = [(lead, kind_qid, f'{tail}{split}", "text": "What was ', *rest)
                  for lead, kind_qid, tail, *rest in entries]
        start = 0
        while start < len(keys):
            lines = []
            append = lines.append
            for key in keys[start : start + n]:
                e1, q = key // per_entity, key // n_attrs
                lead, kind_qid, tail, ask, r_was, a_was, end, answers, a = pieces[key % per_entity]
                answer, eid = answers[facts[rows[q] + a]], ids[e1]
                if r_was:
                    e2_name = names[rows[q] // n_attrs]
                    ask = f"{ask}{names[e1]}{r_was}{e2_name}. {e2_name}{a_was}"
                append(f'{lead}{answer}", "e1": {eid}, "e2": {e2_fields[q]}{kind_qid}{eid}{tail}'
                       f"{names[e1]}{ask}{answer}{end}")
            data = "".join(lines).encode("ascii")
            yield len(lines), data
            start += n
            n = max(1, _CHUNK_BYTES * len(lines) // len(data))


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

    The table is one entity's rows repeated, with the held-out relations'
    blocks and the held-out attributes' cells already coded. The other
    kinds are patched in, in cascade order, each on only the cells that no
    earlier kind holds: the held-out e1s' blocks, then the blocks and cells
    whose target is a held-out e2 or an (e2, a) target, then the (e1, r)
    blocks, then the (e1, r, a) cells. A block or cell that is still train
    (or 0) is one that no earlier kind holds.
    """
    code = _SPLIT_CODE
    n_profiles, n_attrs, per_entity = space.n_profiles, space.n_attributes, space.per_entity
    e1s, rs, e2s, held_a = (
        {value for (value,) in sets[kind]}
        for kind in ("heldout_e1", "heldout_r", "heldout_e2", "heldout_a")
    )
    e2a: dict[int, list[int]] = {}
    for e2, a in sets["heldout_e2a"]:
        e2a.setdefault(e2, []).append(a)
    train = _TRAIN if mix_ratio else 0

    def row(fill: int) -> bytes:
        return bytes(code["heldout_a"] if a in held_a else fill for a in range(n_attrs))

    def block(kind: str) -> bytes:
        return bytes([code[kind]]) * n_attrs

    plain_row, e1r_row, e2_block = row(train), row(code["heldout_e1r"]), block("heldout_e2")
    entity = b"".join(block("heldout_r") if r in rs else plain_row for r in range(space.n_relations))
    table = bytearray(entity + bytes([_TRAIN]) * n_attrs) * n_profiles
    two_hop = bytes([code["heldout_e1"]]) * len(entity)
    for e1 in e1s:
        table[e1 * per_entity : e1 * per_entity + len(two_hop)] = two_hop

    facts = world.facts
    targets = e2s | e2a.keys()
    for r in range(space.n_relations):
        if r in rs:
            continue
        for e1 in compress(range(n_profiles), map(targets.__contains__, facts[r::n_attrs])):
            if e1 in e1s:
                continue
            e2, start = facts[e1 * n_attrs + r], e1 * per_entity + r * n_attrs
            if e2 in e2s:
                table[start : start + n_attrs] = e2_block
                continue
            for a in e2a[e2]:
                if table[start + a] == train:
                    table[start + a] = code["heldout_e2a"]
    for e1, r in sets["heldout_e1r"]:
        if e1 not in e1s and r not in rs and facts[e1 * n_attrs + r] not in e2s:
            start = e1 * per_entity + r * n_attrs
            table[start : start + n_attrs] = e1r_row  # over any (e2, a) cell
    for e1, r, a in sets["heldout_full"]:
        key = e1 * per_entity + r * n_attrs + a
        if table[key] == train:
            table[key] = code["heldout_full"]
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
    for start, cells in _spans(space, table):
        for key in compress(count(start), cells.translate(_IS_HELDOUT)):
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


def _spans(space: KeySpace, table: bytearray) -> Iterator[tuple[int, bytearray]]:
    """``(start, table[start:end])`` for spans of whole entities of about ``_CHUNK_BYTES`` keys.

    A pass over a span's copy, not the whole table's, holds memory that
    does not grow with the dataset's questions.
    """
    span = space.per_entity * max(1, _CHUNK_BYTES // space.per_entity)
    for start in range(0, space.size, span):
        yield start, table[start : start + span]


def _train_stream(space: KeySpace, table: bytearray, mix_ratio: int, rng: random.Random) -> array:
    """The train stream of ``build_splits``: its keys in file order, drawn from ``rng``.

    One one-hop key follows each run of ``mix_ratio`` two-hop keys while
    both last, then the rest of each; each kind is shuffled first.
    ``mix_ratio`` 0 keeps the one-hop keys only, unshuffled.
    """
    per_entity, n_attrs = space.per_entity, space.n_attributes
    two_hop_keys = per_entity - n_attrs
    # one column of one-hop keys, attribute a's, at a time
    one_hop = array(space.typecode, [0]) * (space.n_profiles * n_attrs)
    for a in range(n_attrs):
        one_hop[a::n_attrs] = array(space.typecode, range(two_hop_keys + a, space.size, per_entity))
    if mix_ratio == 0:
        return one_hop
    # train's two-hop keys: its cells less each entity's one-hop cells
    train = array(space.typecode)
    for start, cells in _spans(space, table):
        is_train = cells.translate(_IS_TRAIN)
        for column in range(two_hop_keys, per_entity):
            is_train[column::per_entity] = bytes(len(cells) // per_entity)
        train.extend(compress(count(start), is_train))
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


def write_blocks(path: Path, blocks: Iterable[bytes]) -> str:
    """Write ``blocks`` to ``path``; the sha256 of the bytes written."""
    hasher = hashlib.sha256()
    with open(path, "wb") as f:
        for data in blocks:
            f.write(data)
            hasher.update(data)
    return hasher.hexdigest()


def persist_dataset(split_set: SplitSet, world: World, path: Path) -> dict:
    """Write profiles.jsonl, qa.jsonl, and manifest.json; return the manifest.

    ``load_dataset`` derives both data files from the manifest alone, so a
    world that is not ``generate_world(world.config)`` writes a dataset that
    will not load.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": world.config.to_dict(),
        "seed": world.config.seed,
        "split_params": split_set.params,
        "counts": split_set.counts(),
        "holdout_components": split_set.holdout_manifest,
        "files": {
            "profiles.jsonl": write_blocks(path / "profiles.jsonl",
                                           (data for _, data in profile_lines(world))),
            "qa.jsonl": write_blocks(path / "qa.jsonl",
                                     (data for _, data in question_lines(world, split_set))),
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
    # no other name: a checked dataset hashes both data files, and only files of its directory
    if files.keys() != {"profiles.jsonl", "qa.jsonl"}:
        raise DatasetIOError(
            f"manifest files must name exactly profiles.jsonl and qa.jsonl, got {sorted(files)}"
        )
    return manifest, hashlib.sha256(data).hexdigest()


def _require_hash(name: str, manifest: Mapping, actual: str) -> None:
    """Require ``actual`` to be the sha256 that ``manifest`` records for data file ``name``."""
    expected = manifest["files"][name]
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


def _first_fault(path: Path, blocks: Iterable[tuple[int, bytes]], row: str, name_row, hasher=None):
    """The DatasetIOError of the file at ``path`` if it is not exactly ``blocks``' lines; else None.

    ``blocks`` are ``(number of lines, bytes)``, as ``profile_lines`` and
    ``question_lines`` give them. The file is read once, in binary, and
    compared with each block's bytes. The first byte that
    differs names its expected line as ``path:line``: a file that ends at
    the start of that line misses it (with the number of ``row`` rows
    expected), bytes after the last line are an extra row, and any other
    difference is not the canonical row of ``name_row(expected line)``. A
    ``hasher`` (a ``hashlib`` object) is updated with every byte of the file.
    """
    # the lines are ASCII (JSON with ensure_ascii), so a \r, a \r\n or a byte
    # that is not UTF-8 differs from them like any other byte
    blocks = iter(blocks)
    lineno, fault = 1, None
    with open(path, "rb") as f:
        for n, data in blocks:
            got = f.read(len(data))
            if hasher is not None:
                hasher.update(got)
            if got != data:  # a block that matches costs one compare, and no search
                at = len(os.path.commonprefix((got, data)))
                start = data.rfind(b"\n", 0, at) + 1
                lineno += data.count(b"\n", 0, at)
                if at == start == len(got):
                    total = lineno - 1 + data.count(b"\n", at) + sum(n for n, _ in blocks)
                    fault = f"missing {row} row ({total} expected)"
                else:
                    want = data[start:data.index(b"\n", at) + 1].decode("ascii")
                    fault = f"not the canonical row of {name_row(want)}"
                break
            lineno += n
        if fault is None and f.peek(1):  # peeked, so the hash below still reads it
            fault = "extra row"
        if hasher is not None:
            for got in iter(partial(f.read, 1 << 16), b""):
                hasher.update(got)
    return None if fault is None else DatasetIOError(f"{path}:{lineno}: {fault}")


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
    """Load a persisted dataset: ``load_manifest``, then ``checked_dataset`` entered and left.

    Both data files are hashed and compared in full, each read once in
    ``checked_dataset``'s child, and a fault is the one ``checked_dataset``
    ranks first: a stale hash raises HashMismatchError.
    """
    manifest, _ = load_manifest(path)
    with checked_dataset(path, manifest) as loaded:
        return loaded


@contextmanager
def checked_dataset(path: Path, manifest: dict) -> Iterator[tuple[SplitSet, World]]:
    """The splits and world of the dataset at ``path``; its data files are checked as the body runs.

    ``manifest`` is ``load_manifest``'s, and loses ``holdout_components`` to
    ``replay_dataset``. The profiles.jsonl hash, the replay and the train
    stream come first, in this process. A forked child then reads each data
    file once, in ``_check_data_files``: it compares profiles.jsonl and
    qa.jsonl with the lines ``profile_lines`` and ``question_lines`` write,
    hashes qa.jsonl from the same bytes, and leaves by ``os._exit``: it
    never returns into the caller.

    The two run on different CPUs where the process may use two or more.
    A forked child starts on its parent's CPU, and where the kernel does not
    balance load across CPUs (a cpuset with ``sched_load_balance`` 0) it
    stays there, so the check and the body would share one CPU. The parent
    therefore keeps the lowest allowed CPU and the child takes the rest;
    the parent gets its whole mask back once the child is reaped, however
    the body ends. With one allowed CPU, or without
    ``os.sched_setaffinity``, nothing is pinned, and a refused
    ``sched_setaffinity`` is ignored: placement never fails the check.

    A fault is raised in the order of a check that hashed both files first:
    a stale profiles.jsonl hash, then a stale qa.jsonl hash (HashMismatchError
    both), then a replay fault, then the first line that differs, is missing
    or is extra, named ``path:line`` (DatasetIOError), in profiles.jsonl and
    then in qa.jsonl. So a replay fault hashes qa.jsonl here before it is
    raised; ``_check_data_files`` ranks the child's faults. When
    the body ends, the child is reaped first. Its fault, of the class it was
    raised as, replaces any Exception of the body, as a check made first
    would have. Any other exit of the body (KeyboardInterrupt) kills the
    child and goes on once it is reaped.
    """
    path = Path(path)
    _require_hash("profiles.jsonl", manifest, sha256_file(path / "profiles.jsonl"))
    try:
        split_set, world = replay_dataset(path, manifest)
    except Exception:
        _require_hash("qa.jsonl", manifest, sha256_file(path / "qa.jsonl"))
        raise
    split_set.train  # built here, and not once more in the child
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    split = len(mask) >= 2
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1  # any way out but a check that passed
        try:
            os.close(read_end)
            if split:
                _run_on(mask - {min(mask)})
            with open(write_end, "wb") as pipe:
                try:
                    _check_data_files(path, manifest, split_set, world)
                    status = 0
                except Exception as exc:
                    import pickle  # here, not at the top: only a fault pays for its import
                    pipe.write(pickle.dumps(exc))
        finally:
            os._exit(status)
    os.close(write_end)
    if split:
        _run_on({min(mask)})
    try:
        yield split_set, world
    except Exception:
        _reap_check(pid, read_end)  # the child's fault, if any, in place of the body's
        raise
    except BaseException:  # an interrupt: the check is not waited for
        import signal  # here, not at the top: its import costs every command about 1 ms
        os.kill(pid, signal.SIGKILL)
        with suppress(Exception):
            _reap_check(pid, read_end)
        raise
    else:
        _reap_check(pid, read_end)
    finally:
        if split:
            _run_on(mask)


def _run_on(cpus: set[int]) -> None:
    """Run this process on ``cpus``; a refusal is ignored, for placement only speeds the check up."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _check_data_files(path: Path, manifest: Mapping, split_set: SplitSet, world: World) -> None:
    """``checked_dataset``'s check of both data files' lines and of qa.jsonl's hash.

    Both files are compared before any fault is raised, so the faults rank
    as ``checked_dataset`` gives them: a stale qa.jsonl hash, then the first
    line fault of profiles.jsonl, then that of qa.jsonl.
    """
    hasher = hashlib.sha256()
    profiles = _first_fault(path / "profiles.jsonl", profile_lines(world), "profile",
                            lambda want: f"profile {json.loads(want)['id']}")
    questions = _first_fault(path / "qa.jsonl", question_lines(world, split_set), "question",
                             lambda want: repr(json.loads(want)["qid"]), hasher)
    _require_hash("qa.jsonl", manifest, hasher.hexdigest())
    if profiles or questions:
        raise profiles or questions


def _reap_check(pid: int, read_end: int) -> None:
    """Reap the check in child ``pid``; raise the fault it sent through ``read_end``, if any."""
    try:
        with open(read_end, "rb") as pipe:
            fault = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if fault and os.waitstatus_to_exitcode(status) == 1:  # a fault the child sent in full
        import pickle
        raise pickle.loads(fault) from None
    if status:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit code {code}" if code > 0 else f"killed by signal {-code}"
        raise DatasetIOError(f"the data-file check died ({how})")
