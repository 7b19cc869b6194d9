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
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

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


TWO_HOP_KINDS = (QuestionKind.TWO_HOP, QuestionKind.TWO_HOP_COT)
_KIND_BY_VALUE = {kind.value: kind for kind in QuestionKind}


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

    def is_relation(self, attribute: str) -> bool:
        return attribute in self.relations

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
        if self.name_space_size < self.n_profiles:
            raise ConfigError(
                f"name space {self.name_space_size} smaller than "
                f"{self.n_profiles} profiles; cannot sample without replacement"
            )
        names = list(self.relations) + list(self.property_names)
        if len(set(names)) != len(names):
            raise ConfigError("relation and property names must be unique and disjoint")
        for name, size in self.properties:
            if size < 1:
                raise ConfigError(f"value pool for {name!r} must be >= 1")
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

        A missing key or a value of the wrong type raises ConfigError.
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
        return cls(
            relations=tuple(relations),
            properties=tuple((name, size) for name, size in properties),
            **ints,
        )


_CONFIG_INT_KEYS = ("n_profiles", "first_names", "middle_names", "last_names", "seed")


@dataclass(frozen=True)
class Profile:
    id: int
    first: int
    middle: int
    last: int
    relation_values: dict[str, int]
    property_values: dict[str, int]


@dataclass
class World:
    """Ground-truth universe: profiles plus the (entity, relation) -> entity map."""

    config: WorldConfig
    profiles: list[Profile]

    def profile(self, pid: int) -> Profile:
        return self.profiles[pid]

    def entity_name(self, pid: int) -> str:
        p = self.profiles[pid]
        return f"F{p.first} M{p.middle} L{p.last}"

    def relation_target(self, e1: int, relation: str) -> int:
        try:
            return self.profiles[e1].relation_values[relation]
        except KeyError:
            raise ConfigError(f"unknown relation: {relation!r}") from None

    def value_string(self, prop: str, value: int) -> str:
        slug = prop.replace(" ", "_")
        return f"{slug}_{value}"

    def answer_string(self, entity: int, attribute: str) -> str:
        """Rendered answer for the one-hop fact (entity, attribute)."""
        if self.config.is_relation(attribute):
            return self.entity_name(self.relation_target(entity, attribute))
        return self.value_string(attribute, self.profiles[entity].property_values[attribute])


@dataclass(frozen=True, slots=True)
class QAItem:
    """The key of one question (e1, r, a) over a world; one-hop items have no r."""

    qid: str
    kind: QuestionKind
    e1: int
    r: str | None
    a: str
    split: str

    def __post_init__(self):
        if self.kind is QuestionKind.ONE_HOP:
            if self.r is not None:
                raise ValueError("one-hop questions have no first relation")
        elif self.r is None:
            raise ValueError("two-hop questions require a first relation")


@dataclass
class SplitSet:
    """Train stream plus the seven holdout sets and the components that define them."""

    train: list[QAItem]
    heldout: dict[str, list[QAItem]]
    holdout_manifest: dict[str, list]
    params: dict = field(default_factory=dict)

    def all_items(self) -> Iterable[QAItem]:
        yield from self.train
        for kind in HOLDOUT_KINDS:
            yield from self.heldout.get(kind, [])

    def counts(self) -> dict[str, int]:
        """Items per split: train, then the holdout sets in HOLDOUT_KINDS order."""
        return {"train": len(self.train)} | {k: len(self.heldout.get(k, [])) for k in HOLDOUT_KINDS}


def generate_world(config: WorldConfig) -> World:
    """Deterministically generate a world from its config and seed."""
    config.validate()
    rng = random.Random(config.seed)
    triples = rng.sample(range(config.name_space_size), config.n_profiles)
    ml = config.middle_names * config.last_names
    profiles = []
    for pid, t in enumerate(triples):
        first, rem = divmod(t, ml)
        middle, last = divmod(rem, config.last_names)
        relation_values = {r: rng.randrange(config.n_profiles) for r in config.relations}
        property_values = {name: rng.randrange(size) for name, size in config.properties}
        profiles.append(Profile(pid, first, middle, last, relation_values, property_values))
    return World(config, profiles)


def one_hop_qid(e1: int, a: str) -> str:
    return f"1h:{e1}:{a}"


def two_hop_qid(e1: int, r: str, a: str) -> str:
    return f"2h:{e1}:{r}:{a}"


def make_question(
    world: World, kind: QuestionKind, e1: int, r: str | None, a: str, split: str = "train"
) -> QAItem:
    """The question (e1, r, a) of ``kind``, checked against the world."""
    cfg = world.config
    if a not in cfg.attributes:
        raise ValueError(f"unknown attribute: {a!r}")
    if not 0 <= e1 < cfg.n_profiles:
        raise ValueError(f"unknown entity: {e1}")
    if kind is QuestionKind.ONE_HOP:
        return QAItem(one_hop_qid(e1, a), kind, e1, r, a, split)
    if not cfg.is_relation(r):
        raise ValueError(f"first hop must be a relation, got {r!r}")
    return QAItem(two_hop_qid(e1, r, a), kind, e1, r, a, split)


def render_question(world: World, item: QAItem) -> dict:
    """The qa.jsonl row of a question: its key plus e2, answer and text from the templates."""
    e1, r, a = item.e1, item.r, item.a
    name = world.entity_name(e1)
    if item.kind is QuestionKind.ONE_HOP:
        e2 = None
        answer = world.answer_string(e1, a)
        text = f"What was {name}'s {a}? {answer}"
    else:
        e2 = world.relation_target(e1, r)
        answer = world.answer_string(e2, a)
        if item.kind is QuestionKind.TWO_HOP:
            text = f"What was {name}'s {r}'s {a}? {answer}"
        else:
            e2_name = world.entity_name(e2)
            text = (
                f"What was {name}'s {r}'s {a}? "
                f"{name}'s {r} was {e2_name}. {e2_name}'s {a} was {answer}."
            )
    return {"qid": item.qid, "kind": item.kind.value, "e1": e1, "r": r, "a": a, "e2": e2,
            "answer": answer, "text": text, "split": item.split}


def _sample_components(world: World, fractions: Mapping[str, float], rng: random.Random) -> dict:
    cfg = world.config
    n = cfg.n_profiles
    populations = {
        "heldout_e1": list(range(n)),
        "heldout_r": list(cfg.relations),
        "heldout_e2": list(range(n)),
        "heldout_a": list(cfg.attributes),
        "heldout_e1r": [(e, r) for e in range(n) for r in cfg.relations],
        "heldout_e2a": [(e, a) for e in range(n) for a in cfg.attributes],
        "heldout_full": [
            (e, r, a) for e in range(n) for r in cfg.relations for a in cfg.attributes
        ],
    }
    components: dict[str, set] = {}
    for kind in HOLDOUT_KINDS:
        frac = fractions.get(kind, 0.0)
        if not 0.0 <= frac < 1.0:
            raise ConfigError(f"holdout fraction for {kind} must be in [0, 1)")
        pop = populations[kind]
        k = math.ceil(frac * len(pop)) if frac > 0 else 0
        if k >= len(pop):
            raise ConfigError(f"holdout fraction for {kind} would exhaust its population")
        components[kind] = set(rng.sample(pop, k))
    return components


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

    two_hop_kind = QuestionKind.TWO_HOP_COT if cot else QuestionKind.TWO_HOP
    heldout: dict[str, list[QAItem]] = {kind: [] for kind in HOLDOUT_KINDS}
    train_two_hop: list[QAItem] = []
    for e1 in range(cfg.n_profiles):
        for r in cfg.relations:
            e2 = world.relation_target(e1, r)
            for a in cfg.attributes:
                if e1 in components["heldout_e1"]:
                    dest = "heldout_e1"
                elif r in components["heldout_r"]:
                    dest = "heldout_r"
                elif e2 in components["heldout_e2"]:
                    dest = "heldout_e2"
                elif a in components["heldout_a"]:
                    dest = "heldout_a"
                elif (e1, r) in components["heldout_e1r"]:
                    dest = "heldout_e1r"
                elif (e2, a) in components["heldout_e2a"]:
                    dest = "heldout_e2a"
                elif (e1, r, a) in components["heldout_full"]:
                    dest = "heldout_full"
                else:
                    train_two_hop.append(make_question(world, two_hop_kind, e1, r, a))
                    continue
                heldout[dest].append(make_question(world, two_hop_kind, e1, r, a, dest))

    one_hop = [
        make_question(world, QuestionKind.ONE_HOP, e1, None, a)
        for e1 in range(cfg.n_profiles)
        for a in cfg.attributes
    ]

    if mix_ratio == 0:
        train = one_hop
    else:
        rng.shuffle(train_two_hop)
        rng.shuffle(one_hop)
        train = []
        taken = 0
        for i, item in enumerate(train_two_hop):
            train.append(item)
            if (i + 1) % mix_ratio == 0 and taken < len(one_hop):
                train.append(one_hop[taken])
                taken += 1
        train.extend(one_hop[taken:])

    manifest = {
        kind: sorted(list(c) if isinstance(c, tuple) else [c] for c in components[kind])
        for kind in HOLDOUT_KINDS
    }
    params = {
        "seed": seed,
        "mix_ratio": mix_ratio,
        "holdout_fractions": {k: holdout_fractions.get(k, 0.0) for k in HOLDOUT_KINDS},
        "cot": cot,
    }
    return SplitSet(train, heldout, manifest, params)


# --- persistence ---------------------------------------------------------

# Every JSONL row of a dataset or loss log is written and read through the
# codec below. The encoder has json.dumps(row, sort_keys=True)'s settings, so
# rows keep their bytes; one instance saves building an encoder per row.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)
_scan_value = json.JSONDecoder().scan_once


def _write_rows(path: Path, rows: Iterable[Mapping]) -> None:
    """Write each row as one sorted-key JSON object per line."""
    encode = _ROW_ENCODER.encode
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(encode(row) + "\n")


def _decode_row(line: str):
    """Decode one JSONL line to the value json.loads(line) gives, or raise its error."""
    # The C scanner parses one value at index 0 and reports where it ended,
    # skipping no whitespace and ignoring what follows. Its value is
    # json.loads's only when it ends exactly at the line's end (before the
    # newline). Any other line (padding, \r\n, extra data, no value at 0)
    # goes to json.loads, so every line decodes to the same value, or fails
    # with the same error, as json.loads(line).
    end = len(line) - 1 if line.endswith("\n") else len(line)
    try:
        value, stop = _scan_value(line, 0)
    except StopIteration:
        return json.loads(line)
    return value if stop == end else json.loads(line)


def _read_rows(path: Path, what: str, take) -> None:
    """Pass each decoded line of a dataset file to ``take``.

    A line that is not JSON (a blank line included), or whose value ``take``
    rejects with KeyError, TypeError or ValueError, raises DatasetIOError
    naming ``path:line``.
    """
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            try:
                take(_decode_row(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetIOError(f"{path}:{lineno}: malformed {what} row ({exc!r})") from None


def sha256_file(path: Path, chunk_size: int = 1 << 20) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(chunk_size), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _profile_to_json(p: Profile) -> dict:
    return {
        "id": p.id,
        "first": p.first,
        "middle": p.middle,
        "last": p.last,
        "relations": p.relation_values,
        "properties": p.property_values,
    }


def _profile_from_json(d: Mapping, pid: int, config: WorldConfig) -> Profile:
    """Row ``pid`` of profiles.jsonl; a row that does not fit ``config`` raises ValueError."""
    if pid >= config.n_profiles:
        raise ValueError(f"more rows than n_profiles = {config.n_profiles}")
    if type(d["id"]) is not int or d["id"] != pid:
        raise ValueError(f"id {d['id']!r} is not the row index {pid}")
    relations = _pool_values(d, "relations", dict.fromkeys(config.relations, config.n_profiles))
    properties = _pool_values(d, "properties", dict(config.properties))
    return Profile(pid, d["first"], d["middle"], d["last"], relations, properties)


def _pool_values(d: Mapping, key: str, pools: dict[str, int]) -> dict[str, int]:
    """``d[key]`` keyed by ``pools``' names; each value must be an int in [0, pool)."""
    values = d[key]
    if type(values) is not dict or values.keys() != pools.keys():
        raise ValueError(f"{key} must map exactly {list(pools)}")
    for name, pool in pools.items():
        value = values[name]
        if type(value) is not int or not 0 <= value < pool:
            raise ValueError(f"{key}[{name!r}] = {value!r} is not an integer in [0, {pool})")
    return {name: values[name] for name in pools}


# Every qa.jsonl row has these keys; a reader takes only QAItem's six.
_ROW_KEYS = frozenset(("qid", "kind", "e1", "r", "a", "e2", "answer", "text", "split"))


def persist_dataset(split_set: SplitSet, world: World, path: Path) -> dict:
    """Write profiles.jsonl, qa.jsonl, and manifest.json; return the manifest."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    profiles_path = path / "profiles.jsonl"
    _write_rows(profiles_path, map(_profile_to_json, world.profiles))
    qa_path = path / "qa.jsonl"
    _write_rows(qa_path, (render_question(world, item) for item in split_set.all_items()))

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


def load_manifest(path: Path) -> dict:
    try:
        with open(Path(path) / "manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
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
    return manifest


def _verify_files(path: Path, manifest: Mapping) -> None:
    """Check each dataset file against the sha256 its manifest records."""
    for name, expected in manifest["files"].items():
        actual = sha256_file(Path(path) / name)
        if actual != expected:
            raise HashMismatchError(f"{name}: expected {expected}, got {actual}")


def load_dataset(path: Path) -> tuple[SplitSet, World]:
    """Load a persisted dataset, verifying file hashes against the manifest.

    A row that does not fit the config (unknown entity, relation, attribute or
    split, a qid that is not its key's) raises DatasetIOError naming ``path:line``.
    """
    path = Path(path)
    manifest = load_manifest(path)
    _verify_files(path, manifest)

    config = WorldConfig.from_dict(manifest["config"])
    n = config.n_profiles
    profiles: list[Profile] = []
    profiles_path = path / "profiles.jsonl"
    _read_rows(
        profiles_path,
        "profile",
        lambda d: profiles.append(_profile_from_json(d, len(profiles), config)),
    )
    if len(profiles) < n:
        lineno = len(profiles) + 1
        raise DatasetIOError(f"{profiles_path}:{lineno}: missing profile row ({n} expected)")
    world = World(config, profiles)

    train: list[QAItem] = []
    heldout: dict[str, list[QAItem]] = {kind: [] for kind in HOLDOUT_KINDS}
    by_split = {"train": train, **heldout}
    # The decoder gives every row its own copy of r, a and split. Looking them
    # up in these dicts makes items share the config's and the split names'
    # objects, and an unknown name fails the row. The checks are inline because
    # a make_question call per row made loading about a quarter slower.
    relations = {r: r for r in config.relations}
    attributes = {a: a for a in config.attributes}
    splits = {s: s for s in by_split}

    def take_item(d: Mapping) -> None:
        missing = _ROW_KEYS.difference(d)  # a row that is not an object fails here or below
        if missing:
            raise KeyError(", ".join(sorted(missing)))
        kind = _KIND_BY_VALUE[d["kind"]]
        e1, r, a = d["e1"], d["r"], attributes[d["a"]]
        if type(e1) is not int or not 0 <= e1 < n:
            raise ValueError(f"unknown entity: {e1!r}")
        if kind is QuestionKind.ONE_HOP:
            qid = one_hop_qid(e1, a)
        else:
            r = relations[r]
            qid = two_hop_qid(e1, r, a)
        if d["qid"] != qid:
            raise ValueError(f"qid {d['qid']!r} does not match its key {qid!r}")
        split = splits[d["split"]]
        by_split[split].append(QAItem(qid, kind, e1, r, a, split))

    _read_rows(path / "qa.jsonl", "question", take_item)
    split_set = SplitSet(train, heldout, manifest["holdout_components"], manifest["split_params"])
    return split_set, world
