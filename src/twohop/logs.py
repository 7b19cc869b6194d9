"""Loss-log records, JSONL serialization, and validation against a dataset.

A loss log carries one record per question with the natural-log probability
the model assigned to the complete answer (summed over its answer tokens by
the producer). Records join back to the dataset through qids.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from json.scanner import NUMBER_RE
from math import inf, isfinite, log
from pathlib import Path
from typing import Iterable, NamedTuple

from .estimator import AggregateLoss, LossAccumulator, first_hop_group, first_hop_reading
from .worldgen import (_CHUNK_BYTES, SPLITS, DatasetIOError, KeySpace, QuestionKind, SplitSet,
                       World, checked_dataset, load_manifest)


# A loss-log row has the bytes that json.dumps(row, sort_keys=True) gives
# it. Every row is written from the f-strings of row_lead, row_qid_head and
# row_tail around its number and its qid's entity, which give those bytes;
# the encoder below, which has the same settings, writes the numbers an
# f-string cannot. Rows are read through _decode_record, or matched against
# the same pieces by validate_loss_log.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)
_scan_value = json.JSONDecoder().scan_once
# Each row's number field, as the text between its key and the qid; whether that text
# is one JSON number token (with re.ASCII, \d is an ASCII digit, as JSON requires)
_number_fields = re.compile(r'"logprob_nats": ([^,\n]*), "qid": "').findall
_is_number = re.compile(NUMBER_RE.pattern, re.ASCII).fullmatch


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


class LossRecord(NamedTuple):
    qid: str
    split: str
    kind: str
    logprob_nats: float


def row_lead(kind: str) -> str:
    """A row's text before its number."""
    return f'{{"kind": {_json_str(kind)}, "logprob_nats": '


def row_qid_head(qid_head: str) -> str:
    """A row's text from its number to the end of ``qid_head``, the part of its qid before the entity."""
    return f', "qid": {_json_str(qid_head)[:-1]}'


def row_head(kind: str, x: float, qid_head: str) -> str:
    """A row's text up to the end of ``qid_head``: ``row_lead``, the number and ``row_qid_head``.

    The row is the line ``json.dumps(row, sort_keys=True)`` writes: a finite
    float's JSON is its repr, and any other number goes through the encoder
    (``NaN``, ``Infinity``). JSON escapes a string one character at a time,
    so a qid's text is its head's, its entity's and its tail's (``row_tail``).
    """
    number = repr(x) if type(x) is float and isfinite(x) else _ROW_ENCODER.encode(x)
    return row_lead(kind) + number + row_qid_head(qid_head)


def row_tail(qid_tail: str, split: str) -> str:
    """A row's text after its qid's entity, from ``qid_tail`` to the newline."""
    return f'{_json_str(qid_tail)[1:]}, "split": {_json_str(split)}}}\n'


def write_loss_log(records: Iterable[tuple[str, str, str, float]], path: Path) -> int:
    """Write each ``(qid, split, kind, logprob_nats)`` record as it arrives; return the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for qid, split, kind, x in records:
            f.write(row_head(kind, x, qid) + row_tail("", split))
            count += 1
    return count


def _decode_record(path: Path, lineno: int, raw: bytes) -> tuple[str, str, str, float] | None:
    """The (qid, split, kind, logprob_nats) of line ``lineno`` of a loss log, or None if blank.

    A line that is not a record, or not UTF-8, raises DatasetIOError naming
    ``path:lineno``.
    """
    try:
        line = raw.decode("utf-8")
        if not line.strip():
            return None
        d = _decode_row(line)
        qid, split, kind, x = d["qid"], d["split"], d["kind"], d["logprob_nats"]
        # readers hash and compare these as strings
        if type(qid) is not str or type(split) is not str or type(kind) is not str:
            raise TypeError("qid, split and kind must be strings")
        if type(x) is not float:
            # a JSON number: not a string, and not true, which float() reads as 1.0
            if type(x) is not int:
                raise TypeError("logprob_nats must be a JSON number")
            x = float(x)  # OverflowError past the float range
        if not isfinite(x):  # the decoder reads NaN, Infinity and -Infinity
            raise ValueError(f"logprob_nats must be finite, got {x}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetIOError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return qid, split, kind, x


def _loss_rows(path: Path):
    """Yield (line number, (qid, split, kind, logprob_nats)) for each non-blank line of a loss log.

    Each line goes through ``_decode_record``. Lines end at ``\\n``, as JSON
    Lines defines them.
    """
    try:
        with open(path, "rb") as f:
            for lineno, raw in enumerate(f, 1):
                record = _decode_record(path, lineno, raw)
                if record is not None:
                    yield lineno, record
    except OSError as exc:
        raise DatasetIOError(f"cannot read loss log: {exc}") from exc


def read_loss_log(path: Path) -> list[LossRecord]:
    return [LossRecord._make(rec) for _, rec in _loss_rows(path)]


# The accumulators a loss log's rows fold into: one per kind, and one per
# split of the two-hop records
ROW_GROUPS = ("one_hop", "two_hop", *(f"two_hop/{split}" for split in SPLITS))
# A summary's groups: the rows' and the first-hop units' (estimator.first_hop_group)
SUMMARY_GROUPS = (*ROW_GROUPS, "hop1")


def group_names(kind: str, split: str) -> tuple[str, ...]:
    """The groups a ``kind`` row of ``split`` joins: ``one_hop``, or ``two_hop`` and ``two_hop/SPLIT``."""
    if kind == QuestionKind.TWO_HOP.value:
        return "two_hop", f"two_hop/{split}"
    return ("one_hop",)


def summarize(rows: Iterable[tuple[str, str, str, float]]) -> dict[str, LossAccumulator]:
    """Add every ``(qid, split, kind, logprob_nats)`` row to ROW_GROUPS' accumulators.

    A row joins the groups of ``group_names``. The rows are a complete log's
    (``require_complete``) or a simulator's, so each row's kind and split are a question's.
    """
    groups = {name: LossAccumulator() for name in ROW_GROUPS}
    adds = {(kind.value, split): tuple(groups[name].add for name in group_names(kind.value, split))
            for kind in (QuestionKind.ONE_HOP, QuestionKind.TWO_HOP) for split in SPLITS}
    for _, split, kind, x in rows:
        for add in adds[kind, split]:
            add(x)
    return groups


def fold_log(path: Path, world: World) -> dict[str, LossAccumulator]:
    """SUMMARY_GROUPS' accumulators of the complete loss log at ``path``, joined to ``world``.

    A row's question is the one its qid names (``KeySpace.key_of_qid``). The
    first pass is ``summarize``'s, and keeps the highest logprob of each
    one-hop question (e, a) with a relation a. The second keeps, for each
    unit (e1, r), the least ``first_hop_reading`` of its two-hop questions
    (e1, r, a) with a relation a, against the kept (e2, a) of the world's
    target e2 of (e1, r). Each pass holds n·|R| floats.
    """
    space = KeySpace(world.config, cot=False)
    n, n_relations, n_attrs = space.n_profiles, space.n_relations, space.n_attributes
    second = array("d", [log(1.0 / n)]) * (n * n_relations)  # no row: at chance
    readings = array("d", [inf]) * (n * n_relations)

    def joined(head: str):
        """Each row, and its question's (e1·(|R| + 1) + r, a) if the qid starts ``head``, a < |R|."""
        for _, row in _loss_rows(path):
            q, a = divmod(space.key_of_qid(row[0]), n_attrs) if row[0].startswith(head) else (0, n_attrs)
            yield row, (q, a) if a < n_relations else None

    def first_pass():
        for row, question in joined("1h:"):
            yield row
            if question:  # q = e·(|R| + 1) + |R|
                i = question[0] // (n_relations + 1) * n_relations + question[1]
                second[i] = max(second[i], row[3])

    groups = summarize(first_pass())
    for (_, _, _, x), question in joined("2h:"):
        if question:
            (e1, r), a = divmod(question[0], n_relations + 1), question[1]
            i, e2 = e1 * n_relations + r, world.facts[e1 * n_attrs + r]
            readings[i] = min(readings[i], first_hop_reading(x, second[e2 * n_relations + a], n))
    groups["hop1"] = first_hop_group(readings, n)
    return groups


def results(groups: dict[str, LossAccumulator]) -> dict[str, AggregateLoss]:
    """Each group's ``result()``, and zeros for an empty group."""
    return {name: acc.result() if acc.count else AggregateLoss(0.0, 0)
            for name, acc in groups.items()}


def summary_to_json(groups: dict[str, LossAccumulator], log_sha256: str) -> dict:
    """A run manifest's ``summary``: the log's sha256 and each group's ``results`` entry."""
    return {
        "log_sha256": log_sha256,
        "groups": {name: {"count": agg.count, "mean": agg.mean_loss_nats}
                   for name, agg in results(groups).items()},
    }


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def summary_from_json(summary, where: str) -> tuple[str, dict[str, AggregateLoss]]:
    """The log sha256 and group aggregates that ``summary_to_json`` wrote.

    ``summary`` is outside input: anything but an object holding a string
    ``log_sha256`` and every group of SUMMARY_GROUPS, each with an integer
    ``count`` >= 0 and a finite ``mean`` >= 0, raises DatasetIOError naming
    ``where``, so a summary written before the ``hop1`` group is refused as lacking it.
    """
    if type(summary) is not dict:
        raise DatasetIOError(f"{where}: summary must be a JSON object")
    log_sha256, recorded = summary.get("log_sha256"), summary.get("groups")
    if type(log_sha256) is not str:
        raise DatasetIOError(f"{where}: summary log_sha256 must be a string")
    if type(recorded) is not dict:
        raise DatasetIOError(f"{where}: summary groups must be a JSON object")
    groups = {}
    for name in SUMMARY_GROUPS:
        if name not in recorded:
            raise DatasetIOError(f"{where}: summary lacks group {name!r}")
        state = recorded[name]
        if type(state) is not dict:
            raise DatasetIOError(f"{where}: summary group {name!r} must be a JSON object")
        count, mean = state.get("count"), state.get("mean")
        # type(), not isinstance(): a JSON true must not pass as the integer 1
        if type(count) is not int or count < 0:
            raise DatasetIOError(f"{where}: summary group {name!r}: count must be an integer >= 0")
        if not (_finite_number(mean) and mean >= 0):  # a loss is -logprob >= 0, and so is a mean
            raise DatasetIOError(f"{where}: summary group {name!r}: mean must be a number >= 0")
        groups[name] = AggregateLoss(float(mean), count)
    return log_sha256, groups


class LogDiagnostics:
    """Validation findings for a loss log against its dataset."""

    __slots__ = ("n_records", "unknown_qids", "duplicate_qids", "positive_logprobs", "mislabeled",
                 "missing_splits", "coverage")

    def __init__(self, n_records: int):
        self.n_records = n_records
        self.unknown_qids: list[str] = []
        self.duplicate_qids: list[str] = []
        self.positive_logprobs: list[tuple[int, str]] = []
        # (line, qid, split, kind) of each record whose split or kind is not its
        # question's, with the question's split and kind
        self.mislabeled: list[tuple[int, str, str, str]] = []
        self.missing_splits: list[str] = []
        self.coverage: dict[str, float] = {}

    @property
    def has_violations(self) -> bool:
        return bool(
            self.unknown_qids or self.duplicate_qids or self.positive_logprobs or self.mislabeled
        )

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "unknown_qids": self.unknown_qids,
            "duplicate_qids": self.duplicate_qids,
            "positive_logprobs": [
                {"line": line, "qid": qid} for line, qid in self.positive_logprobs
            ],
            "mislabeled": [
                {"line": line, "qid": qid, "expected_split": split, "expected_kind": kind}
                for line, qid, split, kind in self.mislabeled
            ],
            "missing_splits": self.missing_splits,
            "coverage": self.coverage,
            "has_violations": self.has_violations,
        }


# How far past the question that validate's walk awaits a joined line may
# name one for the walk to go on after it: a dropped row costs one join
RESYNC_ROWS = 16


def validate_loss_log(log_path: Path, dataset_dir: Path) -> LogDiagnostics:
    """Report unknown/duplicate qids, positive logprobs, mislabeled records and per-split coverage.

    A record joins its question through the key its qid names and the
    dataset's split table. A record is mislabeled when its split or kind is
    not its question's. The dataset's data files are compared with its
    manifest (``checked_dataset``) while the log is read.

    The log is read in one pass that walks the dataset's questions in file
    order, a block at a time. The first row of the next question, written from
    the row pieces around a finite JSON number <= 0 (as ``simulate`` writes
    it), is that question's record, with no finding. Any other line is decoded
    and joined through its qid, which alone names findings, and when that
    names one of the next ``RESYNC_ROWS`` questions, the walk goes on after it.
    """
    manifest, _ = load_manifest(dataset_dir)
    with checked_dataset(dataset_dir, manifest) as (split_set, _):
        return _walk_log(log_path, split_set)


def require_complete(log_path: Path, split_set: SplitSet) -> None:
    """Refuse, with DatasetIOError, a log that ``_walk_log`` does not find complete.

    A complete log has no finding and coverage 1.0 in every non-empty split:
    one record per question of ``split_set``, each with a logprob <= 0.
    """
    diag = _walk_log(log_path, split_set)
    short = ", ".join(f"{split} {c!r}" for split, c in diag.coverage.items() if c != 1.0)
    if diag.has_violations or short:
        raise DatasetIOError(
            f"loss log {log_path} is not complete: {len(diag.unknown_qids)} unknown, "
            f"{len(diag.duplicate_qids)} duplicate, {len(diag.mislabeled)} mislabeled and "
            f"{len(diag.positive_logprobs)} positive records; coverage {short or '1.0'}"
        )


def _walk_log(log_path: Path, split_set: SplitSet) -> LogDiagnostics:
    """``validate_loss_log``'s findings for the log at ``log_path`` against ``split_set``."""
    totals = split_set.counts()
    space, table = split_set.space, split_set.table
    entries, per_entity = space.entries, space.per_entity

    diag = LogDiagnostics(n_records=0)
    seen = bytearray(len(table))  # 1 where a known question's record was read
    unknown_seen: set[str] = set()
    covered = dict.fromkeys(totals, 0)

    def join(lineno: int, raw: bytes) -> int | None:
        """Decode a line and join its record through its qid; return the key the qid names, if any."""
        record = _decode_record(log_path, lineno, raw)
        if record is None:
            return None
        qid, rec_split, rec_kind, x = record
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
            split, kind = SPLITS[code - 1], entries[key % per_entity].kind
            if rec_split != split or rec_kind != kind:
                diag.mislabeled.append((lineno, qid, split, kind))
        if repeat:
            diag.duplicate_qids.append(qid)
        elif code:
            covered[split] += 1
        return key

    order = list(split_set.splits())

    def resync(key: int | None, s: int, i: int) -> tuple[int, int] | None:
        """The split and place after ``key`` if it is within RESYNC_ROWS of place i of split s."""
        budget = RESYNC_ROWS
        for t in range(s, len(order)):
            window = order[t][1][i : i + budget]
            if key in window:
                return t, i + window.index(key) + 1
            budget, i = budget - len(window), 0
        return None

    # The row pieces of each entry (one object per distinct piece) and entity id. Text
    # compared is latin-1, one character per byte, so an ASCII piece matches only its bytes.
    ids = [str(e1) for e1 in range(space.n_profiles)]
    leads = [sys.intern(row_lead(entry.kind)) for entry in entries]
    qid_heads = [sys.intern(row_qid_head(entry.qid_head)) for entry in entries]
    # a row's longest length but its tail: lead, qid head, id and a float's repr (24)
    widest = max(map(len, leads)) + max(map(len, qid_heads)) + len(ids[-1]) + 24

    def first_records(block, text: str, tails: list[str]) -> bool:
        """Whether the lines ``text`` are the first records of ``block``'s questions: none
        read yet, and the rows written around one number token each, finite and <= 0."""
        tokens = _number_fields(text)
        distinct = set(tokens)  # a log holds few distinct numbers
        rows = [f"{leads[rest]}{token}{qid_heads[rest]}{ids[key // per_entity]}{tails[rest]}"
                for key, token in zip(block, tokens) for rest in (key % per_entity,)]
        # only a joined record (diag.n_records until the walk ends) marks a later question read
        if len(tokens) != len(block) or "".join(rows) != text or not all(map(_is_number, distinct)) or (
                diag.n_records and any(map(seen.__getitem__, block))):
            return False
        numbers = list(map(float, distinct))
        return max(numbers) <= 0 and min(numbers) > -inf

    s, start = 0, 0  # the walk awaits place ``start`` of split ``s``
    lineno, held, matched = 0, [], 0  # the last line walked, lines read past it, rows taken
    try:
        with open(log_path, "rb") as f:
            while s < len(order):
                split, keys = order[s]
                tails = [row_tail(entry.qid_tail, split) for entry in entries]
                row_bytes = widest + max(map(len, tails))
                per_block, resume = max(1, _CHUNK_BYTES // row_bytes), None
                while start < len(keys) and not resume:
                    block = keys[start : start + per_block]
                    n = len(block)
                    if len(held) < n:  # up to a block's bytes, and at most one line more
                        held += f.readlines((per_block - len(held)) * row_bytes)
                    if first_records(block, b"".join(held[:n]).decode("latin-1"), tails):
                        for key in block:
                            seen[key] = 1
                        covered[split] += n
                        matched += n
                        lineno, start = lineno + n, start + n
                        del held[:n]
                        continue
                    # any other block is walked one line at a time from its first
                    walked, lines = lineno, enumerate(chain(held, f), lineno + 1)
                    for i in range(start, start + n):
                        e1, rest = divmod(keys[i], per_entity)
                        lead = leads[rest].encode()
                        end = (qid_heads[rest] + ids[e1] + tails[rest]).encode()
                        for lineno, raw in lines:
                            # the awaited row is a block of one; any other line is joined
                            if raw.startswith(lead) and raw.endswith(end) and first_records(
                                    keys[i : i + 1], raw.decode("latin-1"), tails):
                                break
                            if resume := resync(join(lineno, raw), s, i):
                                break
                        else:
                            resume = len(order), 0  # the log ended
                        if resume:
                            break
                        seen[keys[i]] = 1
                        covered[split] += 1
                        matched += 1
                    del held[: lineno - walked]
                    start += n
                s, start = resume or (s + 1, 0)
            for lineno, raw in enumerate(chain(held, f), lineno + 1):  # after the last question
                join(lineno, raw)
    except OSError as exc:
        raise DatasetIOError(f"cannot read loss log: {exc}") from exc

    diag.n_records += matched
    for split, total in totals.items():
        if total:  # an empty split has no coverage to report
            diag.coverage[split] = covered[split] / total
            if not covered[split]:
                diag.missing_splits.append(split)
    return diag
