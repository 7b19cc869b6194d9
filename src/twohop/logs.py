"""Loss-log records, JSONL serialization, and validation against a dataset.

A loss log carries one record per question with the natural-log probability
the model assigned to the complete answer (summed over its answer tokens by
the producer). Records join back to the dataset through qids.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from json.scanner import NUMBER_RE
from math import isfinite
from pathlib import Path
from typing import Iterable, NamedTuple

from .estimator import FOLD_ROWS, EstimatorError, LossAccumulator
from .worldgen import SPLITS, DatasetIOError, QuestionKind, SplitSet, checked_dataset, load_manifest


# A loss-log row has the bytes that json.dumps(row, sort_keys=True) gives
# it. Every row is written from the f-strings of row_lead, row_qid_head and
# row_tail around its number and its qid's entity, which give those bytes;
# the encoder below, which has the same settings, writes the numbers an
# f-string cannot. Rows are read through _decode_record, or matched against
# the same pieces by validate_loss_log.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)
_scan_value = json.JSONDecoder().scan_once
# A whole JSON number token, the decoder's grammar; in a bytes pattern \d is
# an ASCII digit, as JSON requires
_number_token = re.compile(NUMBER_RE.pattern.encode()).fullmatch


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


def stream_loss_log(records: Iterable[tuple[str, str, str, float]], path: Path) -> int:
    """Write each ``(qid, split, kind, logprob_nats)`` record as it arrives; return the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for qid, split, kind, x in records:
            f.write(row_head(kind, x, qid) + row_tail("", split))
            count += 1
    return count


def write_loss_log(records, path: Path) -> None:
    stream_loss_log(records, path)


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


# The accumulators a loss log folds into: one per kind, and one per split of
# the two-hop records
SUMMARY_GROUPS = ("one_hop", "two_hop", *(f"two_hop/{split}" for split in SPLITS))


def group_names(kind: str, split: str) -> tuple[str, ...] | None:
    """The names of the groups that a row of ``kind`` and ``split`` joins, or None.

    A one_hop row joins ``one_hop``; a two_hop row joins ``two_hop`` and,
    when its split is one of SPLITS, ``two_hop/SPLIT``; a row of another
    kind joins none. A ``two_hop_cot`` row gives None: a fold refuses it
    (``refused_cot``), since no estimator inverts chain-of-thought losses
    yet and the latent-model inversion does not describe them.
    """
    if kind == QuestionKind.TWO_HOP.value:
        return ("two_hop", f"two_hop/{split}") if split in SPLITS else ("two_hop",)
    if kind == QuestionKind.ONE_HOP.value:
        return ("one_hop",)
    return None if kind == QuestionKind.TWO_HOP_COT.value else ()


def refused_cot(qid: str) -> EstimatorError:
    return EstimatorError(
        f"{qid} is a two_hop_cot record; chain-of-thought logs have no estimator yet"
    )


def new_groups() -> dict[str, LossAccumulator]:
    return {name: LossAccumulator() for name in SUMMARY_GROUPS}


def summarize(rows: Iterable[tuple[str, str, str, float]]) -> dict[str, LossAccumulator]:
    """Fold every ``(qid, split, kind, logprob_nats)`` row into SUMMARY_GROUPS' accumulators.

    A row joins the groups of ``group_names``, and each group folds its rows
    in their order in ``rows``, ``FOLD_ROWS`` rows at a time. The first row
    that no fold takes raises EstimatorError: a ``two_hop_cot`` row, or a
    positive logprob in a row that joins a group.
    """
    groups = new_groups()
    buffers = {name: [] for name in SUMMARY_GROUPS}  # each group's rows, not folded yet

    def appends(kind: str, split: str) -> tuple | None:
        names = group_names(kind, split)
        return None if names is None else tuple(buffers[name].append for name in names)

    # the appends of every kind and split a dataset writes, found once
    known = {
        (kind.value, split): appends(kind.value, split)
        for kind in QuestionKind
        for split in SPLITS
    }
    rows = iter(rows)
    while chunk := list(islice(rows, FOLD_ROWS)):
        for row in chunk:
            qid, split, kind, x = row
            adds = known.get((kind, split)) or appends(kind, split)
            if adds is None:
                raise refused_cot(qid)
            for add in adds:
                add(row)
            if adds and x > 0:
                break  # the fold below stops at this row, the first it cannot take
        for name, buffer in buffers.items():
            groups[name].extend([row[3] for row in buffer], lambda i, buffer=buffer: buffer[i][0])
            buffer.clear()
    return groups


def summary_to_json(groups: dict[str, LossAccumulator], log_sha256: str) -> dict:
    """A run manifest's ``summary``: the log's sha256 and each group's raw Welford state."""
    return {
        "log_sha256": log_sha256,
        "groups": {
            name: {"count": acc.count, "mean": acc.mean, "m2": acc.m2}
            for name, acc in groups.items()
        },
    }


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def summary_from_json(summary, where: str) -> tuple[str, dict[str, LossAccumulator]]:
    """The log sha256 and accumulators that ``summary_to_json`` wrote.

    ``summary`` is outside input: anything but an object holding a string
    ``log_sha256`` and every group of SUMMARY_GROUPS, each with an integer
    ``count`` >= 0 and a finite ``mean`` and ``m2`` >= 0, raises DatasetIOError
    naming ``where``.
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
        count, mean, m2 = state.get("count"), state.get("mean"), state.get("m2")
        # type(), not isinstance(): a JSON true must not pass as the integer 1
        if type(count) is not int or count < 0:
            raise DatasetIOError(f"{where}: summary group {name!r}: count must be an integer >= 0")
        if not (_finite_number(mean) and _finite_number(m2)):
            raise DatasetIOError(f"{where}: summary group {name!r}: mean and m2 must be finite")
        if mean < 0 or m2 < 0:  # a loss is -logprob >= 0, and so are its mean and m2
            raise DatasetIOError(f"{where}: summary group {name!r}: mean and m2 must be >= 0")
        acc = groups[name] = LossAccumulator()
        acc.count, acc.mean, acc.m2 = count, float(mean), float(m2)
    return log_sha256, groups


@dataclass
class LogDiagnostics:
    """Validation findings for a loss log against its dataset."""

    n_records: int
    unknown_qids: list[str] = field(default_factory=list)
    duplicate_qids: list[str] = field(default_factory=list)
    positive_logprobs: list[tuple[int, str]] = field(default_factory=list)
    # (line, qid, split, kind) of each record whose split or kind is not its
    # question's, with the question's split and kind
    mislabeled: list[tuple[int, str, str, str]] = field(default_factory=list)
    missing_splits: list[str] = field(default_factory=list)
    coverage: dict[str, float] = field(default_factory=dict)

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
    order. A line that is the row of the next question, written from the
    row pieces around any finite JSON number (as ``simulate`` writes it),
    is that question's record; any other line is decoded and joined through
    its qid, and when that names one of the next ``RESYNC_ROWS`` questions,
    the walk goes on after it. Either way a line gives the same findings.
    """
    manifest, _ = load_manifest(dataset_dir)
    with checked_dataset(dataset_dir, manifest) as (split_set, _):
        return _walk_log(log_path, split_set)


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

    # the row pieces of each entry, and of each entity's id; rows are ASCII
    ids = [str(e1).encode() for e1 in range(space.n_profiles)]
    leads = [row_lead(entry.kind).encode() for entry in entries]
    qid_heads = [row_qid_head(entry.qid_head).encode() for entry in entries]
    matched, s, start = 0, 0, 0  # the walk awaits place ``start`` of split ``s``
    try:
        with open(log_path, "rb") as f:
            lines = enumerate(f, 1)
            while s < len(order):
                split, keys = order[s]
                tails = [row_tail(entry.qid_tail, split).encode() for entry in entries]
                newly_covered, resume = 0, None
                for i, key in enumerate(memoryview(keys)[start:], start):
                    e1, rest = divmod(key, per_entity)
                    lead, end = leads[rest], qid_heads[rest] + ids[e1] + tails[rest]
                    for lineno, raw in lines:
                        if raw.endswith(end) and raw.startswith(lead):
                            number = raw[len(lead) : len(raw) - len(end)]
                            if _number_token(number) and isfinite(x := float(number)):
                                break
                        if resume := resync(join(lineno, raw), s, i):
                            break
                    else:
                        resume = len(order), 0  # the log ended
                    if resume:
                        break
                    # the line decodes to this question's qid, split and kind
                    matched += 1
                    if x > 0 or seen[key]:
                        qid = space.qid(key)
                        if x > 0:
                            diag.positive_logprobs.append((lineno, qid))
                        if seen[key]:
                            diag.duplicate_qids.append(qid)
                            continue
                    seen[key] = 1
                    newly_covered += 1
                covered[split] += newly_covered
                s, start = resume or (s + 1, 0)
            for lineno, raw in lines:  # the lines after the last question's row
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
