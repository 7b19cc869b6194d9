"""Loss-log records, JSONL serialization, and validation against a dataset.

A loss log carries one record per question with the natural-log probability
the model assigned to the complete answer (summed over its answer tokens by
the producer). Records join back to the dataset through qids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .worldgen import SPLITS, DatasetIOError, _decode_row, _write_rows, load_dataset


@dataclass(frozen=True, slots=True)
class LossRecord:
    qid: str
    split: str
    kind: str
    logprob_nats: float


def stream_loss_log(records: Iterable[LossRecord], path: Path) -> int:
    """Write each record as it arrives; return how many were written."""
    return _write_rows(
        path,
        (
            {"qid": rec.qid, "split": rec.split, "kind": rec.kind, "logprob_nats": rec.logprob_nats}
            for rec in records
        ),
    )


def write_loss_log(records, path: Path) -> None:
    stream_loss_log(records, path)


def _loss_rows(path: Path):
    """Yield (line number, LossRecord) for each non-blank line of a loss log.

    A line that is not a record raises DatasetIOError naming ``path:line``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    d = _decode_row(line)
                    qid, split, kind = d["qid"], d["split"], d["kind"]
                    # readers hash and compare these as strings
                    if type(qid) is not str or type(split) is not str or type(kind) is not str:
                        raise TypeError("qid, split and kind must be strings")
                    rec = LossRecord(qid, split, kind, float(d["logprob_nats"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise DatasetIOError(f"{path}:{lineno}: malformed record: {exc}") from exc
                yield lineno, rec
    except OSError as exc:
        raise DatasetIOError(f"cannot read loss log: {exc}") from exc


def read_loss_log(path: Path) -> list[LossRecord]:
    return [rec for _, rec in _loss_rows(path)]


@dataclass
class LogDiagnostics:
    """Validation findings for a loss log against its dataset."""

    n_records: int
    unknown_qids: list[str] = field(default_factory=list)
    duplicate_qids: list[str] = field(default_factory=list)
    positive_logprobs: list[tuple[int, str]] = field(default_factory=list)
    missing_splits: list[str] = field(default_factory=list)
    coverage: dict[str, float] = field(default_factory=dict)

    @property
    def has_violations(self) -> bool:
        return bool(self.unknown_qids or self.duplicate_qids or self.positive_logprobs)

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "unknown_qids": self.unknown_qids,
            "duplicate_qids": self.duplicate_qids,
            "positive_logprobs": [
                {"line": line, "qid": qid} for line, qid in self.positive_logprobs
            ],
            "missing_splits": self.missing_splits,
            "coverage": self.coverage,
            "has_violations": self.has_violations,
        }


def validate_loss_log(log_path: Path, dataset_dir: Path) -> LogDiagnostics:
    """Report unknown/duplicate qids, positive logprobs, and per-split coverage.

    A record joins its question through the key its qid names and the
    dataset's split table.
    """
    split_set, _ = load_dataset(dataset_dir)
    totals = split_set.counts()
    key_of_qid, table = split_set.space.key_of_qid, split_set.table

    diag = LogDiagnostics(n_records=0)
    seen = bytearray(len(table))  # 1 where a known question's record was read
    unknown_seen: set[str] = set()
    covered = dict.fromkeys(totals, 0)
    for lineno, rec in _loss_rows(log_path):
        qid = rec.qid
        diag.n_records += 1
        if rec.logprob_nats > 0:
            diag.positive_logprobs.append((lineno, qid))
        key = key_of_qid(qid)
        code = 0 if key is None else table[key]
        if not code:
            diag.unknown_qids.append(qid)
            repeat = qid in unknown_seen
            unknown_seen.add(qid)
        else:
            repeat = seen[key]
            seen[key] = 1
        if repeat:
            diag.duplicate_qids.append(qid)
        elif code:
            covered[SPLITS[code - 1]] += 1

    for split, total in totals.items():
        if total:  # an empty split has no coverage to report
            diag.coverage[split] = covered[split] / total
            if not covered[split]:
                diag.missing_splits.append(split)
    return diag
