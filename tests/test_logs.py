import json
import math
import re
import tempfile
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_validate
from test_worldgen import named_worlds

from twohop import logs
from twohop.entropy import ModelKind
from twohop.logs import (
    LossRecord,
    _decode_row,
    read_loss_log,
    validate_loss_log,
    write_loss_log,
)
from twohop.simulate import ReliabilityProfile, generate_loss_log, write_log
from twohop.worldgen import (
    HOLDOUT_KINDS,
    SPLITS,
    DatasetIOError,
    build_splits,
    persist_dataset,
)


@pytest.fixture(scope="module")
def dataset(micro_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("ds")
    ss = build_splits(micro_world, {"heldout_full": 0.02}, mix_ratio=10, seed=9)
    persist_dataset(ss, micro_world, path)
    profile = ReliabilityProfile.homogeneous(micro_world.config, ModelKind.RECURRENT, 0.9)
    records = generate_loss_log(micro_world, profile, ss)
    return path, ss, records


def test_round_trip(dataset, tmp_path):
    _, _, records = dataset
    log = tmp_path / "run.jsonl"
    write_loss_log(records, log)
    assert read_loss_log(log) == records


def test_malformed_line_rejected(tmp_path):
    log = tmp_path / "bad.jsonl"
    log.write_text('{"qid": "q1"}\n')
    with pytest.raises(DatasetIOError):
        read_loss_log(log)
    log.write_text("not json\n")
    with pytest.raises(DatasetIOError):
        read_loss_log(log)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DatasetIOError):
        read_loss_log(tmp_path / "nope.jsonl")


def test_clean_log_validates(dataset, tmp_path):
    path, ss, records = dataset
    log = tmp_path / "run.jsonl"
    write_loss_log(records, log)
    diag = validate_loss_log(log, path)
    assert not diag.has_violations
    assert diag.n_records == len(records)
    assert diag.coverage["train"] == 1.0
    assert diag.coverage["heldout_full"] == 1.0
    assert diag.missing_splits == []
    assert list(diag.coverage) == ["train", "heldout_full"]


def test_violations_reported(dataset, tmp_path):
    path, ss, records = dataset
    tampered = [
        LossRecord("2h:999999:boss:mother", "train", "two_hop", -1.0),  # unknown
        records[0],
        records[0],  # duplicate
        LossRecord(records[1].qid, records[1].split, records[1].kind, 0.25),  # positive
    ]
    log = tmp_path / "bad.jsonl"
    write_loss_log(tampered, log)
    diag = validate_loss_log(log, path)
    assert diag.unknown_qids == ["2h:999999:boss:mother"]
    assert diag.duplicate_qids == [records[0].qid]
    assert diag.positive_logprobs == [(4, records[1].qid)]
    assert diag.has_violations
    payload = diag.to_dict()
    assert payload["positive_logprobs"] == [{"line": 4, "qid": records[1].qid}]


def test_partial_coverage(dataset, tmp_path):
    path, ss, records = dataset
    heldout = [r for r in records if r.split == "heldout_full"]
    kept = heldout[: len(heldout) // 2]
    log = tmp_path / "half.jsonl"
    write_loss_log(kept, log)
    diag = validate_loss_log(log, path)
    assert diag.coverage["heldout_full"] == pytest.approx(len(kept) / len(heldout))
    assert "train" in diag.missing_splits
    assert not diag.has_violations  # coverage gaps are reported, not violations


@pytest.fixture(scope="module")
def block_starts(dataset, tmp_path_factory):
    """The first row of each block of rows that validate's walk takes in one step, on a clean log."""
    path, _, records = dataset
    log = tmp_path_factory.mktemp("blocks") / "run.jsonl"
    write_loss_log(records, log)
    fields, sizes = logs._number_fields, []

    def counted(text):
        tokens = fields(text)
        sizes.append(len(tokens))
        return tokens

    with mock.patch.object(logs, "_number_fields", counted):
        assert not validate_loss_log(log, path).has_violations
    assert sum(sizes) == len(records) and len(sizes) > 4  # every row, in several blocks
    return list(accumulate(sizes, initial=0))[:-1]


def _gap_at_middle(ss, starts):
    return len(ss.train) // 2


def _gap_at_train_end(ss, starts):
    return len(ss.train) - 1


def _gap_at_block_first(ss, starts):
    return starts[2]


def _gap_at_block_last(ss, starts):
    return starts[2] - 1


@pytest.mark.parametrize("where", [_gap_at_middle, _gap_at_train_end, _gap_at_block_first,
                                   _gap_at_block_last],
                         ids=["middle", "train_end", "block_first", "block_last"])
@pytest.mark.parametrize("dropped", [1, 3])
def test_validate_resyncs_after_dropped_rows(dataset, block_starts, tmp_path, monkeypatch, where,
                                             dropped):
    # the walk goes on after the row that follows a gap, so only that row is
    # decoded, wherever the gap is, a block's edge included, and however many
    # rows follow it
    path, ss, records = dataset
    log = tmp_path / "gap.jsonl"
    start = where(ss, block_starts)
    write_loss_log(records[:start] + records[start + dropped :], log)
    decode, decoded = logs._decode_record, 0

    def counted(*args):
        nonlocal decoded
        decoded += 1
        return decode(*args)

    monkeypatch.setattr(logs, "_decode_record", counted)
    diag = validate_loss_log(log, path)
    monkeypatch.undo()
    assert decoded == 1
    assert len(records) - start - dropped > 20  # rows after the gap, each matched
    assert diag.to_dict() == reference_validate(log, path).to_dict()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, -1e16, 0.1, math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.builds(
    LossRecord,
    qid=st.text(),
    split=st.sampled_from(SPLITS) | st.text(),
    kind=st.sampled_from(["one_hop", "two_hop", "two_hop_cot"]) | st.text(),
    logprob_nats=st.sampled_from(EDGE_FLOATS) | st.floats(),
), max_size=20))
def test_loss_log_lines_are_encoder_bytes(records):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.jsonl"
        assert write_loss_log(records, log) == len(records)
        text = log.read_text(encoding="utf-8")
    rows = ({"qid": r.qid, "split": r.split, "kind": r.kind, "logprob_nats": r.logprob_nats}
            for r in records)
    assert text == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def jsonl_lines(draw):
    """A json.dumps value with optional padding, trailing data and line ending."""
    body = json.dumps(draw(json_values), ensure_ascii=draw(st.booleans()))
    lead = draw(st.sampled_from(["", " ", "\t", "\ufeff"]))
    tail = draw(st.sampled_from(["", " ", "\r", "x", ",", " {}", ", {\"b\": 2}", "]"]))
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return lead + body + tail + ending


BAD_LINES = ["{} {}\n", '{"a": 1}, {"b": 2}\n', "\n", "", " \t\n", '{"x": [1\n', "2]}\n"]


@settings(max_examples=400, deadline=None)
@given(line=jsonl_lines() | st.sampled_from(BAD_LINES) | st.text(max_size=20))
def test_decode_row_matches_json_loads(line):
    # json.loads is the reference: same value (compared through its exact
    # serialization, so NaN, -0.0, int/float and key order all count) or the
    # same JSONDecodeError.
    try:
        expected = json.loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as got:
            _decode_row(line)
        assert str(got.value) == str(exc)
        return
    assert json.dumps(_decode_row(line)) == json.dumps(expected)


# Numbers for a row: positive, non-canonical, past the float range, not
# finite, padded, and the forms float() reads but JSON does not
ROW_NUMBERS = [b"0.5", b"1", b"-1", b"-0", b"-0.50", b"1e400", b"-1e-400", b"NaN", b" -0.5",
               b"-0.5 ", b"+0.5", b"-01", b"-.5", b"-5.", b"-1_0", b"-Infinity", b"-1" + b"0" * 400]
_NUMBER_FIELD = re.compile(rb'(\{"kind": [^,]*, "logprob_nats": )(.*?)(, "qid": )', re.S)

# (name, drawn argument) of one edit of a log; an index picks a line modulo
# the line count, and each edit applies to the lines the earlier ones left
log_edits = st.one_of(
    st.tuples(st.just("number"), st.tuples(st.integers(0), st.sampled_from(ROW_NUMBERS))),
    st.tuples(st.just("split"), st.tuples(st.integers(0), st.sampled_from((*SPLITS, "test")))),
    st.tuples(st.just("kind"), st.tuples(
        st.integers(0), st.sampled_from(("one_hop", "two_hop", "two_hop_cot", "")))),
    st.tuples(st.just("qid"), st.tuples(
        st.integers(0), st.sampled_from(("1", "0", "5", "6", "007", "-1", "")))),
    st.tuples(st.sampled_from(["swap", "duplicate"]), st.tuples(st.integers(0), st.integers(0))),
    st.tuples(st.sampled_from(["drop", "blank", "crlf"]), st.integers(0)),
    st.tuples(st.just("0xff"), st.tuples(st.integers(0), st.integers(0))),
    st.tuples(st.just("no final newline"), st.none()),
)


def _edit_log(lines: list[bytes], name: str, arg) -> None:
    """Apply one edit of ``log_edits`` to a log's lines, in place."""
    if not lines:
        return
    i = (arg[0] if isinstance(arg, tuple) else arg or 0) % len(lines)
    if name == "number":
        lines[i] = _NUMBER_FIELD.sub(lambda m: m[1] + arg[1] + m[3], lines[i], count=1)
    elif name in ("split", "kind", "qid"):
        try:
            row = json.loads(lines[i])
        except ValueError:  # an earlier edit left no row to edit
            return
        if name == "qid":
            head, _, tail = row["qid"].split(":", 2)
            row["qid"] = f"{head}:{arg[1]}:{tail}"
        else:
            row[name] = arg[1]
        lines[i] = json.dumps(row, sort_keys=True).encode() + b"\n"
    elif name == "swap":
        j = arg[1] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif name == "duplicate":
        lines.insert(arg[1] % (len(lines) + 1), lines[i])
    elif name == "drop":
        del lines[i]
    elif name == "blank":
        lines.insert(i, b"\n")
    elif name == "crlf":
        lines[i] = lines[i].removesuffix(b"\n") + b"\r\n"
    elif name == "0xff":
        j = arg[1] % len(lines[i])
        lines[i] = lines[i][:j] + b"\xff" + lines[i][j + 1 :]
    else:
        lines[-1] = lines[-1].removesuffix(b"\n")


def _validated(log: Path, dataset: Path, validate):
    try:
        return validate(log, dataset).to_dict()
    except DatasetIOError as exc:
        return f"DatasetIOError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    world=named_worlds(),
    cot=st.booleans(),
    mix_ratio=st.sampled_from((0, 3)),
    model=st.sampled_from(ModelKind),
    trained=st.booleans(),
    edits=st.lists(log_edits, max_size=3),
)
def test_validate_matches_per_line_join(world, cot, mix_ratio, model, trained, edits):
    # a simulate log, edited, gives validate's findings (or its error) as the
    # reference that decodes every line and joins it through its qid; the
    # worlds' attribute names need JSON escapes, so rows do too
    fractions = dict.fromkeys(HOLDOUT_KINDS, 0.2)
    if len(world.config.relations) == 1:
        del fractions["heldout_r"]  # one relation cannot be held out
    ss = build_splits(world, fractions, mix_ratio=mix_ratio, seed=1, cot=cot)
    if trained:
        profile = ReliabilityProfile.trained(world, ss, model)
    else:
        profile = ReliabilityProfile.two_point(world.config, model, 0.01, 0.99, 0.5, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        dataset, log = Path(tmp) / "ds", Path(tmp) / "run.jsonl"
        persist_dataset(ss, world, dataset)
        write_log(world, profile, ss, log)
        lines = log.read_bytes().splitlines(keepends=True)
        for name, arg in edits:
            _edit_log(lines, name, arg)
        log.write_bytes(b"".join(lines))
        expected = _validated(log, dataset, reference_validate)
        assert _validated(log, dataset, validate_loss_log) == expected


# The rows of a log of several walk blocks that an edit lands on: a block's
# first, middle or last row, or a split's first or last row
BLOCK_EDGES = ("block_first", "block_middle", "block_last", "split_first", "split_last")
# Number tokens that simulate never writes but that are valid, finite and <= 0
UNWRITTEN_NUMBERS = (b"-0.50", b"-1E-5", b"-0")
block_edits = st.one_of(
    st.tuples(st.just("number"), st.sampled_from((b"0.5", *UNWRITTEN_NUMBERS, b"1e999", b"-1e999"))),
    # with, or a copy of, the row two blocks away
    st.tuples(st.sampled_from(("swap", "copy")), st.sampled_from((-2, 2))),
    st.tuples(st.sampled_from(("drop", "duplicate", "blank")), st.none()),
)


@settings(max_examples=80, deadline=None)
@given(edit=block_edits, where=st.sampled_from(BLOCK_EDGES), pick=st.integers(0))
@example(edit=("number", b"0.5"), where="block_first", pick=1)
@example(edit=("number", b"0.5"), where="block_last", pick=1)
@example(edit=("number", b"0.5"), where="block_middle", pick=2)
@example(edit=("number", b"0.5"), where="split_first", pick=1)
@example(edit=("number", b"0.5"), where="split_last", pick=0)
@example(edit=("swap", 2), where="block_last", pick=0)
@example(edit=("swap", -2), where="block_first", pick=3)
@example(edit=("copy", 2), where="block_middle", pick=0)
@example(edit=("number", b"-0.50"), where="block_middle", pick=1)
@example(edit=("number", b"-1E-5"), where="block_first", pick=2)
@example(edit=("number", b"-0"), where="block_last", pick=2)
@example(edit=("number", b"1e999"), where="block_middle", pick=3)
@example(edit=("number", b"-1e999"), where="split_first", pick=2)
def test_validate_matches_per_line_join_at_block_edges(dataset, block_starts, edit, where, pick):
    # an edit at a walk block's edge, or one that moves a row to another
    # block, gives the per-line join's findings (or its error); a valid
    # number that simulate never writes is taken in the block's one step
    path, ss, records = dataset
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.jsonl"
        write_loss_log(records, log)
        lines = log.read_bytes().splitlines(keepends=True)
        ends = [start - 1 for start in block_starts[1:]] + [len(lines) - 1]
        split_starts = list(accumulate((n for n in ss.counts().values() if n), initial=0))[:-1]
        rows = {
            "block_first": block_starts,
            "block_middle": [(start + end) // 2 for start, end in zip(block_starts, ends)],
            "block_last": ends,
            "split_first": split_starts,
            "split_last": [start - 1 for start in split_starts[1:]] + [len(lines) - 1],
        }[where]
        i = rows[pick % len(rows)]
        name, arg = edit
        if name in ("swap", "copy"):
            block = max(b for b, start in enumerate(block_starts) if start <= i)
            j = block_starts[(block + arg) % len(block_starts)] + i - block_starts[block]
            j = min(j, len(lines) - 1)
            if name == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(i, lines[j])
        else:  # a duplicate follows its row
            _edit_log(lines, name, {"number": (i, arg), "duplicate": (i, i + 1)}.get(name, i))
        log.write_bytes(b"".join(lines))
        expected = _validated(log, path, reference_validate)
        with mock.patch.object(logs, "_decode_record", wraps=logs._decode_record) as decode:
            assert _validated(log, path, validate_loss_log) == expected
    if edit[1] in UNWRITTEN_NUMBERS:
        assert not expected["has_violations"] and decode.call_count == 0
