import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohop.entropy import ModelKind
from twohop.logs import (
    LossRecord,
    _decode_row,
    read_loss_log,
    stream_loss_log,
    validate_loss_log,
    write_loss_log,
)
from twohop.simulate import ReliabilityProfile, generate_loss_log
from twohop.worldgen import SPLITS, DatasetIOError, build_splits, persist_dataset


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
        assert stream_loss_log(records, log) == len(records)
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
