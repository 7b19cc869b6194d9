import argparse
import ast
import errno
import gc
import hashlib
import importlib
import json
import math
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twohop
from twohop import cli, logs, simulate, worldgen
from twohop.cli import build_parser, main
from twohop.logs import SUMMARY_GROUPS

GEN_ARGS = [
    "gen",
    "--profiles", "100",
    "--relations", "3",
    "--properties", "1",
    "--name-pools", "10", "10", "10",
    "--mix-ratio", "10",
    "--holdout-frac", "0.02",
    "--seed", "7",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_log(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_runs") / "run.jsonl"
    code = main(
        [
            "simulate",
            "--dataset", str(dataset_dir),
            "--model", "2f",
            "--reliability", "trained",
            "--label", "trained-2f",
            "--param-count", "5000",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_gen_writes_manifest(dataset_dir, capsys):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["config"]["n_profiles"] == 100
    assert manifest["counts"]["train"] > 0
    assert (dataset_dir / "qa.jsonl").exists()


def test_gen_is_deterministic(tmp_path, dataset_dir, capsys):
    again = tmp_path / "again"
    assert main(GEN_ARGS + ["--out", str(again)]) == 0
    capsys.readouterr()
    assert (again / "qa.jsonl").read_bytes() == (dataset_dir / "qa.jsonl").read_bytes()


def test_entropy_command(dataset_dir, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    cfg_path.write_text(json.dumps(manifest["config"]))
    assert main(["entropy", "--config", str(cfg_path), "--model", "2f"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["multiplier"] == 2
    assert payload["total_bits"] > payload["baseline_bits"]
    # --model is required, and --task is no option
    for argv in ([], ["--task", "two-hop", "--model", "2f"]):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--config", str(cfg_path), *argv])
        assert exc.value.code == 2


def test_simulate_writes_run_metadata(run_log):
    meta = json.loads(run_log.with_suffix(".json").read_text())
    assert meta["label"] == "trained-2f"
    assert meta["param_count"] == 5000
    assert meta["model_kind"] == "2f"
    assert len(meta["dataset_manifest_sha256"]) == 64
    summary = meta["summary"]
    assert summary["log_sha256"] == _sha256(run_log)
    groups = summary["groups"]
    assert set(groups) == set(SUMMARY_GROUPS)
    rows = [json.loads(line) for line in run_log.read_text().splitlines()]
    assert groups["one_hop"]["count"] + groups["two_hop"]["count"] == len(rows)
    assert groups["two_hop/heldout_full"]["count"] == sum(
        row["split"] == "heldout_full" and row["kind"] == "two_hop" for row in rows)


def test_estimate(dataset_dir, run_log, capsys):
    code = main(
        ["estimate", "--dataset", str(dataset_dir), "--losses", str(run_log), "--model", "2f"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model_kind"] == "2f"
    assert payload["baseline_bits"] < payload["content_bits"] <= payload["entropy_bits"]


@pytest.mark.parametrize("command", [["estimate", "--model", "2f"], ["classify"],
                                     ["report", "--model", "2f", "--out-csv", "capacity.csv"]],
                         ids=["estimate", "classify", "report"])
def test_estimate_binding_check(run_log, tmp_path, capsys, monkeypatch, command):
    # a run manifest that names another dataset is refused, with no
    # override, and the same log without its run manifest is not complete
    # against that dataset
    monkeypatch.chdir(tmp_path)
    other, bare = tmp_path / "other", tmp_path / "bare.jsonl"
    assert main(GEN_ARGS[:2] + ["120"] + GEN_ARGS[3:] + ["--out", str(other)]) == 0
    capsys.readouterr()
    shutil.copy(run_log, bare)
    for losses, needle in ((run_log, "different dataset"), (bare, f"loss log {bare} is not complete")):
        code = main(command + ["--dataset", str(other), "--losses", str(losses)])
        _assert_clean_error(code, capsys, needle)
    assert not (tmp_path / "capacity.csv").exists()


def test_classify(dataset_dir, run_log, capsys):
    code = main(["classify", "--dataset", str(dataset_dir), "--losses", str(run_log)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inferred"] == "2f"
    assert payload["generalizes"]["heldout_full"] is True
    assert payload["generalizes"]["heldout_r"] is False


def test_classify_empty_holdout_names_dataset(tmp_path, capsys):
    # a world this small leaves heldout_e2a and heldout_full empty; without
    # heldout_full, 2f and independent give the same signature
    ds, log = tmp_path / "small", tmp_path / "run.jsonl"
    assert main(["gen", "--profiles", "8", "--relations", "2", "--properties", "1",
                 "--seed", "1", "--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", "2f", "--param-count", "100",
                 "--out", str(log)]) == 0
    capsys.readouterr()
    code = main(["classify", "--dataset", str(ds), "--losses", str(log)])
    _assert_clean_error(
        code, capsys, f"dataset {ds} has empty holdout splits ['heldout_e2a', 'heldout_full']"
    )


def test_validate(dataset_dir, run_log, capsys):
    assert main(["validate", "--dataset", str(dataset_dir), "--losses", str(run_log)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["has_violations"] is False
    assert payload["coverage"]["train"] == 1.0


def test_validate_flags_bad_log(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"qid": "nope", "split": "train", "kind": "one_hop", "logprob_nats": 0.5}\n')
    assert main(["validate", "--dataset", str(dataset_dir), "--losses", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["unknown_qids"] == ["nope"]
    assert payload["has_violations"] is True


def test_validate_flags_mislabeled_records(dataset_dir, run_log, tmp_path, capsys):
    # classify groups records by the split they carry, so a relabelled record
    # moves between holdout sets unless validate catches it
    rows = [json.loads(line) for line in run_log.read_text().splitlines()]
    relabelled = [row for row in rows if row["split"] == "heldout_full"][::2]
    for row in relabelled:
        row["split"] = "heldout_r"
    one_hop = next(row for row in rows if row["kind"] == "one_hop")
    one_hop["kind"] = "two_hop"
    log = tmp_path / "relabelled.jsonl"
    log.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["validate", "--dataset", str(dataset_dir), "--losses", str(log)]) == 1
    payload = json.loads(capsys.readouterr().out)
    mislabeled = {entry["qid"]: entry for entry in payload["mislabeled"]}
    assert len(mislabeled) == len(relabelled) + 1
    for row in relabelled:
        assert mislabeled[row["qid"]]["expected_split"] == "heldout_full"
    assert mislabeled[one_hop["qid"]]["expected_kind"] == "one_hop"
    assert payload["has_violations"] is True
    assert payload["coverage"]["heldout_full"] == 1.0


def test_validate_row_without_split_exits_1(dataset_dir, tmp_path, capsys):
    # validate parses rows as estimate does, so both reject the same log
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"qid": "q", "kind": "one_hop", "logprob_nats": -0.5}\n')
    for args in (["validate"], ["estimate", "--model", "2f"]):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(bad)])
        _assert_clean_error(code, capsys, "bad.jsonl:1: malformed record: 'split'")


@pytest.mark.parametrize("field", ["qid", "split", "kind"])
def test_loss_row_non_string_key_exits_1(dataset_dir, tmp_path, capsys, field):
    row = {"qid": "1h:0:mother", "split": "train", "kind": "one_hop", "logprob_nats": -0.5}
    row[field] = [1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(row) + "\n")
    for args in (["validate"], ["estimate", "--model", "2f"]):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(bad)])
        _assert_clean_error(code, capsys, "bad.jsonl:1: malformed record")


def test_loss_row_not_utf8_exits_1(dataset_dir, run_log, tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    shutil.copy(run_log.with_suffix(".json"), log.with_suffix(".json"))
    lines = len(log.read_bytes().splitlines())
    with open(log, "ab") as f:
        f.write(b"\xff\xfe\n")
    for args in (["validate"], ["estimate", "--model", "2f"]):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(log)])
        _assert_clean_error(code, capsys, f"{log}:{lines + 1}: malformed record: 'utf-8' codec")


# a finite JSON number that a float holds: not past its range, not NaN or
# Infinity, not a string, not true
@pytest.mark.parametrize(
    "value",
    [-(10**400), float("nan"), float("inf"), float("-inf"), "-0.5", True],
    ids=["401_digits", "nan", "infinity", "minus_infinity", "string", "true"],
)
def test_loss_row_logprob_not_a_float_exits_1(dataset_dir, tmp_path, capsys, value):
    row = {"qid": "1h:0:mother", "split": "train", "kind": "one_hop", "logprob_nats": value}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(row) + "\n")
    for args in (
        ["validate"],
        ["estimate", "--model", "2f"],
        ["classify"],
        ["report", "--model", "2f", "--out-csv", str(tmp_path / "c.csv")],
    ):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(bad)])
        _assert_clean_error(code, capsys, "bad.jsonl:1: malformed record")


@pytest.mark.parametrize(
    "spec",
    ["nan", "-3", "budget:nan", "two-point:0.1,7,0.5", "two-point:-0.1,0.5,0.5",
     "two-point:0.1,0.5,nan", "abc", "budget:abc", "budget:", "0.5x"],
)
def test_simulate_invalid_reliability_exits_1(dataset_dir, tmp_path, capsys, spec):
    code = main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                 "--reliability", spec, "--param-count", "5000",
                 "--out", str(tmp_path / "run.jsonl")])
    _assert_clean_error(code, capsys, "must be")


@pytest.mark.parametrize("spec", ["abc", "budget:abc", "budget:", "0.5x"])
def test_simulate_reliability_spec_form_exits_1(dataset_dir, tmp_path, capsys, spec):
    code = main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                 "--reliability", spec, "--param-count", "5000",
                 "--out", str(tmp_path / "run.jsonl")])
    forms = "trained | chance | VALUE | budget:BITS | two-point:LO,HI,FRAC"
    _assert_clean_error(code, capsys, f"reliability {spec!r} must be {forms}")


@pytest.mark.parametrize(("option", "count"), [("--relations", "-1"), ("--properties", "-2")])
def test_gen_negative_count_is_usage_error(tmp_path, capsys, option, count):
    out = tmp_path / "ds"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--profiles", "20", option, count, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {option}: count must be an integer >= 0, got {count!r}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_simulate_without_param_count_is_usage_error(dataset_dir, tmp_path, capsys):
    # every report refuses a run manifest without a parameter count
    log = tmp_path / "run.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dataset", str(dataset_dir), "--model", "2f", "--out", str(log)])
    assert exc.value.code == 2
    assert "required: --param-count" in capsys.readouterr().err
    assert not log.exists() and not log.with_suffix(".json").exists()


@pytest.mark.parametrize(
    "count", ["0", "-5", "abc", "1.5", pytest.param(str(10**400), id="1e400")]
)
def test_simulate_param_count_not_positive_is_usage_error(dataset_dir, tmp_path, capsys, count):
    # report refuses such a count in the run manifest, so simulate must not write one
    log = tmp_path / "run.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dataset", str(dataset_dir), "--model", "2f", "--param-count", count,
              "--out", str(log)])
    assert exc.value.code == 2
    assert f"argument --param-count: param count must be an integer > 0, got {count!r}" in (
        capsys.readouterr().err
    )
    assert not log.exists() and not log.with_suffix(".json").exists()


def test_report(dataset_dir, run_log, tmp_path, capsys):
    csv_path = tmp_path / "capacity.csv"
    svg_path = tmp_path / "capacity.svg"
    code = main(
        [
            "report",
            "--dataset", str(dataset_dir),
            "--losses", str(run_log),
            "--model", "2f",
            "--out-csv", str(csv_path),
            "--out-svg", str(svg_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert "trained-2f" in lines[1]
    svg = svg_path.read_text()
    assert svg.count('class="reference"') == 3
    assert svg.count('class="series"') == 1


def test_report_param_count_not_integer_exits_1(dataset_dir, run_log, tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    meta = json.loads(run_log.with_suffix(".json").read_text())
    # 10**400 is an integer that no float holds
    for bad in ("1000", True, 0, 10**400):
        log.with_suffix(".json").write_text(json.dumps({**meta, "param_count": bad}))
        code = main(["report", "--dataset", str(dataset_dir), "--losses", str(log),
                     "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")])
        _assert_clean_error(code, capsys, f"run manifest {log.with_suffix('.json')}: param_count")


@pytest.mark.parametrize("label", [7, None, ["run"]], ids=["number", "null", "list"])
def test_report_label_not_a_string_exits_1(dataset_dir, run_log, tmp_path, capsys, label):
    # next to a string label with the same param_count, so that sorting the
    # points would compare the two labels
    logs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    meta = json.loads(run_log.with_suffix(".json").read_text())
    for log, value in zip(logs, ("run", label)):
        shutil.copy(run_log, log)
        log.with_suffix(".json").write_text(json.dumps({**meta, "label": value}))
    code = main(["report", "--dataset", str(dataset_dir), "--losses", *map(str, logs),
                 "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")])
    _assert_clean_error(code, capsys, f"run manifest {logs[1].with_suffix('.json')}: label")


def test_report_svg_escapes_labels(dataset_dir, tmp_path, capsys):
    log, svg_path = tmp_path / "run.jsonl", tmp_path / "capacity.svg"
    assert main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                 "--label", "a<b & c", "--param-count", "5000", "--out", str(log)]) == 0
    assert main(["report", "--dataset", str(dataset_dir), "--losses", str(log), "--model", "2f",
                 "--out-csv", str(tmp_path / "capacity.csv"), "--out-svg", str(svg_path)]) == 0
    (title,) = xml.dom.minidom.parse(str(svg_path)).getElementsByTagName("title")
    assert title.firstChild.data == "a<b & c"


@pytest.mark.parametrize("slope", ["nan", "inf", "-inf", "0", "-1", "two"])
def test_report_slope_not_finite_positive_is_usage_error(dataset_dir, run_log, tmp_path, capsys,
                                                         slope):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--dataset", str(dataset_dir), "--losses", str(run_log), "--model", "2f",
              f"--slope={slope}", "--out-csv", str(tmp_path / "capacity.csv")])
    assert exc.value.code == 2
    assert f"slope must be a finite number > 0, got {slope!r}" in capsys.readouterr().err
    assert not (tmp_path / "capacity.csv").exists()


@pytest.mark.parametrize("spec", ["two-point:0.1,0.9", "two-point:0.1,0.9,0.5,0.5",
                                  "two-point:", "two-point:low,0.9,0.5"])
def test_simulate_two_point_spec_form_exits_1(dataset_dir, tmp_path, capsys, spec):
    code = main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                 "--reliability", spec, "--param-count", "5000",
                 "--out", str(tmp_path / "run.jsonl")])
    _assert_clean_error(code, capsys, f"reliability {spec!r} must be two-point:LO,HI,FRAC")


# Each numeric option's rule, stated apart from cli: (parse, accepts, refusal text)
NUMERIC_OPTION_RULES = {
    "--relations": (int, lambda value: value >= 0, "count must be an integer >= 0"),
    "--properties": (int, lambda value: value >= 0, "count must be an integer >= 0"),
    "--param-count": (int, lambda value: 0 < value <= sys.float_info.max,
                      "param count must be an integer > 0"),
    "--slope": (float, lambda value: 0 < value < float("inf"), "slope must be a finite number > 0"),
}
_PAD = st.sampled_from(["", " ", "\t", "\n", "\u3000"])
_NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.0", "-0.0", "5e-324", "1e400", "-1e400", "inf",
                     "-inf", "nan", "Infinity", str(2**1024), "1_0", "0x10", "1.", ".5", "+3",
                     "\u0663", ""]),
    st.integers(-3, 12).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.floats(-0.5, 1.5).map(repr),
)
_NUMBER_TEXT = st.builds("{}{}{}".format, _PAD, _NUMBER, _PAD)
_SEPARATOR = st.sampled_from([",", ", ", ";", " ", ",,", ":", ""])
_RELIABILITY_SPEC = st.one_of(
    st.builds("{}{}{}".format, _PAD, st.sampled_from(["trained", "chance", "Trained", "train"]),
              _PAD),
    _NUMBER_TEXT,
    st.builds("{}{}".format, st.sampled_from(["budget:", "budget: ", "budget", "Budget:"]),
              _NUMBER_TEXT),
    st.builds("{}{}".format,
              st.sampled_from(["two-point:", "two-point: ", "two-point", "2-point:"]),
              st.builds(lambda sep, numbers: sep.join(numbers), _SEPARATOR,
                        st.lists(_NUMBER_TEXT, max_size=4))),
    st.text(max_size=20),
)


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def _run_fuzzed(argv, capsys) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr: 0, 1 or 2, no traceback, and one line for 1.

    ``validate`` also exits 1, with no error line, on a log with findings.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1 and argv[0] == "validate" and not err:
        assert json.loads(out)["has_violations"]
    else:  # a refusal that is not argparse's is one error line
        assert code != 1 or (err.startswith("error: ") and err.count("\n") == 1)
    return code, err


def test_input_rules_under_fuzz(dataset_dir, run_log, tmp_path, capsys):
    # every --reliability string and numeric option text exits 0, 1 or 2
    # with no traceback, and a numeric text that breaks its rule exits 2
    # naming the rule
    gen = ["gen", "--profiles", "2", "--name-pools", "4", "4", "4", "--holdout-frac", "0",
           "--out", str(tmp_path / "ds")]
    commands = {
        "--relations": gen,
        "--properties": gen,
        "--param-count": ["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                          "--reliability", "chance", "--out", str(tmp_path / "run.jsonl")],
        "--slope": ["report", "--dataset", str(dataset_dir), "--losses", str(run_log),
                    "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv"),
                    "--out-svg", str(tmp_path / "capacity.svg")],
    }

    def run(argv) -> tuple[int, str]:
        return _run_fuzzed(argv, capsys)

    @settings(max_examples=50, deadline=None)
    @given(spec=_RELIABILITY_SPEC, kind=st.sampled_from(simulate.ModelKind))
    def fuzz_reliability(spec, kind):
        code, _ = run(["simulate", "--dataset", str(dataset_dir), "--model", kind.value,
                       "--param-count", "5000", "--out", str(tmp_path / "run.jsonl"),
                       f"--reliability={spec}"])
        assert code in (0, 1)

    @settings(max_examples=400, deadline=None)
    @given(option=st.sampled_from(list(NUMERIC_OPTION_RULES)),
           text=_NUMBER_TEXT | st.text(max_size=8))
    def fuzz_numeric(option, text):
        parse, accepts, rule = NUMERIC_OPTION_RULES[option]
        value = _parsed(parse, text)
        accepted = value is not None and accepts(value)
        # a valid count sizes the world that gen builds
        assume(not (accepted and commands[option] is gen and value > 12))
        code, err = run([*commands[option], f"{option}={text}"])
        if accepted:
            assert code in (0, 1)
        else:
            assert code == 2 and f"argument {option}: {rule}, got {text!r}" in err

    fuzz_reliability()
    fuzz_numeric()


# Where a run manifest holds what estimate, classify and report read of it;
# () is the run manifest itself
RUN_MANIFEST_FIELDS = [
    (), ("dataset_manifest_sha256",), ("label",), ("param_count",), ("summary",),
    ("summary", "log_sha256"), ("summary", "groups"),
    *(("summary", "groups", name) for name in SUMMARY_GROUPS),
    *(("summary", "groups", name, field) for name in SUMMARY_GROUPS
      for field in ("count", "mean")),
]
DROPPED = object()
_FIELD_VALUES = st.sampled_from([DROPPED, None, True, "x", [], {}, 2**70, 10**400, -0.0, math.nan])


def _edited_json(raw: bytes, field: tuple, value) -> str:
    """The JSON text ``raw`` with ``value`` at ``field``, a path of keys, or with it dropped."""
    data = {"": json.loads(raw)}
    *parents, key = ("", *field)
    holder = data
    for name in parents:
        holder = holder[name]
    if value is DROPPED:
        del holder[key]
    else:
        holder[key] = value
    return json.dumps(data[""])


def test_run_manifests_under_fuzz(dataset_dir, run_log, tmp_path, capsys):
    # a run manifest that is missing, has a field dropped or of another
    # type, or is cut short gives estimate, classify and report exit 0 or
    # 1, no traceback, and one error line on exit 1; one without a dataset
    # binding leaves the complete log to be folded
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    raw = run_log.with_suffix(".json").read_bytes()
    data = ["--dataset", str(dataset_dir), "--losses", str(log)]
    commands = (["estimate", *data, "--model", "2f"], ["classify", *data],
                ["report", *data, "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")])

    def write(field, value) -> None:
        path = log.with_suffix(".json")
        if field == () and value is DROPPED:
            path.unlink(missing_ok=True)
        else:
            path.write_text(_edited_json(raw, field, value), encoding="utf-8")

    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(RUN_MANIFEST_FIELDS), value=_FIELD_VALUES,
           cut=st.none() | st.integers(0, len(raw.rstrip()) - 1))
    def fuzz(field, value, cut):
        if cut is None:
            write(field, value)
        else:
            log.with_suffix(".json").write_bytes(raw[:cut])
        expected = None  # the refusal that the run manifest alone decides
        if cut is not None:  # no proper prefix of a JSON object is JSON
            expected = "cannot read run manifest"
        elif field == () and value is not DROPPED and type(value) is not dict:
            expected = "not a JSON object"
        elif field == ("dataset_manifest_sha256",) and value is not DROPPED:
            expected = "different dataset"
        for argv in commands:
            code, err = _run_fuzzed(argv, capsys)
            assert code in (0, 1), argv
            assert expected is None or (code == 1 and expected in err), (argv, err)

    fuzz()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A six-profile dataset and a complete 2f log of it with no run manifest."""
    out = tmp_path_factory.mktemp("small_run")
    assert main(["gen", "--profiles", "6", "--relations", "2", "--properties", "1",
                 "--name-pools", "4", "4", "4", "--mix-ratio", "2", "--holdout-frac", "0.2",
                 "--seed", "3", "--out", str(out / "ds")]) == 0
    assert main(["simulate", "--dataset", str(out / "ds"), "--model", "2f", "--reliability",
                 "two-point:0.1,0.9,0.5", "--param-count", "100", "--out", str(out / "run.jsonl")]) == 0
    (out / "run.json").unlink()
    return out / "ds", out / "run.jsonl"


def _commands(dataset: Path, log: Path, tmp_path: Path) -> list[list[str]]:
    """simulate, and each command that reads ``log``, against ``dataset``."""
    data = ["--dataset", str(dataset), "--losses", str(log)]
    return [["simulate", "--dataset", str(dataset), "--model", "recurrent", "--param-count", "5",
             "--out", str(tmp_path / "out.jsonl")],
            ["validate", *data], ["estimate", *data, "--model", "2f"], ["classify", *data],
            ["report", *data, "--model", "recurrent", "--out-csv", str(tmp_path / "c.csv")]]


# Where a dataset manifest holds what the commands read of it; () is the manifest itself
DATASET_MANIFEST_FIELDS = [
    (), ("config",), *(("config", key) for key in worldgen._CONFIG_INT_KEYS),
    ("config", "relations"), ("config", "properties"),
    ("files",), ("files", "profiles.jsonl"), ("files", "qa.jsonl"),
    ("holdout_components",), *(("holdout_components", kind) for kind in worldgen.HOLDOUT_KINDS),
    ("split_params",), *(("split_params", key) for key in ("seed", "mix_ratio", "cot")),
    ("split_params", "holdout_fractions"),
    *(("split_params", "holdout_fractions", kind) for kind in worldgen.HOLDOUT_KINDS),
]
_SMALL_VALUES = _FIELD_VALUES | st.integers(-1, 8) | st.sampled_from([0.5, 0.99, [[0]], ["x"]])


def test_dataset_manifests_under_fuzz(small_run, tmp_path, capsys):
    # a dataset manifest with a field dropped or of another value, or cut
    # short, gives every command exit 0 or 1 with no traceback; a manifest
    # that is not JSON is refused by each
    dataset, log = small_run
    ds = tmp_path / "ds"
    shutil.copytree(dataset, ds)
    raw = (dataset / "manifest.json").read_bytes()
    commands = _commands(ds, log, tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(DATASET_MANIFEST_FIELDS), value=_SMALL_VALUES,
           cut=st.none() | st.integers(0, len(raw.rstrip()) - 1))
    def fuzz(field, value, cut):
        if cut is not None:
            (ds / "manifest.json").write_bytes(raw[:cut])
        elif field == () and value is DROPPED:
            (ds / "manifest.json").unlink()
        else:
            (ds / "manifest.json").write_text(_edited_json(raw, field, value), encoding="utf-8")
        for argv in commands:
            code, err = _run_fuzzed(argv, capsys)
            assert code in (0, 1), argv
            assert cut is None or "cannot read manifest" in err, (argv, err)

    fuzz()


_CONFIG = {"n_profiles": 6, "first_names": 4, "middle_names": 4, "last_names": 4,
           "relations": ["mother", "boss"], "properties": [["birth city", 10]], "seed": 3}
_CONFIG_FIELDS = [(), *((key,) for key in _CONFIG), ("properties", 0), ("properties", 0, 1)]


def test_entropy_configs_under_fuzz(tmp_path, capsys):
    # an entropy --config file with a field dropped or of another value,
    # cut short, or of any bytes, exits 0 or 1 with no traceback
    path, raw = tmp_path / "config.json", json.dumps(_CONFIG).encode()

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(_CONFIG_FIELDS), value=_SMALL_VALUES,
           data=st.none() | st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut])
           | st.binary(max_size=40), model=st.sampled_from(list(cli.MODELS)))
    def fuzz(field, value, data, model):
        if data is None:
            data = b"" if field == () and value is DROPPED else _edited_json(raw, field, value).encode()
        path.write_bytes(data)
        code, _ = _run_fuzzed(["entropy", "--config", str(path), "--model", model], capsys)
        assert code in (0, 1)

    fuzz()


# Edits of a file's lines: each takes the lines (bytes, each with its newline), a
# place in them and some bytes, and gives the edited lines
LINE_EDITS = {
    "replace": lambda lines, i, data: lines[:i] + [data] + lines[i + 1 :],
    "insert": lambda lines, i, data: lines[:i] + [data] + lines[i:],
    "drop": lambda lines, i, data: lines[:i] + lines[i + 1 :],
    "repeat": lambda lines, i, data: lines[: i + 1] + lines[i:],
    "cut": lambda lines, i, data: lines[:i] + [lines[i][: len(data)]],
}
_LINE_BYTES = st.binary(max_size=30) | st.sampled_from([b"", b"\n", b"\r\n", b"{}\n", b"[]\n", b"\xff\n"])


def _edit_lines(raw: bytes, edit: str, i: int, data: bytes) -> bytes:
    lines = raw.splitlines(keepends=True)
    return b"".join(LINE_EDITS[edit](lines, i % len(lines), data))


def test_data_file_lines_under_fuzz(small_run, tmp_path, capsys):
    # a data file with a line edited gives every command exit 0 or 1 with no
    # traceback; simulate and validate refuse it, by its hash or, with the
    # manifest's hash made to match, by the first line that differs
    dataset, log = small_run
    ds = tmp_path / "ds"
    shutil.copytree(dataset, ds)
    raw = {name: (dataset / name).read_bytes() for name in ("manifest.json", "profiles.jsonl", "qa.jsonl")}
    commands = _commands(ds, log, tmp_path)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["profiles.jsonl", "qa.jsonl"]), edit=st.sampled_from(sorted(LINE_EDITS)),
           i=st.integers(0, 10**4), data=_LINE_BYTES, rehash=st.booleans())
    def fuzz(name, edit, i, data, rehash):
        edited = _edit_lines(raw[name], edit, i, data)
        (ds / name).write_bytes(edited)
        manifest = raw["manifest.json"]
        if rehash:
            manifest = _edited_json(manifest, ("files", name), hashlib.sha256(edited).hexdigest()).encode()
        (ds / "manifest.json").write_bytes(manifest)
        for argv in commands:
            code, err = _run_fuzzed(argv, capsys)
            if argv[0] in ("simulate", "validate") and edited != raw[name]:
                assert code == 1 and err.startswith("error: "), (argv, err)
            assert code in (0, 1), argv
        (ds / name).write_bytes(raw[name])

    fuzz()


_ROW_VALUES = _FIELD_VALUES | st.floats() | st.sampled_from(
    ["one_hop", "two_hop_cot", "1h:0:mother", "2h:01:boss:boss", "2h:6:boss:mother", "heldout_e1"])


def test_loss_log_rows_under_fuzz(small_run, tmp_path, capsys):
    # a log with a row edited, as one field dropped or of another value, its
    # number's text or any bytes, gives every command that reads it exit 0
    # or 1 with no traceback
    dataset, complete = small_run
    log, raw = tmp_path / "run.jsonl", complete.read_bytes()
    commands = _commands(dataset, log, tmp_path)[1:]
    row = raw[: raw.index(b"\n") + 1]
    number = re.search(rb'"logprob_nats": ([^,]*),', row).group(1)
    rows = st.one_of(
        st.builds(lambda field, value: (_edited_json(row, (field,), value) + "\n").encode(),
                  st.sampled_from(["kind", "logprob_nats", "qid", "split"]), _ROW_VALUES),
        _NUMBER_TEXT.map(lambda text: row.replace(number, text.encode(), 1)),
    )

    @settings(max_examples=40, deadline=None)
    @given(edit=st.sampled_from(sorted(LINE_EDITS)), i=st.integers(0, 10**4), data=rows | _LINE_BYTES)
    @example(edit="replace", i=0, data=row.replace(number, str(10**400).encode()))
    @example(edit="insert", i=5, data=row.replace(number, b"-1e400"))
    def fuzz(edit, i, data):
        log.write_bytes(_edit_lines(raw, edit, i, data))
        for argv in commands:
            code, _ = _run_fuzzed(argv, capsys)
            assert code in (0, 1), argv

    fuzz()


@pytest.fixture(scope="module")
def one_profile_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_profile")
    assert main(["gen", "--profiles", "1", "--relations", "1", "--properties", "0",
                 "--holdout-frac", "0", "--out", str(out / "ds")]) == 0
    assert main(["simulate", "--dataset", str(out / "ds"), "--model", "2f",
                 "--param-count", "100", "--out", str(out / "run.jsonl")]) == 0
    return out / "run.jsonl"


@pytest.mark.parametrize("model", list(cli.MODELS))
@pytest.mark.parametrize("command", ["estimate", "report"])
def test_one_profile_dataset_estimates_every_model(one_profile_log, capsys, command, model):
    # at n = 1 every entity answer is right by chance: a first hop shows
    # nothing and holds no bits, so each model estimates without a refusal
    argv = [command, "--dataset", str(one_profile_log.parent / "ds"),
            "--losses", str(one_profile_log), "--model", model]
    if command == "report":
        argv += ["--out-csv", str(one_profile_log.with_name(f"{model}.csv"))]
    assert main(argv) == 0 and capsys.readouterr().err == ""


def test_outputs_create_missing_directories(dataset_dir, tmp_path, capsys):
    log = tmp_path / "runs" / "run.jsonl"
    csv_path, svg_path = tmp_path / "csv" / "capacity.csv", tmp_path / "svg" / "capacity.svg"
    assert main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                 "--param-count", "5000", "--out", str(log)]) == 0
    assert main(["report", "--dataset", str(dataset_dir), "--losses", str(log), "--model", "2f",
                 "--out-csv", str(csv_path), "--out-svg", str(svg_path)]) == 0
    assert log.with_suffix(".json").exists()
    assert len(csv_path.read_text().splitlines()) == 2
    assert svg_path.read_text().startswith("<svg")


def _file_bytes(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_simulate_out_ending_in_json_exits_1(dataset_dir, tmp_path, capsys):
    # the run manifest is the log's path with suffix .json: here the log itself
    ds = tmp_path / "ds"
    shutil.copytree(dataset_dir, ds)
    out = tmp_path / "run.json"
    out.write_text("kept\n")
    before = _file_bytes(tmp_path)
    code = main(["simulate", "--dataset", str(ds), "--model", "2f", "--param-count", "5",
                 "--out", str(out)])
    _assert_clean_error(code, capsys, f"--out's run manifest {out} would overwrite the --out output")
    assert _file_bytes(tmp_path) == before


@pytest.mark.parametrize(
    "out, name",
    [
        ("manifest.jsonl", "manifest.json"),  # the run manifest's path
        ("qa.jsonl", "qa.jsonl"),
        ("profiles.jsonl", "profiles.jsonl"),
        ("sub/../manifest.txt", "manifest.json"),
        # hard links to the dataset's files, made below: another name for the same file
        ("../runs/b.jsonl", "qa.jsonl"),
        ("../runs/c.jsonl", "manifest.json"),  # its run manifest's path
    ],
)
def test_simulate_out_over_dataset_exits_1(dataset_dir, tmp_path, capsys, out, name):
    ds, runs = tmp_path / "ds", tmp_path / "runs"
    shutil.copytree(dataset_dir, ds)
    runs.mkdir()
    os.link(ds / "qa.jsonl", runs / "b.jsonl")
    os.link(ds / "manifest.json", runs / "c.json")
    before = _file_bytes(tmp_path)
    code = main(["simulate", "--dataset", str(ds), "--model", "2f", "--param-count", "5",
                 "--out", str(ds / out)])
    _assert_clean_error(code, capsys, f"would overwrite the dataset's {name}")
    assert _file_bytes(tmp_path) == before


@pytest.mark.parametrize(
    "csv, svg, needle",
    [
        ("runs/a.jsonl", None, "--out-csv {tmp}/runs/a.jsonl would overwrite the loss log"),
        ("runs/b.jsonl", None, "would overwrite the loss log {tmp}/runs/b.jsonl"),
        ("out.csv", "runs/a.json", "--out-svg {tmp}/runs/a.json would overwrite the run manifest"),
        ("runs/sub/../b.json", None, "would overwrite the run manifest of {tmp}/runs/b.jsonl"),
        ("ds/manifest.json", None, "would overwrite the dataset's manifest.json"),
        ("out.csv", "ds/qa.jsonl", "would overwrite the dataset's qa.jsonl"),
        ("ds/x/../profiles.jsonl", None, "would overwrite the dataset's profiles.jsonl"),
        ("out.csv", "out.csv", "--out-svg {tmp}/out.csv would overwrite the --out-csv output"),
        # hard links to the inputs and to out.csv, made below
        ("links/a.csv", None, "--out-csv {tmp}/links/a.csv would overwrite the loss log"),
        ("out.csv", "links/b.svg", "--out-svg {tmp}/links/b.svg would overwrite the run manifest"),
        ("links/qa.csv", None, "would overwrite the dataset's qa.jsonl"),
        ("out.csv", "links/out.svg", "--out-svg {tmp}/links/out.svg would overwrite the --out-csv output"),
    ],
)
def test_report_out_over_inputs_exits_1(dataset_dir, run_log, tmp_path, capsys, csv, svg, needle):
    # two logs, each with its run manifest, an existing CSV that a refused
    # report must leave as it was, and hard links to some of them
    ds, runs, links = tmp_path / "ds", tmp_path / "runs", tmp_path / "links"
    shutil.copytree(dataset_dir, ds)
    runs.mkdir()
    for name in ("a", "b"):
        shutil.copy(run_log, runs / f"{name}.jsonl")
        shutil.copy(run_log.with_suffix(".json"), runs / f"{name}.json")
    (tmp_path / "out.csv").write_text("kept\n")
    links.mkdir()
    for link, target in (("a.csv", runs / "a.jsonl"), ("b.svg", runs / "b.json"),
                         ("qa.csv", ds / "qa.jsonl"), ("out.svg", tmp_path / "out.csv")):
        os.link(target, links / link)
    before = _file_bytes(tmp_path)
    argv = ["report", "--dataset", str(ds), "--losses", str(runs / "a.jsonl"), str(runs / "b.jsonl"),
            "--model", "2f", "--out-csv", str(tmp_path / csv)]
    code = main(argv + (["--out-svg", str(tmp_path / svg)] if svg else []))
    _assert_clean_error(code, capsys, needle.format(tmp=tmp_path))
    assert _file_bytes(tmp_path) == before


# Every option each subcommand takes, so that adding or removing one is a
# deliberate edit here. A setting with one value in use is a constant in the
# code, not an option.
SUBCOMMAND_OPTIONS = {
    "gen": {"--profiles", "--relations", "--properties", "--name-pools", "--mix-ratio",
            "--holdout-frac", "--cot", "--seed", "--out"},
    "entropy": {"--config", "--model"},
    "simulate": {"--dataset", "--model", "--reliability", "--seed", "--label", "--param-count",
                 "--out"},
    "estimate": {"--dataset", "--losses", "--model"},
    "classify": {"--dataset", "--losses"},
    "validate": {"--dataset", "--losses"},
    "report": {"--dataset", "--losses", "--model", "--slope", "--out-csv", "--out-svg"},
}


def test_subcommand_options_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def test_readme_walkthrough_parses_and_reads_what_it_writes():
    # each `twohop` command of README's CLI walkthrough, its `\` continuations
    # joined and each `<(...)` replaced by a path
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    block = re.sub(r"""<\((?:[^()'"]|'[^']*'|"[^"]*")*\)""", "config.json", block.replace("\\\n", " "))
    assert "<(" not in block
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("twohop ")]
    parser, written = build_parser(), set()
    for argv in commands:
        args = parser.parse_args(argv)
        losses = getattr(args, "losses", [])
        inputs = [args.dataset] if hasattr(args, "dataset") else []
        inputs += [losses] if isinstance(losses, str) else losses
        for path in inputs:
            assert Path(path) in written, f"{args.command} reads {path}, which no earlier step writes"
        if hasattr(args, "out"):
            written.add(Path(args.out))
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # missing required --profiles
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_data_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["estimate", "--dataset", str(missing), "--losses", "x.jsonl", "--model", "2f"]) == 1
    assert "error:" in capsys.readouterr().err


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Bytes of a small world's dataset and loss logs; each value was
# measured on the code that first produced the file and must never change.
GOLDEN_GEN_ARGS = [
    "gen",
    "--profiles", "60",
    "--relations", "3",
    "--properties", "2",
    "--holdout-frac", "0.05",
    "--mix-ratio", "4",
    "--seed", "3",
]
GOLDEN_DATASETS = {
    # --cot: (dataset_sha256, sha256 of manifest.json)
    "none": (
        "f083b05a2c8f55891d103aeabfaee8082d76de76ce13f66fc0b613f6fc342bf6",
        "5e7858be7f074f24aea739523d238f7ac3436c8e1f331ab63886f43367b43a0d",
    ),
    "answers": (
        "9b8af3e081b15fac022a0d78194a5e355e55038ef9e1e9716e869f3d525e9ad1",
        "930fe905443b10f040a30b978c616badcdebe349a3ed7261bfca08dc374005cd",
    ),
}
GOLDEN_TRAINED_LOGS = {
    "recurrent": "c4548061f58c729def92da0a244771b486c8a43d9055ad59bb3dcbec2adf31a5",
    "2f": "ee8d69c3a39ccbc154306000280204480ad173dfacab2689881f3fb83ebbc902",
    "independent": "4f43033d4e5b45a316fe9bba44861e55bb80ef60d0100f11493a58ee34d060e9",
}
# (model, --reliability) with --seed 1: sha256 of the loss log
GOLDEN_SPEC_LOGS = {
    ("recurrent", "chance"): "485e2b35e0b2ef12192d7128fd3a1e1a4287a34b9838951fbc95411be82aa292",
    ("recurrent", "0.9"): "c87885cb60c626295cdc2550245389f28eba3d42597eb0ac19d2a74a11869164",
    ("recurrent", "budget:1000"): "1a20f6c82fc62d705fc27233d0992b4ffa4c3512f073f4fbbf46fa88c10bc7fc",
    ("recurrent", "two-point:0.01,0.99,0.5"):
        "3630af3af2d7531b36c5968d9d6b17ce0f428e4c7eae94c99306c37ab8c151b8",
    ("2f", "chance"): "485e2b35e0b2ef12192d7128fd3a1e1a4287a34b9838951fbc95411be82aa292",
    ("2f", "0.9"): "c87885cb60c626295cdc2550245389f28eba3d42597eb0ac19d2a74a11869164",
    ("2f", "budget:1000"): "544e2335647e96d4af2bb55e2910c0be2ce874432e71af620d840c801db30601",
    ("2f", "two-point:0.01,0.99,0.5"):
        "ba4f8276993bf1b7f13148f50b9bb15c729e9fac74ed8c1a3d87a8a99e1e92c0",
    ("independent", "chance"): "eeae5033f35183cffa9fca929d5a73b94ba48dd5b5aa43ad231fdc21e75a2e48",
    ("independent", "0.9"): "62713eefc791c6efc0a8b8b43cb0086fbb392be740dd14bc50ea49fafbcba6af",
    ("independent", "budget:1000"):
        "868fc9265ca97d1c0a9dc9ed07afc6c9912df1dd6ea41cdf88e37413b5f82501",
    ("independent", "two-point:0.01,0.99,0.5"):
        "2d47d0e37912a56df31c6659c04fe7e31e0c925f62efa4e8c402ae11669b2786",
}
# (command, model): sha256 of the command's stdout, or of report's CSV and SVG;
# built by _golden_outputs
GOLDEN_OUTPUTS = {
    ("entropy", "one-hop"): "30ee9be77e68c258c3289eb78ba0e4df8e755b1d6cffd7ac3e4cbcbe682397ef",
    ("entropy", "recurrent"): "f461a3c54048467a6744c17c40f7d2a6acc174e04872c5d8646a281d73e5ba60",
    ("entropy", "2f"): "7531de1f257932136202de71219fcfc1989d7cf81e5ecd0cda749e3b69aef555",
    ("entropy", "independent"): "7db16f43086af83dacd05fa0c855d39bfa3a0f476f94cd557fb2231195dc7564",
    ("estimate", "one-hop"): "79c68cee17f32a406711a954554cc2d18d4b217abee9e47dfa4325a25fe327eb",
    ("estimate", "recurrent"): "a9cb3baa5a0dc60657085ca605b9a078c78ffb2cf1375f67828cddf3dc7a3d3e",
    ("estimate", "2f"): "eeefff3c419c9aca4a5ab44564618af27793b314515dad8def472cbd6aac78b1",
    ("estimate", "independent"): "9f9bd283961eeedbd0823733ca0eff190a855f8e1488398441c86379b268dab7",
    ("classify", "recurrent"): "38dfc5b024b5413ec632e455f31a315337c7336add7517badb7be4770ff80563",
    ("classify", "2f"): "ec34720b2bb580cdd0407402a6db11d87a5d59f4711c5b8a0152ddf62dd7e268",
    ("classify", "independent"): "8bef80d8233923c8c82edbda51ba8e976bd97a0f232517b72f0c37e49561ebe6",
    ("report.csv", "recurrent"): "9c4379b38a0a33654709cd6d8308dd47f1521ebaf7236587007b3102bb9fed0a",
    ("report.csv", "2f"): "277e651d08d310b418e41f585ad9929a3a4cfe40b1546435f0c254948287000b",
    ("report.csv", "independent"):
        "6f82713ce0743da453b8fe7f8961b1812f2f3bfb7ded6777317d66da938f1364",
    ("report.svg", "recurrent"): "3827bc33d47942dadca8c36c7388adc0e8539a49a4220ac1ce6eab37031984f8",
    ("report.svg", "2f"): "c880f85248cd910b0b6851c8c2088a29d88c38638de5c51792f7fb39eb5f349b",
    ("report.svg", "independent"):
        "7060d7bd094cbaf26bd9243e2ac25a35d9774685ff35e832a1ca187803e3a01d",
}


def test_golden_bytes(tmp_path, capsys):
    for cot, (dataset_sha, manifest_sha) in GOLDEN_DATASETS.items():
        out = tmp_path / cot
        assert main(GOLDEN_GEN_ARGS + ["--cot", cot, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["dataset_sha256"] == dataset_sha, cot
        assert _sha256(out / "manifest.json") == manifest_sha, cot
    for model, log_sha in GOLDEN_TRAINED_LOGS.items():
        log = tmp_path / f"{model}.jsonl"
        args = ["simulate", "--dataset", str(tmp_path / "none"), "--model", model,
                "--reliability", "trained", "--param-count", "5000", "--out", str(log)]
        assert main(args) == 0
        assert _sha256(log) == log_sha, model
    for (model, spec), log_sha in GOLDEN_SPEC_LOGS.items():
        log = tmp_path / "spec.jsonl"
        args = ["simulate", "--dataset", str(tmp_path / "none"), "--model", model,
                "--reliability", spec, "--seed", "1", "--param-count", "5000",
                "--out", str(log)]
        assert main(args) == 0
        assert _sha256(log) == log_sha, (model, spec)


def _golden_outputs(tmp_path, capsys) -> dict:
    """sha256 of each analysis command's output on GOLDEN_GEN_ARGS' dataset and trained logs.

    Keyed like GOLDEN_OUTPUTS: ``(command, model)``, where ``estimate``,
    ``classify`` and ``report`` read the trained log of ``model`` (the 2f
    log for ``--model one-hop``).
    """
    def stdout_sha(args):
        assert main(args) == 0, args
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    ds = tmp_path / "ds"
    stdout_sha(GOLDEN_GEN_ARGS + ["--out", str(ds)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads((ds / "manifest.json").read_text())["config"]))
    shas = {("entropy", "one-hop"): stdout_sha(["entropy", "--config", str(config),
                                                "--model", "one-hop"])}
    for model in GOLDEN_TRAINED_LOGS:
        log = tmp_path / f"{model}.jsonl"
        stdout_sha(["simulate", "--dataset", str(ds), "--model", model, "--label",
                    f"trained-{model}", "--param-count", "5000", "--out", str(log)])
        shas["entropy", model] = stdout_sha(["entropy", "--config", str(config), "--model", model])
        on_log = ["--dataset", str(ds), "--losses", str(log)]
        shas["estimate", model] = stdout_sha(["estimate", *on_log, "--model", model])
        shas["classify", model] = stdout_sha(["classify", *on_log])
        csv_path, svg_path = tmp_path / f"{model}.csv", tmp_path / f"{model}.svg"
        stdout_sha(["report", *on_log, "--model", model,
                    "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
        shas["report.csv", model], shas["report.svg", model] = _sha256(csv_path), _sha256(svg_path)
    shas["estimate", "one-hop"] = stdout_sha(["estimate", "--dataset", str(ds), "--losses",
                                              str(tmp_path / "2f.jsonl"), "--model", "one-hop"])
    return shas


def test_golden_outputs(tmp_path, capsys):
    assert _golden_outputs(tmp_path, capsys) == GOLDEN_OUTPUTS


def _assert_clean_error(code, capsys, needle):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert needle in err
    assert "Traceback" not in err


def _edited_copy(dataset_dir, tmp_path, edit_manifest):
    out = tmp_path / "edited"
    shutil.copytree(dataset_dir, out)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit_manifest(manifest, out)
    manifest_path.write_text(json.dumps(manifest))
    return out


def _drop_files(manifest, out):
    del manifest["files"]


def _files_as_list(manifest, out):
    manifest["files"] = []


def _files_empty(manifest, out):
    manifest["files"] = {}


def _files_outside_dataset(manifest, out):
    # the same bytes, hashed through a path out of the dataset directory
    sha = manifest["files"].pop("qa.jsonl")
    manifest["files"][os.path.relpath(out.parent / "outside" / "qa.jsonl", out)] = sha
    (out.parent / "outside").mkdir()
    shutil.copy(out / "qa.jsonl", out.parent / "outside")


def _drop_first_names(manifest, out):
    del manifest["config"]["first_names"]


def _string_n_profiles(manifest, out):
    manifest["config"]["n_profiles"] = "30"


# name pools whose product, 2**63, is one past sys.maxsize: too large for
# len(range(...)), which sampling the names takes
HUGE_NAME_POOLS = (1 << 32, 1 << 31, 1)


def _huge_name_space(manifest, out):
    config = manifest["config"]
    config["first_names"], config["middle_names"], config["last_names"] = HUGE_NAME_POOLS


def _drop_second_profile_first(manifest, out):
    profiles = out / "profiles.jsonl"
    lines = profiles.read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    del row["first"]
    lines[1] = json.dumps(row) + "\n"
    profiles.write_text("".join(lines))
    manifest["files"]["profiles.jsonl"] = _sha256(profiles)


def _replace_third_question(out, manifest, row):
    qa = out / "qa.jsonl"
    lines = qa.read_text().splitlines(keepends=True)
    lines[2] = json.dumps(row) + "\n"
    qa.write_text("".join(lines))
    manifest["files"]["qa.jsonl"] = _sha256(qa)


def _drop_third_question_text(manifest, out):
    # loaders read six keys of a question row, but the row still needs all nine
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
    del row["text"]
    _replace_third_question(out, manifest, row)


def _third_question_as_list(manifest, out):
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
    _replace_third_question(out, manifest, list(row))


def _third_question_three_hop(manifest, out):
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
    row["kind"] = "three_hop"
    _replace_third_question(out, manifest, row)


def _third_question_rekeyed(name, **changes):
    """An edit that sets ``changes`` on the third (two-hop) question, with its new key's qid."""

    def edit(manifest, out):
        row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
        assert row["kind"] == "two_hop"  # else the new qid alone would fail the row
        row.update(changes)
        row["qid"] = f"2h:{row['e1']}:{row['r']}:{row['a']}"
        _replace_third_question(out, manifest, row)

    edit.__name__ = f"_third_question_{name}"
    return edit


def _third_question_wrong_qid(manifest, out):
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
    row["qid"] = f"2h:{row['e1'] + 1}:{row['r']}:{row['a']}"
    _replace_third_question(out, manifest, row)


def _third_question_repeats_second(manifest, out):
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[1])
    _replace_third_question(out, manifest, row)


def _drop_last_question(manifest, out):
    qa = out / "qa.jsonl"
    qa.write_text("".join(qa.read_text().splitlines(keepends=True)[:-1]))
    manifest["files"]["qa.jsonl"] = _sha256(qa)


def _line_fault_in_both_files(manifest, out):
    # both hashes refreshed: the profiles.jsonl fault comes first in file order
    _drop_second_profile_first(manifest, out)
    _drop_third_question_text(manifest, out)


def _third_question_moved(manifest, out):
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
    assert row["split"] == "train"
    row["split"] = "heldout_full"
    _replace_third_question(out, manifest, row)


def _third_question_cot(manifest, out):
    row = json.loads((out / "qa.jsonl").read_text().splitlines()[2])
    assert row["kind"] == "two_hop"  # a CoT row keeps its qid
    row["kind"] = "two_hop_cot"
    _replace_third_question(out, manifest, row)


def _holdout_components_as_list(manifest, out):
    manifest["holdout_components"] = []


def _cot_as_string(manifest, out):
    manifest["split_params"]["cot"] = "yes"


def _split_params_with(name, key, value):
    """An edit that sets ``split_params[key]`` to ``value``."""

    def edit(manifest, out):
        manifest["split_params"][key] = value(manifest["split_params"][key])

    edit.__name__ = f"_split_params_{name}"
    return edit


def _holdout_components_not_replayed(manifest, out):
    # a component the split_params replay does not draw
    manifest["holdout_components"]["heldout_full"].pop()


def _edit_profile_lines(manifest, out, change):
    profiles = out / "profiles.jsonl"
    lines = profiles.read_text().splitlines(keepends=True)
    change(lines)
    profiles.write_text("".join(lines))
    manifest["files"]["profiles.jsonl"] = _sha256(profiles)


def _second_profile_with(name, **changes):
    """An edit that sets ``changes`` on the second profiles.jsonl row."""

    def edit(manifest, out):
        def change(lines):
            lines[1] = json.dumps({**json.loads(lines[1]), **changes}) + "\n"

        _edit_profile_lines(manifest, out, change)

    edit.__name__ = f"_second_profile_{name}"
    return edit


def _fourth_profile_bad_byte(manifest, out):
    # a byte that is not UTF-8, in a row that is otherwise well formed
    profiles = out / "profiles.jsonl"
    lines = profiles.read_bytes().splitlines(keepends=True)
    lines[3] = b'{"x": "\xff", ' + lines[3][1:]
    profiles.write_bytes(b"".join(lines))
    manifest["files"]["profiles.jsonl"] = _sha256(profiles)


def _more_profiles_than_rows(manifest, out):
    # the file holds 100 rows: the world is refused before it is built
    manifest["config"]["n_profiles"] = 1000


def _drop_last_profile(manifest, out):
    _edit_profile_lines(manifest, out, lambda lines: lines.pop())


def _extra_profile(manifest, out):
    def change(lines):
        lines.append(json.dumps({**json.loads(lines[-1]), "id": len(lines)}) + "\n")

    _edit_profile_lines(manifest, out, change)


@pytest.mark.parametrize(
    "command, edit, needle",
    [
        ("classify", _drop_files, "files"),
        ("validate", _files_as_list, "files"),
        ("validate", _files_empty, "files"),
        ("validate", _files_outside_dataset, "files"),
        ("estimate", _drop_first_names, "first_names"),
        ("estimate", _string_n_profiles, "n_profiles"),
        ("simulate", _huge_name_space, "name space"),
        ("classify", _huge_name_space, "name space"),
        ("validate", _huge_name_space, "name space"),
        ("simulate", _drop_first_names, "first_names"),
        ("simulate", _drop_second_profile_first, "profiles.jsonl:2:"),
        ("simulate", _line_fault_in_both_files, "profiles.jsonl:2:"),
        ("simulate", _drop_third_question_text, "qa.jsonl:3:"),
        ("simulate", _third_question_as_list, "qa.jsonl:3:"),
        ("validate", _third_question_three_hop, "qa.jsonl:3:"),
        ("validate", _drop_third_question_text, "qa.jsonl:3:"),
        ("simulate", _third_question_rekeyed("e1_negative", e1=-1), "qa.jsonl:3:"),
        ("simulate", _third_question_rekeyed("e1_too_large", e1=1000000), "qa.jsonl:3:"),
        ("simulate", _third_question_rekeyed("e1_string", e1="3"), "qa.jsonl:3:"),
        ("simulate", _third_question_rekeyed("unknown_attribute", a="zodiac"), "qa.jsonl:3:"),
        ("simulate", _third_question_rekeyed("property_as_relation", r="birth city"),
         "qa.jsonl:3:"),
        ("simulate", _third_question_rekeyed("unknown_split", split="heldout_x"), "qa.jsonl:3:"),
        ("simulate", _third_question_wrong_qid, "qa.jsonl:3:"),
        ("validate", _third_question_wrong_qid, "qa.jsonl:3:"),
        ("simulate", _third_question_repeats_second, "qa.jsonl:3:"),
        ("validate", _third_question_repeats_second, "qa.jsonl:3:"),
        ("simulate", _drop_last_question, "qa.jsonl:1600: missing question row (1600 expected)"),
        ("simulate", _third_question_moved, "qa.jsonl:3:"),
        ("simulate", _third_question_cot, "qa.jsonl:3:"),
        ("simulate", _holdout_components_as_list, "holdout_components"),
        ("simulate", _cot_as_string, "cot"),
        ("simulate", _split_params_with("seed_string", "seed", lambda seed: str(seed)), "seed"),
        ("validate", _split_params_with("seed_true", "seed", lambda seed: True), "seed"),
        ("simulate", _split_params_with("fractions_list", "holdout_fractions", lambda f: []),
         "holdout_fractions"),
        ("simulate", _split_params_with(
            "fraction_missing", "holdout_fractions",
            lambda f: {k: v for k, v in f.items() if k != "heldout_r"}
        ), "holdout_fractions"),
        ("classify", _split_params_with(
            "fraction_too_large", "holdout_fractions", lambda f: {**f, "heldout_e1": 1.5}
        ), "holdout_fractions"),
        ("simulate", _holdout_components_not_replayed, "holdout_components"),
        ("simulate", _fourth_profile_bad_byte, "profiles.jsonl:4:"),
        ("simulate", _more_profiles_than_rows, "profiles.jsonl:101: missing profile row"),
        ("classify", _more_profiles_than_rows, "profiles.jsonl:101: missing profile row"),
        ("simulate", _drop_last_profile, "profiles.jsonl:100:"),
        ("simulate", _extra_profile, "profiles.jsonl:101: extra row"),
        ("simulate", _second_profile_with("id_not_index", id=5), "profiles.jsonl:2:"),
        ("simulate", _second_profile_with("relations_as_list", relations=[0, 0, 0]),
         "profiles.jsonl:2:"),
        ("simulate", _second_profile_with("relation_missing", relations={"mother": 0, "father": 0}),
         "profiles.jsonl:2:"),
        ("simulate", _second_profile_with(
            "relation_target_too_large", relations={"mother": 1000000, "father": 0, "sibling": 0}
        ), "profiles.jsonl:2:"),
        ("simulate", _second_profile_with(
            "relation_target_negative", relations={"mother": -1, "father": 0, "sibling": 0}
        ), "profiles.jsonl:2:"),
        ("simulate", _second_profile_with("property_extra", properties={"birth city": 0, "x": 0}),
         "profiles.jsonl:2:"),
        ("simulate", _second_profile_with("property_out_of_pool", properties={"birth city": 1000}),
         "profiles.jsonl:2:"),
    ],
)
def test_malformed_manifest_exits_1(dataset_dir, run_log, tmp_path, capsys, command, edit, needle):
    edited = _edited_copy(dataset_dir, tmp_path, edit)
    # a copy without its run manifest, bound to no dataset: the readers replay the edited one
    bare = tmp_path / "bare.jsonl"
    shutil.copy(run_log, bare)
    args = {
        "classify": ["--losses", str(bare)],
        "estimate": ["--losses", str(bare), "--model", "2f"],
        "simulate": ["--model", "2f", "--param-count", "5000", "--out", str(tmp_path / "run.jsonl")],
        "validate": ["--losses", str(run_log)],
    }[command]
    _assert_clean_error(main([command, "--dataset", str(edited)] + args), capsys, needle)


def _line_of(data, offset):
    """The 1-based number of the line that holds byte ``offset`` of ``data``."""
    return data.count(b"\n", 0, offset) + 1


def _byte_changed(where):
    """An edit that changes the byte at offset ``where(data)``: that byte's line differs."""

    def edit(data):
        offset = where(data)
        new = b"y" if data[offset:offset + 1] == b"x" else b"x"
        return data[:offset] + new + data[offset + 1:], _line_of(data, offset)

    return edit


def _mid_line_end(data):
    return data.index(b"\n", len(data) // 2)


def _line_end_as(ending):
    """An edit that ends the middle line with ``ending`` instead of a newline."""

    def edit(data):
        offset = _mid_line_end(data)
        return data[:offset] + ending + data[offset + 1:], _line_of(data, offset)

    return edit


# Byte-level faults in qa.jsonl, at and away from 16 KiB boundaries: each
# edit gives the new bytes and the number of the line the loader must name,
# or None for an extra row after the last line.
QA_BYTE_EDITS = {
    "byte_before_16384": _byte_changed(lambda data: 16383),
    "byte_at_16384": _byte_changed(lambda data: 16384),
    "byte_mid_file": _byte_changed(lambda data: len(data) // 2),
    "no_final_newline": lambda data: (data[:-1], data.count(b"\n")),
    "extra_blank_line": lambda data: (data + b"\n", None),
    "crlf_mid_file": _line_end_as(b"\r\n"),
    "lone_cr_mid_file": _line_end_as(b"\r"),
    "bad_byte_last_line": lambda data: (data[:-10] + b"\xff" + data[-9:], data.count(b"\n")),
    "cut_mid_line": lambda data: (data[:_mid_line_end(data) - 5], _line_of(data, _mid_line_end(data))),
}


@pytest.mark.parametrize("edit", QA_BYTE_EDITS.values(), ids=QA_BYTE_EDITS)
def test_question_file_byte_faults_named(dataset_dir, tmp_path, capsys, edit):
    original = (dataset_dir / "qa.jsonl").read_bytes()
    assert len(original) > 2 * 16384
    lines = original.splitlines(keepends=True)
    data, lineno = edit(original)

    def write_qa(manifest, out):
        (out / "qa.jsonl").write_bytes(data)
        manifest["files"]["qa.jsonl"] = _sha256(out / "qa.jsonl")

    edited = _edited_copy(dataset_dir, tmp_path, write_qa)
    qa = edited / "qa.jsonl"
    if lineno is None:
        fault = f"{len(lines) + 1}: extra row"
    else:
        fault = f"{lineno}: not the canonical row of {json.loads(lines[lineno - 1])['qid']!r}"
    code = main(["simulate", "--dataset", str(edited), "--model", "2f", "--param-count", "5000",
                 "--out", str(tmp_path / "run.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {qa}:{fault}\n"


def _byte_faulty_copy(dataset_dir, tmp_path, edit=QA_BYTE_EDITS["byte_mid_file"]):
    """A copy of the dataset whose qa.jsonl has ``edit`` under a matching hash, and its error line."""
    original = (dataset_dir / "qa.jsonl").read_bytes()
    lines = original.splitlines(keepends=True)
    data, lineno = edit(original)

    def write_qa(manifest, out):
        (out / "qa.jsonl").write_bytes(data)
        manifest["files"]["qa.jsonl"] = _sha256(out / "qa.jsonl")

    edited = _edited_copy(dataset_dir, tmp_path, write_qa)
    if lineno is None:
        fault = f"{len(lines) + 1}: extra row"
    else:
        fault = f"{lineno}: not the canonical row of {json.loads(lines[lineno - 1])['qid']!r}"
    return edited, f"error: {edited / 'qa.jsonl'}:{fault}\n"


# the CPUs this process may run on, which every data-file check gives back
START_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
needs_two_cpus = pytest.mark.skipif(len(START_CPUS or ()) < 2, reason="needs two allowed CPUs")


def _assert_no_child():
    # every data-file check's child has been reaped, and this process runs
    # on the CPUs it ran on before the check
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if START_CPUS is not None:
        assert os.sched_getaffinity(0) == START_CPUS


@pytest.mark.parametrize("edit", QA_BYTE_EDITS.values(), ids=QA_BYTE_EDITS)
def test_validate_question_file_byte_faults_named(dataset_dir, run_log, tmp_path, capsys, edit):
    edited, error = _byte_faulty_copy(dataset_dir, tmp_path, edit)
    code = main(["validate", "--dataset", str(edited), "--losses", str(run_log)])
    assert code == 1
    assert capsys.readouterr() == ("", error)
    _assert_no_child()


def test_byte_fault_outranks_the_commands_own_errors(dataset_dir, tmp_path, capsys):
    # the data files are checked while the command works, and a fault there
    # is the error a check made before that work would have given
    bad_log = tmp_path / "bad.jsonl"
    bad_log.write_text("not json\n")
    simulate_args = ["simulate", "--model", "2f", "--param-count", "5000", "--reliability", "1.5",
                     "--out", str(tmp_path / "run.jsonl"), "--dataset"]
    validate_args = ["validate", "--losses", str(bad_log), "--dataset"]
    _assert_clean_error(main(simulate_args + [str(dataset_dir)]), capsys, "reliability must be in")
    _assert_clean_error(main(validate_args + [str(dataset_dir)]), capsys, "malformed record")
    edited, error = _byte_faulty_copy(dataset_dir, tmp_path)
    for args in (simulate_args, validate_args):
        assert main(args + [str(edited)]) == 1
        assert capsys.readouterr() == ("", error)
    _assert_no_child()


def test_byte_fault_leaves_no_run_manifest(dataset_dir, tmp_path, capfd):
    # captured on the file descriptors, so that anything the check's child
    # wrote would show: a fault prints one error line and nothing else
    log = tmp_path / "run.jsonl"
    args = ["simulate", "--model", "2f", "--param-count", "5000", "--out", str(log), "--dataset"]
    assert main(args + [str(dataset_dir)]) == 0
    _assert_no_child()
    assert log.with_suffix(".json").exists()
    capfd.readouterr()
    edited, error = _byte_faulty_copy(dataset_dir, tmp_path)
    assert main(args + [str(edited)]) == 1
    assert capfd.readouterr() == ("", error)
    assert not log.with_suffix(".json").exists()
    _assert_no_child()


def _record_check_cpus(monkeypatch, record):
    """Have the check's child write the CPUs it runs on to ``record`` before it checks."""
    check = worldgen._check_data_files

    def recorded(*args):
        record.write_text(json.dumps(sorted(os.sched_getaffinity(0))))
        check(*args)

    monkeypatch.setattr(worldgen, "_check_data_files", recorded)


@needs_two_cpus
def test_check_runs_on_cpus_of_its_own(dataset_dir, tmp_path, monkeypatch):
    # a forked child starts on its parent's CPU: the body keeps the lowest
    # allowed CPU and the check's child takes the rest
    record = tmp_path / "child_cpus.json"
    _record_check_cpus(monkeypatch, record)
    manifest, _ = worldgen.load_manifest(dataset_dir)
    with worldgen.checked_dataset(dataset_dir, manifest):
        body = os.sched_getaffinity(0)
    child = set(json.loads(record.read_text()))
    assert body == {min(START_CPUS)}
    assert child == START_CPUS - body
    _assert_no_child()


@pytest.mark.skipif(START_CPUS is None, reason="no CPU affinity on this platform")
def test_one_cpu_pins_nothing(dataset_dir, run_log, tmp_path, monkeypatch, capfd):
    # under a one-CPU mask no process is pinned, and the outputs are those
    # of a run on every allowed CPU
    log, pins = tmp_path / "run.jsonl", tmp_path / "pins"

    def outputs():
        assert main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                     "--param-count", "5000", "--out", str(log)]) == 0
        assert main(["validate", "--dataset", str(dataset_dir), "--losses", str(run_log)]) == 0
        return capfd.readouterr(), log.read_bytes(), log.with_suffix(".json").read_bytes()

    spread = outputs()
    setaffinity = os.sched_setaffinity

    def recorded(pid, cpus):
        with open(pins, "a") as f:
            f.write(f"{os.getpid()} {sorted(cpus)}\n")
        setaffinity(pid, cpus)

    setaffinity(0, {min(START_CPUS)})
    try:
        monkeypatch.setattr(os, "sched_setaffinity", recorded)
        one = outputs()
    finally:
        setaffinity(0, START_CPUS)
    assert not pins.exists()
    assert one == spread
    _assert_no_child()


@needs_two_cpus
def test_refused_placement_still_checks(dataset_dir, run_log, tmp_path, monkeypatch, capsys):
    # placement only speeds the check up: the child runs the check, on the
    # CPUs it was forked with, when it may not move
    parent, setaffinity = os.getpid(), os.sched_setaffinity

    def refused_in_child(pid, cpus):
        if os.getpid() != parent:
            raise OSError(errno.EINVAL, "Invalid argument")
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", refused_in_child)
    record = tmp_path / "child_cpus.json"
    _record_check_cpus(monkeypatch, record)
    args = ["validate", "--losses", str(run_log), "--dataset"]
    assert main(args + [str(dataset_dir)]) == 0
    assert set(json.loads(record.read_text())) == START_CPUS
    capsys.readouterr()
    edited, error = _byte_faulty_copy(dataset_dir, tmp_path)
    assert main(args + [str(edited)]) == 1
    assert capsys.readouterr() == ("", error)
    _assert_no_child()


@pytest.mark.parametrize(
    "death, named",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL.value}"),
     (lambda: os._exit(3), "exit code 3")],
    ids=["signal", "exit_code"],
)
def test_dead_check_is_named(dataset_dir, run_log, monkeypatch, capsys, death, named):
    # a check that dies without sending a fault is named by its exit code or signal
    monkeypatch.setattr(worldgen, "_check_data_files", lambda *args: death())
    assert main(["validate", "--losses", str(run_log), "--dataset", str(dataset_dir)]) == 1
    assert capsys.readouterr() == ("", f"error: the data-file check died ({named})\n")
    _assert_no_child()


STALE_SHA = "0" * 64


def _stale_profiles_hash(manifest, out):
    manifest["files"]["profiles.jsonl"] = STALE_SHA


@pytest.mark.parametrize(
    "edit, named",
    [
        (_split_params_with("seed_string", "seed", lambda seed: str(seed)), "qa.jsonl"),
        (_holdout_components_not_replayed, "qa.jsonl"),
        (_second_profile_with("id_not_index", id=5), "qa.jsonl"),
        (_stale_profiles_hash, "profiles.jsonl"),
        (_third_question_wrong_qid, "qa.jsonl"),
    ],
    ids=["split_params", "holdout_components", "profile_line", "profiles_hash", "question_line"],
)
def test_stale_hash_outranks_other_faults(dataset_dir, run_log, tmp_path, capsys, edit, named):
    # a dataset with a stale qa.jsonl hash and one more fault: a stale hash is
    # named ahead of any replay or line fault, and profiles.jsonl's ahead of qa.jsonl's
    def edit_and_stale(manifest, out):
        edit(manifest, out)
        manifest["files"]["qa.jsonl"] = STALE_SHA

    edited = _edited_copy(dataset_dir, tmp_path, edit_and_stale)
    error = f"{named}: expected {STALE_SHA}, got {_sha256(edited / named)}"
    for args in (["simulate", "--model", "2f", "--param-count", "5000",
                  "--out", str(tmp_path / "run.jsonl")],
                 ["validate", "--losses", str(run_log)]):
        assert main(args + ["--dataset", str(edited)]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        _assert_no_child()
    with pytest.raises(worldgen.HashMismatchError) as raised:
        worldgen.load_dataset(edited)
    assert str(raised.value) == error
    _assert_no_child()


@pytest.mark.parametrize(
    "text, needle",
    [("not json", "Expecting value"), ("[1, 2]", "must be a JSON object"),
     ('"config"', "must be a JSON object")],
)
def test_entropy_config_not_an_object_exits_1(tmp_path, capsys, text, needle):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    code = main(["entropy", "--config", str(cfg_path), "--model", "one-hop"])
    _assert_clean_error(code, capsys, f"config {cfg_path}: {needle}")


def test_gen_without_relations_exits_1(tmp_path, capsys):
    code = main(["gen", "--profiles", "20", "--relations", "0", "--holdout-frac", "0",
                 "--out", str(tmp_path / "ds")])
    _assert_clean_error(code, capsys, "relations must not be empty")


# dataset_sha256 of perfbench's three shapes, (profiles, relations,
# properties), under its gen options: a change to the world's draws or to
# the holdout cascade at that scale changes them
BENCHMARK_SHAPES = {
    (400, 17, 4): "95cdedf05938e6040654630ded83a8d19d49ae93aefd958762b71914b051e7de",
    (12000, 2, 2): "72ea8e6a4acd1a807972f5410e354e21fe43aab693179f784689a92759dcd345",
    (150, 17, 4): "0039dd98c38fda3d5ed46f05fab0c88ef928d3df5f752f5d76c37377f119b0b9",
}


@pytest.mark.parametrize("profiles, relations, properties", BENCHMARK_SHAPES)
def test_benchmark_shapes_are_pinned(tmp_path, capsys, profiles, relations, properties):
    out = tmp_path / "ds"
    assert main(["gen", "--profiles", str(profiles), "--relations", str(relations),
                 "--properties", str(properties), "--holdout-frac", "0.01", "--mix-ratio", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_sha256"] == BENCHMARK_SHAPES[profiles, relations, properties]


def test_gen_with_huge_name_space_exits_1(tmp_path, capsys):
    code = main(["gen", "--profiles", "2", "--relations", "1", "--properties", "1",
                 "--name-pools", *map(str, HUGE_NAME_POOLS), "--out", str(tmp_path / "ds")])
    _assert_clean_error(code, capsys, f"name space {1 << 63} larger than {sys.maxsize}")


def test_entropy_config_missing_key_exits_1(dataset_dir, tmp_path, capsys):
    config = json.loads((dataset_dir / "manifest.json").read_text())["config"]
    del config["first_names"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["entropy", "--config", str(cfg_path), "--model", "one-hop"])
    _assert_clean_error(code, capsys, "first_names")


@pytest.mark.parametrize(
    "change, needle",
    [
        ({"relations": ["boss", "boss"]}, "unique"),
        ({"properties": [["a:b", 3]]}, "a:b"),
    ],
)
def test_entropy_invalid_config_exits_1(dataset_dir, tmp_path, capsys, change, needle):
    # a config that WorldConfig.validate rejects is refused, not estimated
    config = json.loads((dataset_dir / "manifest.json").read_text())["config"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config, **change}))
    code = main(["entropy", "--config", str(cfg_path), "--model", "one-hop"])
    _assert_clean_error(code, capsys, needle)


@pytest.mark.parametrize("edit", ["stale_hash", "rehashed", "deleted"])
def test_classify_reads_no_question_file(dataset_dir, run_log, tmp_path, capsys, edit):
    # classify replays the splits from the manifest, so qa.jsonl is never
    # read, also when it folds a log that its run manifest binds to no dataset
    def edit_qa(manifest, out):
        qa = out / "qa.jsonl"
        if edit == "deleted":
            qa.unlink()
            return
        qa.write_text("not a question\n")
        if edit == "rehashed":
            manifest["files"]["qa.jsonl"] = _sha256(qa)

    edited = _edited_copy(dataset_dir, tmp_path, edit_qa)
    bare = tmp_path / "bare.jsonl"
    shutil.copy(run_log, bare)
    outputs = []
    for ds, losses in ((dataset_dir, run_log), (edited, bare)):
        assert main(["classify", "--dataset", str(ds), "--losses", str(losses)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_malformed_question_row_exits_1(dataset_dir, tmp_path, capsys):
    def break_third_row(manifest, out):
        qa = out / "qa.jsonl"
        lines = qa.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        row["kind"] = "three_hop"
        lines[2] = json.dumps(row) + "\n"
        qa.write_text("".join(lines))
        manifest["files"]["qa.jsonl"] = _sha256(qa)

    edited = _edited_copy(dataset_dir, tmp_path, break_third_row)
    code = main(["simulate", "--dataset", str(edited), "--model", "2f", "--param-count", "5000",
                 "--out", str(tmp_path / "run.jsonl")])
    _assert_clean_error(code, capsys, "qa.jsonl:3:")


def test_validate_tampered_dataset_exits_1(dataset_dir, run_log, tmp_path, capsys):
    def tamper_qa(manifest, out):
        qa = out / "qa.jsonl"
        qa.write_text(qa.read_text().replace("birth_city", "birth_town"))

    edited = _edited_copy(dataset_dir, tmp_path, tamper_qa)
    code = main(["validate", "--dataset", str(edited), "--losses", str(run_log)])
    _assert_clean_error(code, capsys, "qa.jsonl")


def test_run_manifest_not_object_exits_1(dataset_dir, run_log, tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    args = ["estimate", "--dataset", str(dataset_dir), "--losses", str(log), "--model", "2f"]
    log.with_suffix(".json").write_text("[]\n")
    _assert_clean_error(main(args), capsys, "not a JSON object")
    # nor is a file that is not UTF-8
    log.with_suffix(".json").write_bytes(run_log.with_suffix(".json").read_bytes() + b"\xff")
    _assert_clean_error(main(args), capsys, f"cannot read run manifest {log.with_suffix('.json')}:")


def _summary_with(change):
    def edit(summary):
        change(summary)
        return summary
    return edit


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda summary: [summary], "summary must be a JSON object"),
        (lambda summary: None, "summary must be a JSON object"),
        (_summary_with(lambda s: s.pop("log_sha256")), "summary log_sha256 must be a string"),
        (_summary_with(lambda s: s.update(log_sha256=7)), "summary log_sha256 must be a string"),
        (_summary_with(lambda s: s.update(groups=[])), "summary groups must be a JSON object"),
        (_summary_with(lambda s: s["groups"].pop("two_hop/heldout_r")),
         "summary lacks group 'two_hop/heldout_r'"),
        (_summary_with(lambda s: s["groups"].update(one_hop=[1, 0.0, 0.0])),
         "summary group 'one_hop' must be a JSON object"),
        *[(_summary_with(lambda s, v=v: s["groups"]["two_hop"].update(count=v)),
           "summary group 'two_hop': count must be an integer >= 0")
          for v in (-1, 1.5, True, "3", None)],
        *[(_summary_with(lambda s, g=g, v=v: s["groups"][g].update(mean=v)),
           f"summary group {g!r}: mean must be a number >= 0")
          for g, v in [*(("two_hop", v) for v in (float("nan"), float("inf"), "0.5", None, 10**400)),
                       ("one_hop", -3.0), ("two_hop", -5e-324), ("hop1", -1.0)]],
        # the format before per-unit sums: a var per group, and no hop1 group
        (_summary_with(lambda s: [s["groups"].pop("hop1"),
                                  *(g.update(var=0.0) for g in s["groups"].values())]),
         "summary lacks group 'hop1'"),
    ],
)
def test_malformed_run_summary_exits_1(dataset_dir, run_log, tmp_path, capsys, edit, needle):
    # the summary is outside input: each reader refuses a malformed one,
    # whether or not it matches the log
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    meta = json.loads(run_log.with_suffix(".json").read_text())
    meta["summary"] = edit(meta["summary"])
    log.with_suffix(".json").write_text(json.dumps(meta))
    for args in (
        ["estimate", "--model", "2f"],
        ["classify"],
        ["report", "--model", "one-hop", "--out-csv", str(tmp_path / "c.csv")],
    ):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(log)])
        _assert_clean_error(code, capsys, f"run manifest {log.with_suffix('.json')}: {needle}")


def _analysis_outputs(ds, log, model, tmp_path, capsys) -> dict:
    """stdout of estimate (``model`` and one-hop) and classify, and report's CSV and SVG."""
    def stdout(args):
        assert main(args + ["--dataset", str(ds), "--losses", str(log)]) == 0, args
        return capsys.readouterr().out

    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    stdout(["report", "--model", model, "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
    return {
        "estimate": stdout(["estimate", "--model", model]),
        "estimate one-hop": stdout(["estimate", "--model", "one-hop"]),
        "classify": stdout(["classify"]),
        "report.csv": csv_path.read_bytes(),
        "report.svg": svg_path.read_bytes(),
    }


def _drop_summary(log):
    meta_path = log.with_suffix(".json")
    meta = json.loads(meta_path.read_text())
    del meta["summary"]
    meta_path.write_text(json.dumps(meta))


@pytest.mark.parametrize("model", ["recurrent", "2f", "independent"])
@pytest.mark.parametrize("spec", ["trained", "chance", "two-point:0.01,0.99,0.5"])
def test_outputs_same_with_and_without_summary(tmp_path, capsys, model, spec):
    ds, log = tmp_path / "ds", tmp_path / "run.jsonl"
    assert main(GOLDEN_GEN_ARGS + ["--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", model, "--reliability", spec,
                 "--seed", "1", "--param-count", "5000", "--out", str(log)]) == 0
    capsys.readouterr()
    summarized = _analysis_outputs(ds, log, model, tmp_path, capsys)
    _drop_summary(log)
    assert _analysis_outputs(ds, log, model, tmp_path, capsys) == summarized
    # the walk and the fold take the rows in any order
    rows = log.read_text().splitlines(keepends=True)
    random.Random(3).shuffle(rows)
    log.write_text("".join(rows))
    assert _analysis_outputs(ds, log, model, tmp_path, capsys) == summarized


@pytest.fixture(scope="module")
def golden_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_golden_ds")
    assert main(GOLDEN_GEN_ARGS + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("model", ["recurrent", "2f", "independent"])
@pytest.mark.parametrize("spec", ["trained", "chance", "two-point:0.01,0.99,0.5"])
def test_estimates_same_from_a_bare_log(golden_dataset_dir, tmp_path, capsys, model, spec):
    # the fallback's join gives the bits of simulate's summary: a copy of the
    # log without its run manifest, which validate's walk finds complete,
    # estimates and classifies alike, and so does a copy with its rows shuffled
    log, bare, shuffled = tmp_path / "run.jsonl", tmp_path / "bare.jsonl", tmp_path / "shuffled.jsonl"
    assert main(["simulate", "--dataset", str(golden_dataset_dir), "--model", model,
                 "--reliability", spec, "--seed", "1", "--param-count", "5000",
                 "--out", str(log)]) == 0
    shutil.copy(log, bare)
    rows = log.read_text().splitlines(keepends=True)
    random.Random(2).shuffle(rows)
    shuffled.write_text("".join(rows))
    capsys.readouterr()
    for command in (["estimate", "--model", "2f"], ["estimate", "--model", "recurrent"], ["classify"]):
        stdout = []
        for losses in (log, bare, shuffled):
            assert main(command + ["--dataset", str(golden_dataset_dir), "--losses", str(losses)]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1] == stdout[2], (command, stdout)


@pytest.fixture(scope="module")
def mix0_dataset_dir(tmp_path_factory):
    # no train two-hop rows
    out = tmp_path_factory.mktemp("cli_mix0_ds")
    assert main(GEN_ARGS + ["--properties", "2", "--mix-ratio", "0", "--holdout-frac", "0.3",
                            "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("model", ["recurrent", "2f", "independent"])
@pytest.mark.parametrize(
    "spec", ["trained", "chance", "two-point:0.01,0.99,0.5", "0.7", "budget:5000"])
def test_summary_is_the_fold_of_the_log(dataset_dir, mix0_dataset_dir, tmp_path, capsys, model,
                                        spec):
    # simulate sums each group from its rows per table cell and its first
    # hops per unit, and logs.fold_log row by row through a join; every sum is
    # exact and rounded once, so every group's count and mean are bit for bit
    # the same for the written log (and its row groups in any row order), also
    # on a dataset without train two-hop rows
    written = []
    for ds in (dataset_dir, mix0_dataset_dir):
        log = tmp_path / f"{ds.name}.jsonl"
        assert main(["simulate", "--dataset", str(ds), "--model", model, "--reliability",
                     spec, "--seed", "1", "--param-count", "5000", "--out", str(log)]) == 0
        summary = json.loads(log.with_suffix(".json").read_text())["summary"]
        assert summary["log_sha256"] == _sha256(log)
        world = worldgen.generate_world(worldgen.WorldConfig.from_dict(
            json.loads((ds / "manifest.json").read_text())["config"]))
        refold = logs.summary_to_json(logs.fold_log(log, world), summary["log_sha256"])
        assert json.dumps(refold, sort_keys=True) == json.dumps(summary, sort_keys=True)
        written.append((summary, [record for _, record in logs._loss_rows(log)]))
    capsys.readouterr()
    # the mix ratio 0 log has held-out two-hop rows and no train ones
    assert summary["groups"]["two_hop"]["count"] > 0
    assert summary["groups"]["two_hop/train"]["count"] == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def refold_in_any_order(seed):
        for summary, rows in written:
            rows = rows[:]
            random.Random(seed).shuffle(rows)
            refold = logs.summary_to_json(logs.summarize(rows), summary["log_sha256"])
            assert refold["groups"] == {name: summary["groups"][name] for name in logs.ROW_GROUPS}

    refold_in_any_order()


def test_classify_never_shuffles(tmp_path, capsys, monkeypatch):
    # classify reads the held-out keys and the split table, never the train
    # stream, so the train shuffle is never drawn
    ds = tmp_path / "ds"
    assert main(GOLDEN_GEN_ARGS + ["--out", str(ds)]) == 0
    for model in GOLDEN_TRAINED_LOGS:
        assert main(["simulate", "--dataset", str(ds), "--model", model, "--param-count", "5000",
                     "--out", str(tmp_path / f"{model}.jsonl")]) == 0
    capsys.readouterr()

    def no_shuffle(keys, rng):
        raise AssertionError("the train stream was shuffled")

    monkeypatch.setattr(worldgen, "_shuffle", no_shuffle)
    for model in GOLDEN_TRAINED_LOGS:
        on_log = ["--dataset", str(ds), "--losses", str(tmp_path / f"{model}.jsonl")]
        assert main(["classify", *on_log]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_OUTPUTS["classify", model]
        with pytest.raises(AssertionError, match="shuffled"):  # a command that reads train
            main(["validate", *on_log])


@pytest.mark.parametrize("interrupt", [OSError("No space left on device"), KeyboardInterrupt()])
def test_interrupted_simulate_leaves_no_run_manifest(dataset_dir, tmp_path, capsys, monkeypatch,
                                                     interrupt):
    # a run that stops partway must not leave the run manifest of an earlier
    # run next to its partial log: the readers would trust it
    log = tmp_path / "run.jsonl"
    args = ["simulate", "--dataset", str(dataset_dir), "--model", "2f", "--param-count", "5000",
            "--out", str(log)]
    assert main(args) == 0
    _assert_no_child()
    cells_of, written = simulate.LossTable.cells_of, 0

    def interrupted(self, keys):
        # the interruption comes in the block that would take the log past 360 rows
        nonlocal written
        if written + len(keys) > 360:
            raise interrupt
        written += len(keys)
        return cells_of(self, keys)

    monkeypatch.setattr(simulate.LossTable, "cells_of", interrupted)
    if isinstance(interrupt, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--reliability", "0.7"])
    else:
        _assert_clean_error(main(args + ["--reliability", "0.7"]), capsys, "No space left")
    _assert_no_child()
    monkeypatch.undo()
    assert 0 < written <= 360
    assert len(log.read_text().splitlines()) == written
    assert not log.with_suffix(".json").exists()
    data = ["--dataset", str(dataset_dir), "--losses", str(log)]
    for command in (["estimate", "--model", "2f"], ["classify"],
                    ["report", "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")]):
        _assert_clean_error(main(command + data), capsys, f"loss log {log} is not complete")


def test_simulate_hashes_its_log_as_written(dataset_dir, tmp_path, capsys, monkeypatch):
    # the summary's log_sha256 comes from the blocks write_log writes: the
    # log is never read back to hash it
    hashed, sha256_file = [], worldgen.sha256_file

    def recorded(path):
        hashed.append(Path(path).resolve())
        return sha256_file(path)

    monkeypatch.setattr(worldgen, "sha256_file", recorded)
    log = tmp_path / "run.jsonl"
    for model in ("recurrent", "2f", "independent"):
        assert main(["simulate", "--dataset", str(dataset_dir), "--model", model,
                     "--param-count", "5000", "--out", str(log)]) == 0
        summary = json.loads(log.with_suffix(".json").read_text())["summary"]
        assert summary["log_sha256"] == _sha256(log)
    capsys.readouterr()
    assert hashed and log.resolve() not in hashed


@pytest.fixture(scope="module")
def two_point_run(tmp_path_factory):
    """An 80-profile dataset and a 2f two-point log of it, with its run manifest."""
    out = tmp_path_factory.mktemp("two_point")
    ds, log = out / "ds", out / "run.jsonl"
    assert main(["gen", "--profiles", "80", "--seed", "4", "--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", "2f", "--reliability",
                 "two-point:0.01,0.99,0.5", "--param-count", "5000", "--out", str(log)]) == 0
    return ds, log


@pytest.mark.parametrize("dropped", ["two_hop", "one_hop and two_hop"])
def test_truncated_log_refused_naming_its_coverage(two_point_run, tmp_path, capsys, dropped):
    # a log that lost every row of the dropped kinds with a loss of at least
    # 1 nat, next to the whole log's run manifest: validate finds no
    # violation in what is left, and the readers refuse it, naming the
    # coverage that validate reports for each short split
    ds, run_log = two_point_run
    log = tmp_path / "truncated.jsonl"
    rows = run_log.read_text().splitlines(keepends=True)
    kept = [line for line in rows if json.loads(line)["logprob_nats"] > -1.0
            or json.loads(line)["kind"] not in dropped.split(" and ")]
    assert 0 < len(kept) < len(rows)
    log.write_text("".join(kept))
    shutil.copy(run_log.with_suffix(".json"), log.with_suffix(".json"))
    data = ["--dataset", str(ds), "--losses", str(log)]
    assert main(["validate", *data]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["has_violations"] is False and diag["n_records"] == len(kept)
    coverage = diag["coverage"]  # printed with sorted keys: SPLITS gives file order
    short = ", ".join(f"{split} {coverage[split]!r}" for split in worldgen.SPLITS
                      if coverage.get(split, 1.0) != 1.0)
    assert short
    csv_path = tmp_path / "capacity.csv"
    for command in (["estimate", "--model", "2f"], ["classify"],
                    ["report", "--model", "2f", "--out-csv", str(csv_path)]):
        assert main(command + data) == 1
        assert capsys.readouterr() == ("", f"error: loss log {log} is not complete: 0 unknown, "
                                           f"0 duplicate, 0 mislabeled and 0 positive records; "
                                           f"coverage {short}\n")
    assert not csv_path.exists()


def test_unbound_run_manifest_gives_label_and_param_count(dataset_dir, run_log, tmp_path,
                                                           capsys):
    # an outside producer's run manifest may give report a label and a
    # parameter count without binding the log to a dataset: the complete log
    # is then walked and folded, and reports the summarised log's bits
    log, csv_path = tmp_path / "outside.jsonl", tmp_path / "capacity.csv"
    shutil.copy(run_log, log)
    log.with_suffix(".json").write_text(json.dumps({"label": "outside", "param_count": 5000}))
    tables = []
    for losses in (run_log, log):
        assert main(["report", "--dataset", str(dataset_dir), "--losses", str(losses),
                     "--model", "2f", "--out-csv", str(csv_path)]) == 0
        tables.append(csv_path.read_text())
    capsys.readouterr()
    assert tables[1] == tables[0].replace("trained-2f,", "outside,")
    assert tables[1].splitlines()[1].startswith("outside,5000,2f,")


def test_stale_summary_ignored(tmp_path, capsys):
    # edited records make the summary stale: the readers must fold the log
    # again, and so give what a log without a summary gives
    ds, log = tmp_path / "ds", tmp_path / "run.jsonl"
    assert main(GOLDEN_GEN_ARGS + ["--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", "2f", "--param-count", "5000",
                 "--out", str(log)]) == 0
    capsys.readouterr()
    before = _analysis_outputs(ds, log, "2f", tmp_path, capsys)
    lines = log.read_text().splitlines(keepends=True)
    relations = json.loads((ds / "manifest.json").read_text())["config"]["relations"]
    # a held-out row, which classify reads, and a train row whose answer is an
    # entity, whose first hop the trained model learned, which estimate reads
    edited = [next(i for i, line in enumerate(lines) if '"heldout_r"' in line and '"two_hop"' in line),
              next(i for i, line in enumerate(lines) if '"train"' in line and '"two_hop"' in line
                   and json.loads(line)["qid"].rsplit(":", 1)[1] in relations)]
    for i in edited:
        row = json.loads(lines[i])
        row["logprob_nats"] = row["logprob_nats"] - 20.0
        lines[i] = json.dumps(row, sort_keys=True) + "\n"
    log.write_text("".join(lines))
    stale = _analysis_outputs(ds, log, "2f", tmp_path, capsys)
    _drop_summary(log)
    fresh = _analysis_outputs(ds, log, "2f", tmp_path, capsys)
    assert stale == fresh
    # the edits reach every output but the one-hop estimate
    assert {name for name in fresh if fresh[name] != before[name]} == {
        "estimate", "classify", "report.csv", "report.svg"}


def _edited_rows(run_log, log, edit) -> None:
    """Write to ``log`` (with no run manifest) ``edit(rows)``, of the rows of ``run_log``."""
    rows = [json.loads(line) for line in run_log.read_text().splitlines()]
    log.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in edit(rows)))


def test_positive_logprob_outside_selection_exits_1(dataset_dir, run_log, tmp_path, capsys):
    # a complete log with one positive one-hop logprob is not complete, so
    # it stops a two-hop estimate too
    log = tmp_path / "bad.jsonl"
    positive = "1h:0:mother"
    _edited_rows(run_log, log, lambda rows: [
        {**row, "logprob_nats": 0.5} if row["qid"] == positive else row for row in rows])
    code = main(["estimate", "--dataset", str(dataset_dir), "--losses", str(log), "--model", "2f"])
    _assert_clean_error(code, capsys, f"loss log {log} is not complete: 0 unknown, 0 duplicate, "
                                      f"0 mislabeled and 1 positive records; coverage 1.0\n")


def _duplicate_first_row(rows):
    return rows[:1] + rows


def _relabel_first_row(rows):
    return [{**rows[0], "split": "heldout_full"}] + rows[1:]


def _add_unknown_row(rows):
    return rows + [{**rows[-1], "qid": "2h:0:nobody:birth city"}]


@pytest.mark.parametrize("edit, finding", [(_duplicate_first_row, "1 duplicate"),
                                           (_relabel_first_row, "1 mislabeled"),
                                           (_add_unknown_row, "1 unknown")])
def test_complete_log_with_a_finding_is_refused(dataset_dir, run_log, tmp_path, capsys, edit,
                                                finding):
    # every question keeps its one record, so coverage stays 1.0, but any
    # finding of validate's walk stops the readers
    log = tmp_path / "edited.jsonl"
    _edited_rows(run_log, log, edit)
    data = ["--dataset", str(dataset_dir), "--losses", str(log)]
    assert main(["validate", *data]) == 1
    assert set(json.loads(capsys.readouterr().out)["coverage"].values()) == {1.0}
    for command in (["estimate", "--model", "2f"], ["classify"],
                    ["report", "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")]):
        code = main(command + data)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: loss log {log} is not complete: "), command
        assert finding in err and err.endswith(" records; coverage 1.0\n") and err.count("\n") == 1


def test_empty_group_names_log_and_group(dataset_dir, run_log, tmp_path, capsys):
    # a summary that binds its log is taken as it is: one with an empty group
    # that the output needs is refused naming the log and the group
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    meta = json.loads(run_log.with_suffix(".json").read_text())
    for args, group in ((["classify"], "two_hop/heldout_full"),
                        (["estimate", "--model", "one-hop"], "one_hop")):
        groups = {**meta["summary"]["groups"], group: {"count": 0, "mean": 0.0}}
        log.with_suffix(".json").write_text(json.dumps(
            {**meta, "summary": {**meta["summary"], "groups": groups}}))
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(log)])
        _assert_clean_error(code, capsys, f"error: {log}: no records in group {group}\n")


def _classify_summarized_and_shuffled(tmp_path, capsys, model, spec) -> list[dict]:
    """classify's output on a simulated log (from its summary), then on its rows shuffled (refolded)."""
    ds, log, shuffled = tmp_path / "ds", tmp_path / "run.jsonl", tmp_path / "shuffled.jsonl"
    assert main(["gen", "--profiles", "80", "--seed", "4", "--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", model, "--reliability", spec,
                 "--param-count", "5000", "--out", str(log)]) == 0
    rows = log.read_text().splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    shuffled.write_text("".join(rows))
    capsys.readouterr()
    signatures = []
    for losses in (log, shuffled):
        assert main(["classify", "--dataset", str(ds), "--losses", str(losses)]) == 0
        signatures.append(json.loads(capsys.readouterr().out))
    return signatures


@pytest.mark.parametrize("model", ["independent", "2f"])
def test_classify_ignores_row_order(tmp_path, capsys, model):
    # a holdout's mean and its baseline are exact sums rounded once: a log
    # refolded after a row shuffle gives the summary's deltas, and each
    # chance-level holdout's delta is exactly 0.0
    summarized, refolded = _classify_summarized_and_shuffled(tmp_path, capsys, model, "trained")
    assert refolded == summarized
    assert summarized["inferred"] == model
    generalizing = {"heldout_full"} if model == "2f" else set()
    assert {k for k, v in summarized["generalizes"].items() if v} == generalizing
    assert all(delta == 0.0 for k, delta in summarized["deltas_bits"].items()
               if k not in generalizing)


def test_shuffled_chance_log_has_zero_deltas(tmp_path, capsys):
    # every answer of an independent chance log is its attribute's uniform
    # guess, so each holdout equals its baseline bit for bit in any row order
    for signature in _classify_summarized_and_shuffled(tmp_path, capsys, "independent", "chance"):
        assert set(signature["deltas_bits"].values()) == {0.0}
        assert signature["inferred"] == "independent"


def test_huge_loss_folds_exactly(dataset_dir, run_log, tmp_path, capsys):
    # a loss near the float range sums exactly: the refolded mean of a
    # complete log whose every two-hop loss is huge is that loss
    log = tmp_path / "huge.jsonl"
    args = ["estimate", "--dataset", str(dataset_dir), "--losses", str(log), "--model", "independent"]
    two_hops = sum(json.loads(line)["kind"] == "two_hop" for line in run_log.read_text().splitlines())
    for huge in (-1e200, -1.7e308):
        _edited_rows(run_log, log, lambda rows: [
            {**row, "logprob_nats": huge} if row["kind"] == "two_hop" else row for row in rows])
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["question_count"] == two_hops
        assert payload["mean_loss_bits"] == -huge / math.log(2)


def _modules_after(code, *args):
    """The twohop modules a fresh interpreter has loaded once it has run ``code`` with ``args``."""
    hook = (
        "import atexit, json, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(name for name in sys.modules"
        " if name.partition('.')[0] == 'twohop')), file=sys.stderr))\n"
    )
    src = str(Path(twohop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", hook + code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("twohop.") for name in json.loads(done.stderr.splitlines()[-1])}


def test_each_command_loads_only_its_modules(dataset_dir, run_log, tmp_path):
    # as `python -m twohop.cli`: cli runs as __main__, so only the package and
    # the modules the command imported are listed
    cli_main = "import runpy; runpy.run_module('twohop.cli', run_name='__main__')"
    logged = ["--dataset", str(dataset_dir), "--losses", str(run_log)]
    commands = {
        "gen": GEN_ARGS + ["--out", str(tmp_path / "ds")],
        "simulate": ["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                     "--param-count", "5000", "--out", str(tmp_path / "run.jsonl")],
        "estimate": ["estimate", *logged, "--model", "2f"],
        "classify": ["classify", *logged],
        "validate": ["validate", *logged],
        "report": ["report", *logged, "--model", "2f", "--out-csv", str(tmp_path / "c.csv"),
                   "--out-svg", str(tmp_path / "c.svg")],
    }
    common = {"twohop", "entropy", "worldgen"}  # the parser's choices and defaults
    reads_a_log = common | {"estimator", "logs"}
    assert {command: _modules_after(cli_main, *args) for command, args in commands.items()} == {
        "gen": common,
        "simulate": reads_a_log | {"generalization", "simulate"},
        "estimate": reads_a_log,
        "classify": reads_a_log | {"generalization"},
        "validate": reads_a_log,
        "report": reads_a_log | {"report"},
    }
    assert _modules_after("import twohop") == {"twohop"}


def test_no_command_imports_dataclasses(dataset_dir, run_log, tmp_path):
    # dataclasses imports inspect, ast and dis, about 5 ms of a command's
    # start-up. pytest has loaded it here, so each command runs in a fresh
    # interpreter, which prints which of the two it loaded as it exits
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads((dataset_dir / "manifest.json").read_text())["config"]))
    logged = ["--dataset", str(dataset_dir), "--losses", str(run_log)]
    commands = {
        "gen": GEN_ARGS + ["--out", str(tmp_path / "ds")],
        "entropy": ["entropy", "--config", str(config), "--model", "2f"],
        "simulate": ["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                     "--param-count", "5000", "--out", str(tmp_path / "run.jsonl")],
        "estimate": ["estimate", *logged, "--model", "2f"],
        "classify": ["classify", *logged],
        "validate": ["validate", *logged],
        "report": ["report", *logged, "--model", "2f", "--out-csv", str(tmp_path / "c.csv"),
                   "--out-svg", str(tmp_path / "c.svg")],
    }
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted({'dataclasses', 'inspect'} & set(sys.modules)),"
        " file=sys.stderr))\n"
        "runpy.run_module('twohop.cli', run_name='__main__')\n"
    )
    src = str(Path(twohop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command, args in commands.items():
        done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == "[]", command


def test_toolkit_imports_only_the_standard_library():
    # zero runtime dependencies: every import in the package, at the top or
    # inside a function, names a standard-library module or twohop itself
    names = set()
    for source in Path(twohop.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: twohop's own
                names.add(node.module)
    assert {"hashlib", "json", "pickle"} <= names
    allowed = sys.stdlib_module_names | {"twohop"}
    assert sorted(name for name in names if name.partition(".")[0] not in allowed) == []



def test_models_are_named_only_in_the_spec_table():
    # every per-model rule reads its model's row of entropy.SPECS, so no other code names a model
    members, outside, in_table = set(twohop.ModelKind.__members__), [], []
    for source in sorted(Path(twohop.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        table = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and [getattr(target, "id", None) for target in stmt.targets] == ["SPECS"]
                 for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ModelKind" and node.attr in members):
                (in_table if id(node) in table else outside).append(f"{source.name}:{node.lineno} {node.attr}")
    assert outside == []
    assert sorted(name.split()[1] for name in in_table) == sorted(members)

def test_package_names_resolve_to_their_modules():
    # the names `import twohop` exports, each loaded from its module on first use
    exports = {
        "entropy": ["ModelKind", "baseline_content", "dataset_entropy", "name_selection_entropy"],
        "estimator": ["bits_per_parameter", "content_estimate"],
        "generalization": ["PresenceFlags", "classify_algorithm", "evaluate_holdouts",
                           "predict_generalization", "uniform_baselines"],
        "logs": ["summarize"],
        "simulate": ["ReliabilityProfile", "allocate_budget", "ground_truth_content",
                     "loss_impact_ratio", "loss_records"],
        "worldgen": ["HOLDOUT_KINDS", "WorldConfig", "build_splits", "generate_world",
                     "persist_dataset"],
    }
    assert twohop.__all__ == sorted([*exports, *(name for names in exports.values() for name in names)])
    for module_name, names in exports.items():
        module = importlib.import_module(f"twohop.{module_name}")
        assert getattr(twohop, module_name) is module
        for name in names:
            assert getattr(twohop, name) is getattr(module, name), name
    assert set(twohop.__all__) <= set(dir(twohop))
    with pytest.raises(AttributeError):
        twohop.report_card


def test_report_reads_each_run_manifest_once(dataset_dir, run_log, tmp_path, capsys, monkeypatch):
    logs = [tmp_path / f"run{i}.jsonl" for i in range(3)]
    for log in logs:
        shutil.copy(run_log, log)
        shutil.copy(run_log.with_suffix(".json"), log.with_suffix(".json"))
    calls = {"run manifest": 0, "dataset manifest": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "_read_log", counted("run manifest", cli._read_log))
    monkeypatch.setattr(worldgen, "load_manifest",
                        counted("dataset manifest", worldgen.load_manifest))
    assert main(["report", "--dataset", str(dataset_dir), "--losses", *map(str, logs),
                 "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")]) == 0
    assert calls == {"run manifest": 3, "dataset manifest": 1}
    # estimate and classify hash and parse the dataset manifest in one read too
    for args in (["estimate", "--model", "2f"], ["classify"]):
        calls.update(dict.fromkeys(calls, 0))
        assert main(args + ["--dataset", str(dataset_dir), "--losses", str(logs[0])]) == 0
        assert calls == {"run manifest": 1, "dataset manifest": 1}, args
    # simulate binds its log to the manifest bytes it verified, from one read
    calls.update(dict.fromkeys(calls, 0))
    assert main(["simulate", "--dataset", str(dataset_dir), "--model", "2f",
                 "--param-count", "5000", "--out", str(tmp_path / "sim.jsonl")]) == 0
    assert calls == {"run manifest": 0, "dataset manifest": 1}
    sim_meta = json.loads((tmp_path / "sim.json").read_text())
    assert sim_meta["dataset_manifest_sha256"] == _sha256(dataset_dir / "manifest.json")


def test_validate_qid_join(dataset_dir, tmp_path, capsys):
    # A qid matches a question only if it is that question's qid character
    # for character: int() reads 007, +7, 1_0, " 7" and "٧", but none names e1 7.
    qids = [
        "1h:7:mother",
        "2h:7:mother:birth city",
        "2h:007:mother:birth city",
        "2h:+7:mother:birth city",
        "2h:1_0:mother:birth city",
        "2h: 7:mother:birth city",
        "2h:\u0667:mother:birth city",
        "2h:7:mother:birth city:x",
        "2h:7:birth city:mother",
        "1h:7:zodiac",
        "1h:100:mother",
        "2h:7:mother",
        "nope",
        "nope",
        "1h:7:mother",
    ]
    log = tmp_path / "join.jsonl"
    log.write_text("".join(
        json.dumps({"qid": q, "split": "train", "kind": "two_hop", "logprob_nats": -1.0}) + "\n"
        for q in qids
    ))
    assert main(["validate", "--dataset", str(dataset_dir), "--losses", str(log)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["unknown_qids"] == qids[2:14]
    assert payload["duplicate_qids"] == ["nope", "1h:7:mother"]
    # 1h:7:mother is one of 953 train questions and 2h:7:mother:birth city
    # one of 13 in heldout_e2a
    zero = dict.fromkeys(["heldout_e1", "heldout_r", "heldout_e2", "heldout_a", "heldout_e1r",
                          "heldout_full"], 0.0)
    assert payload["coverage"] == {"train": 1 / 953, "heldout_e2a": 1 / 13, **zero}


def test_cot_log_refused_by_estimators(tmp_path, capsys):
    # simulate and validate take a CoT dataset; the latent model's per-unit
    # rule does not describe its losses, so the estimating commands refuse it
    ds = tmp_path / "cot"
    assert main(GEN_ARGS + ["--cot", "answers", "--out", str(ds)]) == 0
    log = tmp_path / "cot.jsonl"
    args = ["--dataset", str(ds), "--losses", str(log)]
    assert main(["simulate", "--dataset", str(ds), "--model", "2f", "--param-count", "5000",
                 "--out", str(log)]) == 0
    assert main(["validate"] + args) == 0
    capsys.readouterr()
    assert "summary" not in json.loads(log.with_suffix(".json").read_text())
    for command in (
        ["estimate", "--model", "2f"],
        ["classify"],
        ["report", "--model", "2f", "--out-csv", str(tmp_path / "cot.csv")],
    ):
        _assert_clean_error(main(command + args), capsys, "two_hop_cot")


# Traced peak growth per added question of simulate and estimate (each model,
# trained and two-point), classify and validate, in bytes, less the growth of
# load_manifest's own peak. Holding an object per question costs hundreds.
# The manifest is subtracted because its holdout_components list
# heldout_full's triples, 5% of the two-hop questions at this --holdout-frac:
# it grows from 3.1 to 13.8 KB between the two worlds, and load_manifest's
# peak alone grows 17.1 B per added question. Less that, the commands grow
# at most about 8.5 B (simulate), and estimate and in-order validate read
# below 0, since each small-world peak also holds fixed allocations.
BYTES_PER_QUESTION = 12


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory that tracemalloc traced while it ran.

    The heap is collected first, as a fresh process starts with no garbage:
    what an earlier command left for the collector would otherwise set the
    phase of the collections that run inside ``fn``.
    """
    gc.collect()
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_facts_not_questions(tmp_path, capsys):
    peaks, questions, manifest_peaks = {}, {}, {}
    for relations in (2, 8):
        ds = tmp_path / f"r{relations}"
        assert main(["gen", "--profiles", "40", "--relations", str(relations), "--properties", "2",
                     "--name-pools", "100", "100", "100", "--holdout-frac", "0.05", "--seed", "2",
                     "--out", str(ds)]) == 0
        questions[relations] = sum(json.loads(capsys.readouterr().out)["counts"].values())
        _, manifest_peaks[relations] = _traced_peak(worldgen.load_manifest, ds)
        data = ["--dataset", str(ds)]
        commands = {}
        for model in ("recurrent", "2f", "independent"):
            for spec in ("trained", "two-point:0.01,0.99,0.5"):
                log = tmp_path / f"r{relations}-{model}-{spec.split(':')[0]}.jsonl"
                commands["simulate", model, spec] = [
                    "simulate", *data, "--model", model, "--reliability", spec,
                    "--param-count", "5000", "--out", str(log)]
                commands["estimate", model, spec] = [
                    "estimate", *data, "--losses", str(log), "--model", model]
        log = tmp_path / f"r{relations}-2f-trained.jsonl"
        # a copy without its run manifest, so that estimate walks and folds the log itself
        bare = tmp_path / f"r{relations}-bare.jsonl"
        commands["estimate", "no summary"] = [
            "estimate", *data, "--losses", str(bare), "--model", "2f"]
        # a row-shuffled copy, whose rows validate joins one decoded line at a time
        shuffled = tmp_path / f"r{relations}-shuffled.jsonl"
        commands["classify"] = ["classify", *data, "--losses", str(log)]
        commands["validate"] = ["validate", *data, "--losses", str(log)]
        commands["validate", "shuffled"] = ["validate", *data, "--losses", str(shuffled)]
        for name, argv in commands.items():
            if name == ("estimate", "no summary"):
                shutil.copy(log, bare)
            if name == ("validate", "shuffled"):
                rows = log.read_bytes().splitlines(keepends=True)
                random.Random(relations).shuffle(rows)
                shuffled.write_bytes(b"".join(rows))
            code, peaks[name, relations] = _traced_peak(main, argv)
            assert code == 0, name
            capsys.readouterr()
    added = questions[8] - questions[2]
    assert added > 3000
    manifest = manifest_peaks[8] - manifest_peaks[2]
    growth = {name: (peaks[name, 8] - peaks[name, 2] - manifest) / added for name in commands}
    assert max(growth.values()) <= BYTES_PER_QUESTION, growth
