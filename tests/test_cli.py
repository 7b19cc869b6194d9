import argparse
import hashlib
import json
import os
import random
import shutil
import tracemalloc
import xml.dom.minidom

import pytest

from twohop import cli, estimator, logs, simulate, worldgen
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
    assert main(["entropy", "--config", str(cfg_path), "--task", "two-hop", "--model", "2f"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["multiplier"] == 2
    assert payload["total_bits"] > payload["baseline_bits"]
    # two-hop without a model kind is a usage error
    assert main(["entropy", "--config", str(cfg_path), "--task", "two-hop"]) == 2


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


def test_estimate_binding_check(run_log, tmp_path, capsys):
    other = tmp_path / "other"
    assert main(GEN_ARGS[:2] + ["120"] + GEN_ARGS[3:] + ["--out", str(other)]) == 0
    capsys.readouterr()
    args = ["estimate", "--dataset", str(other), "--losses", str(run_log), "--model", "2f"]
    assert main(args) == 1
    assert "different dataset" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


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
    for args in (["validate"], ["estimate", "--model", "2f", "--force"]):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(bad)])
        _assert_clean_error(code, capsys, "bad.jsonl:1: malformed record: 'split'")


@pytest.mark.parametrize("field", ["qid", "split", "kind"])
def test_loss_row_non_string_key_exits_1(dataset_dir, tmp_path, capsys, field):
    row = {"qid": "1h:0:mother", "split": "train", "kind": "one_hop", "logprob_nats": -0.5}
    row[field] = [1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(row) + "\n")
    for args in (["validate"], ["estimate", "--model", "2f", "--force"]):
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(bad)])
        _assert_clean_error(code, capsys, "bad.jsonl:1: malformed record")


def test_loss_row_not_utf8_exits_1(dataset_dir, run_log, tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    shutil.copy(run_log, log)
    shutil.copy(run_log.with_suffix(".json"), log.with_suffix(".json"))
    lines = len(log.read_bytes().splitlines())
    with open(log, "ab") as f:
        f.write(b"\xff\xfe\n")
    for args in (["validate"], ["estimate", "--model", "2f", "--force"]):
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
        ["estimate", "--model", "2f", "--force"],
        ["classify", "--force"],
        ["report", "--model", "2f", "--force", "--out-csv", str(tmp_path / "c.csv")],
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
    _assert_clean_error(code, capsys, f"--out {out} ends in .json")
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
    "entropy": {"--config", "--task", "--model"},
    "simulate": {"--dataset", "--model", "--reliability", "--seed", "--label", "--param-count",
                 "--out"},
    "estimate": {"--dataset", "--losses", "--model", "--force"},
    "classify": {"--dataset", "--losses", "--force"},
    "validate": {"--dataset", "--losses"},
    "report": {"--dataset", "--losses", "--model", "--slope", "--out-csv", "--out-svg", "--force"},
}


def test_subcommand_options_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


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
    ("entropy", "one-hop"): "37c711d7aad8846fe3ed8e9910eb036f456f8b75f2f64e18d2ebdaf261bd343d",
    ("entropy", "recurrent"): "46a156dce299e29cf050fa1b0d237f07399cd65f6c2fe7457619739fd7d4b84e",
    ("entropy", "2f"): "963be95f337b0457f064247d0b681ed5b64465603f242e122ba52665c0874be2",
    ("entropy", "independent"): "f7d9174c25426b6bd2cac9ae15a2a2515ac782db3ff669a67b800036c472364a",
    ("estimate", "one-hop"): "cc338ade0bee663775fb8387e7a7be53688aabd966ce5be7aebee5dfac64a838",
    ("estimate", "recurrent"): "e0496df1636e613ad9aa32d71e8cad27ac3b35308522da19ae63b191f84f6f37",
    ("estimate", "2f"): "a32494fec387b8c9e2cad82664cc9417103af2ad13c86b442ee14f2437ce8546",
    ("estimate", "independent"): "e0446ceaf242e056ad8e85b3b18a9bf2eb270645469016fc594b58db4e68d006",
    ("classify", "recurrent"): "385f05e8dee294db591ec8ca3f4749c788f7189a84479c36de45024d68451569",
    ("classify", "2f"): "52242a9e4e157707ccf8bca4663237435a21120b194c61bab7114dfb74422703",
    ("classify", "independent"): "8bef80d8233923c8c82edbda51ba8e976bd97a0f232517b72f0c37e49561ebe6",
    ("report.csv", "recurrent"): "9c4379b38a0a33654709cd6d8308dd47f1521ebaf7236587007b3102bb9fed0a",
    ("report.csv", "2f"): "371fbce80f2b1d1867067360dd09079d414390de41171f0707eaed97a1054423",
    ("report.csv", "independent"):
        "6f82713ce0743da453b8fe7f8961b1812f2f3bfb7ded6777317d66da938f1364",
    ("report.svg", "recurrent"): "3827bc33d47942dadca8c36c7388adc0e8539a49a4220ac1ce6eab37031984f8",
    ("report.svg", "2f"): "97a3e7c538e07dce23a2b68425221e1cddf8557346aae44c413f26965ba68d39",
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
                                                "--task", "one-hop"])}
    for model in GOLDEN_TRAINED_LOGS:
        log = tmp_path / f"{model}.jsonl"
        stdout_sha(["simulate", "--dataset", str(ds), "--model", model, "--label",
                    f"trained-{model}", "--param-count", "5000", "--out", str(log)])
        shas["entropy", model] = stdout_sha(["entropy", "--config", str(config),
                                             "--task", "two-hop", "--model", model])
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


def _drop_first_names(manifest, out):
    del manifest["config"]["first_names"]


def _string_n_profiles(manifest, out):
    manifest["config"]["n_profiles"] = "30"


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
        ("estimate", _drop_first_names, "first_names"),
        ("estimate", _string_n_profiles, "n_profiles"),
        ("simulate", _drop_first_names, "first_names"),
        ("simulate", _drop_second_profile_first, "profiles.jsonl:2:"),
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
        ("simulate", _drop_last_question, "qa.jsonl:1600: missing question row"),
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
        ("simulate", _extra_profile, "profiles.jsonl:101:"),
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
    args = {
        "classify": ["--losses", str(run_log), "--force"],
        "estimate": ["--losses", str(run_log), "--model", "2f", "--force"],
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


def _assert_no_child():
    # every data-file check's child has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize(
    "text, needle",
    [("not json", "Expecting value"), ("[1, 2]", "must be a JSON object"),
     ('"config"', "must be a JSON object")],
)
def test_entropy_config_not_an_object_exits_1(tmp_path, capsys, text, needle):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    code = main(["entropy", "--config", str(cfg_path), "--task", "one-hop"])
    _assert_clean_error(code, capsys, f"config {cfg_path}: {needle}")


def test_gen_without_relations_exits_1(tmp_path, capsys):
    code = main(["gen", "--profiles", "20", "--relations", "0", "--holdout-frac", "0",
                 "--out", str(tmp_path / "ds")])
    _assert_clean_error(code, capsys, "relations must not be empty")


def test_entropy_config_missing_key_exits_1(dataset_dir, tmp_path, capsys):
    config = json.loads((dataset_dir / "manifest.json").read_text())["config"]
    del config["first_names"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["entropy", "--config", str(cfg_path), "--task", "one-hop"])
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
    code = main(["entropy", "--config", str(cfg_path), "--task", "one-hop"])
    _assert_clean_error(code, capsys, needle)


@pytest.mark.parametrize("edit", ["stale_hash", "rehashed", "deleted"])
def test_classify_reads_no_question_file(dataset_dir, run_log, tmp_path, capsys, edit):
    # classify replays the splits from the manifest, so qa.jsonl is never read
    def edit_qa(manifest, out):
        qa = out / "qa.jsonl"
        if edit == "deleted":
            qa.unlink()
            return
        qa.write_text("not a question\n")
        if edit == "rehashed":
            manifest["files"]["qa.jsonl"] = _sha256(qa)

    edited = _edited_copy(dataset_dir, tmp_path, edit_qa)
    outputs = []
    for ds in (dataset_dir, edited):
        assert main(["classify", "--dataset", str(ds), "--losses", str(run_log), "--force"]) == 0
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
        *[(_summary_with(lambda s, k=k, v=v: s["groups"]["two_hop"].update({k: v})),
           "summary group 'two_hop': mean and m2 must be finite")
          for k in ("mean", "m2") for v in (float("nan"), float("inf"), "0.5", None, 10**400)],
        *[(_summary_with(lambda s, g=g, k=k, v=v: s["groups"][g].update({k: v})),
           f"summary group {g!r}: mean and m2 must be >= 0")
          for g, v in (("one_hop", -3.0), ("two_hop", -5e-324)) for k in ("mean", "m2")],
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


@pytest.fixture(scope="module")
def mix0_dataset_dir(tmp_path_factory):
    # no train two-hop rows, and held-out splits longer than a fold's buffer
    out = tmp_path_factory.mktemp("cli_mix0_ds")
    assert main(GEN_ARGS + ["--properties", "2", "--mix-ratio", "0", "--holdout-frac", "0.3",
                            "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("model", ["recurrent", "2f", "independent"])
@pytest.mark.parametrize(
    "spec", ["trained", "chance", "two-point:0.01,0.99,0.5", "0.7", "budget:5000"])
def test_summary_is_the_fold_of_the_log(dataset_dir, mix0_dataset_dir, tmp_path, capsys, model,
                                        spec):
    # simulate folds the rows it writes in chunks of estimator.FOLD_ROWS: every
    # group's Welford state is bit for bit the one logs.summarize gives over
    # the written log, across chunk ends and on a dataset without train
    # two-hop rows
    for ds in (dataset_dir, mix0_dataset_dir):
        counts = json.loads((ds / "manifest.json").read_text())["counts"]
        assert max(counts.values()) > estimator.FOLD_ROWS
        log = tmp_path / f"{ds.name}.jsonl"
        assert main(["simulate", "--dataset", str(ds), "--model", model, "--reliability",
                     spec, "--seed", "1", "--param-count", "5000", "--out", str(log)]) == 0
        summary = json.loads(log.with_suffix(".json").read_text())["summary"]
        assert summary["log_sha256"] == _sha256(log)
        groups = logs.summarize(record for _, record in logs._loss_rows(log))
        assert summary["groups"] == {
            name: {"count": acc.count, "mean": acc.mean, "m2": acc.m2}
            for name, acc in groups.items()
        }
    # the mix ratio 0 log has held-out two-hop rows and no train ones
    assert groups["two_hop"].count > estimator.FOLD_ROWS
    assert groups["two_hop/train"].count == 0


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
    lookup, written = simulate.LossTable.lookup, 0

    def interrupted(self, keys):
        nonlocal written
        for row in lookup(self, keys):
            if written == 360:
                raise interrupt
            written += 1
            yield row

    monkeypatch.setattr(simulate.LossTable, "lookup", interrupted)
    if isinstance(interrupt, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--reliability", "0.7"])
    else:
        _assert_clean_error(main(args + ["--reliability", "0.7"]), capsys, "No space left")
    _assert_no_child()
    monkeypatch.undo()
    assert len(log.read_text().splitlines()) == 360
    assert not log.with_suffix(".json").exists()
    data = ["--dataset", str(dataset_dir), "--losses", str(log)]
    for command in (["estimate", "--model", "2f"], ["classify"],
                    ["report", "--model", "2f", "--out-csv", str(tmp_path / "capacity.csv")]):
        _assert_clean_error(main(command + data), capsys, "no run manifest")


def test_stale_summary_ignored(tmp_path, capsys):
    # one edited record makes the summary stale: the readers must fold the
    # log again, and so give what a log without a summary gives
    ds, log = tmp_path / "ds", tmp_path / "run.jsonl"
    assert main(GOLDEN_GEN_ARGS + ["--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", "2f", "--param-count", "5000",
                 "--out", str(log)]) == 0
    capsys.readouterr()
    before = _analysis_outputs(ds, log, "2f", tmp_path, capsys)
    lines = log.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines)
             if '"heldout_r"' in line and '"two_hop"' in line)
    row = json.loads(lines[i])
    row["logprob_nats"] = row["logprob_nats"] - 20.0
    lines[i] = json.dumps(row, sort_keys=True) + "\n"
    log.write_text("".join(lines))
    stale = _analysis_outputs(ds, log, "2f", tmp_path, capsys)
    _drop_summary(log)
    fresh = _analysis_outputs(ds, log, "2f", tmp_path, capsys)
    assert stale == fresh
    # the edit reaches every output but the one-hop estimate
    assert {name for name in fresh if fresh[name] != before[name]} == {
        "estimate", "classify", "report.csv", "report.svg"}


def test_positive_logprob_outside_selection_exits_1(dataset_dir, tmp_path, capsys):
    # every group folds in one pass, so a positive one-hop logprob stops a
    # two-hop estimate too
    rows = [
        {"qid": "1h:0:mother", "split": "train", "kind": "one_hop", "logprob_nats": 0.5},
        {"qid": "2h:0:mother:boss", "split": "train", "kind": "two_hop", "logprob_nats": -0.5},
    ]
    log = tmp_path / "bad.jsonl"
    log.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code = main(["estimate", "--dataset", str(dataset_dir), "--losses", str(log), "--model", "2f",
                 "--force"])
    _assert_clean_error(code, capsys, "positive logprob for 1h:0:mother: 0.5")


def test_empty_group_names_log_and_group(dataset_dir, run_log, tmp_path, capsys):
    rows = run_log.read_text().splitlines(keepends=True)
    cases = [
        (["classify"], '"heldout_full"', "two_hop/heldout_full"),
        (["estimate", "--model", "one-hop"], '"one_hop"', "one_hop"),
    ]
    for args, dropped, group in cases:
        log = tmp_path / "partial.jsonl"
        log.write_text("".join(row for row in rows if dropped not in row))
        code = main(args + ["--dataset", str(dataset_dir), "--losses", str(log), "--force"])
        _assert_clean_error(code, capsys, f"error: {log}: no records in group {group}\n")


@pytest.mark.parametrize("model", ["independent", "2f"])
def test_classify_ignores_row_order(tmp_path, capsys, model):
    # chance-level holdouts folded in reverse order miss their baselines by
    # rounding alone, which must not flip a holdout to generalizing
    ds, log, reversed_log = tmp_path / "ds", tmp_path / "run.jsonl", tmp_path / "reversed.jsonl"
    assert main(["gen", "--profiles", "80", "--seed", "4", "--out", str(ds)]) == 0
    assert main(["simulate", "--dataset", str(ds), "--model", model, "--param-count", "5000",
                 "--out", str(log)]) == 0
    reversed_log.write_text("".join(reversed(log.read_text().splitlines(keepends=True))))
    capsys.readouterr()
    signatures = []
    for losses in (log, reversed_log):
        assert main(["classify", "--dataset", str(ds), "--losses", str(losses), "--force"]) == 0
        signatures.append(json.loads(capsys.readouterr().out))
    forward, backward = signatures
    assert forward["deltas_bits"] != backward["deltas_bits"]  # the orders do round apart
    assert backward["inferred"] == forward["inferred"] == model
    assert backward["generalizes"] == forward["generalizes"]


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

    monkeypatch.setattr(cli, "_read_run_meta", counted("run manifest", cli._read_run_meta))
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
    # simulate and validate take a CoT dataset; the latent-model inversion
    # does not describe its losses, so the estimating commands refuse it
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
# trained and two-point), classify and validate, in bytes: at most 15 B
# measured on the packed-key store, with 2x headroom. Holding an object per
# question costs hundreds.
BYTES_PER_QUESTION = 30


def test_memory_grows_with_facts_not_questions(tmp_path, capsys):
    peaks, questions = {}, {}
    for relations in (2, 8):
        ds = tmp_path / f"r{relations}"
        assert main(["gen", "--profiles", "40", "--relations", str(relations), "--properties", "2",
                     "--name-pools", "100", "100", "100", "--holdout-frac", "0.05", "--seed", "2",
                     "--out", str(ds)]) == 0
        questions[relations] = sum(json.loads(capsys.readouterr().out)["counts"].values())
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
        # a copy without its run manifest, so that estimate folds the log itself
        bare = tmp_path / f"r{relations}-bare.jsonl"
        commands["estimate", "no summary"] = [
            "estimate", *data, "--losses", str(bare), "--model", "2f", "--force"]
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
            tracemalloc.start()
            try:
                assert main(argv) == 0, name
                peaks[name, relations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
    added = questions[8] - questions[2]
    assert added > 3000
    growth = {name: (peaks[name, 8] - peaks[name, 2]) / added for name in commands}
    assert max(growth.values()) <= BYTES_PER_QUESTION, growth
