"""The bench harness's view of the package: the names it wraps and the sizes it reads.

``perfbench/launcher.py`` and ``perfbench/truth.py`` are loaded from their
files and only read: no wrapper is installed and no bytecode is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from twohop import (
    HOLDOUT_KINDS,
    ModelKind,
    ReliabilityProfile,
    build_splits,
    generate_world,
    ground_truth_content,
    persist_dataset,
)
from twohop.worldgen import load_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _harness(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def micro_splits(micro_world):
    return build_splits(micro_world, dict.fromkeys(HOLDOUT_KINDS, 0.02), mix_ratio=10, seed=6)


def test_every_span_resolves(monkeypatch):
    for module_name, functions in _harness("launcher", monkeypatch).SPANS.items():
        module = importlib.import_module(f"twohop.{module_name}")
        for fn_name in functions:
            if "." in fn_name:
                class_name, method = fn_name.split(".")
                assert isinstance(vars(getattr(module, class_name))[method], classmethod), fn_name
            else:
                assert callable(getattr(module, fn_name)), fn_name


def test_profile_entries_count_units(micro_world, micro_splits, monkeypatch):
    profile_entries = _harness("launcher", monkeypatch)._profile_entries
    cfg = micro_world.config
    facts = cfg.n_profiles * len(cfg.attributes)
    units = {
        ModelKind.RECURRENT: facts,
        ModelKind.TWO_FUNCTION: 2 * facts,
        ModelKind.INDEPENDENT: facts * len(cfg.relations),
    }
    for kind, count in units.items():
        trained = ReliabilityProfile.trained(micro_world, micro_splits, kind)
        two_point = ReliabilityProfile.two_point(cfg, kind, 0.01, 0.99, 0.5, seed=1)
        assert profile_entries(trained) == profile_entries(two_point) == count, kind


def test_bound_excess_on_a_persisted_dataset(micro_world, micro_splits, tmp_path, monkeypatch):
    bound_excess = _harness("truth", monkeypatch).bound_excess
    persist_dataset(micro_splits, micro_world, tmp_path)
    estimates = []
    for kind in ModelKind:
        trained = ReliabilityProfile.trained(micro_world, micro_splits, kind)
        two_point = ReliabilityProfile.two_point(micro_world.config, kind, 0.01, 0.99, 0.5, seed=1)
        for spec, profile in (("trained", trained), ("two-point:0.01,0.99,0.5", two_point)):
            truth = ground_truth_content(micro_world, profile)
            estimates.append([kind.value, spec, [0.5 * truth, truth]])
    # truth.py rebuilds each profile, so every estimate is at most its truth
    assert bound_excess(tmp_path, 1, estimates) == 0.0
    kind, spec, (_, truth) = estimates[-1]
    assert bound_excess(tmp_path, 1, [[kind, spec, [1.25 * truth]]]) == pytest.approx(0.25)


def test_item_counters_read_real_results(micro_world, micro_splits, tmp_path, monkeypatch):
    # the launcher counts a world's profiles and a split set's keys through
    # the result's own attributes; each counter must read the real shape
    spans = _harness("launcher", monkeypatch).SPANS["worldgen"]
    items = {name: spans[name][0] for name in ("generate_world", "build_splits", "load_dataset")}
    cfg = micro_world.config
    assert items["generate_world"]({"config": cfg}, generate_world(cfg)) == cfg.n_profiles
    # every question is in one split: none is absent at mix_ratio 10
    questions = micro_splits.space.size
    assert sum(micro_splits.counts().values()) == questions
    assert items["build_splits"]({"world": micro_world}, micro_splits) == questions
    persist_dataset(micro_splits, micro_world, tmp_path)
    assert items["load_dataset"]({"path": tmp_path}, load_dataset(tmp_path)) == questions
