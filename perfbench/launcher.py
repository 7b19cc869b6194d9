"""Run one twohop CLI command with timing spans around the library's public functions.

Usage: python perfbench/launcher.py SPANS_JSON <twohop command and arguments...>

Before calling ``twohop.cli.main(argv)``, each function in ``SPANS`` is
replaced by a timing wrapper in every ``twohop.*`` module namespace that
binds it, so spans follow the CLI's real call sequence and nest where the
layers call each other. No file of the package changes. Spans stay in memory
and are written to SPANS_JSON when the command ends, as a list of

    [name, parent_index, duration_s, rss_growth_mb, items, bytes, matched]

Span 0 is the command itself (``cli.<command>``), with parent ``None``.
``items`` counts the items or records a call takes in or gives out,
``bytes`` the size of the files it reads or writes (where it has files), and
``matched`` the records an aggregation kept. ``rss_growth_mb`` is the growth
of the process's ``ru_maxrss`` high-water mark across the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path


def _split_items(split_set) -> int:
    return len(split_set.train) + sum(len(v) for v in split_set.heldout.values())


def _profile_entries(profile) -> int:
    tables = (profile.facts, profile.hop1, profile.hop2, profile.memo)
    return sum(len(t) for t in tables if t is not None)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


# module -> function -> (items, bytes); each takes the bound arguments and the result
SPANS = {
    "worldgen": {
        "generate_world": (lambda a, r: len(r.profiles), None),
        "build_splits": (lambda a, r: _split_items(r), None),
        "persist_dataset": (lambda a, r: _split_items(a["split_set"]), lambda a, r: _dir_bytes(a["path"])),
        "load_dataset": (lambda a, r: _split_items(r[0]), lambda a, r: _dir_bytes(a["path"])),
        "sha256_file": (lambda a, r: 1, None),
    },
    "simulate": {
        "ReliabilityProfile.trained": (lambda a, r: _profile_entries(r), None),
        "ReliabilityProfile.two_point": (lambda a, r: _profile_entries(r), None),
        "generate_loss_log": (lambda a, r: len(r), None),
    },
    "logs": {
        "write_loss_log": (lambda a, r: len(a["records"]), lambda a, r: _file_bytes(a["path"])),
        "read_loss_log": (lambda a, r: len(r), lambda a, r: _file_bytes(a["path"])),
        "validate_loss_log": (lambda a, r: r.n_records, None),
    },
    "estimator": {
        "aggregate_losses": (lambda a, r: len(a["records"]), None),
        "content_estimate": (lambda a, r: a["aggregate"].count, None),
    },
    "entropy": {
        "dataset_entropy": (lambda a, r: 1, None),
        "baseline_content": (lambda a, r: 1, None),
    },
    "generalization": {
        "uniform_baselines": (lambda a, r: sum(len(v) for v in a["split_set"].heldout.values()), None),
        "evaluate_holdouts": (lambda a, r: len(a["aggregates"]), None),
        "classify_algorithm": (lambda a, r: len(a["signature"].generalizes), None),
    },
    "report": {
        "capacity_table": (lambda a, r: len(a["points"]), None),
        "scaling_plot": (lambda a, r: a["csv_text"].count("\n") - 1, None),
    },
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span recorder; ``stack`` holds the indices of the open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str) -> tuple[int, float, float]:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, 0.0, 0.0, 0, 0, 0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1, time.perf_counter(), _max_rss_mb()

    def close(self, index: int, start: float, rss0: float) -> None:
        self.spans[index][2] = time.perf_counter() - start
        self.spans[index][3] = _max_rss_mb() - rss0
        self.stack.pop()

    def wrap(self, name: str, fn, items, size):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, start, rss0 = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index, start, rss0)
            bound = signature.bind(*args, **kwargs).arguments
            span = self.spans[index]
            span[4] = items(bound, result)
            if size is not None:
                span[5] = size(bound, result)
            if name == "estimator.aggregate_losses":
                span[6] = result.count
            return result

        return wrapper

    def install(self) -> None:
        for module_name, functions in SPANS.items():
            module = importlib.import_module(f"twohop.{module_name}")
            for fn_name, (items, size) in functions.items():
                name = f"{module_name}.{fn_name}"
                if "." in fn_name:
                    class_name, method = fn_name.split(".")
                    cls = getattr(module, class_name)
                    original = cls.__dict__[method].__func__
                    setattr(cls, method, classmethod(self.wrap(name, original, items, size)))
                    continue
                original = getattr(module, fn_name)
                wrapper = self.wrap(name, original, items, size)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name != "twohop" and not loaded_name.startswith("twohop."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import twohop.cli

    tracer = Tracer()
    tracer.install()
    index, start, rss0 = tracer.open(f"cli.{argv[0]}")
    try:
        return twohop.cli.main(argv)
    finally:
        tracer.close(index, start, rss0)
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
