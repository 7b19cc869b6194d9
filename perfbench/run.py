"""Benchmark of the twohop CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-wide --seed 1 --seconds 20 --trace 0

A workload is a fixed sequence of CLI calls, run as a closed loop: one
``python -m twohop.cli`` subprocess at a time, each started after the
previous one exits. The seed reaches the program only as ``gen --seed`` and
``simulate --seed``. One run sets up (several times, reporting the median),
then repeats the workload's timed sequence in a fresh directory each time
while another repetition still fits in ``--seconds``, and checks every
output. With ``--trace 1`` it then runs the sequence once more through
``launcher.py``, which records spans around the library's public functions,
and reports per-layer metrics instead of end-to-end ones.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics that ``BENCHMARK.json`` declares for the mode. See README.md for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from launcher import SPANS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
TRUTH = Path(__file__).resolve().parent / "truth.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
SPEC = ROOT / "BENCHMARK.json"

MB = 1024 * 1024
# Nominal time of the reference.py kernel. Every time reported, except raw.*,
# is scaled to a machine on which the kernel takes this long (see README.md).
REF_S = 0.06
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170  # a workload's calls are killed after this, so a run ends within 180 s
GEN_COMMON = ("--holdout-frac", "0.01", "--mix-ratio", "10")
TWO_POINT = "two-point:0.01,0.99,0.5"
PARAM_COUNTS = {"trained": 100_000, TWO_POINT: 200_000}
COMMANDS = ("gen", "simulate", "estimate", "classify", "validate", "report")
SPAN_NAMES = [f"{module}.{fn}" for module, fns in SPANS.items() for fn in fns]


@dataclass(frozen=True)
class Workload:
    profiles: int
    relations: int
    properties: int
    models: tuple[str, ...]
    sweep: bool  # dataset made in set-up; trained and two-point logs per model

    @property
    def items(self) -> int:
        """Dataset questions: one one-hop and |R| two-hop questions per fact."""
        return self.profiles * (self.relations + self.properties) * (self.relations + 1)

    @property
    def logs(self) -> int:
        return len(self.models) * (2 if self.sweep else 1)


WORKLOADS = {
    "pipeline-wide": Workload(400, 17, 4, ("2f",), sweep=False),
    "pipeline-narrow": Workload(12_000, 2, 2, ("recurrent",), sweep=False),
    "sweep": Workload(150, 17, 4, ("recurrent", "2f", "independent"), sweep=True),
}


# --- CLI call sequences ---------------------------------------------------


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    model: str | None = None
    reliability: str | None = None  # of the loss log the call writes or reads
    out: Path | None = None  # simulate: the loss log; report: the CSV
    logs: int = 0  # report: loss logs in the table

    @property
    def cmd(self) -> str:
        return self.argv[0]


def _gen(wl: Workload, seed: int, ds: Path) -> Call:
    return Call(("gen", "--profiles", str(wl.profiles), "--relations", str(wl.relations),
                 "--properties", str(wl.properties), *GEN_COMMON, "--seed", str(seed),
                 "--out", str(ds)))


def _log_calls(ds: Path, out: Path, model: str, reliability: str, seed: int) -> tuple[Path, list[Call]]:
    tag = "trained" if reliability == "trained" else "two-point"
    log = out / f"{model}-{tag}.jsonl"
    simulate = Call(("simulate", "--dataset", str(ds), "--model", model, "--reliability", reliability,
                     "--seed", str(seed), "--label", f"{model}-{tag}",
                     "--param-count", str(PARAM_COUNTS[reliability]), "--out", str(log)),
                    model, reliability, out=log)
    estimate = Call(("estimate", "--dataset", str(ds), "--losses", str(log), "--model", model),
                    model, reliability)
    return log, [simulate, estimate]


def _classify(ds: Path, log: Path, model: str) -> Call:
    return Call(("classify", "--dataset", str(ds), "--losses", str(log)), model)


def _validate(ds: Path, log: Path) -> Call:
    return Call(("validate", "--dataset", str(ds), "--losses", str(log)))


def _report(ds: Path, logs: list[Path], model: str, out: Path) -> Call:
    csv = out / f"capacity-{model}.csv"
    return Call(("report", "--dataset", str(ds), "--losses", *map(str, logs), "--model", model,
                 "--out-csv", str(csv), "--out-svg", str(csv.with_suffix(".svg"))),
                model, out=csv, logs=len(logs))


def timed_calls(wl: Workload, seed: int, ds: Path, out: Path) -> list[Call]:
    """The timed sequence; pipelines generate their dataset into ``ds`` first."""
    if not wl.sweep:
        (model,) = wl.models
        log, calls = _log_calls(ds, out, model, "trained", seed)
        return [_gen(wl, seed, ds), *calls, _classify(ds, log, model), _validate(ds, log),
                _report(ds, [log], model, out)]
    calls = []
    for model in wl.models:
        logs = []
        for reliability in ("trained", TWO_POINT):
            log, pair = _log_calls(ds, out, model, reliability, seed)
            logs.append(log)
            calls += pair
        calls += [_classify(ds, logs[0], model), _report(ds, logs, model, out)]
    return calls + [_validate(ds, logs[0])]


# --- running calls ----------------------------------------------------------


@dataclass
class Outcome:
    call: Call
    rc: int
    raw_wall_s: float
    rss_mb: float
    payload: dict | None
    spans: list | None
    scale: float = 1.0  # REF_S over the reference time measured around the call

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.scale


@dataclass
class Rep:
    outcomes: list[Outcome]
    bytes_written: int

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def raw_wall_s(self) -> float:
        return sum(o.raw_wall_s for o in self.outcomes)


class Runner:
    """Runs CLI calls one at a time, each with its own stdout/stderr files.

    Also owns the reference.py process, which times the reference kernel on
    request; close() ends it.
    """

    def __init__(self, io_dir: Path):
        io_dir.mkdir(parents=True)
        self.io_dir = io_dir
        self.count = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.refs: list[float] = []
        self.kernel = subprocess.Popen([sys.executable, str(REFERENCE)], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.kernel.stdin.close()
        self.kernel.wait()
        self.kernel.stdout.close()

    def reference(self) -> float:
        self.kernel.stdin.write("\n")
        self.kernel.stdin.flush()
        self.refs.append(float(self.kernel.stdout.readline()))
        return self.refs[-1]

    def call(self, call: Call, traced: bool = False) -> Outcome:
        self.count += 1
        stem = self.io_dir / f"{self.count:04d}-{call.cmd}"
        spans_path = stem.with_suffix(".spans.json")
        if traced:
            argv = [sys.executable, str(LAUNCHER), str(spans_path), *call.argv]
        else:
            argv = [sys.executable, "-m", "twohop.cli", *call.argv]
        with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                # the child's own rusage: RUSAGE_CHILDREN would be a running
                # maximum over every earlier command
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        try:
            payload = json.loads(stem.with_suffix(".out").read_text(encoding="utf-8"))
        except ValueError:
            payload = None
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if traced and spans_path.exists() else None
        if rc != 0:
            sys.stderr.write(f"{' '.join(call.argv)}: exit {rc}\n")
            sys.stderr.write(stem.with_suffix(".err").read_text(encoding="utf-8", errors="replace")[-2000:])
        return Outcome(call, rc, end - start, usage.ru_maxrss / 1024, payload, spans)

    def rep(self, calls: list[Call], out: Path, traced: bool = False) -> Rep:
        """Run ``calls`` in order, timing the reference kernel before the first and after each."""
        out.mkdir(parents=True)
        before = self.reference()
        outcomes = []
        for c in calls:
            outcomes.append(self.call(c, traced))
            after = self.reference()
            outcomes[-1].scale = 2 * REF_S / (before + after)
            before = after
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return Rep(outcomes, written)


# --- output checks ------------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed (CLI calls plus output checks), and what repeats must match."""

    wl: Workload
    seed: int
    attempted: int = 0
    failed: int = 0
    dataset_sha: str | None = None
    svg_sha: dict[str, str] = field(default_factory=dict)
    estimates: dict[tuple[str, str], list[float]] = field(default_factory=lambda: defaultdict(list))

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {what}\n")

    def check_outcomes(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.record(o.rc == 0, f"{' '.join(o.call.argv)} exited {o.rc}")
            check = getattr(self, f"_{o.call.cmd}", None)
            if check is None:
                continue
            what = f"{o.call.cmd} output"
            try:
                ok = bool(check(o))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                what, ok = f"{what}: {exc!r}", False
            self.record(ok, what)

    def _gen(self, o: Outcome) -> bool:
        counts_ok = sum(o.payload["counts"].values()) == self.wl.items
        sha = o.payload["dataset_sha256"]
        self.dataset_sha = self.dataset_sha or sha
        return counts_ok and sha == self.dataset_sha

    def _simulate(self, o: Outcome) -> bool:
        with open(o.call.out, "rb") as f:
            lines = sum(1 for _ in f)
        return lines == self.wl.items == o.payload["records"]

    def _estimate(self, o: Outcome) -> bool:
        content = float(o.payload["content_bits"])
        self.estimates[(o.call.model, o.call.reliability)].append(content)
        return True

    def _classify(self, o: Outcome) -> bool:
        return o.payload["inferred"] == o.call.model

    def _validate(self, o: Outcome) -> bool:
        coverage = o.payload["coverage"]
        return not o.payload["has_violations"] and coverage and all(v == 1.0 for v in coverage.values())

    def _report(self, o: Outcome) -> bool:
        rows = o.call.out.read_text(encoding="utf-8").count("\n") - 1
        sha = hashlib.sha256(o.call.out.with_suffix(".svg").read_bytes()).hexdigest()
        expected = self.svg_sha.setdefault(o.call.model, sha)
        return rows == o.call.logs == o.payload["points"] and sha == expected


def bound_excess(checks: Checks, ds: Path, runner: Runner) -> float:
    """Estimate overshoot above exact content, from ``truth.py`` in its own process."""
    request = {"dataset": str(ds), "seed": checks.seed,
               "estimates": [[m, r, c] for (m, r), c in checks.estimates.items()]}
    try:
        done = subprocess.run([sys.executable, str(TRUTH)], input=json.dumps(request), text=True,
                              capture_output=True, env=runner.env, cwd=ROOT, check=True,
                              timeout=max(1.0, runner.deadline - time.perf_counter()))
        excess = float(done.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        checks.record(False, f"ground truth: {exc!r}")
        return 0.0
    checks.record(True, "ground truth")
    return excess


# --- one run --------------------------------------------------------------------


def set_up(wl: Workload, seed: int, runner: Runner, checks: Checks, base: Path) -> tuple[Rep, Path]:
    """Fresh directory, an interpreter and import warm-up call and, for the sweep, the dataset."""
    ds = base / "dataset"
    calls = [Call(("--help",))] + ([_gen(wl, seed, ds)] if wl.sweep else [])
    setup = runner.rep(calls, base)
    checks.check_outcomes(setup.outcomes)
    return setup, ds


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path,
                 runner: Runner) -> tuple[dict, Checks]:
    wl = WORKLOADS[name]
    checks = Checks(wl, seed)

    setups = []
    for i in range(1 if trace else SETUP_REPEATS):
        setup, sweep_ds = set_up(wl, seed, runner, checks, run_dir / f"setup-{i}")
        setups.append(setup)

    reps: list[Rep] = []
    excess = None
    budget = seconds / 2 if trace else seconds  # leave half for the traced repetition
    while not reps or sum(r.raw_wall_s for r in reps) * (1 + 1 / len(reps)) <= budget:
        out = run_dir / f"rep-{len(reps)}"
        ds = sweep_ds if wl.sweep else out / "dataset"
        reps.append(runner.rep(timed_calls(wl, seed, ds, out), out))
        checks.check_outcomes(reps[-1].outcomes)
        if excess is None:
            excess = bound_excess(checks, ds, runner)
        shutil.rmtree(out)

    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "items_per_s": statistics.median(wl.items * wl.logs / r.wall_s for r in reps),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in r.outcomes) for r in reps),
        "bytes_written_mb": statistics.median(r.bytes_written / MB for r in reps),
        "setup_s": statistics.median(r.wall_s for r in setups),
        "raw.wall_s": statistics.median(r.raw_wall_s for r in reps),
        "raw.items_per_s": statistics.median(wl.items * wl.logs / r.raw_wall_s for r in reps),
        "raw.setup_s": statistics.median(r.raw_wall_s for r in setups),
    }
    if not trace:
        metrics["failed_frac"] = checks.failed / checks.attempted
        metrics["bound_excess_frac"] = excess
        metrics["machine.ref_s"] = statistics.median(runner.refs)
        return metrics, checks

    out = run_dir / "traced"
    traced = runner.rep(timed_calls(wl, seed, sweep_ds if wl.sweep else out / "dataset", out), out, traced=True)
    checks.check_outcomes(traced.outcomes)
    for o in traced.outcomes:
        checks.record(o.spans is not None, f"traced {o.call.cmd} wrote no spans")
    metrics.update(layer_metrics(reps, traced))
    metrics["trace.overhead_frac"] = traced.wall_s / metrics["wall_s"] - 1
    metrics["failed_frac"] = checks.failed / checks.attempted
    metrics["bound_excess_frac"] = excess
    metrics["machine.ref_s"] = statistics.median(runner.refs)
    return metrics, checks


def layer_metrics(reps: list[Rep], traced: Rep) -> dict:
    """Per-span totals from the traced repetition; per-command wall and RSS from the untraced ones."""
    spans = {n: {"self_s": 0.0, "calls": 0, "items": 0, "rss_growth_mb": 0.0} for n in SPAN_NAMES}
    file_bytes = defaultdict(int)
    scanned = matched = 0
    cli = {c: {"self_s": 0.0, "covered": 0.0, "traced_wall": 0.0} for c in COMMANDS}
    for o in traced.outcomes:
        recorded = o.spans or []
        child_s = defaultdict(float)
        for name, parent, duration, *_ in recorded:
            if parent is not None:
                child_s[parent] += duration
        for index, (name, parent, duration, rss, items, size, kept) in enumerate(recorded):
            if parent is None:
                continue
            s = spans[name]
            s["self_s"] += (duration - child_s[index]) * o.scale
            s["calls"] += 1
            s["items"] += items
            s["rss_growth_mb"] = max(s["rss_growth_mb"], rss)
            file_bytes[name] += size
            if name == "estimator.aggregate_losses":
                scanned += items
                matched += kept
        c = cli[o.call.cmd]
        c["self_s"] += (o.raw_wall_s - child_s[0]) * o.scale
        c["covered"] += child_s[0]
        c["traced_wall"] += o.raw_wall_s

    metrics = {f"{n}.{k}": v for n, s in spans.items() for k, v in s.items()}
    for name in ("worldgen.persist_dataset", "worldgen.load_dataset", "logs.write_loss_log", "logs.read_loss_log"):
        metrics[f"{name}.bytes"] = file_bytes[name]
    metrics["estimator.aggregate_losses.match_ratio"] = matched / scanned if scanned else 0.0
    for cmd, c in cli.items():
        metrics[f"cli.{cmd}.wall_s"] = statistics.median(
            sum(o.wall_s for o in r.outcomes if o.call.cmd == cmd) for r in reps)
        metrics[f"cli.{cmd}.peak_rss_mb"] = statistics.median(
            max((o.rss_mb for o in r.outcomes if o.call.cmd == cmd), default=0.0) for r in reps)
        metrics[f"cli.{cmd}.self_s"] = c["self_s"]
        metrics[f"cli.{cmd}.span_coverage"] = c["covered"] / c["traced_wall"] if c["traced_wall"] else 0.0
    return metrics


# --- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twohop" / "cli.py").is_file():
        print(f"error: no twohop sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run_dir = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
        try:
            with Runner(run_dir / "io") as runner:
                metrics, checks = run_workload(name, args.seed, args.seconds, bool(args.trace), run_dir, runner)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        for metric, value in metrics.items():
            print(f"{name:16s} {metric:52s} {value:16.6f} {units[metric]}")
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update(
            {f"{prefix}{m}": {"value": metrics[m], "unit": units[m]} for m in reported})
        result["attempted"] += checks.attempted
        result["failed"] += checks.failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
