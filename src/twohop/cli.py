"""Command-line entry points: gen, entropy, simulate, estimate, classify, report, validate.

Every subcommand prints its result as JSON on stdout. Exit status is 0 on
success, 1 on a validation or data failure, 2 on a usage error. A command
imports the modules it uses when it runs, so that each pays only for its own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

from . import entropy as entropy_mod
from . import worldgen
from .entropy import ModelKind

# --model's values for entropy, estimate and report: one-hop is the task without a model kind
MODELS = {"one-hop": None, **{kind.value: kind for kind in ModelKind}}
RELIABILITY_FORMS = "trained | chance | VALUE | budget:BITS | two-point:LO,HI,FRAC"


def _relation_names(count: int) -> tuple[str, ...]:
    names = list(worldgen.DEFAULT_RELATIONS[:count])
    names += [f"relation_{i}" for i in range(len(names), count)]
    return tuple(names)


def _property_specs(count: int) -> tuple[tuple[str, int], ...]:
    props = list(worldgen.DEFAULT_PROPERTIES[:count])
    props += [(f"property_{i}", 1000) for i in range(len(props), count)]
    return tuple(props)


def _read_log(dataset_sha: str, losses: Path, replay) -> tuple[dict, dict]:
    """A loss log's run manifest ({} when there is none) and its SUMMARY_GROUPS aggregates.

    The run manifest is a JSON object, read once; one that records another
    dataset's manifest sha256 in ``dataset_manifest_sha256`` is refused. The
    aggregates are its ``summary``'s when it records this dataset's sha256
    and the summary records the log's. Otherwise ``logs.require_complete``
    must find the log complete against the dataset's ``replay()`` (its split
    set and world), and they are ``logs.fold_log``'s; a chain-of-thought
    dataset's log is refused, as no estimator reads its losses yet.
    """
    from . import estimator, logs
    path = losses.with_suffix(".json")
    try:
        with open(path, encoding="utf-8") as f:
            run_meta = json.load(f)
    except (FileNotFoundError, NotADirectoryError):  # no run manifest
        run_meta = {}
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise worldgen.DatasetIOError(f"cannot read run manifest {path}: {exc}") from exc
    if not isinstance(run_meta, dict):
        raise worldgen.DatasetIOError(f"run manifest {path} is not a JSON object")
    bound = "dataset_manifest_sha256" in run_meta
    if bound and run_meta["dataset_manifest_sha256"] != dataset_sha:
        raise worldgen.DatasetIOError(
            f"loss log was produced against a different dataset "
            f"(manifest sha256 {run_meta['dataset_manifest_sha256']} != {dataset_sha})"
        )
    if "summary" in run_meta:
        log_sha, groups = logs.summary_from_json(run_meta["summary"], f"run manifest {path}")
        if bound and log_sha == worldgen.sha256_file(losses):
            return run_meta, groups
    split_set, world = replay()
    if split_set.params["cot"]:
        raise estimator.EstimatorError(f"{losses}: chain-of-thought (two_hop_cot) logs "
                                       f"have no estimator yet")
    logs.require_complete(losses, split_set)
    return run_meta, logs.results(logs.fold_log(losses, world))


def _point_meta(losses: Path, run_meta: dict) -> tuple[str, int]:
    """A report point's label and parameter count, from the log's run manifest.

    ``label`` must be a string or absent (the log's stem then, as for an
    empty one); ``param_count`` a positive integer that a float holds.
    """
    label, params = run_meta.get("label"), run_meta.get("param_count")
    where = f"run manifest {losses.with_suffix('.json')}"
    if "label" in run_meta and type(label) is not str:
        raise worldgen.DatasetIOError(f"{where}: label must be a string, got {label!r}")
    if not _param_count_ok(params):
        raise worldgen.DatasetIOError(
            f"{where}: param_count must be an integer > 0 that a float holds"
        )
    return label or losses.stem, params


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# --- subcommand implementations ------------------------------------------


def _cmd_gen(args) -> int:
    config = worldgen.WorldConfig(
        n_profiles=args.profiles,
        first_names=args.name_pools[0],
        middle_names=args.name_pools[1],
        last_names=args.name_pools[2],
        relations=_relation_names(args.relations),
        properties=_property_specs(args.properties),
        seed=args.seed,
    )
    world = worldgen.generate_world(config)
    fractions = {kind: args.holdout_frac for kind in worldgen.HOLDOUT_KINDS}
    split_set = worldgen.build_splits(
        world,
        fractions,
        mix_ratio=args.mix_ratio,
        seed=args.seed,
        cot=(args.cot == "answers"),
    )
    worldgen.persist_dataset(split_set, world, Path(args.out))
    # the manifest file holds the text _emit would print: print it, not a second encoding
    sys.stdout.write((Path(args.out) / "manifest.json").read_text(encoding="utf-8"))
    return 0


def _read_config(path: str) -> worldgen.WorldConfig:
    """The config in a JSON file; any fault raises ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("must be a JSON object")
        return worldgen.WorldConfig.from_dict(data)
    except (OSError, ValueError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
        raise worldgen.ConfigError(f"config {path}: {exc}") from None


def _cmd_entropy(args) -> int:
    config, kind = _read_config(args.config), MODELS[args.model]
    payload = entropy_mod.dataset_entropy(config, kind).to_dict()
    payload["baseline_bits"] = entropy_mod.baseline_content(config, kind)
    _emit(payload)
    return 0


def _parse_reliability(spec: str, world, split_set, kind: ModelKind, seed: int):
    """The reliability profile that ``spec``, one of RELIABILITY_FORMS, names."""
    from . import simulate
    if spec == "trained":
        return simulate.ReliabilityProfile.trained(world, split_set, kind)
    config = world.config
    if spec == "chance":
        return simulate.ReliabilityProfile.homogeneous(config, kind, None)
    if spec.startswith("two-point:"):
        try:
            p_low, p_high, frac_high = (float(x) for x in spec.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"reliability {spec!r} must be two-point:LO,HI,FRAC") from None
        return simulate.ReliabilityProfile.two_point(config, kind, p_low, p_high, frac_high, seed)
    try:
        value = float(spec.removeprefix("budget:"))
    except ValueError:
        raise ValueError(f"reliability {spec!r} must be {RELIABILITY_FORMS}") from None
    if spec.startswith("budget:"):
        return simulate.allocate_budget(kind, value, config)
    return simulate.ReliabilityProfile.homogeneous(config, kind, value)


# The files of a dataset directory, which no command's output may overwrite
DATASET_FILES = ("manifest.json", "profiles.jsonl", "qa.jsonl")


def _identities(path: Path) -> tuple:
    """The names of the file at ``path``: its resolved path and, if it exists, its inode.

    An inode is ``(st_dev, st_ino)``. Two paths that share a name are one
    file: the same path after ``..`` and symbolic links, or hard links.
    """
    try:
        stat = path.stat()
    except OSError:  # no file there (yet)
        return (path.resolve(),)
    return path.resolve(), (stat.st_dev, stat.st_ino)


def _check_outputs(outputs: dict[str, Path], dataset_dir: Path, losses: list[Path]) -> None:
    """Refuse an output path (by its name) that would overwrite an input or an earlier output.

    The inputs are the dataset's files, each loss log and each log's run
    manifest; paths are compared by ``_identities``.
    """
    named = [(dataset_dir / name, f"the dataset's {name}") for name in DATASET_FILES]
    for log in losses:
        named.append((log, f"the loss log {log}"))
        named.append((log.with_suffix(".json"), f"the run manifest of {log}"))
    taken = {identity: what for path, what in named for identity in _identities(path)}
    for option, out in outputs.items():
        identities = _identities(out)
        for identity in identities:
            if identity in taken:
                raise ValueError(f"{option} {out} would overwrite {taken[identity]}")
        taken.update(dict.fromkeys(identities, f"the {option} output"))


def _cmd_simulate(args) -> int:
    from . import logs, simulate
    dataset_dir, out = Path(args.dataset), Path(args.out)
    run_meta_path = out.with_suffix(".json")
    # an --out ending in .json is its own run manifest, and is refused as such
    _check_outputs({"--out": out, "--out's run manifest": run_meta_path}, dataset_dir, [])
    # the log is bound to the sha256 of the manifest bytes that were verified
    manifest, dataset_sha = worldgen.load_manifest(dataset_dir)
    # the data files are checked as the log is written; a fault leaves no run manifest
    with worldgen.checked_dataset(dataset_dir, manifest) as (split_set, world):
        kind = ModelKind(args.model)
        profile = _parse_reliability(args.reliability, world, split_set, kind, args.seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        # a run manifest describes a complete log: an interrupted run leaves none
        run_meta_path.unlink(missing_ok=True)
        log_sha256, groups = simulate.write_log(world, profile, split_set, out)
        run_meta = {
            "label": args.label,
            "param_count": args.param_count,
            "model_kind": kind.value,
            "reliability": args.reliability,
            "dataset_manifest_sha256": dataset_sha,
        }
        if groups is not None:
            run_meta["summary"] = logs.summary_to_json(groups, log_sha256)
    with open(run_meta_path, "w", encoding="utf-8") as f:
        json.dump(run_meta, f, indent=2, sort_keys=True)
        f.write("\n")
    _emit({"records": sum(split_set.counts().values()), "out": str(out)})
    return 0


def _group(groups: dict, name: str, losses: Path) -> estimator.AggregateLoss:
    """The aggregate of group ``name``; an empty group raises EstimatorError naming the log."""
    from . import estimator
    if not groups[name].count:
        raise estimator.EstimatorError(f"{losses}: no records in group {name}")
    return groups[name]


def _estimate_for(config, groups: dict, kind: ModelKind | None, losses: Path):
    """The content estimate under ``kind``, and the aggregate of the task's questions."""
    from . import estimator
    task = _group(groups, "one_hop" if kind is None else "two_hop", losses)
    reads = _group(groups, entropy_mod.SPECS[kind].reads, losses)
    return estimator.content_estimate(config, kind, reads, groups["hop1"]), task


def _cmd_estimate(args) -> int:
    dataset_dir, losses = Path(args.dataset), Path(args.losses)
    manifest, dataset_sha = worldgen.load_manifest(dataset_dir)
    _, groups = _read_log(dataset_sha, losses, partial(worldgen.replay_dataset, dataset_dir, manifest))
    config, kind = worldgen.WorldConfig.from_dict(manifest["config"]), MODELS[args.model]
    est, agg = _estimate_for(config, groups, kind, losses)
    payload = est.to_dict()
    payload["baseline_bits"] = entropy_mod.baseline_content(config, kind)
    payload["mean_loss_bits"] = agg.mean_loss_bits
    payload["question_count"] = agg.count
    _emit(payload)
    return 0


def _cmd_classify(args) -> int:
    from . import generalization
    dataset_dir, losses = Path(args.dataset), Path(args.losses)
    manifest, dataset_sha = worldgen.load_manifest(dataset_dir)
    # one replay, for the fold (if any) and the baselines
    replay = cache(partial(worldgen.replay_dataset, dataset_dir, manifest))
    _, groups = _read_log(dataset_sha, losses, replay)
    split_set, world = replay()
    baselines = generalization.uniform_baselines(split_set, world.config)
    empty = [kind for kind in worldgen.HOLDOUT_KINDS if kind not in baselines]
    if empty:
        # an empty split has no delta: without heldout_full, 2f and independent sign alike
        raise generalization.EvaluationError(
            f"dataset {dataset_dir} has empty holdout splits {empty}; "
            f"classify needs questions in every holdout split"
        )
    aggregates = {kind: _group(groups, f"two_hop/{kind}", losses) for kind in baselines}
    signature = generalization.evaluate_holdouts(aggregates, baselines)
    kind = generalization.classify_algorithm(signature)
    _emit({**signature.to_dict(), "inferred": kind.value if kind else "inconsistent"})
    return 0


def _cmd_validate(args) -> int:
    from . import logs
    diag = logs.validate_loss_log(Path(args.losses), Path(args.dataset))
    _emit(diag.to_dict())
    return 1 if diag.has_violations else 0


def _cmd_report(args) -> int:
    from . import estimator, report
    outputs = {"--out-csv": Path(args.out_csv)}
    if args.out_svg:
        outputs["--out-svg"] = Path(args.out_svg)
    _check_outputs(outputs, Path(args.dataset), list(map(Path, args.losses)))
    manifest, dataset_sha = worldgen.load_manifest(Path(args.dataset))
    config, kind = worldgen.WorldConfig.from_dict(manifest["config"]), MODELS[args.model]
    baseline = entropy_mod.baseline_content(config, kind)
    # one replay, for every log that is folded
    replay, points = cache(partial(worldgen.replay_dataset, Path(args.dataset), manifest)), []
    for losses in map(Path, args.losses):
        run_meta, groups = _read_log(dataset_sha, losses, replay)
        est, _ = _estimate_for(config, groups, kind, losses)
        label, params = _point_meta(losses, run_meta)
        points.append(
            report.CapacityPoint(
                label=label,
                param_count=params,
                model_kind=args.model,
                task=entropy_mod.task_name(kind),
                entropy_bits=est.entropy_bits,
                total_loss_bits=est.total_loss_bits,
                content_bits=est.content_bits,
                bits_per_param=estimator.bits_per_parameter(est.content_bits, params),
                baseline_bits=baseline,
            )
        )
    csv_text = report.capacity_table(points)
    Path(args.out_csv).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out_csv).write_text(csv_text, encoding="utf-8")
    outputs = {"csv": str(args.out_csv)}
    if args.out_svg:
        svg = report.scaling_plot(csv_text, capacity_slopes=tuple(args.slope or [2.0]))
        Path(args.out_svg).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out_svg).write_text(svg, encoding="utf-8")
        outputs["svg"] = str(args.out_svg)
    _emit({"points": len(points), "outputs": outputs})
    return 0


# --- parser ---------------------------------------------------------------


def _param_count_ok(value) -> bool:
    """Whether ``value`` is a parameter count: an integer > 0 that a float holds."""
    # type(), not isinstance(): a JSON true must not pass as the integer 1
    return type(value) is int and 0 < value <= sys.float_info.max


def _option(parse, ok, rule: str):
    """An argparse type: ``parse(text)`` if ``ok`` holds for it; else ``{rule}, got {text!r}``."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return convert


_count = _option(int, lambda value: value >= 0, "count must be an integer >= 0")
_param_count = _option(int, _param_count_ok, "param count must be an integer > 0")
_slope = _option(float, lambda value: 0.0 < value < math.inf, "slope must be a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twohop",
        description="Two-hop QA dataset generation, entropy accounting, and "
        "information-content estimation from loss logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a world and its train/holdout dataset")
    p.add_argument("--profiles", type=int, required=True)
    p.add_argument("--relations", type=_count, default=len(worldgen.DEFAULT_RELATIONS))
    p.add_argument("--properties", type=_count, default=len(worldgen.DEFAULT_PROPERTIES))
    p.add_argument("--name-pools", type=int, nargs=3, default=list(worldgen.DEFAULT_NAME_POOLS),
                   metavar=("FIRST", "MIDDLE", "LAST"))
    p.add_argument("--mix-ratio", type=int, default=10,
                   help="two-hop questions per one-hop question in the train stream")
    p.add_argument("--holdout-frac", type=float, default=0.01)
    p.add_argument("--cot", choices=("none", "answers"), default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("entropy", help="closed-form dataset entropy for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=MODELS, required=True)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("simulate", help="produce a loss log from an exact model simulator")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=[kind.value for kind in ModelKind], required=True)
    p.add_argument("--reliability", default="trained", help=RELIABILITY_FORMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default="run")
    p.add_argument("--param-count", type=_param_count, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="information-content lower bound from a loss log")
    p.add_argument("--dataset", required=True)
    p.add_argument("--losses", required=True)
    p.add_argument("--model", choices=MODELS, required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("classify", help="holdout generalization signature and algorithm")
    p.add_argument("--dataset", required=True)
    p.add_argument("--losses", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("validate", help="check a loss log against its dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--losses", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="capacity table (CSV) and scaling plot (SVG)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--losses", nargs="+", required=True)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--slope", type=_slope, action="append", default=None,
                   help="capacity reference slope(s); default 2.0, repeatable "
                   "(e.g. add 1.6 for the observed line)")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ConfigError, EstimatorError and EvaluationError are ValueErrors: the
    # tuple names no class of a module that the command may not have loaded
    except (worldgen.DatasetIOError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
