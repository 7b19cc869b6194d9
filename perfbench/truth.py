"""Largest overshoot of content estimates above the simulators' exact content.

Usage (with ``src/`` on ``PYTHONPATH``):

    echo '{"dataset": DIR, "seed": N, "estimates": [[MODEL, RELIABILITY, [BITS, ...]], ...]}' \\
        | python perfbench/truth.py

For each loss log, the same reliability profile ``twohop simulate`` built is
rebuilt here and ``simulate.ground_truth_content`` gives the exact content.
Prints ``max(0, (estimate - truth) / truth)`` over all estimates. It runs in
its own process because a child's ``ru_maxrss`` starts at its parent's: the
benchmark process stays small, so the commands it measures report their own
peak.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from twohop import simulate, worldgen
from twohop.entropy import ModelKind


def bound_excess(dataset: Path, seed: int, estimates: list) -> float:
    split_set, world = worldgen.load_dataset(dataset)
    excess = 0.0
    for model, reliability, contents in estimates:
        kind = ModelKind(model)
        if reliability == "trained":
            profile = simulate.ReliabilityProfile.trained(world, split_set, kind)
        else:
            p_low, p_high, frac_high = (float(x) for x in reliability.split(":", 1)[1].split(","))
            profile = simulate.ReliabilityProfile.two_point(
                world.config, kind, p_low, p_high, frac_high, seed)
        truth = simulate.ground_truth_content(world, profile)
        excess = max([excess] + [(c - truth) / truth for c in contents])
    return excess


if __name__ == "__main__":
    request = json.load(sys.stdin)
    print(bound_excess(Path(request["dataset"]), request["seed"], request["estimates"]))
