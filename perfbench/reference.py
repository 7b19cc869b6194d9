"""Reference kernel that tracks the machine's speed.

Usage: python perfbench/reference.py

For each line read on stdin, prints the best of two timings of ``kernel``
in seconds. The kernel does what the twohop CLI spends its time on (JSON
records encoded and decoded, a scattered walk over a large heap) but runs no
twohop code, so a change to twohop leaves its time alone while a change in
the machine's speed moves it. It runs as its own process because a child's
``ru_maxrss`` starts at its parent's high-water mark: the kernel's heap in
the benchmark process would show up in every command's peak RSS.
"""

from __future__ import annotations

import json
import sys
import time


def kernel() -> int:
    records = [{"qid": f"2h:{i}:boss:employer", "split": "train", "kind": "two_hop",
                "logprob_nats": -i * 1e-3} for i in range(2000)]
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    decoded = [json.loads(line) for line in text.splitlines()]
    n = 100_000
    heap = [[i, str(i)] for i in range(n)]
    return len(decoded) + sum(heap[i * 7919 % n][0] for i in range(0, n, 3))


def reference_s() -> float:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_s(), flush=True)
