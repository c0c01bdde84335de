"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py --workload trees --seed 1 [--trace]
        [--small] [--setup-only] [--spans FILE]

Builds the workload's inputs (timed as set-up), asks for each verdict in
turn from this single thread (a closed loop: the next request waits for
the previous answer), then checks every answer against its oracle outside
the timed region.  Prints one JSON object.  The process is fresh on
purpose: propalg keeps module-level caches (``_product_cache``,
``_char_cache``), and a second repetition in the same process would find
them warm.

Before the set-up, after each verdict and at the end it also times a
fixed pure-Python reference loop (``reference_work``) that never calls
propalg.  The host's speed drifts by up to 1.5x over tens of seconds;
run.py scales every time by the median reference time of the same
process, so the reported times follow propalg and not the host.

With ``--trace`` the outside-in tracer wraps propalg for the whole
repetition, set-up included, and the JSON carries its per-span totals and
counters; ``--spans`` also writes every span to FILE.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layertrace import Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


REFERENCE_SAMPLES = 5  # reference samples before the set-up and after the last verdict


def reference_work(n=40000):
    """A fixed amount of dict, tuple, integer and list work; no propalg."""
    table = {}
    acc = 1
    row = []
    for i in range(n):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        acc = (acc * 1000003 + i) % (1 << 61)
        row.append(acc >> 40)
        if len(row) == 64:
            row.sort()
            row = row[32:]
    return len(table), acc


def reference_sample():
    s = perf_counter()
    reference_work()
    return perf_counter() - s


def repetition(workload, seed, trace=False, small=False, setup_only=False, spans=None):
    rng = random.Random(seed)
    op_s, results = [], []
    reference_s = [reference_sample() for _ in range(REFERENCE_SAMPLES)]
    with Tracer(workload) if trace else nullcontext() as tracer:
        t0 = perf_counter()
        ops = WORKLOADS[workload](rng, small)
        setup_s = perf_counter() - t0
        for op in [] if setup_only else ops:
            if tracer:
                tracer.op = op.name
            s = perf_counter()
            try:
                results.append((op.run(), None))
            except Exception as exc:  # a verdict that raises is a failed operation
                results.append((None, f"raised {type(exc).__name__}: {exc}"))
            op_s.append(perf_counter() - s)
            reference_s.append(reference_sample())
    reference_s += [reference_sample() for _ in range(REFERENCE_SAMPLES)]
    # the verdicts run back to back; only the reference samples sit between them
    verdict_s = sum(op_s)
    failures = []
    for op, (result, error) in zip(ops, results):
        problem = error or op.check(result)
        if problem:
            failures.append(f"{op.name}: {problem}")
    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "op_s": op_s,
        "reference_s": median(reference_s),
        "attempted": len(results),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["leftover_wrappers"] = leftover_wrappers()
        out["stats"] = tracer.stats
        out["counts"] = tracer.counts
        if spans:
            tracer.write_spans(spans, {"seed": seed, "setup_s": setup_s, "verdict_s": verdict_s,
                                       "op_s": {op.name: t for op, t in zip(ops, op_s)}})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    a = ap.parse_args(argv)
    out = repetition(a.workload, a.seed, a.trace, a.small, a.setup_only, a.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
