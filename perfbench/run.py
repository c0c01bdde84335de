"""The propalg verdict benchmark.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 58 --trace 0

Run from the root of a source checkout.  Every repetition is a fresh
``perfbench/worker.py`` process started one after another (a closed loop
with one single-threaded client), so propalg's module-level caches start
cold each time.  Repetition i of a run gets its own seed, seed * 1000 + i,
which draws its inputs (the trees partition) and its PYTHONHASHSEED, and
so its set iteration order.  A run's medians then cover many inputs, not
one draw, and the same seed always gives the same sequence of inputs.
The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, each a median over the run:

* ``setup_s``: building the workload's inputs; over SETUP_SAMPLES
  set-up-only processes and every full repetition;
* ``verdict_s``: first request to last verdict, over the repetitions;
* ``slowest_verdict_s``: the longest single operation of a repetition;
* ``peak_rss_mb``: peak resident memory of the repetition's process (the
  higher middle value, ``median_high``).

The three times are reference-host seconds.  The host this runs on is
shared, and its speed drifts by up to 1.5x over tens of seconds, which no
statistic over one run can take out.  So every worker process also times
a fixed pure-Python loop (worker.reference_work) before, between and after
the verdicts, and run.py scales the process's times by REFERENCE_S over
the median of those loop times: the time the same work would take on a
host where the loop takes REFERENCE_S.  Raw wall-clock medians and the
host's measured speed go to standard error.  Per-layer times (``--trace
1``) are raw wall-clock seconds.

An operation that raises or gives a wrong answer counts in ``failed``;
``failed / attempted`` is the error rate.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see layertrace.py) together with
``trace.overhead_ratio``, traced over untraced ``verdict_s``.  Every
traced repetition also writes its spans to ``.perfbench_out/``.

The metrics printed, and their units, are the ones BENCHMARK.json names.
Without the propalg sources next to it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, median_high
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5     # set-up-only processes per run, besides the full repetitions
MIN_REPS = 3          # full repetitions per run, even past --seconds
DEADLINE_S = 170      # the whole run, children included, ends before this
REFERENCE_S = 0.025   # worker.reference_work on the reference host


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker(args, seed, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(seed)] + args
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran past the run's deadline: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(rep, seconds):
    """A time measured in repetition ``rep``, in reference-host seconds."""
    return seconds * REFERENCE_S / rep["reference_s"]


def end_to_end(rep, seconds):
    setups, reps = [], []
    start = perf_counter()
    for _ in range(SETUP_SAMPLES):
        setups.append(rep("--setup-only"))
    last = 0.0
    while len(reps) < MIN_REPS or perf_counter() - start + last <= seconds:
        t = perf_counter()
        reps.append(rep())
        last = perf_counter() - t
    setups += reps
    metrics = {
        "setup_s": median(scaled(r, r["setup_s"]) for r in setups),
        "verdict_s": median(scaled(r, r["verdict_s"]) for r in reps),
        "slowest_verdict_s": median(scaled(r, max(r["op_s"])) for r in reps),
        # resident sizes take a few discrete values; a middle repetition's own
        # value, not the mean of two, keeps the median on one of them
        "peak_rss_mb": median_high(r["peak_rss_mb"] for r in reps),
    }
    print(f"{len(reps)} repetitions; wall-clock medians: "
          f"setup {median(r['setup_s'] for r in setups):.4f} s, "
          f"verdicts {median(r['verdict_s'] for r in reps):.4f} s, "
          f"slowest {median(max(r['op_s']) for r in reps):.4f} s; "
          f"host speed {REFERENCE_S / median(r['reference_s'] for r in setups):.3f}x "
          f"the reference host", file=sys.stderr)
    return reps, metrics


def layer_metrics(traced):
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name."""
    out = {}
    for name, (calls, self_s, incl_s) in traced["stats"].items():
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    solve = traced["stats"]["coefficients.snf_solver.solve"]
    out["coefficients.snf_solver.solves"] = solve[0]
    out["coefficients.snf_solver.solve_s"] = solve[2]
    out.update(traced["counts"])
    solves = out.pop("chains.find_contraction.solves")
    hits = out.pop("chains.find_contraction.solve_hits")
    out["chains.find_contraction.solve_hit_ratio"] = hits / solves if solves else 0.0
    return out


def per_layer(rep, seconds, spans_prefix):
    plain, traced = [], []
    start = perf_counter()
    last = 0.0
    while not traced or perf_counter() - start + last <= seconds:
        t = perf_counter()
        plain.append(rep())
        spans = f"{spans_prefix}-{len(traced)}.jsonl"
        traced.append(rep("--trace", "--spans", spans))
        last = perf_counter() - t
    leftover = sorted({w for r in traced for w in r["leftover_wrappers"]})
    if leftover:
        raise BenchError(f"the tracer left wrappers behind: {leftover}")
    layers = [layer_metrics(r) for r in traced]
    metrics = {k: median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_ratio"] = (median(scaled(r, r["verdict_s"]) for r in traced)
                                       / median(scaled(r, r["verdict_s"]) for r in plain))
    return plain + traced, metrics


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="shrunken inputs, for the benchmark's smoke test")
    a = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "propalg" / "__init__.py").is_file():
        print(f"no propalg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    base = ["--workload", a.workload] + (["--small"] if a.small else [])
    started = 0

    def rep(*extra):
        nonlocal started
        started += 1
        return worker(base + list(extra), a.seed * 1000 + started, deadline)

    try:
        if a.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            prefix = SPANS_DIR / f"spans-{a.workload}-seed{a.seed}"
            for old in SPANS_DIR.glob(prefix.name + "-*.jsonl"):
                old.unlink()
            reps, metrics = per_layer(rep, a.seconds, prefix)
        else:
            reps, metrics = end_to_end(rep, a.seconds)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in reps for f in r["failures"]]
    for f in failures:
        print(f"wrong verdict: {f}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
