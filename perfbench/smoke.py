"""Smoke test of the benchmark itself, on shrunken inputs.

    python3 perfbench/smoke.py

Checks, and exits non-zero on the first failure:

* the tracer puts back every attribute it replaced, compared against a
  snapshot of every propalg namespace taken before it was installed;
* for every workload, one untraced and one traced run print exactly the
  metrics BENCHMARK.json names, each with its unit, and no operation
  fails (error rate 0);
* the top-level spans of each traced repetition have self times that sum
  to no more than that repetition's verdict_s;
* layers.json maps every per-layer metric of BENCHMARK.json, and nothing
  else, and its operation groups name every operation of the workloads.
"""

from __future__ import annotations

import inspect
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402  (imports every propalg module the tracer wraps)
from run import SPANS_DIR  # noqa: E402

SEED = 7


class SmokeFailure(Exception):
    pass


def require(ok, message):
    if not ok:
        raise SmokeFailure(message)


def snapshot():
    """(owner, attribute) -> object, for every propalg namespace and class."""
    out = {}
    for mod in layertrace.package_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith(layertrace.PACKAGE):
                for attr, val in vars(obj).items():
                    out[(f"{mod.__name__}.{name}", attr)] = val
    return out


def check_restore():
    before = snapshot()
    with layertrace.Tracer("restore-check") as tracer:
        workloads.sp.space_homology(workloads.corpus.circle(3))
        workloads.corpus.circle_voltage(3)
        require(before != snapshot(), "the tracer replaced nothing")
    require(tracer.stats["simplicial_products.space_homology"][0] == 1,
            "a call through a wrapped name was not traced")
    require(tracer.stats["corpus.circle_voltage"][0] == 1, "corpus is not traced")
    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) is not after.get(k))
    require(not changed, f"attributes not restored: {changed[:10]}")
    require(not layertrace.leftover_wrappers(), "wrappers left in propalg namespaces")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result, spec):
    where = f"{workload} trace={trace}"
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
    require(result["attempted"] >= 1, f"{where}: nothing attempted")
    require(result["failed"] == 0 and result["correct"] is True,
            f"{where}: error rate {result['failed']}/{result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    require(got == wanted, f"{where}: metric names or units differ: "
            f"{sorted(set(got.items()) ^ set(wanted.items()))[:10]}")
    for name, v in result["metrics"].items():
        require(isinstance(v["value"], (int, float)), f"{where}: {name} is not a number")


def check_spans(workload):
    files = sorted(SPANS_DIR.glob(f"spans-{workload}-seed{SEED}-*.jsonl"))
    require(files, f"{workload}: the traced run wrote no spans")
    for path in files:
        with open(path) as fh:
            meta = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        child = {}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        top = [s for s in spans if s["parent"] is None and s["op"] != "setup"]
        require(top, f"{path.name}: no top-level verdict spans")
        self_sum = sum(s["end"] - s["start"] - child.get(s["id"], 0.0) for s in top)
        require(self_sum <= meta["verdict_s"],
                f"{path.name}: top-level self time {self_sum} > verdict_s {meta['verdict_s']}")


def check_layer_map(spec):
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [m for c in layers["claims"] for m in c["layer_metrics"]]
    named = [m["name"] for m in spec["per_layer"]]
    require(sorted(mapped) == sorted(named),
            f"layers.json and BENCHMARK.json differ: {sorted(set(mapped) ^ set(named))}")
    grouped = sorted(op for ops in layers["operation_groups"].values() for op in ops)
    ops = sorted(op.name for build in workloads.WORKLOADS.values()
                 for op in build(random.Random(SEED), True))
    require(grouped == ops, f"layers.json operation_groups differ from the workloads: "
            f"{sorted(set(grouped) ^ set(ops))}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
            "BENCHMARK.json and workloads.py list different workloads")
    check_layer_map(spec)
    check_restore()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, run(workload, trace), spec)
        check_spans(workload)
        print(f"ok {workload}")
    print("smoke test passed")


if __name__ == "__main__":
    try:
        main()
    except SmokeFailure as exc:
        print(f"smoke test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
