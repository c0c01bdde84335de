"""Layer shares from the span files of traced runs.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 1 --trace 1
    python3 perfbench/shares.py [--seed 1] [workload ...]

For each workload it reads ``.perfbench_out/spans-<workload>-seed<seed>-*.jsonl``
and prints, as JSON:

* ``module_self``: each module's span self time during the verdicts, as a
  share of the traced verdict_s; ``untraced`` is the rest (benchmark code
  and time between spans);
* ``op_inclusive``: for each operation, the functions whose outermost
  spans cover the largest share of that operation's time.
"""

from __future__ import annotations

import argparse
import json

from run import SPANS_DIR, SPEC

TOP = 5


def load(path):
    with open(path) as fh:
        meta = json.loads(fh.readline())
        return meta, [json.loads(line) for line in fh]


def shares(meta, spans):
    by_id = {s["id"]: s for s in spans}
    verdict = [s for s in spans if s["op"] != "setup"]
    child = {}
    for s in verdict:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    module = {}
    for s in verdict:
        mod = s["name"].split(".")[0]
        module[mod] = module.get(mod, 0.0) + s["end"] - s["start"] - child.get(s["id"], 0.0)
    total = meta["verdict_s"]
    module_self = {m: t / total for m, t in sorted(module.items(), key=lambda kv: -kv[1])}
    module_self["untraced"] = 1 - sum(module_self.values())

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return False
            p = by_id[p]["parent"]
        return True

    incl = {}
    for s in verdict:
        if outermost(s):
            key = (s["op"], s["name"])
            incl[key] = incl.get(key, 0.0) + s["end"] - s["start"]
    ops = {}
    for op, secs in meta["op_s"].items():
        rows = sorted(((n, t / secs) for (o, n), t in incl.items() if o == op), key=lambda r: -r[1])
        ops[op] = {"op_s": secs, "top": dict(rows[:TOP])}
    return {"verdict_s": total, "module_self": module_self, "op_inclusive": ops}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in json.loads(SPEC.read_text())["workloads"]])
    a = ap.parse_args(argv)
    out = {}
    for w in a.workloads:
        files = sorted(SPANS_DIR.glob(f"spans-{w}-seed{a.seed}-*.jsonl"))
        if not files:
            raise SystemExit(f"no span files for {w} seed {a.seed}; make a --trace 1 run first")
        out[w] = shares(*load(files[0]))
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
