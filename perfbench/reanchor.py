"""One-off timings of the ROADMAP re-anchor baselines too long for a run.

    python3 perfbench/reanchor.py

Each baseline runs once, in a fresh process, and its answer is checked.
The timings, with each one's ratio to the ROADMAP figure and the machine
they were taken on, go to ``perfbench/reanchor.json``.
``homology_Z(barycentric(barycentric(torus7)))`` is left out: the
ROADMAP stopped it after ten minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "reanchor.json"
TIMEOUT_S = 600

# name -> ROADMAP seconds
BASELINES = {
    "homology torus7 x circle(3)": 17.0,
    "duality_torsion torus_grid(3) over Z[t,1/t]": 21.0,
}


def measure(name):
    sys.path.insert(0, str(ROOT / "src"))
    from propalg import corpus, duality_verifier as dv, simplicial_products as sp
    from propalg.coefficients import GroupSpec
    from workloads import _groups, _trivial_torsion

    if name == "homology torus7 x circle(3)":
        K = sp.product_space(corpus.torus7(), corpus.circle(3))
        run = lambda: sp.space_homology(K)  # noqa: E731
        check = _groups({0: (1, ()), 1: (3, ()), 2: (3, ()), 3: (1, ())})
    else:
        T = corpus.torus_grid(3)
        z, volt = dv.fundamental_class(T), corpus.torus_voltage(3)
        run = lambda: dv.duality_torsion(T, z, GroupSpec("infinite-cyclic"), volt)  # noqa: E731
        check = _trivial_torsion(2)
    t0 = perf_counter()
    result = run()
    seconds = perf_counter() - t0
    return {"seconds": seconds, "problem": check(result)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", choices=sorted(BASELINES), help="measure one baseline in this process")
    a = ap.parse_args(argv)
    if a.one:
        print(json.dumps(measure(a.one)))
        return
    out = {"machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                       "python": platform.python_version()},
           "baselines": {}}
    for name, roadmap_s in BASELINES.items():
        proc = subprocess.run([sys.executable, __file__, "--one", name], cwd=ROOT,
                              capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        m = json.loads(proc.stdout.strip().splitlines()[-1])
        out["baselines"][name] = {"seconds": m["seconds"], "roadmap_s": roadmap_s,
                                  "ratio_to_roadmap": m["seconds"] / roadmap_s,
                                  "correct": m["problem"] is None, "problem": m["problem"]}
        print(name, json.dumps(out["baselines"][name]))
    OUT.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
