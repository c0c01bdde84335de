"""The recorded benchmark pairs stay readable.

Each ``BENCH_*.json`` at the root of the repository records alternating
parent/change runs of ``perfbench/run.py``.  A later re-anchor reads them
to follow the end-to-end metrics from change to change, so every pair
must name its seed, the side that ran first, and both sides' values for
every end-to-end metric that ``BENCHMARK.json`` lists.  BENCHMARK.json
is only read here.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def pair_lists(doc, where="$"):
    """Every list stored under a key named "pairs", with where it sits."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key == "pairs" and isinstance(value, list):
                yield f"{where}.pairs", value
            else:
                yield from pair_lists(value, f"{where}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from pair_lists(value, f"{where}[{i}]")


def pair_problems(pair, metrics=END_TO_END):
    """What a recorded pair lacks; empty when it is complete."""
    if not isinstance(pair, dict):
        return ["not an object"]
    out = []
    if not isinstance(pair.get("seed"), int):
        out.append("no integer seed")
    if pair.get("first") not in ("parent", "change"):
        out.append("`first` is neither 'parent' nor 'change'")
    for side in ("parent", "change"):
        values = pair.get(side)
        if not isinstance(values, dict):
            out.append(f"no {side} side")
            continue
        for m in metrics:
            if not isinstance(values.get(m), Real) or isinstance(values.get(m), bool):
                out.append(f"{side} has no value for {m}")
    return out


def test_there_is_a_pair_table():
    assert BENCH_FILES
    assert END_TO_END


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_pair_is_complete(path):
    doc = json.loads(path.read_text())
    found = list(pair_lists(doc))
    assert found, f"{path.name} records no pairs"
    for where, pairs in found:
        assert pairs, f"{path.name}: {where} is empty"
        for i, pair in enumerate(pairs):
            assert pair_problems(pair) == [], f"{path.name}: {where}[{i}]"


def test_the_check_sees_an_incomplete_pair():
    complete = {"seed": 1, "first": "parent",
                "parent": {m: 1.0 for m in END_TO_END},
                "change": {m: 1.0 for m in END_TO_END}}
    assert pair_problems(complete) == []
    assert pair_problems(dict(complete, first="both")) != []
    assert pair_problems({k: v for k, v in complete.items() if k != "seed"}) != []
    missing = dict(complete, change={m: 1.0 for m in END_TO_END[1:]})
    assert pair_problems(missing) == [f"change has no value for {END_TO_END[0]}"]
    doc = {"workloads": {"w": {"pairs": [complete]}}, "earlier_runs": {"pairs": [missing]}}
    assert [w for w, _ in pair_lists(doc)] == ["$.workloads.w.pairs", "$.earlier_runs.pairs"]
