"""Reports and homology presentations compared byte for byte with golden JSON.

Each case below renders one public result as JSON; the file of the same
name under tests/golden/ holds the text it rendered when it was recorded.
Duality reports are stored through their to_json; homology through the
FgAbelian presentations themselves, so a change of generators or
relations shows up even when the invariants agree.  Cohomology is only
compared by its invariants degree by degree, because its presentation
is free to change.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from propalg import endtowers as et
from propalg.coefficients import GroupSpec
from propalg.corpus import (
    SPACES,
    circle,
    circle_voltage,
    cylinder_complex,
    end_fundamental_cycle,
    sphere2,
    torus7,
)
from propalg.duality_verifier import (
    alternate_diagonal_agrees,
    browder_check,
    fundamental_class,
    gluing_check,
    poincare_check,
    surgery_kernel_check,
)
from propalg.simplicial_products import (
    _closure,
    augmentation_cocycle,
    cocycle_class,
    cycle_class,
    space_cohomology,
    space_homology,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _plain(obj):
    """JSON-ready copy: objects with to_json are rendered, tuples become lists."""
    if hasattr(obj, "to_json"):
        return _plain(obj.to_json())
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def render(obj) -> str:
    return json.dumps(_plain(obj)) + "\n"


def _families(X):
    return (False, True) if X.character else (False,)


def _homology_cases():
    out = {}
    for name, make in SPACES.items():
        X = make()
        for tw in _families(X):
            for rel in ((False, True) if X.sub else (False,)):
                key = f"homology-{name}{'-twisted' if tw else ''}{'-rel' if rel else ''}"
                out[key] = (lambda X=X, tw=tw, rel=rel: space_homology(X, twisted=tw, rel=rel))
                ckey = "co" + key
                out[ckey] = (lambda X=X, tw=tw, rel=rel: {
                    k: list(g.invariants())
                    for k, g in sorted(space_cohomology(X, twisted=tw, rel=rel).items())})
    return out


def _duality_cases():
    out = {}
    for name, make in SPACES.items():
        X = make()
        for tw in _families(X):
            if fundamental_class(X, twisted=tw) is None:
                continue
            tag = f"{name}{'-twisted' if tw else ''}"

            def poincare(X=X, tw=tw):
                return poincare_check(X, fundamental_class(X, twisted=tw))

            def alternate(X=X, tw=tw):
                return alternate_diagonal_agrees(X, fundamental_class(X, twisted=tw))

            out[f"poincare-{tag}"] = poincare
            out[f"alternate-{tag}"] = alternate
    for name in ("disk-pair", "annulus", "moebius-twisted"):
        def browder(name=name):
            X = SPACES[name]()
            return browder_check(X, fundamental_class(X, twisted=bool(X.character)))
        out[f"browder-{name}"] = browder
    return out


def _gluing_sphere():
    S = sphere2()
    left = _closure([(0, 1, 2), (0, 1, 3)])
    right = _closure([(0, 2, 3), (1, 2, 3)])
    return gluing_check(S, left, right, fundamental_class(S))


def _torus_twice():
    T = torus7()
    return poincare_check(T, fundamental_class(T).scale(2))


def _surgery_identity():
    T = torus7()
    return surgery_kernel_check(T, T, list(range(T.n)))


def _surgery_collapse():
    return surgery_kernel_check(torus7(), sphere2(), (0, 0, 0, 1, 0, 2, 3))


def _torsion_circle():
    X = circle(4)
    return poincare_check(X, fundamental_class(X), GroupSpec("cyclic", 5), circle_voltage(4))


def _classes_torus():
    T = torus7()
    G, c = cycle_class(fundamental_class(T))
    H, d = cocycle_class(augmentation_cocycle(T))
    return {"cycle": [G, c], "cocycle": [H, d]}


def _end_tower(k):
    return lambda: et.end_tower(cylinder_complex(), k, 4)


def _truncated_cylinder():
    x = cylinder_complex()
    ends = [end_fundamental_cycle(x, e) for e in range(len(x.ends))]
    return et.truncated_duality_at_infinity(x, ends, 4)


CASES = {
    **_homology_cases(),
    **_duality_cases(),
    "gluing-sphere": _gluing_sphere,
    "poincare-torus7-twice": _torus_twice,
    "surgery-torus7-identity": _surgery_identity,
    "surgery-torus7-collapse": _surgery_collapse,
    "torsion-circle4-c5": _torsion_circle,
    "classes-torus7": _classes_torus,
    "end-tower-cylinder-0": _end_tower(0),
    "end-tower-cylinder-1": _end_tower(1),
    "truncated-duality-cylinder": _truncated_cylinder,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    path = GOLDEN / f"{name}.json"
    assert path.exists(), f"no golden file for {name}; record it with --write"
    assert render(CASES[name]()) == path.read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(render(make()))
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
