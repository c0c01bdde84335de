"""The one report type: its attribute reads, its JSON rules, and its reach.

Every public check of the package returns a Report, and its to_json must
be plain JSON.  The sweep at the end runs each check once, on inputs that
give PASS, FAIL and UNKNOWN between them, so a check that goes back to a
report shape of its own fails here.
"""

import json
import random

import pytest

import propalg.duality_verifier as dv
import propalg.endtowers as et
import propalg.torsion as tv
from propalg.chains import BasedComplex, ChainMap
from propalg.coefficients import FgAbelian, GroupSpec
from propalg.corpus import (
    SPACES,
    circle,
    circle_voltage,
    cylinder_complex,
    end_fundamental_cycle,
    random_split_ses,
    sphere2,
    torus7,
)
from propalg.report import Report
from propalg.simplicial_products import _closure

VERDICTS = {"PASS", "FAIL", "UNKNOWN"}


class _Rendered:
    def to_json(self):
        return "rendered"


def test_rendering_rules():
    inner = Report(verdict="PASS", chain={(1, 2): 3, (0, 2): -1})
    r = Report(
        nested=inner,
        pair=(1, (2, 3)),
        obj=_Rendered(),
        witnesses=[{"class": (1,), "representative": {(2,): 1, (0,): -2}}],
        plain={"free": 1, "torsion": [2]},
        by_degree={0: (1, 2)},
        empty={},
    )
    assert r.to_json() == {
        "nested": {"verdict": "PASS", "chain": [[[0, 2], -1], [[1, 2], 3]]},
        "pair": [1, [2, 3]],
        "obj": "rendered",
        "witnesses": [{"class": [1], "representative": [[[0], -2], [[2], 1]]}],
        "plain": {"free": 1, "torsion": [2]},
        "by_degree": {0: [1, 2]},
        "empty": {},
    }
    assert list(r.to_json()) == list(r)
    # rendering copies: the report keeps its chains as dicts
    assert inner["chain"] == {(1, 2): 3, (0, 2): -1}


def test_keys_read_as_attributes():
    r = Report(verdict="FAIL", horizon=3)
    assert r.verdict == "FAIL" and r.horizon == 3
    with pytest.raises(AttributeError, match="certificate"):
        r.certificate
    assert not hasattr(r, "certificate")
    r["certificate"] = {"power": 2}
    assert r.certificate == {"power": 2}
    # no attribute store besides the keys, so a write cannot drift from them
    with pytest.raises(AttributeError):
        r.details = []


@pytest.mark.parametrize("verdict, ok", [("PASS", True), ("FAIL", False), ("UNKNOWN", False)])
def test_ok_means_pass(verdict, ok):
    assert Report(verdict=verdict).ok is ok


def test_a_report_without_verdict_is_not_ok():
    assert Report(agree=True).ok is False


def _one_step(ring, u):
    return BasedComplex(ring, {0: 1, 1: 1}, {1: [[u]]})


def _sweep():
    T, S = torus7(), sphere2()
    z = dv.fundamental_class(T)
    disk = SPACES["disk-pair"]()
    x = cylinder_complex()
    ends = [end_fundamental_cycle(x, e) for e in range(len(x.ends))]
    Z1 = FgAbelian.from_invariants(1)
    bare = et.MultiTower([(et.Tower([Z1, Z1], [[[1]]]), et.OMEGA)])
    c4 = circle(4)
    Zr, C5 = GroupSpec("trivial"), GroupSpec("cyclic", 5)
    # g + g^4 - 1 is a unit of Z[C_5]
    C = _one_step(C5, C5.from_terms({1: 1, 4: 1, 0: -1}))
    A = BasedComplex(Zr, {0: 1}, {})
    return {
        "poincare": lambda: dv.poincare_check(T, z),
        "poincare 2z": lambda: dv.poincare_check(T, z.scale(2)),
        "poincare torsion": lambda: dv.poincare_check(
            c4, dv.fundamental_class(c4), C5, circle_voltage(4)),
        "alternate": lambda: dv.alternate_diagonal_agrees(T, z),
        "browder 2z": lambda: dv.browder_check(disk, dv.fundamental_class(disk).scale(2)),
        "gluing": lambda: dv.gluing_check(S, _closure([(0, 1, 2), (0, 1, 3)]),
                                          _closure([(0, 2, 3), (1, 2, 3)]),
                                          dv.fundamental_class(S)),
        "surgery": lambda: dv.surgery_kernel_check(T, S, (0, 0, 0, 1, 0, 2, 3)),
        "truncated": lambda: et.truncated_duality_at_infinity(x, ends, 2),
        "exactness": lambda: et.exactness_check(*random_split_ses(random.Random(3))),
        "epsilon": lambda: et.epsilon_vanishes(bare),
        "delta": lambda: et.delta_vanishes(bare),
        "sum": lambda: tv.check_sum_formula(ChainMap.identity(C),
                                            ChainMap(C, BasedComplex(C.ring, {}, {}), {},
                                                     check=False)),
        "subdivision": lambda: tv.check_subdivision(C, [{0: 1, 1: 1}]),
        "product": lambda: tv.check_product_formula(C, BasedComplex(Zr, {0: 1}, {})),
        "composition": lambda: tv.composition_torsion(
            ChainMap(A, A, {0: [[Zr.monomial(0, 2)]]}), ChainMap.identity(A)),
    }


SWEEP = _sweep()


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_every_check_returns_a_report(name):
    r = SWEEP[name]()
    assert isinstance(r, Report)
    json.dumps(r.to_json())
    if name != "alternate":
        assert r.verdict in VERDICTS
    if name == "exactness":
        assert all(e.verdict in VERDICTS for e in r.epsilon.values())
