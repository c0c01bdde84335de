"""The benchmark's workloads: inputs built from corpus, verdicts, oracles.

A workload's ``build(rng, small)`` is its set-up: it makes every input
before the first verdict is asked for and returns the operations.  Each
operation is a thunk that asks propalg for one verdict and an oracle that
checks the answer against known topology; the oracle returns None when
the answer is right and a one-line complaint otherwise.  propalg is always
reached through module attributes, so a tracer that rebinds them sees
every call.

``small`` shrinks the inputs for the benchmark's smoke test; the known
answers stay the same.
"""

from __future__ import annotations

from propalg import corpus, duality_verifier as dv, endtowers as et
from propalg import simplicial_products as sp, tree_modules as tm
from propalg.coefficients import GroupSpec


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _groups(expected):
    """Oracle: a {degree: FgAbelian} answer has these invariants."""
    want = {k: (free, tuple(tors)) for k, (free, tors) in expected.items()}

    def check(result):
        got = {k: g.invariants() for k, g in result.items()}
        got = {k: (free, tuple(tors)) for k, (free, tors) in got.items()}
        return None if got == want else f"invariants {sorted(got.items())}, expected {sorted(want.items())}"

    return check


TORUS = {0: (1, ()), 1: (2, ()), 2: (1, ())}
RP2 = {0: (1, ()), 1: (0, (2,)), 2: (0, ())}
S2_X_S1 = {0: (1, ()), 1: (1, ()), 2: (1, ()), 3: (1, ())}
RP2_COHOMOLOGY = {0: (1, ()), 1: (0, ()), 2: (0, (2,))}


def build_homology(rng, small):
    torus = corpus.torus7()
    rp2 = corpus.rp2_6()
    if not small:
        torus = sp.barycentric(torus)
        rp2 = sp.barycentric(rp2)
    s2s1 = sp.product_space(corpus.sphere2(), corpus.circle(3))
    return [
        Op("homology torus", lambda: sp.space_homology(torus), _groups(TORUS)),
        Op("homology rp2", lambda: sp.space_homology(rp2), _groups(RP2)),
        Op("homology s2xs1", lambda: sp.space_homology(s2s1), _groups(S2_X_S1)),
        Op("cohomology rp2", lambda: sp.space_cohomology(rp2), _groups(RP2_COHOMOLOGY)),
    ]


def _trivial_torsion(dimension):
    def check(tau):
        if not tau.is_trivial():
            return f"torsion {tau!r} is not trivial"
        if not dv.torsion_involution_relation(tau, dimension):
            return "torsion_involution_relation fails"
        return None

    return check


def build_torsion(rng, small):
    c5 = GroupSpec("cyclic", 5)
    laurent = GroupSpec("infinite-cyclic")
    if small:
        # torus_grid(2) is too coarse to be simplicial, so the small C_5
        # case is a circle
        base, volt, dim, n_circle = corpus.circle(4), corpus.circle_voltage(4), 1, 5
    else:
        base, volt, dim, n_circle = corpus.torus_grid(3), corpus.torus_voltage(3), 2, 16
    z_base = dv.fundamental_class(base)
    circle = corpus.circle(n_circle)
    circle_volt = corpus.circle_voltage(n_circle)
    z_circle = dv.fundamental_class(circle)
    return [
        Op("torsion base over C5", lambda: dv.duality_torsion(base, z_base, c5, volt),
           _trivial_torsion(dim)),
        Op("torsion circle over Z[t,1/t]",
           lambda: dv.duality_torsion(circle, z_circle, laurent, circle_volt),
           _trivial_torsion(1)),
    ]


def _passes(report):
    """Oracle for a DualityReport or a report dict: the verdict is PASS."""
    got = report.verdict if isinstance(report, dv.DualityReport) else report["verdict"]
    return None if got == "PASS" else f"verdict is {got!r}, expected 'PASS'"


def _agrees(report):
    if report["agree"] and report["checked"] > 0 and not report["failures"]:
        return None
    return f"diagonals disagree: {report['failures'][:1]}"


def _fails_with_witness(report):
    """2z is not a fundamental class: FAIL, and the report names a class."""
    if report.verdict != "FAIL":
        return f"verdict is {report.verdict!r}, expected 'FAIL'"
    if not report.witnesses:
        return "FAIL without a witness"
    if not all(w.get("class") and w.get("representative") for w in report.witnesses):
        return "a witness carries no class or representative"
    return None


def _periodic_circle_ends(mt):
    for tower, _ in mt.entries:
        if tower.period != 1:
            return f"end tower period is {tower.period!r}, expected 1"
        if any(g.invariants() != (1, ()) for g in tower.stages):
            return "an end tower stage is not Z"
    return None if mt.entries else "no end towers"


def _truncated_pass(report):
    if report["verdict"] == "PASS" and not report["failures"] and report["checks"] > 0:
        return None
    return f"truncated duality {report['verdict']} after {report['checks']} checks: {report['failures'][:1]}"


def build_duality(rng, small):
    twisted = corpus.rp2_twisted() if small else corpus.klein_twisted()
    z_twisted = dv.fundamental_class(twisted, twisted=True)
    torus = corpus.torus7()
    z_double = dv.fundamental_class(torus).scale(2)
    cylinder = corpus.cylinder_complex()
    ends = [corpus.end_fundamental_cycle(cylinder, e) for e in range(len(cylinder.ends))]
    depth = 2 if small else 4
    return [
        Op("poincare twisted", lambda: dv.poincare_check(twisted, z_twisted), _passes),
        Op("alternate diagonal twisted",
           lambda: dv.alternate_diagonal_agrees(twisted, z_twisted), _agrees),
        Op("browder twisted", lambda: dv.browder_check(twisted, z_twisted), _passes),
        Op("poincare torus 2z", lambda: dv.poincare_check(torus, z_double), _fails_with_witness),
        Op("end tower cylinder", lambda: et.end_tower(cylinder, 1, depth), _periodic_circle_ends),
        Op("truncated duality cylinder",
           lambda: et.truncated_duality_at_infinity(cylinder, ends, depth), _truncated_pass),
    ]


CERTIFICATE_FLAGS = ("injective", "hits_every_block", "block_preserving",
                     "lambda_in_tau", "lambda_in_rho")


def _stabilized(result):
    alpha, cert = result
    bad = [f for f in CERTIFICATE_FLAGS if cert[f] is not True]
    bad += [r for r in ("tau_report", "lambda_report") if not cert[r]["valid"]]
    if bad:
        return f"certificate flags false: {bad}"
    if cert["copies"] != cert["required_copies"]:
        return f"copies {cert['copies']} != required {cert['required_copies']}"
    return None


def build_trees(rng, small):
    depth, labels = (5, 32) if small else (9, 512)
    random_tree = corpus.binary_tree(depth)
    random_part = corpus.random_chain_partition(rng, random_tree, labels)
    shifted = tm.shifted_standard_partition(corpus.binary_tree(depth - 1), 1)
    return [
        Op("stabilize random chains", lambda: tm.stabilize(random_part), _stabilized),
        Op("stabilize shifted standard", lambda: tm.stabilize(shifted), _stabilized),
    ]


def build_algebra(rng, small):
    return build_homology(rng, small) + build_duality(rng, small) + build_torsion(rng, small)


WORKLOADS = {
    "algebra": build_algebra,
    "trees": build_trees,
}
