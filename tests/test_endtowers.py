"""Towers, vanishing verdicts, and the ends of complexes.

Expected values are frozen from hand computation on the smallest cases:
a constant identity tower of Z survives any reduced product while finite
multiplicities never matter, multiplication by 2 survives rationally but
dies on Z/4, and the line / ray / plane / cylinder carry the locally
finite homology of their manifold models.  The exactness and duality
reports are cross-checked against block constructions whose answers are
forced by the shape of the input.
"""

import random
from math import prod

import pytest

import propalg.endtowers as et
from propalg.chains import ChainMap, homology_presentation
from propalg.coefficients import FgAbelian, GroupSpec, hom_decompose, snf_solver
from propalg.coefficients import _Smith, _induced, _maps_agree
from propalg.corpus import (
    END_PERIODIC,
    circle,
    circle_telescope,
    cylinder_complex,
    end_fundamental_cycle,
    full_triangle,
    line_complex,
    plane_complex,
    random_hom_matrix,
    random_multitower,
    random_periodic_tower,
    random_split_ses,
    ray_complex,
)
from propalg.endtowers import (
    OMEGA,
    EndPeriodicComplex,
    MultiTower,
    Tower,
    _eventually_zero,
    _torsion_column,
    cs_cohomology,
    delta_vanishes,
    end_tower,
    epsilon_vanishes,
    exactness_check,
    lf_homology,
    tower_homology,
    truncated_duality_at_infinity,
)
from propalg.simplicial_products import (
    Chain,
    _cross_coeffs,
    boundary_complex,
    make_space,
    product_space,
    simplicial_chain_map,
)

from dense_reference import eye, mat_mul, mat_vec, rmat_from_int, transpose

Z1 = FgAbelian.from_invariants(1)
Z4 = FgAbelian.from_invariants(0, [4])
ZERO = FgAbelian.zero()


def const_tower(G, mat, length=3):
    return Tower([G] * length, [mat] * (length - 1), period=1)


def omega(*towers):
    return MultiTower([(t, OMEGA) for t in towers])


def mixed_complex():
    """Three ends: a point end on an edge, then the two circle ends of a cylinder."""
    P = product_space(circle(3), make_space(2, [(0, 1)]))
    core = make_space(8, [s for s in P.simplices if len(s) == 3] + [(6, 7)])
    ends = [[(7,)]] + [[s for s in P.simplices if all(v % 2 == b for v in s)] for b in (0, 1)]
    return EndPeriodicComplex(core, ends)


def count_products(monkeypatch):
    """Record every collar product endtowers builds from here on."""
    built = []
    real = et.product_space
    monkeypatch.setattr(et, "product_space", lambda *a: built.append(a) or real(*a))
    return built


class TestTowerConstruction:
    def test_map_shape_must_match_the_stages(self):
        with pytest.raises(ValueError, match="connecting map 0: matrix shape does not match the presentations"):
            Tower([Z1, Z1], [[[1, 0]]])
        with pytest.raises(ValueError, match="connecting map 0: matrix shape does not match the presentations"):
            Tower([Z1, Z1], [[[1], [0]]])

    def test_map_count_must_match(self):
        with pytest.raises(ValueError):
            Tower([Z1, Z1], [])

    def test_maps_must_be_homomorphisms(self):
        # nothing maps Z/4 into Z except zero
        with pytest.raises(ValueError):
            Tower([Z1, Z4], [[[1]]])

    def test_period_must_be_visible(self):
        with pytest.raises(ValueError):
            Tower([Z1, Z1], [[[1]]], period=2)
        with pytest.raises(ValueError):
            Tower([Z1, Z1], [[[1]]], period=1, preperiod=1)

    def test_period_needs_matching_stages_or_isos(self):
        with pytest.raises(ValueError):
            Tower([Z1, Z4, Z1], [[[0]], [[0]]], period=1)

    def test_period_map_must_be_iso(self):
        with pytest.raises(ValueError):
            Tower([Z1, Z1, Z1], [[[1]], [[1]]], period=1, period_isos=[[[2]], [[2]]])

    def test_period_map_must_be_a_homomorphism(self):
        # x1 from Z/4 to Z is no map; the zero connecting map is one
        with pytest.raises(ValueError, match=r"^period isomorphism 0: map not well defined"):
            Tower([Z1, Z4], [[[0]]], period=1, period_isos=[[[1]]])

    def test_period_maps_must_commute(self):
        # connecting maps x2 then x3 cannot be 1-periodic via identities
        with pytest.raises(ValueError):
            Tower([Z1, Z1, Z1], [[[2]], [[3]]], period=1)

    def test_period_data_without_period_rejected(self):
        with pytest.raises(ValueError):
            Tower([Z1, Z1], [[[1]]], preperiod=1)
        with pytest.raises(ValueError):
            Tower([Z1, Z1], [[[1]]], period_isos=[[[1]]])

    def test_composite(self):
        t = Tower([Z1, Z1, Z1], [[[2]], [[3]]])
        assert t.composite(0, 2) == [[6]]
        assert t.composite(1, 1) == [[1]]
        with pytest.raises(ValueError):
            t.composite(2, 0)

    def test_json_round_trip(self):
        t = Tower([Z4, Z4, Z4], [[[2]], [[2]]], period=1)
        back = Tower.from_json(t.to_json())
        assert back.stages == t.stages
        assert back.maps == t.maps
        assert back.period == 1 and back.preperiod == 0

    def test_multitower_json_round_trip(self):
        mt = MultiTower([(const_tower(Z1, [[2]]), OMEGA),
                         (const_tower(Z4, [[3]]), 2)])
        back = MultiTower.from_json(mt.to_json())
        assert [m for _, m in back.entries] == [OMEGA, 2]
        assert back.entries[0][0].maps == [[[2]], [[2]]]

    def test_multitower_needs_entries(self):
        with pytest.raises(ValueError):
            MultiTower([])
        with pytest.raises(ValueError):
            MultiTower([(const_tower(Z1, [[1]]), 0)])


class TestEpsilon:
    def test_all_zero_maps_vanish(self):
        assert epsilon_vanishes(omega(const_tower(Z1, [[0]]))).verdict == "PASS"

    def test_constant_identity_survives(self):
        v = epsilon_vanishes(omega(const_tower(Z1, [[1]])))
        assert v.verdict == "FAIL"

    def test_finite_multiplicity_never_matters(self):
        t = const_tower(Z1, [[1]])
        assert epsilon_vanishes(MultiTower([(t, 5)])).verdict == "PASS"

    def test_times_two_survives_rationally(self):
        v = epsilon_vanishes(omega(const_tower(Z1, [[2]])))
        assert v.verdict == "FAIL"
        assert "rational" in v.certificate["reason"]
        assert v.certificate["image"] == [2]

    def test_times_two_dies_on_z4(self):
        assert epsilon_vanishes(omega(const_tower(Z4, [[2]]))).verdict == "PASS"

    def test_unit_survives_on_torsion(self):
        v = epsilon_vanishes(omega(const_tower(Z4, [[3]])))
        assert v.verdict == "FAIL"
        assert "torsion" in v.certificate["reason"]

    def test_no_period_is_undetermined(self):
        t = Tower([Z1, Z1, Z1], [[[0]], [[0]]])
        v = epsilon_vanishes(omega(t))
        assert v.verdict == "UNKNOWN" and v.horizon == 2

    def test_false_beats_undetermined(self):
        free = Tower([Z1, Z1], [[[2]]])
        assert epsilon_vanishes(omega(free, const_tower(Z1, [[1]]))).verdict == "FAIL"

    def test_preperiod_tower(self):
        # one noisy stage in front of a vanishing periodic tail
        t = Tower([Z1, Z4, Z4, Z4], [[[0]], [[2]], [[2]]], period=1, preperiod=1)
        assert epsilon_vanishes(omega(t)).verdict == "PASS"

    def test_mixed_entries_combine(self):
        good = const_tower(Z4, [[2]])
        bad = const_tower(Z1, [[2]])
        assert epsilon_vanishes(MultiTower([(good, OMEGA), (bad, 3)])).verdict == "PASS"
        assert epsilon_vanishes(MultiTower([(good, OMEGA), (bad, OMEGA)])).verdict == "FAIL"


def test_torsion_column_matches_rational_rank():
    # a column is torsion iff adjoining it to the relations keeps their rank
    def rank(M, r, c):
        return _Smith(M, r, c).rank

    rng = random.Random(277)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(0, 4)
        G = FgAbelian(n, [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)], m)
        col = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.5 and m:
            # a combination of relations over Q, scaled to be integral
            col = [sum(rng.randint(-2, 2) * x for x in row) for row in G.relations]
        aug = [row + [x] for row, x in zip(G.relations, col)]
        want = rank(aug, n, m + 1) == rank(G.relations, n, m)
        assert _torsion_column(G, col) == want


def _omega(m: int) -> int:
    # prime factors of m counted with multiplicity
    out, p = 0, 2
    while m > 1:
        while m % p == 0:
            m, out = m // p, out + 1
        p += 1
    return out


def _random_unimodular(rng, n):
    # (P, P^-1) from row operations on P, mirrored as column operations
    P, Q = eye(n), eye(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in Q:
            row[j] -= c * row[i]
    return P, Q


def _brute_eventually_zero(E, G):
    # iterate E, by rows, on the set of all elements until it is {0} or
    # stops shrinking
    zero = G.canon([0] * G.ngens)
    S = {G.canon(v) for v in G.elements()}
    while S != {zero}:
        T = {G.canon(mat_vec(E, G.lift(z))) for z in S}
        if T == S:
            return False
        S = T
    return True


def test_eventually_zero_matches_brute_force_within_the_prime_factor_bound():
    # a diagonal group of at most 600 elements and a scaled endomorphism,
    # conjugated by a unimodular P so that neither is diagonal; the scale
    # gives torsion chains up to five strict descents long
    rng = random.Random(693)
    for _ in range(300):
        orders = [0]
        while not 0 < prod(orders) <= 600:
            orders = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 32))
                      for _ in range(rng.randint(1, 3))]
        n = len(orders)
        P, Q = _random_unimodular(rng, n)
        assert mat_mul(P, Q) == eye(n)
        D = [[orders[i] if i == j else 0 for j in range(n)] for i in range(n)]
        G = FgAbelian(n, mat_mul(P, D), n)
        k = rng.choice((1, 2, 3, 6))
        E0 = [[k * x for x in row] for row in random_hom_matrix(rng, orders, orders)]
        E = mat_mul(P, mat_mul(E0, Q))
        v = _eventually_zero(transpose(E, n), G)
        assert (v.verdict == "PASS") == _brute_eventually_zero(E, G)
        assert v.verdict == "PASS" or v.verdict == "FAIL"
        assert v.certificate["power"] <= n + _omega(G.order())


def test_tower_keeps_the_period_inverses_it_verified():
    rng = random.Random(5)
    for _ in range(30):
        T = random_periodic_tower(rng)
        for k, iso in T.period_isos.items():
            src, tgt = T.stages[k + T.period], T.stages[k]
            a, b = src.ngens, tgt.ngens
            inv = transpose(T._period_inverses[k], a)  # kept by columns
            assert _maps_agree(transpose(mat_mul(iso, inv, b), b), eye(b), tgt) is None
            assert _maps_agree(transpose(mat_mul(inv, iso, a), a), eye(a), src) is None


class TestDelta:
    def test_zero_towers_vanish(self):
        t = Tower([ZERO, ZERO], [[]], period=1)
        assert delta_vanishes(omega(t)).verdict == "PASS"

    def test_surviving_stage_zero_blocks(self):
        # epsilon holds but G_0 = Z sits inside the full product
        t = const_tower(Z1, [[0]])
        assert epsilon_vanishes(omega(t)).verdict == "PASS"
        d = delta_vanishes(omega(t))
        assert d.verdict == "FAIL"
        assert d.certificate["invariants"] == [1, []]

    def test_finite_multiplicity_stage_zero_still_blocks(self):
        t = const_tower(Z1, [[0]])
        assert delta_vanishes(MultiTower([(t, 2)])).verdict == "FAIL"

    def test_zero_stage_zero_leaves_the_verdict_to_epsilon(self):
        # with every G_0 zero, delta is epsilon's report, FAIL and UNKNOWN included
        survives = Tower([ZERO, Z1, Z1], [[], [[1]]], period=1, preperiod=1)
        unseen = Tower([ZERO, Z1], [[]])
        for t, verdict in ((survives, "FAIL"), (unseen, "UNKNOWN")):
            assert delta_vanishes(omega(t)) == epsilon_vanishes(omega(t))
            assert delta_vanishes(omega(t)).verdict == verdict

    def test_delta_implies_epsilon(self):
        rng = random.Random(20260815)
        for _ in range(40):
            mt = random_multitower(rng)
            d = delta_vanishes(mt)
            if d.verdict == "PASS":
                assert epsilon_vanishes(mt).verdict == "PASS"


class TestEpsilonInvariance:
    @staticmethod
    def drop_first(mt):
        out = []
        for t, m in mt.entries:
            q = max(0, t.preperiod - 1) if t.period else 0
            out.append((Tower(t.stages[1:], t.maps[1:], period=t.period,
                              preperiod=q), m))
        return MultiTower(out)

    @staticmethod
    def insert_identity(mt):
        out = []
        for t, m in mt.entries:
            stages = [t.stages[0]] + list(t.stages)
            maps = [eye(t.stages[0].ngens)] + list(t.maps)
            q = t.preperiod + 1 if t.period else 0
            out.append((Tower(stages, maps, period=t.period, preperiod=q), m))
        return MultiTower(out)

    def test_drop_first_stage(self):
        rng = random.Random(11)
        for _ in range(30):
            mt = random_multitower(rng)
            assert epsilon_vanishes(self.drop_first(mt)) == epsilon_vanishes(mt)

    def test_insert_identity_stage(self):
        rng = random.Random(12)
        for _ in range(30):
            mt = random_multitower(rng)
            assert epsilon_vanishes(self.insert_identity(mt)) == epsilon_vanishes(mt)


class TestTowerHomology:
    def test_a_map_off_the_cycles_raises(self):
        # the unchecked map keeps edge 01 and drops the other two edges, so
        # the cycle generating H_1 of the circle is sent to a non-cycle
        C = circle(3)
        cx = boundary_complex(C)
        edges = C.simplices_of(1)
        keep = [[1 if i == j == edges.index((0, 1)) else 0 for j in range(3)] for i in range(3)]
        f = ChainMap(cx, cx, {0: rmat_from_int(cx.ring, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                              1: rmat_from_int(cx.ring, keep)}, check=False)
        z = [1, -1, 1]  # 01 - 02 + 12 spans the cycles
        assert all(sum(x.coeff(0) * c for x, c in zip(row, z)) == 0 for row in cx.boundary(1))
        pushed = [sum(a * b for a, b in zip(row, z)) for row in keep]
        d1 = [[x.coeff(0) for x in row] for row in cx.boundary(1)]
        assert any(sum(a * b for a, b in zip(row, pushed)) for row in d1)
        with pytest.raises(ValueError, match="generator 0 is pushed off the target lattice"):
            tower_homology([cx, cx], [f])

    def test_constant_circle_identity(self):
        C = circle(3)
        f = simplicial_chain_map(C, C, [0, 1, 2])
        th = tower_homology([boundary_complex(C)] * 3, [f, f], period=1)
        t1 = th[1].entries[0][0]
        assert [g.invariants() for g in t1.stages] == [(1, ())] * 3
        assert t1.maps == [[[1]], [[1]]]
        assert t1.period == 1
        t0 = th[0].entries[0][0]
        assert [g.invariants() for g in t0.stages] == [(1, ())] * 3
        assert t0.maps == [eye(3)] * 2
        assert epsilon_vanishes(th[1]).verdict == "FAIL"

    def test_telescope_h1_is_multiplication_by_two(self):
        cx, mp = circle_telescope()
        th = tower_homology(cx, mp, period=1)
        t1 = th[1].entries[0][0]
        assert [g.invariants() for g in t1.stages] == [(1, ())] * 3
        assert t1.maps == [[[2]], [[2]]]
        assert t1.period == 1
        assert epsilon_vanishes(th[1]).verdict == "FAIL"
        # H_0 presentations grow with the levels, so no period is attached
        assert th[0].entries[0][0].period is None

    def test_contractible_levels_give_zero_towers(self):
        D = full_triangle()
        f = simplicial_chain_map(D, D, [0, 1, 2])
        th = tower_homology([boundary_complex(D)] * 3, [f, f], period=1)
        t1 = th[1].entries[0][0]
        assert all(g.is_zero for g in t1.stages)
        assert epsilon_vanishes(th[1]).verdict == "PASS"
        assert delta_vanishes(th[1]).verdict == "PASS"

    def test_level_mismatch_rejected(self):
        C3, C6 = circle(3), circle(6)
        f = simplicial_chain_map(C3, C3, [0, 1, 2])
        with pytest.raises(ValueError):
            tower_homology([boundary_complex(C6)] * 2, [f])

    def test_integral_ring_required(self):
        from propalg.chains import ChainMap, complex_from_int
        L = GroupSpec("infinite-cyclic")
        C = complex_from_int(L, {0: 1}, {})
        f = ChainMap(C, C, {0: [[L.one()]]})
        with pytest.raises(ValueError):
            tower_homology([C, C], [f])

    def test_invisible_period_rejected(self):
        C = circle(3)
        f = simplicial_chain_map(C, C, [0, 1, 2])
        with pytest.raises(ValueError):
            tower_homology([boundary_complex(C)] * 2, [f], period=3)


class TestKernelCokernelTowers:
    """A levelwise chain map between towers induces towers of kernels and
    cokernels on homology; the connecting maps must restrict and descend."""

    def test_double_wrap_levelwise(self):
        C6, C3 = circle(6), circle(3)
        g = simplicial_chain_map(C6, C3, [v % 3 for v in range(6)])
        idA = simplicial_chain_map(C6, C6, list(range(6)))
        idB = simplicial_chain_map(C3, C3, [0, 1, 2])
        thA = tower_homology([boundary_complex(C6)] * 3, [idA, idA], period=1)
        thB = tower_homology([boundary_complex(C3)] * 3, [idB, idB], period=1)
        tA, tB = thA[1].entries[0][0], thB[1].entries[0][0]

        presA = [homology_presentation(boundary_complex(C6), 1)] * 3
        presB = [homology_presentation(boundary_complex(C3), 1)] * 3
        gmat = [[x.coeff(0) for x in row] for row in g.mat(1)]
        # the induced maps by rows; _induced takes and gives columns
        gstar = [transpose(_induced(presA[j], transpose(gmat, len(gmat[0])), presB[j]),
                           tB.stages[j].ngens) for j in range(3)]

        # squares commute on homology
        for j in range(2):
            left = [[sum(gstar[j][r][k] * tA.maps[j][k][c]
                         for k in range(tA.stages[j].ngens))
                     for c in range(tA.stages[j + 1].ngens)]
                    for r in range(tB.stages[j].ngens)]
            right = [[sum(tB.maps[j][r][k] * gstar[j + 1][k][c]
                          for k in range(tB.stages[j + 1].ngens))
                      for c in range(tA.stages[j + 1].ngens)]
                     for r in range(tB.stages[j].ngens)]
            assert left == right

        # cokernels: Z/2 at every level, with the descended maps a tower
        cokers, kernels, klattices = [], [], []
        for j in range(3):
            ker, _, cok = hom_decompose(gstar[j], tA.stages[j], tB.stages[j])
            assert cok.invariants() == (0, (2,))
            assert ker.is_zero
            cokers.append(FgAbelian(
                tB.stages[j].ngens,
                [gr + br for gr, br in zip(gstar[j], tB.stages[j].relations)],
                tA.stages[j].ngens + tB.stages[j].nrels))
            kb = _Smith(
                [gr + br for gr, br in zip(gstar[j], tB.stages[j].relations)],
                tB.stages[j].ngens, tA.stages[j].ngens + tB.stages[j].nrels).kernel()
            proj = [v[:tA.stages[j].ngens] for v in kb]
            lat = _Smith(transpose(proj, tA.stages[j].ngens),
                         tA.stages[j].ngens, len(proj)).image()
            klattices.append(lat)
            kernels.append(ker)
        Tower(cokers, tB.maps[:2], period=1)

        # kernel side: connecting maps restrict to the kernel lattices
        for j in range(2):
            K = transpose(klattices[j], tA.stages[j].ngens)
            aug = [row_k + row_r for row_k, row_r in zip(K, tA.stages[j].relations)]
            solver = snf_solver(aug, tA.stages[j].ngens,
                                len(klattices[j]) + tA.stages[j].nrels)
            for v in klattices[j + 1]:
                pushed = [sum(tA.maps[j][r][k] * v[k]
                              for k in range(tA.stages[j + 1].ngens))
                          for r in range(tA.stages[j].ngens)]
                assert solver(pushed) is not None

    def test_collapse_map_kernel_tower(self):
        # a constant vertex map kills H_1, so the kernel tower is the
        # whole homology tower and the cokernel tower matches the target
        C3 = circle(3)
        g = simplicial_chain_map(C3, C3, [0, 0, 0])
        pres = homology_presentation(boundary_complex(C3), 1)
        gmat = [[x.coeff(0) for x in row] for row in g.mat(1)]
        gstar = _induced(pres, transpose(gmat, len(gmat[0])), pres)
        assert gstar == [[0]]
        ker, _, cok = hom_decompose(gstar, pres[0], pres[0])
        assert ker.invariants() == (1, ())
        assert cok.invariants() == (1, ())
        kstages = [ker] * 3
        Tower(kstages, [eye(1)] * 2, period=1)


class TestEndTowers:
    def test_line_has_two_omega_point_ends(self):
        mt = end_tower(line_complex(), 0)
        assert len(mt.entries) == 2
        for t, m in mt.entries:
            assert m == OMEGA
            assert [g.invariants() for g in t.stages] == [(1, ())] * 5
            assert t.period == 1
        assert epsilon_vanishes(mt).verdict == "FAIL"

    def test_line_degree_one_is_zero_tower(self):
        mt = end_tower(line_complex(), 1)
        assert all(g.is_zero for t, _ in mt.entries for g in t.stages)
        assert epsilon_vanishes(mt).verdict == "PASS"

    def test_ray_has_one_end(self):
        mt = end_tower(ray_complex(), 0)
        assert len(mt.entries) == 1
        assert epsilon_vanishes(mt).verdict == "FAIL"

    def test_plane_end_is_a_circle(self):
        mt = end_tower(plane_complex(), 1, depth=3)
        t = mt.entries[0][0]
        assert [g.invariants() for g in t.stages] == [(1, ())] * 4
        assert t.period == 1

    def test_cylinder_ends(self):
        mt = end_tower(cylinder_complex(), 1, depth=2)
        assert len(mt.entries) == 2
        for t, _ in mt.entries:
            assert [g.invariants() for g in t.stages] == [(1, ())] * 3
            assert t.period == 1

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            end_tower(line_complex(), 0, depth=0)

    def test_equal_frontiers_share_one_tower(self):
        mt = end_tower(mixed_complex(), 0, depth=2)
        (point, _), (left, _), (right, _) = mt.entries
        assert left is right
        assert point is not left
        assert point.to_json() != left.to_json()
        assert [g.invariants() for g in point.stages] == [(1, ())] * 3
        assert [g.invariants() for g in left.stages] == [(1, ())] * 3


class TestSharedEnds:
    """Ends with equal frontiers (and equal classes) are computed once."""

    CASES = sorted(END_PERIODIC) + ["mixed"]

    @staticmethod
    def build(name):
        return mixed_complex() if name == "mixed" else END_PERIODIC[name]()

    def test_the_class_is_part_of_the_key(self):
        # ends 1 and 2 have equal frontiers; a class on end 2 that differs
        # from end 1's must be checked on its own
        x = mixed_complex()
        z0, z1, z2 = [end_fundamental_cycle(x, e) for e in range(3)]
        assert x.frontier_space(1)[0] == x.frontier_space(2)[0] and z1.coeffs == z2.coeffs
        rep = truncated_duality_at_infinity(x, [z0, z1, z2.scale(2)], depth=2)
        assert rep["verdict"] == "FAIL"
        assert rep["checks"] == 24
        assert rep["failures"] and {f["end"] for f in rep["failures"]} == {2}
        rep = truncated_duality_at_infinity(x, [z0, z1, -z2], depth=2)
        assert rep["verdict"] == "PASS"
        assert rep["checks"] == 24
        assert rep["failures"] == []

    @pytest.mark.parametrize("name", CASES)
    def test_shared_results_equal_the_one_end_results(self, name):
        x = self.build(name)
        classes = [end_fundamental_cycle(x, e) for e in range(len(x.ends))]
        for cls in (classes, [z.scale(2) for z in classes]):
            got = truncated_duality_at_infinity(x, cls, depth=2)
            want_checks = 0
            for e in range(len(x.ends)):
                one = EndPeriodicComplex(x.core, [x.ends[e]])
                ref = truncated_duality_at_infinity(one, [cls[e]], depth=2)
                assert [f for f in got["failures"] if f["end"] == e] == \
                    [dict(f, end=e) for f in ref["failures"]]
                want_checks += ref["checks"]
            assert got["checks"] == want_checks
        for k in range(3):
            mt = end_tower(x, k, depth=2)
            assert len(mt.entries) == len(x.ends)
            for e, (tower, mult) in enumerate(mt.entries):
                ref = end_tower(EndPeriodicComplex(x.core, [x.ends[e]]), k, depth=2)
                assert mult == OMEGA
                assert tower.to_json() == ref.entries[0][0].to_json()

    def test_shared_failures_are_separate_values(self):
        x = cylinder_complex()
        cls = [end_fundamental_cycle(x, e).scale(2) for e in range(2)]
        rep = truncated_duality_at_infinity(x, cls, depth=1)
        first, second = rep["failures"][0], rep["failures"][len(rep["failures"]) // 2]
        assert (first["end"], second["end"]) == (0, 1)
        assert first["cokernel"] == second["cokernel"]
        assert first["cokernel"] is not second["cokernel"]

    @pytest.mark.parametrize("name", CASES)
    def test_each_frontier_space_is_built_once(self, name):
        # every per-end computation reads the one space the complex keeps
        x = self.build(name)
        for e in range(len(x.ends)):
            assert x.frontier_space(e)[0] is x.frontier_space(e)[0]
            assert end_fundamental_cycle(x, e).space is x.frontier_space(e)[0]
        assert EndPeriodicComplex.from_json(x.to_json()).frontier_space(0) == x.frontier_space(0)

    @pytest.mark.parametrize("name, products", [("cylinder", 1), ("line", 1), ("mixed", 2)])
    def test_one_collar_product_per_distinct_frontier(self, monkeypatch, name, products):
        x = self.build(name)
        classes = [end_fundamental_cycle(x, e) for e in range(len(x.ends))]
        built = count_products(monkeypatch)
        end_tower(x, 1, depth=2)
        assert len(built) == products
        del built[:]
        truncated_duality_at_infinity(x, classes, depth=2)
        assert len(built) == products


class TestEndPeriodicValidation:
    def test_frontier_must_sit_in_core(self):
        core = make_space(2, [(0, 1)])
        with pytest.raises(ValueError):
            EndPeriodicComplex(core, [[(2,)]])

    def test_frontiers_must_be_disjoint(self):
        core = make_space(2, [(0, 1)])
        with pytest.raises(ValueError):
            EndPeriodicComplex(core, [[(0,)], [(0,)]])
        with pytest.raises(ValueError):
            EndPeriodicComplex(core, [[(0, 1)], [(1,)]])

    def test_needs_at_least_one_end(self):
        with pytest.raises(ValueError):
            EndPeriodicComplex(make_space(2, [(0, 1)]), [])

    def test_core_must_not_carry_subcomplex(self):
        core = make_space(2, [(0, 1)], [(0,)])
        with pytest.raises(ValueError):
            EndPeriodicComplex(core, [[(1,)]])

    def test_json_round_trip(self):
        x = plane_complex()
        back = EndPeriodicComplex.from_json(x.to_json())
        assert back.core == x.core
        assert back.ends == x.ends


class TestLocallyFinite:
    def test_line(self):
        x = line_complex()
        assert lf_homology(x, 0).is_zero
        assert lf_homology(x, 1).invariants() == (1, ())
        assert cs_cohomology(x, 1).invariants() == (1, ())
        assert cs_cohomology(x, 0).is_zero

    def test_ray(self):
        x = ray_complex()
        assert lf_homology(x, 0).is_zero
        assert lf_homology(x, 1).is_zero

    def test_plane(self):
        x = plane_complex()
        assert lf_homology(x, 0).is_zero
        assert lf_homology(x, 1).is_zero
        assert lf_homology(x, 2).invariants() == (1, ())
        assert cs_cohomology(x, 2).invariants() == (1, ())

    def test_cylinder(self):
        x = cylinder_complex()
        assert [lf_homology(x, k).invariants() for k in (0, 1, 2)] == \
            [(0, ()), (1, ()), (1, ())]

    def test_collar_check_runs_once_per_complex(self, monkeypatch):
        # the check builds one collar product per distinct frontier, so the
        # cylinder's two equal circle ends build one; lf homology and cs
        # cohomology in degrees 0-2 share it, and a new complex checks anew
        built = count_products(monkeypatch)
        x = cylinder_complex()
        for k in range(3):
            lf_homology(x, k)
            cs_cohomology(x, k)
        assert len(x.ends) == 2
        assert len(built) == 1
        lf_homology(cylinder_complex(), 0)
        assert len(built) == 2
        lf_homology(mixed_complex(), 0)
        assert len(built) == 4

    def test_contractible_rel_frontier_vanishes(self):
        # three cores that retract onto their frontiers
        half_cyl = EndPeriodicComplex(
            product_space(circle(3), make_space(2, [(0, 1)])),
            [[s for s in product_space(circle(3), make_space(2, [(0, 1)])).simplices
              if all(v % 2 == 1 for v in s)]])
        tri_edge = EndPeriodicComplex(full_triangle(), [[(0, 1)]])
        for x in (ray_complex(), half_cyl, tri_edge):
            for k in range(3):
                assert lf_homology(x, k).is_zero


class TestExactness:
    def test_split_sum(self):
        AB = FgAbelian(2, [[0], [4]], 1)
        A = const_tower(Z1, [[2]])
        B = const_tower(Z4, [[3]])
        T = const_tower(AB, [[2, 0], [0, 3]])
        inc = [[[1], [0]]] * 3
        prj = [[[0, 1]]] * 3
        rep = exactness_check(omega(A), omega(T), omega(B), [inc], [prj])
        assert rep["verdict"] == "PASS"
        assert rep["epsilon"]["sub"]["verdict"] == "FAIL"
        assert rep["epsilon"]["quot"]["verdict"] == "FAIL"

    def test_zero_sub_identity_quotient(self):
        Zt = Tower([ZERO] * 3, [[], []], period=1)
        C = const_tower(Z4, [[2]])
        inc = [[[]]] * 3
        prj = [eye(1)] * 3
        rep = exactness_check(omega(Zt), omega(C), omega(C), [inc], [prj])
        assert rep["verdict"] == "PASS"
        assert rep["epsilon"]["total"]["verdict"] == "PASS"

    def test_telescope_sequence(self):
        # 2^k Z -> Z -> Z/2^k levelwise; the quotient stages are pairwise
        # non-isomorphic so that tower is honestly period-free
        A = const_tower(Z1, [[2]])
        B = const_tower(Z1, [[1]])
        quots = [FgAbelian(1, [[2 ** (k + 1)]], 1) for k in range(3)]
        C = Tower(quots, [[[1]], [[1]]])
        inc = [[[2 ** (k + 1)]] for k in range(3)]
        prj = [[[1]]] * 3
        rep = exactness_check(omega(A), omega(B), omega(C), [inc], [prj])
        assert rep["verdict"] == "PASS"
        eps = rep["epsilon"]
        assert eps["sub"]["verdict"] == "FAIL"
        assert eps["total"]["verdict"] == "FAIL"
        assert eps["quot"]["verdict"] == "UNKNOWN"

    def test_non_exact_input_raises(self):
        A = const_tower(Z1, [[2]])
        AB = FgAbelian(2, [[0], [4]], 1)
        T = const_tower(AB, [[2, 0], [0, 3]])
        B = const_tower(Z4, [[3]])
        inc = [[[1], [0]]] * 3
        with pytest.raises(ValueError, match="not levelwise exact"):
            exactness_check(omega(A), omega(T), omega(B), [inc], [[[[0, 2]]] * 3])
        # composite nonzero: project onto the first factor instead
        with pytest.raises(ValueError, match="not levelwise exact"):
            exactness_check(omega(A), omega(T), omega(const_tower(Z1, [[2]])),
                            [inc], [[[[1, 0]]] * 3])

    def test_non_commuting_squares_raise(self):
        # A -> B is the identity levelwise but the connecting maps differ
        A = const_tower(Z1, [[1]])
        B = const_tower(Z1, [[2]])
        Zt = Tower([ZERO] * 3, [[], []], period=1)
        inc = [eye(1)] * 3
        prj = [[]] * 3
        with pytest.raises(ValueError, match="commute"):
            exactness_check(omega(A), omega(B), omega(Zt), [inc], [prj])

    def test_mismatched_multiplicities_raise(self):
        t = const_tower(Z1, [[1]])
        with pytest.raises(ValueError, match="multiplicities"):
            exactness_check(MultiTower([(t, OMEGA)]), MultiTower([(t, 2)]),
                            MultiTower([(t, OMEGA)]),
                            [[eye(1)] * 3], [[eye(1)] * 3])

    def test_missing_maps_raise(self):
        t = omega(const_tower(Z1, [[1]]))
        with pytest.raises(ValueError, match="got 0 and 0 for 1 entries"):
            exactness_check(t, t, t, [], [])
        mt = MultiTower([(const_tower(Z1, [[1]]), OMEGA)] * 2)
        maps = [eye(1)] * 3
        with pytest.raises(ValueError, match="got 1 and 2 for 2 entries"):
            exactness_check(mt, mt, mt, [maps], [maps, maps])

    def test_inclusion_with_a_kernel_raises(self):
        # the zero map Z -> Z kills the generator of the sub tower
        Zt = Tower([ZERO], [])
        Zc = Tower([Z1], [])
        inc, prj = [[[0]]], [[]]
        assert hom_decompose([[0]], Z1, Z1)[0].invariants() == (1, ())
        with pytest.raises(ValueError, match="not levelwise exact: inclusion has kernel at entry 0, stage 0"):
            exactness_check(omega(Zc), omega(Zc), omega(Zt), [inc], [prj])

    def test_projection_that_misses_a_class_raises(self):
        # doubling Z -> Z/4 misses the class of 1, so its cokernel is Z/2
        Zt = Tower([ZERO], [])
        B, C = Tower([Z1], []), Tower([Z4], [])
        inc, prj = [[[]]], [[[2]]]
        assert hom_decompose([[2]], Z1, Z4)[2].invariants() == (0, (2,))
        with pytest.raises(ValueError, match="not levelwise exact: projection misses classes at entry 0, stage 0"):
            exactness_check(omega(Zt), omega(B), omega(C), [inc], [prj])

    def test_non_commuting_projection_squares_raise(self):
        # 0 -> Z -> Z is exact at every stage with the identity projection,
        # but the quotient's connecting map is -1 where the total's is 1
        Zt = Tower([ZERO] * 2, [[]])
        B, C = Tower([Z1] * 2, [[[1]]]), Tower([Z1] * 2, [[[-1]]])
        inc, prj = [[[]]] * 2, [[[1]]] * 2
        left = prj[0][0][0] * B.maps[0][0][0]
        right = C.maps[0][0][0] * prj[1][0][0]
        assert Z1.canon([left - right]) != (0,)
        with pytest.raises(ValueError, match="projection squares do not commute at entry 0, stage 0"):
            exactness_check(omega(Zt), omega(B), omega(C), [inc], [prj])

    def test_random_split_sequences_pass(self):
        rng = random.Random(99)
        for _ in range(15):
            sub, tot, quo, incs, projs = random_split_ses(rng)
            assert exactness_check(sub, tot, quo, incs, projs)["verdict"] == "PASS"


class TestTruncatedDuality:
    def test_line_windows(self):
        x = line_complex()
        cls = [end_fundamental_cycle(x, e) for e in range(2)]
        rep = truncated_duality_at_infinity(x, cls, depth=3)
        assert rep["verdict"] == "PASS"
        assert rep["checks"] == 16
        assert rep["failures"] == []

    def test_plane_windows_are_annuli(self):
        x = plane_complex()
        rep = truncated_duality_at_infinity(x, [end_fundamental_cycle(x, 0)], depth=3)
        assert rep["verdict"] == "PASS"
        assert rep["checks"] == 12

    def test_cylinder_windows(self):
        x = cylinder_complex()
        cls = [end_fundamental_cycle(x, e) for e in range(2)]
        rep = truncated_duality_at_infinity(x, cls, depth=2)
        assert rep["verdict"] == "PASS"

    @pytest.mark.parametrize("depth", (1, 2, 4))
    def test_window_classes_are_relative_cycles(self, depth):
        # d(z x seg) = +-z x d(seg) lies in the two boundary slices of the
        # window, which is why truncated duality checks no boundary itself
        x = cylinder_complex()
        for e in range(len(x.ends)):
            z = end_fundamental_cycle(x, e)
            for W, seg in et._collar_windows(z.space, depth):
                boundary = Chain(W, z.degree + 1, _cross_coeffs(z, seg)).boundary().coeffs
                assert boundary and all(s in W.sub for s in boundary)

    def test_doubled_cylinder_classes_fail_in_every_window(self):
        # capping with twice a generator hits only the even classes: no
        # kernel, a Z/2 cokernel in degrees 0 and 1 of every window
        x = cylinder_complex()
        cls = [end_fundamental_cycle(x, e).scale(2) for e in range(2)]
        rep = truncated_duality_at_infinity(x, cls, depth=2)
        assert rep["verdict"] == "FAIL"
        assert rep["checks"] == 18
        assert rep["failures"] == [
            {"degree": q, "kernel": [0, []], "cokernel": [0, [2]], "end": e, "window": j}
            for e in range(2) for j in range(3) for q in range(2)]

    def test_class_count_checked(self):
        x = line_complex()
        with pytest.raises(ValueError):
            truncated_duality_at_infinity(x, [end_fundamental_cycle(x, 0)])

    def test_class_must_be_cycle(self):
        x = plane_complex()
        B = x.frontier_space(0)[0]
        with pytest.raises(ValueError, match="cycle"):
            truncated_duality_at_infinity(x, [Chain(B, 1, {(0, 1): 1})], depth=2)

    def test_twisted_class_rejected(self):
        x = plane_complex()
        B = x.frontier_space(0)[0]
        z = Chain(B, 1, {(0, 1): 1, (1, 2): 1, (0, 2): -1}, twisted=True)
        with pytest.raises(ValueError, match="twisted"):
            truncated_duality_at_infinity(x, [z], depth=2)

    def test_class_must_live_on_frontier(self):
        x = line_complex()
        wrong = Chain(circle(3), 1, {(0, 1): 1, (1, 2): 1, (0, 2): -1})
        with pytest.raises(ValueError, match="frontier"):
            truncated_duality_at_infinity(x, [wrong, wrong], depth=2)

    def test_registry_passes(self):
        for name, build in END_PERIODIC.items():
            x = build()
            cls = [end_fundamental_cycle(x, e) for e in range(len(x.ends))]
            rep = truncated_duality_at_infinity(x, cls, depth=2)
            assert rep["verdict"] == "PASS", name
