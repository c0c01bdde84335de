"""Simplicial spaces, products, transfer, subdivision."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import propalg.simplicial_products as sp

from propalg.chains import (
    ChainMap,
    change_of_rings,
    cohomology_presentation,
    homology_presentation,
    homology_Z,
    validate_complex,
)
from propalg.coefficients import _Smith
from dense_reference import rmat_to_int
from propalg.corpus import (
    EQUIVARIANT,
    SPACES,
    annulus,
    circle,
    circle_cover,
    circle_cyclic_complex,
    circle_loop,
    disk_pair,
    full_triangle,
    klein_grid,
    klein_twisted,
    moebius5,
    moebius_twisted,
    rp2_6,
    rp2_twisted,
    sphere2,
    sphere_over_rp2,
    torus7,
    torus_over_klein,
    wedge_s1_s2,
)
from propalg.simplicial_products import (
    Chain,
    Cochain,
    SimplicialCover,
    SimplicialSpace,
    augmentation_cocycle,
    barycentric,
    boundary_complex,
    cap,
    cocycle_class,
    cross_product,
    cup,
    cycle_class,
    diagonal_chain,
    find_orientation_character,
    last_vertex_chain,
    last_vertex_map,
    make_space,
    product_space,
    pushforward_chain,
    simplicial_chain_map,
    slant,
    space_cohomology,
    space_homology,
    subdivision_chain,
    subdivision_map,
    transfer,
)


def invs(h):
    return {k: g.invariants() for k, g in h.items() if g.invariants() != (0, ())}


def rnd_cochain(rng, K, q, tw=False):
    return Cochain(K, q, {s: rng.randint(-3, 3) for s in K.simplices_of(q)}, tw)


def rnd_chain(rng, K, q, tw=False):
    return Chain(K, q, {s: rng.randint(-3, 3) for s in K.simplices_of(q)}, tw)


def fundamental_cycle(K, twisted=False):
    """Generator of the top kernel when it has rank one."""
    C = boundary_complex(K, twisted=twisted)
    top = C.hi
    d = [[x.coeff(0) for x in row] for row in C.boundary(top)]
    kb = _Smith(d, C.rank(top - 1), C.rank(top)).kernel()
    assert len(kb) == 1
    return Chain.from_vector(K, top, kb[0], twisted)


def h1_cocycle_basis(K):
    """Two 1-cocycles whose classes form a basis of a rank-2 H^1."""
    C = boundary_complex(K)
    d2 = [[x.coeff(0) for x in row] for row in C.boundary(2)]
    d2T = [list(col) for col in zip(*d2)]
    cocys = _Smith(d2T, C.rank(2), C.rank(1)).kernel()
    reps = [Cochain.from_vector(K, 1, v) for v in cocys]
    coords = [cocycle_class(u)[1] for u in reps]
    for i, j in itertools.combinations(range(len(reps)), 2):
        det = coords[i][0] * coords[j][1] - coords[i][1] * coords[j][0]
        if abs(det) == 1:
            return reps[i], reps[j]
    raise AssertionError("no unimodular pair of 1-cocycles found")


class TestSpaces:
    def test_face_closure_enforced(self):
        with pytest.raises(ValueError, match="not closed under faces"):
            SimplicialSpace(3, [(0, 1, 2)])

    def test_subcomplex_must_sit_inside(self):
        with pytest.raises(ValueError, match="not in the space"):
            make_space(4, [(0, 1, 2)], [(2, 3)])

    def test_character_cocycle_enforced(self):
        with pytest.raises(ValueError, match="cocycle"):
            make_space(3, [(0, 1, 2)], character={(0, 1): -1})

    def test_character_off_triangle_is_free(self):
        K = make_space(3, [(0, 1), (1, 2), (0, 2)], character={(0, 1): -1})
        assert K.w(0, 1) == -1 and K.w(1, 0) == -1 and K.w(1, 2) == 1

    @pytest.mark.parametrize("cls", [Chain, Cochain])
    @pytest.mark.parametrize("length", [3, 26])
    def test_from_vector_wants_one_entry_per_simplex(self, cls, length):
        # torus7 has 21 edges; a short vector used to fill the first few,
        # a long one to lose its tail
        with pytest.raises(ValueError, match=f"length {length} for 21 1-simplices"):
            cls.from_vector(torus7(), 1, list(range(1, length + 1)))

    def test_json_round_trip(self):
        K = rp2_twisted()
        K2 = SimplicialSpace.from_json(K.to_json())
        assert K2 == K
        M = moebius5()
        assert SimplicialSpace.from_json(M.to_json()) == M

    def test_homology_tables(self):
        expected = {
            "point": {0: (1, ())},
            "interval": {0: (1, ())},
            "circle3": {0: (1, ()), 1: (1, ())},
            "circle6": {0: (1, ()), 1: (1, ())},
            "triangle": {0: (1, ())},
            "sphere": {0: (1, ()), 2: (1, ())},
            "torus7": {0: (1, ()), 1: (2, ()), 2: (1, ())},
            "torus-grid": {0: (1, ()), 1: (2, ()), 2: (1, ())},
            "rp2": {0: (1, ()), 1: (0, (2,))},
            "klein": {0: (1, ()), 1: (1, (2,))},
            "moebius": {0: (1, ()), 1: (1, ())},
            "annulus": {0: (1, ()), 1: (1, ())},
            "wedge": {0: (1, ()), 1: (1, ()), 2: (1, ())},
        }
        for name, table in expected.items():
            K = SPACES[name]()
            assert invs(space_homology(K)) == table, name

    def test_twisted_homology_tables(self):
        assert invs(space_homology(rp2_twisted(), twisted=True)) == {0: (0, (2,)), 2: (1, ())}
        assert invs(space_homology(klein_twisted(), twisted=True)) == {0: (0, (2,)), 1: (1, ()), 2: (1, ())}
        assert invs(space_homology(moebius_twisted(), twisted=True)) == {0: (0, (2,))}

    def test_relative_homology_tables(self):
        assert invs(space_homology(disk_pair(), rel=True)) == {2: (1, ())}
        assert invs(space_homology(moebius5(), rel=True)) == {1: (0, (2,))}
        assert invs(space_homology(SPACES["annulus"](), rel=True)) == {1: (1, ()), 2: (1, ())}
        assert invs(space_homology(moebius_twisted(), twisted=True, rel=True)) == {1: (1, ()), 2: (1, ())}

    def test_boundary_complexes_square_to_zero(self):
        for name, build in SPACES.items():
            K = build()
            for tw in (False, True):
                for rel in (False, True):
                    C = boundary_complex(K, twisted=tw, rel=rel)
                    assert validate_complex(C)["valid"], (name, tw, rel)

    def test_presentation_memo_matches_the_complexes(self):
        # the memo must present what the boundary complex presents, and a
        # relative question about a closed space reads the absolute entry
        for name, build in SPACES.items():
            K = build()
            for tw in (False, True) if K.character else (False,):
                for rel in (False, True):
                    C = boundary_complex(K, twisted=tw, rel=rel)
                    for q in range(K.dim() + 1):
                        for (G, lat, solve, _), (H, want_lat, want_solve) in (
                                (sp._hom(K, q, tw, rel), homology_presentation(C, q)),
                                (sp._coh(K, q, tw, rel), cohomology_presentation(C, q))):
                            where = (name, tw, rel, q)
                            assert (G.ngens, G.relations) == (H.ngens, H.relations), where
                            assert lat == want_lat, where
                            for col in lat:  # the basis vectors
                                assert solve(col) == want_solve(col), where
                        if not K.sub:
                            for pres in (sp._hom, sp._coh):
                                for a, b in zip(pres(K, q, tw, rel=True)[:3], pres(K, q, tw)[:3]):
                                    assert a is b

    def test_presentation_cells_are_the_complex_labels(self):
        # the cells a presentation carries are the basis its complex was built on
        for name, build in SPACES.items():
            K = build()
            for tw in (False, True):
                for rel in (False, True):
                    C = sp._complex(K, tw, rel)
                    for q in range(K.dim() + 1):
                        where = (name, tw, rel, q)
                        for _, _, _, cells in (sp._hom(K, q, tw, rel), sp._coh(K, q, tw, rel)):
                            assert len(cells) == C.rank(q), where
                            assert [("".join(map(str, s)) if K.n <= 10 else str(s))
                                    for s in cells] == C.labels.get(q, []), where

    def test_cohomology_bookkeeping(self):
        # split universal coefficients: free parts match, torsion shifts down
        for name in ("sphere", "torus7", "rp2", "klein", "moebius", "wedge"):
            K = SPACES[name]()
            h = space_homology(K)
            ch = space_cohomology(K)
            for q in range(0, K.dim() + 1):
                fr_h, _ = h.get(q, h[0].zero()).invariants() if q in h else (0, ())
                fr_c, tor_c = ch[q].invariants() if q in ch else (0, ())
                _, tor_below = h[q - 1].invariants() if q - 1 in h else (0, ())
                assert fr_c == fr_h, (name, q)
                assert tor_c == tor_below, (name, q)


class TestCupCap:
    def test_augmentation_unit(self):
        rng = random.Random(1)
        for K in (torus7(), rp2_twisted()):
            one = augmentation_cocycle(K)
            for q in range(0, 3):
                v = rnd_cochain(rng, K, q, tw=True)
                assert cup(one, v) == v
                z = rnd_chain(rng, K, q, tw=True)
                assert cap(one, z) == z

    def test_cup_overflow_returns_zero(self):
        K = circle(3)
        u = rnd_cochain(random.Random(2), K, 1)
        assert cup(u, u).values == {}

    def test_leibniz_and_associativity(self):
        rng = random.Random(5)
        for K in (torus7(), rp2_twisted(), klein_twisted(), sphere2()):
            for _ in range(25):
                p, q = rng.randint(0, 2), rng.randint(0, 2)
                u = rnd_cochain(rng, K, p, rng.random() < 0.5)
                v = rnd_cochain(rng, K, q, rng.random() < 0.5)
                lhs = cup(u, v).coboundary()
                rhs = cup(u.coboundary(), v) + cup(u, v.coboundary()).scale((-1) ** p)
                assert lhs == rhs
                w = rnd_cochain(rng, K, rng.randint(0, 2), rng.random() < 0.5)
                assert cup(cup(u, v), w) == cup(u, cup(v, w))

    def test_cap_boundary_identity(self):
        rng = random.Random(6)
        for K in (torus7(), rp2_twisted(), klein_twisted(), moebius_twisted()):
            for _ in range(30):
                n = rng.randint(1, 2)
                p = rng.randint(0, n - 1)
                u = rnd_cochain(rng, K, p, rng.random() < 0.5)
                z = rnd_chain(rng, K, n, rng.random() < 0.5)
                lhs = cap(u, z).boundary()
                rhs = cap(u.coboundary(), z).scale((-1) ** (n - p)) + cap(u, z.boundary())
                assert lhs == rhs

    def test_cap_associativity(self):
        rng = random.Random(7)
        for K in (torus7(), rp2_twisted(), sphere2()):
            for _ in range(30):
                n = 2
                p = rng.randint(0, 2)
                q = rng.randint(0, 2 - p)
                u = rnd_cochain(rng, K, p, rng.random() < 0.5)
                v = rnd_cochain(rng, K, q, rng.random() < 0.5)
                z = rnd_chain(rng, K, n, rng.random() < 0.5)
                assert cap(cup(u, v), z) == cap(u, cap(v, z))

    def test_cap_mismatched_space_rejected(self):
        u = augmentation_cocycle(circle(3))
        z = rnd_chain(random.Random(0), sphere2(), 1)
        with pytest.raises(ValueError):
            cap(u, z)

    def test_torus_cup_structure(self):
        K = torus7()
        a, b = h1_cocycle_basis(K)
        G2, cab = cocycle_class(cup(a, b))
        _, cba = cocycle_class(cup(b, a))
        _, cneg = cocycle_class(cup(b, a).scale(-1))
        assert G2.invariants() == (1, ())
        assert cab in ((1,), (-1,)) and cab == cneg and cab != cba

    def test_torus_cap_duality(self):
        K = torus7()
        a, b = h1_cocycle_basis(K)
        z = fundamental_cycle(K)
        _, ca = cycle_class(cap(a, z))
        _, cb = cycle_class(cap(b, z))
        det = ca[0] * cb[1] - ca[1] * cb[0]
        assert abs(det) == 1
        # pairing <a cup b, [T]> picks out the top class
        val = cup(a, b).eval_chain(z)
        assert abs(val) == 1

    def test_rp2_mod2_cup_square(self):
        K = rp2_6()
        C = boundary_complex(K)
        d1 = [[x.coeff(0) for x in row] for row in C.boundary(1)]
        d2 = [[x.coeff(0) for x in row] for row in C.boundary(2)]
        r0, r1, r2 = C.rank(0), C.rank(1), C.rank(2)
        d2T = [[d2[j][i] for j in range(r1)] for i in range(r2)]
        d1T = [[d1[j][i] for j in range(r0)] for i in range(r1)]
        x = Cochain(K, 1, {(1, 4): 1, (1, 5): 1, (2, 3): 1, (2, 5): 1, (3, 4): 1})
        xv = x.vector()
        # x is a mod-2 cocycle and not a mod-2 coboundary
        assert all(sum(d2T[i][j] * xv[j] for j in range(r1)) % 2 == 0 for i in range(r2))
        aug = [d1T[i] + [2 if k == i else 0 for k in range(r1)] for i in range(r1)]
        assert _Smith(aug, r1, r0 + r1).solve(xv) is None
        # its cup square stays nonzero mod 2
        xx = cup(x, x).vector()
        aug2 = [d2T[i] + [2 if k == i else 0 for k in range(r2)] for i in range(r2)]
        assert _Smith(aug2, r2, r1 + r2).solve(xx) is None

    def test_graded_commutativity_in_cohomology(self):
        for K in (torus7(), rp2_6(), klein_grid()):
            C = boundary_complex(K)
            d2 = [[x.coeff(0) for x in row] for row in C.boundary(2)]
            d2T = [list(col) for col in zip(*d2)]
            cocys = _Smith(d2T, C.rank(2), C.rank(1)).kernel()
            reps = [Cochain.from_vector(K, 1, v) for v in cocys[:5]]
            for u, v in itertools.combinations(reps, 2):
                _, cuv = cocycle_class(cup(u, v))
                _, cneg = cocycle_class(cup(v, u).scale(-1))
                assert cuv == cneg


class TestProducts:
    def test_point_times_chain(self):
        from propalg.corpus import point
        P, Y = point(), torus7()
        rng = random.Random(3)
        for q in range(0, 3):
            d = rnd_chain(rng, Y, q)
            pt = Chain(P, 0, {(0,): 1})
            prod = cross_product(pt, d)
            assert prod.coeffs == d.coeffs

    def test_circle_cross_circle_generates_h2(self):
        z = circle_loop(3)
        zz = cross_product(z, z)
        assert zz.boundary().coeffs == {}
        G, coords = cycle_class(zz)
        assert G.invariants() == (1, ()) and coords in ((1,), (-1,))

    def test_cross_boundary_identity(self):
        rng = random.Random(4)
        X, Y = circle(3), circle(4)
        for _ in range(15):
            c, d = rnd_chain(rng, X, 1), rnd_chain(rng, Y, 1)
            lhs = cross_product(c, d).boundary()
            rhs = cross_product(c.boundary(), d) + cross_product(c, d.boundary()).scale(-1)
            assert lhs == rhs

    def test_product_homology_of_torus(self):
        P = product_space(circle(3), circle(3))
        assert invs(space_homology(P)) == {0: (1, ()), 1: (2, ()), 2: (1, ())}

    def test_slant_projection_with_augmentation(self):
        X, Y = circle(3), circle(4)
        z = cross_product(circle_loop(3), Chain(Y, 0, {(0,): 1}))
        out = slant(augmentation_cocycle(Y), z)
        assert out == circle_loop(3)

    def test_slant_requires_product_target(self):
        u = augmentation_cocycle(circle(3))
        z = rnd_chain(random.Random(1), sphere2(), 1)
        with pytest.raises(ValueError, match="product"):
            slant(u, z)

    def test_cap_is_slant_after_diagonal(self):
        rng = random.Random(9)
        for T, draws in ((full_triangle(), 20), (torus7(), 4), (rp2_6(), 4)):
            for _ in range(draws):
                n = rng.randint(0, 2)
                p = rng.randint(0, n)
                z = rnd_chain(rng, T, n)
                u = rnd_cochain(rng, T, p)
                assert cap(u, z) == slant(u, diagonal_chain(z))

    def test_slant_rejects_a_non_product_with_a_multiple_of_the_vertex_count(self):
        # 6 vertices is 2 x 3, but neither space is a product with circle(3)
        u = augmentation_cocycle(circle(3))
        for K in (rp2_6(), rp2_twisted()):
            z = rnd_chain(random.Random(5), K, 1)
            with pytest.raises(ValueError, match="second factor is the cochain's space"):
                slant(u, z)
        z = cross_product(circle_loop(3), Chain(circle(4), 0, {(0,): 1}))
        with pytest.raises(ValueError, match="second factor is the cochain's space"):
            slant(augmentation_cocycle(make_space(2, [(0, 1)])), z)

    def test_slant_reads_the_first_factor_with_its_character(self):
        X, Y = rp2_twisted(), circle(3)
        z = Chain(product_space(X, Y), 1, {(0, 3): 1})
        out = slant(augmentation_cocycle(Y), z)
        assert out.space == X and out.coeffs == {(0, 1): 1}
        # the factor is read back without the subcomplex a product drops
        A = annulus()
        z = cross_product(Chain(A, 1, {A.simplices_of(1)[0]: 1}), Chain(Y, 0, {(1,): 1}))
        assert slant(augmentation_cocycle(Y), z).space == SimplicialSpace(A.n, A.simplices)

    def test_slant_degree(self):
        X, Y = circle(3), circle(3)
        z = cross_product(circle_loop(3), circle_loop(3))
        u = rnd_cochain(random.Random(2), Y, 1)
        assert slant(u, z).degree == 1


def _dfs_product(X, Y):
    """The staircase product as an exhaustive search of monotone chains.

    Every strictly increasing chain in the componentwise order on each
    grid sigma x tau, found by depth-first search: a slow, independent
    reference for product_space.
    """
    nY = Y.n
    simplices = set()
    for s in X.simplices:
        for t in Y.simplices:
            grid = [(a, b) for a in s for b in t]

            def extend(chain, rest):
                simplices.add(tuple(a * nY + b for a, b in chain))
                last = chain[-1]
                for p in rest:
                    if p > last and p[0] >= last[0] and p[1] >= last[1]:
                        extend(chain + [p], [x for x in rest if x != p])
            for start in grid:
                extend([start], [p for p in grid if p != start])
    char = {}
    for e in simplices:
        if len(e) == 2:
            (a1, b1), (a2, b2) = divmod(e[0], nY), divmod(e[1], nY)
            if X.w(a1, a2) * Y.w(b1, b2) == -1:
                char[e] = -1
    return SimplicialSpace(X.n * Y.n, simplices, character=char)


@st.composite
def small_spaces(draw):
    """Face-closed complexes on at most 4 vertices with a +-1 character.

    The character is a vertex coboundary times free signs on the edges
    that lie in no triangle, so it is always a cocycle.
    """
    n = draw(st.integers(1, 4))
    simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    K = make_space(n, draw(st.lists(simplex, min_size=1, max_size=4)))
    f = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    in_triangle = {e for t in K.simplices_of(2) for e in itertools.combinations(t, 2)}
    char = {}
    for a, b in K.simplices_of(1):
        free = 1 if (a, b) in in_triangle else draw(st.sampled_from((1, -1)))
        char[(a, b)] = f[a] * f[b] * free
    return K.with_character(char)


class TestProductOracle:
    PAIRS = [
        (torus7, torus7), (rp2_twisted, rp2_twisted), (klein_twisted, lambda: circle(3)),
        (annulus, lambda: circle(3)), (moebius_twisted, full_triangle), (sphere2, disk_pair),
        (wedge_s1_s2, rp2_6), (lambda: circle(4), klein_twisted),
    ]

    @pytest.mark.parametrize("bx, by", PAIRS)
    def test_product_matches_the_search_on_corpus_pairs(self, bx, by):
        X, Y = bx(), by()
        assert product_space(X, Y) == _dfs_product(X, Y)

    @settings(max_examples=100, deadline=None)
    @given(small_spaces(), small_spaces())
    def test_product_matches_the_search_on_small_complexes(self, X, Y):
        assert product_space(X, Y) == _dfs_product(X, Y)


class TestPlainValues:
    """Equal spaces behave the same: nothing rides along outside the value."""

    @staticmethod
    def _read_back(K):
        return SimplicialSpace.from_json(K.to_json())

    def test_a_space_takes_no_new_attributes(self):
        K = torus7()
        with pytest.raises(AttributeError):
            K.product_of = (K, K)
        with pytest.raises(AttributeError):
            barycentric(K).base = K

    def test_slant_on_a_read_back_product(self):
        X, Y = annulus(), circle(3)
        z = cross_product(rnd_chain(random.Random(6), X, 1), circle_loop(3))
        P2 = self._read_back(z.space)
        z2 = Chain(P2, z.degree, z.coeffs)
        for q in (0, 1):
            u = rnd_cochain(random.Random(7 + q), Y, q)
            assert slant(u, z2) == slant(u, z)

    @pytest.mark.parametrize("build, twisted", [(torus7, False), (moebius5, False), (rp2_twisted, True)])
    def test_subdivision_on_read_back_spaces(self, build, twisted):
        K = build()
        sd = barycentric(K)
        sd2 = self._read_back(sd)
        z = rnd_chain(random.Random(8), K, 2, twisted)
        up = subdivision_chain(z, sd)
        assert subdivision_chain(Chain(self._read_back(K), 2, z.coeffs, twisted), sd2) == up
        w = rnd_chain(random.Random(9), sd, 2, twisted)
        w2 = Chain(sd2, 2, w.coeffs, twisted)
        assert last_vertex_chain(w2, K) == last_vertex_chain(w, K)
        assert last_vertex_chain(up, K) == z

    def test_subdivision_chains_want_the_subdivision_of_their_space(self):
        K = torus7()
        with pytest.raises(ValueError, match="barycentric subdivision"):
            subdivision_chain(rnd_chain(random.Random(1), K, 1), barycentric(sphere2()))
        with pytest.raises(ValueError, match="barycentric subdivision"):
            last_vertex_chain(rnd_chain(random.Random(1), barycentric(K), 1), sphere2())
        # same simplices, other character: not the subdivision either
        R, Rt = rp2_6(), rp2_twisted()
        with pytest.raises(ValueError, match="barycentric subdivision"):
            subdivision_chain(rnd_chain(random.Random(2), Rt, 1), barycentric(R))
        with pytest.raises(ValueError, match="barycentric subdivision"):
            last_vertex_chain(rnd_chain(random.Random(2), barycentric(R), 1), Rt)


class TestTransfer:
    def test_one_sheeted_identity(self):
        K = circle(3)
        cov = SimplicialCover(K, K, list(range(3)), 1)
        rng = random.Random(8)
        z = rnd_chain(rng, K, 1)
        assert transfer(cov, z) == z

    def test_double_cover_multiplies_by_two(self):
        cov = circle_cover(3, 2)
        z = circle_loop(3)
        up = transfer(cov, z)
        assert up.boundary().coeffs == {}
        assert pushforward_chain(cov, up) == z.scale(2)
        v = Chain(cov.base, 0, {(0,): 1})
        assert pushforward_chain(cov, transfer(cov, v)) == v.scale(2)

    def test_transfer_is_a_chain_map(self):
        cov = circle_cover(3, 3)
        rng = random.Random(11)
        for _ in range(10):
            z = rnd_chain(rng, cov.base, 1)
            assert transfer(cov, z).boundary() == transfer(cov, z.boundary())

    def test_adjoint_identity(self):
        cov = circle_cover(3, 2)
        Zc = circle_loop(3)
        trZ = transfer(cov, Zc)
        rng = random.Random(12)
        for _ in range(25):
            q = rng.randint(0, 1)
            c = rnd_cochain(rng, cov.total, q)
            lhs = pushforward_chain(cov, cap(c, trZ))
            rhs = cap(transfer(cov, c), Zc)
            assert lhs == rhs

    def test_orientation_double_covers(self):
        c1 = sphere_over_rp2()
        assert invs(space_homology(c1.total)) == {0: (1, ()), 2: (1, ())}
        c2 = torus_over_klein()
        assert invs(space_homology(c2.total)) == {0: (1, ()), 1: (2, ()), 2: (1, ())}

    def test_cover_validation(self):
        K = circle(3)
        with pytest.raises(ValueError, match="sheets"):
            SimplicialCover(K, K, [0, 1, 2], 2)
        with pytest.raises(ValueError, match="collapses"):
            SimplicialCover(K, K, [0, 0, 2], 1)

    def test_cover_json_round_trip(self):
        cov = circle_cover(3, 2)
        cov2 = SimplicialCover.from_json(cov.to_json())
        assert cov2.total == cov.total and cov2.projection == cov.projection


class TestEquivariant:
    def test_all_equivariant_complexes_square_to_zero(self):
        for name, build in EQUIVARIANT.items():
            C = build()
            assert validate_complex(C)["valid"], name

    def test_augmentation_recovers_base_homology(self):
        C = EQUIVARIANT["circle-laurent"]()
        h = homology_Z(change_of_rings(C, "augmentation"))
        assert invs(h) == {0: (1, ()), 1: (1, ())}

    def test_regular_rep_recovers_cover_homology(self):
        C = circle_cyclic_complex(3, 5)
        reg = invs(homology_Z(change_of_rings(C, "regular")))
        tot = invs(homology_Z(boundary_complex(circle_cover(3, 5).total)))
        assert reg == tot

    def test_bad_voltage_rejected(self):
        from propalg.simplicial_products import equivariant_complex
        from propalg.coefficients import GroupSpec
        K = sphere2()
        with pytest.raises(ValueError, match="cocycle"):
            equivariant_complex(K, {(0, 1): 1}, GroupSpec("infinite-cyclic"))


class TestSubdivision:
    def test_last_vertex_inverts_subdivision(self):
        for K in (sphere2(), torus7(), moebius5()):
            sd, f = subdivision_map(K)
            _, g = last_vertex_map(K)
            comp = g.compose(f)
            idm = ChainMap.identity(f.source)
            assert all(comp.mat(k) == idm.mat(k) for k in f.source.degrees())

    def test_twisted_subdivision(self):
        K = rp2_twisted()
        sd, f = subdivision_map(K, twisted=True)
        _, g = last_vertex_map(K, twisted=True)
        comp = g.compose(f)
        idm = ChainMap.identity(f.source)
        assert all(comp.mat(k) == idm.mat(k) for k in f.source.degrees())
        assert invs(space_homology(sd, twisted=True)) == {0: (0, (2,)), 2: (1, ())}

    def test_subdivision_preserves_homology(self):
        for K in (sphere2(), rp2_6()):
            sd, _ = subdivision_map(K)
            assert invs(space_homology(sd)) == invs(space_homology(K))


class TestOrientation:
    def test_orientable_spaces_get_trivial_character(self):
        for build in (sphere2, torus7):
            assert find_orientation_character(build()) == {}

    def test_nonorientable_spaces_get_twisting(self):
        for build, top in ((rp2_6, 2), (klein_grid, 2), (moebius5, 2)):
            K = build()
            char = find_orientation_character(K)
            assert char
            Kw = K.with_character(char)
            h = space_homology(Kw, twisted=True, rel=bool(K.sub))
            assert h[top].invariants() == (1, ())

    def test_wedge_top_homology_needs_no_twist(self):
        # the sphere factor already carries H_2 = Z, so the trivial
        # character satisfies the finder; non-manifold defects surface
        # later, in the duality checks, not here
        assert find_orientation_character(wedge_s1_s2()) == {}


def reference_boundary(z):
    """The face rule written out again, one face at a time.

    Dropping vertex v from s gives a face with sign (-1)^(position of v),
    except that dropping the leading vertex moves the coefficient from
    s[0] to s[1], which multiplies it by the character on that edge.
    """
    K, out = z.space, {}
    for s, c in z.coeffs.items():
        if len(s) == 1:
            continue
        for pos, v in enumerate(s):
            face = tuple(x for x in s if x != v)
            if v == s[0]:
                coef = K.w(s[0], s[1]) if z.twisted else 1
            else:
                coef = 1 if pos % 2 == 0 else -1
            out[face] = out.get(face, 0) + coef * c
    return {s: c for s, c in out.items() if c}


class TestFaceRule:
    # every chain, cochain and boundary matrix of a space takes its face
    # signs from one rule; these checks restate it from scratch

    @pytest.mark.parametrize("tw", (False, True))
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_complex_matrix_is_the_chain_boundary(self, name, tw):
        K = SPACES[name]()
        C = boundary_complex(K, twisted=tw)
        rng = random.Random(13)
        for q in range(1, K.dim() + 1):
            z = rnd_chain(rng, K, q, tw)
            v = z.vector()
            image = [sum(a * b for a, b in zip(row, v)) for row in rmat_to_int(C.boundary(q))]
            assert image == z.boundary().vector(), (name, tw, q)
            assert z.boundary().coeffs == reference_boundary(z), (name, tw, q)

    @pytest.mark.parametrize("tw", (False, True))
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_boundary_and_coboundary_are_adjoint_differentials(self, name, tw):
        K = SPACES[name]()
        rng = random.Random(17)
        for q in range(1, K.dim() + 1):
            z = rnd_chain(rng, K, q, tw)
            u = rnd_cochain(rng, K, q - 1, tw)
            assert not z.boundary().boundary().coeffs, (name, tw, q)
            assert u.coboundary().is_cocycle(), (name, tw, q)
            assert u.coboundary().eval_chain(z) == u.eval_chain(z.boundary()), (name, tw, q)

    def test_a_transposition_reverses_the_top_simplex(self):
        T = full_triangle()
        top = Chain(T, 2, {(0, 1, 2): 1})
        v = top.vector()
        for vmap in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
            M = rmat_to_int(simplicial_chain_map(T, T, vmap).mat(2))
            image = [sum(a * b for a, b in zip(row, v)) for row in M]
            assert Chain.from_vector(T, 2, image) == -top, vmap


@pytest.mark.parametrize("other, error, what", [
    (lambda K: Cochain(K, 1, {(0, 1): 1}), TypeError, "Cochain"),
    (lambda K: Chain(sphere2(), 1, {(0, 1): 1}), ValueError, "space"),
    (lambda K: Chain(K, 0, {(0,): 1}), ValueError, "degree"),
    (lambda K: Chain(K, 1, {(0, 1): 1}, twisted=True), ValueError, "twisted"),
], ids=["type", "space", "degree", "twist"])
def test_only_cells_of_one_kind_add(other, error, what):
    # the check must raise, not assert, so that it survives python -O
    K = rp2_twisted()
    with pytest.raises(error, match=what):
        Chain(K, 1, {(0, 1): 1}) + other(K)
