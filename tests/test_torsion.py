"""Torsion of acyclic complexes: classes, formulas, filtrations.

Expected unit classes for the small cases are frozen from hand
computation: a 1x1 acyclic complex has torsion the class of its only
entry, and block-triangular assemblies multiply determinants.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import propalg.coefficients as co
import propalg.corpus as corpus
import propalg.duality_verifier as dv
import propalg.torsion as torsion
from propalg.chains import (
    BasedComplex,
    ChainHomotopy,
    ChainMap,
    _contraction,
    complex_from_int,
    cone,
    find_contraction,
    is_contraction_through,
    tensor,
)
from propalg.coefficients import (
    GroupSpec,
    UnitClass,
)
from dense_reference import rmat_eye, rmat_is_zero, rmat_mul, rmat_sub, rmat_zero
from propalg.torsion import (
    K1Class,
    check_product_formula,
    check_subdivision,
    check_sum_formula,
    composition_torsion,
    torsion_basis_change,
    torsion_of_acyclic,
    torsion_with_homology,
)
from test_reference_oracles import dense_odd_to_even, ref_contraction

Z = GroupSpec("trivial")
LAURENT = GroupSpec("infinite-cyclic")
C5 = GroupSpec("cyclic", 5)


def one_step(ring, u):
    """0 -> R --(u)--> R -> 0 concentrated in degrees 1, 0."""
    return BasedComplex(ring, {0: 1, 1: 1}, {1: [[u]]})


def unit_c5():
    # g + g^4 - 1, inverse g^2 + g^3 - 1
    return C5.from_terms({1: 1, 4: 1, 0: -1})


def unit_c5_inv():
    return C5.from_terms({2: 1, 3: 1, 0: -1})


class TestK1Class:
    def test_unit_example_inverse_identity(self):
        u, v = unit_c5(), unit_c5_inv()
        assert (u * v).is_one
        cls = UnitClass(u, v)
        assert not cls.is_trivial

    def test_from_matrix_and_triviality(self):
        cls = K1Class.from_matrix(LAURENT, [[LAURENT.monomial(3, -1)]])
        assert cls.is_trivial()
        cls2 = K1Class.from_matrix(C5, [[unit_c5()]])
        assert not cls2.is_trivial()

    def test_equality_is_decided_by_the_determinant(self):
        a = K1Class.from_matrix(C5, [[unit_c5()]])
        b = K1Class.from_matrix(C5, [[unit_c5() * C5.monomial(2, -1)]])
        assert a == b
        c = K1Class.trivial(C5)
        assert a != c

    def test_product_stacks_blocks(self):
        a = K1Class.from_matrix(C5, [[unit_c5()]])
        p = a * a
        assert len(p.mat) == 2
        assert p.det == UnitClass.from_element(unit_c5() * unit_c5())

    def test_inverse_and_power(self):
        a = K1Class.from_matrix(C5, [[unit_c5()]])
        assert (a * a.inv()).is_trivial()
        sq = a ** 2
        assert sq.det == UnitClass.from_element(unit_c5() * unit_c5())
        assert (a ** (-1)).det == a.det.inv()

    def test_non_unit_matrix_rejected(self):
        with pytest.raises(ValueError):
            K1Class.from_matrix(Z, [[Z.monomial(0, 2)]])

    def test_trivial_class_prints_det_one(self):
        assert repr(K1Class.trivial(C5)) == "K1Class(det=1)"
        assert repr(K1Class.from_matrix(C5, [[C5.monomial(3, -1)]])) == "K1Class(det=1)"
        assert repr(K1Class.from_matrix(LAURENT, [[LAURENT.monomial(2, -1)]])) == "K1Class(det=1)"
        a = K1Class.from_matrix(C5, [[unit_c5()]])
        b = K1Class.from_matrix(C5, [[unit_c5() * C5.monomial(2, -1)]])
        assert repr(a) == repr(b) != "K1Class(det=1)"

    def test_product_needs_a_common_ring(self):
        with pytest.raises(ValueError, match=r"ring mismatch"):
            K1Class.trivial(C5) * K1Class.trivial(LAURENT)

    def test_json_shape(self):
        j = K1Class.from_matrix(LAURENT, [[LAURENT.monomial(1)]]).to_json()
        assert set(j) == {"det", "representative"}


class TestTorsionOfAcyclic:
    def test_identity_complex_trivial(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[1]]})
        assert torsion_of_acyclic(C).is_trivial()

    def test_t_complex_trivial_unit(self):
        C = one_step(LAURENT, LAURENT.monomial(1))
        cls = torsion_of_acyclic(C)
        assert cls.is_trivial()
        assert cls.det.unit == LAURENT.monomial(1)

    def test_cyclic5_unit_class(self):
        C = one_step(C5, unit_c5())
        cls = torsion_of_acyclic(C)
        assert not cls.is_trivial()
        assert cls.det == UnitClass(unit_c5(), unit_c5_inv())

    def test_not_acyclic_names_homology(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[2]]})
        with pytest.raises(ValueError, match=r"H_0"):
            torsion_of_acyclic(C)

    def test_not_acyclic_over_c5_names_homology(self):
        # 1 + g is not a unit of Z[C_5]: on the underlying integers it has
        # determinant 2, so H_0 = Z/2, and the exact search proves it
        C = one_step(C5, C5.one() + C5.monomial(1))
        with pytest.raises(ValueError, match=r"not acyclic: H_0 = \(0, \(2,\)\)"):
            torsion_of_acyclic(C)

    def test_longer_complex_and_contraction_independence(self):
        # 0 -> Z -> Z^2 -> Z -> 0, acyclic: x -> (x, 0), (a, b) -> b
        C = complex_from_int(Z, {0: 1, 1: 2, 2: 1},
                             {1: [[0, 1]], 2: [[1], [0]]})
        assert torsion_of_acyclic(C).is_trivial()

    def test_laurent_two_step(self):
        # d2 = (t), d1 = 0 fails acyclicity; instead stack two unit steps
        C = BasedComplex(LAURENT, {0: 1, 1: 2, 2: 1}, {
            1: [[LAURENT.monomial(1), LAURENT.one()]],
            2: [[LAURENT.one()], [-LAURENT.monomial(1)]],
        })
        cls = torsion_of_acyclic(C)
        # det of [[t, 1],[stacked]] pairing: the class is trivial mod +-t^k
        assert cls.is_trivial()

    def test_cone_of_identity_trivial_for_sample_complexes(self):
        from propalg.corpus import SPACES
        from propalg.simplicial_products import boundary_complex
        for name in ("point", "circle3", "sphere", "rp2", "moebius"):
            K = SPACES[name]()
            C = boundary_complex(K)
            cls = torsion_of_acyclic(cone(ChainMap.identity(C)))
            assert cls.is_trivial(), name


class TestBasisChange:
    def test_identity_bases(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[1]]})
        cls = torsion_basis_change(C, {0: [[1]], 1: [[1]]})
        assert cls.is_trivial()

    def test_transposition_trivial_mod_sign(self):
        C = complex_from_int(Z, {0: 2, 1: 2}, {1: [[1, 0], [0, 1]]})
        cls = torsion_basis_change(C, {0: [[0, 1], [1, 0]]})
        assert cls.is_trivial()

    def test_scaling_by_group_element_trivial(self):
        C = one_step(LAURENT, LAURENT.monomial(1))
        cls = torsion_basis_change(C, {1: [[LAURENT.monomial(2)]]})
        assert cls.is_trivial()

    def test_nontrivial_scaling_detected(self):
        C = one_step(C5, C5.one())
        cls = torsion_basis_change(C, {0: [[unit_c5()]]})
        assert not cls.is_trivial()
        assert cls.det == UnitClass(unit_c5(), unit_c5_inv())

    def test_alternating_sign_cancels_same_change(self):
        # same unit in adjacent degrees cancels: (-1)^0 + (-1)^1
        C = one_step(C5, C5.one())
        cls = torsion_basis_change(C, {0: [[unit_c5()]], 1: [[unit_c5()]]})
        assert cls.is_trivial()

    def test_non_invertible_rejected(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[1]]})
        with pytest.raises(ValueError):
            torsion_basis_change(C, {0: [[2]]})

    def test_matches_torsion_difference_on_acyclic(self):
        # over Z[C5]: rebase the target of a unit boundary, recompute
        u = unit_c5()
        C = one_step(C5, u)
        rebased = BasedComplex(C5, {0: 1, 1: 1}, {1: [[u * unit_c5()]]})
        # new basis of degree 0 differs by unit_c5: tau' - tau = [u5]^{(-1)^0}
        diff = torsion_of_acyclic(rebased).det * torsion_of_acyclic(C).det.inv()
        change = torsion_basis_change(C, {0: [[unit_c5()]]})
        assert diff == change.det

    def test_bc_cd_chains_to_bd(self):
        rng = random.Random(41)
        C = complex_from_int(Z, {0: 2, 1: 2}, {1: [[1, 0], [0, 1]]})
        for _ in range(10):
            # unimodular b->c and c->d built from shears
            def shear():
                M = [[1, 0], [0, 1]]
                M[0][1] = rng.randrange(-3, 4)
                if rng.random() < 0.5:
                    M = [list(r) for r in zip(*M)]
                return M
            bc, cd = shear(), shear()
            bd = [[sum(bc[i][k] * cd[k][j] for k in range(2)) for j in range(2)]
                  for i in range(2)]
            lhs = torsion_basis_change(C, {0: bc}) * torsion_basis_change(C, {0: cd})
            rhs = torsion_basis_change(C, {0: bd})
            assert lhs == rhs


class TestSumFormula:
    def test_summand_with_zero(self):
        C = one_step(LAURENT, LAURENT.monomial(1))
        incl = ChainMap.identity(C)
        zero = BasedComplex(LAURENT, {}, {})
        proj = ChainMap(C, zero, {}, check=False)
        rep = check_sum_formula(incl, proj)
        assert rep["verdict"] == "PASS"

    def test_direct_sum_t_and_t2(self):
        from propalg.chains import direct_sum
        A = one_step(LAURENT, LAURENT.monomial(1))
        B = one_step(LAURENT, LAURENT.monomial(2))
        T = direct_sum(A, B)
        incl = ChainMap(A, T, {0: [[LAURENT.one()], [LAURENT.zero()]],
                               1: [[LAURENT.one()], [LAURENT.zero()]]})
        proj = ChainMap(T, B, {0: [[LAURENT.zero(), LAURENT.one()]],
                               1: [[LAURENT.zero(), LAURENT.one()]]})
        rep = check_sum_formula(incl, proj)
        assert rep["verdict"] == "PASS"
        # t * t^2 = t^3: all trivial units, but the raw dets multiply
        T3 = torsion_of_acyclic(T)
        assert T3.det.unit == LAURENT.monomial(3)

    def test_block_triangular_extension_over_c5(self):
        u = unit_c5()
        A = one_step(C5, u)
        B = one_step(C5, C5.one())
        # total: boundary [[u, g], [0, 1]] in the basis (A0, B0) <- (A1, B1)
        T = BasedComplex(C5, {0: 2, 1: 2}, {1: [[u, C5.monomial(1)],
                                                [C5.zero(), C5.one()]]})
        incl = ChainMap(A, T, {0: [[C5.one()], [C5.zero()]],
                               1: [[C5.one()], [C5.zero()]]})
        proj = ChainMap(T, B, {0: [[C5.zero(), C5.one()]],
                               1: [[C5.zero(), C5.one()]]})
        rep = check_sum_formula(incl, proj)
        assert rep["verdict"] == "PASS"
        assert torsion_of_acyclic(T).det == UnitClass(u, unit_c5_inv())

    def test_rank_mismatch_fails(self):
        A = one_step(Z, Z.one())
        T = one_step(Z, Z.one())
        incl = ChainMap.identity(A)
        proj = ChainMap(T, A, {0: [[Z.one()]], 1: [[Z.one()]]})
        rep = check_sum_formula(incl, proj)
        assert rep["verdict"] == "FAIL"
        assert "ranks" in rep["detail"]

    def test_nonzero_composite_fails(self):
        A = one_step(Z, Z.one())
        T = complex_from_int(Z, {0: 2, 1: 2}, {1: [[1, 0], [0, 1]]})
        incl = ChainMap(A, T, {0: [[Z.one()], [Z.zero()]],
                               1: [[Z.one()], [Z.zero()]]})
        proj = ChainMap(T, A, {0: [[Z.one(), Z.zero()]],
                               1: [[Z.one(), Z.zero()]]})
        rep = check_sum_formula(incl, proj)
        assert rep["verdict"] == "FAIL"
        assert "nonzero" in rep["detail"]


    def test_section_missed_in_the_laurent_window_is_unknown(self, monkeypatch):
        # the projection t^3 on C = (t) has the section t^-3, inside the
        # window [-6, 6] that ring_solve derives from t^3; no small input
        # makes that window miss, so the miss is forced
        incl, proj = self._sections_of_t3()
        assert check_sum_formula(incl, proj)["verdict"] == "PASS"
        monkeypatch.setattr(torsion, "_ring_solve", lambda *args: (None, ("window", 6)))
        rep = check_sum_formula(incl, proj)
        assert rep["verdict"] == "UNKNOWN"
        assert rep["detail"] == ("degree 0: no section of the projection "
                                 "within the exponent window [-6, 6]")

    def test_a_section_miss_reports_the_window_of_its_solve(self, monkeypatch):
        # the detail prints the window the solve searched, not one worked
        # out again from the system
        monkeypatch.setattr(torsion, "_ring_solve", lambda *args: (None, ("window", 5)))
        rep = check_sum_formula(*self._sections_of_t3())
        assert rep["verdict"] == "UNKNOWN"
        assert rep["detail"].endswith("within the exponent window [-5, 5]")

    @staticmethod
    def _sections_of_t3():
        # the zero inclusion and the projection t^3 on C = (t)
        t3 = LAURENT.monomial(3)
        C = one_step(LAURENT, LAURENT.monomial(1))
        zero = BasedComplex(LAURENT, {}, {})
        return ChainMap(zero, C, {}, check=False), ChainMap(C, C, {0: [[t3]], 1: [[t3]]})

    @pytest.mark.parametrize("ring", (LAURENT, C5), ids=("laurent", "C5"))
    def test_zero_projection_has_no_section_over_every_ring(self, ring):
        # C = (R --t--> R) and the zero projection C -> C: the row 0 = 1
        # proves there is no section, over Z[t,t^-1] as over Z[C_5]
        C = one_step(ring, ring.monomial(1))
        zero = BasedComplex(ring, {}, {})
        proj = ChainMap(C, C, {})
        rep = check_sum_formula(ChainMap(zero, C, {}, check=False), proj)
        assert rep["verdict"] == "FAIL"
        assert rep["detail"] == "degree 0: no section of the projection"

    def test_missing_section_over_c5_fails(self):
        # the exact rings keep FAIL: 1 + g is not a unit of Z[C_5]
        C = one_step(C5, unit_c5())
        zero = BasedComplex(C5, {}, {})
        v = C5.one() + C5.monomial(1)
        proj = ChainMap(C, C, {0: [[v]], 1: [[v]]})
        rep = check_sum_formula(ChainMap(zero, C, {}, check=False), proj)
        assert rep["verdict"] == "FAIL"
        assert rep["detail"] == "degree 0: no section of the projection"


class TestSubdivision:
    def test_one_step_filtration(self):
        C = one_step(C5, unit_c5())
        rep = check_subdivision(C, [{0: 1, 1: 1}])
        assert rep["verdict"] == "PASS"

    def test_expansion_filtration(self):
        # elementary expansion (unimodular upper triangular boundary),
        # filtered by the first cell pair then everything
        C = complex_from_int(Z, {0: 2, 1: 2}, {1: [[1, 1], [0, 1]]})
        rep = check_subdivision(C, [{0: 1, 1: 1}, {0: 2, 1: 2}])
        assert rep["verdict"] == "PASS"
        assert torsion_of_acyclic(C).is_trivial()

    def test_interval_subdivision_cone(self):
        # cone of the subdivision map of an edge, subdivided-complex block
        # first so the filtration is by prefixes: stage 0 = the subdivided
        # interval (vertices v0, m, v1; edges e0, e1), stage 1 = the old
        # cells shifted up one degree.
        C = complex_from_int(Z, {0: 3, 1: 4, 2: 1}, {
            # columns e0, e1, v0~, v1~; rows v0, m, v1
            1: [[-1, 0, -1, 0],
                [1, -1, 0, 0],
                [0, 1, 0, -1]],
            # column e~: boundary -e0 - e1 + v0~ - v1~
            2: [[-1], [-1], [1], [-1]],
        })
        rep = check_subdivision(C, [{0: 3, 1: 2}, {0: 3, 1: 4, 2: 1}])
        assert rep["verdict"] == "PASS"
        assert torsion_of_acyclic(C).is_trivial()

    def test_filtered_c5_assembly(self):
        u = unit_c5()
        T = BasedComplex(C5, {0: 2, 1: 2}, {1: [[u, C5.monomial(1)],
                                                [C5.zero(), C5.one()]]})
        rep = check_subdivision(T, [{0: 1, 1: 1}, {0: 2, 1: 2}])
        assert rep["verdict"] == "PASS"

    def test_filtration_must_be_subcomplexes(self):
        # first prefix is not closed: boundary of the second 1-cell
        # hits the second 0-cell
        C = complex_from_int(Z, {0: 2, 1: 2}, {1: [[1, 0], [0, 1]]})
        rep = check_subdivision(C, [{0: 1, 1: 2}, {0: 2, 1: 2}])
        assert rep["verdict"] == "FAIL"
        assert "prefix" in rep["detail"]

    def test_filtration_must_exhaust(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[1]]})
        rep = check_subdivision(C, [{0: 1, 1: 0}])
        assert rep["verdict"] == "FAIL"

    def test_stage_homology_hypothesis_checked(self):
        # one-stage filtration of a complex concentrated in degrees 0..1:
        # stage 0 quotient is the whole complex, whose H_1 can be nonzero
        C = complex_from_int(Z, {0: 1, 1: 2}, {1: [[1, -1]]})
        rep = check_subdivision(C, [{0: 1, 1: 2}])
        assert rep["verdict"] == "FAIL"
        assert "H_1" in rep["detail"] or "hypothesis" in rep["detail"]

    def test_a_stage_that_is_no_complex_fails(self):
        # d_1 d_2 = 1: the boundary of the 2-cell is no cycle, so the
        # boundaries of the stage escape its cycle lattice
        C = complex_from_int(Z, {0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})
        rep = check_subdivision(C, [{0: 1, 1: 1, 2: 1}])
        assert rep["verdict"] == "FAIL"
        assert rep["detail"] == "stage 0: boundaries escape the cycle lattice"

    def test_stage_homology_with_torsion_fails(self):
        # the one stage is Z --2--> Z, whose homology Z/2 sits in the
        # stage degree 0 but has no basis
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[2]]})
        rep = check_subdivision(C, [{0: 1, 1: 1}])
        assert rep["verdict"] == "FAIL"
        assert rep["detail"] == "stage 0: homology has torsion, no basis exists"

    def test_connecting_map_missed_in_the_laurent_window_is_unknown(self, monkeypatch):
        # stages: the 0-cell, then the 1-cell with boundary t^3; the
        # connecting map has coordinate t^3, inside the window [-6, 6]
        # that ring_solve derives, so the miss is forced
        C = one_step(LAURENT, LAURENT.monomial(3))
        filtration = [{0: 1}, {0: 1, 1: 1}]
        assert check_subdivision(C, filtration)["verdict"] == "PASS"
        monkeypatch.setattr(torsion, "_ring_solve", lambda *args: (None, ("window", 6)))
        rep = check_subdivision(C, filtration)
        assert rep["verdict"] == "UNKNOWN"
        assert rep["detail"] == ("connecting map at stage 1 has no coordinates in degree 0 "
                                 "within the exponent window [-6, 6]")

    def test_connecting_map_proved_missing_over_laurent_fails(self, monkeypatch):
        # a proof of no solution is a FAIL over Z[t,t^-1] too; no small
        # input lacks coordinates, so the proof is forced
        C = one_step(LAURENT, LAURENT.monomial(3))
        monkeypatch.setattr(torsion, "_ring_solve", lambda *args: (None, "no solution"))
        rep = check_subdivision(C, [{0: 1}, {0: 1, 1: 1}])
        assert rep["verdict"] == "FAIL"
        assert rep["detail"] == "connecting map at stage 1 has no coordinates in degree 0"


class TestProductFormula:
    def test_point_factor(self):
        C = one_step(C5, unit_c5())
        D = complex_from_int(Z, {0: 1}, {})
        rep = check_product_formula(C, D)
        assert rep["verdict"] == "PASS"

    def test_circle_factor_kills_torsion(self):
        C = one_step(C5, unit_c5())
        circle = complex_from_int(Z, {0: 1, 1: 1}, {1: [[0]]})
        rep = check_product_formula(C, circle)
        assert rep["verdict"] == "PASS"
        assert torsion_of_acyclic(tensor(C, circle)).is_trivial()

    def test_sphere_factor_squares(self):
        # minimal cell model of the sphere: one 0-cell, one 2-cell
        C = one_step(C5, unit_c5())
        D = complex_from_int(Z, {0: 1, 2: 1}, {})
        assert D.euler() == 2
        rep = check_product_formula(C, D)
        assert rep["verdict"] == "PASS"
        want = UnitClass.from_element(unit_c5() * unit_c5())
        assert torsion_of_acyclic(tensor(C, D)).det == want

    def test_simplicial_sphere_factor(self):
        # the boundary of the 3-simplex as a heavier chi = 2 instance,
        # over the integers so the determinant work stays cheap
        from propalg.corpus import sphere2
        from propalg.simplicial_products import boundary_complex
        C = one_step(Z, Z.one())
        D = boundary_complex(sphere2())
        assert D.euler() == 2
        rep = check_product_formula(C, D)
        assert rep["verdict"] == "PASS"

    def test_interval_factor_chi_one(self):
        C = one_step(LAURENT, LAURENT.monomial(1))
        D = complex_from_int(Z, {0: 2, 1: 1}, {1: [[1], [-1]]})
        assert D.euler() == 1
        rep = check_product_formula(C, D)
        assert rep["verdict"] == "PASS"


class TestComposition:
    def test_identity_pair(self):
        C = one_step(Z, Z.one())
        rep = composition_torsion(ChainMap.identity(C), ChainMap.identity(C))
        assert rep["verdict"] == "PASS"

    def test_maps_that_do_not_compose_fail(self):
        C, D = one_step(C5, C5.one()), BasedComplex(C5, {0: 2}, {})
        rep = composition_torsion(ChainMap.identity(C), ChainMap.identity(D))
        assert rep["verdict"] == "FAIL"
        assert rep["detail"] == "g does not compose after f"

    def test_t_times_t_squared(self):
        A = BasedComplex(LAURENT, {0: 1}, {})
        f = ChainMap(A, A, {0: [[LAURENT.monomial(1)]]})
        g = ChainMap(A, A, {0: [[LAURENT.monomial(2)]]})
        rep = composition_torsion(f, g)
        assert rep["verdict"] == "PASS"
        from propalg.chains import cone as mk_cone
        assert torsion_of_acyclic(mk_cone(g.compose(f))).det == \
            UnitClass.from_element(-LAURENT.monomial(3))

    def test_permutation_after_scaling(self):
        A = BasedComplex(C5, {0: 2}, {})
        f = ChainMap(A, A, {0: [[unit_c5(), C5.zero()], [C5.zero(), C5.one()]]})
        g = ChainMap(A, A, {0: [[C5.zero(), C5.one()], [C5.one(), C5.zero()]]})
        rep = composition_torsion(f, g)
        assert rep["verdict"] == "PASS"

    def test_non_equivalence_reported(self):
        A = BasedComplex(Z, {0: 1}, {})
        f = ChainMap(A, A, {0: [[Z.monomial(0, 2)]]})
        rep = composition_torsion(f, ChainMap.identity(A))
        assert rep["verdict"] == "FAIL"
        assert "H_0" in rep["detail"] or "acyclic" in rep["detail"]


class TestWithHomology:
    def test_zero_differential_over_c5(self):
        C = BasedComplex(C5, {0: 1, 1: 1}, {1: [[C5.zero()]]})
        cls = torsion_with_homology(C, {0: [[C5.one()]], 1: [[unit_c5()]]})
        # degree 1 enters inverted
        assert cls.det == UnitClass(unit_c5(), unit_c5_inv()).inv()

    def test_integer_circle_bases(self):
        # circle: ranks (1, 1), zero boundary; H_0 = H_1 = Z
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[0]]})
        cls = torsion_with_homology(C, {0: [[1]], 1: [[1]]})
        assert cls.is_trivial()
        cls2 = torsion_with_homology(C, {0: [[1]], 1: [[-1]]})
        assert cls2.is_trivial()

    def test_integer_with_boundaries(self):
        # d1 = [[1,-1],[-1,1]]: H_0 = Z on the class of the first vertex,
        # H_1 = Z on the cycle (1, 1)
        C = complex_from_int(Z, {0: 2, 1: 2}, {1: [[1, -1], [-1, 1]]})
        cls = torsion_with_homology(C, {0: [[1, 0]], 1: [[1, 1]]})
        assert cls.is_trivial()

    def test_wrong_basis_size_rejected(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[0]]})
        with pytest.raises(ValueError):
            torsion_with_homology(C, {0: [[1]], 1: []})

    def test_acyclic_reduces_to_plain_torsion(self):
        C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[1]]})
        cls = torsion_with_homology(C, {})
        assert cls == torsion_of_acyclic(C)

    def test_nontrivial_ring_with_differential_rejected(self):
        C = one_step(C5, unit_c5())
        cls = torsion_with_homology(C, {})   # acyclic: fine
        assert cls == torsion_of_acyclic(C)
        D = BasedComplex(C5, {0: 1, 1: 2}, {1: [[unit_c5(), C5.zero()]]})
        with pytest.raises(ValueError, match="zero differentials|acyclic"):
            torsion_with_homology(D, {1: [[C5.zero()], [C5.one()]]})


# ---------------------------------------------------------------------------
# independence of the contraction: a second contraction as an oracle
# ---------------------------------------------------------------------------


def _perturbed(C, D, E):
    """D + dE - Ed for a degree +2 map E; None when nothing changed.

    The perturbed operator is a contraction for any E since the cross
    terms cancel against d squared being zero.
    """
    ring = C.ring
    mats = {}
    changed = False
    for k in C.degrees():
        Ek = E.get(k, rmat_zero(ring, C.rank(k + 2), C.rank(k)))
        Ekm = E.get(k - 1, rmat_zero(ring, C.rank(k + 1), C.rank(k - 1)))
        dE = rmat_mul(ring, C.boundary(k + 2), Ek, C.rank(k + 1), C.rank(k + 2), C.rank(k))
        Ed = rmat_mul(ring, Ekm, C.boundary(k), C.rank(k + 1), C.rank(k - 1), C.rank(k))
        term = rmat_sub(dE, Ed)
        mats[k] = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(D.mat(k), term)]
        if not rmat_is_zero(term):
            changed = True
    if not changed:
        return None
    out = ChainHomotopy(C, C, mats)
    return out if is_contraction_through(C, out, C.hi) else None


def _second_contraction(C, D):
    """A contraction different from D, or D itself when none can be made.

    First candidate perturbation is E = D after D; if that commutes away,
    single-entry perturbations are tried.  A complex supported on two
    adjacent degrees has a unique contraction (the inverse of d), so
    returning D unchanged there is exact, not a shortcut.
    """
    ring = C.ring
    E = {}
    for k in C.degrees():
        E[k] = rmat_mul(ring, D.mat(k + 1), D.mat(k), C.rank(k + 2), C.rank(k + 1), C.rank(k))
    out = _perturbed(C, D, E)
    if out is not None:
        return out
    # single-entry E at (i, j) is visible exactly when column i of the
    # boundary two degrees up or row j of the boundary one degree up is
    # nonzero, so scan for such a spot instead of trying every position
    for k in C.degrees():
        if not (C.rank(k) and C.rank(k + 2)):
            continue
        d_up = C.boundary(k + 2)
        col = next((i for i in range(C.rank(k + 2))
                    if any(not d_up[r][i].is_zero for r in range(C.rank(k + 1)))), None)
        d_mid = C.boundary(k + 1)
        row = next((j for j in range(C.rank(k))
                    if any(not d_mid[j][c].is_zero for c in range(C.rank(k + 1)))), None)
        Eone = rmat_zero(ring, C.rank(k + 2), C.rank(k))
        if col is not None:
            Eone[col][0] = ring.one()
        elif row is not None:
            Eone[0][row] = ring.one()
        else:
            continue
        out = _perturbed(C, D, {k: Eone})
        if out is not None:
            return out
    return D


def _duality_cone(monkeypatch, X, ring, voltage):
    # the mapping cone whose torsion duality_torsion reads
    seen = []
    monkeypatch.setattr(dv, "torsion_of_acyclic", lambda C: seen.append(C) or K1Class.trivial(ring))
    dv.duality_torsion(X, dv.fundamental_class(X), ring, voltage)
    monkeypatch.undo()
    return seen[0]


def _contraction_cases(monkeypatch):
    for name in ("circle-laurent", "circle-c5", "torus-laurent"):
        yield name, cone(ChainMap.identity(corpus.EQUIVARIANT[name]()))
    yield "torus_grid(3) over Z[C_5]", _duality_cone(
        monkeypatch, corpus.torus_grid(3), C5, corpus.torus_voltage(3))
    yield "circle(16) over Z[t,t^-1]", _duality_cone(
        monkeypatch, corpus.circle(16), LAURENT, corpus.circle_voltage(16))


def test_torsion_does_not_depend_on_the_contraction(monkeypatch):
    for name, C in _contraction_cases(monkeypatch):
        D = find_contraction(C, C.hi)
        D2 = _second_contraction(C, D)
        assert D2 is not D, name
        assert any(D2.mat(k) != D.mat(k) for k in C.degrees()), name
        first = K1Class.from_matrix(C.ring, dense_odd_to_even(C, D))
        second = K1Class.from_matrix(C.ring, dense_odd_to_even(C, D2))
        assert first == second, name


# ---------------------------------------------------------------------------
# exact-first contractions against the expansion-only search as an oracle
# ---------------------------------------------------------------------------


def _det(C, D):
    # the determinant of the odd-to-even matrix, as a ring element
    return K1Class.from_matrix(C.ring, dense_odd_to_even(C, D)).det.unit


def _no_expansion(*args):
    raise AssertionError("the integer expansion ran")


def test_unit_pivot_and_windowed_contractions_give_equal_determinants(monkeypatch):
    # the expansion-only search is slowest on the Klein bottle cone, which
    # is checked on its own below
    cases = [(name, cone(ChainMap.identity(corpus.EQUIVARIANT[name]())))
             for name in ("circle-laurent", "circle-c5", "torus-laurent")]
    cases += [("circle(4) over Z[C_5]", _duality_cone(
        monkeypatch, corpus.circle(4), C5, corpus.circle_voltage(4)))]
    cases += list(_contraction_cases(monkeypatch))[3:]
    for name, C in cases:
        # unit pivots alone clear every degree
        with monkeypatch.context() as m:
            m.setattr(co, "_expansion_solve", _no_expansion)
            H, why = _contraction(C, C.hi)
        assert why is None, name
        assert is_contraction_through(C, H, C.hi), name
        W = ref_contraction(C, C.hi)
        assert _det(C, H) == _det(C, W), name
        assert torsion_of_acyclic(C).det.unit == _det(C, H), name
    dets = {name: _det(C, find_contraction(C, C.hi)) for name, C in cases[3:]}
    assert dets == {"circle(4) over Z[C_5]": -C5.monomial(4),
                    "torus_grid(3) over Z[C_5]": -C5.one(),
                    "circle(16) over Z[t,t^-1]": -LAURENT.monomial(-1)}


def test_unit_pivots_clear_the_klein_and_laurent_torus_cones(monkeypatch):
    # the expansion-only oracle is left out here, the slowest of its
    # inputs, so the exact contraction is checked against the known
    # trivial class
    cases = [cone(ChainMap.identity(corpus.EQUIVARIANT["klein-laurent"]())),
             _duality_cone(monkeypatch, corpus.torus_grid(3), LAURENT, corpus.torus_voltage(3))]
    monkeypatch.setattr(co, "_expansion_solve", _no_expansion)
    for C in cases:
        H, why = _contraction(C, C.hi)
        assert why is None
        assert is_contraction_through(C, H, C.hi)
        assert K1Class.from_matrix(C.ring, dense_odd_to_even(C, H)).is_trivial()
        assert torsion_of_acyclic(C).det.unit == _det(C, H)


def test_unit_pairing_reads_the_benchmark_torsions_with_no_contraction(monkeypatch):
    # every cell of both cones is paired by a trivial-unit pivot, so no
    # contraction is searched
    def no_search(*args):
        raise AssertionError("the contraction search ran")

    monkeypatch.setattr(torsion, "_contraction", no_search)
    cases = [(corpus.torus_grid(3), C5, corpus.torus_voltage(3), -C5.one()),
             (corpus.circle(16), LAURENT, corpus.circle_voltage(16), -LAURENT.monomial(-1))]
    for X, ring, voltage, det in cases:
        tau = dv.duality_torsion(X, dv.fundamental_class(X), ring, voltage)
        assert tau.det.unit == det
        assert tau.mat == [[det]]


def _automorphism(data, ring, n):
    """An n x n based automorphism as a product of elementary operations.

    A row gains a multiple of another row by an element of up to two
    terms, so the entries are seldom trivial units and the integer
    expansion runs on many draws; or a row is scaled by a unit, over Z[C_5]
    possibly the nontrivial one.
    """
    units = [ring.monomial(1), -ring.one()] + ([unit_c5()] if ring == C5 else [])
    M = rmat_eye(ring, n)
    for _ in range(data.draw(st.integers(1, 4))):
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if i == j:
            u = data.draw(st.sampled_from(units))
            M[i] = [u * x for x in M[i]]
        else:
            a = ring.from_terms(data.draw(st.dictionaries(st.integers(-1, 1), st.integers(-2, 2),
                                                          min_size=1, max_size=2)))
            M[i] = [x + a * y for x, y in zip(M[i], M[j])]
    return M


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((C5, LAURENT)), st.integers(1, 2), st.booleans(), st.data())
def test_unit_pivot_contraction_agrees_with_the_windowed_search(ring, n, interval, data):
    A = BasedComplex(ring, {0: n}, {})
    C = cone(ChainMap(A, A, {0: _automorphism(data, ring, n)}))
    if interval:
        # three degrees, so the contraction is no longer unique
        C = tensor(C, complex_from_int(Z, {0: 2, 1: 1}, {1: [[1], [-1]]}))
    W = ref_contraction(C, C.hi)
    F = find_contraction(C, C.hi)
    assert is_contraction_through(C, W, C.hi)
    assert is_contraction_through(C, F, C.hi)
    assert _det(C, F) == _det(C, W)
    H, why = _contraction(C, C.hi)
    assert (H is None) == (why is not None)
    if H is not None:
        assert is_contraction_through(C, H, C.hi)
        assert _det(C, H) == _det(C, W)
        assert torsion_of_acyclic(C).det.unit == _det(C, W)


def _no_unit_entry_cone():
    # [[2 + t, 3 + t], [1 + t, 2 + t]] has determinant 1 and no entry +-t^k
    t, one = LAURENT.monomial(1), LAURENT.one()
    M = [[one * 2 + t, one * 3 + t], [one + t, one * 2 + t]]
    A = BasedComplex(LAURENT, {0: 2}, {})
    return ChainMap(A, A, {0: M})


def test_a_core_without_unit_pivots_goes_to_the_windowed_search(monkeypatch):
    # degree 0 has no trivial unit to pivot on, so its solve is expanded
    # to integers in the first contraction window
    C = cone(_no_unit_entry_cone())
    seen, expand = [], co._expansion_solve
    monkeypatch.setattr(co, "_expansion_solve",
                        lambda *args: seen.append(args[-1]) or expand(*args))
    H = find_contraction(C, C.hi)
    assert seen == [4]
    assert is_contraction_through(C, H, C.hi)
    assert _det(C, H) == _det(C, ref_contraction(C, C.hi))
    assert torsion_of_acyclic(C).is_trivial()
    # a miss in the first window is solved once more, in the second
    def wide_only(*args):
        seen.append(args[-1])
        return expand(*args) if args[-1] > 4 else None

    seen.clear()
    monkeypatch.setattr(co, "_expansion_solve", wide_only)
    H = find_contraction(C, C.hi)
    assert seen == [4, 8]
    assert _det(C, H) == _det(C, ref_contraction(C, C.hi))


def test_a_laurent_window_miss_is_unknown(monkeypatch):
    # only the expansion of a core without trivial units can miss its
    # window; no corpus or tier-1 complex makes it miss, so the miss is
    # forced here, in both windows [-4, 4] and [-8, 8]
    monkeypatch.setattr(co, "_expansion_solve", lambda *args: None)
    f = _no_unit_entry_cone()
    C = cone(f)
    with pytest.raises(ValueError, match=r"exponent window \[-8, 8\]"):
        torsion_of_acyclic(C)
    rep = composition_torsion(f, ChainMap.identity(f.source))
    assert rep["verdict"] == "UNKNOWN"
    assert rep["detail"] == "degree 0: no contraction found within the exponent window [-8, 8]"
    assert check_product_formula(C, complex_from_int(Z, {0: 1}, {}))["verdict"] == "UNKNOWN"
    assert check_sum_formula(ChainMap.identity(C),
                             ChainMap(C, BasedComplex(LAURENT, {}, {}), {}, check=False)
                             )["verdict"] == "UNKNOWN"
    rep = check_subdivision(C, [{0: 2, 1: 2}])
    assert rep == {"verdict": "UNKNOWN", "det": None, "representative": None,
                   "detail": "stage 0: degree 0: no contraction found within the exponent window "
                             "[-8, 8]"}


def test_a_window_miss_expands_each_window_once(monkeypatch):
    # Λ --(1+t)--> Λ has no contraction (H_0 = Λ/(1+t)); its one core is
    # expanded in window 4 and then 8, and the miss is read off that pass
    # rather than a second one
    seen, expand = [], co._expansion_solve
    monkeypatch.setattr(co, "_expansion_solve",
                        lambda *args: seen.append(args[-1]) or expand(*args))
    C = one_step(LAURENT, LAURENT.one() + LAURENT.monomial(1))
    with pytest.raises(torsion._WindowMiss, match=r"exponent window \[-8, 8\]"):
        torsion_of_acyclic(C)
    assert seen == [4, 8]
    seen.clear()
    rep = check_subdivision(C, [{0: 1, 1: 1}])
    assert rep["verdict"] == "UNKNOWN"
    assert seen == [4, 8]


def test_an_inconsistent_row_after_unit_elimination_proves_homology(monkeypatch):
    # over Z[t,t^-1] the boundary (t, 0) leaves the second 0-cell a cycle
    # that bounds nothing; elimination proves it with no window
    monkeypatch.setattr(co, "_expansion_solve", _no_expansion)
    C = BasedComplex(LAURENT, {0: 2, 1: 1}, {1: [[LAURENT.monomial(1)], [LAURENT.zero()]]})
    assert find_contraction(C, C.hi) is None
    with pytest.raises(ValueError, match="not acyclic: H_0 is not zero"):
        torsion_of_acyclic(C)
    rep = check_product_formula(C, complex_from_int(Z, {0: 1}, {}))
    assert rep["verdict"] == "FAIL"
    assert rep["detail"].startswith("not acyclic: H_0")
