from fractions import Fraction

import pytest

from padicforms.arith import valuation
from padicforms.divided import DividedMonomial, OmegaElement, one_monomial
from padicforms.derham import (
    OmegaLevel,
    OmegaLevels,
    SectionComplex,
    apl_cocycle_monomials,
    apl_mod_p,
    build_omega,
    contraction_K,
    contraction_homotopy_defect,
    evaluate_at_point,
    extendability_witness,
    form_class_coordinates,
    homotopy_groups_check,
    mat_vec,
    omega_cohomology,
    omega_degeneracy,
    omega_face,
    omega_of_space,
    rational_poincare_dims,
)
from padicforms.simplicial import boundary_delta, delta, rp2, sphere


def mono(exps, dx=()):
    return DividedMonomial(tuple(exps), tuple(dx))


# -- level lattices -----------------------------------------------------------

def test_level_zero_is_constants():
    lv = build_omega(0, 4, 2)
    assert lv.dims(0) == 1 and lv.basis[0] == [one_monomial(0)]


def test_desk_scale_bounds():
    with pytest.raises(ValueError):
        build_omega(4, 4, 2)
    with pytest.raises(ValueError):
        build_omega(1, 9, 2)


def test_closure_generators_are_p_integral():
    for p in (2, 3):
        for n in (1, 2):
            lv = build_omega(n, 4, p)
            report = lv.closure_comparison()
            assert report["closure_equals_naive_span"]


def test_differential_in_lattice_and_squares_to_zero():
    for p in (2, 3):
        for n in (1, 2):
            lv = build_omega(n, 4, p)
            for k in range(n + 1):
                d1 = lv.diff_matrix(k)
                if k + 1 <= n:
                    d2 = lv.diff_matrix(k + 1)
                    prod = [[sum(d2[i][t] * d1[t][j] for t in range(len(d1)))
                             for j in range(len(d1[0]))] for i in range(len(d2))]
                    assert all(all(x == 0 for x in row) for row in prod)


def test_d_of_divided_square_stays_in_lattice():
    lv = build_omega(1, 3, 2)
    elem = OmegaElement.monomial(mono((2,)))
    image = elem.differential()
    vec = lv.to_vector(image, 1)
    assert any(vec)  # x dx has weight 2 <= 3: inside the truncation


def test_poincare_lemma_level_lattices():
    # reduced cohomology of the level algebra vanishes in positive degrees
    from padicforms.linalg import p_local_cohomology
    for p in (2, 3):
        for n in (1, 2):
            for weight in (4, 5, 6):
                lv = build_omega(n, weight, p)
                for k in range(n + 1):
                    d_prev = lv.diff_matrix(k - 1) if k else \
                        [[] for _ in range(lv.dims(0))]
                    d_cur = lv.diff_matrix(k) if k < n else \
                        []
                    if k == n:
                        d_cur = [[Fraction(0)] * lv.dims(n) for _ in range(0)]
                    rep = p_local_cohomology(
                        [list(map(Fraction, r)) for r in d_prev] if k else
                        [[] for _ in range(lv.dims(0))],
                        [list(map(Fraction, r)) for r in d_cur],
                        p)
                    if k == 0:
                        assert (rep.free_rank, rep.torsion) == (1, [])
                    else:
                        assert (rep.free_rank, rep.torsion) == (0, []), \
                            (p, n, weight, k)


def test_face_and_degeneracy_simplicial_identities():
    # d_i d_j = d_{j-1} d_i on all lattice generators for n <= 2, W <= 4
    for p in (2, 3):
        levels = OmegaLevels(4, p, 2)
        n = 2
        lv = levels.level(n)
        for k in range(n + 1):
            for j in range(n + 1):
                for i in range(j):
                    left = [mat_vec(levels.face_matrix(n - 1, i, k), col)
                            for col in _columns(levels.face_matrix(n, j, k))]
                    right = [mat_vec(levels.face_matrix(n - 1, j - 1, k), col)
                             for col in _columns(levels.face_matrix(n, i, k))]
                    assert left == right, (p, k, i, j)


def _columns(rows):
    if not rows:
        return []
    return [[rows[r][j] for r in range(len(rows))] for j in range(len(rows[0]))]


def test_degeneracy_keeps_lattice():
    levels = OmegaLevels(4, 2, 1)
    x1sq = OmegaElement.monomial(mono((2,)))
    up = omega_degeneracy(levels, 1, 0, x1sq)
    # s_0 at level 1 sends x_1 to x_2
    assert up == OmegaElement(2, {mono((0, 2)): 1})
    up1 = omega_degeneracy(levels, 1, 1, x1sq)
    want = OmegaElement(2, {mono((2, 0)): 1, mono((1, 1)): 1, mono((0, 2)): 1})
    assert up1 == want


def test_face_zero_introduces_p_minus_sum():
    levels = OmegaLevels(4, 2, 1)
    x1 = OmegaElement.monomial(mono((1,)))
    img = omega_face(levels, 1, 0, x1)
    # level 0 chart has no variables: x_1 |-> p
    assert img == OmegaElement(0, {one_monomial(0): Fraction(2)})
    img1 = omega_face(levels, 1, 1, x1)
    assert img1.is_zero()


# -- sections over spaces ------------------------------------------------------

def test_omega_s1_degree0_contains_ideal_generator():
    # x_1^2 - p x_1 = 2 x^[2] - p x: equal vertex values, hence a section
    cx = omega_of_space(sphere(1), 4, 2, 2)
    lv = cx.levels.level(1)
    elem = OmegaElement(1, {mono((2,)): Fraction(2), mono((1,)): Fraction(-2)})
    offs, total = cx.cell_block(0)
    vec = [Fraction(0)] * total
    block = lv.to_vector(elem, 0)
    off, width = offs["cell"]
    for r in range(width):
        vec[off + r] = block[r]
    v_off, v_width = offs["pt"]
    # vertex value is 0 at both ends, so the vertex block stays zero
    coords = cx.express(0, vec)
    assert coords is not None


def test_omega_s1_degree1_is_whole_level():
    # 1-forms have no compatibility constraints on the circle
    cx = omega_of_space(sphere(1), 4, 2, 2)
    lv = cx.levels.level(1)
    assert len(cx.sections[1]) == lv.dims(1)


def test_omega_s1_cohomology_and_generator():
    for p in (2, 3):
        result = omega_cohomology(sphere(1), 4, 1, p)
        reports = result["reports"]
        assert (reports[0].free_rank, reports[0].torsion) == (1, [])
        assert (reports[1].free_rank, reports[1].torsion) == (1, [])
        assert result["stable"][0] and result["stable"][1]
        # the class of dx_1 generates H^1: its coordinates are a p-unit times
        # the generator's
        dx1 = OmegaElement(1, {mono((0,), (1,)): Fraction(1)})
        coords = form_class_coordinates(result, 1, {"cell": dx1})
        assert len(coords) == 1 and valuation(coords[0], p) == 0


def test_omega_sphere2_h2_generator():
    # The weight-truncated lattice acquires a spurious Z/2 in degree 2 from
    # weight 4 on (the generator-wise lattice misses the fills the untruncated
    # theory needs; see the Moore cycle t^[2] - t at level 1, which no
    # lattice element g(x1, x2) with vanishing axis restrictions bounds).
    # The free part behaves as the sphere: rank one, generated by the wedge.
    result = omega_cohomology(sphere(2), 4, 2, 2)
    reports = result["reports"]
    assert (reports[0].free_rank, reports[0].torsion) == (1, [])
    assert (reports[1].free_rank, reports[1].torsion) == (0, [])
    assert (reports[2].free_rank, reports[2].torsion) == (1, [2])
    assert result["stable"][2] is False  # W=3 gives (1, []): flagged unstable
    wedge = OmegaElement(2, {mono((0, 0), (1, 2)): Fraction(1)})
    coords = form_class_coordinates(result, 2, {"cell": wedge})
    # torsion coordinate first, then the free one: the wedge generates the
    # free part (unit coordinate)
    assert valuation(coords[-1], 2) == 0


def test_omega_sphere2_clean_at_low_weight():
    cx = omega_of_space(sphere(2), 3, 2, 2)
    assert cx.cohomology(0).invariants() == (1, [])
    assert cx.cohomology(1).invariants() == (0, [])
    assert cx.cohomology(2).invariants() == (1, [])


def test_omega_rp2_compatibility_relations():
    # the printed edge relations: restrictions of the two triangle forms agree
    cx = omega_of_space(rp2(), 3, 2, 2)
    levels = cx.levels
    for sec in cx.sections[1]:
        offs, _ = cx.cell_block(1)
        oU, wU = offs["U"]
        oV, wV = offs["V"]
        u_block = sec[oU:oU + wU]
        v_block = sec[oV:oV + wV]
        # d_2 U = d_2 V = c forces the third-face restrictions to agree
        left = mat_vec(levels.face_matrix(2, 2, 1), u_block)
        right = mat_vec(levels.face_matrix(2, 2, 1), v_block)
        assert left == right


def test_omega_rp2_cohomology():
    # at weight 3 the projective-plane answer is the singular one: Z/2 in
    # degree 2 and nothing else; from weight 4 on a second spurious Z/2
    # appears (same lattice defect as on the sphere) and the stability flag
    # fires at the transition
    low = omega_cohomology(rp2(), 3, 2, 2)
    inv_low = {q: low["reports"][q].invariants() for q in range(3)}
    assert inv_low == {0: (1, []), 1: (0, []), 2: (0, [2])}
    result2 = omega_cohomology(rp2(), 4, 2, 2)
    inv = {q: result2["reports"][q].invariants() for q in range(3)}
    assert inv == {0: (1, []), 1: (0, []), 2: (0, [2, 2])}
    assert result2["stable"][2] is False
    result3 = omega_cohomology(rp2(), 4, 2, 3)
    inv3 = {q: result3["reports"][q].invariants() for q in range(3)}
    assert inv3 == {0: (1, []), 1: (0, []), 2: (0, [])}


def test_omega_delta_and_boundary():
    res = omega_cohomology(delta(1), 3, 1, 2)
    assert res["reports"][0].invariants() == (1, [])
    assert res["reports"][1].invariants() == (0, [])
    res_b = omega_cohomology(boundary_delta(2), 3, 1, 2)
    # boundary of the triangle is a circle
    assert res_b["reports"][0].invariants() == (1, [])
    assert res_b["reports"][1].invariants() == (1, [])


# -- extendability ---------------------------------------------------------------

def test_extendability_witness_all_weights():
    for p in (2, 3):
        for w in range(1, 7):
            report = extendability_witness(w, p)
            assert not report["extendable"], (p, w)
            assert report["certificate_valid"]
            assert report["control_extendable"]


def test_extendability_evaluation_model():
    # evaluations of the degree-0 basis at the endpoints: [a=0] and p^a/a!
    lv = OmegaLevel(1, 4, 2)
    for monomial in lv.basis[0]:
        e = OmegaElement.monomial(monomial)
        a = monomial.exponents[0]
        v0 = evaluate_at_point(e, (0,))
        v1 = evaluate_at_point(e, (2,))
        assert v0 == (1 if a == 0 else 0)
        assert v1 == Fraction(2 ** a, _fact(a))


def _fact(a):
    out = 1
    for i in range(2, a + 1):
        out *= i
    return out


# -- homotopy ladder ---------------------------------------------------------------

def test_pi0_of_cocycles_is_free_rank_one():
    for p in (2, 3):
        report = homotopy_groups_check(0, 4, p)
        assert report["pi_k_cocycles_free_rank_1"]
        assert report["generator_valuation"] == 0
        assert report["pi_k_omega_is_z_mod_p"]


def test_pi1_ladder():
    for p in (2, 3):
        report = homotopy_groups_check(1, 4, p)
        assert report["pi_k_omega"] == (0, [p])
        assert report["stated_generator_in_moore"]
        assert report["stated_generator_generates"]
        assert report["pi_k_cocycles_free_rank_1"]
        assert report["valuation_equals_k"], report


# -- A_PL mod p ----------------------------------------------------------------------

def test_apl_interval_mod2_cocycles():
    # degree-0 cocycles: exactly the even powers t^{2k} within weight
    weight = 8
    data = apl_cocycle_monomials(1, 2, weight)
    basis0, ker0 = data[0]
    cocycle_exps = set()
    for vec in ker0:
        support = [basis0[i] for i, c in enumerate(vec) if c % 2]
        assert len(support) == 1
        cocycle_exps.add(support[0][0][0])
    assert cocycle_exps == {a for a in range(0, weight + 1) if a % 2 == 0}


def test_apl_interval_mod2_degree1_classes():
    # every 1-form is closed; the classes are represented by t^{2k+1} dt and
    # the even-exponent forms bound: d(t^{2k+1}) = t^{2k} dt over F_2
    weight = 8
    out = apl_mod_p(1, 2, weight)
    rep = out["reports"][1]
    forms = out["forms"]
    for a in range(weight):
        vec = [0] * forms.dims(1)
        vec[forms.index[((a,), (1,))]] = 1
        if a % 2 == 0:
            assert rep.is_coboundary(vec), a
        else:
            assert not rep.is_coboundary(vec), a


def test_apl_interval_mod2_dimensions():
    out = apl_mod_p(1, 2, 8)
    # degree 0: classes [t^{2k}], 2k <= 8 -> 5 classes; degree 1: [t^{2k+1}dt],
    # 2k+2 <= 8 -> 4 classes
    assert out["dims"][0] == 5
    assert out["dims"][1] == 4


def test_apl_square_mod2_class_count():
    weight = 4
    out = apl_mod_p(2, 2, weight)
    # tuple rule: alpha determines beta, so count pairs (a1, a2) with
    # a1 + a2 + (a1 odd) + (a2 odd) <= weight
    want = {0: 0, 1: 0, 2: 0}
    for a1 in range(weight + 1):
        for a2 in range(weight + 1):
            b1, b2 = a1 % 2, a2 % 2
            if a1 + a2 + b1 + b2 <= weight:
                want[b1 + b2] += 1
    assert out["dims"] == want


def test_rational_control_poincare():
    assert rational_poincare_dims(1, 6) == [0, 0]
    assert rational_poincare_dims(2, 4) == [0, 0, 0]


def test_contraction_examples():
    assert contraction_K({1: 1}) == {2: Fraction(1, 2)}
    assert contraction_K({0: 1}) == {1: Fraction(1)}
    assert contraction_homotopy_defect({3: 1}) == {}
    assert contraction_homotopy_defect({0: 5, 2: 3, 7: Fraction(1, 2)}) == {}


# -- oracles for the per-cell section machinery ---------------------------------------

def _frozen_ambient_diff(cx, k):
    """The dense, block-diagonal differential on the degree-k ambient block,
    kept here as the reference that the per-cell differential must match."""
    offs_k, total_k = cx.cell_block(k)
    offs_k1, total_k1 = cx.cell_block(k + 1)
    rows = [[Fraction(0)] * total_k for _ in range(total_k1)]
    for name, d in cx.cells:
        dmat = cx.levels.diff_matrix(d, k)
        off_s, width = offs_k[name]
        off_t, height = offs_k1[name]
        for r in range(height):
            for j in range(width):
                if dmat[r][j]:
                    rows[off_t + r][off_s + j] = dmat[r][j]
    return rows


def _assert_diff_matches_dense(cx):
    for k in range(cx.q_max + 1):
        dense = _frozen_ambient_diff(cx, k)
        cols = [cx.express(k + 1, [sum(a * b for a, b in zip(row, sec) if a)
                                   for row in dense])
                for sec in cx.sections[k]]
        n_out = len(cx.sections[k + 1])
        want = [[col[r] for col in cols] for r in range(n_out)]
        assert cx.diff_in_sections(k) == want, (cx.space.name, k)


def test_diff_in_sections_matches_dense_ambient_diff_omega():
    from padicforms.massey import random_space
    spaces = [rp2(), sphere(2), delta(2), boundary_delta(3)] + \
        [random_space(seed, 3, 4, 2) for seed in range(4)]
    for p in (2, 3):
        for space in spaces:
            q_max = min(2, space.dimension)
            levels = OmegaLevels(3, p, space.dimension)
            _assert_diff_matches_dense(SectionComplex(space, levels, q_max))


def test_diff_in_sections_matches_dense_ambient_diff_tensor():
    from padicforms.decalage import VLevels, tensor_cochain_algebra
    from padicforms.massey import random_space
    spaces = [sphere(1), delta(1), boundary_delta(2), random_space(5, 2, 3, 0)]
    for p in (2, 3):
        for space in spaces:
            q_max = min(1, space.dimension)
            tensor = tensor_cochain_algebra(
                VLevels(p, space.dimension + 1, q_max),
                OmegaLevels(2, p, space.dimension), q_max)
            _assert_diff_matches_dense(SectionComplex(space, tensor, q_max))


def _frozen_structure_matrix(levels, n, i, k, target_n, apply_map):
    """A face or degeneracy matrix built monomial by monomial, kept here as
    the reference for the cached level builder."""
    lv, target = levels.level(n), levels.level(target_n)
    rows = [[Fraction(0)] * lv.dims(k) for _ in range(target.dims(k))]
    for j, mon in enumerate(lv.basis.get(k, [])):
        vec = target.to_vector(
            apply_map(levels, n, i, OmegaElement.monomial(mon)), k)
        assert all(valuation(c, levels.prime) >= 0 for c in vec if c)
        for r, c in enumerate(vec):
            rows[r][j] = c
    return rows


def test_face_and_degeneracy_builder_match_frozen_copies():
    for p in (2, 3, 5):
        for w in range(1, 5):
            levels = OmegaLevels(w, p, 3)
            for n in range(4):
                for i in range(n + 1):
                    for k in range(n + 1):
                        if n >= 1:
                            assert levels.face_matrix(n, i, k) == \
                                _frozen_structure_matrix(
                                    levels, n, i, k, n - 1, omega_face)
                        if n <= 2:
                            assert levels.degen_matrix(n, i, k) == \
                                _frozen_structure_matrix(
                                    levels, n, i, k, n + 1, omega_degeneracy)
