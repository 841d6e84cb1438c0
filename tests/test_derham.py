import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from padicforms.arith import valuation
from padicforms.divided import (
    DividedMonomial,
    OmegaElement,
    TruncationError,
    gamma_power,
    one_monomial,
    p_minus_sum,
)
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
    omega_levels,
    omega_of_space,
    rational_poincare_dims,
    stable_cohomology,
)
from padicforms.linalg import (
    EchelonKernel,
    IntFactorization,
    SparseIntMatrix,
    apply_rows,
    columns_to_rows,
    combine_columns,
    identity_rows,
    lattice_membership,
    p_local_kernel,
)
from padicforms.decalage import TensorLevels, VLevels
from padicforms.simplicial import boundary_delta, delta, rp2, sphere

from p_local_reference import fraction_p_local_snf


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


def _frozen_bounded_exponents(n, budget):
    if n == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _frozen_bounded_exponents(n - 1, budget - first):
            yield (first,) + rest


def _frozen_closure_generators(n, weight, prime):
    """OmegaLevel._closure_generators as first written: every gamma power is
    recomputed for every basis monomial."""
    gens = []
    subsets = [s for r in range(1, n + 1)
               for s in itertools.combinations(range(1, n + 1), r)]
    for k in range(n + 1):
        for dx in itertools.combinations(range(1, n + 1), k):
            budget = weight - k
            for exps in _frozen_bounded_exponents(n, budget):
                base_weight = sum(exps) + k
                mono = OmegaElement.monomial(DividedMonomial(exps, dx))
                for subset in subsets:
                    for c in range(1, weight - base_weight + 1):
                        form = p_minus_sum(set(subset), n, prime)
                        closure = gamma_power(form, c)
                        gens.append(mono.multiply(closure))
    return gens


@pytest.mark.parametrize("prime", (2, 3))
def test_closure_generators_match_frozen_loop(prime):
    for n in range(4):
        for weight in range(1, 5):
            lv = OmegaLevel(n, weight, prime)
            assert lv.closure_generators == \
                _frozen_closure_generators(n, weight, prime), (n, weight)


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
        levels = OmegaLevels(4, p)
        n = 2
        lv = levels.level(n)
        for k in range(n + 1):
            for j in range(n + 1):
                for i in range(j):
                    left = [mat_vec(_face(levels, n - 1, i, k), col)
                            for col in _columns(_face(levels, n, j, k))]
                    right = [mat_vec(_face(levels, n - 1, j - 1, k), col)
                             for col in _columns(_face(levels, n, i, k))]
                    assert left == right, (p, k, i, j)


def _dense(rows, ncols):
    """Dense Fraction rows of a level map kept as rows over denominators."""
    out = [[Fraction(0)] * ncols for _ in rows]
    for row, (d, entries) in zip(out, rows):
        for j, x in entries:
            row[j] = Fraction(x, d)
    return out


def _face(levels, n, i, k):
    return _dense(levels.face_rows(n, i, k), levels.dims(n, k))


def _degen(levels, n, i, k):
    return _dense(levels.degen_rows(n, i, k), levels.dims(n, k))


def _columns(rows):
    if not rows:
        return []
    return [[rows[r][j] for r in range(len(rows))] for j in range(len(rows[0]))]


def test_degeneracy_keeps_lattice():
    levels = OmegaLevels(4, 2)
    x1sq = OmegaElement.monomial(mono((2,)))
    up = omega_degeneracy(levels, 1, 0, x1sq)
    # s_0 at level 1 sends x_1 to x_2
    assert up == OmegaElement(2, {mono((0, 2)): 1})
    up1 = omega_degeneracy(levels, 1, 1, x1sq)
    want = OmegaElement(2, {mono((2, 0)): 1, mono((1, 1)): 1, mono((0, 2)): 1})
    assert up1 == want


def test_face_zero_introduces_p_minus_sum():
    levels = OmegaLevels(4, 2)
    x1 = OmegaElement.monomial(mono((1,)))
    img = omega_face(levels, 1, 0, x1)
    # level 0 chart has no variables: x_1 |-> p
    assert img == OmegaElement(0, {one_monomial(0): Fraction(2)})
    img1 = omega_face(levels, 1, 1, x1)
    assert img1.is_zero()


def test_level_family_memo_stays_bounded():
    """More (weight, prime) keys than the memo holds, then the first keys
    again once they were dropped: the answers are those of fresh families,
    and the memo never holds more families than its bound."""
    bound = omega_levels.cache_info().maxsize
    keys = [(w, p) for p in (2, 3, 5, 7) for w in (2, 3, 4, 5, 6)]
    assert len(keys) > bound
    omega_levels.cache_clear()
    space = sphere(1)
    for w, p in keys + keys[:3]:
        got = omega_cohomology(space, w, 1, p)
        _, reports, stable = stable_cohomology(space, OmegaLevels(w, p), 1)
        assert {q: r.invariants() for q, r in got["reports"].items()} == \
            {q: r.invariants() for q, r in reports.items()} == \
            {0: (1, []), 1: (1, [])}, (w, p)
        assert got["stable"] == stable, (w, p)
        assert omega_levels.cache_info().currsize <= bound
    assert omega_levels.cache_info().currsize == bound


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
        left = mat_vec(_face(levels, 2, 2, 1), u_block)
        right = mat_vec(_face(levels, 2, 2, 1), v_block)
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

def _dense_diff(levels, n, k):
    """Dense Fraction rows of a level family's d at level n, built the way the
    families built them before they kept sparse columns: the reference for
    ``diff_columns``."""
    if isinstance(levels, TensorLevels):
        src, tgt = levels.basis(n, k), levels.basis(n, k + 1)
        index = {t: pos for pos, t in enumerate(tgt)}
        rows = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
        mats = {i: (_dense_diff(levels.first, n, i),
                    _dense_diff(levels.second, n, k - i))
                for i in {t[0] for t in src}}
        for col, (i, a, b) in enumerate(src):
            da, db = mats[i]
            for r in range(len(da)):
                if da[r][a]:
                    rows[index[(i + 1, r, b)]][col] += da[r][a]
            for r in range(len(db)):
                if db[r][b]:
                    rows[index[(i, a, r)]][col] += (-1) ** i * db[r][b]
        return rows
    if isinstance(levels, VLevels):
        mat = levels.shifted(n).diff(k)
        return [[Fraction(mat[(i, j)]) for j in range(mat.cols)]
                for i in range(mat.rows)]
    lv = levels.level(n)
    rows = [[Fraction(0)] * lv.dims(k) for _ in range(lv.dims(k + 1))]
    for j, mon in enumerate(lv.basis.get(k, [])):
        for m, c in OmegaElement.monomial(mon).differential().coeffs.items():
            rows[lv.index[m]][j] = c
    return rows


def test_diff_columns_match_dense_reference():
    """Each family's sparse columns are the nonzero entries of its dense d, in
    row order, with the same values and types."""
    p = 2
    omega = OmegaLevels(3, p)
    v = VLevels(p)
    families = [omega, v, TensorLevels(v, omega),
                TensorLevels(VLevels(3), OmegaLevels(2, 3))]
    for levels in families:
        for n in range(3):
            for k in range(4):
                dense = _dense_diff(levels, n, k)
                want = [[(r, row[j]) for r, row in enumerate(dense) if row[j]]
                        for j in range(levels.dims(n, k))]
                got = levels.diff_columns(n, k)
                assert got == want, (levels, n, k)
                assert [type(c) for col in got for _, c in col] == \
                    [type(c) for col in want for _, c in col]

def _frozen_ambient_diff(cx, k):
    """The dense, block-diagonal differential on the degree-k ambient block,
    kept here as the reference that the per-cell differential must match."""
    offs_k, total_k = cx.cell_block(k)
    offs_k1, total_k1 = cx.cell_block(k + 1)
    rows = [[Fraction(0)] * total_k for _ in range(total_k1)]
    for name, d in cx.cells:
        dmat = _dense_diff(cx.levels, d, k)
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
            levels = OmegaLevels(3, p)
            _assert_diff_matches_dense(SectionComplex(space, levels, q_max))


def test_diff_in_sections_matches_dense_ambient_diff_tensor():
    from padicforms.massey import random_space
    spaces = [sphere(1), delta(1), boundary_delta(2), random_space(5, 2, 3, 0)]
    for p in (2, 3):
        for space in spaces:
            q_max = min(1, space.dimension)
            tensor = TensorLevels(VLevels(p), OmegaLevels(2, p))
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
    """The rows over denominators, as a dense view and through apply_rows on
    each basis vector, against the matrices built monomial by monomial."""
    for p in (2, 3, 5):
        for w in range(1, 5):
            levels = OmegaLevels(w, p)
            for n in range(4):
                for i in range(n + 1):
                    for k in range(n + 1):
                        maps = []
                        if n >= 1:
                            maps.append((levels.face_rows(n, i, k), n - 1, omega_face))
                        if n <= 2:
                            maps.append((levels.degen_rows(n, i, k), n + 1,
                                         omega_degeneracy))
                        for rows, target_n, apply_map in maps:
                            frozen = _frozen_structure_matrix(
                                levels, n, i, k, target_n, apply_map)
                            dim = levels.dims(n, k)
                            assert _dense(rows, dim) == frozen
                            images = [apply_rows(rows, e) for e in identity_rows(dim)]
                            assert columns_to_rows(images, len(frozen)) == frozen


# -- frozen copy of the express-by-refactoring path ---------------------------------

def _held_membership(basis, p):
    """``lattice_membership(x, basis, p)`` as a function of x, with the integer
    Smith form of the basis made once: the frozen copies below solve many
    targets in one basis.  The basis is scaled to integers once and each
    target by its own denominator t, so the coordinates are V * y with
    y_i = (U * t*x)_i / (d_i * t), kept if every y_i is p-integral."""
    if not basis:
        return lambda x: None if any(x) else []
    scale = lcm(*(Fraction(x).denominator for col in basis for x in col))
    fac = IntFactorization.from_columns(
        [[int(x * scale) for x in col] for col in basis], len(basis[0]))

    def solve(x):
        support = [(j, v) for j, v in enumerate(x) if v]
        t = lcm(*(v.denominator for _, v in support))
        vec = [0] * len(x)
        for j, v in support:
            vec[j] = v.numerator * (scale * t // v.denominator)
        y = [0] * fac.cols
        for i, c in enumerate(fac.U.mul_vector(vec)):
            d = fac.diag[i] if i < len(fac.diag) else 0
            if c and not d:
                return None
            if c:
                y[i] = Fraction(c, d * t)
                if y[i].denominator % p == 0:
                    return None
        return fac.V.mul_vector(y)

    return solve


def test_held_membership_is_lattice_membership():
    rng = random.Random(0)
    for p in (2, 3):
        for _ in range(60):
            n, s = rng.randint(1, 5), rng.randint(1, 4)
            basis = [[Fraction(rng.randint(-4, 4) * p ** rng.randint(0, 2),
                               rng.choice([1, p + 1])) for _ in range(n)]
                     for _ in range(s)]
            solve = _held_membership(basis, p)
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, p + 1, p]))
                      for _ in range(s)]
            targets = [combine_columns(basis, coeffs, n)] + [
                [Fraction(rng.randint(-6, 6), den) for _ in range(n)]
                for den in (1, p + 1, p)]
            for x in targets:
                assert solve(x) == lattice_membership(x, basis, p), (p, basis, x)


def _frozen_quotient(kernel, relations, p):
    """The quotient routine that solves in the kernel basis itself
    (coordinates in a basis are unique), kept here as the reference for the
    one that reads through the factorization of d.  U' and the columns of
    U'^-1 come from the Fraction reference elimination."""
    s, ambient = len(kernel), len(kernel[0])
    solve = _held_membership(kernel, p)
    coords = []
    for col in relations:
        sol = solve(col)
        assert sol is not None, "image does not land in the kernel"
        coords.append(sol)
    if not coords:
        gens = {i: list(kernel[i]) for i in range(s)}
        return solve, identity_rows(s), [0] * s, gens
    uprime, diag, _, uinv = fraction_p_local_snf(columns_to_rows(coords, s), p)
    orders = list(diag) + [0] * (s - len(diag))
    gens = {}
    for i, d in enumerate(orders):
        if d != 1:
            column = [uinv[i].get(t, 0) for t in range(s)]
            gens[i] = combine_columns(kernel, column, ambient)
    return solve, uprime, orders, gens


def _frozen_p_local_cohomology(d_prev, d_cur, p):
    """(invariants, generators, class-coordinate function) of ker/im."""
    ncols = len(d_cur[0]) if d_cur else (len(d_prev) if d_prev else 0)
    kernel = p_local_kernel(d_cur, p, ncols)
    if not kernel:
        return (0, []), [], lambda vector: []
    relations = [list(col) for col in zip(*d_prev) if any(col)]
    solve, uprime, diag, gens = _frozen_quotient(kernel, relations, p)
    orders = [p ** int(valuation(d, p)) if d else 0 for d in diag]
    generators = [gens[i] for i, d in enumerate(orders) if d > 1] + \
        [gens[i] for i, d in enumerate(orders) if d == 0]

    def class_coordinates(vector):
        y = solve(vector)
        assert y is not None, "vector is not a cocycle"
        z = [Fraction(t) for t in mat_vec(uprime, y)]
        return [t.numerator * pow(t.denominator, -1, d) % d if d > 1 else t
                for t, d in zip(z, orders) if d != 1]

    invariants = (orders.count(0), sorted(d for d in orders if d > 1))
    return invariants, generators, class_coordinates


class _FrozenExpress:
    """Section coordinates, differentials and products of a SectionComplex,
    each solved for in the section basis itself."""

    def __init__(self, cx):
        self.cx = cx
        self.solvers = {k: _held_membership(cx.sections[k], cx.prime)
                        for k in cx.sections}

    def express(self, k, ambient_vec):
        sol = self.solvers[k](ambient_vec)
        assert sol is not None, "vector is not a section of the expected degree"
        return sol

    def diff_in_sections(self, k):
        cx = self.cx
        offs, _ = cx.cell_block(k)
        dmats = {d: _dense_diff(cx.levels, d, k) for d in {d for _, d in cx.cells}}
        cols = []
        for sec in cx.sections[k]:
            out = []
            for name, d in cx.cells:
                off, width = offs[name]
                out.extend(mat_vec(dmats[d], sec[off:off + width]))
            cols.append(self.express(k + 1, out))
        return [[col[r] for col in cols] for r in range(len(cx.sections[k + 1]))]

    def multiply_sections(self, k1, v1, k2, v2):
        cx = self.cx
        (offs1, total1), (offs2, total2) = cx.cell_block(k1), cx.cell_block(k2)
        offs_out, total_out = cx.cell_block(k1 + k2)
        amb1 = combine_columns(cx.sections[k1], v1, total1)
        amb2 = combine_columns(cx.sections[k2], v2, total2)
        out = [Fraction(0)] * total_out
        for name, d in cx.cells:
            (o1, w1), (o2, w2), (oo, wo) = offs1[name], offs2[name], offs_out[name]
            out[oo:oo + wo] = cx.levels.multiply(
                d, k1, amb1[o1:o1 + w1], k2, amb2[o2:o2 + w2])
        return self.express(k1 + k2, out)


def _products(cx, q_max, generators, class_coordinates):
    """Class coordinates of every product of generator classes, as the CLI
    table has them (None where the product leaves the truncation)."""
    table = {}
    for q1, q2 in itertools.product(range(q_max + 1), repeat=2):
        if q1 + q2 > q_max:
            continue
        for (i1, g1), (i2, g2) in itertools.product(
                enumerate(generators[q1]), enumerate(generators[q2])):
            try:
                prod = cx.multiply_sections(q1, g1, q2, g2)
            except TruncationError:
                table[(q1, i1, q2, i2)] = None
                continue
            table[(q1, i1, q2, i2)] = class_coordinates[q1 + q2](prod)
    return table


def _frozen_sections_cases():
    from padicforms.massey import random_space
    for seed, p in itertools.product(range(8), (2, 3)):
        space = random_space(seed, 3, 5, 3)
        q_max = min(3, space.dimension)
        yield space, OmegaLevels(3, p), q_max
        yield space, TensorLevels(VLevels(p), OmegaLevels(2, p)), q_max


def test_section_complex_matches_frozen_refactoring_copy():
    for space, levels, q_max in _frozen_sections_cases():
        case = (space.name, type(levels).__name__, levels.prime)
        cx = SectionComplex(space, levels, q_max)
        frozen = _FrozenExpress(cx)
        diffs = {k: frozen.diff_in_sections(k) for k in range(q_max + 1)}
        diffs[-1] = [[] for _ in cx.sections[0]]
        for k in range(q_max + 1):
            assert cx.diff_in_sections(k) == diffs[k], (case, k)
        live, old = {}, {}
        for q in range(q_max + 1):
            report = cx.cohomology(q)
            live[q] = report
            old[q] = _frozen_p_local_cohomology(diffs[q - 1], diffs[q], cx.prime)
            assert report.invariants() == old[q][0], (case, q)
            assert report.generators == old[q][1], (case, q)
        live_table = _products(cx, q_max, {q: r.generators for q, r in live.items()},
                               {q: r.class_coordinates for q, r in live.items()})
        old_table = _products(frozen, q_max, {q: o[1] for q, o in old.items()},
                              {q: o[2] for q, o in old.items()})
        assert live_table == old_table, case


# -- the weight W-1 pass and mod-p universal coefficients ------------------------

def _family(kind, weight, p):
    if kind == "omega":
        return OmegaLevels(weight, p)
    return TensorLevels(VLevels(p), OmegaLevels(weight, p))


def _frozen_lower_weight_pass(space, kind, weight, p, q_max):
    """The direct weight W-1 pass as stable_cohomology made it before its
    invariants were read off the weight-W complex: a second SectionComplex
    on the W-1 family, and its full reports."""
    cx = SectionComplex(space, _family(kind, weight - 1, p), q_max)
    return {q: cx.cohomology(q).invariants() for q in range(q_max + 1)}


def _lower_weight_cases():
    from padicforms.massey import random_space
    yield rp2(), "omega", 4, 2          # unstable
    yield sphere(2), "omega", 3, 3      # unstable
    for space, p in itertools.product((rp2(), sphere(2), delta(3)), (2, 3)):
        yield space, "omega", 3, p
    for space, p in itertools.product((rp2(), sphere(2)), (2, 3)):
        yield space, "tensor", 2, p
    for seed, p in itertools.product(range(8), (2, 3)):
        yield random_space(seed, 3, 5, 3), "omega", 3, p


def test_lower_weight_invariants_match_direct_pass():
    unstable = set()
    for space, kind, weight, p in _lower_weight_cases():
        case = (space.name, kind, weight, p)
        q_max = min(3, space.dimension)
        cx, reports, stable = stable_cohomology(
            space, _family(kind, weight, p), q_max)
        direct = _frozen_lower_weight_pass(space, kind, weight, p, q_max)
        assert cx.lower_weight_invariants() == direct, case
        assert stable == {q: rep.invariants() == direct[q]
                          for q, rep in reports.items()}, case
        if not all(stable.values()):
            unstable.add(case)
    assert {("rp2", "omega", 4, 2), ("sphere2", "omega", 3, 3)} <= unstable


def _mod_p_rank(rows, p, ncols):
    reduced = [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
               for row in rows]
    return ncols - len(EchelonKernel(SparseIntMatrix.from_rows(reduced, ncols), p).free)


def _universal_coefficient_cases():
    from padicforms.massey import random_space
    yield rp2(), "omega", 4, 2          # H^2 has 2-torsion
    yield sphere(2), "omega", 3, 3      # H^2 has 3-torsion
    for seed, p in itertools.product(range(8), (2, 3)):
        space = random_space(seed, 3, 5, 3)
        yield space, "omega", 3, p
        yield space, "tensor", 2, p


def test_section_complex_satisfies_mod_p_universal_coefficients():
    """dim H^q(S (x) F_p) = free rank of H^q + the number of p-torsion
    summands of H^q and of H^(q+1), the left side from F_p ranks of the
    section differentials, the right side from p_local_cohomology."""
    torsion_seen = 0
    for space, kind, weight, p in _universal_coefficient_cases():
        q_max = min(3, space.dimension)
        cx = SectionComplex(space, _family(kind, weight, p), q_max)
        dims = {q: len(cx.sections[q]) for q in range(q_max + 2)}
        ranks = {q: _mod_p_rank(cx.diff_in_sections(q), p, dims[q])
                 for q in range(q_max + 1)}
        ranks[-1] = 0
        reports = {q: cx.cohomology(q) for q in range(q_max + 1)}
        for q in range(q_max + 1):
            if q == q_max and dims[q + 1]:
                continue  # H^(q_max+1) is not computed
            above = len(reports[q + 1].torsion) if q < q_max else 0
            assert dims[q] - ranks[q] - ranks[q - 1] == \
                reports[q].free_rank + len(reports[q].torsion) + above, \
                (space.name, kind, weight, p, q)
            torsion_seen += len(reports[q].torsion)
    assert torsion_seen >= 2


def test_omega_reports_build_one_complex_and_one_family(monkeypatch, capsys):
    """An omega and a v_tensor_omega report each build one SectionComplex
    and ask for the level family at their own weight only."""
    from padicforms import cli, derham
    requested, built = [], []
    real_levels, real_init = derham.omega_levels, SectionComplex.__init__

    def levels(weight, prime):
        requested.append((weight, prime))
        return real_levels(weight, prime)

    def init(self, *args):
        built.append(type(args[1]).__name__)
        real_init(self, *args)

    monkeypatch.setattr(derham, "omega_levels", levels)
    monkeypatch.setattr(cli, "omega_levels", levels)
    monkeypatch.setattr(SectionComplex, "__init__", init)
    for model, weight, family in (("omega", 4, "OmegaLevels"),
                                  ("v_tensor_omega", 2, "TensorLevels")):
        requested.clear()
        built.clear()
        code = cli.main(["cohomology", "--space", "rp2", "--model", model,
                         "--weight", str(weight)])
        assert code == 3, model  # both are unstable: the flags were computed
        assert requested == [(weight, 2)], model
        assert built == [family], model
    capsys.readouterr()
