from fractions import Fraction

import pytest

from padicforms import decalage
from padicforms.decalage import (
    ShiftedComplex,
    TensorLevels,
    VLevels,
    build_D,
    build_V,
    eta_p,
    multiplication_closed,
)
from padicforms.derham import OmegaLevels, SectionComplex
from padicforms.linalg import (
    IntFactorization,
    SparseIntMatrix,
    StructuralError,
    hnf_rows,
    identity_rows,
)
from padicforms.massey import random_space
from padicforms.simplicial import (
    CochainComplex,
    boundary_delta,
    delta,
    normalized_cochain_complex,
    rp2,
    sphere,
)

LIBRARY = lambda: [delta(1), delta(2), boundary_delta(2), sphere(1), sphere(2), rp2()]


def mat_mul(a, b):
    """Dense matrix product, for the identities checked below."""
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(cols)] for i in range(len(a))]


def _frozen_complete_basis(columns, dim):
    """The complement the p-shifted lattices first used: columns s.. of U^-1
    of a Smith form of the (saturated) kernel basis."""
    if not columns:
        return identity_rows(dim)
    fac = IntFactorization.from_columns(columns, dim)
    s = len(columns)
    if fac.diag.count(1) != s:
        raise StructuralError("columns do not span a direct summand")
    return [fac.inverse_column(j) for j in range(s, dim)]


def _frozen_shifted_lattice(complex_, p, rule):
    """_shifted_lattice as first written: a kernel basis, then a second and a
    third Smith form to complete it."""
    bases = []
    for n in range(complex_.top_degree() + 1):
        dim = complex_.dim(n)
        kernel = IntFactorization(complex_.diff(n)).kernel()
        rows = [[p ** rule(n, True) * x for x in col] for col in kernel]
        rows += [[p ** rule(n, False) * x for x in col]
                 for col in _frozen_complete_basis(kernel, dim)]
        bases.append(hnf_rows(rows, dim))
    return bases


@pytest.mark.parametrize("p", [2, 3])
def test_shifted_lattice_does_not_depend_on_the_complement(p):
    """The complement V[:, :r] of one Smith form gives the bases that a
    completion of the kernel gave, under both exponent rules."""
    spaces = [rp2(), sphere(2)] + [random_space(s, 3, 5, 3) for s in range(6)] + \
        [random_space(s, 4, 9, 6) for s in range(6)]
    for space in spaces:
        cx = normalized_cochain_complex(space)
        for rule in (decalage._shift_exponent_d, decalage._shift_exponent_v):
            assert decalage._shifted_lattice(cx, p, rule) == \
                _frozen_shifted_lattice(cx, p, rule), (space.name, rule.__name__)


# -- build_D -------------------------------------------------------------------

def test_D_degree_zero_keeps_constants():
    for space in (sphere(1), rp2()):
        d = build_D(space, 2)
        # the constant function (1,...,1) is a cocycle, scaled by p^0 = 1
        ones = [1] * space.n_cells(0)
        assert d.contains(0, ones)


def test_D_s1_cohomology():
    for p in (2, 3):
        d = build_D(sphere(1), p)
        assert d.cohomology(0, p).invariants() == (1, [])
        assert d.cohomology(1, p).invariants() == (1, [])


def test_D_matches_singular_for_library():
    for space in LIBRARY():
        cx = normalized_cochain_complex(space)
        for p in (2, 3):
            d = build_D(space, p)
            for q in range(space.dimension + 1):
                want = cx.cohomology(q, "Z", p).invariants()
                got = d.cohomology(q, p).invariants()
                assert got == want, (space.name, p, q)


def test_D_rp2_torsion():
    d = build_D(rp2(), 2)
    assert d.cohomology(2, 2).invariants() == (0, [2])
    d3 = build_D(rp2(), 3)
    assert d3.cohomology(2, 3).invariants() == (0, [])


def test_D_multiplication_closed():
    for space in LIBRARY():
        for p in (2, 3):
            ok, witness = multiplication_closed(space, p)
            assert ok, (space.name, p, witness)


# -- build_V -------------------------------------------------------------------

def test_V_exponent_rule():
    v = build_V(sphere(1), 2)
    # degree 0: constants unscaled, complement scaled by p
    assert v.contains(0, [1])
    # degree 1: everything scaled by p
    assert not v.contains(1, [1])
    assert v.contains(1, [2])


def test_V_reduced_cohomology_trivial_on_simplices():
    for n in (1, 2):
        for p in (2, 3):
            v = build_V(delta(n), p)
            assert v.cohomology(0, p).invariants() == (1, [])
            for q in range(1, n + 1):
                assert v.cohomology(q, p).invariants() == (0, []), (n, p, q)


# -- eta_p ---------------------------------------------------------------------

def two_step_complex(multiplier):
    # Z --(x m)--> Z in degrees 0, 1
    return CochainComplex([1, 1], [SparseIntMatrix.from_rows([[multiplier]]),
                                   SparseIntMatrix.zero(0, 1)])


def brute_eta_invariants(multiplier, p):
    """Oracle: compute eta of the two-step complex from the definition."""
    # eta^0 = {x : m x in p C^1} = (p / gcd(m, p)) Z ... computed directly:
    # x ranges over Z; m x divisible by p iff x divisible by p/gcd(m,p)
    import math
    step = p // math.gcd(multiplier, p)
    eta0 = step          # eta^0 = step * Z
    eta1 = p             # eta^1 = p * Z (no condition above)
    # d: eta^0 -> eta^1 is multiplication by m; cohomology:
    h0 = 0 if multiplier else 1
    image = abs(multiplier) * step
    h1_order = eta1 and (image // eta1 if image else 0)
    # H^1 = pZ / (m * step)Z
    if multiplier == 0:
        return (h0, []), (1, [])
    quotient = (multiplier * step) // p
    torsion = [] if abs(quotient) == 1 else [abs(quotient)]
    return (h0, []), (0, torsion)


def test_eta_two_step_times_two():
    # the stated formula gives eta^0 = C^0 and H^0 = 0, H^1 = 0 at p = 2:
    # d maps eta^0 = Z onto eta^1 = 2Z
    cx = two_step_complex(2)
    e = eta_p(cx, 2)
    assert e.bases[0] == [[1]]
    assert e.bases[1] == [[2]]
    (h0, t0), (h1, t1) = brute_eta_invariants(2, 2)
    assert e.cohomology(0, 2).invariants() == (h0, t0) == (0, [])
    assert e.cohomology(1, 2).invariants() == (h1, t1) == (0, [])


def test_eta_two_step_times_four():
    # m = 4, p = 2: eta^0 = Z, d(eta^0) = 4Z inside eta^1 = 2Z: H^1 = Z/2
    cx = two_step_complex(4)
    e = eta_p(cx, 2)
    assert e.cohomology(0, 2).invariants() == (0, [])
    assert e.cohomology(1, 2).invariants() == (0, [2])
    assert brute_eta_invariants(4, 2) == ((0, []), (0, [2]))


def test_eta_zero_differential_scales():
    cx = CochainComplex([2, 2], [SparseIntMatrix.zero(2, 2),
                                 SparseIntMatrix.zero(0, 2)])
    e = eta_p(cx, 3)
    assert e.bases[0] == [[1, 0], [0, 1]]
    assert e.bases[1] == [[3, 0], [0, 3]]
    assert e.cohomology(0, 3).invariants() == (2, [])
    assert e.cohomology(1, 3).invariants() == (2, [])


def _eta_and_D(space, p):
    return eta_p(normalized_cochain_complex(space), p), build_D(space, p)


def test_eta_equals_D_torsion_free_spaces():
    for space in (delta(1), delta(2), boundary_delta(2), sphere(1), sphere(2)):
        for p in (2, 3):
            eta, shifted = _eta_and_D(space, p)
            assert eta.bases == shifted.bases, (space.name, p)


def test_eta_vs_D_rp2():
    # at p = 3 the lattices agree; at p = 2 the mod-2 Bockstein of the degree-1
    # cocycle class is not a coboundary, so eta is strictly bigger in degree 1
    eta3, shifted3 = _eta_and_D(rp2(), 3)
    assert eta3.bases == shifted3.bases
    eta2, shifted2 = _eta_and_D(rp2(), 2)
    equal = [e == d for e, d in zip(eta2.bases, shifted2.bases)]
    assert equal == [True, False, True]


def test_eta_rp2_h2_vanishes_at_2():
    # the decalage kills the 2-torsion of the projective plane (H/H[p])
    cx = normalized_cochain_complex(rp2())
    e = eta_p(cx, 2)
    assert e.cohomology(2, 2).invariants() == (0, [])
    d = build_D(rp2(), 2)
    assert d.cohomology(2, 2).invariants() == (0, [2])


def test_eta_contains_D_always():
    for space in LIBRARY():
        for p in (2, 3):
            eta, shifted = _eta_and_D(space, p)
            for n, basis in enumerate(shifted.bases):
                assert all(eta.contains(n, vec) for vec in basis), \
                    (space.name, p, n)


# -- V levels and the tensor ----------------------------------------------------

def test_v_levels_dims():
    v = VLevels(2)
    assert v.dims(0, 0) == 1 and v.dims(0, 1) == 0
    assert v.dims(1, 0) == 2 and v.dims(1, 1) == 1


def test_v_levels_structure_maps_are_lattice_valued():
    v = VLevels(2)
    for n in (1, 2):
        for i in range(n + 1):
            for k in range(n + 1):
                v.face_rows(n, i, k)
    for n in (0, 1):
        for i in range(n + 1):
            for k in range(n + 1):
                v.degen_rows(n, i, k)


def test_v_levels_simplicial_identity():
    v = VLevels(2)

    def face(n, i, k):
        out = [[Fraction(0)] * v.dims(n, k) for _ in v.face_rows(n, i, k)]
        for row, (d, entries) in zip(out, v.face_rows(n, i, k)):
            for j, x in entries:
                row[j] = Fraction(x, d)
        return out

    for k in (0, 1):
        left = mat_mul(face(1, 0, k), face(2, 1, k))
        right = mat_mul(face(1, 0, k), face(2, 0, k))
        assert left == right  # d_0 d_1 = d_0 d_0


def test_tensor_unit_side_reduces_to_omega():
    # V(delta^0) is the ground ring in degree 0, so V x Omega at level 0
    # has the dimensions of Omega there
    p = 2
    omega = OmegaLevels(2, p)
    v = VLevels(p)
    tensor = TensorLevels(v, omega)
    assert tensor.dims(0, 0) == omega.dims(0, 0)
    assert tensor.dims(0, 1) == omega.dims(0, 1)


def test_tensor_d_squared_zero():
    p = 2
    omega = OmegaLevels(2, p)
    v = VLevels(p)
    tensor = TensorLevels(v, omega)
    for n in (0, 1):
        for k in (0, 1):
            d1 = tensor.diff_columns(n, k)
            d2 = tensor.diff_columns(n, k + 1)
            for col in d1:
                image = {}
                for r, c in col:
                    for t, e in d2[r]:
                        image[t] = image.get(t, 0) + e * c
                assert not any(image.values()), (n, k)


def test_tensor_omega_s1_invariants():
    # the stretch check: (V x Omega)(S^1) at weight 2, degrees <= 1
    for p in (2, 3):
        omega = OmegaLevels(2, p)
        v = VLevels(p)
        tensor = TensorLevels(v, omega)
        cx = SectionComplex(sphere(1), tensor, 1)
        h0 = cx.cohomology(0)
        h1 = cx.cohomology(1)
        assert h0.invariants() == (1, []), (p, h0.invariants())
        assert h1.invariants() == (1, []), (p, h1.invariants())
