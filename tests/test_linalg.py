import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from padicforms import linalg
from padicforms.arith import int_valuation, valuation
from padicforms.linalg import (
    EchelonKernel,
    HermiteBasis,
    IntFactorization,
    PLocalFactorization,
    SparseIntMatrix,
    StructuralError,
    cohomology,
    combine_columns,
    hnf_rows,
    identity_rows,
    integer_rows,
    lattice_membership,
    p_local_cohomology,
    p_local_kernel,
    p_local_snf,
    p_local_solve,
    smith_normal_form,
    solve_int,
)
from padicforms.decalage import build_D
from padicforms.massey import DgaData, random_space
from padicforms.simplicial import (
    boundary_delta,
    delta,
    normalized_cochain_complex,
    rp2,
    sphere,
)

from p_local_reference import fraction_p_local_snf

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def det_bareiss(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def M(rows):
    return SparseIntMatrix.from_rows(rows)


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return M([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# -- sparse integer matrices ------------------------------------------------

def test_sparse_matrix_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="non-integral"):
        SparseIntMatrix.from_rows([[Fraction(1, 2), Fraction(3, 2)]])
    with pytest.raises(ValueError, match="non-integral"):
        SparseIntMatrix.from_columns([[Fraction(1, 2)]], 1)
    with pytest.raises(ValueError, match="non-integral"):
        SparseIntMatrix(1, 1, {(0, 0): Fraction(-5, 3)})
    with pytest.raises(ValueError, match="out of range"):
        SparseIntMatrix.from_columns([[0, 7]], 1)


def test_sparse_matrix_accepts_integral_fractions_as_ints():
    rows = SparseIntMatrix.from_rows([[Fraction(4, 2), Fraction(0), -3]])
    cols = SparseIntMatrix.from_columns([[Fraction(4, 2)], [0], [Fraction(-3)]], 1)
    assert rows == cols == SparseIntMatrix(1, 3, {(0, 0): 2, (0, 2): -3})
    assert all(type(v) is int for v in rows.entries.values())
    assert SparseIntMatrix.from_columns([[0, 0]], 1).is_zero()


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(st.lists(
    st.integers(-3, 3) | st.integers(-4, 4).map(lambda x: Fraction(x, 2)),
    min_size=m, max_size=m), max_size=4)))
def test_sparse_matrix_stores_only_nonzero_ints(rows):
    cols = len(rows[0]) if rows else 0
    columns = [[row[j] for row in rows] for j in range(cols)]
    if any(x != int(x) for row in rows for x in row):
        with pytest.raises(ValueError, match="non-integral"):
            SparseIntMatrix.from_rows(rows)
        with pytest.raises(ValueError, match="non-integral"):
            SparseIntMatrix.from_columns(columns, len(rows))
        return
    a = SparseIntMatrix.from_rows(rows)
    b = SparseIntMatrix.from_columns(columns, len(rows))
    assert a == b
    for mat in (a, b, a.mul(SparseIntMatrix.from_rows(columns, len(rows)))):
        assert all(type(v) is int and v != 0 for v in mat.entries.values())
        assert mat.is_zero() == (not any(x for row in mat.to_rows() for x in row))
    assert a.to_rows() == [[int(x) for x in row] for row in rows]


# -- Smith normal form -------------------------------------------------------

def test_snf_trivial_cases():
    _, D, _ = smith_normal_form(M([[2]]))
    assert D[(0, 0)] == 2
    _, D, _ = smith_normal_form(M([[1, 0], [0, 1]]))
    assert D[(0, 0)] == 1 and D[(1, 1)] == 1


def test_snf_random_properties():
    rng = random.Random(5)
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, n, m)
        U, D, V = smith_normal_form(a)
        assert U.mul(a).mul(V) == D
        assert abs(det_bareiss(U.to_rows())) == 1
        assert abs(det_bareiss(V.to_rows())) == 1
        diag = [D[(i, i)] for i in range(min(n, m))]
        for d1, d2 in zip(diag, diag[1:]):
            if d2:
                assert d1 != 0 and d2 % d1 == 0


def minor_gcd_invariants(rows):
    """Oracle: d_1...d_k = gcd of all k x k minors (determinantal divisors)."""
    import math
    n = len(rows)
    m = len(rows[0])
    prev = 1
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for ris in itertools.combinations(range(n), k):
            for cis in itertools.combinations(range(m), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = math.gcd(g, det_bareiss(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_snf_matches_minor_gcd_oracle():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    _, D, _ = smith_normal_form(M(a))
    diag = [D[(i, i)] for i in range(3) if D[(i, i)]]
    assert diag == minor_gcd_invariants(a) == [2, 2, 156]
    rng = random.Random(13)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]]
        rows = [[rng.randint(-4, 4) for _ in range(len(rows[0]))]
                for _ in range(rng.randint(1, 4))]
        _, D, _ = smith_normal_form(M(rows))
        diag = [D[(i, i)] for i in range(min(len(rows), len(rows[0]))) if D[(i, i)]]
        assert diag == minor_gcd_invariants(rows)


def test_kernel_basis_exactness():
    rng = random.Random(7)
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = IntFactorization(a).kernel()
        for v in ker:
            assert all(x == 0 for x in a.mul_vector(v))
        # saturation: kernel rank equals cols - rank
        _, D, _ = smith_normal_form(a)
        rank = sum(1 for i in range(min(a.rows, a.cols)) if D[(i, i)])
        assert len(ker) == a.cols - rank


def test_solve_int():
    a = M([[2, 0], [0, 3]])
    assert solve_int(a, [4, 9]) == [2, 3]
    assert solve_int(a, [1, 0]) is None


def test_complete_basis():
    """V of one Smith form completes the kernel V[:, r:] to a basis of Z^n."""
    cols = [[1, 0, 2], [0, 1, 3]]
    fac = IntFactorization(M([[2, 3, -1]]))
    kernel, comp = fac.kernel(), fac.V.columns()[:fac.rank]
    assert hnf_rows(kernel, 3) == hnf_rows(cols, 3)
    full = [list(c) for c in kernel] + [list(c) for c in comp]
    assert abs(det_bareiss([list(r) for r in zip(*full)])) == 1


# -- Hermite form / lattices -------------------------------------------------

def test_hnf_canonical_for_equal_lattices():
    basis1 = [[2, 0, 1], [0, 3, 1]]
    # same lattice, different generators
    basis2 = [[2, 3, 2], [2, -3, 0], [2, 0, 1]]
    assert hnf_rows(basis1) == hnf_rows(basis2)


def test_hnf_membership_iff_row_span():
    rng = random.Random(9)
    for _ in range(40):
        gens = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        h = hnf_rows(gens, 4)
        coeffs = [rng.randint(-2, 2) for _ in gens]
        combo = [sum(c * g[t] for c, g in zip(coeffs, gens)) for t in range(4)]
        assert hnf_rows(h + [combo], 4) == h


# -- p-local SNF --------------------------------------------------------------

def test_p_local_snf_diag_powers():
    a = [[Fraction(2), Fraction(1, 3)], [Fraction(4), Fraction(6)]]
    diag = p_local_snf(a, 2).diag
    from padicforms.arith import valuation
    exps = [valuation(d, 2) for d in diag if d]
    assert exps == sorted(exps)
    # unit pivot exists because 1/3 is a 2-adic unit
    assert exps[0] == 0


def test_p_local_solve_without_columns():
    """A map out of the zero module has [] only for the zero target."""
    assert p_local_solve([[], []], [Fraction(0), Fraction(0)], 2) == []
    assert p_local_solve([[], []], [Fraction(0), Fraction(1)], 2) is None


def test_p_local_rank_matches_integer_snf():
    rng = random.Random(21)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        for p in (2, 3):
            pdiag = p_local_snf([[Fraction(x) for x in row] for row in a], p).diag
            pexps = [valuation(d, p) for d in pdiag if d]
            free = sum(1 for e in pexps if e == 0)
            tors = sorted(int(e) for e in pexps if e > 0)
            _, D, _ = smith_normal_form(M(a))
            diag = [D[(i, i)] for i in range(min(n, m)) if D[(i, i)]]
            from padicforms.arith import int_valuation
            exps = sorted(int_valuation(d, p) for d in diag)
            assert free == sum(1 for e in exps if e == 0)
            assert tors == [e for e in exps if e > 0]


# -- lattice membership -------------------------------------------------------

def brute_membership(target, gens, p, bound):
    """Oracle: exhaustive search over small integer coefficients divided by p-units."""
    if not gens:
        return all(Fraction(t) == 0 for t in target)
    coeff_range = [Fraction(c) for c in range(-bound, bound + 1)]
    for combo in itertools.product(coeff_range, repeat=len(gens)):
        vec = [sum(c * Fraction(g[t]) for c, g in zip(combo, gens))
               for t in range(len(target))]
        if vec == [Fraction(t) for t in target]:
            return True
    return False


def test_membership_basic():
    gens = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    coeffs = lattice_membership([Fraction(3), Fraction(5)], gens, 2)
    assert coeffs == [3, 5]


def test_membership_identity_generator():
    gens = [[Fraction(2), Fraction(4)]]
    coeffs = lattice_membership([Fraction(2), Fraction(4)], gens, 3)
    assert coeffs == [1]


def test_membership_requires_p_integrality():
    g1 = [Fraction(2), Fraction(0)]
    target = [Fraction(1), Fraction(0)]  # (1/2) * g1, not 2-integral
    assert lattice_membership(target, [g1], 2) is None
    # but it is 3-integral
    coeffs = lattice_membership(target, [g1], 3)
    assert coeffs == [Fraction(1, 2)]


def test_membership_agrees_with_bruteforce():
    rng = random.Random(31)
    for _ in range(80):
        dim = rng.randint(1, 4)
        k = rng.randint(1, 3)
        gens = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(k)]
        target = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
        for p in (2, 3):
            got = lattice_membership(target, gens, p)
            if got is not None:
                vec = [sum(c * g[t] for c, g in zip(got, gens)) for t in range(dim)]
                assert vec == target
                assert all(c.denominator % p for c in got)
            else:
                # brute force over integer coefficients cannot certify
                # infeasibility over the local ring, but feasibility found by
                # brute force must also be found by the solver
                assert not brute_membership(target, gens, p, p ** 2)


def test_membership_certificate():
    g1 = [Fraction(2), Fraction(0)]
    target = [Fraction(1), Fraction(0)]
    coeffs, cert = lattice_membership(target, [g1], 2, with_certificate=True)
    assert coeffs is None and cert is not None
    assert cert.check(target, [g1])
    # no generators: only the zero target is reached, else a rational obstruction
    assert lattice_membership([Fraction(0)] * 2, [], 2, with_certificate=True) == ([], None)
    coeffs, cert = lattice_membership(target, [], 2, with_certificate=True)
    assert coeffs is None and cert.modulus == 0 and cert.check(target, [])


# -- cohomology ---------------------------------------------------------------

def zero_map(rows, cols):
    return SparseIntMatrix.zero(rows, cols)


def test_cohomology_free():
    rep = cohomology(zero_map(3, 0), zero_map(0, 3), "Z", 2)
    assert rep.free_rank == 3 and rep.torsion == []


def test_cohomology_times_two():
    # 0 -> Z --x2--> Z -> 0 at p = 2, degree 1: cokernel Z/2
    d_prev = M([[2]])
    d_cur = zero_map(0, 1)
    rep = cohomology(d_prev, d_cur, "Z", 2)
    assert rep.free_rank == 0 and rep.torsion == [2]
    # at p = 3 the torsion is prime to p and is stripped into prime_to_p_torsion
    rep3 = cohomology(d_prev, d_cur, "Z", 3)
    assert rep3.free_rank == 0 and rep3.torsion == []
    assert rep3.prime_to_p_torsion == [2]


def test_cohomology_checks_composability():
    with pytest.raises(StructuralError):
        cohomology(M([[1], [1]]), M([[1, 1]]), "Z", 2)


def brute_cohomology_orders(d_prev, d_cur, p, N):
    """Oracle: enumerate the quotient ker/im of the complex reduced mod p^N."""
    m = p ** N
    ncells = d_cur.cols
    vectors = list(itertools.product(range(m), repeat=ncells))
    kernel = [v for v in vectors
              if all(x % m == 0 for x in d_cur.mul_vector(list(v)))]
    image = set()
    for w in itertools.product(range(m), repeat=d_prev.cols):
        image.add(tuple(x % m for x in d_prev.mul_vector(list(w))))
    # order of the quotient group
    return len(kernel) // len(image)


def test_cohomology_mod_matches_bruteforce():
    rng = random.Random(41)
    trials = 0
    while trials < 25:
        rows_b, cols_b = rng.randint(1, 2), rng.randint(1, 3)
        cols_a = rng.randint(0, 2)
        d_cur = rand_matrix(rng, rows_b, cols_b, -3, 3)
        if cols_a:
            ker = IntFactorization(d_cur).kernel()
            if not ker:
                continue
            cols = []
            for _ in range(cols_a):
                combo = [0] * d_cur.cols
                for v in ker:
                    c = rng.randint(-2, 2)
                    combo = [x + c * y for x, y in zip(combo, v)]
                cols.append(combo)
            d_prev = SparseIntMatrix(d_cur.cols, cols_a,
                                     {(i, j): cols[j][i] for j in range(cols_a)
                                      for i in range(d_cur.cols) if cols[j][i]})
        else:
            d_prev = zero_map(d_cur.cols, 0)
        for p, N in ((2, 2), (3, 1)):
            if d_cur.cols > 2 and p ** N > 4:
                continue
            rep = cohomology(d_prev, d_cur, ("Zmod", p ** N), p)
            want = brute_cohomology_orders(d_prev, d_cur, p, N)
            assert rep.order() == want, (d_prev.to_rows(), d_cur.to_rows(), p, N)
        trials += 1


def test_cohomology_gf():
    # over F_2: 0 -> Z --x2--> Z -> 0 becomes 0 map, so H^1 = F_2
    rep = cohomology(M([[2]]), zero_map(0, 1), ("GF", 2))
    assert rep.free_rank == 1
    rep = cohomology(M([[1]]), zero_map(0, 1), ("GF", 2))
    assert rep.free_rank == 0


def test_class_coordinates_and_membership():
    # H = Z/2 generated by the kernel vector itself
    d_prev = M([[2]])
    d_cur = zero_map(0, 1)
    rep = cohomology(d_prev, d_cur, "Z", 2)
    assert rep.class_coordinates([1]) != rep.class_coordinates([0])
    assert rep.same_class([1], [3])
    assert rep.is_coboundary([2])


# -- oracle properties (hypothesis, sympy) -------------------------------------

ORACLE = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def int_rows(max_rows=4, max_cols=4, bound=6):
    """Nonempty integer matrices as lists of rows."""
    return st.integers(1, max_rows).flatmap(lambda n: st.integers(1, max_cols).flatmap(
        lambda m: st.lists(st.lists(st.integers(-bound, bound), min_size=m, max_size=m),
                           min_size=n, max_size=n)))


def int_vectors(length, bound=6):
    return st.lists(st.integers(-bound, bound), min_size=length, max_size=length)


@ORACLE
@given(int_rows())
def test_snf_invariant_factors_match_sympy(rows):
    _, D, _ = smith_normal_form(M(rows))
    theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    k = min(len(rows), len(rows[0]))
    assert [abs(D[(i, i)]) for i in range(k)] == \
        [abs(int(theirs[i, i])) for i in range(k)]


@ORACLE
@given(int_rows(), st.sampled_from([2, 3, 5]))
def test_p_local_exponents_are_valuations_of_invariant_factors(rows, p):
    _, D, _ = smith_normal_form(M(rows))
    k = min(len(rows), len(rows[0]))
    want = [int_valuation(D[(i, i)], p) for i in range(k) if D[(i, i)]]
    diag = p_local_snf([[Fraction(x) for x in row] for row in rows], p).diag
    assert [valuation(d, p) for d in diag if d] == want


@ORACLE
@given(int_rows(), st.data())
def test_held_int_factorization_matches_one_shot(rows, data):
    mat = M(rows)
    fac = IntFactorization(mat)
    assert fac.kernel() == IntFactorization(mat).kernel()
    for _ in range(4):
        in_image = data.draw(st.booleans())
        target = mat.mul_vector(data.draw(int_vectors(mat.cols))) if in_image \
            else data.draw(int_vectors(mat.rows))
        held = fac.solve(target)
        assert held == solve_int(mat, target)
        if held is None:
            assert not in_image
        else:
            assert mat.mul_vector(held) == target
        for modulus in (4, 9):
            held = fac.solve(target, modulus)
            assert held == IntFactorization(mat).solve(target, modulus)
            if held is None:
                assert not in_image
            else:
                assert all(0 <= x < modulus for x in held)
                assert all((a - b) % modulus == 0
                           for a, b in zip(mat.mul_vector(held), target))


@ORACLE
@given(int_rows(5, 6), st.data())
def test_int_kernel_coordinates_match_a_solve_in_the_kernel_basis(rows, data):
    mat = M(rows)
    fac = IntFactorization(mat)
    kernel = fac.kernel()

    def frozen(x):
        # the reader kernel_coordinates replaced: a Smith form of the kernel
        # basis itself, then a solve in it
        return IntFactorization.from_columns(kernel, mat.cols).solve(x)

    c = data.draw(int_vectors(len(kernel)))
    x = combine_columns(kernel, c, mat.cols)
    assert fac.kernel_coordinates(x) == c == frozen(x)
    for _ in range(3):
        x = data.draw(int_vectors(mat.cols))
        held = fac.kernel_coordinates(x)
        assert held == frozen(x)
        # the kernel basis is saturated: an integer x is in its span iff A*x = 0
        assert (held is None) == any(mat.mul_vector(x))


@ORACLE
@given(int_rows(5, 6))
def test_int_kernel_rows_of_v_inverse_invert_v(rows):
    """Rows r.. of V^-1, replayed from the column operations, read kernel
    column j of V as e_j, and no column of V before the kernel as a kernel
    vector."""
    fac = IntFactorization(M(rows))
    s = fac.cols - fac.rank
    for j, col in enumerate(fac.V.columns()):
        want = [int(t == j - fac.rank) for t in range(s)] if j >= fac.rank else None
        assert fac.kernel_coordinates(col) == want


@ORACLE
@given(st.integers(1, 5), st.booleans(), st.data())
def test_hermite_basis_coordinates_match_a_solve_in_the_basis(width, full, data):
    """Forward substitution in an HNF basis against a solve through a Smith
    form of the basis, on rank-deficient lattices and on full-rank ones (the
    shape of a kernel mod m)."""
    gens = data.draw(st.lists(int_vectors(width, 4), max_size=4))
    if full:
        m = data.draw(st.sampled_from([2, 4, 9]))
        gens += [[m * (t == i) for t in range(width)] for i in range(width)]
    basis = hnf_rows(gens, width)
    assert not full or len(basis) == width
    reader = HermiteBasis(basis)
    solver = IntFactorization.from_columns(basis, width)
    c = data.draw(int_vectors(len(basis)))
    x = combine_columns(basis, c, width)
    assert reader.coordinates(x) == c == solver.solve(x)
    for _ in range(3):
        x = data.draw(int_vectors(width))
        assert reader.coordinates(x) == solver.solve(x)


@ORACLE
@given(st.integers(0, 4), st.integers(1, 4), st.sampled_from([2, 3, 5]), st.data())
def test_kernel_coordinates_read_off_the_free_columns(nrows, ncols, p, data):
    # p-integral entries, some with p-unit denominators; nrows = 0 is the map
    # into the zero module, whose kernel is everything
    unit = p + 1
    rows = [[Fraction(x, data.draw(st.sampled_from([1, unit]))) for x in row]
            for row in data.draw(st.lists(int_vectors(ncols, 3),
                                          min_size=nrows, max_size=nrows))]
    fac = PLocalFactorization(rows, p, ncols)
    kernel = fac.kernel()

    def applied(x):
        return [sum(r[j] * x[j] for j in range(ncols)) for r in rows]

    def reference(x):
        # a solve in the kernel basis itself, whose coordinates are unique
        return lattice_membership(x, kernel, p)

    c = [Fraction(t, unit) for t in data.draw(int_vectors(len(kernel)))]
    x = [sum(ci * col[r] for ci, col in zip(c, kernel)) for r in range(ncols)]
    assert fac.kernel_coordinates(x) == c == reference(x)
    for _ in range(3):
        x = [Fraction(t, data.draw(st.sampled_from([1, unit, p])))
             for t in data.draw(int_vectors(ncols))]
        held = fac.kernel_coordinates(x)
        assert held == reference(x)
        if any(applied(x)):
            assert held is None
    for col in kernel:
        assert fac.kernel_coordinates([t / p for t in col]) is None
        assert reference([t / p for t in col]) is None


@ORACLE
@given(int_rows(), st.sampled_from([2, 3]), st.data())
def test_held_p_local_factorization_matches_one_shot(rows, p, data):
    # divide by a p-unit so the entries are p-integral but not all integers
    unit = p + 1
    frac = [[Fraction(x, unit) for x in row] for row in rows]
    ncols = len(rows[0])
    fac = PLocalFactorization(frac, p)
    assert fac.kernel() == p_local_kernel(frac, p, ncols)
    for _ in range(4):
        in_image = data.draw(st.booleans())
        if in_image:
            x = data.draw(int_vectors(ncols))
            target = [sum(r[j] * x[j] for j in range(ncols)) for r in frac]
        else:
            target = [Fraction(t) for t in data.draw(int_vectors(len(rows)))]
        got = _check_p_local_solve(frac, target, p, fraction_p_local_snf(frac, p))
        assert got is not None or not in_image


@ORACLE
@given(int_rows())
def test_int_inverse_columns_invert_u(rows):
    fac = IntFactorization(M(rows))
    n = len(rows)
    assert len(fac.uinv) == n
    for i, w in enumerate(fac.uinv):
        assert fac.U.mul_vector(w) == [int(t == i) for t in range(n)]


@ORACLE
@given(int_rows(), st.sampled_from([2, 3]))
def test_p_local_inverse_columns_invert_u(rows, p):
    """Each column of U^-1 is p-integral, the reference's U maps it to the
    unit vector, and ``left`` (U*y by forward substitution) maps it back."""
    frac = [[Fraction(x, p + 1) for x in row] for row in rows]
    fac = PLocalFactorization(frac, p)
    u = fraction_p_local_snf(frac, p)[0]
    n = len(rows)
    for i in range(n):
        w, unit = fac.inverse_column(i), [int(t == i) for t in range(n)]
        assert all(c.denominator % p for c in w)
        assert [sum(r[t] * c for t, c in enumerate(w)) for r in u] == unit
        assert fac.left(w) == unit


@ORACLE
@given(int_rows(), st.sampled_from([2, 3, 5]))
def test_gf_kernel_size_is_corank_of_p_local_snf(rows, p):
    ncols = len(rows[0])
    ker = EchelonKernel(M(rows), p).kernel()
    for v in ker:
        assert all(x % p == 0 for x in M(rows).mul_vector(v))
    diag = p_local_snf([[Fraction(x) for x in row] for row in rows], p).diag
    assert len(ker) == ncols - sum(1 for d in diag if d and valuation(d, p) == 0)


def _frozen_kernel_mod(mat, m):
    """The kernel mod m as first computed: ker [mat | m*I], projected."""
    entries = dict(mat.entries)
    for i in range(mat.rows):
        entries[(i, mat.cols + i)] = m
    big = SparseIntMatrix(mat.rows, mat.cols + mat.rows, entries)
    return [col[:mat.cols] for col in IntFactorization(big).kernel()]


@pytest.mark.parametrize("m", [2, 4, 8, 9])
@ORACLE
@given(rows=int_rows())
def test_kernel_mod_m_matches_padded_smith_form(m, rows):
    mat = M(rows)
    ker = IntFactorization(mat).kernel(m)
    assert len(ker) == mat.cols
    for x in ker:
        assert all(v % m == 0 for v in mat.mul_vector(x))
    assert hnf_rows(ker, mat.cols) == hnf_rows(_frozen_kernel_mod(mat, m), mat.cols)


def p_units(p):
    return st.sampled_from([b for b in range(1, 15) if b % p])


def p_integral_rows(p, max_size=8):
    """Mostly-zero p-integral Fraction matrices up to max_size x max_size.

    A nonzero entry is p^k * a / b with its own p-unit denominator b, so
    valuations vary and the rows need their denominators cleared.
    """
    entry = st.builds(lambda z, k, a, b: Fraction(0) if z else Fraction(p ** k * a, b),
                      st.integers(0, 2), st.integers(0, 3), st.integers(-4, 4), p_units(p))
    return st.integers(1, max_size).flatmap(lambda n: st.integers(1, max_size).flatmap(
        lambda m: st.lists(st.lists(entry, min_size=m, max_size=m),
                           min_size=n, max_size=n)))


def _check_p_local_solve(rows, target, p, snf):
    """p_local_solve against the Fraction solve through a Smith form of rows:
    None exactly when that is None, else a p-integral solution, and the same
    one when the columns are independent.  Returns the solution."""
    got = p_local_solve(rows, target, p)
    want = _fraction_solve(snf, target, p)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(Fraction(c).denominator % p for c in got)
        assert [sum(r[j] * got[j] for j in range(len(got))) for r in rows] == target
        if all(snf[1]) and len(snf[1]) == len(got):
            assert got == want
    return got


def _fraction_solve(snf, target, p):
    """Reference: the Fraction solve against (U, diag, V) of a Smith form."""
    u, diag, v, _ = snf
    y = [Fraction(0)] * len(v)
    for i, row in enumerate(u):
        rhs = sum((c * t for c, t in zip(row, target)), Fraction(0))
        d = diag[i] if i < len(diag) else 0
        if (d and valuation(rhs / d, p) < 0) or (not d and rhs):
            return None
        if d:
            y[i] = rhs / d
    return [sum((c * t for c, t in zip(vr, y)), Fraction(0)) for vr in v]


@pytest.mark.parametrize("p", [2, 3, 5])
@ORACLE
@given(data=st.data())
def test_p_local_snf_matches_fraction_elimination(p, data):
    """p_local_snf and PLocalFactorization against the Fraction reference:
    the diagonal, the kernel columns V[:, r:] (the identity on ``free``),
    ``acols`` over the p-unit row scales, every column of U^-1, U*y, and the
    solves.  Copies of rows (times 1, -1, a p-unit or p) and zero rows are
    mixed in, so rows become all zero during the elimination."""
    rows = data.draw(p_integral_rows(p))
    for _ in range(data.draw(st.integers(0, 4))):
        src = data.draw(st.integers(-1, len(rows) - 1))
        scale = data.draw(st.sampled_from([1, -1, p + 1, p]))
        extra = [Fraction(0)] * len(rows[0]) if src < 0 else \
            [scale * x for x in rows[src]]
        rows.insert(data.draw(st.integers(0, len(rows))), extra)
    u, diag, v, uinv = fraction_p_local_snf(rows, p)
    n, m = len(rows), len(rows[0])
    ua = [[sum(u[i][s] * rows[s][t] for s in range(n)) for t in range(m)]
          for i in range(n)]
    uav = [[sum(ua[i][t] * v[t][j] for t in range(m)) for j in range(m)]
           for i in range(n)]
    assert uav == [[diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
    rank = sum(1 for d in diag if d)
    kernel = [[row[j] for row in v] for j in range(rank, m)]
    snf = p_local_snf(rows, p)
    assert snf.diag == diag and snf.kernel == kernel
    assert [[col[f] for f in snf.free] for col in kernel] == identity_rows(m - rank)
    assert all(s % p for s in snf.scales)
    assert snf.acols == [[(i, rows[i][j] * snf.scales[i]) for i in range(n) if rows[i][j]]
                         for j in range(m)]
    assert all(type(x) is int for col in snf.acols for _, x in col)
    fac = PLocalFactorization(rows, p)
    assert fac.rank == rank and fac.kernel() == kernel
    assert PLocalFactorization(integer_rows(rows, p), p, m).kernel() == kernel
    for i in range(n):
        assert fac.inverse_column(i) == [uinv[i].get(t, 0) for t in range(n)]
        assert fac.left([int(t == i) for t in range(n)]) == [row[i] for row in u]
    y = data.draw(st.lists(st.builds(Fraction, st.integers(-6, 6), p_units(p)),
                           min_size=n, max_size=n))
    assert fac.left(y) == [sum(c * t for c, t in zip(row, y)) for row in u]
    x = data.draw(int_vectors(m))
    image = [sum(r[j] * x[j] for j in range(m)) for r in rows]
    other = data.draw(st.lists(st.builds(Fraction, st.integers(-6, 6),
                                         st.sampled_from([p, p * p]) | p_units(p)),
                               min_size=n, max_size=n))
    for target in (image, [t / p for t in image], other):
        _check_p_local_solve(rows, target, p, (u, diag, v, uinv))
    assert p_local_solve(rows, image, p) is not None


@pytest.mark.parametrize("p", [2, 3, 5])
@ORACLE
@given(data=st.data())
def test_p_local_snf_without_u_matches_full_mode(p, data):
    """p_local_snf, which never forms U, on the cleared integer rows and on
    the Fraction rows: the diagonal and the kernel columns of the full
    Fraction elimination (U, diag, V), and the same free columns and acols.
    Copies of rows (times 1, a p-unit or p) and zero rows are mixed in, so
    rows become all zero during the elimination."""
    rows = data.draw(p_integral_rows(p))
    for _ in range(data.draw(st.integers(0, 4))):
        src = data.draw(st.integers(-1, len(rows) - 1))
        scale = data.draw(st.sampled_from([1, -1, p + 1, p]))
        extra = [Fraction(0)] * len(rows[0]) if src < 0 else \
            [scale * x for x in rows[src]]
        rows.insert(data.draw(st.integers(0, len(rows))), extra)
    m = len(rows[0])
    _, diag, v, _ = fraction_p_local_snf(rows, p)
    rank = sum(1 for d in diag if d)
    full = p_local_snf(rows, p)
    bare = p_local_snf(integer_rows(rows, p), p)
    assert bare.diag == full.diag == diag
    assert bare.free == full.free
    assert bare.acols == full.acols
    assert bare.kernel == full.kernel == [[row[j] for row in v] for j in range(rank, m)]
    assert bare.scales == [1] * len(rows)
    held = PLocalFactorization(integer_rows(rows, p), p, m)
    assert held.kernel() == PLocalFactorization(rows, p).kernel() == bare.kernel
    assert held.rank == rank


@pytest.mark.parametrize("p", [2, 3, 5])
@ORACLE
@given(data=st.data())
def test_p_local_snf_rejects_p_in_a_denominator(p, data):
    rows = data.draw(p_integral_rows(p))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] = Fraction(data.draw(p_units(p)), p * data.draw(st.integers(1, 4)))
    with pytest.raises(StructuralError, match="not p-integral"):
        p_local_snf(rows, p)


def _corrupt_last_inverse_column(snf):
    if snf.uinv:
        snf.uinv[-1][0] += 1
    return snf


@pytest.mark.parametrize("ring", ["Z", ("Zmod", 4)])
def test_corrupt_inverse_column_raises(monkeypatch, ring):
    real = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda mat: _corrupt_last_inverse_column(real(mat)))
    with pytest.raises(StructuralError, match="inverse column"):
        cohomology(M([[2]]), zero_map(0, 1), ring, 2)


def test_corrupt_kernel_row_of_v_inverse_raises(monkeypatch):
    """A wrong recorded column operation gives a wrong row of V^-1, and
    coordinates from which the kernel columns do not rebuild the cocycle."""
    real = linalg.smith_normal_form

    def corrupt(mat):
        snf = real(mat)
        if mat.cols > 1:
            snf.vops.append((0, 1, None))  # a swap the elimination never made
        return snf

    monkeypatch.setattr(linalg, "smith_normal_form", corrupt)
    rep = cohomology(zero_map(2, 0), M([[1, -1]]), "Z", 2)
    assert rep.invariants() == (1, [])
    with pytest.raises(StructuralError, match="not a cocycle"):
        rep.class_coordinates(rep.generators[0])


def test_corrupt_p_local_inverse_column_raises(monkeypatch):
    """One entry of a pivot column of V off by one: the column of U^-1 read
    off it is not a p-unit on its own row."""
    real = linalg.p_local_snf

    def corrupt(rows, p):
        snf = real(rows, p)
        support, values, den = snf.pivots[-1]
        snf.pivots[-1] = support, (values[0] + 1,) + values[1:], den
        return snf

    monkeypatch.setattr(linalg, "p_local_snf", corrupt)
    with pytest.raises(StructuralError, match="inverse column"):
        p_local_cohomology([[Fraction(2)]], [], 2)


def test_zmod_class_coordinates_unchanged():
    """Z/m class coordinates on seeded random spaces, as first recorded."""
    cases = json.loads((GOLDEN / "zmod_class_coordinates.json").read_text())
    reports = {}
    for case in cases:
        key = (case["seed"], case["modulus"], case["degree"])
        if key not in reports:
            dga = DgaData.from_space(random_space(case["seed"]))
            reports[key] = dga.cohomology(case["degree"], ("Zmod", case["modulus"]))
        assert reports[key].class_coordinates(case["vector"]) == \
            case["coordinates"], case


# -- universal coefficients --------------------------------------------------

def _uct_complexes():
    spaces = [rp2(), sphere(2), delta(3), boundary_delta(3)] + \
        [random_space(s, 3, 5, 3) for s in range(8)]
    for space in spaces:
        for p in (2, 3):
            yield space, normalized_cochain_complex(space), p
            yield space, build_D(space, p), p


def _group(cx, q, ring, p):
    d_prev = cx.diff(q - 1) if q > 0 else SparseIntMatrix.zero(cx.dim(0), 0)
    return cohomology(d_prev, cx.diff(q), ring, p)


def test_universal_coefficients_predict_mod_p_and_mod_p_power_cohomology():
    """H^q(C; Z/p^k) = H^q(C) (x) Z/p^k + Tor(H^(q+1)(C), Z/p^k), from the Z answer.

    A free summand gives Z/p^k and a Z/p^e summand of H^q or of H^(q+1) gives
    Z/p^min(e, k); over F_p this counts dimensions.
    """
    cases = 0
    for space, cx, p in _uct_complexes():
        for q in range(space.dimension + 1):
            here, above = _group(cx, q, "Z", p), _group(cx, q + 1, "Z", p)
            tors = here.torsion + above.torsion
            gf = _group(cx, q, ("GF", p), p)
            assert gf.free_rank == here.free_rank + len(tors), (space.name, p, q)
            for k in (1, 2, 3):
                pk = p ** k
                got = _group(cx, q, ("Zmod", pk), p)
                want = sorted([pk] * here.free_rank + [min(t, pk) for t in tors])
                assert got.invariants() == (0, want), (space.name, p, q, k)
        cases += 1
    assert cases == 48


# -- F_p cohomology against a frozen copy of the echelon routine -----------------

def _frozen_gf_kernel(rows, p, ncols):
    """The F_p kernel basis as gf_kernel made it before EchelonKernel."""
    basis = {}
    for row in rows:
        linalg._gf_insert(basis, row, p)
    kernel = []
    for c in range(ncols):
        if c not in basis:
            vec = [0] * ncols
            vec[c] = 1
            for lead, row in basis.items():
                vec[lead] = (-row[c]) % p
            kernel.append(vec)
    return kernel


class _FrozenEchelonReader:
    """F_p class coordinates: the vector reduced by the image's echelon basis."""

    def __init__(self, image, p):
        self.image, self.p = image, p

    def class_coordinates(self, vector):
        return linalg._gf_reduce(self.image, vector, self.p)


def _frozen_cohomology_gf(d_prev, d_cur, p):
    """Cohomology with F_p coefficients: a vector space, reported as free rank.

    The generators are the kernel vectors that enlarge the span of the image
    and the generators before them; d o d = 0 puts the image in the kernel.
    """
    ker = _frozen_gf_kernel(d_cur.to_rows(), p, d_cur.cols)
    image = {}
    for col in d_prev.columns():
        linalg._gf_insert(image, col, p)
    basis = dict(image)
    reps = []
    for v in ker:
        if len(basis) == len(ker):
            break
        if linalg._gf_insert(basis, v, p):
            reps.append(v)
    return linalg.AbelianGroupReport(len(reps), [], reps,
                                     _reader=_FrozenEchelonReader(image, p))


@st.composite
def _two_step_complexes(draw):
    """(d_prev, d_cur) with d_cur * d_prev = 0 over Z: the rows of d_cur are
    random combinations of a basis of the left kernel of d_prev."""
    n = draw(st.integers(1, 6))
    d_prev = draw(st.lists(int_vectors(draw(st.integers(0, 4)), 3), min_size=n,
                           max_size=n))
    k = len(d_prev[0])
    left = IntFactorization.from_columns(d_prev, k).kernel() if k else \
        [[int(i == j) for j in range(n)] for i in range(n)]
    rows = [combine_columns(left, draw(int_vectors(len(left), 3)), n)
            for _ in range(draw(st.integers(0, 4)))]
    return SparseIntMatrix.from_rows(d_prev, k), SparseIntMatrix.from_rows(rows, n)


@pytest.mark.parametrize("p", [2, 3, 5])
@ORACLE
@given(cx=_two_step_complexes(), data=st.data())
def test_gf_cohomology_matches_frozen_echelon_copy(p, cx, data):
    """Free rank, generators (exactly), is_coboundary and same_class on random
    cocycles mod p; the live report reads its generators as unit vectors."""
    d_prev, d_cur = cx
    live = cohomology(d_prev, d_cur, ("GF", p))
    frozen = _frozen_cohomology_gf(d_prev, d_cur, p)
    assert live.invariants() == (frozen.free_rank, [])
    assert live.generators == frozen.generators
    for i, gen in enumerate(live.generators):
        assert live.class_coordinates(gen) == [int(j == i) for j in range(live.free_rank)]
    kernel = _frozen_gf_kernel(d_cur.to_rows(), p, d_cur.cols)
    image = d_prev.columns()

    def cocycle():
        vec = combine_columns(kernel, data.draw(int_vectors(len(kernel), p)), d_cur.cols)
        vec = [x + p * y for x, y in zip(vec, data.draw(int_vectors(d_cur.cols, 2)))]
        if image and data.draw(st.booleans()):
            vec = [x + y for x, y in zip(vec, combine_columns(
                image, data.draw(int_vectors(len(image), 3)), d_cur.cols))]
        return vec

    for _ in range(3):
        v, w = cocycle(), cocycle()
        assert live.is_coboundary(v) == frozen.is_coboundary(v)
        assert live.same_class(v, w) == frozen.same_class(v, w)
    for col in image:
        assert live.is_coboundary(col)


def test_bare_gf_string_is_an_unknown_ring():
    """"GF" without its prime is no ring value: one ValueError, wherever it enters."""
    with pytest.raises(ValueError, match="unknown ring 'GF'"):
        cohomology(M([[2]]), zero_map(0, 1), "GF", 2)
    with pytest.raises(ValueError, match="unknown ring 'GF'"):
        normalized_cochain_complex(rp2()).cohomology(1, "GF", 2)


@pytest.mark.parametrize("factor", ["U", "D", "V"])
def test_smith_form_self_check_catches_one_corrupted_entry(factor):
    """Every single-entry corruption of U, D or V breaks U*M*V = D for a matrix
    of full rank, so _check_snf raises."""
    mat = M([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    snf = dict(zip("UDV", smith_normal_form(mat)))
    linalg._check_snf(mat, snf["U"], snf["D"], snf["V"])
    bad = snf[factor]
    for i, j in itertools.product(range(bad.rows), range(bad.cols)):
        entries = dict(bad.entries)
        entries[(i, j)] = entries.get((i, j), 0) + 1
        corrupted = dict(snf, **{factor: SparseIntMatrix(bad.rows, bad.cols, entries)})
        with pytest.raises(StructuralError):
            linalg._check_snf(mat, corrupted["U"], corrupted["D"], corrupted["V"])
