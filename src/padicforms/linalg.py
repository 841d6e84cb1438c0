"""Sparse exact linear algebra over Z, Z/m, F_p and the local ring at p.

Everything here is deterministic and exact: integer Smith and Hermite normal
forms with unimodular transforms, kernels, quotient presentations of
cohomology groups, and lattice membership over the local ring at p (decided by
valuations of an explicit SNF solution).  Matrices are small (desk scale), so
the algorithms favour clarity and small coefficients (minimal-pivot choice)
over asymptotics.

One factorization per matrix: IntFactorization (integer SNF U*A*V = D)
answers ``solve``, ``kernel`` and ``kernel_coordinates``, PLocalFactorization
(Smith form over the local ring at p) answers ``kernel`` and
``kernel_coordinates``, and no basis that a factorization or an HNF holds is
factored again.  There is one solve over the local ring, lattice_membership
(``p_local_solve`` is a call into it): x = V*D^+*U*b on the integer Smith
form, with each coordinate's valuation checked.  One integer Smith form
answers solves and kernels over Z and Z/m alike: x = V*y solves A*x = 0
(mod m) iff m divides d_j*y_j for every j.  The integer Smith form records
the inverse of its left transform as it eliminates, and V^-1 as its column
operations: the coordinates of x in the kernel basis V[:, r:] are rows r.. of
V^-1 times x, kept only if the kernel columns rebuild x.  An ``hnf_rows`` basis
is read by forward substitution (HermiteBasis).  The local Smith form is one
fraction-free elimination that never forms U: U^-1 is read off V's pivot
columns, and U*y by forward substitution in its columns.

A coefficient ring is one value, read only here: "Z", ("GF", p) or
("Zmod", m).  Cohomology over Z, Z/m, F_p and the local ring share one
quotient routine, and every report holds one ``class_coordinates`` reader,
which answers the coordinates of a class in the report's generators.  Over
F_p the kernel and the relations are reduced to echelon form mod p
(EchelonKernel), with no integer Smith form.

The dense row helpers (mat_vec, combine_columns, identity_rows) and the rows
over p-unit denominators that the level families keep (denominator_rows,
compose_rows, apply_rows) live here too; no other module does linear
algebra of its own.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, zip_longest
from math import gcd, lcm, prod

from padicforms.arith import int_valuation, valuation


class StructuralError(RuntimeError):
    """An invariant that the mathematics guarantees failed to hold."""


# ---------------------------------------------------------------------------
# sparse integer matrices
# ---------------------------------------------------------------------------

class SparseIntMatrix:
    """Immutable-by-convention sparse integer matrix; absent entry means 0.

    Entries must be integral: ints, or numbers equal to an int (such as an
    integral Fraction), which are stored as ints.  Anything else is a
    ValueError."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"index {(i, j)} out of range")
                if v:
                    self.entries[(i, j)] = v if type(v) is int else _integer(v)

    @classmethod
    def _checked(cls, rows, cols, entries):
        """The matrix of a dict already checked: indices in range, values
        nonzero ints.  Skips __init__'s second pass over the entries."""
        mat = object.__new__(cls)
        mat.rows, mat.cols, mat.entries = rows, cols, entries
        return mat

    @classmethod
    def from_rows(cls, data, cols=None):
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        entries = {}
        positions = range(cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j in compress(positions, row):
                v = row[j]
                entries[(i, j)] = v if type(v) is int else _integer(v)
        return cls._checked(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns, rows):
        """The rows x len(columns) matrix whose j-th column is columns[j]."""
        entries = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v:
                    if i >= rows:
                        raise ValueError(f"index {(i, j)} out of range")
                    entries[(i, j)] = v if type(v) is int else _integer(v)
        return cls._checked(rows, len(columns), entries)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    def to_rows(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return data

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v))
        by_col = {}
        for (k, j), v in other.entries.items():
            by_col.setdefault(k, []).append((j, v))
        entries = {}
        for i, row in by_row.items():
            acc = {}
            for k, v in row:
                for j, w in by_col.get(k, ()):
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    entries[(i, j)] = s
        return SparseIntMatrix._checked(self.rows, other.cols, entries)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * vec[j]
        return out

    def columns(self):
        cols = [[0] * self.rows for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def is_zero(self):
        return not self.entries


def _integer(v):
    """v as an int, or ValueError if v is not integral."""
    n = int(v)
    if n != v:
        raise ValueError(f"non-integral entry {v!r}")
    return n


def columns_to_rows(columns, nrows):
    """Dense rows of the nrows x len(columns) matrix with the given columns."""
    return [[col[r] for col in columns] for r in range(nrows)]


def identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


# A matrix over the local ring at p can be kept as rows over denominators:
# row r is (d_r, [(j, a_rj), ...]), the integer entries a_rj / d_r, with d_r a
# p-unit.  The level families keep their face and degeneracy maps this way.

def denominator_rows(columns, nrows):
    """The rows, over denominators, of the matrix with the given columns of
    p-integral Fractions (or integers); each row's denominator is the lcm of
    its entries' denominators."""
    entries = [[] for _ in range(nrows)]
    for j, col in enumerate(columns):
        for r, x in enumerate(col):
            if x:
                entries[r].append((j, x))
    out = []
    for row in entries:
        d = lcm(*(x.denominator for _, x in row))
        out.append((d, [(j, x.numerator * (d // x.denominator)) for j, x in row]))
    return out


def compose_rows(left, right):
    """left * right for two matrices of rows over denominators."""
    out = []
    for d, entries in left:
        common = lcm(*(right[t][0] for t, _ in entries))
        acc = {}
        for t, a in entries:
            dt, row = right[t]
            f = a * (common // dt)
            for j, b in row:
                acc[j] = acc.get(j, 0) + f * b
        out.append((d * common, [(j, x) for j, x in acc.items() if x]))
    return out


def apply_rows(rows, vec):
    """rows * vec for a matrix of rows over denominators, as Fractions."""
    support = {j: x for j, x in enumerate(vec) if x}
    return [Fraction(sum(a * support[j] for j, a in entries if j in support), d)
            for d, entries in rows]


def mat_vec(rows, vec):
    """rows * vec for dense rows; the vector's nonzero entries are found once."""
    support = [(j, x) for j, x in enumerate(vec) if x]
    return [sum(r[j] * x for j, x in support if r[j]) for r in rows]


def combine_columns(cols, coords, length):
    """The vector sum_j coords[j] * cols[j], of the given length."""
    out = [0] * length
    for j, c in enumerate(coords):
        if c:
            col = cols[j]
            for r in range(length):
                if col[r]:
                    out[r] += c * col[r]
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithForm(tuple):
    """The triple (U, D, V) of an integer Smith form, plus the columns of
    U^-1 and the column operations on V.

    ``uinv[i]`` is column i of U^-1, recorded during the elimination: a row
    operation on U is a column operation on U^-1.  Readers check U*w = e_i
    before they use a column.  ``vops`` lists the column operations on V:
    (i, j, q) for col_i -= q * col_j and (i, j, None) for a swap.
    """

    def __new__(cls, u, d, v, uinv, vops):
        self = super().__new__(cls, (u, d, v))
        self.uinv, self.vops = uinv, vops
        return self


def smith_normal_form(mat):
    """U, D, V with U*mat*V = D diagonal, d_i | d_{i+1}, U and V unimodular.

    Pivot choice: nonzero entry of minimal absolute value in the remaining
    block, which keeps coefficient growth tame at this scale.  The factors
    U*mat*V == D and the divisibility chain are verified before returning.
    The result is a SmithForm: the inverse of U is recorded as U is built
    (as dense integer columns in ``uinv``), and V^-1 as V's column
    operations (``vops``).
    """
    a = mat.to_rows()
    n, m = mat.rows, mat.cols
    u = identity_rows(n)
    v = identity_rows(m)
    w = identity_rows(n)  # w[i] is column i of U^-1
    vops = []

    def row_op(i, j, q):  # row_i -= q * row_j, so col_j of U^-1 += q * col_i
        ai, aj = a[i], a[j]
        ui, uj = u[i], u[j]
        wi, wj = w[i], w[j]
        for t in range(m):
            ai[t] -= q * aj[t]
        for t in range(n):
            ui[t] -= q * uj[t]
            wj[t] += q * wi[t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]
        vops.append((i, j, q))

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vops.append((i, j, None))

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        w[i] = [-x for x in w[i]]

    rank = min(n, m)
    k = 0
    while k < rank:
        pivot = None
        best = None
        for i in range(k, n):
            for j in range(k, m):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(k, pi)
        swap_cols(k, pj)
        if a[k][k] < 0:
            negate_row(k)
        # clear row and column k; restart if remainders appear
        while True:
            d = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // d
                    row_op(i, k, q)
                    if a[i][k]:
                        swap_rows(k, i)
                        if a[k][k] < 0:
                            negate_row(k)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, m):
                if a[k][j]:
                    q = a[k][j] // d
                    col_op(j, k, q)
                    if a[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if not dirty:
                break
        k += 1

    # enforce the divisibility chain
    for _ in range(10 * (n + m) + 101):
        changed = False
        for i in range(min(n, m) - 1):
            d1, d2 = a[i][i], a[i + 1][i + 1]
            if d1 and d2 and d2 % d1 != 0:
                # fold a[i+1][i+1] into position i via one column add
                col_op(i, i + 1, -1)  # col_i += col_{i+1}
                # re-reduce the 2x2 block
                while a[i + 1][i]:
                    d = a[i][i]
                    if d:
                        q = a[i + 1][i] // d
                        row_op(i + 1, i, q)
                    if a[i + 1][i]:
                        swap_rows(i, i + 1)
                while a[i][i + 1]:
                    d = a[i][i]
                    if d:
                        q = a[i][i + 1] // d
                        col_op(i + 1, i, q)
                    if a[i][i + 1]:
                        swap_cols(i, i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
        if not changed:
            break
    else:
        raise StructuralError("SNF divisibility pass did not converge")

    for i in range(min(n, m)):
        if a[i][i] < 0:
            negate_row(i)

    U = SparseIntMatrix.from_rows(u, n)
    D = SparseIntMatrix.from_rows(a, m)
    V = SparseIntMatrix.from_rows(v, m)
    _check_snf(mat, U, D, V)
    return SmithForm(U, D, V, w, vops)


def _check_snf(mat, U, D, V):
    if U.mul(mat).mul(V) != D:
        raise StructuralError("SNF check failed: U*M*V != D")
    diag = [D[(i, i)] for i in range(min(D.rows, D.cols))]
    for (i, j), val in D.entries.items():
        if i != j and val:
            raise StructuralError("SNF check failed: D not diagonal")
    for d1, d2 in zip(diag, diag[1:]):
        if d1 == 0 and d2 != 0:
            raise StructuralError("SNF check failed: zero before nonzero")
        if d1 and d2 and d2 % d1 != 0:
            raise StructuralError("SNF check failed: divisibility chain broken")


# ---------------------------------------------------------------------------
# Hermite normal form (row-space canonical form)
# ---------------------------------------------------------------------------

def hnf_rows(vectors, width=None):
    """Canonical row-echelon basis of the integer row span of ``vectors``.

    Pivots are positive, entries above each pivot are reduced into [0, pivot).
    Returns a list of rows; the result is a canonical invariant of the lattice
    the rows generate, so two generating sets span the same lattice iff their
    HNFs are equal.
    """
    if width is None:
        width = len(vectors[0]) if vectors else 0
    by_pivot = {}  # pivot column -> row (leading entry at pivot, zeros before)
    for vec in vectors:
        vec = [int(x) for x in vec]
        while True:
            j = next((t for t in range(width) if vec[t]), None)
            if j is None:
                break
            brow = by_pivot.get(j)
            if brow is None:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                by_pivot[j] = vec
                break
            if vec[j] % brow[j] == 0:
                q = vec[j] // brow[j]
                vec = [a - q * b for a, b in zip(vec, brow)]
            else:
                g, x, y = _xgcd(brow[j], vec[j])
                new_b = [x * a + y * b for a, b in zip(brow, vec)]
                new_v = [(brow[j] // g) * b - (vec[j] // g) * a
                         for a, b in zip(brow, vec)]
                by_pivot[j] = new_b
                vec = new_v
    pivots = sorted(by_pivot)
    # reduce entries above pivots, left to right so finished columns stay put
    for idx in range(len(pivots)):
        pcol = pivots[idx]
        prow = by_pivot[pcol]
        for jdx in range(idx):
            row = by_pivot[pivots[jdx]]
            if row[pcol]:
                q = row[pcol] // prow[pcol]
                if q:
                    for t in range(width):
                        row[t] -= q * prow[t]
    return [by_pivot[pc] for pc in pivots]


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# integer factorization: solves over Z and Z/m, kernels
# ---------------------------------------------------------------------------

class IntFactorization:
    """The Smith form U*A*V = D of an integer matrix A, kept for many solves
    and for coordinates in its own kernel basis."""

    def __init__(self, mat):
        self.cols, self._vinv, self._urows = mat.cols, None, None
        snf = smith_normal_form(mat)
        (self.U, D, self.V), self.uinv, self.vops = snf, snf.uinv, snf.vops
        self.diag = [D[(i, i)] for i in range(min(mat.rows, mat.cols))]
        self.rank = sum(1 for d in self.diag if d)

    @classmethod
    def from_columns(cls, columns, nrows):
        return cls(SparseIntMatrix.from_columns(columns, nrows))

    def left(self, y):
        """U*y; U's dense rows are made once."""
        if self._urows is None:
            self._urows = self.U.to_rows()
        return mat_vec(self._urows, y)

    def inverse_column(self, i):
        """Column i of U^-1, checked against U."""
        w = self.uinv[i]
        if self.U.mul_vector(w) != [int(t == i) for t in range(len(w))]:
            raise StructuralError("recorded inverse column does not invert U")
        return w

    def kernel(self, modulus=0):
        """Integer basis of {x : A*x = 0 (mod modulus)}, as column vectors.

        At modulus 0 it is a saturated basis of ker(A).  Otherwise x = V*y is
        in the kernel iff modulus divides d_j*y_j for every j (d_j = 0 past
        the diagonal), so the columns (modulus / gcd(d_j, modulus)) * V e_j
        are a basis of that full-rank lattice.
        """
        cols = self.V.columns()
        if not modulus:
            return cols[self.rank:]
        return [[modulus // gcd(d, modulus) * x for x in col]
                for col, d in zip_longest(cols, self.diag, fillvalue=0)]

    def kernel_coordinates(self, x):
        """Coordinates y of x in the basis ``kernel()`` (rows r.. of V^-1
        times x), or None unless the kernel columns rebuild x from them.  The
        rows are replayed once from the recorded column operations."""
        if self._vinv is None:
            rows = identity_rows(self.cols)
            for i, j, q in self.vops:
                if q is None:
                    rows[i], rows[j] = rows[j], rows[i]
                else:  # col_i -= q * col_j adds q * row_i to row_j of V^-1
                    rows[j] = [a + q * b for a, b in zip(rows[j], rows[i])]
            self._vinv = SparseIntMatrix.from_rows(rows[self.rank:], self.cols)
        y = self._vinv.mul_vector(x)
        return y if self.V.mul_vector([0] * self.rank + y) == list(x) else None

    def solve(self, target, modulus=0):
        """One x with A*x = target, or None; free coordinates are zero.

        With a modulus the equation is read mod modulus and x is reduced.
        """
        rhs = self.U.mul_vector(list(target))
        y = [0] * self.cols
        for i, c in enumerate(rhs):
            d = self.diag[i] if i < len(self.diag) else 0
            if modulus:
                c, d = c % modulus, d % modulus
                g = gcd(d, modulus)
                if c % g:
                    return None
                if d:
                    y[i] = (c // g) * pow(d // g, -1, modulus // g) % (modulus // g)
            elif d:
                if c % d:
                    return None
                y[i] = c // d
            elif c:
                return None
        x = self.V.mul_vector(y)
        return [v % modulus for v in x] if modulus else x


def solve_int(mat, target):
    """One integer solution x of mat*x = target, or None (free coordinates 0)."""
    return IntFactorization(mat).solve(target)


class HermiteBasis:
    """Coordinates in an ``hnf_rows`` basis, by forward substitution.

    Row k is zero before its pivot and every later row is zero there, so
    coordinate k is what is left at pivot k divided by the pivot; a vector is
    in the lattice iff nothing is left at the end.
    """

    def __init__(self, rows):
        self.rows = [[(j, x) for j, x in enumerate(row) if x] for row in rows]

    def coordinates(self, vector):
        """Integer coordinates of vector in the basis, or None."""
        rest, coords = list(vector), []
        for row in self.rows:
            c = rest[row[0][0]] // row[0][1]
            if c:
                for j, x in row:
                    rest[j] -= c * x
            coords.append(c)
        return None if any(rest) else coords

    kernel_coordinates = coordinates


# ---------------------------------------------------------------------------
# fraction-free p-local (DVR) elimination
# ---------------------------------------------------------------------------

def integer_rows(rows, p):
    """Each row of p-integral Fractions times the lcm of its denominators.

    The lcm is a p-unit, so products of the integer rows are those of the
    given ones up to p-unit factors, which no p-local invariant sees.
    """
    return [_cleared_row(r, p)[0] for r in rows]


def _cleared_row(row, p):
    """(R, s, J): a row of ints or Fractions times the lcm s of its entries'
    denominators, which must be a p-unit, and the row's support J."""
    support = list(compress(range(len(row)), row))
    scale = lcm(*[row[j].denominator for j in support])
    if scale % p == 0:
        raise StructuralError("entry is not p-integral")
    out = [0] * len(row)
    for j in support:  # an int's numerator is the int itself
        x = row[j]
        out[j] = x.numerator if scale == 1 else x.numerator * (scale // x.denominator)
    return out, scale, support


PLocalSmith = namedtuple("PLocalSmith", "diag free kernel acols scales perm pivots")


def p_local_snf(rows, p):
    """Smith form U*A*V = diag(p^e_i), e_1 <= e_2 <= ..., over the local ring
    at p, of a matrix A of p-integral rows (ints or Fractions), as a
    PLocalSmith; U is not formed (PLocalFactorization reads it off V).

    Row i is cleared of its p-unit denominators on entry: R_i = s_i * A_i,
    with s_i in ``scales``, and ``acols`` holds the nonzero entries of the
    R_i by column.  The elimination on the R_i is fraction-free, in the style
    of Bareiss (1968).  The pivot is the first entry of least valuation in
    row-major order, and ``perm[k]`` is the original row moved to position
    k.  A pivot p^e * c (c a p-unit) clears column k from row i by
    R_i <- c*R_i - (R_ik / p^e)*R_k on the support of R_k; the changed row is
    then divided by its p-unit content, and may become zero.

    The column step only touches V, kept as sparse integer columns over
    p-unit denominators: ``pivots`` holds V's first r columns as (support,
    values, denominator) and ``kernel`` V[:, r:] as Fraction columns.  ``free``
    lists the free columns F, never chosen as pivots, in the order of the
    kernel columns.  A column step only subtracts a multiple of the pivot
    column, which is zero outside its own and earlier pivots' original
    columns, from a later column; there are no gcd steps.  So V is the
    identity on F.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    a, scales, acols = [], [], [[] for _ in range(m)]
    for i, r in enumerate(rows):
        row, scale, support = _cleared_row(r, p)
        for j in support:
            acols[j].append((i, row[j]))
        a.append(row)
        scales.append(scale)
    vcol = [{j: 1} for j in range(m)]
    vden = [1] * m  # column j of V is vcol[j] / vden[j]
    orig = list(range(m))  # the original column of column j of V
    perm = list(range(n))
    pes = []

    k = 0
    while k < min(n, m):
        best = None
        for i in range(k, n):
            for j in range(k, m):
                x = a[i][j]
                if x:
                    val = int_valuation(x, p)
                    if best is None or val < best:
                        best, pi, pj = val, i, j
                        if not val:
                            break
            if best == 0:
                break
        if best is None:
            break
        for lst in (a, perm):
            lst[k], lst[pi] = lst[pi], lst[k]
        if pj != k:
            for r in a[k:]:
                r[k], r[pj] = r[pj], r[k]
            for lst in (vcol, vden, orig):
                lst[k], lst[pj] = lst[pj], lst[k]
        rk, pe = a[k], p ** best
        c = rk[k] // pe  # the pivot's unit part
        support = [j for j in range(k, m) if rk[j]]
        for i in range(k + 1, n):
            ri = a[i]
            if ri[k]:
                t = ri[k] // pe
                if c != 1:
                    ri = [c * x for x in ri]
                for j in support:
                    ri[j] -= t * rk[j]
                g = gcd(*ri)  # 0 only for a row that became zero
                while g and g % p == 0:
                    g //= p
                a[i] = [x // g for x in ri] if g > 1 else ri
        vk, dk = vcol[k], vden[k]
        for j in range(k + 1, m):
            if rk[j]:  # column_j of V -= (rk[j] / (c * p^e)) * column_k
                t, rk[j], s = rk[j] // pe * vden[j], 0, c * dk
                vj = vcol[j] if s == 1 else {r: s * x for r, x in vcol[j].items()}
                for r, x in vk.items():
                    y = vj.get(r, 0) - t * x
                    if y:
                        vj[r] = y
                    else:
                        del vj[r]
                g = gcd(vden[j] * s, *vj.values())
                vcol[j] = {r: x // g for r, x in vj.items()} if g > 1 else vj
                vden[j] = vden[j] * s // g
        pes.append(pe)
        a[k] = None  # the pivot row is done with: free it, so the peak falls
        k += 1

    del a  # the rows are done with before the kernel columns are made
    zero = Fraction(0)

    def column(j):
        out, d = [zero] * m, vden[j]
        for r, x in vcol[j].items():
            out[r] = Fraction(x, d) if d != 1 else Fraction(x)
        return out

    diag = [Fraction(pe) for pe in pes] + [zero] * (min(n, m) - k)
    # two tuples take less memory than a dict, and factorizations are held
    pivots = [(tuple(vcol[j]), tuple(vcol[j].values()), vden[j]) for j in range(k)]
    return PLocalSmith(diag, orig[k:], [column(j) for j in range(k, m)], acols,
                       scales, perm, pivots)


class PLocalFactorization:
    """p_local_snf of a p-integral matrix A, kept for the readers of its
    kernel and of its left transform U.

    The kernel columns, ``free`` and ``acols`` answer ``kernel`` and
    ``kernel_coordinates``.  U is never formed: U*A*V = D makes column k of
    U^-1 equal to A*v_k / p^e_k for a pivot k (v_k column k of V; A*v_k is
    built in integers over the cleared rows) and the unit vector at perm[k]
    otherwise.  These columns are lower triangular in perm order, so
    ``left`` finds U*y by forward substitution; ``inverse_column`` hands one
    out.  Each pivot column is checked when first made: p-integral, zero on
    the rows eliminated before it and a p-unit on its own row.  ncols must be
    given when rows is empty (a map into the zero module).
    """

    def __init__(self, rows, p, ncols=None):
        if rows and ncols is not None and len(rows[0]) != ncols:
            raise ValueError("ncols mismatch")
        self.p = p
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols
        if self.nrows and self.ncols:
            snf = p_local_snf(rows, p)
        else:  # no rows or no columns: U is the identity, all of it kernel
            n = self.ncols
            snf = PLocalSmith(
                [], list(range(n)), [[Fraction(int(r == j)) for j in range(n)]
                                     for r in range(n)],
                [[] for _ in range(n)], [1] * self.nrows, list(range(self.nrows)), [])
        (self.diag, self.free, self._kernel, self.acols, self.scales,
         self.perm, self.pivots) = snf
        self.rank = len(self.pivots)
        self._inverse = None

    @classmethod
    def from_columns(cls, columns, nrows, p):
        return cls(columns_to_rows(columns, nrows), p, len(columns))

    def _pivot_columns(self):
        """Columns 0..r-1 of U^-1 as sparse {row: Fraction}, made once."""
        if self._inverse is None:
            p, position, cols = self.p, {i: k for k, i in enumerate(self.perm)}, []
            for k, (support, values, vden) in enumerate(self.pivots):
                acc = {}  # (R*v_k)_i, R the cleared rows
                for j, x in zip(support, values):
                    for i, a in self.acols[j]:
                        acc[i] = acc.get(i, 0) + a * x
                den = vden * self.diag[k].numerator
                col = {i: Fraction(y, self.scales[i] * den) for i, y in acc.items() if y}
                own = col.get(self.perm[k])
                if own is None or own.numerator % p == 0 or any(
                        x.denominator % p == 0 or position[i] < k for i, x in col.items()):
                    raise StructuralError(f"inverse column {k} read off V is not "
                                          "p-integral and unit lower triangular")
                cols.append(col)
            self._inverse = cols
        return self._inverse

    def inverse_column(self, i):
        """Column i of U^-1."""
        col = self._pivot_columns()[i] if i < self.rank else {self.perm[i]: Fraction(1)}
        zero = Fraction(0)
        return [col.get(t, zero) for t in range(self.nrows)]

    def left(self, y):
        """U*y: the z with U^-1 * z = y, by forward substitution in perm order."""
        cols, rest, z = self._pivot_columns(), list(y), []
        for k, i in enumerate(self.perm):
            t = rest[i]
            if t and k < self.rank:
                t /= cols[k][i]
                for r, x in cols[k].items():
                    rest[r] -= x * t
            z.append(t)
        return z

    def kernel(self):
        """Basis of the kernel over the local ring at p, as coordinate columns
        (V[:, r:]); the caller must not mutate them."""
        return self._kernel

    def kernel_coordinates(self, x):
        """Coordinates of x in the basis ``kernel()``, or None if x is not in
        its span.  That basis is the identity on the free columns, so x is in
        its span iff A*x = 0 and x is p-integral on them, and then x on them
        is the answer."""
        tden = lcm(*(t.denominator for t in x if t))
        ax = [0] * self.nrows  # A*x, times tden and each row's denominator
        for j, t in enumerate(x):
            if t:
                t = t.numerator * (tden // t.denominator)
                for i, a in self.acols[j]:
                    ax[i] += a * t
        if any(ax):
            return None
        coords = [x[j] for j in self.free]
        return None if any(c.denominator % self.p == 0 for c in coords) else coords


def p_local_kernel(rows, p, ncols):
    """Basis of the kernel over the local ring at p, as coordinate columns."""
    return PLocalFactorization(rows, p, ncols).kernel()


def p_local_solve(rows, target, p):
    """One solution of rows * x = target over the local ring at p, or None:
    ``lattice_membership`` of the target in the span of the columns."""
    return lattice_membership(target, [list(col) for col in zip(*rows)], p)


# ---------------------------------------------------------------------------
# lattice membership over the local ring at p
# ---------------------------------------------------------------------------

@dataclass
class InfeasibilityCertificate:
    """Proof that no p-integral combination of the generators hits the target.

    functional is an integer row vector with functional . g == 0 (mod modulus)
    for every generator g, while v_p(functional . target) < v_p(modulus); any
    combination sum(c_i g_i) with p-integral c_i would pair to valuation at
    least v_p(modulus), so the target is unreachable.  modulus == 0 encodes a
    rational obstruction (functional kills every generator but not the target).
    """

    functional: list
    modulus: int
    pairing: Fraction
    prime: int

    def check(self, target, generators):
        pair = sum(Fraction(f) * Fraction(t) for f, t in zip(self.functional, target))
        if pair != self.pairing:
            return False
        for g in generators:
            val = sum(Fraction(f) * Fraction(x) for f, x in zip(self.functional, g))
            if self.modulus == 0:
                if val != 0:
                    return False
            elif valuation(val, self.prime) < int_valuation(self.modulus, self.prime):
                return False
        if self.modulus == 0:
            return pair != 0
        return valuation(pair, self.prime) < int_valuation(self.modulus, self.prime)


def lattice_membership(target, generators, p, with_certificate=False):
    """Coefficients c_i in the local ring at p with sum(c_i g_i) = target.

    target and generators are rational vectors of equal length.  Returns the
    coefficient list (rationals with p-coprime denominators), or None when no
    p-integral combination exists; with_certificate=True returns
    (coeffs, certificate) where exactly one of the two is None.
    """
    dim = len(target)
    # each nonzero entry is read once; ints and Fractions pass through as they are
    rows = [[x if type(x) in (int, Fraction) else Fraction(x) if x else 0 for x in vec]
            for vec in (*generators, target)]
    scale = lcm(*{x.denominator for row in rows for x in row})
    *g_int, t_int = [[x.numerator * (scale // x.denominator) if x else 0 for x in row]
                     for row in rows]

    fac = IntFactorization.from_columns(g_int, dim)
    y = [Fraction(0)] * fac.cols
    for i, c in enumerate(fac.U.mul_vector(t_int)):
        d = fac.diag[i] if i < len(fac.diag) else 0
        if (c and not d) or (d and valuation(Fraction(c, d), p) < 0):
            if not with_certificate:
                return None
            # the functional acts on the raw (unscaled) vectors; at d = 0 the
            # obstruction is rational (modulus 0)
            func = [Fraction(fac.U[(i, j)]) * scale for j in range(dim)]
            return None, InfeasibilityCertificate(func, d, Fraction(c), p)
        if d:
            y[i] = Fraction(c, d)
    coeffs = fac.V.mul_vector(y)
    return (coeffs, None) if with_certificate else coeffs


# ---------------------------------------------------------------------------
# cohomology of a two-step complex
# ---------------------------------------------------------------------------

@dataclass
class AbelianGroupReport:
    """Finitely generated p-local abelian group with chosen generators.

    free_rank and torsion (p-power orders, ascending) describe the group after
    discarding prime-to-p torsion; the discarded part is kept in
    prime_to_p_torsion.  generators are vectors in the ambient cochain basis:
    first the torsion generators (matching ``torsion`` order), then the free
    ones.  The private ``_reader``, a _QuotientReader, answers
    ``class_coordinates``.
    """

    free_rank: int
    torsion: list
    generators: list
    prime_to_p_torsion: list = field(default_factory=list)
    _reader: object = field(default=None, repr=False)

    def invariants(self):
        return self.free_rank, list(self.torsion)

    def order(self):
        return 0 if self.free_rank else prod(self.torsion)

    def class_coordinates(self, vector):
        """Coordinates of a cocycle's class: torsion coords mod order, then free."""
        return self._reader.class_coordinates(vector)

    def is_coboundary(self, vector):
        return all(c == 0 for c in self.class_coordinates(vector))

    def same_class(self, v1, v2):
        return self.class_coordinates([a - b for a, b in zip(v1, v2)]) == \
            self.class_coordinates([0] * len(v1))


class _QuotientReader:
    """Class coordinates in span(kernel) / span(relations): z = U' * y for
    the kernel coordinates y (the relations' ``left``; z = y without
    relations), each z_i reduced mod its order d_i, kept if d_i = 0 (free)
    and dropped if d_i = 1."""

    def __init__(self, kernel, relations, orders):
        self.kernel, self.relations, self.orders = kernel, relations, orders

    def class_coordinates(self, vector):
        y = self.kernel.kernel_coordinates(vector)
        if y is None:
            raise StructuralError("vector is not a cocycle")
        z = y if self.relations is None else self.relations.left(y)
        return [_residue_mod(z[i], d) if d else z[i]
                for i, d in enumerate(self.orders) if d != 1]


def _residue_mod(z, d):
    """Canonical residue in [0, d) of a rational with denominator coprime to d."""
    z = Fraction(z)
    return z.numerator * pow(z.denominator, -1, d) % d


def _quotient(kfac, kernel, relations, factor, p=None, modulus=0):
    """span(kernel) / span(relations), for ambient columns over one engine.

    kernel is a list of independent columns, kfac its reader (its
    ``kernel_coordinates``), relations a list of columns inside their span;
    factor(columns, nrows) factors a column list in the engine of the ring.
    The relations are rewritten in kernel coordinates (raising if one leaves
    the kernel) and brought to Smith form U' * Y * V' = D'.  The reader
    keeps that factorization, which answers U' * y (``left``), and the
    diagonal, padded with zeros to one entry per kernel column.  Each entry d
    other than 1 gives the generator K * (column i of U'^-1): free if d = 0,
    of order d mod a modulus, else of order the p-part of d, the prime-to-p
    part stripped.
    """
    s = len(kernel)
    coords = [kfac.kernel_coordinates(col) for col in relations]
    if None in coords:
        raise StructuralError("image does not land in the kernel")
    if not coords:  # the kernel basis is free
        reader = _QuotientReader(kfac, None, [0] * s)
        return AbelianGroupReport(s, [], [list(col) for col in kernel], _reader=reader)
    rfac = factor(coords, s)
    orders = [int(d) for d in rfac.diag] + [0] * (s - len(rfac.diag))
    torsion, prime_to_p, tors_gens, free_gens = [], [], [], []
    for i, d in enumerate(orders):
        if d == 1:
            continue
        gen = combine_columns(kernel, rfac.inverse_column(i), len(kernel[0]))
        if d == 0:
            free_gens.append(gen)
        elif modulus:
            torsion.append(d)
            tors_gens.append([x % modulus for x in gen])
        else:
            # split off the prime-to-p part; cof * gen has exact order pk
            pk = p ** int_valuation(d, p)
            cof = d // pk
            if cof > 1:
                prime_to_p.append(cof)
            if pk > 1:
                torsion.append(pk)
                tors_gens.append([cof * x for x in gen])
    if free_gens and modulus:
        raise StructuralError("mod-m cohomology must be finite")
    return AbelianGroupReport(len(free_gens), sorted(torsion), tors_gens + free_gens,
                              prime_to_p_torsion=sorted(prime_to_p),
                              _reader=_QuotientReader(kfac, rfac, orders))


def ring_modulus(ring):
    """0 for "Z", p for ("GF", p), m for ("Zmod", m); else a ValueError."""
    if ring == "Z":
        return 0
    if type(ring) is tuple and len(ring) == 2 and ring[0] in ("GF", "Zmod"):
        return ring[1]
    raise ValueError(f"unknown ring {ring!r}")


def ring_reduce(value, ring):
    m = ring_modulus(ring)
    return value % m if m else value


def cohomology(d_prev, d_cur, ring, p=None, dfac=None):
    """ker(d_cur)/im(d_prev) over the ring "Z", ("GF", p) or ("Zmod", m).

    Over Z, prime-to-p torsion is stripped into prime_to_p_torsion (the only
    use of p); over F_p the group is reported as free rank.  Composability and
    d_cur o d_prev == 0 are checked and raise StructuralError on failure.
    Over Z and Z/m the kernel is read off the integer factorization of d_cur
    (dfac, if given, returns the caller's); over F_p off its echelon form.
    """
    if d_prev.cols and d_cur.cols and d_prev.rows != d_cur.cols:
        raise StructuralError("differentials do not compose")
    if d_prev.cols and not d_cur.mul(d_prev).is_zero():
        raise StructuralError("d o d != 0 at this degree")
    relations = [col for col in d_prev.columns() if any(col)]
    dfac = dfac or (lambda: IntFactorization(d_cur))
    if ring == "Z":
        kfac = dfac()
        return _quotient(kfac, kfac.kernel(), relations, IntFactorization.from_columns, p)
    m = ring_modulus(ring)
    if ring[0] == "GF":
        kfac = EchelonKernel(d_cur, m)
        group = _quotient(kfac, kfac.kernel(), relations,
                          lambda cols, s: _EchelonRelations(cols, s, m), modulus=m)
        # every order is p: the generators are a basis of the vector space
        return AbelianGroupReport(len(group.generators), [], group.generators,
                                  _reader=group._reader)
    # the kernel mod m is a full-rank lattice; m * Z^ambient are relations
    ambient = d_cur.cols
    kernel = hnf_rows(dfac().kernel(m), ambient)
    relations += [[m if t == i else 0 for t in range(ambient)] for i in range(ambient)]
    return _quotient(HermiteBasis(kernel), kernel, relations,
                     IntFactorization.from_columns, modulus=m)


def p_local_cohomology(d_prev, d_cur, p):
    """ker(d_cur)/im(d_prev) over the local ring at p (Fraction matrices).

    d_cur has one row per target coordinate; an empty list means the zero map
    out of len(d_prev) coordinates.  Returns an AbelianGroupReport whose class
    coordinate machinery works over the local ring; torsion orders are the
    powers of p on the diagonal of the relations' Smith form.
    """
    ncols = len(d_cur[0]) if d_cur else (len(d_prev) if d_prev else 0)
    if d_prev and d_cur and d_prev[0] and len(d_prev) != ncols:
        raise StructuralError("differentials do not compose")
    dfac = PLocalFactorization(d_cur, p, ncols)
    return _quotient(
        dfac, dfac.kernel(), [list(col) for col in zip(*d_prev) if any(col)],
        lambda cols, nrows: PLocalFactorization.from_columns(cols, nrows, p), p)


def _gf_reduce(basis, vec, p):
    """vec reduced over F_p by a reduced echelon basis {lead column: row}.

    Every row is 1 at its lead and 0 at the other leads, so the remainder is
    0 at every lead and does not depend on the order of the rows.
    """
    v = [x % p for x in vec]
    for lead, row in basis.items():
        f = v[lead]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _gf_insert(basis, vec, p):
    """Add vec to a reduced echelon basis over F_p; False if already spanned."""
    v = _gf_reduce(basis, vec, p)
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None:
        return False
    inv = pow(v[lead], -1, p)
    v = [(x * inv) % p for x in v]
    for other, row in list(basis.items()):
        f = row[lead]
        if f:
            basis[other] = [(x - f * y) % p for x, y in zip(row, v)]
    basis[lead] = v
    return True


class EchelonKernel:
    """The kernel over F_p of an integer matrix A, by the reduced echelon form
    of its rows mod p: one basis vector per free (non-pivot) column, 1 there
    and 0 at the other free columns, so a kernel vector's coordinates are its
    entries there."""

    def __init__(self, mat, p):
        self.mat, self.p, self.echelon = mat, p, {}
        for row in mat.to_rows():
            _gf_insert(self.echelon, row, p)
        self.free = [c for c in range(mat.cols) if c not in self.echelon]

    def kernel(self):
        """The basis, as column vectors with entries in [0, p)."""
        out = [[int(j == c) for j in range(self.mat.cols)] for c in self.free]
        for vec, c in zip(out, self.free):
            for lead, row in self.echelon.items():
                vec[lead] = -row[c] % self.p
        return out

    def kernel_coordinates(self, x):
        """x at the free columns mod p, or None unless A*x = 0 mod p."""
        if any(v % self.p for v in self.mat.mul_vector(x)):
            return None
        return [x[c] % self.p for c in self.free]


class _EchelonRelations:
    """F_p relations in kernel coordinates, as _quotient reads a factorization.

    In their echelon form over the coordinates in reverse order, the leads are
    the kernel vectors in the span of the relations and of the kernel vectors
    before them.  The others are the generators, in kernel order, each of
    order p with a unit inverse column.  Row i of U' reads coordinate i of a
    class off the echelon reduction y - sum_l y_l * row_l of its y
    (``left``).
    """

    def __init__(self, columns, s, p):
        echelon = {}
        for col in columns:
            _gf_insert(echelon, col[::-1], p)
        leads = {s - 1 - lead: row[::-1] for lead, row in echelon.items()}
        self.diag = [1 if i in leads else p for i in range(s)]
        self.rows = [[0] * s if i in leads else
                     [-leads[t][i] % p if t in leads else int(t == i) for t in range(s)]
                     for i in range(s)]

    def left(self, y):
        return mat_vec(self.rows, y)

    def inverse_column(self, i):
        return [int(t == i) for t in range(len(self.diag))]
