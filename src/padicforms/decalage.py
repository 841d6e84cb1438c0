"""p-shifted cochain lattices and their comparisons.

build_D scales a cocycle basis by p^n and a complement by p^{n+1} inside each
C^n(X; Z); build_V uses the 0/1 exponent rule instead.  eta_p carves
{x in p^n C^n : dx in p^{n+1} C^{n+1}} out of any degreewise-free complex.
All three produce integer sublattices of the ambient cochains, canonicalized
by Hermite normal form, with the induced (integer) differential.

The level families at the bottom feed the section machinery of derham:
V-levels are the shifted lattices of the standard simplices with the
cosimplicial structure maps, and TensorLevels is the degreewise tensor of two
level families with the Koszul differential.
"""

from fractions import Fraction

from padicforms.linalg import (
    HermiteBasis,
    IntFactorization,
    SparseIntMatrix,
    StructuralError,
    cohomology,
    denominator_rows,
    hnf_rows,
    mat_vec,
)
from padicforms.simplicial import delta, normalized_cochain_complex
from padicforms.products import cup_on_vectors


class ShiftedComplex:
    """An integer sublattice complex of the cochains of a space.

    bases[n] is the canonical (HNF) row basis of the degree-n lattice inside
    C^n; diffs[n] expresses the ambient differential in these bases, with
    integer entries (checked).  Each degree keeps a HermiteBasis reader of
    its basis for ``coordinates``.
    """

    def __init__(self, base_complex, bases, label):
        self.base = base_complex
        self.bases = bases
        self.label = label
        self._readers = [HermiteBasis(basis) for basis in bases]
        self.diffs = []
        for n in range(len(bases)):
            amb = base_complex.diff(n)
            cols = []
            for vec in bases[n]:
                sol = self.coordinates(n + 1, amb.mul_vector(vec))
                if sol is None:
                    raise StructuralError(
                        f"{label}: differential is not lattice-valued in degree {n}")
                cols.append(sol)
            self.diffs.append(SparseIntMatrix.from_columns(cols, self.dim(n + 1)))

    def dim(self, n):
        return len(self.bases[n]) if 0 <= n < len(self.bases) else 0

    def diff(self, n):
        if 0 <= n < len(self.diffs):
            return self.diffs[n]
        return SparseIntMatrix.zero(self.dim(n + 1), self.dim(n))

    def cohomology(self, n, p):
        d_prev = self.diff(n - 1) if n > 0 else SparseIntMatrix.zero(self.dim(0), 0)
        return cohomology(d_prev, self.diff(n), "Z", p)

    def coordinates(self, n, vector):
        """Integer coordinates of an ambient vector in the degree-n basis, or
        None when the vector is not in the lattice."""
        reader = self._readers[n] if n < len(self._readers) else HermiteBasis([])
        return reader.coordinates(vector)

    def contains(self, n, vector):
        """Ambient integer vector membership in the degree-n lattice."""
        return self.coordinates(n, vector) is not None


def _shift_exponent_d(n, is_cocycle):
    return n if is_cocycle else n + 1


def _shift_exponent_v(n, is_cocycle):
    return 0 if (n == 0 and is_cocycle) else 1


def _shifted_lattice(complex_, p, rule):
    """Row bases of span{p^i sigma} per degree under the given exponent rule.

    One Smith form U*d*V = D gives the cocycles K = V[:, r:] and a complement
    C = V[:, :r].  Both rules give exponents a <= b, so p^a*K + p^b*C does not
    depend on C (two complements differ by cocycles, and p^b*K is in p^a*K),
    and neither does its canonical HNF.
    """
    bases = []
    for n in range(complex_.top_degree() + 1):
        fac = IntFactorization(complex_.diff(n))
        a, b = p ** rule(n, True), p ** rule(n, False)
        rows = [[(b if j < fac.rank else a) * x for x in col]
                for j, col in enumerate(fac.V.columns())]
        bases.append(hnf_rows(rows, complex_.dim(n)))
    return bases


def build_D(space, p):
    """The p-shifted lattice: p^n on degree-n cocycles, p^{n+1} elsewhere."""
    cx = normalized_cochain_complex(space)
    bases = _shifted_lattice(cx, p, _shift_exponent_d)
    return ShiftedComplex(cx, bases, f"D({space.name}, p={p})")


def build_V(space, p):
    """The variant with exponent 0 only on degree-0 cocycles, 1 elsewhere."""
    cx = normalized_cochain_complex(space)
    bases = _shifted_lattice(cx, p, _shift_exponent_v)
    return ShiftedComplex(cx, bases, f"V({space.name}, p={p})")


def eta_p(complex_, p):
    """The decalage of a degreewise-free integer complex at the prime p.

    Degree n is {x in p^n C^n : dx in p^{n+1} C^{n+1}} with the restricted
    differential.
    """
    top = complex_.top_degree()
    bases = []
    for n in range(top + 1):
        dim = complex_.dim(n)
        # y with dy = p z
        ker = IntFactorization(complex_.diff(n)).kernel(p)
        scaled = [[p ** n * x for x in vec] for vec in ker]
        bases.append(hnf_rows(scaled, dim))
    return ShiftedComplex(complex_, bases, f"eta_{p}")


def multiplication_closed(space, p, shifted=None):
    """Cup products of lattice basis elements stay in the lattice (exhaustive)."""
    shifted = shifted or build_D(space, p)
    top = space.dimension
    for q1 in range(top + 1):
        for q2 in range(top + 1 - q1):
            for v1 in shifted.bases[q1]:
                for v2 in shifted.bases[q2]:
                    prod = cup_on_vectors(space, q1, q2, list(v1), list(v2), "Z")
                    if not shifted.contains(q1 + q2, prod):
                        return False, (q1, q2, v1, v2)
    return True, None


# ---------------------------------------------------------------------------
# level families for the section machinery
# ---------------------------------------------------------------------------

def _vertex_map_matrix(source_space, target_space, vertex_map, k):
    """Matrix of the cochain map induced by a simplicial map delta^m -> delta^n
    given on vertices; degenerate images pair to zero."""
    rows = []
    for mon in source_space.simplices[k] if k <= source_space.dimension else []:
        verts = [int(t) for t in mon.split(".")]
        image = [vertex_map[v] for v in verts]
        rows.append(image)
    out = [[0] * (target_space.n_cells(k)) for _ in range(len(rows))]
    for r, image in enumerate(rows):
        if len(set(image)) != len(image):
            continue  # degenerate: dies in normalized cochains
        name = ".".join(str(v) for v in sorted(image))
        out[r][target_space.index_of(k, name)] = 1
    # transpose: cochain map goes from target functions to source functions
    return out


class VLevels:
    """The shifted lattices of the standard simplices as a level family.

    Component (n, k) is the degree-k part of the 0/1-shifted lattice inside
    C^k(delta^n); faces and degeneracies are induced by the cosimplicial
    structure of the simplices and stay lattice-valued (checked).  They are
    kept as integer rows (``face_rows``, ``degen_rows``).
    """

    def __init__(self, p):
        self.prime = p
        self._spaces = {}
        self._shifted = {}
        self._faces = {}
        self._degens = {}
        self._diffs = {}

    def space(self, n):
        if n not in self._spaces:
            self._spaces[n] = delta(n)
        return self._spaces[n]

    def shifted(self, n):
        if n not in self._shifted:
            self._shifted[n] = build_V(self.space(n), self.prime)
        return self._shifted[n]

    def dims(self, n, k):
        return self.shifted(n).dim(k)

    def diff_columns(self, n, k):
        """d from degree k at level n as sparse columns of (row, Fraction)
        pairs in row order; cached."""
        if (n, k) not in self._diffs:
            mat = self.shifted(n).diff(k)
            cols = [[] for _ in range(mat.cols)]
            for (i, j), v in sorted(mat.entries.items()):
                cols[j].append((i, Fraction(v)))
            self._diffs[(n, k)] = cols
        return self._diffs[(n, k)]

    def _structure_rows(self, n, target_n, vertex_map, k):
        """Lattice-to-lattice rows of a cochain map C^k(delta^n) -> C^k(delta^m)."""
        src = self.shifted(n)
        tgt = self.shifted(target_n)
        amb = _vertex_map_matrix(self.space(target_n), self.space(n),
                                 vertex_map, k)
        cols = []
        for vec in src.bases[k] if k < len(src.bases) else []:
            sol = tgt.coordinates(k, mat_vec(amb, vec))
            if sol is None:
                raise StructuralError("structure map left the shifted lattice")
            cols.append(sol)
        return denominator_rows(cols, tgt.dim(k))

    def face_rows(self, n, i, k):
        key = (n, i, k)
        if key not in self._faces:
            # the face inclusion delta^{n-1} -> delta^n skips vertex i
            vmap = {v: (v if v < i else v + 1) for v in range(n)}
            self._faces[key] = self._structure_rows(n, n - 1, vmap, k)
        return self._faces[key]

    def degen_rows(self, n, i, k):
        key = (n, i, k)
        if key not in self._degens:
            # the collapse delta^{n+1} -> delta^n repeats vertex i
            vmap = {v: (v if v <= i else v - 1) for v in range(n + 2)}
            self._degens[key] = self._structure_rows(n, n + 1, vmap, k)
        return self._degens[key]


class TensorLevels:
    """Degreewise tensor product of two level families.

    Component (n, k) has basis pairs (i, a, b) with i + j = k; differential
    d(a x b) = da x b + (-1)^i a x db; faces and degeneracies act
    componentwise.  The weight of a basis pair is that of its second factor,
    and ``weight`` is the second family's.
    """

    def __init__(self, first, second):
        self.first = first
        self.second = second
        if first.prime != second.prime:
            raise ValueError("level families live at different primes")
        self.prime = first.prime
        self._basis = {}
        self._maps = {}
        self._diffs = {}

    def basis(self, n, k):
        if (n, k) not in self._basis:
            out = []
            for i in range(k + 1):
                j = k - i
                for a in range(self.first.dims(n, i)):
                    for b in range(self.second.dims(n, j)):
                        out.append((i, a, b))
            self._basis[(n, k)] = out
        return self._basis[(n, k)]

    def dims(self, n, k):
        return len(self.basis(n, k))

    @property
    def weight(self):
        return self.second.weight

    def coordinate_weights(self, n, k):
        second = {j: self.second.coordinate_weights(n, j) for j in range(k + 1)}
        return [second[k - i][b] for i, _, b in self.basis(n, k)]

    def diff_columns(self, n, k):
        """d(a x b) = da x b + (-1)^i a x db as sparse columns, composed from
        the two factors' columns; cached.  The two terms land in different
        components, so no entries collide."""
        if (n, k) not in self._diffs:
            index = {t: pos for pos, t in enumerate(self.basis(n, k + 1))}
            cols = []
            for i, a, b in self.basis(n, k):
                sign = (-1) ** i
                cols.append(sorted(
                    [(index[(i + 1, r, b)], c)
                     for r, c in self.first.diff_columns(n, i)[a]]
                    + [(index[(i, a, r)], sign * c)
                       for r, c in self.second.diff_columns(n, k - i)[b]]))
            self._diffs[(n, k)] = cols
        return self._diffs[(n, k)]

    def _pointwise(self, first, second, n, i, k, target_n):
        """The tensor of the two families' maps (n, i, d) -> target_n, as
        rows over denominators; cached.  Row (d, r1, r2) is row r1 of the
        first map times row r2 of the second."""
        key = (n, i, k, target_n)
        if key in self._maps:
            return self._maps[key]
        index = {t: pos for pos, t in enumerate(self.basis(n, k))}
        rows = []
        for d in range(k + 1):
            if not (self.first.dims(target_n, d) and
                    self.second.dims(target_n, k - d)):
                continue
            second_rows = second(n, i, k - d)
            for d1, row1 in first(n, i, d):
                for d2, row2 in second_rows:
                    rows.append((d1 * d2, [(index[(d, a, b)], x * y)
                                           for a, x in row1 for b, y in row2]))
        self._maps[key] = rows
        return rows

    def face_rows(self, n, i, k):
        return self._pointwise(self.first.face_rows, self.second.face_rows,
                               n, i, k, n - 1)

    def degen_rows(self, n, i, k):
        return self._pointwise(self.first.degen_rows, self.second.degen_rows,
                               n, i, k, n + 1)
