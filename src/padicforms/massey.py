"""Triple Massey products with indeterminacy, over F_p and Z/p^N.

The defining-system convention: with abar = (-1)^{|a|+1} a, pick u and v with
du = abar cup b and dv = bbar cup c; the product is represented by
ubar cup c + abar cup v (over F_2: u cup c + a cup v).  The representative's
coset modulo a.H^{|b|+|c|-1} + H^{|a|+|b|-1}.c is the invariant; the CLI
re-verifies that it does not depend on the chosen solves for every plain
triple, with a second, shifted defining system (``massey_coset_stable``).

Computations run on DgaData: differentials plus a product (and optionally a
cup-1) given degreewise.  Spaces, p-shifted lattices and explicit fixtures all
provide one.  A DgaData never changes once built, so it holds every
per-degree answer it has computed: the factorization of each differential,
the cohomology report per (degree, ring), and the factorization of each
indeterminacy subgroup [generators | coboundaries].  A batch of triples on
one DgaData computes each of these once.
"""

import json
import random
from dataclasses import dataclass

from padicforms.linalg import (
    IntFactorization,
    SparseIntMatrix,
    StructuralError,
    cohomology,
    combine_columns,
    identity_rows,
    ring_modulus,
)
from padicforms.simplicial import (
    DegenerateImage,
    SimplicialSet,
    normalized_cochain_complex,
)
from padicforms.products import cup_on_vectors
from padicforms.report import dump_json


class UndefinedMasseyProduct(ValueError):
    """One of the pairwise products does not vanish in cohomology."""

    def __init__(self, message, obstruction):
        super().__init__(message)
        self.obstruction = obstruction


class DgaData:
    """Degreewise differentials and products of a finite dg-algebra over Z.

    dims[q] counts basis elements in degree q; diffs[q] maps degree q to q+1;
    mul(q1, q2, v1, v2) multiplies coefficient vectors; cup1 is optional.
    Answers that depend only on the data are made once and kept; callers
    share the held objects and must not mutate them.
    """

    def __init__(self, dims, diffs, mul, cup1=None, label="dga"):
        self.dims_list = list(dims)
        self.diffs = list(diffs)
        self.mul = mul
        self.cup1 = cup1
        self.label = label
        self._factors = {}
        self._cohomology = {}
        self._subgroups = {}
        for q in range(len(self.diffs) - 1):
            if not self.diffs[q + 1].mul(self.diffs[q]).is_zero():
                raise StructuralError("d o d != 0 in the Massey input")

    def top_degree(self):
        return len(self.dims_list) - 1

    def dim(self, q):
        if 0 <= q <= self.top_degree():
            return self.dims_list[q]
        return 0

    def diff(self, q):
        if 0 <= q < len(self.diffs):
            return self.diffs[q]
        return SparseIntMatrix.zero(self.dim(q + 1), self.dim(q))

    def factor(self, q):
        """The factorization of diff(q), made once and kept."""
        if q not in self._factors:
            self._factors[q] = IntFactorization(self.diff(q))
        return self._factors[q]

    def cohomology(self, q, ring):
        """The cohomology report of degree q over the ring, made once and kept;
        a ring that reads the factorization of diff(q) shares the held one."""
        key = (q, ring)
        if key not in self._cohomology:
            d_prev = self.diff(q - 1) if q > 0 else SparseIntMatrix.zero(self.dim(0), 0)
            self._cohomology[key] = cohomology(d_prev, self.diff(q), ring, None,
                                               lambda: self.factor(q))
        return self._cohomology[key]

    def subgroup(self, q, generators):
        """The factorization over Z of [generators | diff(q-1)], made once and kept.

        None when there are no columns.  It does not depend on a modulus, so
        solves mod any m share it.
        """
        key = (q, tuple(tuple(g) for g in generators))
        if key not in self._subgroups:
            cols = [list(g) for g in generators]
            if q > 0:
                cols += self.diff(q - 1).columns()
            self._subgroups[key] = (IntFactorization.from_columns(cols, self.dim(q))
                                    if cols else None)
        return self._subgroups[key]

    @classmethod
    def from_space(cls, space):
        cx = normalized_cochain_complex(space)

        def mul(q1, q2, v1, v2):
            return cup_on_vectors(space, q1, q2, v1, v2, "Z")

        def cup1(q1, q2, v1, v2):
            return cup_on_vectors(space, q1, q2, v1, v2, "Z", i=1)

        return cls(cx.dims, cx.diffs, mul, cup1, label=space.name)

    @classmethod
    def from_shifted(cls, shifted, space):
        """The p-shifted lattice with its induced cup product."""

        def mul(q1, q2, v1, v2):
            amb1 = _lattice_to_ambient(shifted, q1, v1)
            amb2 = _lattice_to_ambient(shifted, q2, v2)
            prod = cup_on_vectors(space, q1, q2, amb1, amb2, "Z")
            return _ambient_to_lattice(shifted, q1 + q2, prod)

        dims = [shifted.dim(q) for q in range(len(shifted.bases))]
        return cls(dims, shifted.diffs, mul, label=shifted.label)


def _lattice_to_ambient(shifted, q, coords):
    if q >= len(shifted.bases):
        return [0] * shifted.base.dim(q)
    basis = shifted.bases[q]
    width = len(basis[0]) if basis else shifted.base.dim(q)
    return combine_columns(basis, coords, width)


def _ambient_to_lattice(shifted, q, vec):
    sol = shifted.coordinates(q, vec)
    if sol is None:
        raise StructuralError("product left the lattice")
    return sol


# ---------------------------------------------------------------------------
# ring solvers
# ---------------------------------------------------------------------------

def solve_over(dga, q, target, ring, shift=0):
    """One cochain u of degree q with du = target over the ring, or None.

    shift > 0 adds the shift-th kernel element to the particular solution,
    yielding an independent defining system for the invariance re-check.
    """
    m = ring_modulus(ring)
    mat = dga.diff(q)
    target = [x % m for x in target]
    sol = dga.factor(q).solve(target, m)
    if sol is None:
        return None
    if shift:
        ker = _reduced_kernel(dga, q, m)
        if ker:
            extra = ker[(shift - 1) % len(ker)]
            sol = [(a + b) % m for a, b in zip(sol, extra)]
    check = mat.mul_vector(sol)
    if any((x - t) % m for x, t in zip(check, target)):
        raise StructuralError("mod-m solve failed verification")
    return sol


def _reduced_kernel(dga, q, m):
    """Nonzero vectors mod m spanning the kernel of diff(q) over Z/m.

    They come from the held factorization of diff(q); over F_p they are the
    columns of V mod p whose diagonal entry p divides, so they are a basis.
    """
    return [red for red in ([x % m for x in v] for v in dga.factor(q).kernel(m))
            if any(red)]


def is_coboundary_mod(dga, q, vector, ring):
    m = ring_modulus(ring)
    if q == 0:
        return all(x % m == 0 for x in vector)
    return dga.factor(q - 1).solve([x % m for x in vector], m) is not None


def in_subgroup_mod(dga, q, vector, generators, ring):
    """vector lies in span(generators) + coboundaries + m-multiples."""
    m = ring_modulus(ring)
    subgroup = dga.subgroup(q, generators)
    if subgroup is None:
        return all(x % m == 0 for x in vector)
    return subgroup.solve([x % m for x in vector], m) is not None


# ---------------------------------------------------------------------------
# the triple product
# ---------------------------------------------------------------------------

@dataclass
class MasseyResult:
    representative: list
    degree: int
    indeterminacy: list
    defining_system: dict
    vanishes: bool
    ring: tuple
    label: str = ""


def triple_massey(dga, a, b, c, ring, degrees, shift=0):
    """<a, b, c> on a DgaData, over ("GF", p) or ("Zmod", p^N).

    a, b, c are cocycle coefficient vectors in the degrees
    (|a|, |b|, |c|); shift picks a different solve for the defining system
    (see ``solve_over``).
    """
    m = ring_modulus(ring)
    qa, qb, qc = degrees
    for vec, q, name in ((a, qa, "a"), (b, qb, "b"), (c, qc, "c")):
        if any(x % m for x in dga.diff(q).mul_vector(list(vec))):
            raise ValueError(f"{name} is not a cocycle mod {m}")

    abar = [(-1) ** (qa + 1) * x for x in a]
    bbar = [(-1) ** (qb + 1) * x for x in b]
    ab = dga.mul(qa, qb, abar, b)
    bc = dga.mul(qb, qc, bbar, c)
    if not is_coboundary_mod(dga, qa + qb, ab, ring):
        raise UndefinedMasseyProduct("[a][b] != 0", (qa + qb, ab))
    if not is_coboundary_mod(dga, qb + qc, bc, ring):
        raise UndefinedMasseyProduct("[b][c] != 0", (qb + qc, bc))
    u = solve_over(dga, qa + qb - 1, ab, ring, shift=shift)
    v = solve_over(dga, qb + qc - 1, bc, ring, shift=shift)
    if u is None or v is None:
        raise StructuralError("coboundary solve failed despite vanishing class")
    ubar = [(-1) ** (qa + qb) * x for x in u]
    rep = [(x + y) % m for x, y in zip(
        dga.mul(qa + qb - 1, qc, ubar, c),
        dga.mul(qa, qb + qc - 1, abar, v))]
    deg = qa + qb + qc - 1
    if any(x % m for x in dga.diff(deg).mul_vector(rep)):
        raise StructuralError("Massey representative is not a cocycle")
    indet = indeterminacy_generators(dga, a, c, (qa, qb, qc), ring)
    vanishes = in_subgroup_mod(dga, deg, rep, indet, ring)
    return MasseyResult(
        representative=rep, degree=deg, indeterminacy=indet,
        defining_system={"u": u, "v": v}, vanishes=vanishes, ring=ring,
        label=dga.label)


def indeterminacy_generators(dga, a, c, degrees, ring):
    """Generators of a.H^{|b|+|c|-1} + H^{|a|+|b|-1}.c as cochain vectors."""
    qa, qb, qc = degrees
    out = []
    h_right = dga.cohomology(qb + qc - 1, ring)
    for gen in h_right.generators:
        out.append(dga.mul(qa, qb + qc - 1, list(a), list(gen)))
    h_left = dga.cohomology(qa + qb - 1, ring)
    for gen in h_left.generators:
        out.append(dga.mul(qa + qb - 1, qc, list(gen), list(c)))
    return out


def massey_coset_stable(dga, a, b, c, ring, degrees):
    """Recompute with an independent defining system; cosets must agree."""
    first = triple_massey(dga, a, b, c, ring, degrees)
    second = triple_massey(dga, a, b, c, ring, degrees, shift=1)
    m = ring_modulus(ring)
    diff = [(x - y) % m for x, y in zip(first.representative,
                                        second.representative)]
    return in_subgroup_mod(dga, first.degree, diff, first.indeterminacy, ring)


def massey_scaling_check(dga, a, b, c, degrees, exponents, p, precision):
    """m(p^r a, p^s b, p^t c) = p^{r+s+t} m(a, b, c) as cosets over Z/p^N."""
    r, s, t = exponents
    ring = ("Zmod", p ** precision)
    base = triple_massey(dga, a, b, c, ring, degrees)
    scaled = triple_massey(
        dga,
        [p ** r * x for x in a],
        [p ** s * x for x in b],
        [p ** t * x for x in c],
        ring, degrees)
    m = p ** precision
    diff = [(x - p ** (r + s + t) * y) % m
            for x, y in zip(scaled.representative, base.representative)]
    return in_subgroup_mod(dga, base.degree, diff, scaled.indeterminacy, ring)


# ---------------------------------------------------------------------------
# exhaustive defining-system oracle (small complexes over F_p)
# ---------------------------------------------------------------------------

def enumerate_massey_coset(dga, a, b, c, degrees, p):
    """All values [ubar c + abar v] over every defining system, as a set of
    class coordinates in H^{deg}; feasible only for small F_p complexes."""
    import itertools
    qa, qb, qc = degrees
    ring = ("GF", p)
    abar = [(-1) ** (qa + 1) * x for x in a]
    bbar = [(-1) ** (qb + 1) * x for x in b]
    ab = dga.mul(qa, qb, abar, b)
    bc = dga.mul(qb, qc, bbar, c)
    u0 = solve_over(dga, qa + qb - 1, ab, ring)
    v0 = solve_over(dga, qb + qc - 1, bc, ring)
    if u0 is None or v0 is None:
        raise UndefinedMasseyProduct("no defining system", None)
    ker_u = _reduced_kernel(dga, qa + qb - 1, p)
    ker_v = _reduced_kernel(dga, qb + qc - 1, p)
    report = dga.cohomology(qa + qb + qc - 1, ring)
    values = set()
    for coeffs_u in itertools.product(range(p), repeat=len(ker_u)):
        u = list(u0)
        for cu, kvec in zip(coeffs_u, ker_u):
            u = [(x + cu * y) % p for x, y in zip(u, kvec)]
        ubar = [(-1) ** (qa + qb) * x for x in u]
        left = dga.mul(qa + qb - 1, qc, ubar, c)
        for coeffs_v in itertools.product(range(p), repeat=len(ker_v)):
            v = list(v0)
            for cv, kvec in zip(coeffs_v, ker_v):
                v = [(x + cv * y) % p for x, y in zip(v, kvec)]
            rep = [(x + y) % p for x, y in zip(
                left, dga.mul(qa, qb + qc - 1, abar, v))]
            values.add(tuple(report.class_coordinates(rep)))
    return values


def massey_coset_from_result(dga, result):
    """The coset {rep + span(indet)} as class coordinates, for comparison."""
    import itertools
    m = ring_modulus(result.ring)
    report = dga.cohomology(result.degree, result.ring)
    out = set()
    k = len(result.indeterminacy)
    for coeffs in itertools.product(range(m), repeat=k):
        vec = list(result.representative)
        for cf, gen in zip(coeffs, result.indeterminacy):
            vec = [(x + cf * y) % m for x, y in zip(vec, gen)]
        out.add(tuple(report.class_coordinates(vec)))
    return out


# ---------------------------------------------------------------------------
# rectification obstruction
# ---------------------------------------------------------------------------

def rectification_obstruction(dga, a, b, degrees):
    """m(a, b, a) over F_2, with the Sq-route report.

    verdict is "obstructed" when the coset omits zero; the report also gives
    the class of (a u_1 a) u b and whether it lies in a.H^{|a|+|b|-1}, the
    sufficiency route of the obstruction argument.
    """
    qa, qb = degrees
    ring = ("GF", 2)
    result = triple_massey(dga, a, b, a, ring, (qa, qb, qa))
    out = {
        "massey": result,
        "verdict": "unobstructed" if result.vanishes else "obstructed",
    }
    if dga.cup1 is not None:
        sq = dga.cup1(qa, qa, list(a), list(a))
        sq_cup_b = dga.mul(2 * qa - 1, qb, sq, list(b))
        h = dga.cohomology(qa + qb - 1, ring)
        a_times_h = [dga.mul(qa, qb + qa - 1, list(a), list(gen))
                     for gen in h.generators]
        out["sq_route"] = {
            "sq_cup_b": sq_cup_b,
            "in_a_H": in_subgroup_mod(dga, 2 * qa + qb - 1, sq_cup_b,
                                      a_times_h, ring),
            "certifies_obstruction": not in_subgroup_mod(
                dga, 2 * qa + qb - 1, sq_cup_b, a_times_h, ring),
        }
        # consistency: the Sq-route element is a value of the product
        diff = [(x - y) % 2 for x, y in zip(sq_cup_b, result.representative)]
        out["sq_route"]["is_value_of_product"] = in_subgroup_mod(
            dga, result.degree, diff, result.indeterminacy, ring)
    return out


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def obstruction_fixture():
    """A five-dimensional mod-2 dg-algebra with an essential m(a, b, a).

    Basis: degree 0: 1; degree 1: a, b, c, u; degree 2: e, g.  du = e,
    ab = ba = e, cb = ua = g, a u_1 a = c, e u_1 a = g; all triple products
    land in degree 3 = 0 so associativity is automatic.  H^1 = <a, b, c>,
    H^2 = <g>; the product m(a, b, a) is the nonzero class [g] with zero
    indeterminacy.  The products are read from the tables of its JSON form.
    """
    A, B, C, U = 0, 1, 2, 3
    E, G = 0, 1
    products = [[1, 1, A, B, E, 1], [1, 1, B, A, E, 1],
                [1, 1, C, B, G, 1], [1, 1, U, A, G, 1]]
    cup1 = [[1, 1, A, A, C, 1], [2, 1, E, A, G, 1]]
    diffs = [SparseIntMatrix.zero(4, 1), SparseIntMatrix(2, 4, {(E, U): 1}),  # du = e
             SparseIntMatrix.zero(0, 2)]
    return _table_dga([1, 4, 2], diffs, products, cup1, "obstruction-fixture")


def fixture_to_json(dga):
    """Serialize a table-based fixture (degrees <= 2) for the CLI."""
    data = {"dims": dga.dims_list, "diffs": [], "label": dga.label}
    for q in range(len(dga.diffs)):
        mat = dga.diffs[q]
        data["diffs"].append({"rows": mat.rows, "cols": mat.cols,
                              "entries": [[i, j, v] for (i, j), v
                                          in sorted(mat.entries.items())]})
    units = [identity_rows(dga.dim(q)) for q in range(dga.top_degree() + 1)]
    products = []
    for q1 in range(dga.top_degree() + 1):
        for q2 in range(dga.top_degree() + 1 - q1):
            for i in range(dga.dim(q1)):
                for j in range(dga.dim(q2)):
                    prod = dga.mul(q1, q2, units[q1][i], units[q2][j])
                    for r, x in enumerate(prod):
                        if x:
                            products.append([q1, q2, i, j, r, x])
    data["products"] = products
    if dga.cup1 is not None:
        cup1 = []
        for q1 in range(1, dga.top_degree() + 1):
            for q2 in range(1, dga.top_degree() + 1):
                if q1 + q2 - 1 > dga.top_degree():
                    continue
                for i in range(dga.dim(q1)):
                    for j in range(dga.dim(q2)):
                        prod = dga.cup1(q1, q2, units[q1][i], units[q2][j])
                        for r, x in enumerate(prod):
                            if x:
                                cup1.append([q1, q2, i, j, r, x])
        data["cup1"] = cup1
    return dump_json(data)[:-1]


def fixture_from_json(text):
    data = json.loads(text)
    diffs = [SparseIntMatrix(spec["rows"], spec["cols"],
                             {(i, j): v for i, j, v in spec["entries"]})
             for spec in data["diffs"]]
    return _table_dga(data["dims"], diffs, data.get("products", []), data.get("cup1"),
                      data.get("label", "fixture"))


def _table_dga(dims, diffs, products, cup1, label):
    """The DgaData whose products and cup-1 products (None for none) are
    given by tables of [q1, q2, i, j, r, x]: e_i * e_j has x at r.  Degree 0
    multiplies as scalars; every product has its target degree's length."""

    def product(entries, shift):
        table = {}
        for q1, q2, i, j, r, x in entries:
            table.setdefault((q1, q2), {}).setdefault((i, j), {})[r] = x

        def apply(q1, q2, v1, v2):
            deg = q1 + q2 - shift
            out = [0] * (dims[deg] if 0 <= deg < len(dims) else 0)
            if not shift and 0 in (q1, q2):  # a degree-0 factor acts as a scalar
                return [v1[0] * x for x in v2] if q1 == 0 else [v2[0] * x for x in v1]
            for (i, j), row in table.get((q1, q2), {}).items():
                if v1[i] and v2[j]:
                    for r, x in row.items():
                        out[r] += v1[i] * v2[j] * x
            return out
        return apply

    cup1_fn = None if cup1 is None else product(cup1, 1)
    return DgaData(dims, diffs, product(products, 0), cup1_fn, label=label)


# ---------------------------------------------------------------------------
# seeded random small spaces (honest instances for the identity suites)
# ---------------------------------------------------------------------------

def random_space(seed, n_vertices=3, n_edges=4, n_triangles=2):
    """A random finite simplicial set with a valid face table.

    Edges pick random endpoints; triangles glue over edges whose endpoints
    satisfy the simplicial identities (built from a random vertex triple,
    reusing matching edges when possible, creating fresh ones otherwise).
    """
    rng = random.Random(seed)
    vertices = [f"p{i}" for i in range(n_vertices)]
    faces = {}
    edges = []
    by_ends = {}   # (head, tail) -> its edges, in creation order

    def get_edge(head, tail):
        matching = by_ends.setdefault((head, tail), [])
        if matching and rng.random() < 0.7:
            return rng.choice(matching)
        name = f"e{len(edges)}"
        edges.append(name)
        matching.append(name)
        faces[(name, 0)] = DegenerateImage((), head)
        faces[(name, 1)] = DegenerateImage((), tail)
        return name

    for _ in range(n_edges):
        get_edge(rng.choice(vertices), rng.choice(vertices))
    triangles = []
    for t in range(n_triangles):
        v0, v1, v2 = (rng.choice(vertices) for _ in range(3))
        e0 = get_edge(v2, v1)   # face 0: vertices (1, 2) -> head=v2, tail=v1
        e1 = get_edge(v2, v0)
        e2 = get_edge(v1, v0)
        name = f"T{t}"
        triangles.append(name)
        faces[(name, 0)] = DegenerateImage((), e0)
        faces[(name, 1)] = DegenerateImage((), e1)
        faces[(name, 2)] = DegenerateImage((), e2)
    return SimplicialSet(f"random{seed}", [vertices, edges, triangles], faces)


def eligible_pairs(dga, p, max_degree=2, ring=None):
    """All (degree, class vector) pairs (a, b) with [a][b] = [b][a] = 0.

    ring defaults to ("GF", p); pass ("Zmod", p**N) to pick representatives
    that are cocycles at the full precision of the scaling checks.
    """
    ring = ring or ("GF", p)
    m = ring_modulus(ring)
    classes = [(q, [x % m for x in gen]) for q in range(1, max_degree + 1)
               for gen in dga.cohomology(q, ring).generators]
    # vanishes[i][j]: [class i][class j] = 0, each ordered product tested once
    vanishes = [[is_coboundary_mod(dga, qa + qb, dga.mul(qa, qb, a, b), ring)
                 for qb, b in classes] for qa, a in classes]
    return [(classes[i], classes[j])
            for i in range(len(classes)) for j in range(len(classes))
            if vanishes[i][j] and vanishes[j][i]]
