"""Cup and cup-i products on normalized simplicial cochains.

cup is the front-face/back-face product.  cup_i uses overlapping interval
decompositions: a (p+q-i)-simplex is cut at i+1 positions into i+2 intervals
sharing endpoints; the first cochain eats the even-numbered intervals, the
second the odd-numbered ones.  Over F_2 this is the classical formula.

Over Z the sign of one decomposition is (-1) to

    sum(vertices missing from the second factor) + p(p-1)/2 + i(i+1)/2,

the unique family (given the front-back cup) satisfying the coboundary tower

    d(a u_i b) = (-1)^{i+1} a u_{i-1} b  -  (-1)^{pq} b u_{i-1} a
                 + (-1)^i (da) u_i b  +  (-1)^{i+p} a u_i (db),

whose i = 1 case is the fixed cup-1 convention.  The signs were solved for on
universal simplices and are verified exhaustively by the test suite; the same
convention forces the signed Hirsch identity

    (a u b) u_1 c = (-1)^{|a|} a u (b u_1 c) + (-1)^{|b||c|} (a u_1 c) u b.

Every product reads a face-index table of its space: per (p, q, i), the
(simplex, a-face, b-face, sign) entries of the decompositions above whose
faces are nondegenerate, read off the space's face lookup once and memoised
on the space (Gonzalez-Diaz and Real, "Computation of cohomology operations
on finite simplicial complexes", HHA 5, 2003).  A product is then one pass
over the table; the signs are the ones above.
"""

from padicforms.linalg import StructuralError, ring_modulus, ring_reduce
from padicforms.simplicial import (
    Cochain,
    coboundary,
    normalized_cochain_complex,
    zero_cochain,
)


def interval_decompositions(p, q, i):
    """Yield (S_a, S_b, sign) over the cut decompositions of a (p+q-i)-simplex.

    Cut positions 0 <= l_1 < ... < l_{i+1} <= n carve {0..n} into i+2
    intervals overlapping at the cuts; even-numbered intervals go to S_a,
    odd-numbered ones to S_b.  Only decompositions with |S_a| = p+1 and
    |S_b| = q+1 survive.
    """
    import itertools
    n = p + q - i
    half = p * (p - 1) // 2 + i * (i + 1) // 2
    for cuts in itertools.combinations(range(n + 1), i + 1):
        ends = [0] + list(cuts) + [n]
        s_a, s_b = [], []
        for m in range(i + 2):
            seg = range(ends[m], ends[m + 1] + 1)
            (s_b if m % 2 else s_a).extend(seg)
        if len(s_a) != p + 1 or len(s_b) != q + 1:
            continue
        if len(set(s_a)) != len(s_a) or len(set(s_b)) != len(s_b):
            continue
        missing_b = (n * (n + 1)) // 2 - sum(s_b) + 0
        sign = (-1) ** (missing_b + half)
        yield tuple(s_a), tuple(s_b), sign


def _face_table(space, p, q, i):
    """The face-index table of cup_i on degrees (p, q), built once per space.

    One entry (s, index of the a-face, index of the b-face, sign) per
    decomposition of the (p+q-i)-simplex number s whose two faces are both
    nondegenerate; a degenerate face carries no cochain value, so its
    decomposition is dropped.  At i = 0 each simplex has the single
    front/back entry, with sign +1.
    """
    if (p, q, i) in space.face_tables:
        return space.face_tables[(p, q, i)]
    n = p + q - i
    decomps = [([v for v in range(n, -1, -1) if v not in s_a],
                [v for v in range(n, -1, -1) if v not in s_b], sign)
               for s_a, s_b, sign in interval_decompositions(p, q, i)]
    entries = []
    for s, sigma in enumerate(space.simplices[n] if n <= space.dimension else []):
        for drop_a, drop_b, sign in decomps:
            fa, fb = _face_base(space, sigma, drop_a), _face_base(space, sigma, drop_b)
            if fa is not None and fb is not None:
                entries.append((s, space.index_of(p, fa), space.index_of(q, fb), sign))
    table = space.face_tables[(p, q, i)] = tuple(entries)
    return table


def _face_base(space, sigma, dropped):
    """The base of sigma's face without the dropped vertices (largest first),
    or None if it is degenerate: face lookups, then space.face once degenerate."""
    for k, i in enumerate(dropped):
        image = space.faces[(sigma, i)]
        if image.word:
            for j in dropped[k + 1:]:
                image = space.face(image, j)
            return None if image.word else image.base
        sigma = image.base
    return sigma


def _product_values(space, p, q, i, va, vb, ring):
    """Values of a cup_i b from the face table, reduced into ring."""
    out = [0] * space.n_cells(p + q - i)
    for s, ia, ib, sign in space.face_tables.get((p, q, i)) or _face_table(space, p, q, i):
        x = va[ia]
        if x:
            y = vb[ib]
            if y:
                out[s] += sign * x * y
    m = ring_modulus(ring)
    return [v % m for v in out] if m else out


def cup(a, b):
    """Front-face/back-face cochain product; degrees add."""
    a._compatible(b, b.degree)
    values = _product_values(a.space, a.degree, b.degree, 0, a.values, b.values, a.ring)
    return Cochain(a.space, a.degree + b.degree, a.ring, tuple(values))


def cup_i(a, b, i):
    """Overlapping-interval product of degree |a| + |b| - i; cup_0 == cup."""
    a._compatible(b, b.degree)
    if i < 0 or i > min(a.degree, b.degree):
        raise ValueError(f"cup-{i} undefined for degrees {a.degree}, {b.degree}")
    values = _product_values(a.space, a.degree, b.degree, i, a.values, b.values, a.ring)
    return Cochain(a.space, a.degree + b.degree - i, a.ring, tuple(values))


def _cup_i_or_zero(a, b, i):
    """cup_i with the convention that out-of-range i gives the zero cochain."""
    if i < 0 or i > min(a.degree, b.degree):
        return zero_cochain(a.space, a.degree + b.degree - i, a.ring)
    return cup_i(a, b, i)


def cup_i_coboundary_defect(a, b, i):
    """d(a u_i b) minus the right side of the fixed sign convention; 0 iff it holds."""
    p, q = a.degree, b.degree
    lhs = coboundary(cup_i(a, b, i))
    rhs = zero_cochain(a.space, p + q - i + 1, a.ring)
    if i >= 1:
        rhs = rhs + cup_i(a, b, i - 1).scale((-1) ** (i + 1))
        rhs = rhs - cup_i(b, a, i - 1).scale((-1) ** (p * q))
    da, db = coboundary(a), coboundary(b)
    rhs = rhs + _cup_i_or_zero(da, b, i).scale((-1) ** i)
    rhs = rhs + _cup_i_or_zero(a, db, i).scale((-1) ** (i + p))
    return lhs - rhs


def hirsch_defect(a, b, c):
    """(a u b) u_1 c - (-1)^{|a|} a u (b u_1 c) - (-1)^{|b||c|} (a u_1 c) u b.

    Over F_2 the signs vanish and this is the literal Hirsch identity; the
    integer signs are the ones forced by the frozen cup-1 convention.  When
    any of the three cup-1 factors is out of range (a degree-0 argument) the
    identity is vacuous and the zero cochain is returned.
    """
    degenerate = (c.degree < 1 or a.degree < 1 or b.degree < 1)
    if degenerate:
        n = a.degree + b.degree + c.degree - 1
        return zero_cochain(a.space, n, a.ring)
    lhs = cup_i(cup(a, b), c, 1)
    rhs = cup(a, cup_i(b, c, 1)).scale((-1) ** a.degree)
    rhs = rhs + cup(cup_i(a, c, 1), b).scale((-1) ** (b.degree * c.degree))
    return lhs - rhs


def hirsch_check(a, b, c):
    """Evaluate the Hirsch identity on every simplex; (ok, first failing name)."""
    defect = hirsch_defect(a, b, c)
    for idx, v in enumerate(defect.values):
        if ring_reduce(v, defect.ring):
            return False, defect.space.simplices[defect.degree][idx]
    return True, None


# -- Steenrod squares ----------------------------------------------------------

def steenrod_square(space, i, vector, degree, reports=None):
    """Sq^i of a mod-2 class given by a cocycle vector; returns (vector, report).

    Sq^i [x] = [x u_{|x|-i} x] in H^{|x|+i}(space; F_2).  Each call verifies
    that the output is a cocycle, that Sq^0 fixes the class, and that the top
    square is the cup square.
    """
    if not (0 <= i <= degree):
        raise ValueError(f"Sq^{i} out of range for a degree-{degree} class")
    complex_ = normalized_cochain_complex(space)
    if reports is None:
        reports = {}
    ring = ("GF", 2)
    x = Cochain(space, degree, ring, tuple(v % 2 for v in vector))
    if not coboundary(x).is_zero():
        raise ValueError("representative is not a cocycle mod 2")

    def report_at(q):
        if q not in reports:
            reports[q] = complex_.cohomology(q, ring)
        return reports[q]

    sq = cup_i(x, x, degree - i)
    if not coboundary(sq).is_zero():
        raise StructuralError("Sq representative is not a cocycle")
    sq0 = cup_i(x, x, degree)
    if not report_at(degree).same_class(list(sq0.values), list(x.values)):
        raise StructuralError("Sq^0 did not fix the class")
    top = cup_i(x, x, 0)
    if list(top.values) != list(cup(x, x).values):
        raise StructuralError("top square is not the cup square")
    return list(sq.values), report_at(degree + i)


# -- cohomology ring of a space --------------------------------------------------

def cup_on_vectors(space, p_deg, q_deg, v1, v2, ring, i=0):
    """a cup_i b on coefficient vectors; zero when i is out of range.

    The hot path of DgaData.mul/cup1 and the decalage products: it reads the
    face table straight off the vectors, with no Cochain on the way in.
    """
    if len(v1) != space.n_cells(p_deg) or len(v2) != space.n_cells(q_deg):
        raise ValueError("value vector has the wrong length")
    if i < 0 or i > min(p_deg, q_deg):
        return [0] * space.n_cells(p_deg + q_deg - i)
    return _product_values(space, p_deg, q_deg, i, v1, v2, ring)


def cohomology_ring(space, ring, p, q_max=None):
    """Per-degree reports plus products of chosen generators in generator coordinates.

    Returns (reports, products): reports[q] is an AbelianGroupReport; products
    maps (q1, i1, q2, i2) to the class coordinates of gen_{i1}^{q1} cup
    gen_{i2}^{q2} in degree q1+q2.  A product whose factors' support masks
    over the cup table are disjoint is zero term by term, so it is not computed.
    """
    complex_ = normalized_cochain_complex(space)
    top = q_max if q_max is not None else space.dimension
    reports = {q: complex_.cohomology(q, ring, p) for q in range(top + 1)}
    products = {}
    zero_coords = {}   # degree -> class coordinates of the zero cochain
    for q1 in range(top + 1):
        for q2 in range(top + 1 - q1):
            q, target, table = q1 + q2, reports[q1 + q2], _face_table(space, q1, q2, 0)
            masks1 = _support_masks(table, 1, reports[q1].generators)
            masks2 = _support_masks(table, 2, reports[q2].generators)
            for i1, g1 in enumerate(reports[q1].generators):
                for i2, g2 in enumerate(reports[q2].generators):
                    if masks1[i1] & masks2[i2]:
                        prod = _product_values(space, q1, q2, 0, g1, g2, ring)
                        if any(prod):
                            products[(q1, i1, q2, i2)] = target.class_coordinates(prod)
                            continue
                    if q not in zero_coords:
                        zero_coords[q] = target.class_coordinates([0] * space.n_cells(q))
                    products[(q1, i1, q2, i2)] = list(zero_coords[q])
    return reports, products


def _support_masks(table, side, vectors):
    """Per vector, the bitmask of the table entries whose face on side (1 for
    the a-face, 2 for the b-face) has a nonzero value.  Each entry has one
    face per side, so the cells' masks are disjoint and add up to the union."""
    entries_at = {}
    for k, entry in enumerate(table):
        entries_at[entry[side]] = entries_at.get(entry[side], 0) | 1 << k
    return [sum(entries_at.get(c, 0) for c, x in enumerate(v) if x) for v in vectors]
