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
"""

from padicforms.linalg import StructuralError
from padicforms.simplicial import (
    Cochain,
    coboundary,
    normalized_cochain_complex,
    ring_reduce,
    zero_cochain,
)


def cup(a, b):
    """Front-face/back-face cochain product; degrees add."""
    a._compatible(b, b.degree)
    space = a.space
    p, q = a.degree, b.degree
    n = p + q
    values = []
    for sigma in (space.simplices[n] if n <= space.dimension else []):
        front = space.vertex_face(sigma, tuple(range(p + 1)))
        back = space.vertex_face(sigma, tuple(range(p, n + 1)))
        values.append(ring_reduce(a(front) * b(back), a.ring))
    return Cochain(space, n, a.ring, tuple(values))


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


def cup_i(a, b, i):
    """Overlapping-interval product of degree |a| + |b| - i; cup_0 == cup."""
    a._compatible(b, b.degree)
    if i < 0 or i > min(a.degree, b.degree):
        raise ValueError(f"cup-{i} undefined for degrees {a.degree}, {b.degree}")
    if i == 0:
        return cup(a, b)
    space = a.space
    p, q = a.degree, b.degree
    n = p + q - i
    decomps = list(interval_decompositions(p, q, i))
    values = []
    for sigma in (space.simplices[n] if n <= space.dimension else []):
        total = 0
        for s_a, s_b, sign in decomps:
            fa = space.vertex_face(sigma, s_a)
            fb = space.vertex_face(sigma, s_b)
            term = a(fa) * b(fb)
            if term:
                total += sign * term
        values.append(ring_reduce(total, a.ring))
    return Cochain(space, n, a.ring, tuple(values))


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
            reports[q] = complex_.cohomology(q, "GF", 2)
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


# -- block permutation composition ----------------------------------------------

def block_compose(outer, inner):
    """Compose permutations blockwise: inner ones act within blocks, the outer
    permutation then rearranges the blocks, keeping each block's order.

    Permutations are one-line tuples of 0-based images; outer has one entry per
    block, inner[k] permutes block k of size len(inner[k]).  Returns the
    one-line composite on sum(sizes) letters.
    """
    r = len(outer)
    if sorted(outer) != list(range(r)):
        raise ValueError("outer is not a permutation")
    if len(inner) != r:
        raise ValueError("need one inner permutation per block")
    sizes = []
    for k, pi in enumerate(inner):
        if sorted(pi) != list(range(len(pi))):
            raise ValueError(f"inner[{k}] is not a permutation")
        sizes.append(len(pi))
    # position of block k after the outer shuffle: blocks are rearranged so
    # that block k lands in slot outer[k]
    offset_in = [sum(sizes[:k]) for k in range(r)]
    order_out = sorted(range(r), key=lambda k: outer[k])
    offset_out = {}
    pos = 0
    for k in order_out:
        offset_out[k] = pos
        pos += sizes[k]
    total = sum(sizes)
    image = [None] * total
    for k in range(r):
        for t in range(sizes[k]):
            image[offset_in[k] + t] = offset_out[k] + inner[k][t]
    if sorted(image) != list(range(total)):
        raise StructuralError("block composition failed to be a permutation")
    return tuple(image)


# -- cohomology ring of a space --------------------------------------------------

def cup_on_vectors(space, p_deg, q_deg, v1, v2, ring, i=0):
    """a cup_i b on coefficient vectors; zero when i is out of range.

    i = 0 calls cup directly: it is the hot path of DgaData.mul and
    cohomology_ring, and cup_i's extra checks cost a few per cent there.
    """
    a = Cochain(space, p_deg, ring, tuple(v1))
    b = Cochain(space, q_deg, ring, tuple(v2))
    return list((cup(a, b) if i == 0 else _cup_i_or_zero(a, b, i)).values)


def cohomology_ring(space, ring, p, q_max=None):
    """Per-degree reports plus products of chosen generators in generator coordinates.

    Returns (reports, products): reports[q] is an AbelianGroupReport; products
    maps (q1, i1, q2, i2) to the class coordinates of gen_{i1}^{q1} cup
    gen_{i2}^{q2} in degree q1+q2.
    """
    complex_ = normalized_cochain_complex(space)
    top = q_max if q_max is not None else space.dimension
    reports = {q: complex_.cohomology(q, ring, p) for q in range(top + 1)}
    products = {}
    for q1 in range(top + 1):
        for q2 in range(top + 1 - q1):
            for i1, g1 in enumerate(reports[q1].generators):
                for i2, g2 in enumerate(reports[q2].generators):
                    prod = cup_on_vectors(space, q1, q2, g1, g2, ring)
                    products[(q1, i1, q2, i2)] = \
                        reports[q1 + q2].class_coordinates(prod)
    return reports, products
