import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import padicforms.products as products_module
from padicforms import linalg
from padicforms.massey import DgaData, eligible_pairs, random_space
from padicforms.report import (
    SCHEMA_VERSION,
    cohomology_report,
    dump_json,
    group_payload,
    vec,
)
from padicforms.simplicial import (
    Cochain,
    DegenerateImage,
    SimplicialSet,
    basis_cochain,
    coboundary,
    delta,
    normalized_cochain_complex,
    rp2,
    sphere,
    standard_space,
    zero_cochain,
)
from padicforms.products import (
    block_compose,
    cohomology_ring,
    cup,
    cup_i,
    cup_i_coboundary_defect,
    cup_on_vectors,
    hirsch_check,
    hirsch_defect,
    steenrod_square,
)


def all_basis(space, q, ring="Z"):
    return [basis_cochain(space, q, i, ring) for i in range(space.n_cells(q))]


def constant_one(space, ring="Z"):
    return Cochain(space, 0, ring, tuple([1] * space.n_cells(0)))


# -- cup ------------------------------------------------------------------------

def test_cup_unit():
    for space in (rp2(), sphere(2), delta(2)):
        one = constant_one(space)
        assert cup(one, one).values == one.values
        for q in range(space.dimension + 1):
            for f in all_basis(space, q):
                assert cup(one, f).values == f.values
                assert cup(f, one).values == f.values


def test_cup_leibniz_exhaustive():
    for space in (rp2(), sphere(2), delta(2)):
        for p_deg in range(space.dimension + 1):
            for q_deg in range(space.dimension - p_deg + 1):
                for a in all_basis(space, p_deg):
                    for b in all_basis(space, q_deg):
                        lhs = coboundary(cup(a, b))
                        rhs = cup(coboundary(a), b) + \
                            cup(a, coboundary(b)).scale((-1) ** p_deg)
                        assert (lhs - rhs).is_zero()


def test_s1_top_cup_is_zero():
    s1 = sphere(1)
    x = basis_cochain(s1, 1, 0)
    sq = cup(x, x)
    assert sq.degree == 2 and sq.values == ()


def test_rp2_mod2_cup_square_nonzero():
    # brute force against the printed face table: for x = a* + b* (the H^1
    # generator mod 2), (x cup x)(U) = x(b)x(c)... front edge (01), back (12)
    space = rp2()
    cx = normalized_cochain_complex(space)
    h1 = cx.cohomology(1, ("GF", 2))
    assert h1.free_rank == 1
    x = Cochain(space, 1, ("GF", 2), tuple(h1.generators[0]))
    sq = cup(x, x)
    h2 = cx.cohomology(2, ("GF", 2))
    assert not h2.is_coboundary(list(sq.values))


# -- cup_i ------------------------------------------------------------------------

def test_cup_0_equals_cup_exhaustive():
    space = rp2()
    for p_deg in range(3):
        for q_deg in range(3 - p_deg):
            for a in all_basis(space, p_deg):
                for b in all_basis(space, q_deg):
                    assert cup_i(a, b, 0).values == cup(a, b).values


def test_cup_i_range_errors():
    space = rp2()
    a = basis_cochain(space, 1, 0)
    with pytest.raises(ValueError):
        cup_i(a, a, 2)
    with pytest.raises(ValueError):
        cup_i(a, a, -1)


def test_cup1_coboundary_identity_exhaustive():
    # the fixed sign convention, over Z and over F_2, on every basis pair
    for space in (rp2(), sphere(2)):
        for ring in ("Z", ("GF", 2)):
            for p_deg in range(1, space.dimension + 1):
                for q_deg in range(1, space.dimension + 1):
                    for a in all_basis(space, p_deg, ring):
                        for b in all_basis(space, q_deg, ring):
                            d = cup_i_coboundary_defect(a, b, 1)
                            assert d.is_zero(), (space.name, ring, p_deg, q_deg)


def test_cup2_coboundary_identity():
    space = rp2()
    for ring in ("Z", ("GF", 2)):
        for a in all_basis(space, 2, ring):
            for b in all_basis(space, 2, ring):
                assert cup_i_coboundary_defect(a, b, 2).is_zero()


def test_cup1_random_cochains_delta3():
    rng = random.Random(17)
    space = delta(3)
    for _ in range(40):
        p_deg = rng.randint(1, 2)
        q_deg = rng.randint(1, 2)
        a = Cochain(space, p_deg, "Z",
                    tuple(rng.randint(-2, 2) for _ in range(space.n_cells(p_deg))))
        b = Cochain(space, q_deg, "Z",
                    tuple(rng.randint(-2, 2) for _ in range(space.n_cells(q_deg))))
        assert cup_i_coboundary_defect(a, b, 1).is_zero()


# -- Hirsch identity ---------------------------------------------------------------

def test_hirsch_degree_zero_vacuous():
    space = rp2()
    a = basis_cochain(space, 1, 0, ("GF", 2))
    b = basis_cochain(space, 1, 1, ("GF", 2))
    c = zero_cochain(space, 0, ("GF", 2))
    ok, witness = hirsch_check(a, b, c)
    assert ok and witness is None


def test_hirsch_all_triples_rp2():
    space = rp2()
    for ring in ("Z", ("GF", 2)):
        basis1 = all_basis(space, 1, ring)
        for a in basis1:
            for b in basis1:
                for c in basis1:
                    ok, witness = hirsch_check(a, b, c)
                    assert ok, (ring, a.values, b.values, c.values, witness)


def test_hirsch_random_sphere2():
    rng = random.Random(23)
    space = sphere(2)
    for _ in range(200):
        degs = [rng.randint(1, 2) for _ in range(3)]
        chains = []
        for d in degs:
            vals = tuple(rng.randint(-3, 3) for _ in range(space.n_cells(d)))
            chains.append(Cochain(space, d, "Z", vals))
        a, b, c = chains
        if 1 > min(a.degree + b.degree, c.degree) or 1 > min(b.degree, c.degree) \
                or 1 > min(a.degree, c.degree):
            continue
        ok, witness = hirsch_check(a, b, c)
        assert ok, (degs, witness)


def test_hirsch_random_delta3_integer():
    rng = random.Random(29)
    space = delta(3)
    for _ in range(60):
        a = Cochain(space, 1, "Z",
                    tuple(rng.randint(-2, 2) for _ in range(space.n_cells(1))))
        b = Cochain(space, 1, "Z",
                    tuple(rng.randint(-2, 2) for _ in range(space.n_cells(1))))
        c = Cochain(space, 1, "Z",
                    tuple(rng.randint(-2, 2) for _ in range(space.n_cells(1))))
        ok, _ = hirsch_check(a, b, c)
        assert ok


# -- Steenrod squares ----------------------------------------------------------------

def test_sq0_is_identity_on_rp2():
    space = rp2()
    cx = normalized_cochain_complex(space)
    h1 = cx.cohomology(1, ("GF", 2))
    gen = h1.generators[0]
    vec, rep = steenrod_square(space, 0, gen, 1)
    assert rep.same_class(vec, gen)


def test_sq1_detects_bockstein_on_rp2():
    space = rp2()
    cx = normalized_cochain_complex(space)
    h1 = cx.cohomology(1, ("GF", 2))
    h2 = cx.cohomology(2, ("GF", 2))
    gen = h1.generators[0]
    vec, rep = steenrod_square(space, 1, gen, 1)
    assert rep.free_rank == h2.free_rank == 1
    assert not rep.is_coboundary(vec)


def test_sq1_additive_and_natural_spot():
    # additivity on classes: Sq^1(x + 0) = Sq^1 x; naturality under the
    # characteristic map delta^2 -> (2-cell U of rp2), pulled back on cochains
    space = rp2()
    cx = normalized_cochain_complex(space)
    h1 = cx.cohomology(1, ("GF", 2))
    x = h1.generators[0]
    sq_x, rep = steenrod_square(space, 1, x, 1)
    zero = [0] * len(x)
    sq_sum, _ = steenrod_square(space, 1, [a + b for a, b in zip(x, zero)], 1)
    assert rep.same_class(sq_x, sq_sum)

    # pullback along U's characteristic map: simplices of delta^2 -> cells
    simplex = delta(2)
    image = {"0.1.2": ("U", 2), "0.1": ("c", 1), "0.2": ("a", 1),
             "1.2": ("b", 1), "0": ("v", 0), "1": ("v", 0), "2": ("w", 0)}

    def pullback(q, vector):
        out = []
        for name in simplex.simplices[q]:
            target, deg = image[name]
            out.append(vector[space.index_of(q, target)] % 2)
        return out

    fx = pullback(1, x)
    fx_cochain = Cochain(simplex, 1, ("GF", 2), tuple(fx))
    if coboundary(fx_cochain).is_zero():
        sq_fx, rep_d = steenrod_square(simplex, 1, fx, 1)
        pulled = pullback(2, sq_x)
        assert rep_d.same_class(sq_fx, pulled)


def test_top_square_axiom_on_classes():
    for space in (rp2(), sphere(2)):
        cx = normalized_cochain_complex(space)
        for q in range(1, space.dimension + 1):
            rep = cx.cohomology(q, ("GF", 2))
            for gen in rep.generators:
                vec, out = steenrod_square(space, q, gen, q)
                x = Cochain(space, q, ("GF", 2), tuple(gen))
                assert vec == list(cup(x, x).values)


# -- block permutation composition ------------------------------------------------------

def test_block_compose_identity():
    assert block_compose((0, 1), [(0,), (0, 1)]) == (0, 1, 2)


def test_block_compose_swap():
    # block of size 2 moves ahead of the block of size 1:
    # one-line images (0-based): 0 -> 2, 1 -> 0, 2 -> 1
    assert block_compose((1, 0), [(0,), (0, 1)]) == (2, 0, 1)


def test_block_compose_inner_action():
    assert block_compose((0, 1), [(1, 0), (0,)]) == (1, 0, 2)


def compose_perms(f, g):
    """(f o g)(x) = f(g(x)), one-line tuples."""
    return tuple(f[g[x]] for x in range(len(g)))


def brute_block_perm(outer, sizes):
    """Oracle: list the blocks, shuffle them by outer, read off the images."""
    slots = [[] for _ in range(len(sizes))]
    start = 0
    for k, size in enumerate(sizes):
        slots[outer[k]] = list(range(start, start + size))
        start += size
    flat = [x for slot in slots for x in slot]
    # flat[new_position] = old_position; invert to get images
    image = [0] * len(flat)
    for newpos, old in enumerate(flat):
        image[old] = newpos
    return tuple(image)


def test_block_compose_against_bruteforce():
    rng = random.Random(37)
    for _ in range(120):
        r = rng.randint(1, 3)
        outer = list(range(r))
        rng.shuffle(outer)
        sizes = [rng.randint(1, 3) for _ in range(r)]
        inner = []
        for s in sizes:
            pi = list(range(s))
            rng.shuffle(pi)
            inner.append(tuple(pi))
        got = block_compose(tuple(outer), inner)
        # oracle: inner permutations first, then the block shuffle
        blockperm = brute_block_perm(tuple(outer), sizes)
        within = []
        start = 0
        for k, s in enumerate(sizes):
            within.extend(start + inner[k][t] for t in range(s))
            start += s
        direct = compose_perms(blockperm, tuple())
        oneline = tuple(blockperm[within[x]] for x in range(len(within)))
        assert got == oneline


def test_block_compose_operad_associativity():
    rng = random.Random(43)
    for _ in range(60):
        r = rng.randint(1, 3)
        outer = list(range(r))
        rng.shuffle(outer)
        sizes = [rng.randint(1, 3) for _ in range(r)]
        mids = []
        for s in sizes:
            pi = list(range(s))
            rng.shuffle(pi)
            mids.append(tuple(pi))
        inner_sizes = [[rng.randint(1, 2) for _ in range(s)] for s in sizes]
        inners = [[tuple(rng.sample(range(sz), sz)) for sz in row]
                  for row in inner_sizes]
        # route 1: compose outer with mids, then with the flattened inners
        first = block_compose(tuple(outer), mids)
        flat_inners = [inners[k][t] for k in range(r) for t in range(sizes[k])]
        route1 = block_compose(first, flat_inners)
        # route 2: compose each mid with its own inners, then outer with those
        partials = [block_compose(mids[k], inners[k]) for k in range(r)]
        route2 = block_compose(tuple(outer), partials)
        assert route1 == route2


# -- cohomology ring -------------------------------------------------------------------

def test_ring_sphere_top_square_zero():
    for n in (1, 2):
        for p in (2, 3):
            reports, products = cohomology_ring(sphere(n), "Z", p)
            assert (reports[0].free_rank, reports[0].torsion) == (1, [])
            assert (reports[n].free_rank, reports[n].torsion) == (1, [])
            # the top generator squares to zero (the target group is 0)
            key = (n, 0, n, 0)
            if key in products:
                assert all(c == 0 for c in products[key])


def test_ring_rp2_p2_and_p3():
    reports, products = cohomology_ring(rp2(), "Z", 2)
    assert (reports[0].free_rank, reports[0].torsion) == (1, [])
    assert (reports[1].free_rank, reports[1].torsion) == (0, [])
    assert (reports[2].free_rank, reports[2].torsion) == (0, [2])
    # unit acts as identity on the torsion generator
    assert products[(0, 0, 2, 0)] == reports[2].class_coordinates(
        reports[2].generators[0])
    reports3, _ = cohomology_ring(rp2(), "Z", 3)
    assert (reports3[0].free_rank, reports3[0].torsion) == (1, [])
    assert (reports3[1].free_rank, reports3[1].torsion) == (0, [])
    assert (reports3[2].free_rank, reports3[2].torsion) == (0, [])


def test_ring_rp2_over_f2_squares_the_generator():
    """x cup x != 0 in H^2(RP^2; F_2), read as a class coordinate."""
    reports, products = cohomology_ring(rp2(), ("GF", 2), 2)
    assert [reports[q].invariants() for q in range(3)] == [(1, [])] * 3
    assert products[(1, 0, 1, 0)] == [1]


# -- face-index tables against the vertex_face loops they replaced -----------------------

def frozen_decompositions(p, q, i):
    """The cut decompositions and signs of cup_i, as first written."""
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
        missing_b = (n * (n + 1)) // 2 - sum(s_b)
        yield tuple(s_a), tuple(s_b), (-1) ** (missing_b + half)


def frozen_vertex_face(space, simplex, vertices):
    """SimplicialSet.vertex_face as it was before the face tables read the
    face lookup: the face of a nondegenerate simplex spanned by a sorted
    vertex subset, the missing vertices removed from the largest down."""
    image = DegenerateImage((), simplex)
    dim = space.dim_of(simplex)
    removed = [i for i in range(dim + 1) if i not in vertices]
    for i in sorted(removed, reverse=True):
        image = space.face(image, i)
    return image


def frozen_cup(a, b):
    """Front/back product read off vertex_face on every call."""
    space = a.space
    p, q = a.degree, b.degree
    n = p + q
    values = []
    for sigma in (space.simplices[n] if n <= space.dimension else []):
        front = frozen_vertex_face(space, sigma, tuple(range(p + 1)))
        back = frozen_vertex_face(space, sigma, tuple(range(p, n + 1)))
        values.append(linalg.ring_reduce(a(front) * b(back), a.ring))
    return tuple(values)


def frozen_cup_i(a, b, i):
    """Overlapping-interval product read off vertex_face on every call."""
    if i == 0:
        return frozen_cup(a, b)
    space = a.space
    p, q = a.degree, b.degree
    n = p + q - i
    decomps = list(frozen_decompositions(p, q, i))
    values = []
    for sigma in (space.simplices[n] if n <= space.dimension else []):
        total = 0
        for s_a, s_b, sign in decomps:
            term = (a(frozen_vertex_face(space, sigma, s_a))
                    * b(frozen_vertex_face(space, sigma, s_b)))
            if term:
                total += sign * term
        values.append(linalg.ring_reduce(total, a.ring))
    return tuple(values)


def oracle_spaces():
    spaces = [standard_space(name, n) for name, n in (
        ("rp2", None), ("sphere", 2), ("sphere", 3), ("delta", 3),
        ("boundary_delta", 3), ("boundary_delta", 4))]
    for s in range(8):
        spaces.append(random_space(s, 3, 5, 3))
        spaces.append(random_space(s, 7, 20, 15))
    return spaces


def random_cochain(rng, space, q, ring):
    if ring == "Z":
        values = [rng.randint(-3, 3) for _ in range(space.n_cells(q))]
    else:
        values = [rng.randrange(ring[1]) for _ in range(space.n_cells(q))]
    return Cochain(space, q, ring, tuple(values))


def test_face_tables_match_frozen_vertex_face_products():
    rng = random.Random(61)
    checked = 0
    for space in oracle_spaces():
        top = space.dimension
        for ring in ("Z", ("GF", 2), ("Zmod", 256)):
            for p_deg in range(top + 1):
                for q_deg in range(top + 1):
                    for i in range(min(p_deg, q_deg) + 1):
                        for _ in range(2):
                            a = random_cochain(rng, space, p_deg, ring)
                            b = random_cochain(rng, space, q_deg, ring)
                            want = frozen_cup_i(a, b, i)
                            assert cup_i(a, b, i).values == want, \
                                (space.name, ring, p_deg, q_deg, i)
                            got = cup_on_vectors(space, p_deg, q_deg, list(a.values),
                                                 list(b.values), ring, i)
                            assert tuple(got) == want
                            if i == 0:
                                assert cup(a, b).values == want
                            checked += 1
    assert checked > 1000


# -- which spaces' cochains multiply -----------------------------------------------------

def two_point_edge(reversed_edge):
    ends = "v w" if reversed_edge else "w v"
    return SimplicialSet.load(f"space same\n0: v w\n1: a\na: {ends}\n")


def test_same_name_different_faces_rejected():
    x, y = two_point_edge(False), two_point_edge(True)
    assert x.name == y.name and x.simplices == y.simplices
    a0 = basis_cochain(x, 0, 0)
    b0 = basis_cochain(y, 0, 0)
    b1 = basis_cochain(y, 1, 0)
    with pytest.raises(ValueError, match="different spaces"):
        cup(a0, b1)
    with pytest.raises(ValueError, match="different spaces"):
        cup_i(a0, b1, 0)
    with pytest.raises(ValueError, match="different spaces"):
        a0 + b0


def test_two_copies_of_one_library_space_multiply():
    x, y = standard_space("rp2"), standard_space("rp2")
    assert x is not y
    for a in all_basis(x, 1):
        for b in all_basis(y, 1):
            same = Cochain(x, 1, "Z", b.values)
            assert cup(a, b).values == cup(a, same).values
            assert cup_i(a, b, 1).values == cup_i(a, same, 1).values
            assert (a + b).values == (a + same).values


# -- the face tables are built once per space ---------------------------------------------

@pytest.fixture
def face_table_builds(monkeypatch):
    """The (p, q, i) of every face table built: a build, and only a build,
    lists the interval decompositions."""
    builds = []
    original = products_module.interval_decompositions

    def counted(p, q, i):
        builds.append((p, q, i))
        return original(p, q, i)

    monkeypatch.setattr(products_module, "interval_decompositions", counted)
    return builds


def test_cohomology_ring_builds_each_table_once(face_table_builds):
    for space in (rp2(), sphere(2), delta(3), random_space(5, 7, 20, 15)):
        face_table_builds.clear()
        _, first = cohomology_ring(space, "Z", 2)
        # at most one cup table per (q1, q2), each built once
        top = space.dimension
        assert len(face_table_builds) == len(set(face_table_builds))
        assert len(face_table_builds) <= (top + 1) * (top + 2) // 2
        assert all(i == 0 for _, _, i in face_table_builds)
        face_table_builds.clear()
        assert cohomology_ring(space, "Z", 2)[1] == first
        assert face_table_builds == []


def test_dga_products_reuse_tables_after_eligible_pairs(face_table_builds):
    space = random_space(3, 7, 20, 15)
    dga = DgaData.from_space(space)
    pairs = eligible_pairs(dga, 2, ring=("Zmod", 256))
    assert pairs
    for (qa, a), (qb, b) in pairs:
        dga.cup1(qa, qa, a, a)
    face_table_builds.clear()
    for (qa, a), (qb, b) in pairs:
        dga.mul(qa, qb, a, b)
        dga.mul(qb, qa, b, a)
        dga.cup1(qa, qa, a, a)
    assert face_table_builds == []


# -- the product table of cohomology_ring --------------------------------------------------

def _frozen_cohomology_ring(space, ring, p, q_max=None):
    """cohomology_ring as it was before products whose supports miss were
    skipped: every generator pair is multiplied."""
    complex_ = normalized_cochain_complex(space)
    top = q_max if q_max is not None else space.dimension
    reports = {q: complex_.cohomology(q, ring, p) for q in range(top + 1)}
    products = {}
    zero_coords = {}
    for q1 in range(top + 1):
        for q2 in range(top + 1 - q1):
            target = reports[q1 + q2]
            for i1, g1 in enumerate(reports[q1].generators):
                for i2, g2 in enumerate(reports[q2].generators):
                    prod = cup_on_vectors(space, q1, q2, g1, g2, ring)
                    if any(prod):
                        coords = target.class_coordinates(prod)
                    else:
                        if q1 + q2 not in zero_coords:
                            zero_coords[q1 + q2] = target.class_coordinates(prod)
                        coords = list(zero_coords[q1 + q2])
                    products[(q1, i1, q2, i2)] = coords
    return reports, products


def _frozen_cohomology_report(manifest, reports, products):
    """report.cohomology_report as it was before the entries shared lists."""
    degrees = []
    for q in sorted(reports):
        payload = group_payload(reports[q])
        payload["degree"] = q
        degrees.append(payload)
    return {
        "version": SCHEMA_VERSION,
        "kind": "cohomology",
        "manifest": manifest,
        "degrees": degrees,
        "products": [
            {"left": [k[0], k[1]], "right": [k[2], k[3]],
             "coordinates": None if v is None else vec(v)}
            for k, v in sorted(products.items())],
    }


# the cochain-ring benchmark's six size classes
RING_SIZES = [(5, 11, 8), (5, 12, 9), (6, 14, 11), (6, 16, 12), (7, 18, 14), (7, 20, 15)]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), size=st.sampled_from(RING_SIZES),
       ring=st.sampled_from(["Z", ("GF", 2), ("Zmod", 2), ("Zmod", 256)]),
       q_max=st.sampled_from([None, 1]))
def test_cohomology_ring_matches_frozen_copy(seed, size, ring, q_max):
    """The products dict exactly, and the report's bytes, against frozen
    copies and the standard library's encoder."""
    space = random_space(seed, *size)
    reports, products = cohomology_ring(space, ring, 2, q_max)
    frozen_reports, frozen_products = _frozen_cohomology_ring(space, ring, 2, q_max)
    assert products == frozen_products
    assert [r.generators for r in reports.values()] == \
        [r.generators for r in frozen_reports.values()]
    manifest = {"space": space.name}
    want = json.dumps(_frozen_cohomology_report(manifest, reports, products),
                      sort_keys=True, indent=1) + "\n"
    got = dump_json(cohomology_report(manifest, reports, products))
    # line by line: pytest's diff of two reports this long takes minutes
    lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
    mismatch = next((n for n, (a, b) in enumerate(lines) if a != b), None)
    assert mismatch is None, f"report bytes differ from line {mismatch + 1}"


def test_product_table_work_counts(monkeypatch):
    """Disjoint supports skip the product: 72 of 484 generator products are
    computed on this space, and every class is still read off once per
    nonzero product and once for zero (73 class_coordinates calls)."""
    calls = {"products": 0, "classes": 0}
    product_values = products_module._product_values
    class_coordinates = linalg.AbelianGroupReport.class_coordinates

    def count_products(*args):
        calls["products"] += 1
        return product_values(*args)

    def count_classes(self, vector):
        calls["classes"] += 1
        return class_coordinates(self, vector)

    monkeypatch.setattr(products_module, "_product_values", count_products)
    monkeypatch.setattr(linalg.AbelianGroupReport, "class_coordinates", count_classes)
    _, products = cohomology_ring(random_space(0, 7, 20, 15), "Z", 2)
    assert len(products) == 484
    assert calls == {"products": 72, "classes": 73}
