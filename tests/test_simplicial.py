import pytest

from padicforms.arith import ConfigurationError
from padicforms.linalg import StructuralError, smith_normal_form
from padicforms.massey import random_space
from padicforms.simplicial import (
    Cochain,
    DegenerateImage,
    SimplicialSet,
    basis_cochain,
    boundary_delta,
    coboundary,
    delta,
    normalized_cochain_complex,
    rp2,
    sphere,
    standard_space,
)

LIBRARY = lambda: [delta(1), delta(2), boundary_delta(2), sphere(1), sphere(2), rp2()]


def test_delta_counts():
    assert [len(l) for l in delta(2).simplices] == [3, 3, 1]
    assert [len(l) for l in delta(3).simplices] == [4, 6, 4, 1]


def test_sphere_models():
    s1 = sphere(1)
    assert [len(l) for l in s1.simplices] == [1, 1]
    top = DegenerateImage((), "cell")
    assert s1.face(top, 0) == DegenerateImage((), "pt")
    assert s1.face(top, 1) == DegenerateImage((), "pt")
    s2 = sphere(2)
    assert [len(l) for l in s2.simplices] == [1, 0, 1]
    img = s2.face(DegenerateImage((), "cell"), 1)
    assert img.is_degenerate and img.base == "pt" and img.word == (0,)


def test_rp2_face_table():
    x = rp2()
    nd = lambda s: DegenerateImage((), s)
    assert x.faces[("U", 0)] == nd("b")
    assert x.faces[("U", 1)] == nd("a")
    assert x.faces[("U", 2)] == nd("c")
    assert x.faces[("V", 0)] == nd("a")
    assert x.faces[("V", 1)] == nd("b")
    assert x.faces[("V", 2)] == nd("c")
    assert x.faces[("a", 0)] == nd("w")
    assert x.faces[("a", 1)] == nd("v")
    assert x.faces[("c", 0)] == nd("v")
    assert x.faces[("c", 1)] == nd("v")


def test_index_of_is_the_position_in_its_level():
    for space in LIBRARY():
        for q, level in enumerate(space.simplices):
            for k, name in enumerate(level):
                assert space.index_of(q, name) == level.index(name) == k
    with pytest.raises(ValueError):
        rp2().index_of(0, "a")
    with pytest.raises(ValueError):
        rp2().index_of(1, "nowhere")


def test_simplicial_identities_enforced():
    # a 2-cell whose faces break d_0 d_1 = d_0 d_0 is rejected
    nd = lambda s: DegenerateImage((), s)
    faces = {
        ("T", 0): nd("e"), ("T", 1): nd("e"), ("T", 2): nd("e"),
        ("e", 0): nd("x"), ("e", 1): nd("y"),
        ("f", 0): nd("y"), ("f", 1): nd("x"),
    }
    with pytest.raises(StructuralError):
        SimplicialSet("bad", [["x", "y"], ["e", "f"], ["T"]],
                      {**faces, ("T", 0): nd("f")})


def test_standard_space_lookup_errors():
    """Bad names and sizes are input errors, with messages for the user."""
    for name, n, message in [("moebius", None, "unknown space 'moebius'"),
                             ("sphere", None, "sphere needs n >= 0"),
                             ("delta", -1, "delta needs n >= 0"),
                             ("boundary_delta", 0, "boundary_delta needs n >= 1")]:
        with pytest.raises(ConfigurationError) as err:
            standard_space(name, n)
        assert str(err.value) == message


def test_euler_characteristics():
    assert rp2().euler_characteristic() == 1
    assert sphere(2).euler_characteristic() == 2
    assert sphere(1).euler_characteristic() == 0
    assert delta(3).euler_characteristic() == 1


def test_dump_load_roundtrip():
    for space in LIBRARY() + [random_space(s, 4, 9, 6) for s in range(6)]:
        text = space.dump()
        back = SimplicialSet.load(text)
        assert back.simplices == space.simplices
        assert back.faces == space.faces
        assert back.dump() == text


def test_degeneracy_word_normalization():
    x = sphere(2)
    img = DegenerateImage((0,), "pt")          # s_0 pt, dimension 1
    up = x.degeneracy(img, 0)                  # s_0 s_0 = s_1 s_0
    assert up.word == (1, 0)
    for i in range(3):
        down = x.face(up, i)
        assert down.base == "pt"


def test_cochain_complex_sphere2_zero_differentials():
    cx = normalized_cochain_complex(sphere(2))
    assert all(d.is_zero() for d in cx.diffs)


def test_cochain_complex_rp2_matrix():
    # rows U, V over columns a, b, c read off the printed face table
    cx = normalized_cochain_complex(rp2())
    d1 = cx.diffs[1]
    assert d1.to_rows() == [[-1, 1, 1], [1, -1, 1]]


def test_rp2_integer_cohomology():
    cx = normalized_cochain_complex(rp2())
    h0 = cx.cohomology(0, "Z", 2)
    h1 = cx.cohomology(1, "Z", 2)
    h2 = cx.cohomology(2, "Z", 2)
    assert (h0.free_rank, h0.torsion) == (1, [])
    assert (h1.free_rank, h1.torsion) == (0, [])
    assert (h2.free_rank, h2.torsion) == (0, [2])
    # 3-locally the torsion disappears
    h2_3 = cx.cohomology(2, "Z", 3)
    assert (h2_3.free_rank, h2_3.torsion) == (0, [])
    assert h2_3.prime_to_p_torsion == [2]


def test_rp2_h2_invariant_factor_from_raw_snf():
    # oracle: assemble the degree-1 coboundary straight from the face table
    # and read the invariant factors of the quotient Z^2 / im(d1)
    d1 = normalized_cochain_complex(rp2()).diffs[1]
    _, D, _ = smith_normal_form(d1)
    factors = [D[(i, i)] for i in range(2)]
    assert factors == [1, 2]


def test_sphere_cohomology_all_primes():
    for n in (1, 2):
        cx = normalized_cochain_complex(sphere(n))
        for p in (2, 3):
            for q in range(n + 1):
                rep = cx.cohomology(q, "Z", p)
                want = 1 if q in (0, n) else 0
                assert (rep.free_rank, rep.torsion) == (want, [])


def test_delta1_gf2():
    cx = normalized_cochain_complex(delta(1))
    assert cx.cohomology(0, ("GF", 2)).free_rank == 1
    assert cx.cohomology(1, ("GF", 2)).free_rank == 0


def test_s2_cohomology_p3():
    cx = normalized_cochain_complex(sphere(2))
    ranks = [cx.cohomology(q, "Z", 3).free_rank for q in range(3)]
    assert ranks == [1, 0, 1]


def test_coboundary_squares_to_zero_everywhere():
    for space in LIBRARY():
        for q in range(space.dimension + 1):
            for idx in range(space.n_cells(q)):
                f = basis_cochain(space, q, idx)
                if q + 2 <= space.dimension:
                    assert coboundary(coboundary(f)).is_zero()


def test_euler_characteristic_matches_ranks():
    for space in LIBRARY():
        cx = normalized_cochain_complex(space)
        # over Q: alternating sum of free ranks equals the cell count sum
        chi = sum((-1) ** q * cx.cohomology(q, "Z", 2).free_rank
                  for q in range(space.dimension + 1))
        assert chi == space.euler_characteristic()


def test_iterated_faces_respect_identities():
    for space in LIBRARY():
        for d in range(2, space.dimension + 1):
            for s in space.simplices[d]:
                top = DegenerateImage((), s)
                for j in range(d + 1):
                    for i in range(j):
                        assert space.face(space.face(top, j), i) == \
                            space.face(space.face(top, i), j - 1)
