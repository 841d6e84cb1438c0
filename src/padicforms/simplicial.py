"""Finite simplicial sets presented by nondegenerate simplices.

A space stores, per dimension, named nondegenerate simplices; every face of a
nondegenerate simplex is a DegenerateImage: an admissible degeneracy word
(strictly decreasing indices) applied to a nondegenerate base.  This is the
Eilenberg-Zilber normal form, and it is the smallest presentation that still
covers spheres, whose top-cell faces are degenerate basepoint simplices.

Simplicial identities are verified on construction by pushing face operators
through degeneracy words with the usual rewriting rules.
"""

from dataclasses import dataclass

from padicforms.arith import ConfigurationError
from padicforms.linalg import SparseIntMatrix, StructuralError, cohomology, ring_reduce


@dataclass(frozen=True)
class DegenerateImage:
    """s_{j_1} ... s_{j_r} applied to a nondegenerate simplex; j_1 > j_2 > ..."""

    word: tuple
    base: str

    def __post_init__(self):
        if any(a <= b for a, b in zip(self.word, self.word[1:])):
            raise ValueError(f"degeneracy word {self.word} is not admissible")

    @property
    def is_degenerate(self):
        return bool(self.word)

    def degree_shift(self):
        return len(self.word)

    def __str__(self):
        return ".".join([f"s{j}" for j in self.word] + [self.base])

    @classmethod
    def parse(cls, token):
        parts = token.split(".")
        word = []
        while parts and parts[0].startswith("s") and parts[0][1:].isdigit():
            word.append(int(parts.pop(0)[1:]))
        if not parts:
            raise ValueError(f"no base simplex in {token!r}")
        return cls(tuple(word), ".".join(parts))


def _insert_degeneracy(j, word):
    """Normal form of s_j applied outside s_{word}; s_a s_b = s_{b+1} s_a for a <= b."""
    if not word or j > word[0]:
        return (j,) + tuple(word)
    return (word[0] + 1,) + _insert_degeneracy(j, word[1:])


class SimplicialSet:
    """Finite simplicial set with named nondegenerate simplices."""

    def __init__(self, name, simplices, faces):
        """simplices: list per dimension of simplex names.
        faces: dict (name, i) -> DegenerateImage for every nondegenerate simplex
        of positive dimension and every face index i.
        """
        self.name = name
        self.simplices = [list(level) for level in simplices]
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()
        self.faces = dict(faces)
        self._dim_of = {}
        self._index = {}
        for d, level in enumerate(self.simplices):
            for k, s in enumerate(level):
                if s in self._dim_of:
                    raise ValueError(f"duplicate simplex name {s!r}")
                self._dim_of[s] = d
                self._index[s] = k
        # the products module's face-index tables, keyed (p, q, i), made on first use
        self.face_tables = {}
        self._validate()

    @property
    def dimension(self):
        return len(self.simplices) - 1

    def dim_of(self, simplex):
        return self._dim_of[simplex]

    def n_cells(self, q):
        if 0 <= q <= self.dimension:
            return len(self.simplices[q])
        return 0

    def index_of(self, q, name):
        if self._dim_of.get(name) != q:
            raise ValueError(f"{name!r} is not a {q}-simplex")
        return self._index[name]

    def euler_characteristic(self):
        return sum((-1) ** q * len(level) for q, level in enumerate(self.simplices))

    # -- face/degeneracy calculus on formal simplices -------------------------

    def face(self, image, i):
        """d_i applied to a DegenerateImage, in normal form."""
        if not image.word:
            key = (image.base, i)
            if key not in self.faces:
                raise StructuralError(f"missing face {key}")
            return self.faces[key]
        j = image.word[0]
        inner = DegenerateImage(image.word[1:], image.base)
        if i < j:
            return self.degeneracy(self.face(inner, i), j - 1)
        if i in (j, j + 1):
            return inner
        return self.degeneracy(self.face(inner, i - 1), j)

    def degeneracy(self, image, j):
        return DegenerateImage(_insert_degeneracy(j, image.word), image.base)

    def _validate(self):
        for d in range(1, self.dimension + 1):
            for s in self.simplices[d]:
                for i in range(d + 1):
                    key = (s, i)
                    if key not in self.faces:
                        raise ValueError(f"face {key} not given")
                    img = self.faces[key]
                    if img.base not in self._dim_of:
                        raise ValueError(f"face {key} references unknown {img.base!r}")
                    want = d - 1
                    have = self._dim_of[img.base] + img.degree_shift()
                    if want != have:
                        raise ValueError(f"face {key} has dimension {have}, want {want}")
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j
        for d in range(2, self.dimension + 1):
            for s in self.simplices[d]:
                top = DegenerateImage((), s)
                for j in range(d + 1):
                    for i in range(j):
                        left = self.face(self.face(top, j), i)
                        right = self.face(self.face(top, i), j - 1)
                        if left != right:
                            raise StructuralError(
                                f"simplicial identity fails on {s}: "
                                f"d_{i} d_{j} = {left} != {right} = d_{j-1} d_{i}")

    # -- serialization ---------------------------------------------------------

    def dump(self):
        lines = [f"space {self.name}"]
        for d, level in enumerate(self.simplices):
            lines.append(f"{d}: " + " ".join(level))
        for d in range(1, self.dimension + 1):
            for s in self.simplices[d]:
                row = " ".join(str(self.faces[(s, i)]) for i in range(d + 1))
                lines.append(f"{s}: {row}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text):
        """The space of a text in ``dump``'s format: a ``space NAME`` header,
        one level line per dimension, one face line per simplex of dimension
        d > 0 with its d + 1 faces.  Anything else is a ValueError that names
        the line."""
        name = None
        levels = {}
        face_rows = {}
        for number, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("space "):
                name = line.split(None, 1)[1]
                continue
            if name is None:
                raise ValueError(f"line {number}: no 'space NAME' header before it")
            head, _, rest = line.partition(":")
            head = head.strip()
            rows, key = (levels, int(head)) if head.isdigit() else \
                (face_rows, head)
            if key in rows:
                raise ValueError(f"line {number}: a second line for {head!r}")
            rows[key] = number, rest.split()
        if not levels:
            raise ValueError("no simplex levels in space file")
        simplices = [levels.get(d, (0, []))[1] for d in range(max(levels) + 1)]
        dims = {s: d for d, level in enumerate(simplices) for s in level}
        faces = {}
        for s, (number, tokens) in face_rows.items():
            if not dims.get(s):
                raise ValueError(f"line {number}: {s!r} is not a simplex of "
                                 "positive dimension")
            if len(tokens) != dims[s] + 1:
                raise ValueError(f"line {number}: {s!r} has {len(tokens)} "
                                 f"faces, want {dims[s] + 1}")
            for i, tok in enumerate(tokens):
                faces[(s, i)] = DegenerateImage.parse(tok)
        return cls(name, simplices, faces)


# -- the space library --------------------------------------------------------

def _subset_name(subset):
    return ".".join(str(i) for i in subset)


def delta(n):
    """The standard n-simplex; nondegenerate cells are vertex subsets."""
    import itertools
    simplices = []
    faces = {}
    for d in range(n + 1):
        level = [_subset_name(c) for c in itertools.combinations(range(n + 1), d + 1)]
        simplices.append(level)
    for d in range(1, n + 1):
        for c in itertools.combinations(range(n + 1), d + 1):
            name = _subset_name(c)
            for i in range(d + 1):
                sub = c[:i] + c[i + 1:]
                faces[(name, i)] = DegenerateImage((), _subset_name(sub))
    return SimplicialSet(f"delta{n}", simplices, faces)


def boundary_delta(n):
    """The boundary of the standard n-simplex."""
    if n == 0:
        raise ValueError("the boundary of a point is empty")
    full = delta(n)
    simplices = full.simplices[:-1]
    faces = {k: v for k, v in full.faces.items()
             if full.dim_of(k[0]) <= n - 1}
    return SimplicialSet(f"boundary_delta{n}", simplices, faces)


def sphere(n):
    """Delta^n with its whole boundary collapsed: one vertex and one n-cell."""
    if n == 0:
        return SimplicialSet("sphere0", [["pt", "qt"]], {})
    simplices = [["pt"]] + [[] for _ in range(n - 1)] + [["cell"]]
    word = tuple(range(n - 2, -1, -1))  # s_{n-2} ... s_0, empty when n == 1
    faces = {("cell", i): DegenerateImage(word, "pt") for i in range(n + 1)}
    return SimplicialSet(f"sphere{n}", simplices, faces)


def rp2():
    """The projective plane: two triangles, three edges, two vertices."""
    simplices = [["v", "w"], ["a", "b", "c"], ["U", "V"]]
    nd = lambda s: DegenerateImage((), s)
    faces = {
        ("U", 0): nd("b"), ("U", 1): nd("a"), ("U", 2): nd("c"),
        ("V", 0): nd("a"), ("V", 1): nd("b"), ("V", 2): nd("c"),
        ("a", 0): nd("w"), ("a", 1): nd("v"),
        ("b", 0): nd("w"), ("b", 1): nd("v"),
        ("c", 0): nd("v"), ("c", 1): nd("v"),
    }
    return SimplicialSet("rp2", simplices, faces)


def standard_space(name, n=None):
    """Library lookup: delta, boundary_delta, sphere (with n) or rp2."""
    if name == "delta":
        if n is None or n < 0:
            raise ConfigurationError("delta needs n >= 0")
        return delta(n)
    if name == "boundary_delta":
        if n is None or n < 1:
            raise ConfigurationError("boundary_delta needs n >= 1")
        return boundary_delta(n)
    if name == "sphere":
        if n is None or n < 0:
            raise ConfigurationError("sphere needs n >= 0")
        return sphere(n)
    if name == "rp2":
        return rp2()
    raise ConfigurationError(f"unknown space {name!r}")


# -- cochains ------------------------------------------------------------------

@dataclass(frozen=True)
class Cochain:
    """A normalized cochain: one coefficient per nondegenerate q-simplex."""

    space: SimplicialSet
    degree: int
    ring: object
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.space.n_cells(self.degree):
            raise ValueError("value vector has the wrong length")

    def __call__(self, image):
        """Evaluate on a DegenerateImage; degenerate simplices give 0."""
        if image.is_degenerate:
            return 0
        idx = self.space.index_of(self.degree, image.base)
        return self.values[idx]

    def map_values(self, other_values):
        return Cochain(self.space, self.degree, self.ring,
                       tuple(ring_reduce(v, self.ring) for v in other_values))

    def __add__(self, other):
        self._compatible(other, self.degree)
        return self.map_values(a + b for a, b in zip(self.values, other.values))

    def __sub__(self, other):
        self._compatible(other, self.degree)
        return self.map_values(a - b for a, b in zip(self.values, other.values))

    def scale(self, c):
        return self.map_values(c * v for v in self.values)

    def is_zero(self):
        return all(ring_reduce(v, self.ring) == 0 for v in self.values)

    def _compatible(self, other, degree):
        mine, theirs = self.space, other.space
        # a distinct space is accepted only if cochain vectors index it alike
        if mine is not theirs and (mine.name, mine.simplices, mine.faces) != \
                (theirs.name, theirs.simplices, theirs.faces):
            raise ValueError("cochains live on different spaces")
        if self.ring != other.ring:
            raise ValueError("cochains have different coefficient rings")
        if other.degree != degree:
            raise ValueError("degree mismatch")


def basis_cochain(space, q, index, ring="Z"):
    values = [0] * space.n_cells(q)
    values[index] = 1
    return Cochain(space, q, ring, tuple(values))


def zero_cochain(space, q, ring="Z"):
    return Cochain(space, q, ring, tuple([0] * space.n_cells(q)))


def coboundary(cochain):
    """delta f (sigma) = sum_i (-1)^i f(d_i sigma); degenerate faces give 0."""
    space = cochain.space
    q = cochain.degree
    out = []
    for tau in space.simplices[q + 1] if q + 1 <= space.dimension else []:
        total = 0
        top = DegenerateImage((), tau)
        for i in range(q + 2):
            total += (-1) ** i * cochain(space.face(top, i))
        out.append(ring_reduce(total, cochain.ring))
    return Cochain(space, q + 1, cochain.ring, tuple(out))


class CochainComplex:
    """Normalized cochain complex of a space: integer differential matrices.

    diffs[q] maps degree q to degree q+1; the top differential is the zero map
    to a rank-0 group.  d o d = 0 is asserted on construction.
    """

    def __init__(self, dims, diffs):
        self.dims = list(dims)
        self.diffs = list(diffs)
        for q in range(len(self.diffs) - 1):
            if not self.diffs[q + 1].mul(self.diffs[q]).is_zero():
                raise StructuralError(f"d o d != 0 between degrees {q} and {q + 2}")

    def top_degree(self):
        return len(self.dims) - 1

    def dim(self, q):
        return self.dims[q] if 0 <= q <= self.top_degree() else 0

    def diff(self, q):
        if 0 <= q <= self.top_degree():
            return self.diffs[q]
        return SparseIntMatrix.zero(self.dim(q + 1), self.dim(q))

    def cohomology(self, q, ring, p=None):
        d_prev = self.diff(q - 1) if q > 0 else SparseIntMatrix.zero(self.dim(0), 0)
        return cohomology(d_prev, self.diff(q), ring, p)


def normalized_cochain_complex(space):
    """Integer normalized cochain complex; reduce mod m downstream as needed."""
    dims = [space.n_cells(q) for q in range(space.dimension + 1)]
    diffs = []
    for q in range(space.dimension + 1):
        rows = space.n_cells(q + 1)
        entries = {}
        for r, tau in enumerate(space.simplices[q + 1] if q + 1 <= space.dimension else []):
            top = DegenerateImage((), tau)
            for i in range(q + 2):
                img = space.face(top, i)
                if not img.is_degenerate:
                    c = space.index_of(q, img.base)
                    entries[(r, c)] = entries.get((r, c), 0) + (-1) ** i
        entries = {k: v for k, v in entries.items() if v}
        diffs.append(SparseIntMatrix(rows, dims[q], entries))
    return CochainComplex(dims, diffs)
