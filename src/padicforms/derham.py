"""p-adic polynomial differential forms on simplices and on spaces.

A level algebra at simplex level n is the weight-truncated lattice of divided
power forms in the chart x_1..x_n (x_0 = p - sum x_i eliminated).  The lattice
basis is the divided monomials themselves: the closure generators gamma^c of
p - sum_S x_i expand p-integrally into divided monomials (this is checked on
every build, not assumed), so they canonicalize away.

Forms on a space are section families: one level form per nondegenerate
simplex, compatible under faces, with faces landing on degenerate simplices
matched through level degeneracy operators.  Everything is solved exactly
over the local ring at p.
"""

import functools
import itertools
from fractions import Fraction
from math import factorial, lcm

from padicforms.arith import ConfigurationError, valuation
from padicforms.divided import (
    DividedMonomial,
    LinearForm,
    OmegaElement,
    TruncationError,
    gamma_power,
    one_monomial,
    p_minus_sum,
    variable,
)
from padicforms.linalg import (
    EchelonKernel,
    IntFactorization,
    PLocalFactorization,
    SparseIntMatrix,
    StructuralError,
    apply_rows,
    cohomology,
    columns_to_rows,
    combine_columns,
    compose_rows,
    denominator_rows,
    integer_rows,
    lattice_membership,
    mat_vec,
    p_local_cohomology,
    p_local_solve,
)

# ---------------------------------------------------------------------------
# level lattices
# ---------------------------------------------------------------------------

class OmegaLevel:
    """The weight-truncated form lattice at one simplex level."""

    def __init__(self, n, weight, prime):
        if n < 0:
            raise ValueError("level must be >= 0")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self.n = n
        self.weight = weight
        self.prime = prime
        self.basis = {}   # form degree -> list of DividedMonomial
        self.index = {}   # DividedMonomial -> position in its degree list
        for k in range(n + 1):
            mons = []
            for dx in itertools.combinations(range(1, n + 1), k):
                budget = weight - k
                for exps in _bounded_exponents(n, budget):
                    mons.append(DividedMonomial(exps, dx))
            mons.sort(key=lambda m: (m.dx, m.exponents))
            self.basis[k] = mons
            for pos, m in enumerate(mons):
                self.index[m] = pos
        self._verify_closure()

    def dims(self, k):
        return len(self.basis.get(k, []))

    def to_vector(self, element, k):
        """Coordinates of a degree-k element in the monomial basis.

        Raises TruncationError if a monomial exceeds the weight bound and
        StructuralError on a form-degree mismatch.
        """
        vec = [Fraction(0)] * self.dims(k)
        for mon, c in element.coeffs.items():
            if mon.form_degree != k:
                raise StructuralError("element is not homogeneous of the degree")
            if mon.weight > self.weight:
                raise TruncationError(f"monomial {mon} exceeds weight {self.weight}")
            vec[self.index[mon]] = c
        return vec

    def from_vector(self, vec, k):
        coeffs = {m: Fraction(c) for m, c in zip(self.basis.get(k, []), vec) if c}
        return OmegaElement(self.n, coeffs)

    def diff_columns(self, k):
        """d from degree k to degree k+1 as sparse columns: per basis vector,
        the (row, coefficient) pairs of its image in row order.  The
        coefficients are integers (as Fractions); weight is preserved."""
        return [sorted((self.index[m], c) for m, c in
                       OmegaElement.monomial(mon).differential().coeffs.items() if c)
                for mon in self.basis.get(k, [])]

    def diff_matrix(self, k):
        """Dense Fraction rows of d from degree k to degree k+1."""
        rows = [[Fraction(0)] * self.dims(k) for _ in range(self.dims(k + 1))]
        for j, col in enumerate(self.diff_columns(k)):
            for r, c in col:
                rows[r][j] = c
        return rows

    def _closure_generators(self):
        """The raw generating family: divided powers of the admissible forms.

        Every product of gamma powers of chart variables and of the forms
        p - sum_{i in S} x_i, decorated with dx monomials, within the weight
        bound.  The variable powers alone are the monomial basis; the rest is
        recorded (and verified) as p-locally redundant.
        """
        gens = []
        subsets = [s for r in range(1, self.n + 1)
                   for s in itertools.combinations(range(1, self.n + 1), r)]
        closures = {}   # subset -> [gamma^c(p - sum_S x_i) for c = 1..weight]
        for subset in subsets:
            form = p_minus_sum(set(subset), self.n, self.prime)
            closures[subset] = [gamma_power(form, c)
                                for c in range(1, self.weight + 1)]
        for k in range(self.n + 1):
            for dx in itertools.combinations(range(1, self.n + 1), k):
                budget = self.weight - k
                for exps in _bounded_exponents(self.n, budget):
                    base_weight = sum(exps) + k
                    mono = OmegaElement.monomial(DividedMonomial(exps, dx))
                    for subset in subsets:
                        for closure in closures[subset][:self.weight - base_weight]:
                            gens.append(mono.multiply(closure))
        return gens

    @property
    def closure_generators(self):
        """Rebuilt on each use; a level does not keep them."""
        return self._closure_generators()

    def _verify_closure(self):
        """Closure generators must expand p-integrally in divided monomials.

        This is exactly the statement that the closed-up lattice equals the
        plain divided-power span over the local ring at p: one inclusion is
        the present check, the other holds because the variable powers are
        themselves closure generators.
        """
        for g in self._closure_generators():
            val = g.min_valuation(self.prime)
            if val is not None and val < 0:
                raise StructuralError(
                    "closure generator escapes the divided-power lattice")

    def closure_comparison(self):
        """Report whether the closure span equals the naive divided-power span.

        Returned per (p, n, weight) as data: the monomial span contains every
        closure generator iff all coordinates are p-integral; the reverse
        containment is structural.  A level is only built once the check
        has passed, so the least valuation met is 0.
        """
        return {
            "prime": self.prime, "level": self.n, "weight": self.weight,
            "closure_equals_naive_span": True,
            "minimal_generator_valuation": 0,
        }


def _bounded_exponents(n, budget):
    if n == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _bounded_exponents(n - 1, budget - first):
            yield (first,) + rest


class OmegaLevels:
    """Simplicial family of weight-truncated form lattices, with caching.

    Levels and their face, degeneracy and d maps are built on first use and
    kept, the d maps as sparse columns (``diff_columns``); max_level is not
    needed for that and is ignored.  Face and degeneracy maps are kept only
    as integer rows over p-unit row denominators (``face_rows``,
    ``degen_rows``; see ``linalg.denominator_rows``), which
    ``linalg.apply_rows`` applies to a vector.  Callers share the matrices
    handed out (see ``omega_levels``) and must not mutate them.
    """

    def __init__(self, weight, prime, max_level=None):
        self.weight = weight
        self.prime = prime
        self._levels = {}
        self._maps = {}
        self._diffs = {}

    def level(self, n):
        if n not in self._levels:
            self._levels[n] = OmegaLevel(n, self.weight, self.prime)
        return self._levels[n]

    def dims(self, n, k):
        return self.level(n).dims(k)

    def coordinate_weights(self, n, k):
        """The weight of each degree-k basis vector at level n, in order."""
        return [mon.weight for mon in self.level(n).basis.get(k, [])]

    def diff_columns(self, n, k):
        """Level n's d from degree k as sparse columns (see
        ``OmegaLevel.diff_columns``); cached."""
        if (n, k) not in self._diffs:
            self._diffs[(n, k)] = self.level(n).diff_columns(k)
        return self._diffs[(n, k)]

    def multiply(self, n, k1, v1, k2, v2):
        lv = self.level(n)
        e1 = lv.from_vector(v1, k1)
        e2 = lv.from_vector(v2, k2)
        prod = e1.multiply(e2, max_weight=self.weight)
        return lv.to_vector(prod, k1 + k2)

    def _face_images(self, n, i):
        """Images of the chart generators under the i-th face map."""
        m = n - 1
        var_images = {}
        dx_images = {}
        for k in range(1, n + 1):
            if i == 0:
                if k == 1:
                    form = p_minus_sum(set(range(1, m + 1)), m, self.prime)
                else:
                    form = variable(k - 1, m)
            elif k < i:
                form = variable(k, m)
            elif k == i:
                form = LinearForm(Fraction(0), (Fraction(0),) * m)
            else:
                form = variable(k - 1, m)
            var_images[k] = form
            dx_images[k] = form.differential()
        return var_images, dx_images

    def _degen_images(self, n, i):
        m = n + 1
        var_images = {}
        dx_images = {}
        for k in range(1, n + 1):
            if k < i:
                form = variable(k, m)
            elif k == i:
                coeffs = [Fraction(0)] * m
                coeffs[i - 1] = Fraction(1)
                coeffs[i] = Fraction(1)
                form = LinearForm(Fraction(0), tuple(coeffs))
            else:
                form = variable(k + 1, m)
            var_images[k] = form
            dx_images[k] = form.differential()
        return var_images, dx_images

    def face_rows(self, n, i, k):
        """Rows of the i-th face map on degree-k forms, level n -> n-1."""
        return self._structure_rows(self._face_images, n, i, k, n - 1)

    def degen_rows(self, n, i, k):
        """Rows of the i-th degeneracy on degree-k forms, level n -> n+1."""
        return self._structure_rows(self._degen_images, n, i, k, n + 1)

    def _structure_rows(self, images, n, i, k, target_n):
        """Level-to-level map given by the chart images, as rows over
        denominators; cached."""
        key = (n, i, k, target_n)
        if key not in self._maps:
            lv, target = self.level(n), self.level(target_n)
            var_images, dx_images = images(n, i)
            cols = []
            for mon in lv.basis.get(k, []):
                img = OmegaElement.monomial(mon).substitute(
                    var_images, dx_images, target_n)
                vec = target.to_vector(img, k)
                if any(valuation(c, self.prime) < 0 for c in vec if c):
                    raise StructuralError("structure map escapes the target lattice")
                cols.append(vec)
            self._maps[key] = denominator_rows(cols, target.dims(k))
        return self._maps[key]

    def unit_vector(self, n):
        lv = self.level(n)
        vec = [Fraction(0)] * lv.dims(0)
        vec[lv.index[one_monomial(n)]] = Fraction(1)
        return vec


@functools.lru_cache(maxsize=16)
def omega_levels(weight, prime):
    """The process-wide level family at (weight, prime), built lazily; the
    least recently used of more than 16 families is dropped."""
    return OmegaLevels(weight, prime)


def build_omega(n, weight, prime):
    """The level-n lattice; desk-scale bounds n <= 3, weight <= 8."""
    if n > 3 or weight > 8:
        raise ConfigurationError("desk-scale bounds are n <= 3, weight <= 8")
    return omega_levels(weight, prime).level(n)


def omega_face(levels, n, i, element):
    """The i-th face of a level-n element, as an element of level n-1."""
    var_images, dx_images = levels._face_images(n, i)
    return element.substitute(var_images, dx_images, n - 1)


def omega_degeneracy(levels, n, i, element):
    var_images, dx_images = levels._degen_images(n, i)
    return element.substitute(var_images, dx_images, n + 1)


# ---------------------------------------------------------------------------
# sections: forms on a space
# ---------------------------------------------------------------------------

class SectionComplex:
    """Forms on a space at truncation: bases, differentials, products.

    For each degree k, ``sections[k]`` is a list of ambient coordinate columns
    (one block per nondegenerate simplex of the space), forming a basis of the
    compatible families over the local ring at p: the kernel of the face
    constraints, whose factorization ``_factors[k]`` (made without U) also
    reads coordinates.
    """

    def __init__(self, space, levels, q_max):
        self.space = space
        self.levels = levels
        self.prime = levels.prime
        self.q_max = q_max
        self.cells = [(s, d) for d in range(space.dimension + 1)
                      for s in space.simplices[d]]
        self.offsets = {}
        self._diffs = {}
        # one degree above q_max so the top cohomology sees its full kernel
        self._factors = {k: self._solve_degree(k) for k in range(q_max + 2)}
        self.sections = {k: fac.kernel() for k, fac in self._factors.items()}

    def cell_block(self, k):
        """Offsets of each cell's coordinate block in degree k."""
        if k not in self.offsets:
            offs = {}
            pos = 0
            for name, d in self.cells:
                offs[name] = (pos, self.levels.dims(d, k))
                pos += self.levels.dims(d, k)
            self.offsets[k] = (offs, pos)
        return self.offsets[k]

    def _word_rows(self, word, base_dim, k):
        """Rows of s_{j_1} ... s_{j_r} from level base_dim upwards."""
        rows = [(1, [(r, 1)]) for r in range(self.levels.dims(base_dim, k))]
        level = base_dim
        for j in reversed(word):
            rows = compose_rows(self.levels.degen_rows(level, j, k), rows)
            level += 1
        return rows

    def _solve_degree(self, k):
        """The factorization of the degree-k face constraints: one integer
        row per (cell, face, coordinate), face image minus the face cell's
        block, times the row's p-unit denominator."""
        offs, total = self.cell_block(k)
        constraint_rows = []
        for name, d in self.cells:
            if d == 0:
                continue
            off_s, _ = offs[name]
            for i in range(d + 1):
                img = self.space.faces[(name, i)]
                off_b, _ = offs[img.base]
                word = self._word_rows(
                    img.word, self.space.dim_of(img.base), k) if img.word else None
                for r, (den, entries) in enumerate(self.levels.face_rows(d, i, k)):
                    row = [0] * total
                    if word is None:
                        for j, x in entries:
                            row[off_s + j] = x
                        row[off_b + r] -= den
                    else:
                        wden, wentries = word[r]
                        common = lcm(den, wden)
                        f, g = common // den, common // wden
                        for j, x in entries:
                            row[off_s + j] = f * x
                        for j, x in wentries:
                            row[off_b + j] -= g * x
                    constraint_rows.append(row)
        return PLocalFactorization(constraint_rows, self.prime, total)

    def express(self, k, ambient_vec):
        """Coordinates of an ambient vector in the degree-k section basis."""
        sol = self._factors[k].kernel_coordinates(ambient_vec)
        if sol is None:
            raise StructuralError("vector is not a section of the expected degree")
        return sol

    def diff_in_sections(self, k):
        """The differential as a matrix from degree-k to degree-(k+1) sections.

        It acts on each cell's block by that cell's level matrix, applied
        column by column to the block's nonzero entries.
        """
        if k not in self._diffs:
            offs, _ = self.cell_block(k)
            offs_out, total_out = self.cell_block(k + 1)
            blocks = [(offs[name][0], offs_out[name][0],
                       self.levels.diff_columns(d, k))
                      for name, d in self.cells]
            cols = []
            for sec in self.sections.get(k, []):
                out = [0] * total_out
                for off, off_out, columns in blocks:
                    for j, entries in enumerate(columns):
                        x = sec[off + j]
                        if x:
                            for r, c in entries:
                                out[off_out + r] += c * x
                cols.append(self.express(k + 1, out))
            self._diffs[k] = columns_to_rows(cols, len(self.sections.get(k + 1, [])))
        return self._diffs[k]

    def multiply_sections(self, k1, v1, k2, v2):
        """Product of two sections given in section coordinates."""
        offs1, total1 = self.cell_block(k1)
        offs2, total2 = self.cell_block(k2)
        offs_out, total_out = self.cell_block(k1 + k2)
        amb1 = combine_columns(self.sections[k1], v1, total1)
        amb2 = combine_columns(self.sections[k2], v2, total2)
        out = [Fraction(0)] * total_out
        for name, d in self.cells:
            o1, w1 = offs1[name]
            o2, w2 = offs2[name]
            oo, wo = offs_out[name]
            out[oo:oo + wo] = self.levels.multiply(
                d, k1, amb1[o1:o1 + w1], k2, amb2[o2:o2 + w2])
        return self.express(k1 + k2, out)

    def cohomology(self, q):
        d_prev = self.diff_in_sections(q - 1) if q > 0 else \
            [[] for _ in self.sections.get(0, [])]
        d_cur = self.diff_in_sections(q)
        return p_local_cohomology(d_prev, d_cur, self.prime)

    def lower_weight_invariants(self):
        """(free rank, torsion) of H^q one weight lower, for q <= q_max.

        d keeps the weight, a face never raises it and a degeneracy keeps it,
        so the sections at weight W-1 are the sections here that vanish on
        the coordinates of weight W, and their complex is a subcomplex of
        this one.  A section basis is the identity on the free columns of its
        factorization, so K_q, the weight W-1 sections in section coordinates,
        is zero on the sections whose free column has weight W and is the
        kernel of the section basis's other weight-W rows on the rest.  With
        D_q the section differential, ker d_q is saturated and holds the
        image of d_(q-1), so H^q at W-1 has free rank
        |K_q| - rank(D_q K_q) - rank(D_(q-1) K_(q-1)), and its torsion is the
        non-unit part of the Smith diagonal of D_(q-1) K_(q-1).
        """
        top, p = self.levels.weight, self.prime
        ranks, diags, dims = {-1: 0}, {-1: []}, {}
        for q in range(self.q_max + 1):
            secs, free = self.sections[q], self._factors[q].free
            weights = [w for _, d in self.cells
                       for w in self.levels.coordinate_weights(d, q)]
            keep = [j for j, f in enumerate(free) if weights[f] < top]
            free_set = set(free)
            cut = [[secs[j][r] for j in keep] for r, w in enumerate(weights)
                   if w == top and r not in free_set]
            basis = PLocalFactorization(cut, p, len(keep)).kernel()
            dims[q] = len(basis)
            # D_q K_q over integers: rows and columns scaled by p-units
            cols = integer_rows(basis, p)
            image = []
            for row in integer_rows(self.diff_in_sections(q), p):
                sub = [(t, row[j]) for t, j in enumerate(keep) if row[j]]
                out = [sum(x * col[t] for t, x in sub) for col in cols]
                if any(out):
                    image.append(out)
            fac = PLocalFactorization(image, p, len(cols))
            ranks[q], diags[q] = fac.rank, fac.diag
        return {q: (dims[q] - ranks[q] - ranks[q - 1],
                    sorted(int(d) for d in diags[q - 1] if d and d != 1))
                for q in range(self.q_max + 1)}


def omega_of_space(space, weight, q_max, prime):
    """Compatible form families on a library space, at truncation."""
    return SectionComplex(space, omega_levels(weight, prime), q_max)


# ---------------------------------------------------------------------------
# cohomology of omega with stability flags
# ---------------------------------------------------------------------------

def stable_cohomology(space, levels, q_max):
    """The section complex of a level family, its reports, and per-degree
    flags.

    A degree is flagged stable when weight W-1 gives the same invariants,
    W being ``levels.weight``; they are read off the one complex
    (``SectionComplex.lower_weight_invariants``).  Weight 1 is compared with
    itself, so it reads stable.  Returns (complex, reports, stable).
    """
    cx = SectionComplex(space, levels, q_max)
    reports = {q: cx.cohomology(q) for q in range(q_max + 1)}
    if levels.weight == 1:
        lower = {q: rep.invariants() for q, rep in reports.items()}
    else:
        lower = cx.lower_weight_invariants()
    stable = {q: reports[q].invariants() == lower[q] for q in reports}
    return cx, reports, stable


def omega_cohomology(space, weight, q_max, prime):
    """Per-degree p-local reports with W vs W-1 stability flags and products.

    Returns a dict with reports, product table of generator classes, and a
    stability flag per degree (False when the W-1 answer differs).  A
    q-form has weight >= q, so W < q_max, where the flag cannot see the
    missing forms, is a ConfigurationError.
    """
    if weight < 2:
        raise ConfigurationError("stability needs weight >= 2")
    if weight < q_max:
        raise ConfigurationError(f"weight {weight} is below degree {q_max}: omega "
                                 f"forms of degree {q_max} need weight >= {q_max}")
    big, reports, stable = stable_cohomology(
        space, omega_levels(weight, prime), q_max)
    products = {}
    for q1 in range(q_max + 1):
        for q2 in range(q_max + 1 - q1):
            for i1, g1 in enumerate(reports[q1].generators):
                for i2, g2 in enumerate(reports[q2].generators):
                    try:
                        prod = big.multiply_sections(q1, g1, q2, g2)
                    except TruncationError:
                        products[(q1, i1, q2, i2)] = None
                        continue
                    products[(q1, i1, q2, i2)] = \
                        reports[q1 + q2].class_coordinates(prod)
    return {"space": space.name, "prime": prime, "weight": weight,
            "reports": reports, "products": products, "stable": stable,
            "complex": big}


def form_class_coordinates(result, q, element_per_cell):
    """Class coordinates of a form given per-cell OmegaElements."""
    cx = result["complex"]
    offs, total = cx.cell_block(q)
    vec = [Fraction(0)] * total
    for name, elem in element_per_cell.items():
        d = cx.space.dim_of(name)
        lv = cx.levels.level(d)
        block = lv.to_vector(elem, q)
        off, width = offs[name]
        for r in range(width):
            vec[off + r] = block[r]
    coords = cx.express(q, vec)
    return result["reports"][q].class_coordinates(coords)


# ---------------------------------------------------------------------------
# extendability of (1, p) over the boundary of the interval
# ---------------------------------------------------------------------------

def evaluate_at_point(element, point):
    """Evaluate a degree-0 element at a chart point (dx components die)."""
    total = Fraction(0)
    for mon, c in element.coeffs.items():
        if mon.dx:
            continue
        term = c
        for a, x in zip(mon.exponents, point):
            if a:
                term *= Fraction(x) ** a / factorial(a)
        total += term
    return total


def extendability_witness(weight, prime):
    """Infeasibility certificate for restricting to (1, p) on the two vertices.

    The degree-0 level-1 lattice evaluates at the vertices x_1 = 0 and
    x_1 = p; no p-integral combination hits (1, p), while the constant p
    (the control target (p, p)) trivially extends.
    """
    level = omega_levels(weight, prime).level(1)
    gens = []
    for mon in level.basis[0]:
        elem = OmegaElement.monomial(mon)
        gens.append([evaluate_at_point(elem, (0,)),
                     evaluate_at_point(elem, (prime,))])
    target = [Fraction(1), Fraction(prime)]
    coeffs, cert = lattice_membership(target, gens, prime, with_certificate=True)
    control = lattice_membership([Fraction(prime), Fraction(prime)], gens, prime)
    return {
        "weight": weight, "prime": prime,
        "extendable": coeffs is not None,
        "certificate": cert,
        "certificate_valid": cert.check(target, gens) if cert else None,
        "control_extendable": control is not None,
    }


# ---------------------------------------------------------------------------
# homotopy groups of the level modules (Dold-Kan ladder)
# ---------------------------------------------------------------------------

class LevelModule:
    """A simplicial module extracted from the levels: degree-k forms, or the
    degree-k cocycles, one free p-local module per level.  ``bases[n]`` is the
    kernel of d at level n (of no map for the forms), as level lattice
    columns, and ``factors[n]`` its factorization, which reads coordinates."""

    def __init__(self, levels, k, max_level, cocycles=False):
        self.levels = levels
        self.k = k
        self.prime = levels.prime
        self.factors = {}
        self.bases = {}
        self._face_cache = {}
        for n in range(max_level + 1):
            dmat = levels.level(n).diff_matrix(k) if cocycles else []
            self.factors[n] = PLocalFactorization(dmat, self.prime, levels.dims(n, k))
            self.bases[n] = self.factors[n].kernel()

    def dim(self, n):
        return len(self.bases[n])

    def face_matrix(self, n, i):
        if (n, i) not in self._face_cache:
            face = self.levels.face_rows(n, i, self.k)
            cols = [self.factors[n - 1].kernel_coordinates(apply_rows(face, b))
                    for b in self.bases[n]]
            if None in cols:
                raise StructuralError("image escaped the level submodule")
            self._face_cache[(n, i)] = columns_to_rows(cols, self.dim(n - 1))
        return self._face_cache[(n, i)]


def moore_complex(module, top_level):
    """Normalized (Moore) chains: N_m = intersection of ker d_i, i >= 1,
    with differential d_0.  Returns per-level factorizations of the stacked
    d_1..d_m, whose kernels are the bases of N_m, and differential matrices."""
    factors = {}
    for m in range(top_level + 1):
        stacked = []
        for i in range(1, m + 1):
            stacked.extend(module.face_matrix(m, i))
        factors[m] = PLocalFactorization(stacked, module.prime, module.dim(m))
    bases = {m: fac.kernel() for m, fac in factors.items()}
    diffs = {}
    for m in range(1, top_level + 1):
        face0 = module.face_matrix(m, 0)
        cols = []
        for b in bases[m]:
            sol = factors[m - 1].kernel_coordinates(mat_vec(face0, b))
            if sol is None:
                raise StructuralError("Moore differential escaped N")
            cols.append(sol)
        diffs[m] = columns_to_rows(cols, len(bases[m - 1]))
    return factors, diffs


def moore_homology(module, m, top_level):
    factors, diffs = moore_complex(module, top_level)
    d_in = diffs.get(m + 1, [[] for _ in factors[m].kernel()])
    d_out = diffs.get(m, [])
    return p_local_cohomology(d_in, d_out, module.prime), factors, diffs


def homotopy_groups_check(k, weight, prime):
    """pi_k of the degree-k forms and of their cocycles, at truncation.

    Checks pi_k(Omega^k) = Z/p generated by the image of
    dx_0 ^ ... ^ dx_{k-1} (which is (-1)^k dx_1 ... dx_k in the chart), and
    that pi_k of the cocycle module is free of rank 1 whose generator maps,
    through k connecting maps of the ladder, to an element of valuation k in
    pi_0(Z^0) = the constants.
    """
    if k > 2:
        raise ValueError("ladder checks are desk-scale: k <= 2")
    levels = omega_levels(weight, prime)
    report = {"k": k, "weight": weight, "prime": prime}

    module = LevelModule(levels, k, k + 1)
    homology, factors, _ = moore_homology(module, k, k + 1)
    report["pi_k_omega"] = homology.invariants()
    report["pi_k_omega_is_z_mod_p"] = homology.invariants() == (0, [prime])
    if k >= 1:
        gen = DividedMonomial((0,) * k, tuple(range(1, k + 1)))
        lv = levels.level(k)
        amb = lv.to_vector(OmegaElement.monomial(gen, (-1) ** k), k)
        coords = factors[k].kernel_coordinates(amb)
        report["stated_generator_in_moore"] = coords is not None
        if coords is not None:
            cls = homology.class_coordinates(coords)
            zero = homology.class_coordinates([Fraction(0)] * len(coords))
            report["stated_generator_generates"] = (
                cls != zero and _generates_cyclic(homology, coords, prime))
    else:
        unit = levels.unit_vector(0)
        coords = unit
        cls = homology.class_coordinates(coords)
        report["stated_generator_generates"] = cls != \
            homology.class_coordinates([Fraction(0)] * len(coords))

    zmod = LevelModule(levels, k, k + 1, cocycles=True)
    zh, _, _ = moore_homology(zmod, k, k + 1)
    report["pi_k_cocycles"] = zh.invariants()
    # the free part is the ladder's p^k Zhat_p; extra torsion (when present)
    # is the same truncated-lattice defect that breaks the degree-0 fills
    report["pi_k_cocycles_free_rank_1"] = zh.free_rank == 1
    if zh.free_rank == 1:
        # generators are listed torsion first, free last
        gen_coords = zh.generators[-1]
        val = _connecting_valuation(levels, zmod, gen_coords, k)
        report["generator_valuation"] = val
        report["valuation_equals_k"] = (val == k)
    else:
        report["generator_valuation"] = None
        report["valuation_equals_k"] = False
    report["cocycles_match_shifted_module"] = zh.invariants() == (1, [])
    return report


def _generates_cyclic(homology, coords, prime):
    """In a cyclic p-group, an element generates iff (order/p) times it is nonzero."""
    if homology.free_rank or len(homology.torsion) != 1:
        return False
    order = homology.torsion[0]
    scaled = [c * (order // prime) for c in coords]
    zero = homology.class_coordinates([Fraction(0)] * len(coords))
    return homology.class_coordinates(scaled) != zero


def _connecting_valuation(levels, zmod, gen_coords, k):
    """Iterate the ladder connecting maps down to the constants and read v_p.

    One step: a Moore k-cycle of the degree-j cocycle module lifts through d
    to a degree-(j-1) form at level k (the level Poincare lemma at truncation),
    is normalized into the Moore complex by stripping degeneracies, and its
    0-th face is a Moore (k-1)-cycle of the degree-(j-1) cocycle module.
    """
    prime = levels.prime
    # ambient vector of the generator inside level-k degree-k cocycles
    vec = combine_columns(zmod.bases[k], gen_coords, levels.dims(k, k))
    level_idx = k
    for j in range(k, 0, -1):
        dmat = levels.level(level_idx).diff_matrix(j - 1)
        lift = p_local_solve(dmat, vec, prime)
        if lift is None:
            raise StructuralError("level surjectivity of d failed at truncation")
        # push the lift into the Moore complex: strip s_{i-1} d_i parts
        for i in range(level_idx, 0, -1):
            face = apply_rows(levels.face_rows(level_idx, i, j - 1), lift)
            degen = apply_rows(levels.degen_rows(level_idx - 1, i - 1, j - 1), face)
            lift = [a - b for a, b in zip(lift, degen)]
        for i in range(1, level_idx + 1):
            img = apply_rows(levels.face_rows(level_idx, i, j - 1), lift)
            if any(img):
                raise StructuralError("Moore normalization failed")
        vec = apply_rows(levels.face_rows(level_idx, 0, j - 1), lift)
        level_idx -= 1
    # vec is now a degree-0 cocycle at level level_idx: a constant multiple of 1
    lv = levels.level(level_idx)
    unit_idx = lv.index[one_monomial(level_idx)]
    coeff = vec[unit_idx]
    for r, c in enumerate(vec):
        if r != unit_idx and c:
            raise StructuralError("connecting image is not a constant")
    return valuation(coeff, prime)


# ---------------------------------------------------------------------------
# Sym(t, dt) over F_p at truncation, and the rational contraction
# ---------------------------------------------------------------------------

class PolynomialForms:
    """Truncated Sym(t_1..t_n, dt_1..dt_n): honest powers, d(t^k) = k t^{k-1} dt."""

    def __init__(self, n, weight):
        self.n = n
        self.weight = weight
        self.basis = {}
        self.index = {}
        for k in range(n + 1):
            mons = []
            for dt in itertools.combinations(range(1, n + 1), k):
                for exps in _bounded_exponents(n, weight - k):
                    mons.append((exps, dt))
            mons.sort()
            self.basis[k] = mons
            for pos, m in enumerate(mons):
                self.index[m] = pos

    def dims(self, k):
        return len(self.basis.get(k, []))

    def diff_rows(self, k):
        rows = [[0] * self.dims(k) for _ in range(self.dims(k + 1))]
        for j, (exps, dt) in enumerate(self.basis[k]):
            for i in range(1, self.n + 1):
                a = exps[i - 1]
                if a == 0 or i in dt:
                    continue
                new_exps = list(exps)
                new_exps[i - 1] -= 1
                sign = (-1) ** sum(1 for t in dt if t < i)
                mon = (tuple(new_exps), tuple(sorted(dt + (i,))))
                rows[self.index[mon]][j] += sign * a
        return rows


def apl_mod_p(n, prime, weight):
    """Cohomology of the truncated mod-p polynomial forms on the n-simplex.

    Returns per-degree F_p dimensions, the cocycle monomials in degree <= 1
    for n = 1 (for comparison against the even-power description), and the
    class count for n = 2 against the tuple rule.
    """
    if n > 2:
        raise ValueError("desk-scale bound n <= 2")
    forms = PolynomialForms(n, weight)
    out = {"n": n, "prime": prime, "weight": weight, "dims": {}, "reports": {}}
    for k in range(n + 1):
        d_prev = SparseIntMatrix.from_rows(forms.diff_rows(k - 1), forms.dims(k - 1)) \
            if k else SparseIntMatrix.zero(forms.dims(0), 0)
        d_cur = SparseIntMatrix.from_rows(forms.diff_rows(k), forms.dims(k)) \
            if k <= n else SparseIntMatrix.zero(0, forms.dims(k))
        if k > n:
            continue
        rep = cohomology(d_prev, d_cur, ("GF", prime))
        out["dims"][k] = rep.free_rank
        out["reports"][k] = rep
    out["basis"] = forms.basis
    out["forms"] = forms
    return out


def apl_cocycle_monomials(n, prime, weight):
    """Monomials spanning the mod-p cocycles, per degree (exact, by kernel)."""
    forms = PolynomialForms(n, weight)
    result = {}
    for k in range(n + 1):
        rows = forms.diff_rows(k)
        ker = EchelonKernel(SparseIntMatrix.from_rows(rows, forms.dims(k)), prime).kernel()
        result[k] = (forms.basis[k], ker)
    return result


def rational_poincare_dims(n, weight):
    """Reduced cohomology dimensions of the truncated forms over Q (control)."""
    forms = PolynomialForms(n, weight)
    dims = []
    for k in range(n + 1):
        d_prev = forms.diff_rows(k - 1) if k else []
        d_cur = forms.diff_rows(k) if k <= n else []
        rk_prev = IntFactorization(SparseIntMatrix.from_rows(d_prev)).rank
        rk_cur = IntFactorization(SparseIntMatrix.from_rows(d_cur)).rank
        dims.append(forms.dims(k) - rk_cur - rk_prev)
    dims[0] -= 1  # reduced: remove the constants
    return dims


def contraction_K(coeffs):
    """The interval contraction on rational 1-forms: t^n dt -> t^{n+1}/(n+1).

    coeffs maps n to the coefficient of t^n dt; returns a map m -> coefficient
    of t^m of the primitive.
    """
    out = {}
    for n, c in coeffs.items():
        out[n + 1] = out.get(n + 1, Fraction(0)) + Fraction(c) / (n + 1)
    return {k: v for k, v in out.items() if v}


def contraction_homotopy_defect(poly):
    """(dK + Kd)(f) - (f - f(0)) for a rational polynomial f ({deg: coeff}).

    Zero for every polynomial: this is the homotopy identity of the
    contraction on the interval.
    """
    poly = {k: Fraction(v) for k, v in poly.items() if v}
    # d f = sum k c_k t^{k-1} dt;  K(d f) = sum c_k t^k - (k = 0 term)
    kd = {}
    for k, c in poly.items():
        if k >= 1:
            kd[k] = kd.get(k, Fraction(0)) + c
    # f is a 0-form: K f = 0, so dK f = 0
    want = dict(poly)
    want.pop(0, None)
    defect = {}
    for k in set(kd) | set(want):
        v = kd.get(k, Fraction(0)) - want.get(k, Fraction(0))
        if v:
            defect[k] = v
    return defect
