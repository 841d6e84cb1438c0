"""Divided-power polynomial forms in the chart x_1..x_n, exact over Q.

A monomial is x_1^[a_1] ... x_n^[a_n] dx_T with divided powers x^[k] = x^k/k!
and square-free wedge factors; its weight is sum(a) + |T|.  Elements are
finite Fraction combinations of monomials.  Multiplication carries the
binomial coefficients of divided powers and the Koszul sign of the wedge
part; the differential sends x^[k] to x^[k-1] dx.

gamma_of_sum expands a divided power of a linear form (possibly with constant
term) through gamma^n(u+v) = sum gamma^i(u) gamma^{n-i}(v), using
gamma^i(c) = c^i/i! on constants; this is what face maps substituting
x -> p - sum(x) feed on.

The tensor-coalgebra oracle at the bottom builds T(V) with the shuffle
product and checks the divided-power model against symmetric invariants.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from padicforms.arith import binomial, valuation


class TruncationError(RuntimeError):
    """A product or expansion left the weight-truncated lattice."""


@dataclass(frozen=True)
class DividedMonomial:
    """x^[a] dx_T in n chart variables; dx indices are 1-based and sorted."""

    exponents: tuple
    dx: tuple = ()

    def __post_init__(self):
        if any(a < 0 for a in self.exponents):
            raise ValueError("negative divided-power exponent")
        if list(self.dx) != sorted(set(self.dx)):
            raise ValueError("dx factors must be sorted and square-free")
        if any(not 1 <= i <= len(self.exponents) for i in self.dx):
            raise ValueError("dx index out of range")

    @property
    def nvars(self):
        return len(self.exponents)

    @property
    def weight(self):
        return sum(self.exponents) + len(self.dx)

    @property
    def form_degree(self):
        return len(self.dx)

    def __str__(self):
        parts = []
        for i, a in enumerate(self.exponents, start=1):
            if a == 1:
                parts.append(f"x{i}")
            elif a > 1:
                parts.append(f"x{i}^[{a}]")
        parts.extend(f"dx{i}" for i in self.dx)
        return "*".join(parts) if parts else "1"


def one_monomial(nvars):
    return DividedMonomial((0,) * nvars, ())


class OmegaElement:
    """Finite Fraction combination of divided monomials (fixed chart size)."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for mon, c in coeffs.items():
                c = Fraction(c)
                if c:
                    if mon.nvars != nvars:
                        raise ValueError("mixed chart sizes")
                    self.coeffs[mon] = c

    @classmethod
    def monomial(cls, mon, c=1):
        return cls(mon.nvars, {mon: Fraction(c)})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def unit(cls, nvars):
        return cls(nvars, {one_monomial(nvars): Fraction(1)})

    def __eq__(self, other):
        return isinstance(other, OmegaElement) and self.nvars == other.nvars \
            and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].dx, kv[0].exponents)))

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return OmegaElement(self.nvars, out)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = Fraction(c)
        return OmegaElement(self.nvars, {m: v * c for m, v in self.coeffs.items()})

    def weight(self):
        return max((m.weight for m in self.coeffs), default=0)

    def form_degree(self):
        degs = {m.form_degree for m in self.coeffs}
        if len(degs) > 1:
            raise ValueError("inhomogeneous form degree")
        return degs.pop() if degs else 0

    def min_valuation(self, p):
        return min((valuation(c, p) for c in self.coeffs.values()), default=None)

    def multiply(self, other, max_weight=None):
        """Product with divided-power binomials and Koszul signs.

        max_weight, when given, raises TruncationError if any product monomial
        exceeds it (nothing is silently dropped).
        """
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if set(m1.dx) & set(m2.dx):
                    continue
                coeff = c1 * c2
                exps = []
                for a, b in zip(m1.exponents, m2.exponents):
                    exps.append(a + b)
                    if a and b:
                        coeff *= binomial(a + b, a)
                # Koszul sign: move each dx of m2 past the later dx of m1
                sign = 1
                for j in m2.dx:
                    sign *= (-1) ** sum(1 for i in m1.dx if i > j)
                mon = DividedMonomial(tuple(exps), tuple(sorted(m1.dx + m2.dx)))
                if max_weight is not None and mon.weight > max_weight:
                    raise TruncationError(
                        f"product weight {mon.weight} exceeds bound {max_weight}")
                out[mon] = out.get(mon, Fraction(0)) + sign * coeff
        return OmegaElement(self.nvars, out)

    def differential(self):
        """d(x^[k]) = x^[k-1] dx, extended by the Leibniz rule; weight preserved."""
        out = {}
        for mon, c in self.coeffs.items():
            for i in range(1, self.nvars + 1):
                a = mon.exponents[i - 1]
                if a == 0 or i in mon.dx:
                    continue
                exps = list(mon.exponents)
                exps[i - 1] -= 1
                sign = (-1) ** sum(1 for j in mon.dx if j < i)
                new = DividedMonomial(tuple(exps), tuple(sorted(mon.dx + (i,))))
                out[new] = out.get(new, Fraction(0)) + sign * c
        return OmegaElement(self.nvars, out)

    def substitute(self, var_images, dx_images, target_nvars):
        """Apply an algebra map determined on chart generators.

        var_images[i] is the LinearForm image of x_i, dx_images[i] the (linear,
        constant-free) image of dx_i as an OmegaElement of form degree <= 1.
        Divided powers of x_i expand through gamma_of_sum.
        """
        out = OmegaElement.zero(target_nvars)
        for mon, c in self.coeffs.items():
            term = OmegaElement.unit(target_nvars).scale(c)
            for i, a in enumerate(mon.exponents, start=1):
                if a:
                    term = term.multiply(gamma_power(var_images[i], a))
            for i in mon.dx:
                term = term.multiply(dx_images[i])
            out = out.add(term)
        return out


@dataclass(frozen=True)
class LinearForm:
    """constant + sum coeff_i x_i in a chart of nvars variables."""

    constant: Fraction
    coeffs: tuple

    @property
    def nvars(self):
        return len(self.coeffs)

    def differential(self):
        """Image under d as an OmegaElement: sum coeff_i dx_i."""
        out = {}
        for i, c in enumerate(self.coeffs, start=1):
            if c:
                exps = (0,) * self.nvars
                out[DividedMonomial(exps, (i,))] = Fraction(c)
        return OmegaElement(self.nvars, out)


def variable(i, nvars):
    coeffs = tuple(Fraction(1) if j == i else Fraction(0)
                   for j in range(1, nvars + 1))
    return LinearForm(Fraction(0), coeffs)


def p_minus_sum(indices, nvars, p):
    """p - sum_{i in indices} x_i."""
    coeffs = tuple(Fraction(-1) if j in indices else Fraction(0)
                   for j in range(1, nvars + 1))
    return LinearForm(Fraction(p), coeffs)


def gamma_power(form, k):
    """gamma^k of a linear form, fully expanded into divided monomials.

    gamma^k(c + sum c_i x_i) = sum over compositions k_0 + ... + k_n = k of
    (c^{k_0}/k_0!) * prod c_i^{k_i} x_i^[k_i]; the constant part uses honest
    division, so p-integrality of the result is a fact to check, not an input.
    """
    n = form.nvars
    if k == 0:
        return OmegaElement.unit(n)
    support = [i for i, c in enumerate(form.coeffs, start=1) if c]
    out = {}
    for split in _compositions(k, len(support) + 1):
        k0, rest = split[0], split[1:]
        if k0 and form.constant == 0:
            continue
        coeff = Fraction(1)
        if k0:
            coeff *= Fraction(form.constant) ** k0 / factorial(k0)
        exps = [0] * n
        for idx, ki in zip(support, rest):
            if ki:
                coeff *= Fraction(form.coeffs[idx - 1]) ** ki
                exps[idx - 1] = ki
        mon = DividedMonomial(tuple(exps), ())
        out[mon] = out.get(mon, Fraction(0)) + coeff
    return OmegaElement(n, out)


def gamma_of_sum(terms, k, nvars, prime=None):
    """Divided power of a linear combination of variables and constants.

    terms is a list of (index-or-None, scalar): index i means scalar * x_i,
    None means a constant summand (the session prime p, typically).
    """
    constant = Fraction(0)
    coeffs = [Fraction(0)] * nvars
    for idx, scalar in terms:
        if idx is None:
            constant += Fraction(scalar)
        else:
            coeffs[idx - 1] += Fraction(scalar)
    return gamma_power(LinearForm(constant, tuple(coeffs)), k)


def gamma_multiply(m1, m2, max_weight=None):
    """Product of two divided monomials as an OmegaElement."""
    return OmegaElement.monomial(m1).multiply(OmegaElement.monomial(m2),
                                              max_weight=max_weight)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# tensor coalgebra with shuffle product: the divided-power oracle
# ---------------------------------------------------------------------------

def shuffle_words(w1, w2, degrees):
    """Shuffle product of two basis words; returns dict word -> coefficient.

    degrees maps a letter to its cohomological degree.  The Koszul sign of one
    interleaving is (-1)^(sum of deg(l)*deg(r)) over crossing pairs: a left
    letter l and right letter r with r placed before l in the merged word.
    """
    p_len, q_len = len(w1), len(w2)
    out = {}
    for positions in itertools.combinations(range(p_len + q_len), q_len):
        merged = [None] * (p_len + q_len)
        for j, pos in enumerate(positions):
            merged[pos] = ("R", j)
        it = iter(range(p_len))
        left_slots = []
        for t in range(p_len + q_len):
            if merged[t] is None:
                idx = next(it)
                merged[t] = ("L", idx)
                left_slots.append(t)
        exp = 0
        for j, pos in enumerate(positions):
            for t, slot in enumerate(left_slots):
                if pos < slot:
                    exp += degrees[w2[j]] * degrees[w1[t]]
        word = tuple(w1[idx] if side == "L" else w2[idx]
                     for side, idx in merged)
        out[word] = out.get(word, 0) + (-1) ** exp
    return out


def word_symmetrization_matrix(words, degrees):
    """Rows of (sigma . w - w) over all transpositions, for invariant solving."""
    index = {w: t for t, w in enumerate(words)}
    rows = []
    length = len(words[0]) if words else 0
    for w in words:
        for s in range(length - 1):
            swapped = list(w)
            swapped[s], swapped[s + 1] = swapped[s + 1], swapped[s]
            sign = (-1) ** (degrees[w[s]] * degrees[w[s + 1]])
            row = [0] * len(words)
            row[index[tuple(swapped)]] += sign
            row[index[w]] -= 1
            if any(row):
                rows.append(row)
    return rows


def gamma_tensor_oracle(max_length, letter_degrees):
    """Check the x^[n] model against shuffle-invariant tensors.

    letter_degrees maps basis letters (of a free module of rank <= 2) to
    degrees.  For every word length up to max_length this computes the
    S_n-invariant submodule of T^n V and verifies that, for even-degree v,
    [v|...|v] spans it in the one-letter case with the binomial shuffle rule
    gamma^a * gamma^b = C(a+b, a) gamma^{a+b}, and that odd-degree letters
    square to zero.  Returns a report dict.
    """
    from padicforms.linalg import IntFactorization, SparseIntMatrix

    letters = sorted(letter_degrees)
    report = {"max_length": max_length, "letters": dict(letter_degrees),
              "invariant_ranks": {}, "expected_ranks": {},
              "binomial_checks": [], "odd_square_zero": None}
    for n in range(1, max_length + 1):
        words = sorted(itertools.product(letters, repeat=n))
        rows = word_symmetrization_matrix(words, letter_degrees)
        if rows:
            mat = SparseIntMatrix.from_rows(rows, len(words))
            inv = IntFactorization(mat).kernel()
        else:
            inv = [[1 if t == s else 0 for t in range(len(words))]
                   for s in range(len(words))]
        report["invariant_ranks"][n] = len(inv)
        # divided-power model: monomials prod gamma^{k_v}(v), sum k = n,
        # with k_v <= 1 whenever v has odd degree
        count = 0
        for ks in itertools.product(range(n + 1), repeat=len(letters)):
            if sum(ks) != n:
                continue
            if any(k > 1 for k, v in zip(ks, letters) if letter_degrees[v] % 2):
                continue
            count += 1
        report["expected_ranks"][n] = count
    # binomial rule for each even letter
    for v in letters:
        if letter_degrees[v] % 2:
            continue
        for a in range(1, max_length):
            for b in range(1, max_length - a + 1):
                w1 = (v,) * a
                w2 = (v,) * b
                prod = shuffle_words(w1, w2, letter_degrees)
                want = {(v,) * (a + b): binomial(a + b, a)}
                report["binomial_checks"].append(
                    {"letter": v, "a": a, "b": b, "ok": prod == want})
    # odd letters: [v|v] has no nonzero invariant part
    odd_ok = True
    for v in letters:
        if letter_degrees[v] % 2 == 0 or max_length < 2:
            continue
        prod = shuffle_words((v,), (v,), letter_degrees)
        if prod.get((v, v), 0) != 0:
            odd_ok = False
    report["odd_square_zero"] = odd_ok
    ok = odd_ok and all(c["ok"] for c in report["binomial_checks"]) and \
        report["invariant_ranks"] == report["expected_ranks"]
    report["ok"] = ok
    return report
