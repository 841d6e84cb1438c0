from fractions import Fraction

import pytest

from padicforms.divided import (
    DividedMonomial,
    LinearForm,
    OmegaElement,
    TruncationError,
    gamma_power,
    gamma_tensor_oracle,
    one_monomial,
    p_minus_sum,
    shuffle_words,
    variable,
)


def mono(exps, dx=()):
    return DividedMonomial(tuple(exps), tuple(dx))


def test_gamma_multiply_binomial_rule():
    # x^[1] x^[1] = 2 x^[2]
    got = OmegaElement.monomial(mono((1,))).multiply(
        OmegaElement.monomial(mono((1,))))
    assert got == OmegaElement(1, {mono((2,)): Fraction(2)})
    got = OmegaElement.monomial(mono((2, 0))).multiply(
        OmegaElement.monomial(mono((3, 0))))
    assert got == OmegaElement(2, {mono((5, 0)): Fraction(10)})


def test_gamma_multiply_unit():
    m = mono((1, 2), (1,))
    assert OmegaElement.monomial(one_monomial(2)).multiply(
        OmegaElement.monomial(m)) == OmegaElement.monomial(m)


def test_exterior_square_vanishes():
    d = mono((0,), (1,))
    assert OmegaElement.monomial(d).multiply(OmegaElement.monomial(d)).is_zero()


def test_koszul_sign_of_wedge():
    dx1 = mono((0, 0), (1,))
    dx2 = mono((0, 0), (2,))
    m12 = OmegaElement.monomial(dx1).multiply(OmegaElement.monomial(dx2))
    m21 = OmegaElement.monomial(dx2).multiply(OmegaElement.monomial(dx1))
    assert m12 == OmegaElement(2, {mono((0, 0), (1, 2)): Fraction(1)})
    assert m21 == OmegaElement(2, {mono((0, 0), (1, 2)): Fraction(-1)})


def test_truncation_error_reported():
    with pytest.raises(TruncationError):
        OmegaElement.monomial(mono((2,))).multiply(
            OmegaElement.monomial(mono((2,))), max_weight=3)


def test_gamma_of_sum_two_variables():
    # gamma^2(x_1 + x_2) = x_1^[2] + x_1 x_2 + x_2^[2]
    got = gamma_power(LinearForm(Fraction(0), (Fraction(1), Fraction(1))), 2)
    want = OmegaElement(2, {mono((2, 0)): 1, mono((1, 1)): 1, mono((0, 2)): 1})
    assert got == want


def test_gamma_of_sum_linear_is_identity():
    got = gamma_power(LinearForm(Fraction(0), (Fraction(3),)), 1)
    assert got == OmegaElement(1, {mono((1,)): Fraction(3)})


def test_gamma_of_sum_with_constant_p2():
    # gamma^2(p - x_1) at p = 2: 2 - 2 x_1 + x_1^[2]
    got = gamma_power(LinearForm(Fraction(2), (Fraction(-1),)), 2)
    want = OmegaElement(1, {mono((0,)): 2, mono((1,)): -2, mono((2,)): 1})
    assert got == want


def test_gamma_of_sum_additivity_property():
    # gamma^n(u + v) = sum gamma^i(u) gamma^{n-i}(v) for separate variables
    for n in range(1, 5):
        lhs = gamma_power(LinearForm(Fraction(0), (Fraction(1), Fraction(1))), n)
        rhs = OmegaElement.zero(2)
        for i in range(n + 1):
            left = gamma_power(variable(1, 2), i)
            right = gamma_power(variable(2, 2), n - i)
            rhs = rhs.add(left.multiply(right))
        assert lhs == rhs


def test_gamma_power_of_p_minus_sum_is_p_integral():
    for p in (2, 3):
        for n in (1, 2):
            for subset_size in range(1, n + 1):
                form = p_minus_sum(set(range(1, subset_size + 1)), n, p)
                for k in range(1, 7):
                    elem = gamma_power(form, k)
                    val = elem.min_valuation(p)
                    assert val is not None and val >= 0, (p, n, k)


def test_differential_on_divided_powers():
    # d(x^[2]) = x dx
    elem = OmegaElement.monomial(mono((2,)))
    assert elem.differential() == OmegaElement(1, {mono((1,), (1,)): 1})
    # d o d = 0 on a busy element
    busy = OmegaElement(2, {mono((2, 1)): Fraction(3, 5),
                            mono((1, 0), (2,)): Fraction(-1)})
    assert busy.differential().differential().is_zero()


def test_leibniz_rule_for_differential():
    import random
    rng = random.Random(3)
    for _ in range(40):
        m1 = mono((rng.randint(0, 2), rng.randint(0, 2)),
                  tuple(sorted(rng.sample([1, 2], rng.randint(0, 1)))))
        m2 = mono((rng.randint(0, 2), rng.randint(0, 2)),
                  tuple(sorted(rng.sample([1, 2], rng.randint(0, 1)))))
        e1, e2 = OmegaElement.monomial(m1), OmegaElement.monomial(m2)
        lhs = e1.multiply(e2).differential()
        sign = (-1) ** m1.form_degree
        rhs = e1.differential().multiply(e2).add(
            e1.multiply(e2.differential()).scale(sign))
        assert lhs == rhs, (m1, m2)


def test_substitution_degeneracy_form():
    # s_0 on the level-1 chart: x_1 -> x_1 + x_2, divided powers expand
    elem = OmegaElement.monomial(mono((2,)))
    images = {1: LinearForm(Fraction(0), (Fraction(1), Fraction(1)))}
    dx_images = {1: images[1].differential()}
    got = elem.substitute(images, dx_images, 2)
    want = OmegaElement(2, {mono((2, 0)): 1, mono((1, 1)): 1, mono((0, 2)): 1})
    assert got == want


# -- shuffle/tensor oracle ----------------------------------------------------

def test_shuffle_singletons_even():
    prod = shuffle_words(("v",), ("v",), {"v": 2})
    assert prod == {("v", "v"): 2}


def test_shuffle_singletons_odd():
    prod = shuffle_words(("v",), ("v",), {"v": 1})
    assert prod.get(("v", "v"), 0) == 0


def test_shuffle_binomial_3_choose_1():
    prod = shuffle_words(("v", "v"), ("v",), {"v": 2})
    assert prod == {("v", "v", "v"): 3}


def test_gamma_tensor_oracle_even_letter():
    report = gamma_tensor_oracle(4, {"v": 2})
    assert report["ok"]
    assert report["invariant_ranks"] == {1: 1, 2: 1, 3: 1, 4: 1}


def test_gamma_tensor_oracle_odd_letter():
    report = gamma_tensor_oracle(3, {"v": 1})
    assert report["ok"]
    assert report["invariant_ranks"][2] == 0


def test_gamma_tensor_oracle_rank_two():
    report = gamma_tensor_oracle(4, {"v": 2, "w": 2})
    assert report["ok"]
    assert report["invariant_ranks"] == {1: 2, 2: 3, 3: 4, 4: 5}
    mixed = gamma_tensor_oracle(4, {"v": 2, "w": 1})
    assert mixed["ok"]
    assert mixed["invariant_ranks"] == {1: 2, 2: 2, 3: 2, 4: 2}
