from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triavg.exactnum import ALPHA, BETA, ONE, SQRT3, ZERO, QuadElem, is_perfect_square
from triavg.recurrences import terms


def test_alpha_beta_sum_and_product():
    assert ALPHA + BETA == QuadElem(4, 0)
    assert ALPHA * BETA == ONE
    assert ALPHA - BETA == QuadElem(0, 2)


def test_conjugate_swaps_roots():
    assert ALPHA.conjugate() == BETA
    assert BETA.conjugate() == ALPHA
    assert ALPHA.conjugate() == QuadElem(2, -1)


def test_sum_of_squares_of_roots():
    assert ALPHA**2 + BETA**2 == QuadElem(14, 0)


def test_pow_basics():
    assert ALPHA**0 == ONE
    assert ALPHA**1 == ALPHA
    assert ALPHA**2 == QuadElem(7, 4)


# Norms 1, 1, 1, -2, 0 and 13/16: units, a negative norm, zero, a denominator.
POW_BASES = [ALPHA, BETA, -ALPHA, ONE + SQRT3, ZERO, QuadElem(Fraction(5, 4), Fraction(-1, 2))]


def norm(x):
    return x.a * x.a - 3 * x.b * x.b


def test_pow_matches_repeated_multiplication():
    for base in POW_BASES:
        acc = ONE
        for n in range(40):
            assert base**n == acc, (base, n)
            acc = acc * base


@pytest.mark.parametrize("base", POW_BASES, ids=str)
def test_pow_keeps_the_norm_multiplicative(base):
    for n in range(70):
        assert norm(base**n) == norm(base) ** n


def test_alpha_powers_match_iterated_l_and_f():
    # alpha^n = L_n/2 + F_n*sqrt(3), with L and F from their recurrences, at
    # exponents whose bit patterns are all ones, a lone one, and 1...01.
    exponents = {2**k + j for k in range(17) for j in (-1, 0, 1)}
    for n, l_n, f_n in zip(range(max(exponents) + 1), terms("L"), terms("F")):
        if n in exponents:
            power = ALPHA**n
            assert power == QuadElem(Fraction(l_n, 2), f_n)
            assert norm(power) == 1


@pytest.mark.parametrize("q", [0, 1, 3, -1, Fraction(-7, 4), Fraction(2, 9)], ids=str)
def test_rational_powers_match_fraction_powers(q):
    base = QuadElem(q, 0)
    for n in range(41):
        power = base**n
        assert (power.a, power.b) == (Fraction(q) ** n, 0), n


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ALPHA ** (-1)


def test_scalar_arithmetic():
    assert 2 * SQRT3 == QuadElem(0, 2)
    assert SQRT3 + 1 == QuadElem(1, 1)
    assert 1 - SQRT3 == QuadElem(1, -1)
    assert (ALPHA + BETA) / 2 == QuadElem(2, 0)
    assert ALPHA * Fraction(1, 2) == QuadElem(Fraction(1), Fraction(1, 2))


def test_division_by_quadelem_not_supported():
    with pytest.raises(TypeError):
        ALPHA / BETA  # noqa: B018


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        ALPHA * 0.5  # noqa: B018
    with pytest.raises(TypeError):
        QuadElem(0.5, 0)


def test_as_integer():
    assert QuadElem(7, 0).as_integer() == 7
    with pytest.raises(ArithmeticError):
        QuadElem(Fraction(1, 2), 0).as_integer()
    with pytest.raises(ArithmeticError):
        QuadElem(1, 1).as_integer()


def test_as_integer_errors_past_the_int_str_digit_cap():
    # The messages give bit lengths, since str() of a 5001-digit value
    # raises ValueError under Python's default cap.
    big = 10**5000 + 1
    with pytest.raises(ArithmeticError, match="bits"):
        QuadElem(big, big).as_integer()
    with pytest.raises(ArithmeticError, match="bits"):
        QuadElem(Fraction(big, 2), 0).as_integer()


quad_elems = st.builds(
    QuadElem,
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@given(quad_elems, quad_elems)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(quad_elems, quad_elems)
def test_conjugation_is_additive(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(quad_elems, quad_elems, quad_elems)
def test_ring_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(st.integers(min_value=0, max_value=128))
def test_alpha_beta_powers_are_inverse(n):
    assert (ALPHA**n) * (BETA**n) == ONE


@given(st.integers(min_value=0, max_value=512))
def test_beta_power_is_conjugate_of_alpha_power(n):
    assert BETA**n == (ALPHA**n).conjugate()


# A plain reference: the value a + b*sqrt(3) as the Fraction pair (a, b).
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
pairs = st.tuples(rationals, rationals)
nonzero_scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
).filter(lambda c: c != 0)


def as_pair(x):
    assert isinstance(x.a, Fraction) and isinstance(x.b, Fraction)
    return (x.a, x.b)


@given(pairs, pairs)
def test_ring_ops_match_fraction_pair_reference(p, q):
    (a, b), (c, d) = p, q
    x, y = QuadElem(a, b), QuadElem(c, d)
    assert as_pair(x) == (a, b)
    assert as_pair(x + y) == (a + c, b + d)
    assert as_pair(x - y) == (a - c, b - d)
    assert as_pair(-x) == (-a, -b)
    assert as_pair(x * y) == (a * c + 3 * b * d, a * d + b * c)
    assert as_pair(x.conjugate()) == (a, -b)


@given(pairs, nonzero_scalars)
def test_scaling_matches_fraction_pair_reference(p, c):
    a, b = p
    x = QuadElem(a, b)
    assert as_pair(x * c) == as_pair(c * x) == (a * c, b * c)
    assert as_pair(x / c) == (a / c, b / c)
    assert as_pair(x + c) == as_pair(c + x) == (a + c, b)
    assert as_pair(c - x) == (c - a, -b)


@given(pairs, st.integers(min_value=0, max_value=40))
def test_pow_matches_repeated_multiplication_with_denominators(p, n):
    x = QuadElem(*p)
    acc = ONE
    for _ in range(n):
        acc = acc * x
    assert x**n == acc


@given(pairs, nonzero_scalars)
def test_equal_values_have_equal_hashes(p, c):
    x = QuadElem(*p)
    y = (x * c + ALPHA) / c - ALPHA / c  # the same value by another route
    assert y == x
    assert hash(y) == hash(x)


@given(pairs, st.integers(min_value=1, max_value=60))
def test_zero_normalises_whatever_its_denominator(p, d):
    x = QuadElem(*p) / d
    for zero in (x - x, x * 0, x + -x):
        assert zero == ZERO
        assert hash(zero) == hash(ZERO)
        assert zero.a.denominator == 1


def test_scaling_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        ALPHA / 0  # noqa: B018


def test_is_perfect_square_examples():
    assert is_perfect_square(361) == 19  # 12*5^2 + 12*5 + 1
    assert is_perfect_square(360) is None
    assert is_perfect_square(0) == 0
    assert is_perfect_square(-4) is None


@given(st.integers(min_value=0, max_value=10**20))
def test_is_perfect_square_detects_squares(x):
    assert is_perfect_square(x * x) == x


@given(st.integers(min_value=0, max_value=10**20))
def test_is_perfect_square_root_is_exact(m):
    root = is_perfect_square(m)
    if root is not None:
        assert root * root == m


@given(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda c: c != 0),
)
def test_fraction_canonical_form(num, den, c):
    # Rationals must normalize: scaling numerator and denominator by any
    # nonzero c yields identical stored fields.
    base = Fraction(num, den)
    scaled = Fraction(c * num, c * den)
    assert (base.numerator, base.denominator) == (scaled.numerator, scaled.denominator)
    assert base.denominator > 0
