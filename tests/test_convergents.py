from itertools import islice
from math import gcd

import pytest

from triavg.convergents import denominators, numerators
from triavg.identities import run_all
from triavg.recurrences import L_SPEC, sequence_prefix

# Locally stored prefix of A002531 (convergent numerators for sqrt(3)).
A002531_PREFIX = [1, 1, 2, 5, 7, 19, 26, 71, 97, 265, 362, 989, 1351, 3691]


def convergents(count):
    """The first count convergents (p, q) to sqrt(3), from 1/0 on."""
    return list(islice(zip(numerators(), denominators()), count))


def z_prefix(count):
    return list(islice(numerators(), count))


def test_first_two_entries():
    assert z_prefix(2) == [1, 1]


def test_first_six_entries():
    assert z_prefix(6) == [1, 1, 2, 5, 7, 19]
    assert list(islice(denominators(), 6)) == [0, 1, 1, 3, 4, 11]


def test_eighth_numerator_is_u3():
    assert z_prefix(8)[-1] == 71


def test_ladder_indices_and_structure():
    # The empty truncation 1/0 sits at index 0, the first fraction 1/1 at 1.
    assert convergents(3) == [(1, 0), (1, 1), (2, 1)]


def test_numerators_match_stored_oeis_prefix():
    assert z_prefix(len(A002531_PREFIX)) == A002531_PREFIX


def test_convergents_are_reduced():
    for p, q in convergents(80):
        assert gcd(p, q) == 1


def test_pell_like_error_is_one_or_two():
    for p, q in convergents(130):
        assert abs(p * p - 3 * q * q) in (1, 2)


def test_quality_bound_in_exact_integer_form():
    # |p/q - sqrt(3)| < 1/q^2 rewritten without irrationals:
    # (p*q - 1)^2 < 3*q^4 < (p*q + 1)^2 for q > 1.
    for p, q in convergents(80):
        if q > 1:
            assert (p * q - 1) ** 2 < 3 * q**4 < (p * q + 1) ** 2


def test_z_examples():
    z = z_prefix(5)
    assert z[0] == 1
    assert z[1] == 1
    assert z[4] == 7


def test_even_index_law():
    L = sequence_prefix(L_SPEC, 65)
    z = z_prefix(130)
    for m in range(65):
        assert L[m] % 2 == 0
        assert z[2 * m] == L[m] // 2


def test_odd_step_recurrence():
    z = z_prefix(132)
    for m in range(1, 65):
        assert z[2 * m + 1] == 2 * z[2 * m] + z[2 * m - 1]


def test_numerators_are_positive():
    assert all(p > 0 for p in z_prefix(130))


def test_bisection_check():
    (report,) = run_all(64, ["bisection"])
    assert report.ok
    assert report.checked_range == (0, 64)
    # n=0: u_0 = 1 = z_1; n=1: u_1 = 5 = z_3; n=4: u_4 = 265 = z_9.
    z = z_prefix(10)
    assert z[1] == 1
    assert z[3] == 5
    assert z[9] == 265


def test_difference_identity_chain():
    (report,) = run_all(64, ["differences"])
    assert report.ok
    assert report.checked_range == (1, 64)
    # n=2: u_2 - u_1 = 14 = L_2 = 2*z_4 = z_5 - z_3.
    z = z_prefix(6)
    assert 19 - 5 == 14 == 2 * z[4] == z[5] - z[3]


def test_checks_reject_bad_range():
    with pytest.raises(ValueError):
        run_all(0, ["bisection"])
    with pytest.raises(ValueError):
        run_all(0, ["differences"])
