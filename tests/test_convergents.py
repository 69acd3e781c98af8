from itertools import islice
from math import gcd

import pytest

from triavg.convergents import Convergent, cf_sqrt3, numerators, z
from triavg.identities import run_all
from triavg.recurrences import sequence_prefix

# Locally stored prefix of A002531 (convergent numerators for sqrt(3)).
A002531_PREFIX = [1, 1, 2, 5, 7, 19, 26, 71, 97, 265, 362, 989, 1351, 3691]


def test_first_two_entries():
    assert [c.p for c in cf_sqrt3(2)] == [1, 1]


def test_first_six_entries():
    ladder = cf_sqrt3(6)
    assert [c.p for c in ladder] == [1, 1, 2, 5, 7, 19]
    assert [c.q for c in ladder] == [0, 1, 1, 3, 4, 11]


def test_eighth_numerator_is_u3():
    assert cf_sqrt3(8)[-1].p == 71


def test_ladder_indices_and_structure():
    ladder = cf_sqrt3(10)
    assert ladder[0] == Convergent(1, 0, 0)
    assert [c.idx for c in ladder] == list(range(10))


def test_cf_rejects_bad_count():
    with pytest.raises(ValueError):
        cf_sqrt3(0)


def test_numerators_match_stored_oeis_prefix():
    assert [c.p for c in cf_sqrt3(len(A002531_PREFIX))] == A002531_PREFIX
    assert list(islice(numerators(), len(A002531_PREFIX))) == A002531_PREFIX


def test_convergents_are_reduced():
    for c in cf_sqrt3(80):
        assert gcd(c.p, c.q) == 1


def test_pell_like_error_is_one_or_two():
    for c in cf_sqrt3(130):
        assert abs(c.p * c.p - 3 * c.q * c.q) in (1, 2)


def test_quality_bound_in_exact_integer_form():
    # |p/q - sqrt(3)| < 1/q^2 rewritten without irrationals:
    # (p*q - 1)^2 < 3*q^4 < (p*q + 1)^2 for q > 1.
    for c in cf_sqrt3(80):
        if c.q > 1:
            assert (c.p * c.q - 1) ** 2 < 3 * c.q**4 < (c.p * c.q + 1) ** 2


def test_z_examples():
    assert z(0) == 1
    assert z(1) == 1
    assert z(4) == 7
    assert [z(n) for n in range(10)] == [c.p for c in cf_sqrt3(10)]


def test_z_rejects_negative_index():
    with pytest.raises(ValueError):
        z(-1)


def test_even_index_law():
    L = sequence_prefix("L", 65)
    numerators = [c.p for c in cf_sqrt3(130)]
    for m in range(65):
        assert L[m] % 2 == 0
        assert numerators[2 * m] == L[m] // 2


def test_odd_step_recurrence():
    numerators = [c.p for c in cf_sqrt3(132)]
    for m in range(1, 65):
        assert numerators[2 * m + 1] == 2 * numerators[2 * m] + numerators[2 * m - 1]


def test_numerators_are_positive():
    assert all(c.p > 0 for c in cf_sqrt3(130))


def test_bisection_check():
    (report,) = run_all(64, ["bisection"])
    assert report.ok
    assert report.checked_range == (0, 64)
    # n=0: u_0 = 1 = z_1; n=1: u_1 = 5 = z_3; n=4: u_4 = 265 = z_9.
    assert z(1) == 1
    assert z(3) == 5
    assert z(9) == 265


def test_difference_identity_chain():
    (report,) = run_all(64, ["differences"])
    assert report.ok
    assert report.checked_range == (1, 64)
    # n=2: u_2 - u_1 = 14 = L_2 = 2*z_4 = z_5 - z_3.
    assert 19 - 5 == 14 == 2 * z(4) == z(5) - z(3)


def test_checks_reject_bad_range():
    with pytest.raises(ValueError):
        run_all(0, ["bisection"])
    with pytest.raises(ValueError):
        run_all(0, ["differences"])
