import decimal
from decimal import Decimal
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triavg import recurrences
from triavg.exactnum import QuadElem
from triavg.recurrences import (
    A_SPEC,
    B_SPEC,
    F_SPEC,
    L_SPEC,
    NAMED_SPECS,
    U_SPEC,
    V_SPEC,
    RecurrenceSpec,
    eval_closed_form,
    eval_u,
    eval_v,
    eval_via_L,
    gf_coefficients,
    sequence_prefix,
    terms,
)
from triavg.triangular import witness

# Locally stored OEIS prefixes used as cross-checks (no network lookups).
A061278_PREFIX = [0, 1, 5, 20, 76, 285, 1065, 3976, 14840, 55385, 206701, 771420]
A001834_PREFIX = [1, 5, 19, 71, 265, 989, 3691, 13775, 51409, 191861, 716035, 2672279]
A001353_PREFIX = [0, 1, 4, 15, 56, 209, 780, 2911, 10864, 40545, 151316, 564719]


def test_named_spec_parameters():
    assert A_SPEC == RecurrenceSpec(1, 0, 1)
    assert B_SPEC == RecurrenceSpec(3, -1, 1)
    assert U_SPEC == RecurrenceSpec(0, 1, 5)
    assert V_SPEC == RecurrenceSpec(0, 3, 9)
    assert L_SPEC == RecurrenceSpec(0, 2, 4)
    assert F_SPEC == RecurrenceSpec(0, 0, 1)


def test_iterative_first_values():
    assert list(islice(terms(A_SPEC), 6)) == [0, 1, 5, 20, 76, 285]
    assert list(islice(terms(B_SPEC), 6)) == [-1, 1, 8, 34, 131, 493]
    assert next(terms(L_SPEC)) == 2
    assert next(islice(terms(U_SPEC), 2, None)) == 19


def test_terms_stream_the_prefix():
    for spec in [*NAMED_SPECS.values(), RecurrenceSpec(k=-7, w0=3, w1=-2)]:
        assert list(islice(terms(spec), 40)) == sequence_prefix(spec, 40)


def plain_terms(k, prev, cur, count):
    """The first count terms of w_n = 4*w_{n-1} - w_{n-2} + k, k added at every step."""
    out = []
    for _ in range(count):
        out.append(prev)
        prev, cur = cur, 4 * cur - prev + k
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(-(10**30), 10**30)),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
    st.integers(1, 80),
)
def test_terms_match_a_plain_loop_in_int_and_decimal(k, w0, w1, count):
    # terms leaves the + k out when k is 0; both step forms must give the
    # plain loop's terms, and in Decimal the same strings too.
    assert list(islice(terms(RecurrenceSpec(k, w0, w1)), count)) == plain_terms(k, w0, w1, count)
    with decimal.localcontext() as exact:
        exact.prec = decimal.MAX_PREC
        exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
        spec = RecurrenceSpec(*map(Decimal, (k, w0, w1)))
        got = list(islice(terms(spec), count))
        assert all(isinstance(term, Decimal) for term in got)
        assert list(map(str, got)) == list(map(str, plain_terms(*spec, count)))
        assert list(map(str, got)) == list(map(str, plain_terms(k, w0, w1, count)))


def test_closed_form_examples():
    assert eval_closed_form(A_SPEC, 4) == 76
    assert eval_closed_form(V_SPEC, 2) == 33
    for spec in NAMED_SPECS.values():
        assert eval_closed_form(spec, 0) == spec.w0


def test_via_L_examples():
    assert eval_via_L(A_SPEC, 1) == 1
    assert eval_via_L(A_SPEC, 3) == 20
    assert eval_via_L(B_SPEC, 4) == 131


def test_via_L_rejects_index_zero():
    with pytest.raises(ValueError):
        eval_via_L(A_SPEC, 0)


def test_gf_coefficients_examples():
    assert gf_coefficients(A_SPEC, 6) == [0, 1, 5, 20, 76, 285]
    assert gf_coefficients(L_SPEC, 3) == [2, 4, 14]
    assert gf_coefficients(RecurrenceSpec(0, 0, 0), 5) == [0, 0, 0, 0, 0]


def test_gf_coefficients_rejects_bad_count():
    with pytest.raises(ValueError):
        gf_coefficients(A_SPEC, 0)


def test_eval_u_examples():
    assert eval_u(0) == 1
    assert eval_u(1) == 5
    assert eval_u(3) == 71


def test_eval_v_examples():
    assert eval_v(0) == 3
    assert eval_v(1) == 9
    assert eval_v(2) == 33


def test_u_and_v_match_their_recurrences():
    u, v = sequence_prefix(U_SPEC, 64), sequence_prefix(V_SPEC, 64)
    for n in range(64):
        assert eval_u(n) == u[n]
        assert eval_v(n) == v[n]


def test_u_is_positive_and_strictly_increasing():
    u = sequence_prefix(U_SPEC, 65)
    assert u[0] > 0
    for earlier, later in zip(u, u[1:]):
        assert later > earlier > 0


def test_sequence_prefix_examples():
    assert sequence_prefix(F_SPEC, 6) == [0, 1, 4, 15, 56, 209]
    assert sequence_prefix(V_SPEC, 5) == [3, 9, 33, 123, 459]
    assert sequence_prefix(U_SPEC, 1) == [1]


def test_sequence_prefix_rejects_bad_count():
    with pytest.raises(ValueError):
        sequence_prefix(A_SPEC, 0)


def test_prefixes_against_stored_oeis_values():
    assert sequence_prefix(A_SPEC, len(A061278_PREFIX)) == A061278_PREFIX
    assert sequence_prefix(U_SPEC, len(A001834_PREFIX)) == A001834_PREFIX
    assert sequence_prefix(F_SPEC, len(A001353_PREFIX)) == A001353_PREFIX


@pytest.mark.parametrize("name,spec", sorted(NAMED_SPECS.items()))
def test_three_way_agreement(name, spec):
    """Iteration, closed form, and series extraction agree; the companion
    form joins from n = 1."""
    series = gf_coefficients(spec, 64)
    for n, direct in enumerate(islice(terms(spec), 64)):
        assert eval_closed_form(spec, n) == direct
        assert series[n] == direct
        if n >= 1:
            assert eval_via_L(spec, n) == direct


def test_lucas_identities_on_l_prefix():
    L = sequence_prefix(L_SPEC, 130)
    for n in range(64):
        assert L[n] * L[n] == L[2 * n] + 2
        assert L[n] * L[n + 1] == L[2 * n + 1] + 4


spec_ints = st.integers(min_value=-(2**32), max_value=2**32)


@given(st.builds(RecurrenceSpec, spec_ints, spec_ints, spec_ints))
@settings(max_examples=150)
def test_recurrence_holds_for_arbitrary_specs(spec):
    w = sequence_prefix(spec, 21)
    for n in range(2, 21):
        assert w[n] - 4 * w[n - 1] + w[n - 2] == spec.k


@given(
    st.builds(RecurrenceSpec, spec_ints, spec_ints, spec_ints),
    st.integers(min_value=0, max_value=24),
)
@settings(max_examples=150)
def test_closed_form_matches_iteration_for_arbitrary_specs(spec, n):
    # The sqrt(3) component cancelling exactly is part of the contract:
    # eval_closed_form raises if it does not.
    assert eval_closed_form(spec, n) == next(islice(terms(spec), n, None))


@given(
    st.builds(RecurrenceSpec, spec_ints, spec_ints, spec_ints),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=100)
def test_companion_form_matches_iteration_for_arbitrary_specs(spec, n):
    assert eval_via_L(spec, n) == next(islice(terms(spec), n, None))


@given(st.builds(RecurrenceSpec, spec_ints, spec_ints, spec_ints))
@settings(max_examples=100)
def test_series_extraction_matches_iteration_for_arbitrary_specs(spec):
    assert gf_coefficients(spec, 16) == sequence_prefix(spec, 16)


@given(
    st.builds(RecurrenceSpec, spec_ints, spec_ints, spec_ints),
    st.integers(min_value=0, max_value=2000),
)
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_iteration_deep(spec, n):
    assert eval_closed_form(spec, n) == next(islice(terms(spec), n, None))
    assert eval_u(n) == next(islice(terms(U_SPEC), n, None))
    assert eval_v(n) == next(islice(terms(V_SPEC), n, None))


def test_closed_form_rejects_a_weight_whose_sqrt3_part_does_not_cancel(monkeypatch):
    right = recurrences._closed_form_weights
    # Using alpha's weight for beta too leaves a sqrt(3) multiple of L_n.
    monkeypatch.setattr(recurrences, "_closed_form_weights", lambda spec: (right(spec)[0],) * 2)
    with pytest.raises(ArithmeticError, match="sqrt"):
        eval_closed_form(A_SPEC, 5)


def test_closed_form_rejects_weights_whose_rational_parts_differ(monkeypatch):
    # Weights 1 and 0 have no sqrt(3) parts, so only (xa - xb)*q = F_n is left
    # in the sqrt(3) component.
    monkeypatch.setattr(recurrences, "_closed_form_weights", lambda spec: ((1, 0), (0, 0)))
    with pytest.raises(ArithmeticError, match="sqrt"):
        eval_closed_form(A_SPEC, 5)


def test_closed_form_rejects_a_sum_that_is_not_a_multiple_of_12(monkeypatch):
    # Weights 1 and 1 cancel sqrt(3) but give L_1 - 6k = -2 for a.
    monkeypatch.setattr(recurrences, "_closed_form_weights", lambda spec: ((1, 0), (1, 0)))
    with pytest.raises(ArithmeticError, match="non-integer"):
        eval_closed_form(A_SPEC, 1)


def test_closed_form_guard_error_stays_arithmetic_past_the_int_str_digit_cap(monkeypatch):
    # At n = 8000 the uncancelled element has over 4300 digits, too many for
    # str() under Python's default cap; the message must not need them.
    monkeypatch.setattr(recurrences, "_closed_form_weights", lambda spec: ((2, 1), (2, 1)))
    with pytest.raises(ArithmeticError, match="bits"):
        eval_closed_form(A_SPEC, 8000)


@pytest.mark.parametrize(
    "evaluate",
    [lambda n: eval_closed_form(A_SPEC, n), eval_u, eval_v],
    ids=["eval_closed_form", "eval_u", "eval_v"],
)
def test_closed_forms_reject_a_negative_index(evaluate):
    with pytest.raises(ValueError, match="sequence index must be nonnegative"):
        evaluate(-1)


def test_the_power_of_alpha_is_the_only_ring_operation(monkeypatch):
    near_2_32 = RecurrenceSpec(2**32 - 5, -(2**32) + 3, 2**32 - 1)
    indices = (0, 1, 2, 64, 1000)
    specs = [*NAMED_SPECS.values(), near_2_32]
    expected = {spec: sequence_prefix(spec, max(indices) + 1) for spec in specs}
    b_terms, a_terms = sequence_prefix(B_SPEC, 13), sequence_prefix(A_SPEC, 13)

    def refuse(*args):
        raise AssertionError("a QuadElem operation other than the power ran")

    ring_operators = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")
    for name in (*ring_operators, "__truediv__", "conjugate", "as_integer"):
        monkeypatch.setattr(QuadElem, name, refuse)
    for spec in specs:
        for n in indices:
            assert eval_closed_form(spec, n) == expected[spec][n], (spec, n)
    for n in indices:
        assert eval_u(n) == expected[U_SPEC][n]
        assert eval_v(n) == expected[V_SPEC][n]
    for n in range(1, 13):
        found = witness(n)
        assert (found.s, found.r) == (b_terms[n], a_terms[n])
