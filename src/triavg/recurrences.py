"""Linear recurrence toolkit for the family w_n = 4*w_{n-1} - w_{n-2} + k.

A spec (k, w0, w1) pins down one sequence. The functions here take specs;
only ``cli`` reads letters. The named instances, in NAMED_SPECS:

    a = w(1,  0, 1)   triangular indices of the integral averages (A061278)
    b = w(3, -1, 1)   prefix lengths whose triangular average is triangular
    u = w(0,  1, 5)   square roots of 1 + 12*a_n + 12*a_n^2 (A001834)
    v = w(0,  3, 9)   3 + 6*a_n, companion of u
    L = w(0,  2, 4)   alpha^n + beta^n, the Lucas-like companion
    F = w(0,  0, 1)   kernel of the homogeneous family (A001353)

Every sequence can be evaluated four independent ways: direct iteration
(``terms``, whose n-th term is ``next(islice(terms(spec), n, None))``), the
closed form over Z[sqrt(3)], the L-companion form, and coefficient
extraction from the generating function. The paths share no arithmetic,
so their agreement is strong evidence of correctness. ``eval_u`` and
``eval_v`` are the closed form at U_SPEC and V_SPEC, not a fifth way, and
``sequence_prefix`` is a slice of ``terms``. Only the test suite compares
the four: the ``verify`` CLI command streams the iteration (``terms``) and
the continued-fraction ladder, and none of the other three. Outside the
tests the closed form serves ``triangular.witness`` alone, which weighs one
power of alpha for both b_n and a_n; ``solve`` takes the b_n that decide
where it stops from ``terms``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .exactnum import ALPHA, QuadElem, _make


class RecurrenceSpec(NamedTuple):
    """Parameters of w_n = 4*w_{n-1} - w_{n-2} + k with w_0, w_1 given."""

    k: int
    w0: int
    w1: int


A_SPEC = RecurrenceSpec(k=1, w0=0, w1=1)
B_SPEC = RecurrenceSpec(k=3, w0=-1, w1=1)
U_SPEC = RecurrenceSpec(k=0, w0=1, w1=5)
V_SPEC = RecurrenceSpec(k=0, w0=3, w1=9)
L_SPEC = RecurrenceSpec(k=0, w0=2, w1=4)
F_SPEC = RecurrenceSpec(k=0, w0=0, w1=1)

NAMED_SPECS: dict[str, RecurrenceSpec] = {
    "a": A_SPEC,
    "b": B_SPEC,
    "u": U_SPEC,
    "v": V_SPEC,
    "L": L_SPEC,
    "F": F_SPEC,
}

def terms(spec: RecurrenceSpec) -> Iterator[int]:
    """w_0, w_1, w_2, ... of the sequence of spec, by iteration, without end.

    It runs on any number type closed under its step, as ``gen`` runs a spec
    whose seeds are Decimal. When k is zero, as for u, v, L and F, the step
    leaves out the + k.
    """
    k, prev, cur = spec
    yield prev
    if k:
        while True:
            yield cur
            prev, cur = cur, 4 * cur - prev + k
    while True:
        yield cur
        prev, cur = cur, 4 * cur - prev


def _divide_exactly(numerator: int, divisor: int, form: str, n: int) -> int:
    """numerator // divisor, raising ArithmeticError unless it divides exactly."""
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(
            f"{form} gave a non-integer at n={n}: remainder {remainder} mod {divisor}"
        )
    return quotient


def _closed_form_weights(spec: RecurrenceSpec) -> tuple[tuple[int, int], tuple[int, int]]:
    """12*c_a and 12*c_b, the weights of alpha^n and beta^n, as int pairs.

    A pair (x, y) stands for x + y*sqrt(3); no QuadElem is built.
    12*c_a = s*alpha + t*beta + (k - 2r) and 12*c_b = s*beta + t*alpha + (k - 2r),
    with t = k + 4r - s; expanding alpha = 2 + sqrt(3) and beta = 2 - sqrt(3)
    gives the integer components below. Each is built from the spec on its
    own, not as the other's conjugate, so a wrong weight shows as a sqrt(3)
    component that fails to cancel.
    """
    k, r, s = spec
    return (3 * k + 6 * r, 2 * s - k - 4 * r), (3 * k + 6 * r, k + 4 * r - 2 * s)


def eval_closed_form(spec: RecurrenceSpec, n: int) -> int:
    """w_n = -k/2 + c_a*alpha^n + c_b*beta^n, evaluated exactly.

    12*w_n = -6k + 12*c_a*alpha^n + 12*c_b*beta^n has integer weights, and
    beta^n is the conjugate of alpha^n, conjugation being a ring
    automorphism. So one power of alpha in Z[sqrt(3)] is the only ring
    operation; ``_closed_form_at`` does the rest on plain ints. Raises
    ValueError for n < 0, and ArithmeticError when the sqrt(3) component
    fails to cancel or the sum is not a multiple of 12.
    """
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
    return _closed_form_at(spec, ALPHA**n, n)


def _closed_form_at(spec: RecurrenceSpec, power: QuadElem, n: int) -> int:
    """w_n for spec from a given power = alpha^n, with eval_closed_form's checks.

    With power = p + q*sqrt(3) and weights (xa, ya), (xb, yb), the sum
    (xa + ya*sqrt(3))*power + (xb + yb*sqrt(3))*conj(power) is four
    small-by-big products on p and q. Its sqrt(3) component must be 0 and
    its rational one, less 6k, a multiple of 12; either failure raises
    ArithmeticError, as it would mean a bug, not bad input. Split out so
    that ``triangular.witness`` can weigh one power for both b_n and a_n.
    """
    (xa, ya), (xb, yb) = _closed_form_weights(spec)
    p, q = power._a, power._b
    rational = (xa + xb) * p + 3 * (ya - yb) * q
    irrational = (ya + yb) * p + (xa - xb) * q
    if irrational:
        summary = _make(rational, irrational).size_summary()
        raise ArithmeticError(f"closed form at n={n}: sqrt(3) component did not cancel: {summary}")
    return _divide_exactly(rational - 6 * spec.k, 12, "closed form", n)


def eval_via_L(spec: RecurrenceSpec, n: int) -> int:
    """w_n = -k/2 + (4s+k-2r)/12 * L_n + (k+4r-2s)/12 * L_{n-1}, n >= 1."""
    if n < 1:
        raise ValueError("the companion form references L_{n-1}, so n >= 1 is required")
    k, r, s = spec
    lucas = islice(terms(L_SPEC), n - 1, None)
    l_prev, l_n = next(lucas), next(lucas)
    twelve_w = -6 * k + (4 * s + k - 2 * r) * l_n + (k + 4 * r - 2 * s) * l_prev
    return _divide_exactly(twelve_w, 12, "companion form", n)


def gf_coefficients(spec: RecurrenceSpec, count: int) -> list[int]:
    """First ``count`` series coefficients of the generating function.

    g(x) = (w0 + (w1 - 5*w0)*x + (k + 4*w0 - w1)*x^2) / ((1 - x)(1 - 4x + x^2)).

    Long division by the expanded denominator 1 - 5x + 5x^2 - x^3 yields
    c_n = num_n + 5*c_{n-1} - 5*c_{n-2} + c_{n-3}, a three-term path that is
    independent of the defining two-term recurrence.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    numerator = (spec.w0, spec.w1 - 5 * spec.w0, spec.k + 4 * spec.w0 - spec.w1)
    coeffs: list[int] = []
    for n in range(count):
        c = numerator[n] if n < 3 else 0
        if n >= 1:
            c += 5 * coeffs[n - 1]
        if n >= 2:
            c -= 5 * coeffs[n - 2]
        if n >= 3:
            c += coeffs[n - 3]
        coeffs.append(c)
    return coeffs


def eval_u(n: int) -> int:
    """u_n, the family closed form at U_SPEC: eval_closed_form(U_SPEC, n)."""
    return eval_closed_form(U_SPEC, n)


def eval_v(n: int) -> int:
    """v_n, the family closed form at V_SPEC: eval_closed_form(V_SPEC, n)."""
    return eval_closed_form(V_SPEC, n)


def sequence_prefix(spec: RecurrenceSpec, count: int) -> list[int]:
    """[w_0, ..., w_{count-1}] of the sequence of spec: the first count items of ``terms``."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return list(islice(terms(spec), count))
