"""Continued-fraction convergents to sqrt(3) and the bisection law u_n = z_{2n+1}.

sqrt(3) = [1; 1, 2, 1, 2, ...]. The numerator sequence z is A002531, whose
offset puts the empty truncation 1/0 at index 0; the first actual fraction
1/1 sits at index 1. That alignment is forced by the anchors z_1 = u_0 = 1
and z_{2m} = L_m / 2, and it is what makes u a clean bisection: u_n equals
every other numerator, computed here by a recurrence that shares nothing
with the u recurrence.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .identities import Failure, IdentityReport, _require_max_n
from .recurrences import sequence_prefix

CF_INITIAL = 1
CF_PERIOD = (1, 2)


def _cf_terms() -> Iterator[int]:
    yield CF_INITIAL
    while True:
        yield from CF_PERIOD


class Convergent(NamedTuple):
    """Numerator/denominator pair of one truncation of the sqrt(3) expansion."""

    p: int
    q: int
    idx: int


def cf_sqrt3(count: int) -> list[Convergent]:
    """First ``count`` entries of the convergent ladder for sqrt(3).

    Standard two-term recurrence p_i = t*p_{i-1} + p_{i-2} (same for q),
    seeded with 1/0 and 0/1. The 1/0 seed is kept as index 0 so numerators
    read 1, 1, 2, 5, 7, 19, 26, 71, ... (A002531).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    ladder = [Convergent(1, 0, 0)]
    p_prev, q_prev = 0, 1
    p, q = 1, 0
    terms = _cf_terms()
    while len(ladder) < count:
        t = next(terms)
        p, p_prev = t * p + p_prev, p
        q, q_prev = t * q + q_prev, q
        ladder.append(Convergent(p, q, len(ladder)))
    return ladder


def z(n: int) -> int:
    """The n-th convergent numerator (A002531, z_0 = z_1 = 1)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    p_prev, p = 0, 1
    terms = _cf_terms()
    for _ in range(n):
        t = next(terms)
        p, p_prev = t * p + p_prev, p
    return p


def check_bisection(max_n: int) -> IdentityReport:
    """u_n = z_{2n+1} for 0 <= n <= max_n.

    u comes from its recurrence, z from the continued-fraction ladder; the
    two computations are fully independent.
    """
    _require_max_n(max_n)
    u = sequence_prefix("u", max_n + 1)
    numerators = [c.p for c in cf_sqrt3(2 * max_n + 2)]
    failures: list[Failure] = []
    for n in range(max_n + 1):
        if u[n] != numerators[2 * n + 1]:
            failures.append((n, u[n], numerators[2 * n + 1]))
    return IdentityReport("bisection", (0, max_n), failures)


def check_difference_identities(max_n: int) -> IdentityReport:
    """u_n - u_{n-1} = L_n = 2*z_{2n} = z_{2n+1} - z_{2n-1} for 1 <= n <= max_n.

    Checked link by link along the chain, recording whichever adjacent pair
    disagrees.
    """
    _require_max_n(max_n)
    u = sequence_prefix("u", max_n + 1)
    L = sequence_prefix("L", max_n + 1)
    numerators = [c.p for c in cf_sqrt3(2 * max_n + 2)]
    failures: list[Failure] = []
    for n in range(1, max_n + 1):
        diff = u[n] - u[n - 1]
        if diff != L[n]:
            failures.append((n, diff, L[n]))
        if L[n] != 2 * numerators[2 * n]:
            failures.append((n, L[n], 2 * numerators[2 * n]))
        if 2 * numerators[2 * n] != numerators[2 * n + 1] - numerators[2 * n - 1]:
            failures.append(
                (n, 2 * numerators[2 * n], numerators[2 * n + 1] - numerators[2 * n - 1])
            )
    return IdentityReport("differences", (1, max_n), failures)
