"""Continued-fraction convergents to sqrt(3) and the bisection law u_n = z_{2n+1}.

sqrt(3) = [1; 1, 2, 1, 2, ...]. The numerator sequence z is A002531, whose
offset puts the empty truncation 1/0 at index 0; the first actual fraction
1/1 sits at index 1. That alignment is forced by the anchors z_1 = u_0 = 1
and z_{2m} = L_m / 2, and it is what makes u a clean bisection: u_n equals
every other numerator, computed here by a recurrence that shares nothing
with the u recurrence. The ``bisection`` and ``differences`` suites in
``identities`` check both laws.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

CF_INITIAL = 1
CF_PERIOD = (1, 2)


def _cf_terms() -> Iterator[int]:
    yield CF_INITIAL
    while True:
        yield from CF_PERIOD


def _ladder(before: int, first: int) -> Iterator[int]:
    """x_0 = first, then x_i = t_i*x_{i-1} + x_{i-2} with x_{-1} = before, without end.

    Seeded (0, 1) it gives the convergent numerators, seeded (1, 0) the
    denominators. It runs on any number type closed under its step, as
    ``gen`` runs the numerators in Decimal.
    """
    prev, cur = before, first
    yield cur
    for t in _cf_terms():
        prev, cur = cur, t * cur + prev
        yield cur


def numerators() -> Iterator[int]:
    """z_0, z_1, z_2, ... (A002531), the convergent numerators, without end."""
    return _ladder(0, 1)


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
    pairs = zip(numerators(), _ladder(1, 0))
    return [Convergent(p, q, idx) for idx, (p, q) in enumerate(islice(pairs, count))]


def z(n: int) -> int:
    """The n-th convergent numerator (A002531, z_0 = z_1 = 1)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return next(islice(numerators(), n, None))
