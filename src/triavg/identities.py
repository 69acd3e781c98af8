"""Instance verification of the identities and congruences linking the sequences.

One pass over n runs every selected suite on a window of terms at that n.
Each sequence comes from its own generator, so no prefix is held: a, b, u,
v and F from their recurrences, L from two runs of its recurrence (one at
n, one at 2n), and z from the continued-fraction ladder, which shares
nothing with u. Each check evaluates both sides of an identity from
independently computed sequences (never the same value against itself),
and mismatches are reported instead of raised, so a report is useful for
diffing when something breaks.
"""

from __future__ import annotations

from itertools import chain, islice, pairwise
from typing import Callable, Iterable, Iterator, NamedTuple

from .convergents import numerators
from .recurrences import terms

Failure = tuple[int, int, int]  # (n, lhs, rhs)
Pairs = list[tuple[int, int]]  # (lhs, rhs) of each comparison at one n


class IdentityReport(NamedTuple):
    """Outcome of checking one identity family over an index range."""

    name: str
    checked_range: tuple[int, int]
    failures: list[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


class Window(NamedTuple):
    """The terms the suites read at index n; the *_prev terms are None at n = 0."""

    n: int
    a: int
    b: int
    u: int
    u_prev: int | None  # u_{n-1}
    v: int
    v_prev: int | None  # v_{n-1}
    F: int
    L: int
    L_next: int  # L_{n+1}
    L_even: int  # L_{2n}
    L_odd: int  # L_{2n+1}
    z_prev: int | None  # z_{2n-1}
    z_even: int  # z_{2n}
    z_odd: int  # z_{2n+1}


def _windows() -> Iterator[Window]:
    """The windows at n = 0, 1, 2, ...; every stream moves on once per window."""
    L_twice, z = terms("L"), numerators()
    z_odd = None  # z_{-1}, which no suite reads
    streams = zip(
        terms("a"),
        terms("b"),
        pairwise(chain([None], terms("u"))),
        pairwise(chain([None], terms("v"))),
        terms("F"),
        pairwise(terms("L")),
        zip(L_twice, L_twice),
    )
    for n, (a, b, (u_prev, u), (v_prev, v), F, (L, L_next), (L_even, L_odd)) in enumerate(streams):
        z_prev, z_even, z_odd = z_odd, next(z), next(z)
        yield Window(n, a, b, u, u_prev, v, v_prev, F, L, L_next, L_even, L_odd, z_prev, z_even, z_odd)


def _lucas(w: Window) -> Pairs:
    """L_n^2 = L_{2n} + 2 and L_n * L_{n+1} = L_{2n+1} + 4."""
    return [(w.L * w.L, w.L_even + 2), (w.L * w.L_next, w.L_odd + 4)]


def _discriminant(w: Window) -> Pairs:
    """1 + 12*a_n + 12*a_n^2 = L_{2n+1}/2 - 1 = u_n^2.

    L_{2n+1} must be even before halving; an odd value is recorded as a
    failure (remainder against 0), not a crash.
    """
    half, odd = divmod(w.L_odd, 2)
    if odd:
        return [(odd, 0)]
    disc = 1 + 12 * w.a + 12 * w.a * w.a
    return [(disc, half - 1), (disc, w.u * w.u)]


def _congruences(w: Window) -> Pairs:
    """u_n odd, L_{2n+1} divisible by 4, v_n = 3 (mod 6)."""
    return [(w.u % 2, 1), (w.L_odd % 4, 0), (w.v % 6, 3)]


def _linkages(w: Window) -> Pairs:
    """b_n = (u_n - 3)/2, a_n = (v_n - 3)/6, and v_n - v_{n-1} = 6*F_n from n = 1 up.

    Divisibility is checked before each division; a remainder is reported
    as a failure rather than raised. u_n - u_{n-1} = L_n is checked in the
    differences chain.
    """
    half, odd = divmod(w.u - 3, 2)
    sixth, rest = divmod(w.v - 3, 6)
    pairs = [(odd, 0) if odd else (w.b, half), (rest, 0) if rest else (w.a, sixth)]
    if w.n >= 1:
        pairs.append((w.v - w.v_prev, 6 * w.F))
    return pairs


def _v_square(w: Window) -> Pairs:
    """v_n^2 = 3*(u_n^2 + 2) = (3/2)*(L_{2n+1} + 2) = 3*(11 + 12*b_n + 4*b_n^2).

    The middle form is evaluated as 3*(L_{2n+1} + 2)/2 with an exactness
    check on the halving (L_{2n+1} + 2 is even because L_{2n+1} is a
    multiple of 4).
    """
    vsq = w.v * w.v
    half, odd = divmod(w.L_odd + 2, 2)
    return [
        (vsq, 3 * (w.u * w.u + 2)),
        (odd, 0) if odd else (vsq, 3 * half),
        (vsq, 3 * (11 + 12 * w.b + 4 * w.b * w.b)),
    ]


def _bisection(w: Window) -> Pairs:
    """u_n = z_{2n+1}: u from its recurrence, z from the continued-fraction ladder."""
    return [(w.u, w.z_odd)]


def _differences(w: Window) -> Pairs:
    """u_n - u_{n-1} = L_n = 2*z_{2n} = z_{2n+1} - z_{2n-1}, link by link along the chain."""
    return [
        (w.u - w.u_prev, w.L),
        (w.L, 2 * w.z_even),
        (2 * w.z_even, w.z_odd - w.z_prev),
    ]


# Every suite, in report order: name -> (first index, per-index check).
SUITES: dict[str, tuple[int, Callable[[Window], Pairs]]] = {
    "lucas": (0, _lucas),
    "discriminant": (0, _discriminant),
    "congruences": (0, _congruences),
    "linkages": (0, _linkages),
    "v-square": (0, _v_square),
    "bisection": (0, _bisection),
    "differences": (1, _differences),
}


def run_all(max_n: int, names: Iterable[str] = SUITES) -> list[IdentityReport]:
    """Reports of the named suites (by default all, in SUITES order) up to max_n.

    One pass over n = 0..max_n; a suite's report covers its first index to
    max_n and lists each comparison that failed as (n, lhs, rhs).
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    suites = [(name, *SUITES[name], []) for name in names]
    for w in islice(_windows(), max_n + 1):
        for _, first, check, failures in suites:
            if w.n >= first:
                for lhs, rhs in check(w):
                    if lhs != rhs:
                        failures.append((w.n, lhs, rhs))
    return [IdentityReport(name, (first, max_n), failures) for name, first, _, failures in suites]
