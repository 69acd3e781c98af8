"""Instance verification of the identities and congruences linking the sequences.

One pass over n runs every selected suite on a window of terms at that n.
Each suite declares the window terms it reads, and only the streams those
terms come from are advanced. Each sequence comes from its own generator,
so no prefix is held: a, b, u, v and F from their recurrences, L from two
runs of its recurrence (one at n, one at 2n), and z from the
continued-fraction ladder, which shares nothing with u. Each of a, b, u, v
and L is squared once per index, from its own term, and every suite reads
that one square; L_n * L_{n+1} is taken from the L stream too. Once a
stream's terms are long, its square and cross product are carried from
the previous index (see _Square) in time linear in the digits, instead of
a big multiplication per index. Each check evaluates both sides of an
identity from independently computed sequences (never the same value
against itself), and mismatches are reported instead of raised, so a
report is useful for diffing when something breaks.
"""

from __future__ import annotations

from itertools import chain, islice, pairwise, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .convergents import numerators
from .recurrences import terms

Failure = tuple[int, int, int]  # (n, lhs, rhs)
Pairs = list[tuple[int, int]]  # (lhs, rhs) of each comparison at one n

# A stream's squares are multiplied while its terms have at most this many
# bits, and carried from the index after a longer term: around here a
# carried step and a direct square cost the same.
SQUARE_FROM_BITS = 1000


class IdentityReport(NamedTuple):
    """Outcome of checking one identity family over an index range."""

    name: str
    checked_range: tuple[int, int]
    failures: list[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


class Window(NamedTuple):
    """The terms the suites read at index n.

    A term whose stream no selected suite reads is None, and so is an
    unread square and each *_prev term at n = 0. Each x_sq is x * x, and
    L_cross is L_n * L_{n+1}, each taken once from its own stream.
    """

    n: int
    a: int | None
    a_sq: int | None
    b: int | None
    b_sq: int | None
    u: int | None
    u_sq: int | None
    u_prev: int | None  # u_{n-1}
    v: int | None
    v_sq: int | None
    v_prev: int | None  # v_{n-1}
    F: int | None
    L: int | None
    L_sq: int | None
    L_cross: int | None  # L_n * L_{n+1}
    L_even: int | None  # L_{2n}
    L_odd: int | None  # L_{2n+1}
    z_prev: int | None  # z_{2n-1}
    z_even: int | None  # z_{2n}
    z_odd: int | None  # z_{2n+1}


def _pairs(values: Iterator[int]) -> Iterator[tuple[int, int]]:
    """(x_{2n}, x_{2n+1}) at n = 0, 1, ..."""
    return zip(values, values)


class _Square:
    """x_n^2 and x_n * x_{n-1} of an int stream, each carried from the index before.

    With c = x_n - 4*x_{n-1} + x_{n-2}:

        x_n * x_{n-1} = 4*x_{n-1}^2 - x_{n-1}*x_{n-2} + c*x_{n-1},
        x_n^2 = 4*(x_n*x_{n-1} - x_{n-1}*x_{n-2}) + x_{n-2}^2 + c*(x_n - x_{n-2}).

    These are polynomial identities, so every value is exact for any ints.
    On a stream with w_n = 4*w_{n-1} - w_{n-2} + k, c is k, and a step takes
    additions and small-by-big products only, in time linear in the digits;
    on any other stream a step pays two big products. The stream starts after
    two zero terms.
    """

    __slots__ = ("before", "last", "sq_before", "sq", "cross")

    def __init__(self) -> None:
        self.before = self.last = self.sq_before = self.sq = self.cross = 0

    def __call__(self, x: int) -> int:
        """x^2 of the next term x; x times the term before is left in .cross."""
        before, last, cross = self.before, self.last, self.cross
        c = x - 4 * last + before
        self.cross = 4 * self.sq - cross + c * last
        sq = 4 * (self.cross - cross) + self.sq_before + c * (x - before)
        self.before, self.last, self.sq_before, self.sq = last, x, self.sq, sq
        return sq


def _windows(reads: set[str]) -> Iterator[Window]:
    """The windows at n = 0, 1, 2, ...

    A stream moves only if a term drawn from it is read, and a square is
    taken only if it is read (L_sq and L_cross go together). A square is
    x * x while x has at most SQUARE_FROM_BITS bits; from the index after a
    longer term on, its stream carries it in a _Square. The L stream's
    _Square runs one term ahead, so that its cross product is L_n * L_{n+1}.
    """

    def stream(names: tuple[str, ...], make: Callable[[], Iterator], idle: object = None) -> Iterator:
        return repeat(idle) if reads.isdisjoint(names) else make()

    rows = zip(
        stream(("a", "a_sq"), lambda: terms("a")),
        stream(("b", "b_sq"), lambda: terms("b")),
        stream(("u", "u_sq", "u_prev"), lambda: pairwise(chain([None], terms("u"))), (None, None)),
        stream(("v", "v_sq", "v_prev"), lambda: pairwise(chain([None], terms("v"))), (None, None)),
        stream(("F",), lambda: terms("F")),
        stream(("L", "L_sq", "L_cross"), lambda: pairwise(terms("L")), (None, None)),
        stream(("L_even", "L_odd"), lambda: _pairs(terms("L")), (None, None)),
        stream(("z_prev", "z_even", "z_odd"), lambda: _pairs(numerators()), (None, None)),
    )
    # For each stream: True while its square is taken directly, its _Square
    # once carried, and False if no square of it is read.
    sq_a, sq_b, sq_u, sq_v = (f"{x}_sq" in reads for x in "abuv")
    sq_L = not reads.isdisjoint(("L_sq", "L_cross"))
    long = 1 << 2 * SQUARE_FROM_BITS
    # Builds a Window from a tuple, without Window()'s 20-argument call.
    new = tuple.__new__
    z_odd = None
    for n, (a, b, (u_prev, u), (v_prev, v), F, (L, L_next), (L_even, L_odd), (z_even, z_next_odd)) in enumerate(rows):
        z_prev, z_odd = z_odd, z_next_odd
        a_sq = a * a if sq_a is True else sq_a(a) if sq_a else None
        b_sq = b * b if sq_b is True else sq_b(b) if sq_b else None
        u_sq = u * u if sq_u is True else sq_u(u) if sq_u else None
        v_sq = v * v if sq_v is True else sq_v(v) if sq_v else None
        if sq_L is True:
            L_sq, L_cross = L * L, L * L_next
        elif sq_L:
            L_sq = sq_L.sq
            sq_L(L_next)
            L_cross = sq_L.cross
        else:
            L_sq = L_cross = None
        yield new(Window, (
            n,
            a, a_sq,
            b, b_sq,
            u, u_sq, u_prev,
            v, v_sq, v_prev,
            F,
            L, L_sq, L_cross, L_even, L_odd,
            z_prev, z_even, z_odd,
        ))
        if sq_a is True and a_sq >= long:
            sq_a = _Square()
        if sq_b is True and b_sq >= long:
            sq_b = _Square()
        if sq_u is True and u_sq >= long:
            sq_u = _Square()
        if sq_v is True and v_sq >= long:
            sq_v = _Square()
        if sq_L is True and L_sq >= long:
            sq_L = _Square()
            sq_L(L_next)


def _lucas(w: Window) -> Pairs:
    """L_n^2 = L_{2n} + 2 and L_n * L_{n+1} = L_{2n+1} + 4."""
    return [(w.L_sq, w.L_even + 2), (w.L_cross, w.L_odd + 4)]


def _discriminant(w: Window) -> Pairs:
    """1 + 12*a_n + 12*a_n^2 = L_{2n+1}/2 - 1 = u_n^2.

    L_{2n+1} must be even before halving; an odd value is recorded as a
    failure (remainder against 0), not a crash.
    """
    half, odd = w.L_odd >> 1, w.L_odd & 1
    if odd:
        return [(odd, 0)]
    disc = 1 + 12 * (w.a + w.a_sq)
    return [(disc, half - 1), (disc, w.u_sq)]


def _congruences(w: Window) -> Pairs:
    """u_n odd, L_{2n+1} divisible by 4, v_n = 3 (mod 6)."""
    return [(w.u & 1, 1), (w.L_odd & 3, 0), (w.v % 6, 3)]


def _linkages(w: Window) -> Pairs:
    """b_n = (u_n - 3)/2, a_n = (v_n - 3)/6, and v_n - v_{n-1} = 6*F_n from n = 1 up.

    Divisibility is checked before each division; a remainder is reported
    as a failure rather than raised. u_n - u_{n-1} = L_n is checked in the
    differences chain.
    """
    x = w.u - 3
    half, odd = x >> 1, x & 1
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
    vsq = w.v_sq
    x = w.L_odd + 2
    half, odd = x >> 1, x & 1
    return [
        (vsq, 3 * (w.u_sq + 2)),
        (odd, 0) if odd else (vsq, 3 * half),
        (vsq, 3 * (11 + 12 * w.b + 4 * w.b_sq)),
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


# Every suite, in report order: name -> (first index, window terms read, per-index check).
SUITES: dict[str, tuple[int, frozenset[str], Callable[[Window], Pairs]]] = {
    "lucas": (0, frozenset({"L_sq", "L_cross", "L_even", "L_odd"}), _lucas),
    "discriminant": (0, frozenset({"a", "a_sq", "u_sq", "L_odd"}), _discriminant),
    "congruences": (0, frozenset({"u", "v", "L_odd"}), _congruences),
    "linkages": (0, frozenset({"a", "b", "u", "v", "v_prev", "F"}), _linkages),
    "v-square": (0, frozenset({"b", "b_sq", "u_sq", "v_sq", "L_odd"}), _v_square),
    "bisection": (0, frozenset({"u", "z_odd"}), _bisection),
    "differences": (1, frozenset({"u", "u_prev", "L", "z_prev", "z_even", "z_odd"}), _differences),
}


def run_all(max_n: int, names: Iterable[str] = SUITES) -> list[IdentityReport]:
    """Reports of the named suites (by default all, in SUITES order) up to max_n.

    One pass over n = 0..max_n that advances only the streams the named
    suites read; a suite's report covers its first index to max_n and lists
    each comparison that failed as (n, lhs, rhs).
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    suites = [(name, *SUITES[name], []) for name in names]
    reads = set().union(*(suite_reads for _, _, suite_reads, _, _ in suites))
    for w in islice(_windows(reads), max_n + 1):
        for _, first, _, check, failures in suites:
            if w.n >= first:
                for lhs, rhs in check(w):
                    if lhs != rhs:
                        failures.append((w.n, lhs, rhs))
    return [IdentityReport(name, (first, max_n), failures) for name, first, _, _, failures in suites]
