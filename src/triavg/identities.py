"""Instance verification of the identities and congruences linking the sequences.

One pass over n runs every selected suite on a window of terms at that n.
Each suite declares the window terms it reads, and only the streams those
terms come from are advanced. Each sequence comes from its own generator,
so no prefix is held: a, b, u, v and F from their recurrences, L from two
runs of its recurrence (one at n, one at 2n), and z from the
continued-fraction ladder, which shares nothing with u. Each of a, b, u, v
and L is squared once per index, from its own term, and every suite reads
that one square; L_n * L_{n+1} is taken from the L stream too. One
generator (_stream) carries each of these streams: it yields each term
with the term before, its square and its product with the term before,
which is multiplied only where a suite reads it (L alone) or the next
index carries from it. From the index after a term longer than
SQUARE_FROM_BITS (n of about 527 here) on, both products are carried from
the index before in time linear in the digits, instead of a big
multiplication per index, and a carried step leaves out the terms that
are 0 at that step, as they are at every step of u, v and L. Each check
evaluates both sides of an identity from independently computed sequences
(never the same value against itself), and mismatches are reported
instead of raised, so a report is useful for diffing when something
breaks.
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
    L_cross is L_n * L_{n+1}, each taken once by its own stream's _stream.
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


def _stream(xs: Iterable[int], squared: bool, crossed: bool) -> Iterator[tuple[int | None, int, int | None, int | None]]:
    """(x_{n-1}, x_n, x_n^2, x_n * x_{n-1}) of an int stream at n = 0, 1, ...

    x_{-1} is None, and so is x_0 * x_{-1}; both products are None at every
    n unless squared. They are multiplied at n = 0 and after a term of at
    most SQUARE_FROM_BITS bits, the cross product only if crossed or if x_n
    is longer, for the next step to carry from; else it is None. After a
    longer term both are carried from the values in hand, x_{n-1}, x_{n-2},
    their squares and their product, whether the step before multiplied or
    carried them. With c = x_n - 4*x_{n-1} + x_{n-2}:

        x_n * x_{n-1} = 4*x_{n-1}^2 - x_{n-1}*x_{n-2} + c*x_{n-1},
        x_n^2 = 4*(x_n*x_{n-1} - x_{n-1}*x_{n-2}) + x_{n-2}^2 + c*(x_n - x_{n-2}).

    These are polynomial identities, so every value is exact for any ints
    (x_{-1} counts as 0). c is worked out from the values at every carried
    step, and the c terms are left out when it is 0. On a stream with
    w_n = 4*w_{n-1} - w_{n-2} + k, c is k, and a step takes additions and
    small-by-big products only, in time linear in the digits; on any other
    stream a step pays two big products.
    """
    if not squared:
        for before, x in pairwise(chain([None], xs)):
            yield before, x, None, None
        return
    xs = iter(xs)
    last = next(xs, None)
    if last is None:
        return
    sq = last * last
    yield None, last, sq, None
    before = sq_before = cross = 0
    long = 1 << 2 * SQUARE_FROM_BITS
    for x in xs:
        if sq < long:
            before, last, sq_before = last, x, sq
            sq = x * x
            cross = x * before if crossed or sq >= long else None
        else:
            c = x - 4 * last + before
            step, rest = 4 * sq - cross, sq_before
            if c:
                step += c * last
                rest += c * (x - before)
            sq_before, sq = sq, 4 * (step - cross) + rest
            before, last, cross = last, x, step
        yield before, x, sq, cross


def _windows(reads: set[str]) -> Iterator[Window]:
    """The windows at n = 0, 1, 2, ...

    A stream moves only if a term drawn from it is read. Its _stream takes
    the square only if the square or the cross product is read, and
    multiplies the cross product only if that is read.
    L_cross is the cross product of the L stream's next item, L_{n+1} * L_n,
    so that stream is read in overlapping pairs of items.
    """

    def stream(x: str) -> Iterator[tuple]:
        if reads.isdisjoint((x, f"{x}_sq", f"{x}_prev", f"{x}_cross")):
            return repeat((None,) * 4)
        crossed = f"{x}_cross" in reads
        return _stream(terms(x), crossed or f"{x}_sq" in reads, crossed)

    rows = zip(
        stream("a"),
        stream("b"),
        stream("u"),
        stream("v"),
        stream("F"),
        pairwise(stream("L")),
        repeat((None, None)) if reads.isdisjoint(("L_even", "L_odd")) else _pairs(terms("L")),
        repeat((None, None)) if reads.isdisjoint(("z_prev", "z_even", "z_odd")) else _pairs(numerators()),
    )
    # Builds a Window from a tuple, without Window()'s 20-argument call.
    new = tuple.__new__
    z_odd = None
    for n, ((_, a, a_sq, _), (_, b, b_sq, _), (u_prev, u, u_sq, _), (v_prev, v, v_sq, _), (_, F, _, _),
            ((_, L, L_sq, _), (_, _, _, L_cross)), (L_even, L_odd), (z_even, z_next_odd)) in enumerate(rows):
        z_prev, z_odd = z_odd, z_next_odd
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
        n = w.n
        for _, first, _, check, failures in suites:
            if n >= first:
                for lhs, rhs in check(w):
                    if lhs != rhs:
                        failures.append((n, lhs, rhs))
    return [IdentityReport(name, (first, max_n), failures) for name, first, _, _, failures in suites]
