"""Triangular numbers, their prefix averages, and the equation tying them together.

Asking for the average of the first s triangular numbers to be the r-th
triangular number leads to s^2 + 3s + 2 = 3r^2 + 3r. This module is the
ground-truth side of the project: it solves that equation by radical
inversion and by a scan that strikes only the residue classes where no
square can occur, with no recourse to the recurrences, and it packages fully
verified (s, average, r) witnesses for the indices that the recurrences
predict.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

from .exactnum import ALPHA, is_perfect_square
from .recurrences import A_SPEC, B_SPEC, _closed_form_at

# Above this many terms the literal sum is skipped and only the closed
# product formula is used; below it, both are computed and must agree.
LITERAL_SUM_CUTOFF = 10**5

# The moduli of the scan's residue sieve: 81 and the odd primes up to 61.
# Powers of 2 are left out: with x = 2s + 3 odd, the radicand 3*(x^2 + 2) is
# 1 mod 8, a square modulo every power of 2. 81 strikes out 57 of its 81
# classes and each prime about half of its own, so about one s in 10^5
# survives them all; fewer moduli leave more survivors, and each costs a
# block-wide bit pop as well as its exact test.
SIEVE_MODULI = (81, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
# The scan sieves this many consecutive s per pass, one bit each.
SIEVE_BLOCK = 2**14


def triangular(k: int) -> int:
    """T_k = k*(k+1)/2."""
    if k < 0:
        raise ValueError(f"triangular numbers are indexed from 0, got {k}")
    return (k * k + k) // 2


def is_triangular(m: int) -> int | None:
    """The index k with T_k = m, or None when m is not triangular.

    Inverts the triangular map through the perfect-square test on 8m + 1;
    the root of an odd square is odd, so (root - 1)/2 is exact.
    """
    if m < 0:
        return None
    root = is_perfect_square(8 * m + 1)
    if root is None:
        return None
    return (root - 1) // 2


def prefix_sum(s: int) -> int:
    """Sum of the first s triangular numbers, s*(s+1)*(s+2)/6 exactly.

    For s up to LITERAL_SUM_CUTOFF the literal term-by-term sum is computed
    as well and compared, so the closed product never silently drifts from
    the definition.
    """
    return _prefix_sum(s, s * s)


def _prefix_sum(s: int, s_squared: int) -> int:
    """prefix_sum(s) from a given s^2, which ``witness`` shares with its other checks."""
    if s < 1:
        raise ValueError(f"need at least one term, got s={s}")
    # (s^2 + s)(s + 2) = s(s+1)(s+2) is a product of three consecutive
    # integers, hence divisible by 6. A square costs less than a product.
    total = (s_squared + s) * (s + 2) // 6
    if s <= LITERAL_SUM_CUTOFF:
        # Running sums of 1..k build each T_k by addition alone.
        literal = sum(itertools.accumulate(range(1, s + 1)))
        if literal != total:
            raise ArithmeticError(
                f"prefix sum mismatch at s={s}: literal {literal} vs formula {total}"
            )
    return total


def prefix_average(s: int) -> Fraction:
    """Exact average of T_1 .. T_s, the rational (s+1)(s+2)/6."""
    if s < 1:
        raise ValueError(f"need at least one term, got s={s}")
    return Fraction((s + 1) * (s + 2), 6)


def check_pair(s: int, r: int) -> bool:
    """Does (s, r) satisfy s^2 + 3s + 2 = 3r^2 + 3r?"""
    return s * s + 3 * s + 2 == 3 * (r * r + r)


def solve_s_for_r(r: int) -> int | None:
    """The count s whose triangular average is T_r, if any.

    Solving for s gives s = (sqrt(1 + 12r + 12r^2) - 3) / 2, so an answer
    exists exactly when the radicand is a perfect square, the root minus 3
    is even, and the resulting s is at least 1.
    """
    if r < 1:
        raise ValueError(f"triangular index must be positive, got r={r}")
    root = is_perfect_square(1 + 12 * r + 12 * r * r)
    if root is None:
        return None
    if (root - 3) % 2:
        return None
    s = (root - 3) // 2
    return s if s >= 1 else None


def solve_r_for_s(s: int) -> int | None:
    """The triangular index r of the average of T_1 .. T_s, if integral.

    Solving for r gives r = (sqrt(3*(11 + 12s + 4s^2)) - 3) / 6, so an
    answer exists exactly when the radicand is a perfect square and the
    root is 3 mod 6.
    """
    if s < 1:
        raise ValueError(f"need at least one term, got s={s}")
    root = is_perfect_square(3 * (11 + 12 * s + 4 * s * s))
    if root is None:
        return None
    if root % 6 != 3:
        return None
    r = (root - 3) // 6
    return r if r >= 1 else None


@functools.cache
def residue_masks() -> tuple[tuple[int, int], ...]:
    """One (q, mask) per modulus q in SIEVE_MODULI, for the scan's sieve.

    Built from the equation alone, once per process on the first scan: bit i
    of mask is set if and only if 3*(11 + 12i + 4i^2), solve_r_for_s's
    radicand at s = i, is a square mod q. A true square is a square modulo
    anything, so no s whose bit is clear can be a solution. The pattern
    repeats with period q over SIEVE_BLOCK + q bits, so mask >> (start % q)
    holds the bits of s = start .. start + SIEVE_BLOCK - 1 for any start.
    """
    table = []
    for q in SIEVE_MODULI:
        squares = {y * y % q for y in range(q)}
        mask = sum(1 << c for c in range(q) if 3 * (11 + 12 * c + 4 * c * c) % q in squares)
        width = q
        while width < SIEVE_BLOCK + q:
            mask |= mask << width
            width *= 2
        table.append((q, mask & ((1 << (SIEVE_BLOCK + q)) - 1)))
    return tuple(table)


def enumerate_solutions(s_max: int) -> list[tuple[int, int]]:
    """All (s, r) with 1 <= s <= s_max satisfying the equation, by scan.

    The s are sieved SIEVE_BLOCK at a time in one int, bit j standing for
    s = start + j: each modulus of residue_masks strikes the classes whose
    radicand cannot be a square, and every s left is decided exactly by
    solve_r_for_s. Both rest on the equation alone, so the scan stays an
    oracle that is independent of the recurrence machinery. It holds one
    block at a time, whatever s_max is.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be positive, got {s_max}")
    masks = residue_masks()
    found = []
    for start in range(0, s_max + 1, SIEVE_BLOCK):
        # One bit per s up to s_max; s = 0, bit 0 of the first block, is no count.
        alive = (1 << min(SIEVE_BLOCK, s_max + 1 - start)) - (2 if start == 0 else 1)
        for q, mask in masks:
            alive &= mask >> start % q
        while alive:
            low = alive & -alive
            alive ^= low
            s = start + low.bit_length() - 1
            r = solve_r_for_s(s)
            if r is not None:
                found.append((s, r))
    return found


class TriangularWitness(NamedTuple):
    """One verified instance: the first s triangular numbers average to T_r.

    Fields: n is the index into the b/a sequences, s = b_n is the count
    averaged, avg is the integral average, and r = a_n is the index with
    T_r = avg.
    """

    n: int
    s: int
    avg: int
    r: int

    @property
    def total(self) -> int:
        """The exact prefix sum, s * avg."""
        return self.s * self.avg

    def verify(self) -> bool:
        """Re-check all invariants with fresh computation."""
        return (
            self.avg == triangular(self.r)
            and check_pair(self.s, self.r)
            and prefix_sum(self.s) == self.s * self.avg
        )


def witness(n: int) -> TriangularWitness:
    """Build and verify the witness for index n >= 1.

    s = b_n and r = a_n are both weighed from one power of alpha in
    Z[sqrt(3)], so the cost grows with log n big multiplications rather
    than n big additions. Every check is then built from the two squares
    s^2 and r^2. The prefix sum (s^2 + s)(s + 2)/6 is recomputed from first
    principles (the literal sum too, up to LITERAL_SUM_CUTOFF) and must
    equal s * T_r, with T_r = (r^2 + r)/2, exactly: one multiplication that
    says both that the average is integral and that it is T_r. Only when it
    fails does a division tell the two apart. The defining equation
    s^2 + 3s + 2 = 3(r^2 + r) is checked as well. A failure raises
    ArithmeticError, since it would mean a bug, not bad input; its message
    names n rather than the values, so it can be formatted at any size.
    """
    if n < 1:
        raise ValueError("witness requires n >= 1: b_0 = -1 is not a valid prefix length")
    power = ALPHA**n
    s = _closed_form_at(B_SPEC, power, n)
    r = _closed_form_at(A_SPEC, power, n)
    s_squared = s * s
    twice_avg = r * r + r
    total = _prefix_sum(s, s_squared)
    avg = twice_avg // 2
    if total != s * avg:
        if total % s:
            raise ArithmeticError(
                f"witness {n}: the average of the first s = b_n triangular numbers is not integral"
            )
        raise ArithmeticError(f"witness {n}: the average is not the r-th triangular number, r = a_n")
    if s_squared + 3 * s + 2 != 3 * twice_avg:
        raise ArithmeticError(f"witness {n}: (s, r) = (b_n, a_n) fails the defining equation")
    return TriangularWitness(n=n, s=s, avg=avg, r=r)
