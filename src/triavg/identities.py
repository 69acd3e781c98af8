"""Instance verification of the identities and congruences linking the sequences.

Each checker evaluates both sides of an identity from independently computed
sequences (never the same value against itself) and reports mismatches
instead of raising, so a report is useful for diffing when something breaks.
"""

from __future__ import annotations

from typing import NamedTuple

from .recurrences import sequence_prefix

Failure = tuple[int, int, int]  # (n, lhs, rhs)


class IdentityReport(NamedTuple):
    """Outcome of checking one identity family over an index range."""

    name: str
    checked_range: tuple[int, int]
    failures: list[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


def _require_max_n(max_n: int) -> None:
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")


def _expect(failures: list[Failure], n: int, lhs: int, rhs: int) -> None:
    if lhs != rhs:
        failures.append((n, lhs, rhs))


def check_lucas_identities(max_n: int) -> IdentityReport:
    """L_n^2 = L_{2n} + 2 and L_n * L_{n+1} = L_{2n+1} + 4 for 0 <= n <= max_n."""
    _require_max_n(max_n)
    L = sequence_prefix("L", 2 * max_n + 2)
    failures: list[Failure] = []
    for n in range(max_n + 1):
        _expect(failures, n, L[n] * L[n], L[2 * n] + 2)
        _expect(failures, n, L[n] * L[n + 1], L[2 * n + 1] + 4)
    return IdentityReport("lucas", (0, max_n), failures)


def check_discriminant(max_n: int) -> IdentityReport:
    """1 + 12*a_n + 12*a_n^2 = L_{2n+1}/2 - 1 = u_n^2 for 0 <= n <= max_n.

    L_{2n+1} must be even before halving; an odd value is recorded as a
    failure (remainder against 0), not a crash.
    """
    _require_max_n(max_n)
    a = sequence_prefix("a", max_n + 1)
    u = sequence_prefix("u", max_n + 1)
    L = sequence_prefix("L", 2 * max_n + 2)
    failures: list[Failure] = []
    for n in range(max_n + 1):
        disc = 1 + 12 * a[n] + 12 * a[n] * a[n]
        l_odd = L[2 * n + 1]
        if l_odd % 2:
            _expect(failures, n, l_odd % 2, 0)
            continue
        _expect(failures, n, disc, l_odd // 2 - 1)
        _expect(failures, n, disc, u[n] * u[n])
    return IdentityReport("discriminant", (0, max_n), failures)


def check_congruences(max_n: int) -> IdentityReport:
    """u_n odd, L_{2n+1} divisible by 4, v_n = 3 (mod 6), for 0 <= n <= max_n."""
    _require_max_n(max_n)
    u = sequence_prefix("u", max_n + 1)
    v = sequence_prefix("v", max_n + 1)
    L = sequence_prefix("L", 2 * max_n + 2)
    failures: list[Failure] = []
    for n in range(max_n + 1):
        _expect(failures, n, u[n] % 2, 1)
        _expect(failures, n, L[2 * n + 1] % 4, 0)
        _expect(failures, n, v[n] % 6, 3)
    return IdentityReport("congruences", (0, max_n), failures)


def check_linkages(max_n: int) -> IdentityReport:
    """b_n = (u_n - 3)/2, a_n = (v_n - 3)/6, and the difference identities
    u_n - u_{n-1} = L_n and v_n - v_{n-1} = 6*F_n (those two from n = 1 up).

    Divisibility is checked before each division; a remainder is reported
    as a failure rather than raised.
    """
    _require_max_n(max_n)
    a = sequence_prefix("a", max_n + 1)
    b = sequence_prefix("b", max_n + 1)
    u = sequence_prefix("u", max_n + 1)
    v = sequence_prefix("v", max_n + 1)
    L = sequence_prefix("L", max_n + 1)
    F = sequence_prefix("F", max_n + 1)
    failures: list[Failure] = []
    for n in range(max_n + 1):
        if (u[n] - 3) % 2:
            _expect(failures, n, (u[n] - 3) % 2, 0)
        else:
            _expect(failures, n, b[n], (u[n] - 3) // 2)
        if (v[n] - 3) % 6:
            _expect(failures, n, (v[n] - 3) % 6, 0)
        else:
            _expect(failures, n, a[n], (v[n] - 3) // 6)
        if n >= 1:
            _expect(failures, n, u[n] - u[n - 1], L[n])
            _expect(failures, n, v[n] - v[n - 1], 6 * F[n])
    return IdentityReport("linkages", (0, max_n), failures)


def check_v_square(max_n: int) -> IdentityReport:
    """v_n^2 = 3*(u_n^2 + 2) = (3/2)*(L_{2n+1} + 2) = 3*(11 + 12*b_n + 4*b_n^2).

    The middle form is evaluated as 3*(L_{2n+1} + 2)/2 with an exactness
    check on the halving (L_{2n+1} + 2 is even because L_{2n+1} is a
    multiple of 4).
    """
    _require_max_n(max_n)
    b = sequence_prefix("b", max_n + 1)
    u = sequence_prefix("u", max_n + 1)
    v = sequence_prefix("v", max_n + 1)
    L = sequence_prefix("L", 2 * max_n + 2)
    failures: list[Failure] = []
    for n in range(max_n + 1):
        vsq = v[n] * v[n]
        _expect(failures, n, vsq, 3 * (u[n] * u[n] + 2))
        shifted = L[2 * n + 1] + 2
        if shifted % 2:
            _expect(failures, n, shifted % 2, 0)
        else:
            _expect(failures, n, vsq, 3 * (shifted // 2))
        _expect(failures, n, vsq, 3 * (11 + 12 * b[n] + 4 * b[n] * b[n]))
    return IdentityReport("v-square", (0, max_n), failures)


def run_all(max_n: int) -> list[IdentityReport]:
    """Every identity suite, including the continued-fraction checks."""
    # Imported here, not at module top, to keep identities <-> convergents acyclic.
    from .convergents import check_bisection, check_difference_identities

    _require_max_n(max_n)
    return [
        check_lucas_identities(max_n),
        check_discriminant(max_n),
        check_congruences(max_n),
        check_linkages(max_n),
        check_v_square(max_n),
        check_bisection(max_n),
        check_difference_identities(max_n),
    ]
