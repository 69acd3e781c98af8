"""Exact arithmetic in the ring Z[sqrt(3)].

``QuadElem`` is the number a + b*sqrt(3) held as two Python ints a and b.
sqrt(3) is irrational, so the pair is unique per value, and ring operations
are plain big-integer arithmetic on the pairs. The family's closed form
takes one power of alpha from here and does the rest (integer weights, the
sqrt(3) cancellation, one exact division by 12) on that power's two ints.
Powers track the norm of the running value, so that each squaring
is two big squares (exact, since a^2 = 3b^2 + norm) rather than a square
and two products. The module also has an exact perfect-square test.
"""

from __future__ import annotations

import math


def is_perfect_square(m: int) -> int | None:
    """Exact square root of m, or None when m is negative or not a square."""
    if m < 0:
        return None
    root = math.isqrt(m)
    return root if root * root == m else None


class QuadElem:
    """The real number a + b*sqrt(3), with int a and b.

    Built from two ints; ``.a`` and ``.b`` read them back. Sums, differences
    and products, with each other or with ints, stay in the ring. ``/``
    divides exactly by a nonzero int and raises ArithmeticError on a
    remainder; division by another QuadElem is deliberately not provided.
    Instances are immutable.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: int, b: int) -> None:
        for name, value in (("a", a), ("b", b)):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        self._a = a
        self._b = b

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __add__(self, other: QuadElem | int) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other: QuadElem | int) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(self._a - other._a, self._b - other._b)

    def __rsub__(self, other: int) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(other._a - self._a, other._b - self._b)

    def __neg__(self) -> QuadElem:
        return _make(-self._a, -self._b)

    def __mul__(self, other: QuadElem | int) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _make(a * c + 3 * b * e, a * e + b * c)

    __rmul__ = __mul__

    # Kept though the package never divides: perfbench/tracing.py wraps each name in RING_OPS.
    def __truediv__(self, scalar: int) -> QuadElem:
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("QuadElem division by zero")
        a, a_rem = divmod(self._a, scalar)
        b, b_rem = divmod(self._b, scalar)
        if a_rem or b_rem:
            raise ArithmeticError(
                f"division is not exact: {self.size_summary()}, divisor of {scalar.bit_length()} bits"
            )
        return _make(a, b)

    def __pow__(self, n: int) -> QuadElem:
        """n-th power by binary exponentiation, n >= 0.

        Bits are taken from the top. The leading one is the base itself, so
        no step squares 1, and each later set bit multiplies by the base. For
        a base with small coefficients, such as ALPHA, that step costs linear
        time and only the squarings are big multiplications. n = 0 gives 1.

        The running coefficients a, b keep a^2 - 3b^2 = m, the norm of the
        base x + y*sqrt(3) raised to the power reached so far, so
        a^2 = 3b^2 + m holds exactly. Squaring then needs no a^2 and no a*b:
        a^2 + 3b^2 = 6b^2 + m and 2ab = (a + b)^2 - 4b^2 - m. Each bit costs
        the two big squares b^2 and (a + b)^2 plus m^2. For a unit such as
        ALPHA or BETA, m stays +-1 and m^2 is free; for any other base m^2
        is a third big square.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("QuadElem powers are defined for n >= 0 only")
        if not n:
            return _make(1, 0)
        x, y = self._a, self._b
        norm = x * x - 3 * y * y
        a, b, m = x, y, norm
        for bit in f"{n:b}"[1:]:
            bb = b * b
            s = a + b
            a, b, m = 6 * bb + m, s * s - 4 * bb - m, m * m
            if bit == "1":
                a, b, m = a * x + 3 * b * y, a * y + b * x, m * norm
        return _make(a, b)

    def conjugate(self) -> QuadElem:
        """Image under sqrt(3) -> -sqrt(3); swaps alpha and beta."""
        return _make(self._a, -self._b)

    def as_integer(self) -> int:
        """This element as a plain int.

        Raises ArithmeticError when the sqrt(3) component is nonzero. The
        package does not call it: the closed form checks the same
        cancellation on its power's two ints.
        """
        if self._b:
            raise ArithmeticError(f"sqrt(3) component did not cancel: {self.size_summary()}")
        return self._a

    def size_summary(self) -> str:
        """The bit lengths of the two coefficients, for error messages.

        Unlike str(), this works at any size: str() of a value past Python's
        4300-digit int->str cap raises ValueError.
        """
        return f"a + b*sqrt(3) with a of {self._a.bit_length()} bits, b of {self._b.bit_length()} bits"

    def __repr__(self) -> str:
        return f"QuadElem(a={self._a!r}, b={self._b!r})"

    def __str__(self) -> str:
        return f"{self._a} + {self._b}*sqrt(3)"


def _make(a: int, b: int) -> QuadElem:
    """a + b*sqrt(3) from ints, without the constructor's type checks."""
    elem = object.__new__(QuadElem)
    elem._a = a
    elem._b = b
    return elem


def _coerce(value: object) -> QuadElem | None:
    if isinstance(value, QuadElem):
        return value
    if isinstance(value, int):
        return _make(value, 0)
    return None


ZERO = QuadElem(0, 0)
ONE = QuadElem(1, 0)
SQRT3 = QuadElem(0, 1)

# Roots of x^2 - 4x + 1. They satisfy alpha + beta = 4 and alpha * beta = 1,
# which drives every closed form in the recurrences module.
ALPHA = QuadElem(2, 1)
BETA = QuadElem(2, -1)
