"""Exact arithmetic in the quadratic extension Q(sqrt(3)).

``QuadElem`` is the number (a + b*sqrt(3)) / d held as three Python ints:
integer numerators a and b over one shared positive denominator d, kept
reduced so that gcd(a, b, d) = 1. The stored triple is then unique per
value. Ring operations are plain big-integer arithmetic on the triples,
and a denominator enters only through a rational operand or scale. The
closed forms of this package have integer coefficients and end in one
integer division by 12 or 2, so d stays 1 on every hot path and no gcd
runs there. Powers track the norm of the running value, so that each
squaring is two big squares (exact, since a^2 = 3b^2 + norm) rather than a
square and two products. The module also has an exact perfect-square test.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_perfect_square(m: int) -> int | None:
    """Exact square root of m, or None when m is negative or not a square."""
    if m < 0:
        return None
    root = math.isqrt(m)
    return root if root * root == m else None


class QuadElem:
    """The real number a + b*sqrt(3), with exact rational a and b.

    Built from int or Fraction coefficients; ``.a`` and ``.b`` read them
    back as Fractions. sqrt(3) is irrational, so the reduced triple is
    unique per value and equality compares it directly. Sums, differences
    and products stay in the ring. Division by another QuadElem is
    deliberately not provided; scaling by a rational covers every use here.
    Instances are immutable, like Fraction, whose slot layout this follows.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: int | Fraction, b: int | Fraction) -> None:
        for name, value in (("a", a), ("b", b)):
            if not isinstance(value, (int, Fraction)):
                raise TypeError(
                    f"{name} must be exact (int or Fraction), got {type(value).__name__}"
                )
        a, b = Fraction(a), Fraction(b)
        # Over the lcm of two reduced denominators the triple is reduced too.
        d = math.lcm(a.denominator, b.denominator)
        self._a = a.numerator * (d // a.denominator)
        self._b = b.numerator * (d // b.denominator)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: QuadElem | int | Fraction) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: QuadElem | int | Fraction) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: int | Fraction) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __neg__(self) -> QuadElem:
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: QuadElem | int | Fraction) -> QuadElem:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _make(a * c + 3 * b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, scalar: int | Fraction) -> QuadElem:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("QuadElem division by zero")
        num, den = scalar.numerator, scalar.denominator
        if num < 0:
            num, den = -num, -den
        return _make(self._a * den, self._b * den, self._d * num)

    def __pow__(self, n: int) -> QuadElem:
        """n-th power by binary exponentiation on the numerators, n >= 0.

        Bits are taken from the top, so each step multiplies by the base
        itself. For a base with small coefficients, such as ALPHA, that step
        costs linear time and only the squarings are big multiplications.

        The running numerators a, b keep a^2 - 3b^2 = m, the norm of the
        numerators x, y raised to the power reached so far, so a^2 = 3b^2 + m
        holds exactly. Squaring then needs no a^2 and no a*b:
        a^2 + 3b^2 = 6b^2 + m and 2ab = (a + b)^2 - 4b^2 - m. Each bit costs
        the two big squares b^2 and (a + b)^2 plus m^2. For a unit such as
        ALPHA or BETA, m stays +-1 and m^2 is free; for any other base m^2
        is a third big square, which for a rational base is twice a's length.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("QuadElem powers are defined for n >= 0 only")
        x, y = self._a, self._b
        norm = x * x - 3 * y * y
        a, b, m = 1, 0, 1
        for bit in f"{n:b}":
            bb = b * b
            s = a + b
            a, b, m = 6 * bb + m, s * s - 4 * bb - m, m * m
            if bit == "1":
                a, b, m = a * x + 3 * b * y, a * y + b * x, m * norm
        return _make(a, b, self._d**n)

    def conjugate(self) -> QuadElem:
        """Image under sqrt(3) -> -sqrt(3); swaps alpha and beta."""
        return _make(self._a, -self._b, self._d)

    def as_integer(self) -> int:
        """This element as a plain int.

        Raises ArithmeticError when the sqrt(3) component is nonzero or the
        rational part has a denominator. Closed-form sequence evaluation
        relies on both cancellations, so a failure here is an internal bug,
        never a caller error.
        """
        if self._b:
            raise ArithmeticError(f"sqrt(3) component did not cancel: {self.size_summary()}")
        if self._d != 1:
            raise ArithmeticError(f"value is not an integer: {self.size_summary()}")
        return self._a

    def size_summary(self) -> str:
        """The bit lengths of the stored triple, for error messages.

        Unlike str(), this works at any size: str() of a value past Python's
        4300-digit int->str cap raises ValueError.
        """
        return (
            f"(a + b*sqrt(3)) / d with a of {self._a.bit_length()} bits, "
            f"b of {self._b.bit_length()} bits, d of {self._d.bit_length()} bits"
        )

    def __repr__(self) -> str:
        return f"QuadElem(a={self.a!r}, b={self.b!r})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(3)"


def _make(a: int, b: int, d: int) -> QuadElem:
    """(a + b*sqrt(3)) / d from ints with d > 0, reduced."""
    if d != 1:
        # d first: each gcd step then works on a number no larger than d.
        g = math.gcd(d, a, b)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    elem = object.__new__(QuadElem)
    elem._a = a
    elem._b = b
    elem._d = d
    return elem


def _coerce(value: object) -> QuadElem | None:
    if isinstance(value, QuadElem):
        return value
    if isinstance(value, int):
        return _make(value, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


ZERO = QuadElem(0, 0)
ONE = QuadElem(1, 0)
SQRT3 = QuadElem(0, 1)

# Roots of x^2 - 4x + 1. They satisfy alpha + beta = 4 and alpha * beta = 1,
# which drives every closed form in the recurrences module.
ALPHA = QuadElem(2, 1)
BETA = QuadElem(2, -1)
