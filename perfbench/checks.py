"""Independent checks of triavg's outputs.

Nothing here imports triavg or stores a copy of its output. Terms are
recomputed by an integer 3x3 affine matrix power, solutions of the average
equation come from the unit (1 + sqrt3)(2 + sqrt3)^n in integer pairs, and
the rest are algebraic properties of the outputs. Each check raises
CheckError on the first disagreement.
"""

from __future__ import annotations

import functools
import re

# (k, w0, w1) of w_n = 4*w_{n-1} - w_{n-2} + k, as the README defines them.
NAMED = {
    "a": (1, 0, 1),
    "b": (3, -1, 1),
    "u": (0, 1, 5),
    "v": (0, 3, 9),
    "L": (0, 2, 4),
    "F": (0, 0, 1),
}
SUITES = {"lucas", "discriminant", "congruences", "linkages", "v-square", "bisection", "differences"}


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _matmul(x: tuple, y: tuple) -> tuple:
    return tuple(
        x[3 * i] * y[j] + x[3 * i + 1] * y[3 + j] + x[3 * i + 2] * y[6 + j]
        for i in range(3)
        for j in range(3)
    )


def _matpow(m: tuple, e: int) -> tuple:
    result = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    while e:
        if e & 1:
            result = _matmul(result, m)
        e >>= 1
        if e:
            m = _matmul(m, m)
    return result


@functools.lru_cache(maxsize=16)
def _power(m: int) -> tuple:
    return _matpow((4, -1, 1, 1, 0, 0, 0, 0, 1), m)


def ref_term(spec: tuple[int, int, int], n: int) -> int:
    """w_n from (w_{n+1}, w_n, 1) = M_k (w_n, w_{n-1}, 1), M_k = [[4, -1, k], [1, 0, 0], [0, 0, 1]].

    The translation column of M_k^m is k times that of M_1^m, so one cached
    power of M_1 serves every spec at the same n.
    """
    k, w0, w1 = spec
    if n == 0:
        return w0
    p = _power(n - 1)
    return p[0] * w1 + p[1] * w0 + k * p[2]


def pell_pairs(max_s: int) -> list[tuple[int, int, int]]:
    """(n, s, r) with 1 <= s <= max_s, from x + m*sqrt3 = (1 + sqrt3)(2 + sqrt3)^n.

    x^2 - 3m^2 = -2 is the average equation with x = 2s + 3 and m = 2r + 1.
    """
    pairs = []
    x, m, n = 1, 1, 0
    while True:
        s, r = (x - 3) // 2, (m - 1) // 2
        if s > max_s:
            return pairs
        if s >= 1:
            pairs.append((n, s, r))
        x, m, n = 2 * x + 3 * m, x + 2 * m, n + 1


def check_terms(items: list[tuple[tuple[int, int, int], int]], values: list[int]) -> None:
    """values[i] is w_n of items[i] = (spec, n)."""
    require(len(values) == len(items), f"expected {len(items)} values, got {len(values)}")
    for (spec, n), value in zip(items, values):
        require(value == ref_term(spec, n), f"w_{n} of {spec} is wrong")


def check_recurrence(spec: tuple[int, int, int], values: list[int]) -> None:
    """values are w_0.. w_{N-1}: initial terms, the recurrence, and the last term."""
    k, w0, w1 = spec
    require(len(values) >= 2, "fewer than two terms")
    require(values[0] == w0 and values[1] == w1, f"initial terms of {spec} are wrong")
    for n in range(2, len(values)):
        require(values[n] - 4 * values[n - 1] + values[n - 2] == k, f"recurrence fails at n={n}")
    require(values[-1] == ref_term(spec, len(values) - 1), "last term disagrees with matrix power")


def check_witness(n: int, s: int, avg: int, r: int) -> None:
    require(s == ref_term(NAMED["b"], n) and r == ref_term(NAMED["a"], n), f"witness {n}: (s, r) is not (b_n, a_n)")
    require(6 * s * avg == s * (s + 1) * (s + 2), f"witness {n}: avg is not the average of T_1..T_s")
    require(2 * avg == r * (r + 1), f"witness {n}: avg is not T_r")


def check_witness_line(n: int, text: str) -> None:
    """One 'n=.. b=.. sum=.. avg=.. a=.. VERIFIED' line of `triavg witness n`."""
    match = re.fullmatch(r"n=(\d+) b=(-?\d+) sum=(-?\d+) avg=(-?\d+) a=(-?\d+) VERIFIED\n", text)
    require(match is not None, "witness line is malformed")
    got_n, s, total, avg, r = (int(g) for g in match.groups())
    require(got_n == n and total == s * avg, f"witness {n}: n or sum is wrong")
    check_witness(n, s, avg, r)


def parse_bfile(text: str) -> tuple[str, list[int]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0].startswith("# "), "b-file has no header")
    header = lines[0].split()
    require(len(header) == 4 and header[2:] == ["offset", "0"], "b-file header is malformed")
    values = []
    for i, line in enumerate(lines[1:]):
        index, value = line.split(" ")
        require(int(index) == i, f"b-file index {index} out of order")
        values.append(int(value))
    return header[1], values


def check_bfile(seq: str, count: int, text: str) -> None:
    name, values = parse_bfile(text)
    require(name == seq, f"b-file names {name!r}, expected {seq!r}")
    require(len(values) == count, f"b-file has {len(values)} terms, expected {count}")
    check_recurrence(NAMED[seq], values)


def check_verify(max_n: int, text: str) -> None:
    """Seven PASS lines, one per suite, each reaching max_n."""
    seen = set()
    for line in text.splitlines():
        match = re.fullmatch(r"(\S+) \[(\d+)\.\.(\d+)\] PASS", line)
        require(match is not None, f"verify line is not a PASS: {line!r}")
        name, lo, hi = match.group(1), int(match.group(2)), int(match.group(3))
        require(name in SUITES and name not in seen, f"unexpected suite {name!r}")
        require(lo <= 1 and hi == max_n, f"{name} covers [{lo}..{hi}], not up to {max_n}")
        seen.add(name)
    require(seen == SUITES, f"suites missing: {sorted(SUITES - seen)}")


def check_solve(max_s: int, text: str) -> None:
    """Every line solves s^2 + 3s + 2 = 3r^2 + 3r; the hits are exactly the (b_n, a_n)."""
    lines = text.splitlines()
    require(bool(lines) and lines[0] == "# s r average match", "solve header is missing")
    hits = []
    for line in lines[1:]:
        match = re.fullmatch(r"(\d+) (\d+) (\d+) \(b_(\d+),a_\4\)", line)
        require(match is not None, f"solve line is malformed: {line!r}")
        s, r, avg, n = (int(g) for g in match.groups())
        require(s * s + 3 * s + 2 == 3 * r * r + 3 * r, f"({s}, {r}) does not solve the equation")
        require(6 * avg == (s + 1) * (s + 2) and 2 * avg == r * (r + 1), f"average of ({s}, {r}) is wrong")
        hits.append((n, s, r))
    require(sorted(hits) == pell_pairs(max_s), "solutions differ from the (b_n, a_n) derived from the unit")
