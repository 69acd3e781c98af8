"""Each check accepts a right output and rejects a corrupted one.

    python3 -m pytest perfbench -q

The right outputs are built here from plain iteration, never from triavg.
"""

from __future__ import annotations

import pytest

import checks
import run
from checks import NAMED, CheckError


def iterate(spec, count):
    k, w0, w1 = spec
    values = [w0, w1]
    while len(values) < count:
        values.append(4 * values[-1] - values[-2] + k)
    return values[:count]


def bfile(seq, values):
    return "\n".join([f"# {seq} offset 0"] + [f"{i} {v}" for i, v in enumerate(values)]) + "\n"


VERIFY_OK = "\n".join(
    f"{name} [{1 if name == 'differences' else 0}..40] PASS"
    for name in ("lucas", "discriminant", "congruences", "linkages", "v-square", "bisection", "differences")
) + "\n"
SOLVE_OK = "# s r average match\n" + "".join(
    f"{s} {r} {r * (r + 1) // 2} (b_{n},a_{n})\n" for n, s, r in checks.pell_pairs(10**4)
)


def test_reference_matches_iteration():
    for spec in [*NAMED.values(), (7, -3, 11), (-2**32, 2**32, 5)]:
        assert [checks.ref_term(spec, n) for n in range(70)] == iterate(spec, 70)


def test_pell_pairs_are_the_named_pairs():
    a, b = iterate(NAMED["a"], 8), iterate(NAMED["b"], 8)
    assert checks.pell_pairs(b[7]) == [(n, b[n], a[n]) for n in range(1, 8)]


def test_terms():
    items = [(NAMED["a"], 5), ((7, -3, 11), 40), (NAMED["u"], 0)]
    values = [checks.ref_term(spec, n) for spec, n in items]
    checks.check_terms(items, values)
    with pytest.raises(CheckError):
        checks.check_terms(items, [values[0], values[1] + 1, values[2]])
    with pytest.raises(CheckError):
        checks.check_terms(items, values[:2])


@pytest.mark.parametrize("index", [0, 1, 30, 64])
def test_recurrence(index):
    spec = (-5, 2**32, -(2**31))
    values = iterate(spec, 65)
    checks.check_recurrence(spec, values)
    values[index] += 1
    with pytest.raises(CheckError):
        checks.check_recurrence(spec, values)


def test_recurrence_rejects_a_shifted_sequence():
    values = iterate(NAMED["a"], 66)[1:]
    with pytest.raises(CheckError):
        checks.check_recurrence(NAMED["a"], values)


@pytest.mark.parametrize("corrupt", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_witness(corrupt):
    checks.check_witness(2, 8, 15, 5)
    s, avg, r = 8 + corrupt[0], 15 + corrupt[1], 5 + corrupt[2]
    with pytest.raises(CheckError):
        checks.check_witness(2, s, avg, r)


@pytest.mark.parametrize(
    "line",
    [
        "n=2 b=8 sum=121 avg=15 a=5 VERIFIED\n",
        "n=3 b=8 sum=120 avg=15 a=5 VERIFIED\n",
        "n=2 b=8 sum=120 avg=15 a=5 FAILED\n",
    ],
)
def test_witness_line(line):
    checks.check_witness_line(2, "n=2 b=8 sum=120 avg=15 a=5 VERIFIED\n")
    with pytest.raises(CheckError):
        checks.check_witness_line(2, line)


def test_bfile():
    values = iterate(NAMED["v"], 200)
    checks.check_bfile("v", 200, bfile("v", values))
    corrupted = list(values)
    corrupted[150] -= 1
    for seq, count, text in [
        ("v", 200, bfile("v", corrupted)),
        ("v", 200, bfile("v", values[:199])),
        ("u", 200, bfile("v", values)),
        ("v", 200, bfile("v", values).replace("\n5 ", "\n6 ", 1)),
    ]:
        with pytest.raises(CheckError):
            checks.check_bfile(seq, count, text)


@pytest.mark.parametrize(
    "text",
    [
        VERIFY_OK.replace("lucas [0..40] PASS", "lucas [0..40] FAIL (1 failures)"),
        VERIFY_OK.replace("bisection [0..40] PASS\n", ""),
        VERIFY_OK.replace("v-square [0..40]", "v-square [0..39]"),
        VERIFY_OK + "lucas [0..40] PASS\n",
    ],
)
def test_verify(text):
    checks.check_verify(40, VERIFY_OK)
    with pytest.raises(CheckError):
        checks.check_verify(40, text)


@pytest.mark.parametrize(
    "text",
    [
        SOLVE_OK.replace("8 5 15", "8 6 15"),
        SOLVE_OK.replace("34 20 210", "34 20 211"),
        SOLVE_OK.replace("(b_3,a_3)", "(b_4,a_4)"),
        SOLVE_OK.replace("131 76 2926 (b_4,a_4)\n", ""),
        SOLVE_OK + "6 3 6 (b_9,a_9)\n",
        SOLVE_OK.replace("# s r average match\n", ""),
    ],
)
def test_solve(text):
    checks.check_solve(10**4, SOLVE_OK)
    with pytest.raises(CheckError):
        checks.check_solve(10**4, text)


def test_exit_codes():
    run.check_output("verify", 40, (0, VERIFY_OK, ""))
    with pytest.raises(run.Failed):
        run.check_output("witness_cli", 2600, (2, "", "error: Exceeds the limit (4300 digits)"))
    with pytest.raises(CheckError):
        run.check_output("verify", 40, (1, VERIFY_OK, ""))
