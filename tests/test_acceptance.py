"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact integer or rational arithmetic; the only
tolerances are the per-criterion wall-clock budgets, asserted directly.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.
"""

import random
import time
from contextlib import contextmanager
from itertools import islice

from triavg.cli import main
from triavg.convergents import denominators, numerators
from triavg.recurrences import (
    L_SPEC,
    NAMED_SPECS,
    U_SPEC,
    RecurrenceSpec,
    eval_closed_form,
    eval_via_L,
    gf_coefficients,
    sequence_prefix,
    terms,
)
from triavg.triangular import enumerate_solutions, triangular, witness

# The ten (s, r) pairs with s <= 10^6, generated by the b/a recurrences and
# independently reproduced by the brute-force scan (the two computations
# share no code path).
SOLUTION_PAIRS_TO_1E6 = [
    (1, 1),
    (8, 5),
    (34, 20),
    (131, 76),
    (493, 285),
    (1844, 1065),
    (6886, 3976),
    (25703, 14840),
    (95929, 55385),
    (358016, 206701),
]


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"criterion {number} ({name}): FAIL (took {elapsed:.2f}s, budget {budget_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s < {budget_seconds}s]")


def test_criterion_1_sequence_values_via_cli(capsys):
    with criterion(1, "first terms of a and b via the CLI", 1.0):
        assert main(["gen", "a", "--count", "6"]) == 0
        assert capsys.readouterr().out == "0 1 5 20 76 285\n"
        assert main(["gen", "b", "--count", "6"]) == 0
        assert capsys.readouterr().out == "-1 1 8 34 131 493\n"


def test_criterion_2_three_way_evaluator_agreement():
    with criterion(2, "evaluator agreement for all named specs, n < 64", 5.0):
        for spec in NAMED_SPECS.values():
            series = gf_coefficients(spec, 64)
            for n, direct in enumerate(islice(terms(spec), 64)):
                assert eval_closed_form(spec, n) == direct
                assert series[n] == direct
                if n >= 1:
                    assert eval_via_L(spec, n) == direct


def test_criterion_3_main_statement_at_desk_scale():
    with criterion(3, "witnesses verify for n = 1..40", 5.0):
        for n in range(1, 41):
            record = witness(n)
            assert record.avg == triangular(record.r)
            assert record.total == record.s * record.avg
            assert record.verify()
        # Near n = 40 the prefix sums run past 40 decimal digits.
        assert len(str(witness(40).total)) > 40


def test_criterion_4_independent_diophantine_oracle():
    with criterion(4, "brute-force scan to 10^6 equals recurrence pairs", 60.0):
        scanned = enumerate_solutions(10**6)
        predicted = []
        pairs = zip(terms(RecurrenceSpec(3, -1, 1)), terms(RecurrenceSpec(1, 0, 1)))
        for s, r in islice(pairs, 1, None):
            if s > 10**6:
                break
            predicted.append((s, r))
        assert scanned == predicted == SOLUTION_PAIRS_TO_1E6
        assert set(scanned) == set(SOLUTION_PAIRS_TO_1E6)


def test_criterion_5_full_identity_suite_via_cli(capsys):
    with criterion(5, "verify --suite all --max-n 200", 10.0):
        code = main(["verify", "--suite", "all", "--max-n", "200"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.endswith("PASS") for line in lines)


def test_criterion_6_bisection_and_convergent_quality():
    with criterion(6, "u_n = z_{2n+1}, even-index law, Pell-like errors", 1.0):
        ladder = list(islice(zip(numerators(), denominators()), 2 * 64 + 2))
        z = [p for p, _ in ladder]
        u = sequence_prefix(U_SPEC, 65)
        L = sequence_prefix(L_SPEC, 65)
        for n in range(65):
            assert u[n] == z[2 * n + 1]
        for m in range(65):
            assert L[m] % 2 == 0
            assert z[2 * m] == L[m] // 2
        for p, q in ladder:
            assert abs(p * p - 3 * q * q) in (1, 2)


def test_criterion_7_randomized_recurrence_property():
    with criterion(7, "1000 random specs: recurrence and closed form", 10.0):
        rng = random.Random(20260808)
        bound = 2**32
        for _ in range(1000):
            spec = RecurrenceSpec(
                k=rng.randint(-bound, bound),
                w0=rng.randint(-bound, bound),
                w1=rng.randint(-bound, bound),
            )
            w = sequence_prefix(spec, 21)
            for n in range(2, 21):
                assert w[n] - 4 * w[n - 1] + w[n - 2] == spec.k
            for n in range(21):
                assert eval_closed_form(spec, n) == w[n]


def test_criterion_8_deep_witness():
    # One Z[sqrt(3)] power for both terms, and checks built from their two
    # squares, keep this near 0.035 s on a shared 2-CPU machine; iterating
    # the recurrences 10^5 steps for each term takes over 2.5 s.
    with criterion(8, "witness(10^5) verifies", 1.5):
        record = witness(10**5)
        assert record.avg == triangular(record.r)
        assert record.s.bit_length() > 10**5


def test_criterion_9_full_identity_suite_at_depth_via_cli(capsys):
    # Past n of about 527 every stream's squares are carried rather than
    # multiplied; the run takes about 0.17 s on a 2-CPU machine.
    with criterion(9, "verify --suite all --max-n 3000", 1.0):
        code = main(["verify", "--suite", "all", "--max-n", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.endswith("PASS") for line in lines)
