import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triavg import recurrences
from triavg import triangular as triangular_module
from triavg.exactnum import QuadElem
from triavg.recurrences import A_SPEC, B_SPEC, sequence_prefix, terms
from triavg.triangular import (
    LITERAL_SUM_CUTOFF,
    SIEVE_BLOCK,
    SIEVE_MODULI,
    TriangularWitness,
    check_pair,
    enumerate_solutions,
    prefix_sum,
    residue_masks,
    solve_r_for_s,
    solve_s_for_r,
    triangular,
    witness,
)


def test_triangular_examples():
    assert triangular(0) == 0
    assert triangular(1) == 1
    assert triangular(20) == 210


def test_triangular_rejects_negative():
    with pytest.raises(ValueError):
        triangular(-1)


@given(st.integers(min_value=1, max_value=10**4))
@settings(max_examples=30)
def test_prefix_sum_matches_literal(s):
    assert prefix_sum(s) == sum(triangular(k) for k in range(1, s + 1))


def test_check_pair_examples():
    assert check_pair(8, 5)
    assert check_pair(131, 76)
    assert not check_pair(2, 1)


def test_solve_s_for_r_examples():
    assert solve_s_for_r(5) == 8
    assert solve_s_for_r(2) is None
    assert solve_s_for_r(76) == 131


def test_solve_r_for_s_examples():
    assert solve_r_for_s(8) == 5
    assert solve_r_for_s(34) == 20
    assert solve_r_for_s(2) is None


def test_solvers_reject_nonpositive_input():
    with pytest.raises(ValueError):
        solve_s_for_r(0)
    with pytest.raises(ValueError):
        solve_r_for_s(0)


def test_enumerate_solutions_examples():
    assert enumerate_solutions(1) == [(1, 1)]
    assert enumerate_solutions(10) == [(1, 1), (8, 5)]
    assert enumerate_solutions(500) == [(1, 1), (8, 5), (34, 20), (131, 76), (493, 285)]
    with pytest.raises(ValueError):
        enumerate_solutions(0)


@pytest.mark.parametrize("s_max", [10, 500, 10**4])
def test_scan_agrees_with_recurrence_pairs(s_max):
    """The brute-force scan and the recurrence-generated pairs must coincide,
    each computed on its own."""
    scanned = enumerate_solutions(s_max)
    predicted = []
    for s, r in itertools.islice(zip(terms(B_SPEC), terms(A_SPEC)), 1, None):
        if s > s_max:
            break
        predicted.append((s, r))
    assert scanned == predicted


def test_radical_round_trip_through_both_solvers():
    for b_n, a_n in itertools.islice(zip(terms(B_SPEC), terms(A_SPEC)), 1, 41):
        assert solve_s_for_r(a_n) == b_n
        assert solve_r_for_s(b_n) == a_n


def test_parity_never_blocks_the_radical():
    # Whenever 1 + 12r + 12r^2 is a perfect square the root minus 3 is even,
    # so the parity condition never rejects a square discriminant. Checked
    # exhaustively; a counterexample would fail loudly here.
    from triavg.exactnum import is_perfect_square

    for r in range(1, 10**5 + 1):
        root = is_perfect_square(1 + 12 * r + 12 * r * r)
        if root is not None:
            assert (root - 3) % 2 == 0, f"parity blocked at r={r}"


def test_witness_examples():
    assert witness(1) == TriangularWitness(n=1, s=1, avg=1, r=1)
    assert witness(2) == TriangularWitness(n=2, s=8, avg=15, r=5)
    w4 = witness(4)
    assert (w4.s, w4.avg, w4.r) == (131, 2926, 76)
    assert w4.total == 383306


def test_witness_rejects_index_zero():
    with pytest.raises(ValueError, match="b_0"):
        witness(0)


def test_witness_reverification():
    for n in range(1, 26):
        assert witness(n).verify()


def test_tampered_witness_fails_verification():
    w = witness(3)
    assert not TriangularWitness(n=w.n, s=w.s, avg=w.avg + 1, r=w.r).verify()
    assert not TriangularWitness(n=w.n, s=w.s + 1, avg=w.avg, r=w.r).verify()


def test_witness_beyond_literal_cutoff_uses_formula():
    # b_10 = 358016 exceeds the literal-summation cutoff; the witness must
    # still verify through the closed product form.
    w = witness(10)
    assert w.s > LITERAL_SUM_CUTOFF
    assert w.avg == triangular(w.r)
    assert check_pair(w.s, w.r)


def plain_scan(s_max):
    """The reference scan: solve_r_for_s on every s from 1 to s_max."""
    return [(s, r) for s in range(1, s_max + 1) if (r := solve_r_for_s(s)) is not None]


def radicand_is_square_mod(q):
    """For each s in 0..q-1: can solve_r_for_s's radicand be a square mod q?"""
    squares = {y * y % q for y in range(q)}
    return [3 * (11 + 12 * s + 4 * s * s) % q in squares for s in range(q)]


def test_sieve_scan_agrees_with_the_plain_loop():
    # One plain scan past 810,810 serves every bound: its hits up to a bound
    # are what the plain loop returns at that bound.
    blocks = 51
    reference = plain_scan(blocks * SIEVE_BLOCK + 1)
    bounds = {1}
    for k in range(1, blocks + 1):
        bounds |= {k * SIEVE_BLOCK - 1, k * SIEVE_BLOCK, k * SIEVE_BLOCK + 1}
    for s, _ in reference:
        if s <= 10**5:
            bounds |= {s - 1, s, s + 1} - {0}
    bounds.add(random.Random(20200301).randint(1, 2 * 10**5))
    for s_max in sorted(bounds):
        assert enumerate_solutions(s_max) == [p for p in reference if p[0] <= s_max], s_max


def test_each_mask_keeps_exactly_the_classes_whose_radicand_is_a_square():
    # Exhaustive over every bit a scan can read: bit i is set if and only if
    # the radicand of i is a square mod q, so no struck s can be a solution.
    assert [q for q, _ in residue_masks()] == list(SIEVE_MODULI)
    for q, mask in residue_masks():
        width = SIEVE_BLOCK + q
        assert mask.bit_length() <= width, q
        keep = radicand_is_square_mod(q)
        expected = "".join("1" if keep[i % q] else "0" for i in range(width))
        assert format(mask, f"0{width}b")[::-1] == expected, q


@pytest.mark.parametrize("moduli", [SIEVE_MODULI, (81, 5, 7)])
def test_the_scan_decides_exactly_the_s_no_modulus_strikes(monkeypatch, moduli):
    # Under the first three moduli alone about one s in ten survives, so the
    # block edges and both ends of the range are read bit by bit.
    s_max = 2 * SIEVE_BLOCK + 100
    keep = {q: radicand_is_square_mod(q) for q in moduli}
    expected = [s for s in range(1, s_max + 1) if all(keep[q][s % q] for q in moduli)]
    table = tuple((q, mask) for q, mask in residue_masks() if q in moduli)
    decided = []

    def recording(s):
        decided.append(s)
        return solve_r_for_s(s)

    monkeypatch.setattr(triangular_module, "residue_masks", lambda: table)
    monkeypatch.setattr(triangular_module, "solve_r_for_s", recording)
    assert enumerate_solutions(s_max) == plain_scan(s_max)
    assert decided == expected


def test_every_b_n_survives_every_mask():
    # Soundness far past any scan: the recurrences serve only as the oracle
    # here, naming solutions up to b_300, about 10^171.
    masks = residue_masks()
    for n, b in enumerate(sequence_prefix(B_SPEC, 301)[1:], start=1):
        for q, mask in masks:
            assert mask >> b % q & 1, (n, q)


def test_scan_holds_one_block_whatever_s_max_is():
    # An s_max-bit mask for 10^6 would take 122 KiB on its own.
    residue_masks.cache_clear()
    tracemalloc.start()
    try:
        found = enumerate_solutions(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found[-1] == (358016, 206701)  # (b_10, a_10)
    assert peak < 128 * 1024, peak


def test_scan_never_touches_the_recurrences(monkeypatch):
    expected = plain_scan(10**4)

    def refuse(*args, **kwargs):
        raise AssertionError("the scan called the recurrences")

    for name in ("eval_closed_form", "_closed_form_at", "sequence_prefix", "terms"):
        monkeypatch.setattr(recurrences, name, refuse)
    # triavg.triangular holds _closed_form_at under its own name as well.
    monkeypatch.setattr(triangular_module, "_closed_form_at", refuse)
    # Rebuild the table under the patch too.
    residue_masks.cache_clear()
    assert enumerate_solutions(10**4) == expected


def test_witness_agrees_with_iteration():
    checked = {*range(1, 301), 30000}
    for n, (s, r) in enumerate(itertools.islice(zip(terms(B_SPEC), terms(A_SPEC)), max(checked) + 1)):
        if n in checked:
            w = witness(n)
            assert (w.s, w.r) == (s, r), n
            assert w.avg == triangular(w.r)


def test_witness_does_not_iterate(monkeypatch):
    expected = [witness(n) for n in (1, 2, 10, 500)]

    def refuse(*args, **kwargs):
        raise AssertionError("witness iterated the recurrence")

    for name in ("terms", "sequence_prefix"):
        monkeypatch.setattr(recurrences, name, refuse)
        # Also under the name triavg.triangular would hold if it imported it.
        monkeypatch.setattr(triangular_module, name, refuse, raising=False)
    assert [witness(n) for n in (1, 2, 10, 500)] == expected


def _witness_with_wrong(monkeypatch, n, wrong_spec, offset):
    """witness(n) with the term of wrong_spec (B_SPEC or A_SPEC) moved by offset."""
    right = recurrences._closed_form_at

    def wrong_term(spec, power, index):
        return right(spec, power, index) + (offset if spec == wrong_spec else 0)

    monkeypatch.setattr(triangular_module, "_closed_form_at", wrong_term)
    return witness(n)


@pytest.mark.parametrize("n", [2, 40])
def test_witness_rejects_an_s_with_a_non_integral_average(monkeypatch, n):
    # b_n is 1 or 2 mod 3, so b_n + 1 or b_n + 2 is 0 mod 3, and then
    # (s + 1)(s + 2)/6, the average, is not an integer.
    offset = 3 - next(itertools.islice(terms(B_SPEC), n, None)) % 3
    with pytest.raises(ArithmeticError, match="not integral"):
        _witness_with_wrong(monkeypatch, n, B_SPEC, offset)


@pytest.mark.parametrize("n", [2, 40])
def test_witness_rejects_an_s_whose_average_is_not_t_r(monkeypatch, n):
    # b_n + 3 keeps the residue mod 3, so the average stays integral.
    with pytest.raises(ArithmeticError, match="not the r-th triangular number"):
        _witness_with_wrong(monkeypatch, n, B_SPEC, 3)


@pytest.mark.parametrize("n", [2, 40])
def test_witness_rejects_an_r_whose_triangular_number_is_not_the_average(monkeypatch, n):
    # The average of the first b_n triangular numbers is still an integer,
    # but it is T_{a_n}, not T_{a_n + 1}.
    with pytest.raises(ArithmeticError, match="not the r-th triangular number"):
        _witness_with_wrong(monkeypatch, n, A_SPEC, 1)


@pytest.mark.parametrize("n", [1, 2, 300, 30000])
def test_witness_raises_alpha_to_one_power(monkeypatch, n):
    powers = []
    power = QuadElem.__pow__

    def counting(self, exponent):
        powers.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(QuadElem, "__pow__", counting)
    assert witness(n).verify()
    assert powers == [n]


def test_witness_still_runs_the_literal_sum_up_to_the_cutoff(monkeypatch):
    # b_9 = 95,929 is under LITERAL_SUM_CUTOFF and b_10 = 358,016 is over it,
    # so a literal sum that loses a term breaks witness(9) alone.
    deep = witness(10)
    accumulate = itertools.accumulate

    def losing_t1(iterable):
        sums = accumulate(iterable)
        next(sums)
        return sums

    monkeypatch.setattr(itertools, "accumulate", losing_t1)
    with pytest.raises(ArithmeticError, match="prefix sum mismatch at s=95929"):
        witness(9)
    assert witness(10) == deep
