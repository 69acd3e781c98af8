import decimal
import functools
import itertools
import json
import random
import subprocess
import sys

import pytest

import triavg.cli as cli
from triavg.cli import PREFIX_WARN_THRESHOLD, _unlimited_int_digits, main, parse_bfile
from triavg.recurrences import A_SPEC, B_SPEC, RecurrenceSpec, eval_iterative, sequence_prefix

FORMATS = ("plain", "bfile", "csv", "json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_plain(capsys):
    code, out, err = run_cli(capsys, "gen", "a", "--count", "6")
    assert code == 0
    assert out == "0 1 5 20 76 285\n"
    assert err == ""


def test_gen_plain_b(capsys):
    code, out, _ = run_cli(capsys, "gen", "b", "--count", "6")
    assert code == 0
    assert out == "-1 1 8 34 131 493\n"


def test_gen_bfile(capsys):
    code, out, _ = run_cli(capsys, "gen", "b", "--count", "6", "--format", "bfile")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert "offset 0" in lines[0]
    assert lines[1] == "0 -1"
    assert lines[-1] == "5 493"


def test_bfile_round_trip(capsys):
    _, out, _ = run_cli(capsys, "gen", "u", "--count", "20", "--format", "bfile")
    pairs = parse_bfile(out)
    assert [i for i, _ in pairs] == list(range(20))
    assert [v for _, v in pairs] == sequence_prefix("u", 20)


def test_gen_csv(capsys):
    code, out, _ = run_cli(capsys, "gen", "z", "--count", "4", "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,1\n2,2\n3,5\n"


def test_gen_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "a", "--count", "7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0] == {"n": 0, "value": "0"}
    assert data[6] == {"n": 6, "value": "1065"}
    assert all(isinstance(item["value"], str) for item in data)


def test_gen_custom_matches_named(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "custom", "--k", "1", "--w0", "0", "--w1", "1", "--count", "6"
    )
    assert code == 0
    assert out == "0 1 5 20 76 285\n"


def test_gen_custom_requires_all_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "custom", "--k", "1", "--count", "3")
    assert code == 2
    assert "custom" in err


def test_gen_rejects_spec_flags_on_named_sequences(capsys):
    code, _, err = run_cli(capsys, "gen", "a", "--k", "1", "--count", "3")
    assert code == 2
    assert "custom" in err


def test_gen_unknown_sequence(capsys):
    code, _, err = run_cli(capsys, "gen", "nope", "--count", "3")
    assert code == 2
    assert "unknown sequence" in err


def test_gen_rejects_zero_count(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "a", "--count", "0"])
    assert excinfo.value.code == 2


def test_gen_case_insensitive_letters(capsys):
    code, out, _ = run_cli(capsys, "gen", "f", "--count", "6")
    assert code == 0
    assert out == "0 1 4 15 56 209\n"


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "a.bfile"
    code, out, _ = run_cli(
        capsys, "gen", "a", "--count", "4", "--format", "bfile", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert parse_bfile(target.read_text()) == [(0, 0), (1, 1), (2, 5), (3, 20)]



@pytest.mark.parametrize(
    "argv, first_work",
    [
        (["gen", "a", "--count", "3"], "sequence_prefix"),
        (["gen", "z", "--count", "3"], "numerators"),
        (["verify", "--max-n", "4"], "run_all"),
        (["solve", "--max-s", "10"], "enumerate_solutions"),
        (["witness", "2"], "witness"),
    ],
    ids=["gen", "gen-z", "verify", "solve", "witness"],
)
def test_unwritable_out_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, argv, first_work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before --out was opened")

    monkeypatch.setattr(f"triavg.cli.{first_work}", no_work)
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


def test_main_builds_the_parser_once_and_dispatches_at_call_time(capsys, monkeypatch):
    real_build = cli.build_parser
    builds = []

    def counting_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    assert run_cli(capsys, "gen", "a", "--count", "3")[:2] == (0, "0 1 5\n")
    # Replaced after the tree was built, as a tracer or a test does.
    solved = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: solved.append(args.max_s) or 0)
    assert main(["solve", "--max-s", "7"]) == 0
    assert solved == [7]
    assert builds == [1]


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.endswith("PASS") for line in lines)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "congruences", "--max-n", "100")
    assert code == 0
    assert out == "congruences [0..100] PASS\n"


def test_verify_bisection_minimal_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bisection", "--max-n", "1")
    assert code == 0
    assert out == "bisection [0..1] PASS\n"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope", "--max-n", "4")
    assert code == 2
    assert "unknown suite" in err


def test_solve_table(capsys):
    code, out, _ = run_cli(capsys, "solve", "--max-s", "10")
    assert code == 0
    assert out.splitlines() == [
        "# s r average match",
        "1 1 1 (b_1,a_1)",
        "8 5 15 (b_2,a_2)",
    ]


def test_solve_single_row(capsys):
    code, out, _ = run_cli(capsys, "solve", "--max-s", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["1 1 1 (b_1,a_1)"]


def test_solve_five_rows_to_500(capsys):
    code, out, _ = run_cli(capsys, "solve", "--max-s", "500")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 5
    assert rows[-1] == "493 285 40755 (b_5,a_5)"


def test_solve_verifies_no_witness_past_the_bound(capsys, monkeypatch):
    from triavg.cli import witness

    requested = []

    def recording_witness(n):
        requested.append(n)
        return witness(n)

    monkeypatch.setattr("triavg.cli.witness", recording_witness)
    code, out, _ = run_cli(capsys, "solve", "--max-s", "500")
    assert code == 0
    assert len(out.splitlines()) == 6
    # b_5 = 493 <= 500 < b_6 = 1844.
    assert requested == [1, 2, 3, 4, 5]


def test_witness_output(capsys):
    code, out, _ = run_cli(capsys, "witness", "2")
    assert code == 0
    assert out == "n=2 b=8 sum=120 avg=15 a=5 VERIFIED\n"


def test_witness_trivial_case(capsys):
    code, out, _ = run_cli(capsys, "witness", "1")
    assert code == 0
    assert out == "n=1 b=1 sum=1 avg=1 a=1 VERIFIED\n"


def test_witness_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "witness", "0")
    assert code == 2
    assert out == ""
    assert "b_0" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # Exit 2 means bad input and nothing else; a ValueError from inside the
    # package is a fault and must surface as one.
    def broken_scan(s_max):
        raise ValueError("internal fault")

    monkeypatch.setattr("triavg.cli.enumerate_solutions", broken_scan)
    with pytest.raises(ValueError, match="internal fault"):
        main(["solve", "--max-s", "10"])
    assert capsys.readouterr().err == ""


def test_gen_warns_on_huge_prefix(capsys):
    # The all-zero custom spec keeps a million-term request cheap.
    code, out, err = run_cli(
        capsys,
        "gen", "custom", "--k", "0", "--w0", "0", "--w1", "0",
        "--count", "1000001",
    )
    assert code == 0
    assert "warning" in err
    assert out.count("0") == 1000001


def test_gen_warns_before_building_the_prefix(capsys, monkeypatch):
    stderr_at_work = []

    def stub_prefix(spec, count):
        stderr_at_work.append(capsys.readouterr().err)
        return [0]

    monkeypatch.setattr("triavg.cli.sequence_prefix", stub_prefix)
    code = main(["gen", "a", "--count", str(PREFIX_WARN_THRESHOLD + 1)])
    assert code == 0
    assert len(stderr_at_work) == 1
    assert "warning" in stderr_at_work[0]


def _digit_cap():
    """Python's int->str digit cap, or None before 3.10.7, which has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_witness_past_the_int_str_digit_cap(capsys):
    # Python's default cap is 4300 digits; the prefix sum of witness 2507
    # is the first to pass it.
    cap = _digit_cap()
    code, out, err = run_cli(capsys, "witness", "2507")
    assert (code, err) == (0, "")
    assert _digit_cap() == cap
    s, r = eval_iterative(B_SPEC, 2507), eval_iterative(A_SPEC, 2507)
    avg = r * (r + 1) // 2
    with _unlimited_int_digits():
        assert len(str(s * avg)) == 4301
        assert out == f"n=2507 b={s} sum={s * avg} avg={avg} a={r} VERIFIED\n"


def test_gen_past_the_int_str_digit_cap(capsys):
    # a_7519, the last of 7520 terms, is the first term of a with 4301 digits.
    cap = _digit_cap()
    code, out, err = run_cli(capsys, "gen", "a", "--count", "7520")
    assert (code, err) == (0, "")
    assert _digit_cap() == cap
    terms = out.split()
    assert len(terms) == 7520
    with _unlimited_int_digits():
        last = str(eval_iterative(A_SPEC, 7519))
    assert len(last) == 4301
    assert terms[-1] == last


def test_bfile_round_trip_past_the_int_str_digit_cap(tmp_path, capsys):
    # a_7519, the last of 7520 terms, is the first term of a with 4301 digits.
    target = tmp_path / "a.bfile"
    code, _, err = run_cli(
        capsys, "gen", "a", "--count", "7520", "--format", "bfile", "--out", str(target)
    )
    assert (code, err) == (0, "")
    cap = _digit_cap()
    pairs = parse_bfile(target.read_text())
    assert _digit_cap() == cap
    assert pairs == list(enumerate(sequence_prefix("a", 7520)))


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    from triavg.cli import SUITES

    def broken_check(w):
        return {0: [(4, 5)], 1: [(56, 57)]}.get(w.n, [])

    monkeypatch.setitem(SUITES, "lucas", (0, frozenset(), broken_check))
    code, out, _ = run_cli(capsys, "verify", "--suite", "lucas", "--max-n", "4")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "lucas [0..4] FAIL (2 failures)"
    assert lines[1] == "  n=0 lhs=4 rhs=5"
    assert lines[2] == "  n=1 lhs=56 rhs=57"


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "gen", "v", "--count", "30", "--format", "json")
    _, second, _ = run_cli(capsys, "gen", "v", "--count", "30", "--format", "json")
    assert first == second
    _, third, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "8")
    _, fourth, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "8")
    assert third == fourth


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "triavg", "gen", "a", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "0 1 5\n"


def test_subprocess_exit_codes():
    ok = subprocess.run(
        [sys.executable, "-m", "triavg", "verify", "--suite", "lucas", "--max-n", "4"],
        capture_output=True,
    )
    assert ok.returncode == 0
    usage = subprocess.run(
        [sys.executable, "-m", "triavg", "witness", "0"],
        capture_output=True,
    )
    assert usage.returncode == 2


def int_digits(values):
    with _unlimited_int_digits():
        return [str(v) for v in values]


def int_reference(name, digits, fmt):
    """gen's text made from str() of each int, the way it was before Decimal output."""
    if fmt == "plain":
        return " ".join(digits) + "\n"
    if fmt == "bfile":
        return f"# {name} offset 0\n" + "".join(f"{i} {d}\n" for i, d in enumerate(digits))
    if fmt == "csv":
        return "".join(f"{i},{d}\n" for i, d in enumerate(digits))
    return json.dumps([{"n": i, "value": d} for i, d in enumerate(digits)]) + "\n"


@pytest.fixture
def decimal_always(monkeypatch):
    """Send every family request through the Decimal path, however small."""
    monkeypatch.setattr("triavg.cli.DECIMAL_FROM_BITS", -1)


@pytest.fixture
def decimal_calls(monkeypatch):
    """The counts that gen's Decimal recurrence was asked for."""
    calls = []
    real = cli._decimal_prefix

    def recording(spec, count):
        calls.append(count)
        return real(spec, count)

    monkeypatch.setattr("triavg.cli._decimal_prefix", recording)
    return calls


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("letter", "abuvLF")
def test_gen_decimal_output_matches_int_output(capsys, decimal_always, decimal_calls, letter, fmt):
    for count in (1, 2, 3, 40):
        code, out, err = run_cli(capsys, "gen", letter, "--count", str(count), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == int_reference(letter, int_digits(sequence_prefix(letter, count)), fmt)
    assert decimal_calls == [1, 2, 3, 40]


@pytest.mark.parametrize("fmt", FORMATS)
def test_gen_small_requests_stay_on_int_formatting(capsys, decimal_calls, fmt):
    # A 512-term request ends below DECIMAL_FROM_BITS, where int->str is cheaper.
    code, out, _ = run_cli(capsys, "gen", "v", "--count", "512", "--format", fmt)
    assert code == 0
    assert out == int_reference("v", int_digits(sequence_prefix("v", 512)), fmt)
    assert decimal_calls == []


@functools.cache
def b_digits_7520():
    return int_digits(sequence_prefix("b", 7520))


@pytest.mark.parametrize("fmt", FORMATS)
def test_gen_decimal_output_past_the_int_str_digit_cap(capsys, decimal_calls, fmt):
    # The last terms of b pass 4300 digits; a request this large prints
    # through Decimal by default.
    cap = _digit_cap()
    code, out, err = run_cli(capsys, "gen", "b", "--count", "7520", "--format", fmt)
    assert (code, err) == (0, "")
    assert decimal_calls == [7520]
    assert _digit_cap() == cap
    assert out == int_reference("b", b_digits_7520(), fmt)


def test_gen_custom_specs_with_negative_terms_and_zeros(capsys, decimal_always):
    # Every spec with coefficients in -2..2, plus wider random ones: negative
    # coefficients, terms that cross or land on zero, and never a "-0".
    rng = random.Random(6)
    specs = list(itertools.product(range(-2, 3), repeat=3))
    specs += [tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(20)]
    zeros_after_negatives = 0
    for k, w0, w1 in specs:
        values = sequence_prefix(RecurrenceSpec(k, w0, w1), 12)
        code, out, err = run_cli(
            capsys, "gen", "custom", "--k", str(k), "--w0", str(w0), "--w1", str(w1), "--count", "12"
        )
        assert (code, err) == (0, "")
        assert out == " ".join(map(str, values)) + "\n"
        assert not any(term.startswith("-0") for term in out.split())
        zeros_after_negatives += any(a < 0 and b == 0 for a, b in zip(values, values[1:]))
    assert zeros_after_negatives > 0


def test_gen_custom_zero_crossing_by_hand(capsys, decimal_always):
    code, out, _ = run_cli(capsys, "gen", "custom", "--k", "1", "--w0", "-3", "--w1", "-1", "--count", "5")
    assert code == 0
    assert out == "-3 -1 0 2 9\n"


def test_gen_ignores_the_callers_decimal_context(capsys, decimal_always):
    expected = int_reference("v", int_digits(sequence_prefix("v", 300)), "csv")
    with decimal.localcontext() as caller:
        decimal.getcontext().prec = 5
        caller.rounding = decimal.ROUND_FLOOR
        code, out, err = run_cli(capsys, "gen", "v", "--count", "300", "--format", "csv")
        assert decimal.getcontext().prec == 5
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize(
    "shifts",
    [{0: 1}, {20: -1}, {39: 10**40}, {3: 1, 17: -1}, {0: -(10**30), 39: 10**30}],
    ids=["first", "middle", "last-large", "pair", "pair-large"],
)
def test_gen_rejects_corrupted_decimal_terms(capsys, monkeypatch, decimal_always, shifts):
    # One term off, or two off by +d and -d so that their sum is unchanged.
    real = cli._decimal_prefix

    def corrupted(spec, count):
        terms = real(spec, count)
        with decimal.localcontext(cli.EXACT_DECIMAL):
            for index, delta in shifts.items():
                terms[index] += delta
        return terms

    monkeypatch.setattr("triavg.cli._decimal_prefix", corrupted)
    code, out, err = run_cli(capsys, "gen", "a", "--count", "40", "--format", "bfile")
    assert code == 1
    assert out == ""
    assert "verification error" in err
