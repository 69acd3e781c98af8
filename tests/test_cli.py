import decimal
import functools
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triavg.cli as cli
import triavg.convergents as convergents
from triavg.cli import PREFIX_WARN_THRESHOLD, _unlimited_int_digits, main
from triavg.convergents import numerators
from triavg.exactnum import QuadElem
from triavg.recurrences import A_SPEC, B_SPEC, RecurrenceSpec, sequence_prefix, terms

FORMATS = ("plain", "bfile", "csv", "json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_bfile(text):
    """Read (index, value) pairs back out of b-file text, skipping comments.

    Values of any length parse, so every b-file that gen writes reads back.
    """
    pairs = []
    with _unlimited_int_digits():
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            index_text, value_text = line.split(" ")
            pairs.append((int(index_text), int(value_text)))
    return pairs


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


@pytest.mark.parametrize(
    "seq, expected",
    [("f", "0 1 4 15 56 209\n"), ("Z", "1 1 2 5 7 19\n")],
    ids=["f", "Z"],
)
def test_gen_case_insensitive_letters(capsys, seq, expected):
    code, out, _ = run_cli(capsys, "gen", seq, "--count", "6")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "seq, name",
    [
        ("l", "L"),
        ("f", "F"),
        ("A", "a"),
        ("Z", "z"),
        ("Custom", "custom(k=1,w0=0,w1=1)"),
        ("CUSTOM", "custom(k=1,w0=0,w1=1)"),
    ],
)
def test_gen_any_case_keeps_the_output_name(capsys, seq, name):
    flags = ["--k", "1", "--w0", "0", "--w1", "1"] if seq.lower() == "custom" else []
    code, out, _ = run_cli(capsys, "gen", seq, *flags, "--count", "3", "--format", "bfile")
    assert code == 0
    assert out.splitlines()[0] == f"# {name} offset 0"
    if flags:
        assert out.splitlines()[1:] == ["0 0", "1 1", "2 5"]


@pytest.mark.parametrize("seq", ["Custom", "CUSTOM"])
def test_gen_custom_in_any_case_needs_its_flags(capsys, seq):
    code, out, err = run_cli(capsys, "gen", seq, "--count", "3")
    assert (code, out, err) == (2, "", "error: custom sequences need all of --k, --w0, --w1\n")


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
        (["gen", "a", "--count", "3"], "terms"),
        (["gen", "z", "--count", "3"], "_ladder"),
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


@pytest.mark.parametrize(
    "argv, message",
    [
        # Counts past the warning threshold: a usage error comes with no warning.
        (["gen", "q", "--count", str(PREFIX_WARN_THRESHOLD + 1)], "unknown sequence 'q'; expected a, b, u, v, L, F, z or custom"),
        (["gen", "custom", "--k", "1", "--count", str(PREFIX_WARN_THRESHOLD + 1)], "custom sequences need all of --k, --w0, --w1"),
        (["verify", "--suite", "nope"], "unknown suite 'nope'; expected all or one of: " + ", ".join(sorted(cli.SUITES))),
        (["witness", "0"], "witness requires n >= 1: b_0 = -1 is not a valid prefix length"),
    ],
    ids=["gen-unknown", "gen-custom", "verify-suite", "witness-0"],
)
def test_a_usage_error_leaves_an_existing_out_file_as_it_is(tmp_path, capsys, argv, message):
    target = tmp_path / "keep.txt"
    target.write_text("earlier output\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert target.read_text() == "earlier output\n"


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


def test_solve_raises_alpha_to_one_power_per_index(capsys, monkeypatch):
    powers = []
    power = QuadElem.__pow__

    def counting(self, exponent):
        powers.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(QuadElem, "__pow__", counting)
    code, _, _ = run_cli(capsys, "solve", "--max-s", "500")
    assert code == 0
    # The stopping test reads b_n by iteration; each witness(n) makes the power.
    assert powers == [1, 2, 3, 4, 5]


def test_solve_fails_when_iteration_and_closed_form_disagree_on_b(tmp_path, capsys, monkeypatch):
    real_terms = cli.terms

    def one_wrong_b(spec):
        for n, b in enumerate(real_terms(spec)):
            yield b + (n == 3)

    monkeypatch.setattr("triavg.cli.terms", one_wrong_b)
    message = "verification error: b_3 = 35 by iteration, but the closed form disagrees\n"
    assert run_cli(capsys, "solve", "--max-s", "500") == (1, "", message)
    target = tmp_path / "solve.txt"
    assert run_cli(capsys, "solve", "--max-s", "500", "--out", str(target)) == (1, "", message)
    assert target.read_text() == ""


def test_solve_inverts_each_hit_and_fails_when_one_disagrees(tmp_path, capsys, monkeypatch):
    real_invert = cli.solve_s_for_r
    inverted = []

    def recording_invert(r):
        inverted.append(r)
        return real_invert(r)

    monkeypatch.setattr("triavg.cli.solve_s_for_r", recording_invert)
    assert run_cli(capsys, "solve", "--max-s", "500")[0] == 0
    assert inverted == [1, 5, 20, 76, 285]
    monkeypatch.setattr("triavg.cli.solve_s_for_r", lambda r: real_invert(r) + (r == 20))
    message = "verification error: the scan paired s = 34 with r = 20, but r inverts to s = 35\n"
    assert run_cli(capsys, "solve", "--max-s", "500") == (1, "", message)
    target = tmp_path / "solve.txt"
    assert run_cli(capsys, "solve", "--max-s", "500", "--out", str(target)) == (1, "", message)
    assert target.read_text() == ""


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

    def stub_terms(spec):
        stderr_at_work.append(capsys.readouterr().err)
        return iter([0])

    monkeypatch.setattr("triavg.cli.terms", stub_terms)
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
    s, r = next(itertools.islice(zip(terms(B_SPEC), terms(A_SPEC)), 2507, None))
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
        last = str(sequence_prefix(A_SPEC, 7520)[-1])
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


def prefix_digits(seq, count):
    """str() of the first count terms of a letter's sequence, z included."""
    if seq == "z":
        return int_digits(itertools.islice(numerators(), count))
    return int_digits(sequence_prefix(seq, count))


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
    """Send every request through the Decimal path, however small."""
    monkeypatch.setattr("triavg.cli.DECIMAL_FROM_BITS", -1)


def wrap_gen_requests(monkeypatch, wrap):
    """Pass the (name, stream, residues) of each gen request through wrap."""
    real = cli._gen_request
    monkeypatch.setattr("triavg.cli._gen_request", lambda args: wrap(*real(args)))


def wrap_streams(monkeypatch, kind, wrap):
    """Pass each stream of this kind (int or Decimal) that gen draws through wrap; the rest stay as they are."""
    wrap_gen_requests(
        monkeypatch,
        lambda name, stream, residues: (
            name,
            lambda num: wrap(stream(num)) if num is kind else stream(num),
            residues,
        ),
    )


def wrap_decimal_streams(monkeypatch, wrap):
    """Pass each Decimal stream that gen draws through wrap; int streams and residue runs stay as they are."""
    wrap_streams(monkeypatch, Decimal, wrap)


def wrap_residue_runs(monkeypatch, wrap):
    """Pass each residue run that gen draws through wrap; its streams stay as they are."""
    wrap_gen_requests(monkeypatch, lambda name, stream, residues: (name, stream, lambda: wrap(residues())))


def recorder(calls):
    """A wrap that appends to calls how many terms each stream it wraps was drawn for."""

    def recording(stream):
        calls.append(0)
        for term in stream:
            calls[-1] += 1
            yield term

    return recording


@pytest.fixture
def decimal_calls(monkeypatch):
    """How many terms each of gen's Decimal streams was drawn for, skipped ones included."""
    calls = []
    wrap_decimal_streams(monkeypatch, recorder(calls))
    return calls


@pytest.fixture
def int_calls(monkeypatch):
    """How many terms each of gen's int streams was drawn for."""
    calls = []
    wrap_streams(monkeypatch, int, recorder(calls))
    return calls


@pytest.fixture
def residue_calls(monkeypatch):
    """How many terms each of gen's residue runs was drawn for, skipped ones included."""
    calls = []
    wrap_residue_runs(monkeypatch, recorder(calls))
    return calls


@pytest.fixture
def decimal_checks(monkeypatch):
    """The length of each Decimal block gen checks, and so prints."""
    checks = []
    real = cli._fingerprint

    def recording(terms):
        terms = list(terms)
        if isinstance(terms[0], Decimal):
            checks.append(len(terms))
        return real(terms)

    monkeypatch.setattr("triavg.cli._fingerprint", recording)
    return checks


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("letter", "abuvLFz")
def test_gen_decimal_output_matches_int_output(capsys, decimal_always, decimal_calls, letter, fmt):
    for count in (1, 2, 3, 40):
        code, out, err = run_cli(capsys, "gen", letter, "--count", str(count), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == int_reference(letter, prefix_digits(letter, count), fmt)
    assert decimal_calls == [1, 2, 3, 40]


@pytest.mark.parametrize("fmt", FORMATS)
def test_gen_small_requests_stay_on_int_formatting(capsys, decimal_calls, residue_calls, fmt):
    # A 512-term request ends below DECIMAL_FROM_BITS, where int->str is cheaper.
    code, out, _ = run_cli(capsys, "gen", "v", "--count", "512", "--format", fmt)
    assert code == 0
    assert out == int_reference("v", int_digits(sequence_prefix("v", 512)), fmt)
    assert decimal_calls == []
    assert residue_calls == []


@functools.cache
def b_digits_7520():
    return int_digits(sequence_prefix("b", 7520))


@pytest.mark.parametrize("fmt", FORMATS)
def test_gen_decimal_output_past_the_int_str_digit_cap(capsys, decimal_calls, decimal_checks, fmt):
    # The last terms of b pass 4300 digits; a request this large prints
    # through Decimal by default.
    cap = _digit_cap()
    code, out, err = run_cli(capsys, "gen", "b", "--count", "7520", "--format", fmt)
    assert (code, err) == (0, "")
    # One Decimal stream, drawn past the terms before the switch and then
    # printed from the first block that ends past DECIMAL_FROM_BITS.
    assert decimal_calls == [7520]
    switch = 7520 - sum(decimal_checks)
    assert 0 < switch < 7520 - 6000
    b = sequence_prefix(B_SPEC, switch + cli.BLOCK)
    assert b[switch - 1].bit_length() <= cli.DECIMAL_FROM_BITS
    assert b[-1].bit_length() > cli.DECIMAL_FROM_BITS
    assert _digit_cap() == cap
    assert out == int_reference("b", b_digits_7520(), fmt)


def test_gen_draws_the_int_stream_no_further_than_the_switch_block(capsys, int_calls, residue_calls, decimal_checks):
    # Past the switch the Decimal blocks are checked against the residue
    # run, so the full-size int terms after the switch block are never made.
    code, out, err = run_cli(capsys, "gen", "b", "--count", "7000", "--format", "bfile")
    assert (code, err) == (0, "")
    switch = 7000 - sum(decimal_checks)
    assert 0 < switch < 7000 - 6000
    assert int_calls == [switch + decimal_checks[0]]
    assert residue_calls == [7000]
    assert out == int_reference("b", b_digits_7520()[:7000], "bfile")


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


def test_gen_ignores_the_callers_decimal_context(capsys, monkeypatch, decimal_checks):
    # Switching at block 0, and after blocks of 16 terms once they pass 200
    # bits, so that the skipped Decimal steps, of up to 60 digits for v,
    # must run exactly too.
    for seq, bits, block in [("v", -1, cli.BLOCK), ("v", 200, 16), ("z", 200, 16)]:
        monkeypatch.setattr("triavg.cli.DECIMAL_FROM_BITS", bits)
        monkeypatch.setattr("triavg.cli.BLOCK", block)
        decimal_checks.clear()
        expected = int_reference(seq, prefix_digits(seq, 300), "csv")
        with decimal.localcontext() as caller:
            decimal.getcontext().prec = 5
            caller.rounding = decimal.ROUND_FLOOR
            code, out, err = run_cli(capsys, "gen", seq, "--count", "300", "--format", "csv")
            assert decimal.getcontext().prec == 5
        assert (code, err) == (0, "")
        assert out == expected
        switch = 300 - sum(decimal_checks)
        assert (switch == 0) if bits < 0 else (0 < switch < 300)


def corrupt_decimal_streams(monkeypatch, shifts):
    """Add shifts[n] to term n of each Decimal stream gen draws."""

    def corrupted(stream):
        for n, term in enumerate(stream):
            yield term + shifts.get(n, 0)

    wrap_decimal_streams(monkeypatch, corrupted)


def corruption_cases(shapes):
    """Each shape of shifts for a, under its own id, and for u and z, under u-<id> and z-<id>.

    a steps with + k and u, whose k is 0, without it.
    """
    return pytest.mark.parametrize(
        "seq, shifts",
        [(seq, shifts) for seq in "auz" for shifts in shapes.values()],
        ids=[*shapes, *(f"{seq}-{name}" for seq in "uz" for name in shapes)],
    )


@corruption_cases(
    {
        "first": {0: 1},
        "middle": {20: -1},
        "last-large": {39: 10**40},
        "pair": {3: 1, 17: -1},
        "pair-large": {0: -(10**30), 39: 10**30},
    }
)
def test_gen_rejects_corrupted_decimal_terms(tmp_path, capsys, monkeypatch, decimal_always, seq, shifts):
    # One term off, or two off by +d and -d so that their sum is unchanged.
    # All 40 terms are one check block, so nothing at all is written.
    corrupt_decimal_streams(monkeypatch, shifts)
    code, out, err = run_cli(capsys, "gen", seq, "--count", "40", "--format", "bfile")
    assert code == 1
    assert out == ""
    assert "verification error" in err
    target = tmp_path / "out.bfile"
    code, out, err = run_cli(capsys, "gen", seq, "--count", "40", "--format", "bfile", "--out", str(target))
    assert code == 1
    assert out == ""
    assert "verification error" in err
    assert target.read_text() == ""


@corruption_cases(
    {
        "one": {29: 1},
        "large": {25: 10**30},
        "pair-split": {22: 1, 33: -1},
        "pair-last": {38: -7, 39: 7},
    }
)
def test_gen_stops_before_a_corrupted_block_past_the_first(tmp_path, capsys, monkeypatch, decimal_always, seq, shifts):
    # Small blocks: rows of the blocks that passed go out before the bad
    # block is reached, and no row from the bad block on does. A +d/-d pair
    # split across blocks moves the first block's sum.
    monkeypatch.setattr("triavg.cli.BLOCK", 4)
    monkeypatch.setattr("triavg.cli.PIECE_CHARS", 16)
    corrupt_decimal_streams(monkeypatch, shifts)
    reference = int_reference(seq, prefix_digits(seq, 40), "bfile").splitlines()
    code, out, err = run_cli(capsys, "gen", seq, "--count", "40", "--format", "bfile")
    assert code == 1
    assert "verification error" in err
    first, last = map(int, err.split("Decimal terms ")[1].split()[0].split(".."))
    assert first <= min(shifts) <= last
    printed = out.split("\n")
    assert 1 < len(printed) <= 1 + first
    assert printed == reference[: len(printed)]
    target = tmp_path / "out.bfile"
    code, out, err = run_cli(capsys, "gen", seq, "--count", "40", "--format", "bfile", "--out", str(target))
    assert (code, out) == (1, "")
    assert "verification error" in err
    assert target.read_text() == ""


def gen_args(*argv):
    """gen's parsed arguments for a sequence and its flags, with a count of 1."""
    return cli._parser().parse_args(["gen", *argv, "--count", "1"])


BIG = st.integers(-(2**70), 2**70)
GEN_REQUESTS = st.one_of(
    st.sampled_from("abuvLFz").map(gen_args),
    st.builds(
        lambda k, w0, w1: gen_args("custom", "--k", str(k), "--w0", str(w0), "--w1", str(w1)),
        BIG, BIG, BIG,
    ),
)


@settings(max_examples=60, deadline=None)
@given(GEN_REQUESTS)
def test_residue_run_is_the_int_stream_mod_the_fingerprint_modulus(args):
    _, stream, residues = cli._gen_request(args)
    m = cli.FINGERPRINT_MODULUS
    assert list(itertools.islice(residues(), 400)) == [x % m for x in itertools.islice(stream(int), 400)]


@settings(max_examples=60, deadline=None)
@given(GEN_REQUESTS, st.integers(0, 399), st.integers(1, 400))
def test_residue_slices_have_the_int_slices_fingerprint(args, start, length):
    _, stream, residues = cli._gen_request(args)
    stop = min(start + length, 400)
    assert cli._fingerprint(itertools.islice(residues(), start, stop)) == cli._fingerprint(
        itertools.islice(stream(int), start, stop)
    )


def one_step_late(monkeypatch):
    wrap_residue_runs(monkeypatch, lambda run: itertools.islice(run, 1, None))


def quotients_out_of_phase(monkeypatch):
    # 1, 2, 1, 2, ... where the ladder takes 1, 1, 2, 1, 2, ...
    monkeypatch.setattr("triavg.cli._cf_terms", lambda: itertools.islice(convergents._cf_terms(), 1, None))


@pytest.mark.parametrize(
    "argv, count, fault",
    [
        (["a"], 1200, one_step_late),
        (["u"], 1200, one_step_late),
        (["custom", "--k", "-7", "--w0", "5", "--w1", "-3"], 1200, one_step_late),
        (["z"], 2400, one_step_late),
        (["z"], 2400, quotients_out_of_phase),
    ],
    ids=["a-late", "u-late", "custom-late", "z-late", "z-phase"],
)
def test_gen_rejects_a_wrong_residue_run(tmp_path, capsys, monkeypatch, decimal_checks, argv, count, fault):
    # The int blocks before the switch print as usual; the first Decimal
    # block fails its check, so none of its rows is written.
    code, reference, err = run_cli(capsys, "gen", *argv, "--count", str(count), "--format", "bfile")
    assert (code, err) == (0, "")
    switch = count - sum(decimal_checks)
    assert 0 < switch < count
    fault(monkeypatch)
    code, out, err = run_cli(capsys, "gen", *argv, "--count", str(count), "--format", "bfile")
    assert code == 1
    assert err.startswith(f"verification error: the Decimal terms {switch}..")
    # The head and the rows before the switch; the next block's separator is never written.
    assert out.split("\n") == reference.split("\n")[: 1 + switch]
    target = tmp_path / "out.bfile"
    code, out, err = run_cli(capsys, "gen", *argv, "--count", str(count), "--format", "bfile", "--out", str(target))
    assert (code, out) == (1, "")
    assert "verification error" in err
    assert target.read_text() == ""


def test_gen_z_past_the_int_str_digit_cap(capsys, decimal_checks):
    # The last terms of z pass 4300 digits. int->str runs only on sampled
    # rows, since over every term it is the cost that Decimal output saves;
    # the fingerprint covers every row.
    count = 15200
    cap = _digit_cap()
    code, out, err = run_cli(capsys, "gen", "z", "--count", str(count), "--format", "bfile")
    assert (code, err) == (0, "")
    assert _digit_cap() == cap
    switch = count - sum(decimal_checks)
    assert 0 < switch < count
    head, *rows = out.splitlines()
    assert head == "# z offset 0"
    assert len(rows) == count
    sampled = {0, switch - 1, switch, count - 1}
    samples = {n: z for n, z in enumerate(itertools.islice(numerators(), count)) if n in sampled}
    with _unlimited_int_digits():
        assert len(str(samples[count - 1])) > 4300
        assert samples[switch - 1].bit_length() <= cli.DECIMAL_FROM_BITS
        for n, z in samples.items():
            assert rows[n] == f"{n} {z}"
    assert [int(row.split(" ")[0]) for row in rows] == list(range(count))
    parsed = (Decimal(row.split(" ")[1]) for row in rows)
    with decimal.localcontext(cli.EXACT_DECIMAL):
        assert cli._fingerprint(parsed) == cli._fingerprint(itertools.islice(numerators(), count))


# (DECIMAL_FROM_BITS, name, args, the reference's digits for a count)
PIECE_CASES = [
    (cli.DECIMAL_FROM_BITS, "v", ["v"], functools.partial(prefix_digits, "v")),
    (-1, "b", ["b"], functools.partial(prefix_digits, "b")),
    (20, "a", ["a"], functools.partial(prefix_digits, "a")),
    (cli.DECIMAL_FROM_BITS, "z", ["z"], functools.partial(prefix_digits, "z")),
    (20, "z", ["z"], functools.partial(prefix_digits, "z")),
    (-1, "z", ["z"], functools.partial(prefix_digits, "z")),
    (
        20,
        "custom(k=-5,w0=7,w1=-2)",
        ["custom", "--k", "-5", "--w0", "7", "--w1", "-2"],
        lambda count: int_digits(sequence_prefix(RecurrenceSpec(-5, 7, -2), count)),
    ),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("block, piece_chars", [(1, 1), (3, 1), (2, 40)])
def test_gen_output_is_whole_at_piece_boundaries(capsys, monkeypatch, fmt, block, piece_chars):
    # Tiny blocks put boundaries among the first rows. Each block is written
    # as one piece and the tail as one more, so the counts below start, end
    # and cross pieces. a, the custom spec and z at 20 bits switch to
    # Decimal after a few blocks, b and z at -1 at once, and v and z at the
    # default never do.
    monkeypatch.setattr("triavg.cli.BLOCK", block)
    monkeypatch.setattr("triavg.cli.PIECE_CHARS", piece_chars)
    real_emit, real_blocks = cli._emit, cli._digit_blocks
    pieces, blocks = [], []

    def counting_emit(text, out):
        pieces.append(text)
        real_emit(text, out)

    def counting_blocks(*args):
        for digits in real_blocks(*args):
            blocks.append(digits)
            yield digits

    monkeypatch.setattr("triavg.cli._emit", counting_emit)
    monkeypatch.setattr("triavg.cli._digit_blocks", counting_blocks)
    for bits, name, seq, reference in PIECE_CASES:
        monkeypatch.setattr("triavg.cli.DECIMAL_FROM_BITS", bits)
        for count in [*range(1, 14), 40]:
            pieces.clear()
            blocks.clear()
            code, out, err = run_cli(capsys, "gen", *seq, "--count", str(count), "--format", fmt)
            assert (code, err) == (0, "")
            assert out == int_reference(name, reference(count), fmt)
            assert len(pieces) == len(blocks) + 1


def test_gen_peak_memory_is_below_its_text(tmp_path):
    # The text is written a block at a time and each block of terms is
    # checked and dropped before the next, so the peak is a few blocks'
    # worth, whatever the count: about 1.7 * 2^18 bytes at each size.
    target = tmp_path / "out.bfile"
    for letter, count in [("a", 7000), ("b", 7000), ("b", 14000)]:
        tracemalloc.start()
        try:
            code = main(["gen", letter, "--count", str(count), "--format", "bfile", "--out", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        text = target.read_text()
        assert text.startswith(int_reference(letter, int_digits(sequence_prefix(letter, 4)), "bfile"))
        assert peak < len(text)
        assert peak < 3 << 18


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["gen", "a", "--count", "7000", "--format", "bfile"], b"# a offset 0\n"),
        # Closed before the child writes: its one write fails in the last flush.
        (["verify", "--max-n", "4"], None),
    ],
    ids=["gen-read-one-line", "verify-read-nothing"],
)
def test_a_reader_that_closes_stdout_early_gets_a_quiet_exit(argv, first_line, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "triavg", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_a_closed_stdout_stops_quietly_but_a_broken_out_file_raises(tmp_path, capsys, monkeypatch):
    def broken_pipe(text, out):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("triavg.cli._emit", broken_pipe)
    # capsys's stdout has no fd to point at os.devnull; that is left alone.
    assert run_cli(capsys, "verify", "--max-n", "4") == (0, "", "")
    with pytest.raises(BrokenPipeError):
        main(["verify", "--max-n", "4", "--out", str(tmp_path / "out.txt")])
