"""Command-line front end: generate sequences, verify identities, scan the
Diophantine equation, and print verified witnesses.

Exit codes: 0 on success (all checks passing), 1 on a verification failure,
2 on a usage error, an unwritable --out path included. Any other exception
is an internal fault and propagates with its traceback, so it is never
mistaken for bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import itertools
import sys
from decimal import Decimal
from typing import Iterable, Iterator, TextIO

from .convergents import numerators
from .identities import SUITES, IdentityReport, run_all
from .recurrences import B_SPEC, RecurrenceSpec, eval_closed_form, resolve_spec, sequence_prefix
from .triangular import SIEVE_MODULI, enumerate_solutions, prefix_average, witness

PREFIX_WARN_THRESHOLD = 10**6

MAX_FAILURE_DETAILS = 10

# Exact decimal arithmetic for gen's output: unbounded precision and exponent
# range, with every rounding trapped, so no step can silently lose a digit.
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    rounding=decimal.ROUND_HALF_EVEN,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)

# gen prints through Decimal once its last term passes this many bits (about
# 450 digits): below that, int->str costs no more than the Decimal re-run and
# its cross-check, which would make a 512-term request about 18% slower.
DECIMAL_FROM_BITS = 1500

# The Mersenne prime 2^61 - 1, the modulus of gen's exactness fingerprint.
FINGERPRINT_MODULUS = (1 << 61) - 1


class UsageError(Exception):
    """Bad command-line input; reported on stderr with exit status 2."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triavg",
        description=(
            "Exact-arithmetic tool for the sequences around averages of "
            "triangular numbers: the average of the first b_n triangular "
            "numbers is the a_n-th triangular number."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen",
        help="print the first terms of a sequence",
        description=(
            "Sequences: a, b, u, v, L, F (recurrence family w_n = 4*w_{n-1} "
            "- w_{n-2} + k), z (numerators of continued-fraction convergents "
            "to sqrt(3)), or custom with --k/--w0/--w1. All indices start "
            "at 0."
        ),
    )
    gen.add_argument("seq", help="a | b | u | v | L | F | z | custom")
    gen.add_argument("--count", type=_positive_int, required=True, help="number of terms")
    gen.add_argument(
        "--format",
        choices=("plain", "bfile", "csv", "json"),
        default="plain",
        help="output format (default: plain)",
    )
    gen.add_argument("--k", type=int, help="forcing constant (custom only)")
    gen.add_argument("--w0", type=int, help="first term (custom only)")
    gen.add_argument("--w1", type=int, help="second term (custom only)")
    gen.add_argument("--out", help="write to this file instead of stdout")

    verify = sub.add_parser(
        "verify",
        help="check the proved identities over an index range",
        description="Suites: " + ", ".join(sorted(SUITES)) + ", or all.",
    )
    verify.add_argument("--suite", default="all", help="suite name or 'all' (default: all)")
    verify.add_argument("--max-n", type=_positive_int, default=64, help="top index (default: 64)")
    verify.add_argument("--out", help="write to this file instead of stdout")

    solve = sub.add_parser(
        "solve",
        help="brute-force the equation s^2 + 3s + 2 = 3r^2 + 3r",
        description=(
            "Scans s up to --max-s, inverting the average equation via "
            "r = (sqrt(3*(11 + 12s + 4s^2)) - 3) / 6, and flags each hit "
            "against the recurrence-predicted pairs (b_n, a_n). Residue "
            f"classes of s modulo {', '.join(map(str, SIEVE_MODULI))} whose "
            "radicand cannot be a square are struck out; every other s is "
            "decided exactly."
        ),
    )
    solve.add_argument("--max-s", type=_positive_int, required=True, help="scan bound for s")
    solve.add_argument("--out", help="write to this file instead of stdout")

    wit = sub.add_parser(
        "witness",
        help="verify one instance of the main statement",
        description=(
            "Prints the fully verified record for index n: the average of "
            "the first b_n triangular numbers equals the a_n-th triangular "
            "number."
        ),
    )
    wit.add_argument("n", type=_nonnegative_int, help="witness index, n >= 1")
    wit.add_argument("--out", help="write to this file instead of stdout")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first main call and shared by the rest."""
    return build_parser()


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[TextIO | None]:
    """The --out file opened for writing, or None for stdout.

    Opened before any work, so an unwritable path is a usage error reported
    at once, not a traceback after the computation.
    """
    if path is None:
        yield None
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror}")
    with handle:
        yield handle


def _emit(text: str, out: TextIO | None) -> None:
    (sys.stdout if out is None else out).write(text)


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the int<->str digit cap (Python 3.10.7+) around formatting and parsing.

    Terms past about 4300 digits are valid output, and a b-file holding them
    must read back. The cap exists to bound the cost of parsing untrusted
    text; formatting our own results, or reading back a b-file, is not that.
    The previous cap is restored on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _gen_request(args: argparse.Namespace) -> tuple[str, RecurrenceSpec | None]:
    """The output name and the family spec of a gen request; no spec for z."""
    custom_flags = [args.k, args.w0, args.w1]
    if args.seq == "custom":
        if any(flag is None for flag in custom_flags):
            raise UsageError("custom sequences need all of --k, --w0, --w1")
        name = f"custom(k={args.k},w0={args.w0},w1={args.w1})"
        return name, RecurrenceSpec(k=args.k, w0=args.w0, w1=args.w1)
    if any(flag is not None for flag in custom_flags):
        raise UsageError("--k/--w0/--w1 are only valid with seq 'custom'")
    if args.seq == "z":
        return "z", None
    try:
        spec = resolve_spec(args.seq)
    except KeyError:
        raise UsageError(
            f"unknown sequence {args.seq!r}; expected a, b, u, v, L, F, z or custom"
        )
    canonical = next(letter for letter in "abuvLF" if resolve_spec(letter) == spec)
    return canonical, spec


def _decimal_prefix(spec: RecurrenceSpec, count: int) -> list[Decimal]:
    """[w_0, ..., w_{count-1}] by the recurrence, in exact Decimal arithmetic."""
    with decimal.localcontext(EXACT_DECIMAL):
        k, four = Decimal(spec.k), Decimal(4)
        prev, cur = Decimal(spec.w0), Decimal(spec.w1)
        terms = [prev, cur]
        for _ in range(count - 2):
            prev, cur = cur, four * cur - prev + k
            terms.append(cur)
    del terms[count:]
    return terms


def _fingerprint(terms: Iterable[int] | Iterable[Decimal]) -> tuple[int, int]:
    """(sum of the terms, sum of their running sums), both mod 2^61 - 1.

    A term off by d, not a multiple of the modulus, moves the first; two
    terms off by d and -d cancel there but move the second by d times their
    distance. Decimal terms must be summed under EXACT_DECIMAL.
    """
    running = 0
    for total in itertools.accumulate(terms):
        running += total
    # Decimal's % keeps the dividend's sign; the outer % makes both kinds agree.
    m = FINGERPRINT_MODULUS
    return int(total % m) % m, int(running % m) % m


def _format_terms(name: str, digits: Iterable[str], fmt: str) -> str:
    """gen's output text for the terms' decimal strings, in one of the four formats."""
    if fmt == "plain":
        rows, sep, head, tail = list(digits), " ", "", "\n"
    elif fmt == "bfile":
        rows = [f"{i} {v}" for i, v in enumerate(digits)]
        sep, head, tail = "\n", f"# {name} offset 0\n", "\n"
    elif fmt == "csv":
        rows, sep, head, tail = [f"{i},{v}" for i, v in enumerate(digits)], "\n", "", "\n"
    elif fmt == "json":
        # json.dumps's layout; values are digit strings, which need no escaping.
        rows = [f'{{"n": {i}, "value": "{v}"}}' for i, v in enumerate(digits)]
        sep, head, tail = ", ", "[", "]\n"
    else:
        raise UsageError(f"unknown format {fmt!r}")
    # Head and tail ride on the first and last rows, so one join copies the text once.
    rows[0] = head + rows[0]
    rows[-1] += tail
    return sep.join(rows)


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Read (index, value) pairs back out of b-file text, skipping comments.

    Values of any length parse, so every b-file that ``gen`` writes reads back.
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


def cmd_gen(args: argparse.Namespace) -> int:
    """Print the first --count terms of a sequence.

    For the family letters and custom specs, sequence_prefix gives the int
    terms, which stay the reference. Once the last term passes
    DECIMAL_FROM_BITS, the same recurrence is re-run in Decimal under
    EXACT_DECIMAL, where every step is exact and the caller's decimal
    context has no say, and the text is made from str() of those terms:
    linear in their digits, where CPython's int->str is quadratic. The two
    runs must agree on _fingerprint, or ArithmeticError is raised and
    nothing is printed. z keeps int->str, its terms having about half the
    digits.
    """
    if args.count > PREFIX_WARN_THRESHOLD:
        print(
            f"warning: generating {args.count} terms; values grow geometrically "
            "and the output will be large",
            file=sys.stderr,
        )
    name, spec = _gen_request(args)
    if spec is None:
        terms: list[int] | list[Decimal] = list(itertools.islice(numerators(), args.count))
    else:
        values = sequence_prefix(spec, args.count)
        if values[-1].bit_length() <= DECIMAL_FROM_BITS:
            terms = values
        else:
            terms = _decimal_prefix(spec, len(values))
            with decimal.localcontext(EXACT_DECIMAL):
                if _fingerprint(terms) != _fingerprint(values):
                    raise ArithmeticError(
                        f"gen {name}: the Decimal terms disagree with the int prefix"
                    )
        del values  # released before the text is built
    with _unlimited_int_digits():
        text = _format_terms(name, map(str, terms), args.format)
    _emit(text, args.out)
    return 0


def _report_lines(report: IdentityReport) -> list[str]:
    lo, hi = report.checked_range
    if report.ok:
        return [f"{report.name} [{lo}..{hi}] PASS"]
    lines = [f"{report.name} [{lo}..{hi}] FAIL ({len(report.failures)} failures)"]
    for n, lhs, rhs in report.failures[:MAX_FAILURE_DETAILS]:
        lines.append(f"  n={n} lhs={lhs} rhs={rhs}")
    if len(report.failures) > MAX_FAILURE_DETAILS:
        lines.append(f"  ... {len(report.failures) - MAX_FAILURE_DETAILS} more")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        reports = run_all(args.max_n)
    elif args.suite in SUITES:
        reports = run_all(args.max_n, [args.suite])
    else:
        raise UsageError(f"unknown suite {args.suite!r}; expected all or one of: " + ", ".join(sorted(SUITES)))
    lines: list[str] = []
    with _unlimited_int_digits():
        for report in reports:
            lines.extend(_report_lines(report))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(report.ok for report in reports) else 1


def cmd_solve(args: argparse.Namespace) -> int:
    pairs = enumerate_solutions(args.max_s)
    predicted: dict[tuple[int, int], int] = {}
    n = 1
    # b_n alone decides where to stop, so no witness is verified past max_s.
    while eval_closed_form(B_SPEC, n) <= args.max_s:
        record = witness(n)
        predicted[(record.s, record.r)] = n
        n += 1
    lines = ["# s r average match"]
    clean = True
    for s, r in pairs:
        avg = prefix_average(s)
        if avg.denominator != 1:
            lines.append(f"{s} {r} {avg} NON-INTEGRAL")
            clean = False
            continue
        index = predicted.pop((s, r), None)
        if index is None:
            lines.append(f"{s} {r} {avg} UNEXPECTED")
            clean = False
        else:
            lines.append(f"{s} {r} {avg} (b_{index},a_{index})")
    for (s, r), index in sorted(predicted.items()):
        lines.append(f"{s} {r} - MISSED (b_{index},a_{index}) not found by scan")
        clean = False
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if clean else 1


def cmd_witness(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError("witness requires n >= 1: b_0 = -1 is not a valid prefix length")
    record = witness(args.n)
    status = "VERIFIED" if record.verify() else "FAILED"
    with _unlimited_int_digits():
        text = (
            f"n={record.n} b={record.s} sum={record.total} avg={record.avg} "
            f"a={record.r} {status}\n"
        )
    _emit(text, args.out)
    return 0 if status == "VERIFIED" else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a cmd_* replaced after import is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        # From here on args.out is the open file, or None for stdout.
        with _open_out(args.out) as args.out:
            return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
