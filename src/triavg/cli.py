"""Command-line front end: generate sequences, verify identities, scan the
Diophantine equation, and print verified witnesses.

Exit codes: 0 on success (all checks passing), or when the reader of stdout
closes it early; 1 on a verification failure; 2 on a usage error, an
unwritable --out path included. Any other exception is an internal fault
and propagates with its traceback, so it is never mistaken for bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import itertools
import os
import sys
from decimal import Decimal
from typing import Callable, Iterable, Iterator, TextIO

from .convergents import _cf_terms, _ladder
from .identities import SUITES, IdentityReport, run_all
from .recurrences import B_SPEC, NAMED_SPECS, RecurrenceSpec, terms
from .triangular import SIEVE_MODULI, enumerate_solutions, prefix_average, solve_s_for_r, witness

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

# gen prints any sequence, z included, through Decimal once its last term
# passes this many bits (about 450 digits): below that, int->str costs no
# more than the Decimal re-run and its cross-check, which would make a
# 512-term request about 18% slower.
DECIMAL_FROM_BITS = 1500

# gen draws its int terms, checks them and writes their rows in blocks of up
# to this many, and sizes the next block once per block. A size check per term
# and per row made a 512-term request about 10% slower, blocks of 64 about 4%,
# these about 2%.
BLOCK = 256

# Past the first terms, a block holds about this many characters of digits,
# and gen writes each block as one piece: a 7000-term b-file (13.4 MiB) goes
# out in 211 writes of at most 80 Ki characters, and a 512-term request in
# three, two blocks and the tail.
PIECE_CHARS = 1 << 16

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

    Each command opens it after its own usage checks, so a usage error
    leaves an existing file as it is, and before any work, so an unwritable
    path is a usage error reported at once, not a traceback after the
    computation. A verification error (ArithmeticError) truncates it to
    empty, so no rows written before the failed check are left behind; a
    file that cannot be truncated, such as a pipe, is left as it is.
    """
    if path is None:
        yield None
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror}")
    with handle:
        try:
            yield handle
        except ArithmeticError:
            with contextlib.suppress(OSError):
                handle.truncate(0)
            raise


def _emit(text: str, out: TextIO | None) -> None:
    (sys.stdout if out is None else out).write(text)


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the int<->str digit cap (Python 3.10.7+) around formatting.

    Terms past about 4300 digits are valid output. The cap exists to bound
    the cost of parsing untrusted text; formatting our own results is not
    that. The previous cap is restored on exit.
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


def _gen_request(
    args: argparse.Namespace,
) -> tuple[str, Callable[[type], Iterator], Callable[[], Iterator[int]]]:
    """The output name of a gen request, its stream and its residue run.

    stream(num) is the sequence's own generator, terms() for a family spec
    and the convergent ladder for z, run from its seeds (and k) converted
    by num: int for the terms printed through int->str, Decimal for the
    rest. residues() is the same generator's step taken mod
    FINGERPRINT_MODULUS from the seeds reduced mod it, the reference that
    each Decimal block is checked against.
    """
    seq = args.seq.lower()
    custom_flags = [args.k, args.w0, args.w1]
    if seq == "custom":
        if any(flag is None for flag in custom_flags):
            raise UsageError("custom sequences need all of --k, --w0, --w1")
        name = f"custom(k={args.k},w0={args.w0},w1={args.w1})"
        spec = RecurrenceSpec(k=args.k, w0=args.w0, w1=args.w1)
    elif any(flag is not None for flag in custom_flags):
        raise UsageError("--k/--w0/--w1 are only valid with seq 'custom'")
    elif seq == "z":
        return "z", lambda num: _ladder(num(0), num(1)), lambda: _ladder_residues(0, 1)
    else:
        name = {letter.lower(): letter for letter in NAMED_SPECS}.get(seq)
        if name is None:
            raise UsageError(f"unknown sequence {args.seq!r}; expected a, b, u, v, L, F, z or custom")
        spec = NAMED_SPECS[name]
    return name, lambda num: terms(RecurrenceSpec(*map(num, spec))), lambda: _family_residues(spec)


def _family_residues(spec: RecurrenceSpec) -> Iterator[int]:
    """terms(spec) mod FINGERPRINT_MODULUS: w_0, w_1, ..., each in [0, M), without end."""
    m = FINGERPRINT_MODULUS
    k, prev, cur = (x % m for x in spec)
    yield prev
    while True:
        yield cur
        prev, cur = cur, (4 * cur - prev + k) % m


def _ladder_residues(before: int, first: int) -> Iterator[int]:
    """_ladder(before, first) mod FINGERPRINT_MODULUS, on the same partial quotients in the same phase."""
    m = FINGERPRINT_MODULUS
    prev, cur = before % m, first % m
    yield cur
    for t in _cf_terms():
        prev, cur = cur, (t * cur + prev) % m
        yield cur


def _fingerprint(terms: Iterable[int] | Iterable[Decimal]) -> tuple[int, int]:
    """(sum of the terms, sum of their running sums), both mod 2^61 - 1.

    A term off by d, not a multiple of the modulus, moves the first; two
    terms off by d and -d cancel there but move the second by d times their
    distance. Reduction mod 2^61 - 1 commutes with + and *, so terms given
    as residues have the fingerprint of the terms themselves. Decimal terms
    must be summed under EXACT_DECIMAL.
    """
    running = 0
    for total in itertools.accumulate(terms):
        running += total
    # Decimal's % keeps the dividend's sign; the outer % makes both kinds agree.
    m = FINGERPRINT_MODULUS
    return int(total % m) % m, int(running % m) % m


def _digit_blocks(
    stream: Callable[[type], Iterator], residues: Callable[[], Iterator[int]], count: int
) -> Iterator[list[str]]:
    """The decimal strings of the first count terms of stream, one checked block at a time.

    The terms are drawn in blocks of up to BLOCK, fewer as the strings grow,
    so that a block holds about PIECE_CHARS characters of digits. Blocks
    come from stream(int) and print through int->str until the first one
    that ends past DECIMAL_FROM_BITS, the switch block. The int stream is
    drawn no further. From the switch block on, the strings are str() of
    stream(Decimal), run from the seeds in exact Decimal and drawn past the
    terms already printed: linear in the digits, where CPython's int->str
    is quadratic. Each Decimal block must agree on _fingerprint with the
    block of residues() for the same indices before any of its strings is
    yielded, or ArithmeticError is raised.
    """
    ints = itertools.islice(stream(int), count)
    decimals = None
    start, n = 0, BLOCK
    while True:
        if decimals is None:
            block = list(itertools.islice(ints, n))
            if block and block[-1].bit_length() > DECIMAL_FROM_BITS:
                decimals = itertools.islice(stream(Decimal), start, count)
                expected = itertools.islice(residues(), start, None)
        if decimals is not None:
            # The first draw also runs the skipped steps, all under EXACT_DECIMAL.
            with decimal.localcontext(EXACT_DECIMAL):
                block = list(itertools.islice(decimals, n))
                if block and _fingerprint(block) != _fingerprint(itertools.islice(expected, len(block))):
                    raise ArithmeticError(
                        f"the Decimal terms {start}..{start + len(block) - 1} "
                        "disagree with their residues mod 2^61 - 1"
                    )
        if not block:
            return
        digits = list(map(str, block))
        yield digits
        start += len(block)
        n = min(BLOCK, PIECE_CHARS // len(digits[-1]) + 1)


def _format_terms(name: str, blocks: Iterable[list[str]], fmt: str) -> Iterator[str]:
    """gen's output text for blocks of the terms' decimal strings, in one of the four formats.

    The text comes one piece per block, and the tail as a last piece of its
    own. A block is drawn only when its piece is wanted, so one block and
    its text are held at a time. Joined, the pieces are the whole text.
    """
    if fmt == "plain":
        sep, head, tail = " ", "", "\n"
        rows = lambda start, block: block
    elif fmt == "bfile":
        sep, head, tail = "\n", f"# {name} offset 0\n", "\n"
        rows = lambda start, block: [f"{i} {v}" for i, v in enumerate(block, start)]
    elif fmt == "csv":
        sep, head, tail = "\n", "", "\n"
        rows = lambda start, block: [f"{i},{v}" for i, v in enumerate(block, start)]
    elif fmt == "json":
        # json.dumps's layout; values are digit strings, which need no escaping.
        sep, head, tail = ", ", "[", "]\n"
        rows = lambda start, block: [f'{{"n": {i}, "value": "{v}"}}' for i, v in enumerate(block, start)]
    else:
        raise UsageError(f"unknown format {fmt!r}")
    start = 0
    for block in blocks:
        block = rows(start, block)
        start += len(block)
        # The first row carries the head, or the separator after the previous
        # block, so one join copies the block's text once.
        block[0] = head + block[0]
        head = sep
        yield sep.join(block)
    yield tail


def cmd_gen(args: argparse.Namespace) -> int:
    """Print the first --count terms of a sequence.

    Every sequence, z included, takes the same path: the digit strings of
    its stream come one block at a time from _digit_blocks, through int->str
    or, past DECIMAL_FROM_BITS, through Decimal checked against the
    request's residue run. Each block's text is written as one piece of
    _format_terms, so memory is one block and its text, whatever the count.
    A block that fails its check raises ArithmeticError before any of its
    rows is written.
    """
    name, stream, residues = _gen_request(args)
    with _open_out(args.out) as out, _unlimited_int_digits():
        if args.count > PREFIX_WARN_THRESHOLD:
            print(
                f"warning: generating {args.count} terms; values grow geometrically "
                "and the output will be large",
                file=sys.stderr,
            )
        for piece in _format_terms(name, _digit_blocks(stream, residues, args.count), args.format):
            _emit(piece, out)
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
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; expected all or one of: " + ", ".join(sorted(SUITES)))
    with _open_out(args.out) as out:
        reports = run_all(args.max_n, SUITES if args.suite == "all" else [args.suite])
        lines: list[str] = []
        with _unlimited_int_digits():
            for report in reports:
                lines.extend(_report_lines(report))
        _emit("\n".join(lines) + "\n", out)
    return 0 if all(report.ok for report in reports) else 1


def cmd_solve(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        pairs = enumerate_solutions(args.max_s)
        predicted: dict[tuple[int, int], int] = {}
        # b_n alone decides where to stop, so no witness is verified past max_s.
        # Iteration yields it in a few small additions; the one power of
        # alpha per index is the one inside witness(n), whose b_n, weighed
        # from the closed form, must be the same.
        for n, b in enumerate(itertools.islice(terms(B_SPEC), 1, None), start=1):
            if b > args.max_s:
                break
            record = witness(n)
            if record.s != b:
                raise ArithmeticError(f"b_{n} = {b} by iteration, but the closed form disagrees")
            predicted[(record.s, record.r)] = n
        lines = ["# s r average match"]
        clean = True
        for s, r in pairs:
            # The scan solved for r; solving r back for s checks the other direction.
            back = solve_s_for_r(r)
            if back != s:
                raise ArithmeticError(f"the scan paired s = {s} with r = {r}, but r inverts to s = {back}")
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
        _emit("\n".join(lines) + "\n", out)
    return 0 if clean else 1


def cmd_witness(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError("witness requires n >= 1: b_0 = -1 is not a valid prefix length")
    with _open_out(args.out) as out:
        record = witness(args.n)
        status = "VERIFIED" if record.verify() else "FAILED"
        with _unlimited_int_digits():
            text = (
                f"n={record.n} b={record.s} sum={record.total} avg={record.avg} "
                f"a={record.r} {status}\n"
            )
        _emit(text, out)
    return 0 if status == "VERIFIED" else 1


def _quiet_stdout() -> None:
    """Point stdout's fd at os.devnull, so the flush at exit writes nowhere.

    A stand-in for sys.stdout with no fd of its own (a StringIO, a test's
    capture) has no flush at exit to quiet, and is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a cmd_* replaced after import is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        code = handler(args)
        if args.out is None:
            # A reader gone before the last buffered bytes is met here, not
            # in the flush at exit.
            sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout took what it wanted and closed the pipe, as
        # `| head` does: stop quietly. A broken --out file is an error.
        if args.out is not None:
            raise
        _quiet_stdout()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
