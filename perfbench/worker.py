"""The one process that makes the benchmark's calls into triavg.

    python3 perfbench/worker.py SRC OUT_DIR SOCKET_FD

run.py starts it and sends requests over the socket; it answers each with
its timings and the program's outputs, and does no checking of its own, so
its peak resident memory is the program's.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import resource
import sys
import time
from fractions import Fraction
from multiprocessing.connection import Connection

from tracing import Tracer

_MASK = (1 << 61) - 1
_BIG = 7**12000
_DIGITS = 7**5000  # 4226 digits, under the default int->str limit


def _interp() -> None:
    x = 0
    for i in range(7500):
        x = (x * 31 + i) & _MASK


def _fraction() -> None:
    f = Fraction(1)
    for i in range(1, 200):
        f = f * Fraction(i + 1, i) + Fraction(1, i)


def _bigmul() -> None:
    y = _BIG
    for _ in range(2):
        y = (y * _BIG) >> 33690


def _bigstr() -> None:
    for _ in range(2):
        str(_DIGITS)


def _bigloop() -> None:
    prev, cur = 0, 1
    for _ in range(1500):
        prev, cur = cur, 4 * cur - prev + 1


# Fixed work of the five kinds triavg's operations are made of: interpreter
# dispatch on small ints, Fraction arithmetic, multiplication of ~34,000-bit
# integers, int->str conversion, and a loop over growing integers.
KERNEL_PARTS = {"interp": _interp, "fraction": _fraction, "bigmul": _bigmul, "bigstr": _bigstr, "bigloop": _bigloop}


def reference_kernel() -> dict[str, float]:
    """Seconds taken by each part of the reference kernel."""
    times = {}
    for name, part in KERNEL_PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


class Calls:
    """Builds each operation as a closure over triavg's public functions.

    Functions are looked up on their modules when an operation is built, so
    that wrappers installed by the tracer are the ones called.
    """

    def __init__(self, out_dir: str) -> None:
        # Not triavg.triangular: the package re-exports a function of that name.
        self.cli = importlib.import_module("triavg.cli")
        self.rec = importlib.import_module("triavg.recurrences")
        self.tri = importlib.import_module("triavg.triangular")
        self.gen_path = os.path.join(out_dir, "gen.bfile")

    def _cli(self, argv: list[str]):
        main = self.cli.main

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return run

    def build(self, family: str, payload):
        rec, spec = self.rec, self.rec.RecurrenceSpec
        if family in ("closed_form", "term"):
            calls = []
            for kind, coeffs, n in payload:
                if kind == "closed":
                    calls.append((rec.eval_closed_form, (spec(*coeffs), n)))
                else:
                    calls.append((rec.eval_u if kind == "u" else rec.eval_v, (n,)))
            return lambda: [fn(*args) for fn, args in calls]
        if family == "prefix":
            items = [(spec(*coeffs), count) for coeffs, count in payload]
            sequence_prefix = rec.sequence_prefix
            return lambda: [sequence_prefix(s, count) for s, count in items]
        if family == "witness":
            witness = self.tri.witness
            return lambda: [witness(n) for n in payload]
        if family == "gen":
            seq, count = payload
            if os.path.exists(self.gen_path):
                os.remove(self.gen_path)
            return self._cli(["gen", seq, "--count", str(count), "--format", "bfile", "--out", self.gen_path])
        if family == "verify":
            return self._cli(["verify", "--suite", "all", "--max-n", str(payload)])
        if family == "solve":
            return self._cli(["solve", "--max-s", str(payload)])
        if family == "witness_cli":
            return self._cli(["witness", str(payload)])
        raise ValueError(f"unknown operation {family!r}")


def _portable(family: str, result):
    """The result in plain ints and strings: run.py cannot unpickle triavg's types."""
    if family == "witness":
        return [(w.n, w.s, w.avg, w.r) for w in result]
    return result


def serve(conn, src: str, out_dir: str) -> None:
    """Answer requests until 'finish'.

    ("op", family, payload) -> (kernel before, op_s, kernel after, result or None, error or None)
    ("trace", on)           -> None; wraps or unwraps triavg's functions
    ("finish", trace_path)  -> (peak_rss_mib, tracer summary or None)
    """
    sys.path.insert(0, src)
    calls = Calls(out_dir)
    tracer = None
    tracing = False
    while True:
        request = conn.recv()
        kind = request[0]
        if kind == "op":
            _, family, payload = request
            run = calls.build(family, payload)
            before = reference_kernel()
            error = None
            start = time.perf_counter()
            try:
                result = tracer.root(f"op.{family}", run) if tracing else run()
            except Exception as exc:  # an operation that raises counts as failed, and the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            op_s = time.perf_counter() - start
            after = reference_kernel()
            conn.send((before, op_s, after, None if error else _portable(family, result), error))
        elif kind == "trace":
            if tracer is None:
                tracer = Tracer()
            tracing = request[1]
            if tracing:
                tracer.install()
            else:
                tracer.uninstall()
            conn.send(None)
        elif kind == "finish":
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            summary = None
            if tracer is not None:
                tracer.uninstall()
                summary = tracer.summary()
                tracer.write(request[1])
            conn.send((peak_mib, summary))
            return
        else:
            raise ValueError(f"unknown request {kind!r}")


if __name__ == "__main__":
    serve(Connection(int(sys.argv[3])), sys.argv[1], sys.argv[2])
