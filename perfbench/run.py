#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of triavg.

    python3 perfbench/run.py --workload small-terms --seed 1 --seconds 30 --trace 0

Run from anywhere; it imports triavg from the src/ next to this directory
and exits with status 2 when there is none. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics; the line before it holds the raw figures behind them.

This process makes the inputs from the seed, measures set-up, and checks
every output against independent computations (checks.py). A worker
process (worker.py) makes every call into triavg, one operation per
request, in whole rounds that repeat the same operations until --seconds
have passed. The worker times a fixed reference kernel right before and
right after each operation; the operation time is divided by the mean of
the two and multiplied by the kernel's nominal time (KERNEL_NOMINAL_S), so
times read in seconds at a fixed CPU speed. Metrics are medians over a
run's rounds. See README.md for the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from multiprocessing.connection import Connection

import checks
from workloads import WORKLOADS, build_round

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# Median time of each reference-kernel part on the 2-CPU machine the bounds
# were set on. An operation's time is divided by the whole kernel, except
# where one part does the same kind of work as the operation's dominant cost.
KERNEL_NOMINAL_S = {"interp": 0.00128, "fraction": 0.00159, "bigmul": 0.00134, "bigstr": 0.00069, "bigloop": 0.00058}
NORMALISER = {"closed_form": ("fraction",), "gen": ("bigstr",)}
# Median start-up of `python3 -c pass` on the same machine.
BARE_START_NOMINAL_S = 0.055

# Operation family -> (end-to-end metric, unit). A unit with "/s" is a rate
# of the operation's work units; the others are normalised seconds.
END_TO_END = {
    "closed_form": ("closed_form_evals_per_s", "evals/s"),
    "prefix": ("prefix_terms_per_s", "terms/s"),
    "term": ("term_eval_s", "s"),
    "witness": ("witness_s", "s"),
    "gen": ("gen_s", "s"),
    "verify": ("verify_s", "s"),
    "solve": ("solve_s", "s"),
}
PER_LAYER_UNITS = {"calls": "count", "ring_ops": "count", "steps": "count", "terms": "count", "output_bytes": "bytes"}


class Failed(Exception):
    """The program raised or refused a valid request."""


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def _start_s(code: str) -> float:
    """Seconds from launching a fresh interpreter to the end of `code`."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-c", code + "; import time; print(time.monotonic_ns())"],
        env=_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    return (int(done.stdout) - start) / 1e9


def import_self_s() -> float:
    """Self import time of the triavg modules, from -X importtime."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import triavg.cli"],
        env=_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    total_us = 0
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2].strip()
            if name == "triavg" or name.startswith("triavg."):
                total_us += int(fields[0])
    return total_us / 1e6


def work_units(family: str, payload) -> int:
    if family == "closed_form":
        return len(payload)
    if family == "prefix":
        return sum(count for _, count in payload)
    return 1


def check_output(family: str, payload, result) -> None:
    """Raise Failed for a refused request, CheckError for a wrong output."""
    if family in ("closed_form", "term"):
        items = [(coeffs if kind == "closed" else checks.NAMED[kind], n) for kind, coeffs, n in payload]
        checks.check_terms(items, result)
    elif family == "prefix":
        checks.require(len(result) == len(payload), "prefix batch lost a spec")
        for (coeffs, count), values in zip(payload, result):
            checks.require(len(values) == count, f"prefix of {coeffs} has {len(values)} terms, not {count}")
            checks.check_recurrence(coeffs, values)
    elif family == "witness":
        checks.require([w[0] for w in result] == payload, "witness indices differ from the request")
        for w in result:
            checks.check_witness(*w)
    else:
        code, out, err = result
        if code not in (0, 1):
            raise Failed(f"{family} exit {code}: {err.strip()}")
        checks.require(code == 0, f"{family} reported a verification failure: {err.strip() or out[-200:]}")
        if family == "gen":
            seq, count = payload
            with open(os.path.join(OUT, "gen.bfile"), encoding="utf-8") as handle:
                checks.check_bfile(seq, count, handle.read())
        elif family == "verify":
            checks.check_verify(payload, out)
        elif family == "solve":
            checks.check_solve(payload, out)
        elif family == "witness_cli":
            checks.check_witness_line(payload, out)


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    round_ops = build_round(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    detail: dict = {"workload": workload, "seed": seed}
    if trace:
        detail["import.triavg_s"] = import_self_s()
    else:
        # A bare interpreter start on either side of the set-up plays the
        # part the reference kernel plays for the operations. The faster of
        # the two is used: one of them now and then takes several times longer.
        bare = [_start_s("pass"), _start_s("import triavg.cli"), _start_s("pass")]
        detail.update(bare_start_s=[bare[0], bare[2]], setup_raw_s=bare[1])
        setup_s = bare[1] * BARE_START_NOMINAL_S / min(bare[0], bare[2])

    ours, theirs = socket.socketpair()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), SRC, OUT, str(theirs.fileno())],
        pass_fds=(theirs.fileno(),),
        stdout=subprocess.DEVNULL,
    )
    theirs.close()
    conn = Connection(ours.detach())
    ops = []  # (family, kernel before, op_s, kernel after) in the order run
    round_s = {False: [], True: []}
    attempted = failed = rounds = 0
    correct = True
    try:
        deadline = time.monotonic() + seconds
        while rounds < (2 if trace else 1) or time.monotonic() < deadline:
            traced = trace and rounds % 2 == 1
            if trace:
                conn.send(("trace", traced))
                conn.recv()
            total = 0.0
            for family, payload in round_ops:
                conn.send(("op", family, payload))
                before, op_s, after, result, error = conn.recv()
                attempted += 1
                total += op_s
                ops.append((family, before, op_s, after))
                try:
                    if error:
                        raise Failed(error)
                    check_output(family, payload, result)
                except Failed as exc:
                    failed += 1
                    detail.setdefault("failures", {}).setdefault(family, str(exc)[:200])
                except checks.CheckError as exc:
                    correct = False
                    print(f"wrong output from {family}: {exc}", file=sys.stderr)
            round_s[traced].append(total)
            rounds += 1
        conn.send(("finish", os.path.join(OUT, f"trace-{workload}.json")))
        peak_rss_mib, summary = conn.recv()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        conn.close()

    # Round r's operation i is ops[r * len(round_ops) + i]. Repeats of one
    # operation within a round pool their samples under its first position;
    # a family's time is the sum of its distinct operations' medians.
    keys = [round_ops.index(op) for op in round_ops]
    samples = defaultdict(list)
    for index, (family, before, op_s, after) in enumerate(ops):
        key = keys[index % len(round_ops)]
        parts = NORMALISER.get(family, tuple(KERNEL_NOMINAL_S))
        kernel = sum(before[p] + after[p] for p in parts) / 2
        samples[key].append((op_s, op_s * sum(KERNEL_NOMINAL_S[p] for p in parts) / kernel))
    family_s = defaultdict(float)
    work = defaultdict(int)
    for key, values in samples.items():
        family, payload = round_ops[key]
        family_s[family] += statistics.median(t for _, t in values)
        work[family] += work_units(family, payload)
    kernels = [k for _, before, _, after in ops for k in (before, after)]
    detail.update(
        rounds=rounds,
        kernel_s={part: _quartiles([k[part] for k in kernels]) for part in KERNEL_NOMINAL_S},
        ops={
            f"{round_ops[key][0]}#{key}": {
                "samples": len(values),
                "raw_s": _quartiles([raw for raw, _ in values]),
                "normalised_s": _quartiles([t for _, t in values]),
            }
            for key, values in samples.items()
        },
    )
    if trace:
        traced_rounds = len(round_s[True])
        metrics = {
            name: {"value": value if name == "recurrences.max_bits" else value / traced_rounds, "unit": _layer_unit(name)}
            for name, value in summary.items()
        }
        metrics["import.triavg_s"] = {"value": detail["import.triavg_s"], "unit": "s"}
        untraced = statistics.median(round_s[False])
        metrics["trace.untraced_round_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(round_s[True]) - untraced, "unit": "s"}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}
        for family, (name, unit) in END_TO_END.items():
            value = family_s[family] if unit == "s" else work[family] / family_s[family]
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"detail": detail}))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name == "recurrences.max_bits":
        return "bits"
    return "s" if last.endswith("_s") else PER_LAYER_UNITS[last]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "triavg", "cli.py")):
        print(f"error: no triavg source at {SRC}", file=sys.stderr)
        return 2
    # Checks parse terms of any length. The worker is another interpreter and
    # keeps the default 4300-digit int->str limit.
    sys.set_int_max_str_digits(0)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
