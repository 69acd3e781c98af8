"""Spans at triavg's module boundaries, recorded from outside the program.

Tracer.install wraps every public function of the six modules in every
triavg namespace that holds it (the defining module, the modules that
imported it by name, and the package), plus the QuadElem ring operators.
Each wrapped call records one span: id, name, start, end and parent. A
span's self time is its duration minus the durations of its direct
children; since calls in one thread nest, that is the part of its interval
that no child covers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("exactnum", "recurrences", "identities", "convergents", "triangular", "cli")
RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__pow__")
IDENTITY_SUITES = (
    "check_lucas_identities",
    "check_discriminant",
    "check_congruences",
    "check_linkages",
    "check_v_square",
)
# Work read from a call's arguments: span name -> position of the size argument.
WORK_ARG = {"recurrences.eval_iterative": 1, "recurrences.sequence_prefix": 1, "convergents.cf_sqrt3": 0}
# Spans kept for the trace file; aggregates keep counting past it.
SPAN_CAP = 200_000


def _bits(result: object) -> int:
    if isinstance(result, int):
        return result.bit_length()
    if isinstance(result, list) and result:
        return max(abs(v) for v in result).bit_length()
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.output_chars = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[list[int], list[int] | None]:
        frame = [self._next_id, 0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, name_id: int, frame: list[int], parent: list[int] | None, start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name_id, start, end, -1 if parent is None else parent[0]))
        else:
            self.dropped += 1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        work_arg = WORK_ARG.get(name)
        track_bits = name.startswith("recurrences.eval") or name == "recurrences.sequence_prefix"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, name_id, frame, parent, start, time.perf_counter_ns())
            if work_arg is not None:
                self.work[name] += args[work_arg]
            if track_bits:
                self.max_bits = max(self.max_bits, _bits(result))
            return result

        return traced

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span, so the spans of one operation share an ancestor."""
        name_id = self._name_id(name)
        frame, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(name, name_id, frame, parent, start, time.perf_counter_ns())

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = sys.modules["triavg"]
        modules = {short: sys.modules[f"triavg.{short}"] for short in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, attr, wrapper)
        quad = modules["exactnum"].QuadElem
        for attr in RING_OPS:
            self._patch(quad, attr, self._wrap(f"exactnum.QuadElem.{attr}", vars(quad)[attr]))
        cli = modules["cli"]
        emit = cli._emit

        def counted_emit(text, out_path):
            self.output_chars += len(text)
            return emit(text, out_path)

        self._patch(cli, "_emit", counted_emit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Totals over every traced call; run.py divides them by the traced rounds."""

        def total_self(names) -> float:
            return sum(self.self_ns[name] for name in names) / 1e9

        ring = [f"exactnum.QuadElem.{attr}" for attr in RING_OPS]
        return {
            "exactnum.ring_ops": sum(self.calls[name] for name in ring),
            "exactnum.self_s": total_self(ring),
            "exactnum.is_perfect_square.calls": self.calls["exactnum.is_perfect_square"],
            "exactnum.is_perfect_square.self_s": total_self(["exactnum.is_perfect_square"]),
            "recurrences.eval_closed_form.self_s": total_self(["recurrences.eval_closed_form"]),
            "recurrences.eval_iterative.steps": self.work["recurrences.eval_iterative"],
            "recurrences.eval_iterative.self_s": total_self(["recurrences.eval_iterative"]),
            "recurrences.sequence_prefix.terms": self.work["recurrences.sequence_prefix"],
            "recurrences.sequence_prefix.self_s": total_self(["recurrences.sequence_prefix"]),
            "recurrences.max_bits": self.max_bits,
            "identities.self_s": total_self([f"identities.{name}" for name in IDENTITY_SUITES]),
            "convergents.cf_sqrt3.terms": self.work["convergents.cf_sqrt3"],
            "convergents.self_s": total_self([n for n in self.self_ns if n.startswith("convergents.")]),
            "triangular.solve_r_for_s.calls": self.calls["triangular.solve_r_for_s"],
            "triangular.enumerate_solutions.self_s": total_self(["triangular.enumerate_solutions"]),
            "triangular.witness.self_s": total_self(["triangular.witness"]),
            "triangular.prefix_sum.self_s": total_self(["triangular.prefix_sum"]),
            "cli.cmd_gen.self_s": total_self(["cli.cmd_gen"]),
            "cli.output_bytes": self.output_chars,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["id", "name", "start_ns", "end_ns", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                handle,
            )
