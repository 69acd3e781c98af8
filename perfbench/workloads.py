"""The operations of one round of each workload, made from the seed.

Every workload runs all seven timed operations, so that every end-to-end
metric reads on every workload; the workload decides which of them run at
their heavy size. An operation is (family, payload), where the family names
the metric it feeds.

- small-terms: every operation at desk scale. Batches of closed-form terms
  on random specs (coefficients up to +-2^32, indices 0..64) dominate, so
  the Fraction-backed QuadElem ring is the hot layer. sequence_prefix on the
  same specs never touches exactnum and is the control.
- deep-terms: single terms at n ~ 1e5, witness(n ~ 3e4) and a ~7000-term
  b-file, where big-integer multiplication, O(n) iteration and int->str
  formatting dominate. One `witness 2600` per round exceeds Python's
  4300-digit int->str limit and fails today (exit 2).
- verify-scan: `verify --suite all` at max_n ~ 3000 and `solve` at
  max_s ~ 2e6, the only workload where the identity suites, the convergent
  ladder and the perfect-square scan do most of the work.

The seed draws the specs, indices and sequence letters. Sizes get a
jitter of at most JITTER - 1 steps from it, small enough that the cost of
a round does not depend on the seed. Term indices get none: the cost of a
power by squaring follows the number of one bits in the exponent.
"""

from __future__ import annotations

import random

from checks import NAMED

WORKLOADS = ("small-terms", "deep-terms", "verify-scan")
COEFF_BOUND = 2**32
SPEC_POOL = 48
PREFIX_PASSES = 16
SMALL_REPEATS = 3
JITTER = 4
FAILING_WITNESS = 2600


def _jitter(rng: random.Random) -> int:
    return rng.randrange(JITTER)


def _small(rng: random.Random) -> dict[str, object]:
    specs = [tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(3)) for _ in range(SPEC_POOL)]
    specs += [NAMED[letter] for letter in sorted(NAMED)]
    evals = [("closed", spec, rng.randint(0, 64)) for spec in specs for _ in range(2)]
    evals += [(kind, None, rng.randint(0, 64)) for kind in ("u", "v") for _ in range(8)]
    return {
        "closed_form": evals,
        "prefix": [(spec, 65) for spec in specs] * PREFIX_PASSES,
        "term": 64,
        "witness": list(range(1, 41)),
        "gen": (rng.choice("abuvLF"), 512 - _jitter(rng)),
        "verify": 64,
        "solve": 10**4 + _jitter(rng),
    }


def build_round(workload: str, seed: int) -> list[tuple[str, object]]:
    """The operations of one round; every round of a run repeats them."""
    rng = random.Random(f"{workload}:{seed}")
    small = _small(rng)
    if workload == "deep-terms":
        heavy = {
            "term": 10**5,
            "witness": [3 * 10**4 + _jitter(rng)],
            "gen": (rng.choice("abuvLF"), 7000 + _jitter(rng)),
            "witness_cli": FAILING_WITNESS,
        }
    elif workload == "verify-scan":
        heavy = {"verify": 3000 + _jitter(rng), "solve": 2 * 10**6 + _jitter(rng)}
    elif workload == "small-terms":
        heavy = {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Operations left at their small size repeat within a round, so that they
    # get as many samples as in small-terms while rounds are long.
    repeats = 1 if workload == "small-terms" else SMALL_REPEATS
    round_ops = []
    for family, payload in {**small, **heavy}.items():
        if family == "term":
            # Each evaluator is timed alone, keeping each timing short next
            # to the kernel that normalises it.
            ops = [("term", [(kind, NAMED["a"] if kind == "closed" else None, payload)]) for kind in ("closed", "u", "v")]
        else:
            ops = [(family, payload)]
        round_ops += ops * (1 if family in heavy else repeats)
    return round_ops
