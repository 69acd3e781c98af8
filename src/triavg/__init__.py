"""triavg: exact arithmetic for the sequences behind triangular-number averages.

The headline statement: the average of the first b_n triangular numbers is
itself a triangular number, the a_n-th. Everything here exists either to
generate the sequence family involved (a, b, u, v, L, F, and the convergent
numerators z) or to verify, with exact integer arithmetic, the identities
that make the statement true. Sequences are streams: ``terms(seq)`` for the
family, ``numerators()`` and ``denominators()`` for the convergent ladder.
"""

from .convergents import denominators, numerators
from .exactnum import ALPHA, BETA, ONE, SQRT3, ZERO, QuadElem, is_perfect_square
from .identities import SUITES, IdentityReport, run_all
from .recurrences import (
    A_SPEC,
    B_SPEC,
    F_SPEC,
    L_SPEC,
    NAMED_SPECS,
    U_SPEC,
    V_SPEC,
    RecurrenceSpec,
    SequenceId,
    eval_closed_form,
    eval_u,
    eval_v,
    eval_via_L,
    gf_coefficients,
    resolve_spec,
    sequence_prefix,
    terms,
)
from .triangular import (
    TriangularWitness,
    check_pair,
    enumerate_solutions,
    prefix_average,
    prefix_sum,
    solve_r_for_s,
    solve_s_for_r,
    witness,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "ONE",
    "SQRT3",
    "ZERO",
    "QuadElem",
    "is_perfect_square",
    "RecurrenceSpec",
    "SequenceId",
    "NAMED_SPECS",
    "A_SPEC",
    "B_SPEC",
    "U_SPEC",
    "V_SPEC",
    "L_SPEC",
    "F_SPEC",
    "resolve_spec",
    "eval_closed_form",
    "eval_via_L",
    "eval_u",
    "eval_v",
    "gf_coefficients",
    "sequence_prefix",
    "terms",
    "IdentityReport",
    "SUITES",
    "run_all",
    "prefix_sum",
    "prefix_average",
    "check_pair",
    "solve_s_for_r",
    "solve_r_for_s",
    "enumerate_solutions",
    "TriangularWitness",
    "witness",
    "numerators",
    "denominators",
]
