import sys
import tracemalloc
from itertools import islice, pairwise

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triavg import identities
from triavg.convergents import numerators
from triavg.identities import SUITES, IdentityReport, run_all
from triavg.recurrences import sequence_prefix, terms

# Every suite, keyed by its test id.
SUITE_IDS = {
    "check_lucas_identities": "lucas",
    "check_discriminant": "discriminant",
    "check_congruences": "congruences",
    "check_linkages": "linkages",
    "check_v_square": "v-square",
    "check_bisection": "bisection",
    "check_differences": "differences",
}


def test_expect_records_mismatches_only(monkeypatch):
    # A stub suite whose second comparison fails at n = 1 only.
    monkeypatch.setitem(SUITES, "stub", (0, frozenset(), lambda w: [(10, 10), (10, 10 + (w.n == 1))]))
    (report,) = run_all(3, ["stub"])
    assert report.failures == [(1, 10, 11)]


def test_suite_runs_from_its_first_index(monkeypatch):
    seen = []
    monkeypatch.setitem(SUITES, "stub", (1, frozenset(), lambda w: seen.append(w.n) or []))
    (report,) = run_all(3, ["stub"])
    assert seen == [1, 2, 3]
    assert report == IdentityReport("stub", (1, 3), [])


def test_report_ok_property():
    assert IdentityReport("x", (0, 1), []).ok
    assert not IdentityReport("x", (0, 1), [(0, 1, 2)]).ok


def test_lucas_base_cases_by_hand():
    # L = 2, 4, 14, 52, 194, 724: L_0^2 = 4 = L_0 + 2, L_1*L_2 = 56 = L_3 + 4,
    # L_2^2 = 196 = L_4 + 2.
    (report,) = run_all(2, ["lucas"])
    assert report.ok
    assert report.checked_range == (0, 2)


def test_discriminant_values_by_hand():
    # n=2: 1 + 12*5 + 12*25 = 361 = 724/2 - 1 = 19^2.
    # n=3: 1 + 12*20 + 12*400 = 5041 = 71^2.
    assert 1 + 12 * 5 + 12 * 25 == 361 == 724 // 2 - 1 == 19 * 19
    assert 1 + 12 * 20 + 12 * 400 == 5041 == 71 * 71
    assert run_all(3, ["discriminant"])[0].ok


def test_congruence_base_cases():
    # L_1 = 4 is divisible by 4, v_0 = 3 is 3 mod 6, u_2 = 19 is odd.
    assert run_all(2, ["congruences"])[0].ok


def test_linkage_values_by_hand():
    # b_2 = (u_2 - 3)/2 = 8, a_2 = (v_2 - 3)/6 = 5, v_2 - v_1 = 24 = 6*F_2.
    assert (19 - 3) // 2 == 8
    assert (33 - 3) // 6 == 5
    assert 33 - 9 == 24 == 6 * 4
    assert run_all(4, ["linkages"])[0].ok


def test_v_square_chain_by_hand():
    # n=1: 81 = 3*(25 + 2) = 3*(52 + 2)/2 = 3*(11 + 12 + 4).
    assert 9 * 9 == 3 * (25 + 2) == 3 * (52 + 2) // 2 == 3 * (11 + 12 * 1 + 4 * 1)
    assert run_all(2, ["v-square"])[0].ok


@pytest.mark.parametrize("name", SUITE_IDS.values(), ids=SUITE_IDS.keys())
def test_checkers_pass_to_64(name):
    # Run alone, a suite sees None for each stream and each square it did
    # not declare, so a suite that reads one of those fails here.
    (report,) = run_all(64, [name])
    assert report.ok
    assert report.checked_range == (SUITES[name][0], 64)


def test_suite_ids_cover_every_suite():
    assert sorted(SUITE_IDS.values()) == sorted(SUITES)


@pytest.mark.parametrize(
    "names, letters",
    [(["bisection"], {"u"}), (["lucas"], {"L"}), (["linkages"], {"a", "b", "u", "v", "F"}), (list(SUITES), set("abuvFL"))],
)
def test_run_all_asks_only_for_the_streams_its_suites_read(monkeypatch, names, letters):
    asked = []
    monkeypatch.setattr(identities, "terms", lambda seq: asked.append(seq) or terms(seq))
    assert all(report.ok for report in run_all(5, names))
    assert set(asked) == letters


# The window terms drawn from each stream.
STREAMS = [
    {"a", "a_sq"},
    {"b", "b_sq"},
    {"u", "u_sq", "u_prev"},
    {"v", "v_sq", "v_prev"},
    {"F"},
    {"L", "L_sq", "L_cross"},
    {"L_even", "L_odd"},
    {"z_prev", "z_even", "z_odd"},
]
SQUARES = {"a_sq", "b_sq", "u_sq", "v_sq", "L_sq", "L_cross"}


def test_a_window_holds_only_the_streams_and_squares_read():
    for _, reads, _ in SUITES.values():
        moving = set().union(*(stream for stream in STREAMS if stream & reads))
        for w in islice(identities._windows(set(reads)), 3):
            held = {field for field, value in w._asdict().items() if value is not None}
            unset_at_zero = {"u_prev", "v_prev", "z_prev"} if w.n == 0 else set()
            assert held == moving - (SQUARES - reads) - unset_at_zero | {"n"}


class _Recorder:
    """A window that records the fields read from it."""

    def __init__(self, window):
        self._window, self.read = window, set()

    def __getattr__(self, field):
        self.read.add(field)
        return getattr(self._window, field)


@pytest.mark.parametrize("name", SUITE_IDS.values(), ids=SUITE_IDS.keys())
def test_each_suite_reads_exactly_the_terms_it_declares(name):
    _, reads, check = SUITES[name]
    seen = set()
    for w in islice(identities._windows(set(identities.Window._fields)), 1, 4):
        recorder = _Recorder(w)
        check(recorder)
        seen |= recorder.read
    assert seen - {"n"} == reads


# What --suite all reads: every window term.
ALL_READS = set().union(*(reads for _, reads, _ in SUITES.values()))


def assert_squares_and_cross(windows):
    for w, after in pairwise(windows):
        assert [w.a_sq, w.b_sq, w.u_sq, w.v_sq, w.L_sq] == [w.a**2, w.b**2, w.u**2, w.v**2, w.L**2]
        assert w.L_cross == w.L * after.L


def test_each_square_is_squared_from_its_own_term(monkeypatch):
    # Unshifted, u, v and L carry with c = 0 and a and b with c = k. Then
    # every stream is shifted by its own offset, so a square taken from
    # another stream, or through an identity, no longer matches its term.
    # The windows run well past the index (about 527) where every stream's
    # terms pass SQUARE_FROM_BITS and its squares are carried.
    assert ALL_READS == set(identities.Window._fields) - {"n"}
    assert_squares_and_cross(islice(identities._windows(ALL_READS), 701))
    shifts = {"a": 1, "b": 2, "u": 3, "v": 5, "F": 7, "L": 11}
    letters, squared, crossed, stream = {}, [], [], identities._stream

    def shifted(seq):
        xs = (term + shifts[seq] for term in terms(seq))
        letters[xs] = seq
        return xs

    def counted(xs, is_squared, is_crossed):
        if is_squared:
            squared.append(letters[xs])
        if is_crossed:
            crossed.append(letters[xs])
        return stream(xs, is_squared, is_crossed)

    monkeypatch.setattr(identities, "terms", shifted)
    monkeypatch.setattr(identities, "_stream", counted)
    list(islice(identities._windows(set(SUITES["bisection"][1])), 3))
    assert list(letters.values()) == ["u"] and not squared  # bisection reads u, but no square
    windows = list(islice(identities._windows(ALL_READS), 701))
    assert sorted(squared) == sorted("abuvL")
    assert crossed == ["L"]  # only lucas reads a cross product
    assert windows[-1].a.bit_length() > identities.SQUARE_FROM_BITS + 200
    assert_squares_and_cross(windows)


def stream_items(xs, bits, crossed):
    """What _stream(xs, True, crossed) yields at SQUARE_FROM_BITS = bits, by plain multiplication.

    Step n >= 1 is carried after a term of at least 2**bits in size. The
    cross product is None at n = 0 and, for an uncrossed stream, at a
    multiplied step unless the next step carries from it; else it is exact.
    """
    items = []
    for n, x in enumerate(xs):
        before = xs[n - 1] if n else None
        carried = n and abs(before) >> bits
        unread = not (crossed or carried or abs(x) >> bits)
        items.append((before, x, x * x, None if n == 0 or unread else x * before))
    return items


# Any int, from 0 to far past SQUARE_FROM_BITS, of either sign.
ANY_INT = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40), st.integers(-(2**2200), 2**2200))
CUTOFFS = st.sampled_from([0, 1, 64, identities.SQUARE_FROM_BITS])


@settings(max_examples=150, deadline=None)
@given(st.lists(ANY_INT, min_size=1, max_size=12), CUTOFFS)
@example([5], 1000)  # one term
@example([-3, 7], 0)  # two terms, carried from the second on
@example([-(2**64), 2**65 - 1, 1], 64)  # past the cutoff from the first term
@example([2**1500 + 1, -(2**1400), 2**1600, 3], 1000)
def test_a_carried_square_is_exact_for_any_stream(xs, bits):
    # Streams that follow no recurrence, with sign changes and huge jumps,
    # multiplied or carried at each cutoff: at 0 every nonzero term counts
    # as long, so the carry takes over from n = 1.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "SQUARE_FROM_BITS", bits)
        items = {crossed: list(identities._stream(iter(xs), True, crossed)) for crossed in (True, False)}
        plain = list(identities._stream(iter(xs), False, False))
    assert items == {crossed: stream_items(xs, bits, crossed) for crossed in (True, False)}
    assert plain == [(p, x, None, None) for p, x in zip([None, *xs[:-1]], xs)]


def homogeneous(prev, cur, count):
    """The first count terms of x_n = 4*x_{n-1} - x_{n-2} from x_0 = prev and x_1 = cur."""
    xs = []
    for _ in range(count):
        xs.append(prev)
        prev, cur = cur, 4 * cur - prev
    return xs


@st.composite
def homogeneous_runs(draw):
    """A homogeneous run from random seeds, with a few terms perturbed.

    A perturbed term puts c != 0 at its own index and the two after it;
    every other step has c = 0.
    """
    xs = homogeneous(draw(ANY_INT), draw(ANY_INT), draw(st.integers(1, 60)))
    for _ in range(draw(st.integers(0, 3))):
        xs[draw(st.integers(0, len(xs) - 1))] += draw(ANY_INT)
    return xs


# F_530, F_529, ..., F_0, -F_1, ..., -F_59: past 1000 bits at first, the
# terms fall below it and below 64 bits, cross 0 and grow again.
FALLING = homogeneous(*sequence_prefix("F", 531)[:-3:-1], 590)


@settings(max_examples=150, deadline=None)
@given(homogeneous_runs(), CUTOFFS, st.booleans())
@example([3, 9, 33, 123, 459], 0, False)  # v: c = 0 at every carried step
@example(homogeneous(2**990, 2**990 + 1, 12), 1000, False)  # carried from x_8 on
@example(FALLING, 1000, False)
@example(FALLING, 64, True)
def test_a_carried_square_is_exact_where_c_is_zero(xs, bits, crossed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "SQUARE_FROM_BITS", bits)
        items = list(identities._stream(iter(xs), True, crossed))
    assert items == stream_items(xs, bits, crossed)


def test_an_empty_stream_yields_nothing():
    assert [list(identities._stream([], *flags)) for flags in [(True, True), (True, False), (False, False)]] == [[]] * 3


@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries({seq: st.lists(ANY_INT, min_size=1, max_size=10) for seq in "abuvL"}),
    CUTOFFS,
)
def test_window_squares_are_exact_for_any_streams(streams, bits):
    # Streams that follow no recurrence, with sign changes, huge jumps and
    # as few as one term, on both sides of the switch to carried squares.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "terms", lambda seq: iter(streams[seq]))
        patch.setattr(identities, "SQUARE_FROM_BITS", bits)
        windows = list(identities._windows(set(identities.Window._fields) - {"F"}))
    L = streams["L"]
    assert len(windows) == min(*map(len, streams.values()), len(L) - 1, len(L) // 2)
    for w in windows:
        assert [w.a_sq, w.b_sq, w.u_sq, w.v_sq, w.L_sq] == [w.a**2, w.b**2, w.u**2, w.v**2, w.L**2]
        assert w.L_cross == w.L * L[w.n + 1]


@pytest.mark.parametrize("name", SUITE_IDS.values(), ids=SUITE_IDS.keys())
def test_checkers_reject_bad_range(name):
    with pytest.raises(ValueError):
        run_all(0, [name])


def test_run_all_small_and_large():
    for max_n in (1, 64):
        reports = run_all(max_n)
        assert len(reports) == 7
        assert all(report.ok for report in reports)


def test_run_all_at_one_thousand():
    reports = run_all(1000)
    assert all(report.ok for report in reports)


def test_run_all_reports_the_named_suites_in_order():
    reports = run_all(4, ["differences", "lucas"])
    assert [(r.name, r.checked_range) for r in reports] == [("differences", (1, 4)), ("lucas", (0, 4))]
    assert [r.name for r in run_all(4)] == list(SUITES)


def test_reports_are_deterministic():
    assert run_all(50, ["lucas"]) == run_all(50, ["lucas"])
    assert run_all(20) == run_all(20)


def test_report_names_are_distinct():
    names = [report.name for report in run_all(2)]
    assert len(names) == len(set(names))


def test_run_all_holds_no_prefix():
    max_n = 2000
    L = sequence_prefix("L", 2 * max_n + 2)
    prefix_bytes = sys.getsizeof(L) + sum(sys.getsizeof(term) for term in L)
    del L
    tracemalloc.start()
    try:
        reports = run_all(max_n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(report.ok for report in reports)
    assert peak < prefix_bytes / 4, (peak, prefix_bytes)


# (stream, index of the one corrupted term, n that reads it, suites reading it at n)
CORRUPTIONS = [
    ("u", 5, 5, {"discriminant", "congruences", "linkages", "v-square", "bisection", "differences"}),
    ("L", 11, 5, {"lucas", "discriminant", "congruences", "v-square"}),  # L_{2n+1}
    ("L", 5, 5, {"lucas", "differences"}),  # L_n
    ("z", 11, 5, {"bisection", "differences"}),  # z_{2n+1}
    ("a", 5, 5, {"discriminant", "linkages"}),
    ("b", 5, 5, {"linkages", "v-square"}),
    ("v", 5, 5, {"congruences", "linkages", "v-square"}),
    ("F", 5, 5, {"linkages"}),
    # Past the switch to carried squares (about n = 527), a bad term still
    # fails every suite that reads it or its square.
    ("a", 700, 700, {"discriminant", "linkages"}),
    ("b", 700, 700, {"linkages", "v-square"}),
    ("u", 700, 700, {"discriminant", "congruences", "linkages", "v-square", "bisection", "differences"}),
    ("v", 700, 700, {"congruences", "linkages", "v-square"}),
    ("L", 700, 700, {"lucas", "differences"}),  # L_n
]


@pytest.mark.parametrize("stream, index, n, readers", CORRUPTIONS)
def test_one_corrupted_term_fails_every_suite_that_reads_it(monkeypatch, stream, index, n, readers):
    def bump(values):
        return (term + 1 if i == index else term for i, term in enumerate(values))

    if stream == "z":
        monkeypatch.setattr(identities, "numerators", lambda: bump(numerators()))
    else:
        monkeypatch.setattr(identities, "terms", lambda seq: bump(terms(seq)) if seq == stream else terms(seq))
    failing = {report.name for report in run_all(n + 3) if any(f[0] == n for f in report.failures)}
    assert failing == readers


def test_corruptions_reach_every_suite():
    assert set().union(*(readers for *_, readers in CORRUPTIONS)) == set(SUITES)
