import functools
import heapq
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horoshift import subshifts
from horoshift.certify import (Direction, _window_stream, dilated_trace,
                               farey_directions)
from horoshift import (FullShift, FullShiftZ, InputError, LinearGF2,
                       ResourceBudgetError, SFT, SkewActionSpec,
                       enumerate_fillings, ledrappier, skew_exponent,
                       validate)
from horoshift.subshifts import (DEFAULT_FILLING_BUDGET, _RowTransfer,
                                 _window_array, box_sites, solve_forward,
                                 spec_from_dict, varies_inside)


class TestSpecs:
    def test_ledrappier_support(self):
        spec = ledrappier()
        assert spec.support == ((0, 0), (0, 1), (1, 0))
        assert spec.alphabet == (0, 1)

    def test_linear_check_at(self):
        spec = ledrappier()
        assert validate(spec, {(0, 0): 1, (1, 0): 1, (0, 1): 0})
        assert not validate(spec, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        # partial assignments never reject
        assert validate(spec, {(0, 0): 1, (1, 0): 1})

    def test_sft_needs_forbidden(self):
        with pytest.raises(InputError):
            SFT((0, 1), [])

    def test_fullshift_accepts_everything(self):
        spec = FullShift((0, 1))
        assert validate(spec, {(0, 0): 1, (5, 5): 0})

    def test_spec_round_trip(self):
        for spec in (ledrappier(), FullShift((0, 1, 2)),
                     SFT((0, 1), [{(0, 0): 1, (1, 0): 1}])):
            again = spec_from_dict(spec.to_dict())
            assert again.to_dict() == spec.to_dict()

    def test_spec_from_dict_unknown(self):
        with pytest.raises(InputError):
            spec_from_dict({"kind": "mystery"})

    # each was read as another rule: the last symbol of a site listed
    # twice, a symbol no configuration has, coordinates truncated to ints
    @pytest.mark.parametrize("make", [
        lambda: SFT((0, 1), [[[(0, 0), 1], [(0, 0), 0]]]),
        lambda: SFT((0, 1), [{(0, 0): 2}]),
        lambda: SFT((0, 1), [{(0.5, 0): 1}]),
        lambda: LinearGF2([(0, 0), (1.5, 0), (0, 1)]),
        lambda: LinearGF2([(0, 0), ("1", 0), (0, 1)]),
        lambda: validate(ledrappier(), [[(0, 0), 1], [(0, 0), 0]]),
        # index(True) is 1: a bool read as a coordinate
        lambda: LinearGF2([(0, 0), (True, 0), (0, 1)]),
        lambda: SFT((0, 1), [[[(False, 1), 1]]]),
        lambda: validate(ledrappier(), {(0, True): 1}),
        lambda: list(enumerate_fillings(ledrappier(), 1,
                                        clamp={(True, 0): 1})),
        lambda: varies_inside(ledrappier(), 1, [[(0, False), 1]],
                              {(0, 0): 0}, 0),
        # a window of negative size, or one that is not an integer: N=True
        # walked N=1, N=1.5 raised a TypeError
        lambda: list(enumerate_fillings(ledrappier(), -1)),
        lambda: list(enumerate_fillings(ledrappier(), True)),
        lambda: list(enumerate_fillings(ledrappier(), 1.5)),
        lambda: _RowTransfer(ledrappier(), 1.0, None),
        lambda: varies_inside(ledrappier(), 2, {}, {(0, 0): 0}, 0.5),
        lambda: varies_inside(ledrappier(), "2", {}, {(0, 0): 0}, 0),
        lambda: box_sites(0.5),
    ], ids=["sft-site-twice", "sft-symbol-outside", "sft-site-not-integer",
            "support-site-float", "support-site-string",
            "validate-site-twice", "support-site-bool", "sft-site-bool",
            "validate-site-bool", "clamp-site-bool", "varies-clamp-bool",
            "window-negative", "window-bool", "window-float",
            "walk-window-float", "varies-window-float", "varies-outer-string",
            "box-window-float"])
    def test_outside_input_refused(self, make):
        with pytest.raises(InputError):
            make()


class TestValidate:
    def test_rule_examples(self):
        spec = ledrappier()
        assert validate(spec, {(0, 0): 1, (1, 0): 1, (0, 1): 0})
        assert not validate(spec, {(0, 0): 1, (1, 0): 0, (0, 1): 0})

    def test_partial_support_is_vacuous(self):
        spec = ledrappier()
        assert validate(spec, {(0, 0): 1, (1, 0): 0})

    def test_alphabet_enforced(self):
        with pytest.raises(InputError):
            validate(ledrappier(), {(0, 0): 2})

    def test_sft_forbidden_detected(self):
        spec = SFT((0, 1), [{(0, 0): 1, (1, 0): 1}])
        assert not validate(spec, {(3, 3): 1, (4, 3): 1})
        assert validate(spec, {(3, 3): 1, (4, 3): 0})


class TestEnumerate:
    def test_counts_frozen(self):
        spec = ledrappier()
        assert sum(1 for _ in enumerate_fillings(spec, 1)) == 32
        assert sum(1 for _ in enumerate_fillings(spec, 2)) == 512
        # a zero bottom edge leaves exactly two free bits on the right column
        clamp = {(x, -1): 0 for x in (-1, 0, 1)}
        assert sum(1 for _ in enumerate_fillings(spec, 1, clamp=clamp)) == 4

    def test_fullshift_count(self):
        assert sum(1 for _ in enumerate_fillings(FullShift((0, 1)), 1)) == 512

    def test_linear_count_is_power_of_two(self):
        # admissible fillings form a GF(2) vector space
        for N in (1, 2, 3):
            c = sum(1 for _ in enumerate_fillings(ledrappier(), N))
            assert c & (c - 1) == 0

    def test_every_streamed_filling_is_valid(self):
        spec = ledrappier()
        fillings = list(enumerate_fillings(spec, 2))
        for f in fillings:
            assert validate(spec, f)
        assert len({tuple(f.items()) for f in fillings}) == len(fillings)

    def test_contradictory_clamp_empty(self):
        spec = ledrappier()
        clamp = {(0, 0): 1, (1, 0): 0, (0, 1): 0}
        assert sum(1 for _ in enumerate_fillings(spec, 1, clamp=clamp)) == 0

    def test_clamp_outside_window(self):
        with pytest.raises(InputError):
            sum(1 for _ in enumerate_fillings(ledrappier(), 1, clamp={(5, 0): 0}))

    def test_budget(self):
        with pytest.raises(ResourceBudgetError) as exc:
            sum(1 for _ in enumerate_fillings(ledrappier(), 2, budget=100))
        assert exc.value.count == 100

    def test_stream_order_deterministic(self):
        a = [tuple(sorted(f.items())) for f in enumerate_fillings(ledrappier(), 1)]
        b = [tuple(sorted(f.items())) for f in enumerate_fillings(ledrappier(), 1)]
        assert a == b

    def test_raster_order(self):
        assert box_sites(1) == [(-1, -1), (0, -1), (1, -1),
                                (-1, 0), (0, 0), (1, 0),
                                (-1, 1), (0, 1), (1, 1)]


HARD_SQUARE = SFT((0, 1), [{(0, 0): 1, (1, 0): 1},
                           {(0, 0): 1, (0, 1): 1}])


def _placed(support, sites):
    """Every translate of ``support`` lying inside ``sites``, by definition;
    the anchors cover the windows (within [-2, 2]^2) and supports (offsets
    in 0..2) of these tests."""
    return _placed_in(tuple(support), frozenset(sites))


@functools.lru_cache(maxsize=1024)
def _placed_in(support, sites):
    return [[(z[0] + s[0], z[1] + s[1]) for s in support]
            for z in itertools.product(range(-4, 3), repeat=2)
            if all((z[0] + s[0], z[1] + s[1]) in sites for s in support)]


def _admissible(spec, symbols):
    """The spec's rule on every translate inside the assigned sites."""
    if isinstance(spec, LinearGF2):
        return all(sum(symbols[c] for c in cells) % 2 == 0
                   for cells in _placed(spec.support, symbols))
    if isinstance(spec, SFT):
        return not any(
            all(symbols[c] == v for c, v in zip(cells, p.values()))
            for p in spec.forbidden for cells in _placed(list(p), symbols))
    return True


def _brute_force(spec, N, clamp):
    """All admissible assignments of the window extending ``clamp``, trying
    every symbol on the free cells only, lexicographic in raster order."""
    sites = box_sites(N)
    choices = [[clamp[s]] if s in clamp else sorted(spec.alphabet) for s in sites]
    fillings = (dict(zip(sites, values)) for values in itertools.product(*choices))
    return [f for f in fillings if _admissible(spec, f)]


# a rule three rows tall, so a row's checks read the two rows below it
TALL = LinearGF2([(0, 0), (1, 0), (0, 2)])
# (spec, clamp) pairs whose window-1 streams are checked against brute force
CHECK_PLAN_CASES = {
    "fullshift": (FullShift((0, 1)), {}),
    "ledrappier": (ledrappier(), {}),
    "ledrappier-clamped": (ledrappier(), {(x, -1): 0 for x in (-1, 0, 1)}),
    "hard-square": (HARD_SQUARE, {}),
    "single-site": (SFT((0, 1, 2), [{(0, 0): 2}]), {}),
    "three-cells-apart": (
        SFT((0, 1), [{(0, 0): 1, (2, 0): 0, (1, 2): 1}]), {}),
    "tall": (TALL, {}),
    "tall-clamped": (TALL, {(0, 0): 1, (1, 1): 0}),
}


class TestCheckPlan:
    @pytest.mark.parametrize("spec, clamp", CHECK_PLAN_CASES.values(),
                             ids=CHECK_PLAN_CASES.keys())
    def test_stream_equals_brute_force(self, spec, clamp):
        stream = [f for f in enumerate_fillings(spec, 1, clamp=clamp)]
        assert stream == _brute_force(spec, 1, clamp)

    # a free walk shares one table among its rows from the rule's height up;
    # a clamped plan keeps a table per row, so the walks clamped at the
    # raster-last site check it independently.  Of a stream longer than
    # 60,000 fillings (three-cells-apart at N = 2 has 9,483,264) the first
    # 60,000 are compared
    @pytest.mark.parametrize("name, N", [
        *itertools.product(["ledrappier", "hard-square", "tall",
                            "three-cells-apart"], [2]),
        ("ledrappier", 3)])
    def test_free_stream_merges_the_corner_clamps(self, name, N):
        spec, _ = CHECK_PLAN_CASES[name]
        subshifts._check_plan.cache_clear()
        free = _RowTransfer(spec, N, None).fillings()
        corner = [_RowTransfer(spec, N, {(N, N): v}).fillings()
                  for v in spec.alphabet]
        want = list(itertools.islice(heapq.merge(*corner), 60_000))
        assert list(itertools.islice(free, 60_000)) == want
        assert next(free, None) is None or len(want) == 60_000

    def test_a_clamped_plan_keeps_a_table_per_row(self):
        free = _RowTransfer(TALL, 2, None)
        assert [r for r, _ in free.keys] == [0, 1, 2, 2, 2]
        for site in box_sites(2):
            walk = _RowTransfer(TALL, 2, {site: 0})
            assert [r for r, _ in walk.keys] == list(range(5)), site
            assert len({id(table) for table in walk.tables}) == 5, site

    @pytest.mark.parametrize("spec", [ledrappier(), HARD_SQUARE],
                             ids=["ledrappier", "hard-square"])
    @given(symbols=st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(0, 1)))
    @settings(max_examples=200, deadline=None)
    def test_validate_is_the_definition(self, spec, symbols):
        assert validate(spec, symbols) == _admissible(spec, symbols)


@st.composite
def _clamps(draw, alphabet, contradiction, N=1):
    """Random clamps of [-N, N]^2: some sites, perhaps a whole row and a whole
    column, and perhaps a placement clamped to a pattern the rule forbids."""
    r = range(-N, N + 1)
    sites = set(draw(st.lists(st.sampled_from(box_sites(N)), max_size=6)))
    if draw(st.booleans()):
        y = draw(st.sampled_from(r))
        sites |= {(x, y) for x in r}
    if draw(st.booleans()):
        x = draw(st.sampled_from(r))
        sites |= {(x, y) for y in r}
    clamp = {s: draw(st.sampled_from(alphabet)) for s in sorted(sites)}
    if draw(st.booleans()):
        clamp.update(contradiction)
    return clamp


# a 3-symbol rule with a vertical and a horizontal pattern
THREE_SYMBOL = SFT((0, 1, 2), [{(0, 0): 2, (0, 1): 2},
                               {(0, 0): 1, (1, 0): 0}])
# (spec, a placement in [-1, 1]^2 clamped to symbols the rule forbids)
CLAMPED_CASES = {
    "ledrappier": (ledrappier(), {(0, 0): 1, (1, 0): 0, (0, 1): 0}),
    "hard-square": (HARD_SQUARE, {(0, 0): 1, (1, 0): 1}),
    "tall": (TALL, {(-1, -1): 1, (0, -1): 0, (-1, 1): 0}),
    "three-cells-apart": (
        CHECK_PLAN_CASES["three-cells-apart"][0],
        {(-1, -1): 1, (1, -1): 0, (0, 1): 1}),
    "three-symbol": (THREE_SYMBOL, {(0, 0): 2, (0, 1): 2}),
}


@functools.lru_cache(maxsize=1)
def _ledrappier_window_2():
    return list(_RowTransfer(ledrappier(), 2, None).fillings())


class TestClampedStream:
    @pytest.mark.parametrize("spec, contradiction", CLAMPED_CASES.values(),
                             ids=CLAMPED_CASES.keys())
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_brute_force(self, spec, contradiction, data):
        clamp = data.draw(_clamps(spec.alphabet, contradiction))
        stream = [f for f in enumerate_fillings(spec, 1, clamp=clamp)]
        assert stream == _brute_force(spec, 1, clamp)
        if contradiction.items() <= clamp.items():
            assert stream == []

    @given(i=st.integers(0, 511), j=st.integers(0, 511))
    @settings(max_examples=60, deadline=None)
    def test_pair_extension_shape(self, i, j):
        # as in an extension search: the inner rows of one filling and the
        # left columns of another clamped, the margin rows free
        fillings = _ledrappier_window_2()
        sites = box_sites(2)
        inner = dict(zip(sites, itertools.chain(*fillings[i])))
        outer = dict(zip(sites, itertools.chain(*fillings[j])))
        clamp = {s: outer[s] for s in sites if s[0] < 0} | \
            {s: inner[s] for s in sites if abs(s[1]) < 2}
        stream = [f for f in enumerate_fillings(ledrappier(), 2,
                                                clamp=clamp)]
        assert stream == _brute_force(ledrappier(), 2, clamp)


ROW_CASES = {
    **{name: (spec, clamp, 1) for name, (spec, clamp) in CHECK_PLAN_CASES.items()},
    "tall-window-2": (TALL, {}, 2),
    "hard-square-window-2": (HARD_SQUARE, {}, 2),
    "hard-square-clamped": (HARD_SQUARE, {(0, 0): 1, (2, -1): 0}, 2),
    "ledrappier-window-2-clamped": (ledrappier(), {(-2, 2): 1, (0, 0): 1}, 2),
}


class TestFillingRows:
    @pytest.mark.parametrize("spec, clamp, N", ROW_CASES.values(),
                             ids=ROW_CASES.keys())
    def test_rows_match_stream(self, spec, clamp, N):
        sites = box_sites(N)
        rows = list(_RowTransfer(spec, N, clamp).fillings())
        assert rows
        assert all(len(f) == 2 * N + 1 and all(len(r) == 2 * N + 1 for r in f)
                   for f in rows)
        assert [tuple(itertools.chain(*f)) for f in rows] == [
            tuple(f[s] for s in sites)
            for f in enumerate_fillings(spec, N, clamp=clamp)]

    def test_contradictory_clamp_is_empty(self):
        clamp = {(0, 0): 1, (1, 0): 0, (0, 1): 0}
        walk = _RowTransfer(ledrappier(), 1, clamp).fillings()
        assert next(walk, None) is None

    def test_clamp_outside_window(self):
        with pytest.raises(InputError):
            _RowTransfer(ledrappier(), 1, {(0, 2): 0})

    @pytest.mark.parametrize("spec, N, clamp", [
        (FullShift((0, 1)), 0, {(0, 0): 5}),
        (ledrappier(), 1, {(0, 0): 3}),
        (ledrappier(), 1, {"ab": 1}),
        (FullShift((0, 1)), 0, [[[0.9, 0], 1]]),
        (ledrappier(), 1, [[[0, 0], 1], [[0, 0], 0]])],
        ids=["symbol-outside-full-shift", "symbol-outside-ledrappier",
             "site-not-a-pair", "site-not-integer", "site-twice"])
    def test_malformed_clamp_refused(self, spec, N, clamp):
        with pytest.raises(InputError):
            list(enumerate_fillings(spec, N, clamp=clamp))
        with pytest.raises(InputError):
            varies_inside(spec, N, clamp, {(0, 0): spec.alphabet[0]}, 0)


# (spec, N) windows whose counts are checked against the walk
COUNT_CASES = {
    **{name: (spec, N) for name, (spec, clamp, N) in ROW_CASES.items()
       if not clamp},
    "ledrappier-window-2": (ledrappier(), 2),
    "three-symbol": (THREE_SYMBOL, 1),
}

# a 3-symbol rule forbidding one vertical pattern: 3^9 rows of the N=4
# window follow almost every row, so no count may expand them all
VERTICAL_3 = SFT((0, 1, 2), [{(0, 0): 2, (0, 1): 2}])


def _with_resumes(monkeypatch, run, limit=None):
    """``run()``, how often it resumed a ``_RowTransfer._next_rows`` walk,
    and how many such walks, row state expansions, it started; given
    ``limit``, the test fails as soon as the resumes pass it."""
    resumes = expansions = 0
    next_rows = _RowTransfer._next_rows

    def resumed():
        nonlocal resumes
        resumes += 1
        if limit is not None and resumes > limit:
            pytest.fail(f"more than {limit} resumes of _next_rows")

    def counted(self, r, state):
        nonlocal expansions
        expansions += 1
        for row in next_rows(self, r, state):
            resumed()
            yield row
        resumed()

    with monkeypatch.context() as m:
        m.setattr(_RowTransfer, "_next_rows", counted)
        result = run()
    return result, resumes, expansions


class TestCountFillings:
    @pytest.mark.parametrize("spec, N", COUNT_CASES.values(),
                             ids=COUNT_CASES.keys())
    def test_count_matches_walk(self, spec, N):
        n = sum(1 for _ in _RowTransfer(spec, N, None).fillings())
        for budget in (0, n - 1, n, n + 1, 10 ** 6):
            if budget < 0:
                continue
            array = _window_array(spec, N, budget)
            if n <= budget:
                assert len(array) == n, budget
            else:
                assert array is None, budget

    @pytest.mark.parametrize(
        "spec, N", [(VERTICAL_3, 4), (HARD_SQUARE, 3)],
        ids=["vertical-3-window-4", "hard-square-window-3"])
    def test_no_more_row_work_than_the_walk(self, monkeypatch, spec, N):
        budget = DEFAULT_FILLING_BUDGET
        # each run starts from fresh tables, so it expands its own states
        subshifts._check_plan.cache_clear()
        walked, walk_resumes, _ = _with_resumes(monkeypatch, lambda: sum(
            1 for _ in itertools.islice(_RowTransfer(spec, N, None).fillings(),
                                        budget + 1)))
        subshifts._check_plan.cache_clear()
        array, array_resumes, _ = _with_resumes(
            monkeypatch, lambda: _window_array(spec, N, budget),
            limit=walk_resumes)
        # both windows have more fillings than the budget
        assert walked == budget + 1 and array is None
        assert array_resumes <= walk_resumes

    # the row states a free walk from a fresh plan expands, with every row
    # from the rule's height up read from one table (each row's own: 53,
    # 129, 3,105); a state is expanded again only while it is still walked
    @pytest.mark.parametrize("spec, N, want", [
        (HARD_SQUARE, 2, 17), (ledrappier(), 2, 36), (TALL, 2, 1_059)],
        ids=["hard-square", "ledrappier", "tall"])
    def test_free_walk_expansions(self, monkeypatch, spec, N, want):
        subshifts._check_plan.cache_clear()
        _, _, expansions = _with_resumes(
            monkeypatch, lambda: list(_RowTransfer(spec, N, None).fillings()))
        assert expansions == want

    def test_budget_refusal_expansions(self, monkeypatch):
        # the hard square's N = 3 window passes the budget (each row's own
        # tables: 108 expansions)
        subshifts._check_plan.cache_clear()
        array, _, expansions = _with_resumes(
            monkeypatch,
            lambda: _window_array(HARD_SQUARE, 3, DEFAULT_FILLING_BUDGET))
        assert array is None and expansions == 40

    @pytest.mark.parametrize("spec, N", COUNT_CASES.values(),
                             ids=COUNT_CASES.keys())
    def test_stream_after_count_expands_nothing(self, monkeypatch, spec, N):
        subshifts._check_plan.cache_clear()  # the count expands every state
        array = _window_array(spec, N, 10 ** 6)
        walk = _RowTransfer(spec, N, None)
        rows, resumes, _ = _with_resumes(monkeypatch,
                                         lambda: list(walk.fillings()))
        assert resumes == 0
        index = {v: i for i, v in enumerate(spec.alphabet)}
        assert array.tolist() == [[[index[v] for v in row] for row in f]
                                  for f in rows]


def _varies_by_brute_force(spec, M, clamp, reference, N):
    return any(any(f[s] != reference[s] for s in box_sites(N))
               for f in enumerate_fillings(spec, M, clamp=clamp))


class TestVariesInside:
    # with N >= M - 1 a clamp that leaves the inner box free lets the stream
    # reach a change inside it after a few thousand fillings; N = M is a
    # zero margin
    @pytest.mark.parametrize("M, N", [(2, 1), (3, 2), (2, 2)])
    @pytest.mark.parametrize("name", ["ledrappier", "hard-square", "tall",
                                      "three-symbol"])
    def test_walk_equals_brute_force(self, name, M, N):
        spec, contradiction = CLAMPED_CASES[name]
        sites = box_sites(M)
        walk = _RowTransfer(spec, M, None).fillings()
        first = [dict(zip(sites, itertools.chain(*rows)))
                 for rows in itertools.islice(walk, 50)]
        z = first[-1]
        halfplane = {s: z[s] for s in sites if s[0] + 2 * s[1] < 0}
        # a clamp under which the linear rules can force every free inner cell
        forcing = {s: z[s] for s in sites if 2 * s[1] < s[0]}
        clamps = {"empty": {}, "half-plane": halfplane, "forcing": forcing,
                  "full": z, "contradictory": halfplane | contradiction}
        for kind, clamp in clamps.items():
            for reference in (z, first[len(first) // 2]):
                walk = varies_inside(spec, M, clamp, reference, N)
                assert walk == _varies_by_brute_force(
                    spec, M, clamp, reference, N), kind
                if kind == "contradictory":
                    assert walk is False

    def test_inner_box_outside_the_window_refused(self):
        spec = FullShift((0, 1))
        zero = {s: 0 for s in box_sites(2)}
        for M, N in [(1, 2), (1, -1)]:
            with pytest.raises(InputError):
                varies_inside(spec, M, {s: 0 for s in box_sites(1)}, zero, N)

    @pytest.mark.parametrize("clamp, reference, missing", [
        ({(0, 0): 0}, {}, (-1, -1)),
        # a left-half clamp turns the walk; the site is named unturned
        ({(-2, y): 0 for y in range(-2, 3)},
         {s: 0 for s in box_sites(1) if s != (1, 0)}, (1, 0))])
    def test_incomplete_reference_refused(self, clamp, reference, missing):
        with pytest.raises(InputError, match=re.escape(str(missing))):
            varies_inside(ledrappier(), 2, clamp, reference, 1)

    def test_clamp_parsed_once(self, monkeypatch):
        parses = []
        symbols = subshifts._symbols

        def parsed(*args):
            parses.append(args)
            return symbols(*args)

        monkeypatch.setattr(subshifts, "_symbols", parsed)
        trace, _ = dilated_trace(Direction(1, 0).contains, 1, 2)
        zero = dict.fromkeys(box_sites(2), 0)
        varies_inside(ledrappier(), 2, dict.fromkeys(trace, 0), zero, 1)
        assert len(parses) == 1


@functools.lru_cache(maxsize=None)
def _first_fillings(spec, M):
    """The first 200 fillings of [-M, M]^2 in stream order, as dicts."""
    sites = box_sites(M)
    walk = _RowTransfer(spec, M, None).fillings()
    return [dict(zip(sites, itertools.chain(*rows)))
            for rows in itertools.islice(walk, 200)]


class TestInnerWalk:
    @pytest.mark.parametrize("spec, contradiction", CLAMPED_CASES.values(),
                             ids=CLAMPED_CASES.keys())
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_a_filter_of_the_stream(self, spec, contradiction, data):
        M = data.draw(st.integers(1, 2), label="M")
        N = data.draw(st.integers(0, M), label="N")
        if M == 1:
            clamp = data.draw(_clamps(spec.alphabet, contradiction))
        else:
            # one of the first fillings, a few cells left free
            z = data.draw(st.sampled_from(_first_fillings(spec, 2)))
            free = data.draw(st.sets(st.sampled_from(box_sites(2)),
                                     max_size=8))
            clamp = {s: v for s, v in z.items() if s not in free}
            if data.draw(st.booleans()):
                clamp.update(contradiction)
        stream = list(_RowTransfer(spec, M, clamp).fillings())
        lo, hi = M - N, M + N + 1

        def inside(rows):
            return [tuple(row[lo:hi]) for row in rows[lo:hi]]

        symbol = st.sampled_from(spec.alphabet)
        reference = [tuple(data.draw(symbol) for _ in range(lo, hi))
                     for _ in range(lo, hi)]
        if stream and data.draw(st.booleans()):  # one that some filling has
            reference = inside(data.draw(st.sampled_from(stream)))
        as_map = {(x, y): v for y, row in zip(range(-N, N + 1), reference)
                  for x, v in zip(range(-N, N + 1), row)}
        for differ in (False, True):
            walk = _RowTransfer(spec, M, clamp).fillings(as_map, N, differ)
            assert list(walk) == [
                f for f in stream if (inside(f) != reference) == differ]
        assert varies_inside(spec, M, clamp, as_map, N) == any(
            inside(f) != reference for f in stream)
        if contradiction.items() <= clamp.items():
            assert stream == []


@st.composite
def _clamps_over_one_site_set(draw, alphabet, N=1):
    """Two to five clamps of [-N, N]^2 over one drawn set of sites."""
    sites = sorted(set(draw(st.lists(st.sampled_from(box_sites(N)),
                                     min_size=1, max_size=9))))
    symbols = st.tuples(*[st.sampled_from(alphabet)] * len(sites))
    return [dict(zip(sites, values))
            for values in draw(st.lists(symbols, min_size=2, max_size=5))]


def _stores(monkeypatch):
    """After each row state a walk stores: its plan's count of stored
    states, and the most states that the plan's tables or the walk's hold,
    a table that several rows share counted once."""
    stores = []
    keep = _RowTransfer._keep

    def recorded(self, r, state):
        yield from keep(self, r, state)
        held = {id(t): t for t in self.tables}.values()
        stores.append((self.plan.stored, max(
            sum(map(len, self.plan.tables.values())), sum(map(len, held)))))

    monkeypatch.setattr(_RowTransfer, "_keep", recorded)
    return stores


class TestSharedTables:
    @pytest.mark.parametrize("name", ["ledrappier", "hard-square", "tall",
                                      "three-cells-apart"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_clamps_over_one_site_set_never_mix(self, name, data):
        spec, _ = CLAMPED_CASES[name]
        subshifts._check_plan.cache_clear()
        for clamp in data.draw(_clamps_over_one_site_set(spec.alphabet)):
            assert list(enumerate_fillings(spec, 1, clamp=clamp)) == \
                _brute_force(spec, 1, clamp), clamp

    def test_clamps_differing_above_the_row_never_mix(self):
        # Ledrappier's placement {(-1, 0), (0, 0), (-1, 1)} is checked at
        # (0, 0), the raster-last unclamped cell, and reads (-1, 1) there
        spec = ledrappier()
        column = {(-1, y): 0 for y in (-1, 0, 1)}
        for clamp in (column, {**column, (-1, 1): 1}, column):
            assert list(enumerate_fillings(spec, 1, clamp=clamp)) == \
                _brute_force(spec, 1, clamp), clamp

    @pytest.mark.parametrize("name, answers", [
        ("ledrappier", {True, False}), ("tall", {True, False}),
        ("hard-square", {True})])
    def test_varies_inside_on_successive_classes(self, name, answers):
        # clamps over one trace-like site set, as the oracle asks them, each
        # against its own filling and two others
        spec, _ = CLAMPED_CASES[name]
        M, N = 2, 1
        sites = box_sites(M)
        trace = [s for s in sites if 2 * s[1] < s[0]]
        walk = _RowTransfer(spec, M, None).fillings()
        fillings = [dict(zip(sites, itertools.chain(*rows)))
                    for rows in itertools.islice(walk, 0, 3000, 150)]
        asks = [({s: z[s] for s in trace}, w)
                for z in fillings for w in (z, *fillings[:2])]
        wants = []
        for clamp, reference in asks:
            subshifts._check_plan.cache_clear()  # a reference of its own
            wants.append(_varies_by_brute_force(spec, M, clamp, reference, N))
        subshifts._check_plan.cache_clear()
        got = [varies_inside(spec, M, clamp, reference, N)
               for clamp, reference in asks]
        assert got == wants and set(got) == answers

    def test_second_walk_of_a_clamp_expands_nothing(self, monkeypatch):
        spec = ledrappier()
        clamp = {(-2, 2): 1, (0, 0): 1, (1, -2): 0}
        first = list(_RowTransfer(spec, 2, clamp).fillings())
        second, resumes, _ = _with_resumes(
            monkeypatch, lambda: list(_RowTransfer(spec, 2, clamp).fillings()))
        assert resumes == 0 and second == first

    def test_stored_states_stay_under_the_cap(self, monkeypatch):
        want = list(_RowTransfer(HARD_SQUARE, 2, None).fillings())
        monkeypatch.setattr(subshifts, "_PLAN_STATES", 5)
        stores = _stores(monkeypatch)
        subshifts._check_plan.cache_clear()
        assert list(_RowTransfer(HARD_SQUARE, 2, None).fillings()) == want
        assert max(held for _, held in stores) <= 5
        assert [stored for stored, _ in stores].count(1) > 1  # dropped

    def test_window_stream_survives_the_cap(self, monkeypatch):
        budget = DEFAULT_FILLING_BUDGET
        subshifts._check_plan.cache_clear()
        _window_stream.cache_clear()
        want = _window_stream(HARD_SQUARE, 2, budget)
        monkeypatch.setattr(subshifts, "_PLAN_STATES", 7)
        stores = _stores(monkeypatch)
        subshifts._check_plan.cache_clear()
        _window_stream.cache_clear()
        got = _window_stream(HARD_SQUARE, 2, budget)
        _window_stream.cache_clear()
        assert [stored for stored, _ in stores].count(1) > 1  # dropped
        assert got.shape == (55_447, 5, 5) and np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _spread_fillings(name, M=2):
    """Twenty fillings of the free window [-M, M]^2 of a clamped case's
    spec, spread over the first 3,000 of its stream, as site maps."""
    spec, _ = CLAMPED_CASES[name]
    sites = box_sites(M)
    walk = _RowTransfer(spec, M, None).fillings()
    return [dict(zip(sites, itertools.chain(*rows)))
            for rows in itertools.islice(walk, 0, 3000, 150)]


def _three_streams(walk, reference, N, limit=100):
    """The first fillings of each of the walk's streams: all, those equal
    to ``reference`` inside [-N, N]^2, and those that differ from it."""
    return [list(itertools.islice(walk.fillings(*args), limit))
            for args in ((), (reference, N), (reference, N, True))]


class TestRebind:
    @pytest.mark.parametrize("turn", [0, None])
    @pytest.mark.parametrize("name", ["ledrappier", "hard-square", "tall",
                                      "three-symbol"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rebound_walk_streams_as_a_fresh_one(self, name, turn, data):
        spec, _ = CLAMPED_CASES[name]
        M, N, fillings = 2, 1, _spread_fillings(name)
        # clamps of one site set: fillings' symbols there, or any symbols
        sites = sorted(data.draw(st.sets(st.sampled_from(box_sites(M)),
                                         min_size=1, max_size=9)))
        symbols = st.one_of(
            st.sampled_from(fillings).map(lambda f: [f[s] for s in sites]),
            st.lists(st.sampled_from(spec.alphabet), min_size=len(sites),
                     max_size=len(sites)))
        clamps = [dict(zip(sites, values)) for values in
                  data.draw(st.lists(symbols, min_size=2, max_size=4))]
        reference = data.draw(st.sampled_from(fillings))
        cap = data.draw(st.sampled_from([subshifts._PLAN_STATES, 5]))
        with mock.patch.object(subshifts, "_PLAN_STATES", cap):
            subshifts._check_plan.cache_clear()
            walk = _RowTransfer(spec, M, clamps[-1], turn)
            for clamp in clamps:
                walk.bind(clamp.values())
                got = _three_streams(walk, reference, N)
                subshifts._check_plan.cache_clear()  # a plan of its own
                fresh = _RowTransfer(spec, M, clamp, turn)
                assert got == _three_streams(fresh, reference, N), clamp

    @pytest.mark.parametrize("turn", [0, None])
    def test_rebind_after_the_plan_drops_its_tables(self, monkeypatch, turn):
        sites = [(-1, 2), (0, 0), (2, -1)]
        clamps = [dict(zip(sites, values))
                  for values in ((1, 0, 0), (0, 1, 1), (0, 0, 0), (1, 0, 0))]
        monkeypatch.setattr(subshifts, "_PLAN_STATES", 5)
        stores = _stores(monkeypatch)
        subshifts._check_plan.cache_clear()
        walk = _RowTransfer(HARD_SQUARE, 2, clamps[0], turn)
        for clamp in clamps:
            # zeros but at the clamped (0, 0): all three streams are nonempty
            reference = {**dict.fromkeys(box_sites(1), 0),
                         (0, 0): clamp[0, 0]}
            dropped = [stored for stored, _ in stores].count(1)
            walk.bind(clamp.values())
            got = _three_streams(walk, reference, 1)
            assert dropped > 1 or clamp is clamps[0]  # tables were dropped
            subshifts._check_plan.cache_clear()
            fresh = _RowTransfer(HARD_SQUARE, 2, clamp, turn)
            assert got == _three_streams(fresh, reference, 1)
            assert all(got), clamp


def _quarter_turn(site, turn):
    """``site`` turned counterclockwise by ``turn`` quarter turns."""
    x, y = site
    for _ in range(turn):
        x, y = -y, x
    return x, y


# (spec, clamp, M) windows whose turned walks are checked
TURN_CASES = {
    "ledrappier": (ledrappier(), {}, 2),
    "hard-square": (HARD_SQUARE, {}, 1),
    "vertical-3": (VERTICAL_3, {}, 1),
    "tall": (TALL, {}, 2),
    "ledrappier-clamped": (ledrappier(), {(-2, 2): 1, (0, 0): 1, (1, -2): 0},
                           2),
    "hard-square-clamped": (HARD_SQUARE, {(0, 0): 1, (2, -1): 0}, 2),
}


class TestQuarterTurns:
    @pytest.mark.parametrize("spec, clamp, M", TURN_CASES.values(),
                             ids=TURN_CASES.keys())
    def test_turned_walk_is_the_turned_stream(self, spec, clamp, M):
        sites, r = box_sites(M), range(-M, M + 1)
        stream = [dict(zip(sites, itertools.chain(*rows)))
                  for rows in _RowTransfer(spec, M, clamp).fillings()]
        assert stream
        for turn in range(4):
            turned = [{_quarter_turn(s, turn): v for s, v in f.items()}
                      for f in stream]
            want = {tuple(tuple(g[x, y] for x in r) for y in r)
                    for g in turned}
            got = list(_RowTransfer(spec, M, clamp, turn).fillings())
            assert len(got) == len(stream) and set(got) == want, turn

    # three symbols on the free half of [-2, 2]^2 pass the filling budget
    @pytest.mark.parametrize("name, M", [
        *itertools.product(["ledrappier", "hard-square", "tall"], [1, 2]),
        ("three-symbol", 1)])
    def test_trace_clamps_equal_brute_force(self, name, M):
        # the oracle's clamps: a filling on the trace of each direction
        spec, _ = CLAMPED_CASES[name]
        sites = box_sites(M)
        walk = _RowTransfer(spec, M, None).fillings()
        first = [dict(zip(sites, itertools.chain(*rows)))
                 for rows in itertools.islice(walk, 3000)]
        fillings = first[::-(-len(first) // 5)]  # five, spread out
        for v in farey_directions(1):
            trace, _ = dilated_trace(v.contains, 1, M)
            # each filling on the trace, against itself and the next one
            for z, w in zip(fillings, fillings[1:] + fillings[:1]):
                clamp = {s: z[s] for s in trace}
                stream = list(enumerate_fillings(spec, M, clamp=clamp))
                for N, reference in itertools.product((M - 1, M), (z, w)):
                    inside = [all(f[s] == reference[s] for s in box_sites(N))
                              for f in stream]
                    assert varies_inside(spec, M, clamp, reference, N) == \
                        _varies_by_brute_force(spec, M, clamp, reference, N), \
                        (v, N)
                    walk = _RowTransfer(spec, M, clamp, turn=None)
                    assert (next(walk.fillings(reference, N), None)
                            is not None) == any(inside), (v, N)

    def test_the_clamp_is_walked_first(self, monkeypatch):
        turns = []
        init = _RowTransfer.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            turns.append(self.turn)

        monkeypatch.setattr(_RowTransfer, "__init__", recorded)
        M, zero = 3, dict.fromkeys(box_sites(3), 0)
        for v in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
            trace, _ = dilated_trace(Direction(*v).contains, 1, M)
            turns.clear()
            varies_inside(ledrappier(), M, dict.fromkeys(trace, 0), zero, 1)
            _RowTransfer(ledrappier(), M, dict.fromkeys(trace, 0), turn=None)
            assert turns[0] == turns[1]
            # every trace site, the half-plane, lies in the bottom rows
            assert all(_quarter_turn(s, turns[0])[1] < 0 for s in trace), v
        # no clamp, and a clamp whose rows sum to 0 in every turn
        turns.clear()
        for clamp in ({}, zero):
            varies_inside(ledrappier(), M, clamp, zero, 1)
        assert turns == [0, 0]


def _complete_upward(spec, row):
    """The triangle of sites (i, j), i < len(row) - j, over the bottom row
    ``row`` at (0, 0), (1, 0), ..., completed upward by ``solve_forward``
    on the box [-M, M]^2 of width 2M + 1 >= len(row), read with the
    triangle's corner at (-M, -M).  The box's first free sites, its bottom
    row, take the row's bits and then 0; the other free sites, each at the
    box's right edge, take 0, and no triangle site reads them."""
    M = len(row) // 2
    bits = itertools.chain(row, itertools.repeat(0))
    box = solve_forward(spec.support, M, bits)
    return {(i, j): box[i - M, j - M]
            for j in range(len(row)) for i in range(len(row) - j)}


class TestCompleteUpward:
    def test_triangle(self):
        pat = _complete_upward(ledrappier(), (1, 0, 0, 0))
        assert pat[(0, 0)] == 1 and pat[(0, 1)] == 1 and pat[(0, 2)] == 1
        assert pat[(0, 3)] == 1
        assert validate(ledrappier(), pat)

    def test_pascal_mod_two(self):
        # x_{i,j} = sum_k C(j,k) x_{i+k,0} over GF(2): a centered impulse
        # spreads as binomial coefficients mod 2
        pat = _complete_upward(ledrappier(), (0, 0, 1, 0, 0))
        for j in range(5):
            for i in range(5 - j):
                want = math.comb(j, 2 - i) % 2 if 0 <= 2 - i <= j else 0
                assert pat[(i, j)] == want

    def test_consistent_initial_rows_accepted(self):
        # the rows (1, 1, 0) and (0, 1) agree with the rule: the second is
        # the row the solver completes from the first
        pat = _complete_upward(ledrappier(), (1, 1, 0))
        assert (pat[(0, 1)], pat[(1, 1)]) == (0, 1)
        assert pat[(0, 2)] == 1
        assert validate(ledrappier(), pat)

    def test_repeated_site_rule_completes(self):
        # (0, 0) twice cancels: the rule is x_{i,j+1} = x_{i+1,j}, not
        # Ledrappier's, and the completion must respect it
        spec = LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)])
        pat = _complete_upward(spec, (1, 0, 1))
        assert validate(spec, pat)
        assert [pat[(0, j)] for j in range(3)] == [1, 0, 1]

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_any_bottom_row_completes(self, row):
        pat = _complete_upward(ledrappier(), row)
        assert validate(ledrappier(), pat)


class TestSkew:
    def test_exponent_map(self):
        spec = SkewActionSpec(FullShiftZ(), 1, -2)
        assert skew_exponent(spec, (4, 1)) == 2
        for m in range(-5, 6):
            assert skew_exponent(spec, (2 * m, m)) == 0

    def test_base_expansivity(self):
        assert FullShiftZ().expansivity_k == 1

    def test_zero_map_rejected(self):
        with pytest.raises(InputError):
            SkewActionSpec(FullShiftZ(), 0, 0)

    # each was read as another map: 1.5 as 1, True as 1, "1" as 1
    @pytest.mark.parametrize("alpha, beta", [(1.5, -2), (1, -2.0), (True, -2),
                                             (1, False), ("1", -2)], ids=str)
    def test_exponents_must_be_integers(self, alpha, beta):
        with pytest.raises(InputError):
            SkewActionSpec(FullShiftZ(), alpha, beta)

    def test_base_alphabet_must_be_ordered(self):
        # symbols that do not compare failed in sorted() with a bare TypeError
        with pytest.raises(InputError, match="bad alphabet"):
            FullShiftZ((0, "a"))

    def test_round_trip_dict(self):
        spec = SkewActionSpec(FullShiftZ(), 1, -2)
        d = spec.to_dict()
        assert d["alpha"] == 1 and d["beta"] == -2
        assert d["base"]["kind"] == "full-shift-z"
