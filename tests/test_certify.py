import collections
import functools
import itertools
import json
import math
import operator
import random
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from horoshift import (Direction, FullShift, InputError, LinearGF2,
                       PolyhedralZ2, SFT,
                       SkewActionSpec, FullShiftZ, direction_status,
                       farey_directions, horoball_status, l2_horoball,
                       ledrappier, nd_set, parse_grid, skew_exponent,
                       skew_horoball_status)
from horoshift import certify, subshifts
from horoshift.certify import (_origin_forced, _shared_trace_classes,
                               _unique_rows, _window_kernel, _window_stream,
                               dilated_trace, Inconclusive,
                               WindowDeterministic, Witness,
                               gf2_nullspace, is_hull_normal,
                               verify_window_deterministic, verify_witness)
from horoshift.horoballs import (Horoball, RationalCone, polyhedral_from_ray,
                                 sampled_l1_horoball_z2)
from horoshift.serialize import json_dumps
from horoshift.subshifts import box_sites, enumerate_fillings, varies_inside
from test_subshifts import _with_resumes


class TestDirection:
    def test_primitive_reduction(self):
        v = Direction(2, 4)
        assert (v.a, v.b) == (1, 2)
        assert Direction(-6, -9) == Direction(-2, -3)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            Direction(0, 0)

    def test_halfspace_membership_exact(self):
        v = Direction(1, 1)
        assert v.contains((-1, 0))
        assert not v.contains((1, -1))   # boundary excluded
        assert not v.contains((1, 0))

    def test_farey_grid(self):
        dirs = farey_directions(1)
        assert [(d.a, d.b) for d in dirs] == \
            [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        dirs2 = farey_directions(2)
        assert len(dirs2) == 16
        assert len(set(dirs2)) == len(dirs2)

    def test_parse_grid_diag_relabels(self):
        plain = parse_grid("farey:8")
        diag = parse_grid("farey:8+diag")
        assert len(plain) == len(diag)
        specials = [d for d in diag if d.label == "sqrt-normalized"]
        assert sorted((d.a, d.b) for d in specials) == \
            [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_parse_grid_explicit(self):
        dirs = parse_grid("1,0;0,-1")
        assert [(d.a, d.b) for d in dirs] == [(1, 0), (0, -1)]

    def test_parse_grid_farey_order_zero_refused(self):
        with pytest.raises(InputError, match="Farey order must be >= 1"):
            parse_grid("farey:0")

    # each was truncated to another direction: (0.9, 1) to (0, 1), the
    # others to (1, 0)
    @pytest.mark.parametrize("v", [(0.9, 1), (1.5, 0), (True, 0), ("1", 0)],
                             ids=str)
    def test_non_integer_component_refused(self, v):
        with pytest.raises(InputError):
            direction_status(ledrappier(), v, 2, 3)

    def test_integer_components_kept_as_ints(self):
        v = Direction(np.int64(2), np.int64(-4))
        assert (v.a, v.b) == (1, -2)
        assert type(v.a) is int and type(v.b) is int


class TestGF2Nullspace:
    def test_full_rank_empty_kernel(self):
        rows = [0b001, 0b010, 0b100]
        assert gf2_nullspace(rows, 3) == []

    def test_kernel_vectors_annihilate_rows(self):
        rows = [0b1111, 0b0011, 0b1100]
        basis = gf2_nullspace(rows, 4)
        for vec in basis:
            for r in rows:
                assert (vec & r).bit_count() % 2 == 0
        # rank 2 on 4 columns leaves a 2-dimensional kernel
        assert len(basis) == 2

    def test_dimension_count(self):
        # one equation on n columns: kernel dimension n - 1
        basis = gf2_nullspace([0b10101], 5)
        assert len(basis) == 4
        seen = set()
        for vec in basis:
            assert vec not in seen and vec != 0
            seen.add(vec)


def _parity(c, m):
    """Symbol at a site of mask ``m`` of the kernel vector of combination c."""
    return (c & m).bit_count() & 1


def _vanishing_on(mask, dim, sites):
    """Combinations whose kernel vectors vanish on ``sites``: the null space
    of their masks."""
    return gf2_nullspace([mask[s] for s in sites], dim)


def _member(N, symbols):
    """``certify._member`` of the symbol dict ``symbols`` of [-N, N]^2."""
    return certify._member(N, map(symbols.get, box_sites(N)))


def _solve_forward_reference(support, sites, free):
    """The GF(2) rule with ``support`` solved site by site on ``sites``, in
    raster order: the raster-last odd-multiplicity cell of each placement is
    the xor of the placement's other odd cells, and every other site takes
    ``next(free)``."""
    values = dict.fromkeys(sites)
    get = operator.itemgetter(*map(support.index, subshifts._odd_sites(support)))
    odd = [get(cells) for cells in subshifts.placements(support, values)]
    lead = {cells[-1]: cells[:-1] for cells in odd}
    for s in values:
        cells = lead.get(s)
        values[s] = (next(free) if cells is None else
                     functools.reduce(operator.xor, map(values.get, cells)))
    return values


def _window_kernel_reference(support, M):
    free = itertools.count()
    mask = _solve_forward_reference(support, box_sites(M),
                                    (1 << j for j in free))
    return mask, next(free)


# rules of 2 to 6 sites, a site possibly repeated, some wider than the box
_RULES = st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                  min_size=2, max_size=6)


class TestWindowKernel:
    SUPPORTS = [ledrappier().support, [(0, 0), (1, 0), (0, 1), (1, 1)],
                [(0, 0), (0, 0), (1, 0), (0, 1)],
                [(0, 0), (0, 1), (1, 2), (2, 0)]]
    ROWS = SUPPORTS + [
        # a cancelled site above the odd ones bounds the lead rows
        [(0, 0), (1, 0), (0, 1), (0, 2), (0, 2)],
        [(0, -1), (0, -1), (0, 0), (1, 0), (0, 1)],
        [(0, 0), (1, 0), (0, 1), (2, 1), (2, 1)],
        [(-1, 1), (-1, 1), (0, 0), (1, 0), (0, 1)],
        # taps only in the lead's row, or only in the rows below it
        [(0, 0), (1, 0)], [(0, 0), (2, 0), (3, 0)], [(0, 0), (0, 1)],
        # wider or taller than the small boxes
        [(-2, 0), (3, 0), (0, 1)], [(0, -2), (1, 3)]]

    @staticmethod
    def _is_the_site_solve(support, M):
        mask, dim = _window_kernel(support, M)
        want, want_dim = _window_kernel_reference(support, M)
        assert list(mask.items()) == list(want.items()) and dim == want_dim

    @pytest.mark.parametrize("M", range(5))
    @pytest.mark.parametrize("support", ROWS, ids=str)
    def test_row_solve_matches_site_solve(self, support, M):
        self._is_the_site_solve(LinearGF2(support).support, M)

    @given(_RULES, st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_row_solve_matches_any_rule(self, support, M):
        support = tuple(sorted(support))
        assume(len(subshifts._odd_sites(support)) >= 2)
        self._is_the_site_solve(support, M)

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("support", SUPPORTS, ids=str)
    def test_spans_exactly_the_fillings(self, support, M):
        spec = LinearGF2(support)
        mask, dim = _window_kernel(spec.support, M)
        sites = box_sites(M)
        assert dim <= 16
        spanned = {tuple(_parity(c, mask[s]) for s in sites)
                   for c in range(2 ** dim)}
        fillings = [tuple(f[s] for s in sites)
                    for f in enumerate_fillings(spec, M)]
        assert len(spanned) == len(fillings) == 2 ** dim
        assert spanned == set(fillings)


def hull_normals(support):
    """The farey:2 directions the hull predicate accepts for a support."""
    return {(d.a, d.b) for d in farey_directions(2)
            if is_hull_normal(support, (d.a, d.b))}


class TestHullNormals:
    def test_ledrappier_normals(self):
        assert hull_normals(ledrappier().support) == {(0, -1), (-1, 0), (1, 1)}

    def test_square_support(self):
        assert hull_normals([(0, 0), (1, 0), (0, 1), (1, 1)]) == \
            {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_collinear_support(self):
        assert hull_normals([(0, 0), (1, 0), (2, 0)]) == {(0, 1), (0, -1)}

    def test_repeated_site_cancels(self):
        # (0, 0) twice cancels in GF(2): the hull is the edge (1,0)-(0,1)
        assert hull_normals([(0, 0), (0, 0), (1, 0), (0, 1)]) == \
            {(1, 1), (-1, -1)}


class TestDilatedTrace:
    def test_k1_is_restriction(self):
        v = Direction(0, 1)  # H = {y < 0}
        trace, hits = dilated_trace(v.contains, 1, 3)
        assert hits
        assert trace == sorted((x, y) for x in range(-3, 4)
                               for y in range(-3, 0))

    def test_monotone_in_k(self):
        v = Direction(1, 1)
        t1, _ = dilated_trace(v.contains, 1, 4)
        t2, _ = dilated_trace(v.contains, 2, 4)
        t3, _ = dilated_trace(v.contains, 3, 4)
        assert set(t1) < set(t2) < set(t3)

    def test_missing_horoball(self):
        far = PolyhedralZ2("quarter-space", apex=(100, 0), opening="+x")
        trace, hits = dilated_trace(lambda p: far.sign(p) < 0, 2, 3)
        assert not hits and trace == []

    HOROBALLS = {
        "direction-0,1": Direction(0, 1),
        "direction-1,2": Direction(1, 2),
        "direction--3,1": Direction(-3, 1),
        "quarter-apex-inside": Horoball(PolyhedralZ2(
            "quarter-space", apex=(1, -2), opening="+x")),
        "quarter-apex-outside": Horoball(PolyhedralZ2(
            "quarter-space", apex=(0, 7), opening="-y")),
        # meets [-2N, 2N]^2 only at N = 5, in the single site (0, 10)
        "quarter-apex-far": Horoball(PolyhedralZ2(
            "quarter-space", apex=(0, 9), opening="+y")),
        "irrational-linear": l2_horoball((1, math.sqrt(2))),
    }

    @pytest.mark.parametrize("name", HOROBALLS)
    def test_matches_definition(self, name):
        """{p in [-N, N]^2 : linf-dist(p, H /\\ [-2N, 2N]^2) < k}, by brute
        force, for every 1 <= k <= N <= 5; k = N reaches the mask border.
        Off a half-plane, the search's ``_trace`` is that list grouped by x,
        or None exactly when H misses [-2N, 2N]^2."""
        horoball = self.HOROBALLS[name]
        contains = horoball.contains
        for N in range(1, 6):
            box = [(x, y) for x in range(-N, N + 1) for y in range(-N, N + 1)]
            ball = [(x, y) for x in range(-2 * N, 2 * N + 1)
                    for y in range(-2 * N, 2 * N + 1) if contains((x, y))]
            for k in range(1, N + 1):
                want = {p for p in box if any(
                    max(abs(p[0] - h[0]), abs(p[1] - h[1])) < k for h in ball)}
                assert dilated_trace(contains, k, N) == \
                    (sorted(want), bool(ball)), (N, k)
                if horoball.halfplane_normal() is None:
                    columns = [sorted(y for x, y in want if x == c)
                               for c in range(-N, N + 1)]
                    assert certify._trace(horoball, k, N) == \
                        (columns if ball else None), (N, k)


def _refuse(p):
    raise AssertionError(f"contains called at {p}")


class TestHalfPlaneTrace:
    HALF_PLANES = {
        **{f"direction-{v.a},{v.b}": v for v in farey_directions(8)},
        "linear-integer": l2_horoball((2, -3)),
        "linear-rational": l2_horoball((0.5, -0.125)),
        # beyond int64 from N = 3: the rows are exact at any size
        "linear-huge": l2_horoball((10 ** 18 + 1, -10 ** 18)),
        **{f"{shape}-{side}": Horoball(PolyhedralZ2(f"halfplane-{shape}",
                                                    side=side))
           for shape in ("diagonal", "antidiagonal") for side in (1, -1)},
    }
    SCALES = [(N, k) for N in range(1, 7) for k in range(1, N + 1)] + [(18, 3)]

    def test_equals_contains_scan(self):
        """The closed form ``_trace`` reads from a half-plane's normal alone,
        listed by x, is the sliding-window scan of the contains mask, for
        every 1 <= k <= N <= 6 and (N, k) = (18, 3)."""
        for name, h in self.HALF_PLANES.items():
            normal = h.halfplane_normal()
            assert normal is not None, name
            stand_in = types.SimpleNamespace(halfplane_normal=lambda: normal,
                                             contains=_refuse)
            for N, k in self.SCALES:
                columns = certify._trace(stand_in, k, N)
                listed = [(x, y) for x, ys in zip(range(-N, N + 1), columns)
                          for y in ys]
                assert (listed, True) == dilated_trace(h.contains, k, N), \
                    (name, N, k)


def _dict_classes(keys):
    """Row numbers grouped by equal key in a dict of tuples, classes in the
    order of their first rows."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(tuple(key), []).append(i)
    return list(classes.values())


def _shared_dict_classes(keys):
    """The classes of ``_dict_classes(keys)`` that hold two or more rows."""
    return [c for c in _dict_classes(keys) if len(c) > 1]


def _counted_sorts(monkeypatch):
    """The calls ``_shared_trace_classes`` makes to group rows past row 0's
    class, from now on."""
    calls = []
    monkeypatch.setattr(certify, "_unique_rows",
                        lambda values: calls.append(values)
                        or _unique_rows(values))
    return calls


def _counted_walks(monkeypatch):
    """(N, clamped) of each ``_RowTransfer`` built from now on, patched on
    the class itself, so a walk made under any module's name counts."""
    walks, init = [], subshifts._RowTransfer.__init__

    def counted(self, spec, N, clamp, *turn, **kwargs):
        walks.append((N, bool(clamp)))
        init(self, spec, N, clamp, *turn, **kwargs)

    monkeypatch.setattr(subshifts._RowTransfer, "__init__", counted)
    return walks


class TestTraceClasses:
    SPECS = {
        "three-symbol": SFT((0, 1, 2), [{(0, 0): 2, (0, 1): 2},
                                        {(0, 0): 1, (1, 0): 0}]),
        "strings": SFT(("a", "b", "c"), [{(0, 0): "c", (0, 1): "c"},
                                         {(0, 0): "b", (1, 0): "a"}]),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_window_stream_classes(self, name):
        spec, N = self.SPECS[name], 1
        _window_stream.cache_clear()
        symbols = _window_stream(spec, N, 10 ** 6)
        _window_stream.cache_clear()
        rows = list(subshifts._RowTransfer(spec, N, None).fillings())
        index = {v: i for i, v in enumerate(spec.alphabet)}
        assert symbols.tolist() == [[[index[v] for v in row] for row in f]
                                    for f in rows]
        for v in (Direction(1, 0), Direction(1, 2), Direction(-1, -1)):
            cells = sorted(dilated_trace(v.contains, 1, N)[0])
            keys = [[f[y + N][x + N] for x, y in cells] for f in rows]
            ys, xs = [y + N for _, y in cells], [x + N for x, _ in cells]
            assert list(_shared_trace_classes(symbols[:, ys, xs])) == \
                _shared_dict_classes(keys)
            assert len(_dict_classes(keys)) < len(rows)

    def test_wide_rows(self):
        # 45 ternary or 70 binary columns, more than 63 bits of symbols;
        # the rows differ in their first columns only
        rng = np.random.default_rng(0)
        for base, width in ((3, 45), (2, 70)):
            rows = rng.integers(0, base, size=(30, width))
            rows[:, 6:] = rows[0, 6:]
            values = rows[rng.integers(0, 30, size=400)].astype(np.uint8)
            want = _shared_dict_classes(values.tolist())
            assert list(_shared_trace_classes(values)) == want
            assert 1 < len(want) < 400

    def test_empty_and_single_class(self):
        assert list(_shared_trace_classes(
            np.zeros((0, 4), dtype=np.uint8))) == []
        assert list(_shared_trace_classes(np.ones((7, 3), dtype=np.uint8))) \
            == [list(range(7))]
        # an empty trace puts every filling in one class
        assert list(_shared_trace_classes(
            np.zeros((5, 0), dtype=np.uint8))) == [list(range(5))]

    def test_wider_symbols_and_strided_rows(self):
        # uint16 symbols are two bytes each, and a column slice is not
        # contiguous: both group as the plain rows do; the rows differ only
        # past their first two columns, so each key must hold the whole row
        rng = np.random.default_rng(1)
        pool = rng.integers(0, 300, size=(5, 4))
        pool[:, :2] = pool[0, :2]
        values = pool[rng.integers(0, 5, size=60)].astype(np.uint16)
        want = _shared_dict_classes(values.tolist())
        assert list(_shared_trace_classes(values)) == want
        assert len(want) > 1
        strided = values[:, ::2]
        assert not strided.flags.c_contiguous
        assert list(_shared_trace_classes(strided)) == \
            _shared_dict_classes(strided.tolist())

    @given(data=st.data(), base=st.sampled_from([2, 3, 5]),
           n=st.integers(0, 40), width=st.sampled_from([0, 1, 2, 5, 12, 70]))
    @settings(max_examples=150, deadline=None)
    def test_drawn_rows(self, data, base, n, width):
        # rows drawn from a pool of one to four, which differ in their first
        # columns only
        symbol = st.integers(0, base - 1)
        head = data.draw(st.integers(0, min(width, 8)))
        tail = data.draw(st.lists(symbol, min_size=width - head,
                                  max_size=width - head))
        pool = data.draw(st.lists(st.lists(symbol, min_size=head,
                                           max_size=head),
                                  min_size=1, max_size=4))
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n))
        values = np.array([row + tail for row in rows],
                          dtype=np.uint8).reshape(n, width)
        assert list(_shared_trace_classes(values)) == \
            _shared_dict_classes(rows)
        if n and width:  # each row's class, of one row or more
            firsts, labels, sizes = _unique_rows(values)
            want = {i: (c[0], len(c)) for c in _dict_classes(rows) for i in c}
            assert list(zip(firsts[labels].tolist(), sizes[labels].tolist())) \
                == [want[i] for i in range(n)]

    @pytest.mark.parametrize("rows, shared, sorts", [
        ([[1, 0], [0, 0], [1, 1], [0, 0]], [[1, 3]], 1),  # row 0 alone
        ([[0, 1], [1, 1], [0, 1], [1, 1]], [[0, 2], [1, 3]], 1),
        ([[1, 0, 1]] * 5, [list(range(5))], 0),  # a single class
        ([[0], [1], [2]], [], 1),
        ([[]] * 3, [[0, 1, 2]], 0),  # an empty trace
        (np.zeros((0, 2)), [], 0)])
    def test_shared_classes_sort_after_the_first(self, monkeypatch, rows,
                                                 shared, sorts):
        values = np.array(rows, dtype=np.uint8)
        calls = _counted_sorts(monkeypatch)
        classes = _shared_trace_classes(values)
        if shared and shared[0][0] == 0:  # row 0's class needs no sort
            assert next(classes) == shared[0] and not calls
            assert [shared[0], *classes] == shared
        else:
            assert list(classes) == shared
        assert len(calls) == sorts


# a 1 has a 1 above it, and a 0 has no 1 two rows above it: every column is
# constant, and a prefix with a 0 under a 1 dies on the next row, which has
# no symbol left for the cell above that 1
DEAD_ENDS = SFT((0, 1), [{(0, 0): 1, (0, 1): 0}, {(0, 0): 0, (0, 2): 1}])

WINDOW_CASES = {
    "hard-square": (SFT((0, 1), [{(0, 0): 1, (1, 0): 1},
                                 {(0, 0): 1, (0, 1): 1}]), (1, 2)),
    "ledrappier": (ledrappier(), (1, 2)),
    # their N = 2 windows have 2.0e6 fillings or more
    "three-symbol": (TestTraceClasses.SPECS["three-symbol"], (1,)),
    "strings": (TestTraceClasses.SPECS["strings"], (1,)),
    "full-shift": (FullShift((0, 1)), (1,)),
    "dead-ends": (DEAD_ENDS, (1, 2)),
    "no-filling": (SFT((0, 1), [{(0, 0): 0}, {(0, 0): 1}]), (1, 2)),
}


@functools.lru_cache(maxsize=None)
def _stream_array(name, N):
    """The fillings a free walk streams for a window case, as one
    (filling, row, column) array of alphabet indices."""
    spec, _ = WINDOW_CASES[name]
    index = {v: i for i, v in enumerate(spec.alphabet)}
    width = 2 * N + 1
    walk = subshifts._RowTransfer(spec, N, None).fillings()
    return np.array([[[index[v] for v in row] for row in f] for f in walk],
                    dtype=np.uint8).reshape(-1, width, width)


def _repeat_lengths(monkeypatch):
    """The length of each array ``np.repeat`` returns from now on."""
    lengths, repeat = [], np.repeat

    def recorded(*args, **kwargs):
        out = repeat(*args, **kwargs)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(np, "repeat", recorded)
    return lengths


class TestWindowArray:
    @given(case=st.sampled_from([(name, N) for name, (_, Ns) in
                                 WINDOW_CASES.items() for N in Ns]),
           extra=st.sampled_from([-1, 0, 5]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_stream(self, case, extra):
        name, N = case
        spec, _ = WINDOW_CASES[name]
        want = _stream_array(name, N)
        _window_stream.cache_clear()
        with pytest.MonkeyPatch.context() as monkeypatch:
            lengths = _repeat_lengths(monkeypatch)
            got = _window_stream(spec, N, len(want) + extra)
        _window_stream.cache_clear()
        if extra < 0:
            assert got is None and not lengths  # the count alone refuses
        else:
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert max(lengths, default=0) <= len(want)

    def test_dead_ends_are_never_expanded(self, monkeypatch):
        # a walk of every admissible prefix holds more prefixes than there
        # are fillings at some row; the array's levels hold no more
        for N, count in ((1, 8), (2, 32)):
            assert len(subshifts._window_array(DEAD_ENDS, N, 10 ** 6)) == count
            walk = subshifts._RowTransfer(DEAD_ENDS, N, None)
            level, prefixes = collections.Counter({(): 1}), []
            for r in range(walk.top + 1):
                after = collections.Counter()
                for state, paths in level.items():
                    for row in walk.successors(r, state):
                        after[subshifts._state_after(
                            state, row, walk.keep)] += paths
                level = after
                prefixes.append(sum(level.values()))
            assert max(prefixes) > count
            _window_stream.cache_clear()
            lengths = _repeat_lengths(monkeypatch)
            assert len(_window_stream(DEAD_ENDS, N, count)) == count
            _window_stream.cache_clear()
            assert lengths and max(lengths) <= count
            monkeypatch.undo()


R3 = ((0, 2), (1, 0), (1, 1), (2, 0))  # a rule three rows tall
# the last rule's even cell (2, 0) lies outside its odd cells' bounding box,
# so a placement can hold its odd cells but not its whole support
RANK_SUPPORTS = TestWindowKernel.SUPPORTS + [
    R3, ((0, 0), (1, 0), (0, 1), (2, 0), (2, 0))]


def _columns(sites, M):
    """The sorted y of the sorted ``sites`` at each x of [-M, M], as lists."""
    columns = [[] for _ in range(2 * M + 1)]
    for x, y in sites:
        columns[x + M].append(y)
    return columns


def _rank_rows_by_sets(support, sites, M, mask):
    """``_rank_rows`` as a set intersection over listed ``sites`` (sorted):
    the masks at the sites that are not the raster-last odd cell of a
    placement in [-M, M]^2 whose other odd cells are sites too."""
    *odd, (lx, ly) = subshifts._odd_sites(support)
    # sites numbered x*w + y, one to one on the box, which holds every cell
    # of the placements led in the rectangle [x0, x1] x [y0, y1]
    w = 2 * M + 1
    ids = [x * w + y for x, y in sites]
    spanned = set(ids).intersection(*(map(((lx - ox) * w + ly - oy).__add__,
                                          ids) for ox, oy in odd))
    x0, x1, y0, y1 = subshifts._lead_rectangle(support, M)
    return [mask[s] for s, i in zip(sites, ids) if i not in spanned
            or not (x0 <= s[0] <= x1 and y0 <= s[1] <= y1)]


def _traces(M):
    """(name, trace on [-M, M]^2) of every farey:4 half-plane and of some
    quarter-spaces, at k = 1, 2 and 3."""
    horoballs = {repr(v): v.contains for v in farey_directions(4)}
    horoballs.update({f"quarter-{apex}{o}": Horoball(PolyhedralZ2(
        "quarter-space", apex=apex, opening=o)).contains
        for apex in ((0, 0), (1, -2)) for o in ("+x", "-x", "+y", "-y")})
    for name, contains in horoballs.items():
        for k in (1, 2, 3):
            yield f"{name} k={k}", dilated_trace(contains, k, M)[0]


class TestRankRows:
    @pytest.mark.parametrize("support", RANK_SUPPORTS, ids=str)
    def test_same_null_space_as_every_row(self, support):
        """Dropping the rows solved from other trace rows keeps the row
        space, so the null-space basis is the one of all the rows."""
        support = LinearGF2(support).support
        kept = total = 0
        for M in (3, 5, 8):
            mask, dim = _window_kernel(support, M)
            for name, trace in _traces(M):
                rows = certify._rank_rows(support, _columns(trace, M), M,
                                          mask)
                assert gf2_nullspace(rows, dim) == \
                    _vanishing_on(mask, dim, trace), (M, name)
                kept, total = kept + len(rows), total + len(trace)
        assert kept < total / 2

    @pytest.mark.parametrize("support", [
        ledrappier().support, R3, ((0, 0), (0, 0), (1, 0), (0, 1))], ids=str)
    def test_columns_equal_the_set_reference(self, support):
        """The same rows in the same order as the set intersection over the
        listed trace: half-plane ranges, the box, a quarter space's lists."""
        support = LinearGF2(support).support
        quarter = Horoball(PolyhedralZ2("quarter-space", apex=(0, 0),
                                        opening="+x")).contains
        # (2, 4): the scale of the README's horoball command
        for k, N in ((1, 2), (2, 3), (3, 6), (2, 4)):
            for M in range(N, 2 * N + 2):
                mask, _ = _window_kernel(support, M)
                box = range(-N, N + 1)
                assert certify._rank_rows(support, [box] * len(box), N, mask) \
                    == _rank_rows_by_sets(support, sorted(box_sites(N)), N,
                                          mask), (N, M)
                for v in farey_directions(4):
                    rows = certify._halfplane_rows((v.a, v.b), k, M)
                    trace, _ = dilated_trace(v.contains, k, M)
                    assert certify._rank_rows(support, rows, M, mask) == \
                        _rank_rows_by_sets(support, trace, M, mask), (v, k, M)
                trace, _ = dilated_trace(quarter, k, M)
                assert certify._rank_rows(support, _columns(trace, M), M,
                                          mask) == \
                    _rank_rows_by_sets(support, trace, M, mask), (k, M)

    @pytest.mark.parametrize("support", RANK_SUPPORTS, ids=str)
    def test_columns_with_gaps(self, support):
        """Columns with gaps, or empty, test the sites between the ends."""
        support, rng = LinearGF2(support).support, random.Random(7)
        for M in (2, 3, 5):
            mask, _ = _window_kernel(support, M)
            for density in (0.3, 0.7, 0.9):
                sites = [s for s in sorted(box_sites(M))
                         if rng.random() < density]
                assert certify._rank_rows(support, _columns(sites, M), M,
                                          mask) == \
                    _rank_rows_by_sets(support, sites, M, mask), (M, density)


class TestOriginForced:
    @pytest.mark.parametrize("support", RANK_SUPPORTS, ids=str)
    def test_equals_nullspace_answer(self, support):
        spec = LinearGF2(support)
        seen = set()
        for N in (3, 5, 8):
            mask, dim = _window_kernel(spec.support, N)
            for name, trace in _traces(N):
                want = not any(_parity(c, mask[0, 0])
                               for c in _vanishing_on(mask, dim, trace))
                assert _origin_forced(spec, _columns(trace, N), N) == want, \
                    (N, name)
                seen.add(want)
        assert seen == {True, False}


def _dict_per_vector_pair(spec, v, k, N):
    """The margin kernel's witness pair found by building the symbol dict of
    every combination vanishing on the margin trace in turn, up to the first
    that is nonzero inside [-N, N]^2; None if none is."""
    M = N + N - k + 2
    trace_M, _ = dilated_trace(v.contains, k, M)
    mask, dim = _window_kernel(spec.support, M)
    inner = box_sites(N)
    for c in _vanishing_on(mask, dim, trace_M):
        y = {s: _parity(c, mask[s]) for s in inner}
        if any(y.values()):
            return [_member(N, dict.fromkeys(inner, 0)), _member(N, y)]
    return None


class TestWitnessScan:
    @pytest.mark.parametrize("support", [
        ledrappier().support, ((0, 0), (0, 1), (1, 2), (2, 0)), R3,
        ((0, 0), (0, 0), (1, 0), (0, 1))], ids=str)
    @pytest.mark.parametrize("N, k", [(4, 2), (5, 1)])
    def test_equals_dict_per_vector(self, support, N, k):
        spec = LinearGF2(support)
        witnesses = 0
        for v in farey_directions(2):
            cert = direction_status(spec, v, k, N)
            if not is_hull_normal(spec.support, (v.a, v.b)):
                assert cert.kind != "witness", v
                continue
            got = list(cert.pair) if cert.kind == "witness" else None
            assert got == _dict_per_vector_pair(spec, v, k, N), v
            witnesses += got is not None
        assert witnesses


def _hull_normals(support):
    """The primitive outward edge normals of the convex hull of a GF(2)
    support's sites of odd multiplicity, computed from pairs of sites."""
    odd = [p for p, c in collections.Counter(support).items() if c % 2]
    normals = set()
    for p, q in itertools.permutations(odd, 2):
        g = math.gcd(q[1] - p[1], p[0] - q[0])
        n = ((q[1] - p[1]) // g, (p[0] - q[0]) // g)
        if all(s[0] * n[0] + s[1] * n[1] <= p[0] * n[0] + p[1] * n[1]
               for s in odd):
            normals.add(n)
    return normals


class TestDirectionStatus:
    def test_hull_normal_directions_are_witnesses(self):
        spec = ledrappier()
        for v in ((0, -1), (-1, 0), (1, 1)):
            cert = direction_status(spec, v, 2, 5)
            assert cert.kind == "witness"
            assert cert.extendable
            assert verify_witness(spec, Direction(*v).contains, cert)

    def test_other_directions_deterministic(self):
        spec = ledrappier()
        for v in ((0, 1), (1, 0), (1, -1), (-1, 1), (2, 1), (1, 2), (-1, -2)):
            cert = direction_status(spec, v, 2, 5)
            assert cert.kind == "window-deterministic", (v, cert)

    def test_deterministic_certs_reverify(self):
        spec = ledrappier()
        for v in ((0, 1), (1, 0)):
            cert = direction_status(spec, v, 2, 3)
            assert cert.kind == "window-deterministic"
            assert verify_window_deterministic(spec, Direction(*v).contains, cert)

    def test_monotone_in_window(self):
        spec = ledrappier()
        for N in (4, 5, 6):
            assert direction_status(spec, (0, 1), 2, N).kind == "window-deterministic"
            assert direction_status(spec, (0, -1), 2, N).kind == "witness"

    # enumerate is compared with the known answer, the hull normals
    def test_auto_vs_enumeration_oracle(self):
        spec, normals = ledrappier(), _hull_normals(ledrappier().support)
        for v in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)):
            acert = direction_status(spec, v, 2, 3)
            ecert = direction_status(spec, v, 2, 3, margin=2, method="enumerate")
            assert ecert.kind == ("witness" if v in normals else
                                  "window-deterministic"), (v, ecert)
            assert ecert.kind == acert.kind
            for cert in (acert, ecert):
                if cert.kind == "witness":
                    assert verify_witness(spec, Direction(*v).contains, cert)

    def test_enumeration_repeated_site(self):
        # a repeated support site cancels in GF(2): this rule is x_{1,0} =
        # x_{0,1}, whose only nonexpansive directions are +-(1,1)
        spec = LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)])
        assert _hull_normals(spec.support) == {(1, 1), (-1, -1)}
        found = set()
        for v in farey_directions(1):
            cert = direction_status(spec, v, 1, 2, margin=1,
                                    method="enumerate")
            if cert.kind == "witness":
                assert verify_witness(spec, v.contains, cert), v
                found.add((v.a, v.b))
            else:
                assert cert.kind == "window-deterministic", v
        assert found == {(1, 1), (-1, -1)}

    @pytest.mark.parametrize("k", [1, 2])
    def test_enumeration_on_an_empty_window(self, monkeypatch, k):
        # no filling of [-2, 2]^2 exists, so the origin test has no class
        # to read: every direction is deterministic, as before the test came
        # first, and no walk of the margin window is built
        spec = SFT((0, 1), [{(0, 0): 0}, {(0, 0): 1}])
        walks = _counted_walks(monkeypatch)
        _window_stream.cache_clear()
        for v in farey_directions(1):
            size = 10 if k == 1 else 15 if 0 in (v.a, v.b) else 19
            assert size == len(dilated_trace(v.contains, k, 2)[0])
            assert direction_status(spec, v, k, 2, method="enumerate") \
                .to_dict() == {"kind": "window-deterministic", "N": 2,
                               "k": k, "evidence": {"trace_size": size}}
        _window_stream.cache_clear()
        assert walks == [(2, False)]

    @pytest.mark.parametrize("support", [
        ledrappier().support, R3, ((0, 0), (0, 0), (1, 0), (0, 1))],
        ids=["ledrappier", "r3", "repeated-site"])
    @pytest.mark.parametrize("k, N", [(1, 2), (2, 3), (3, 6)])
    def test_trace_size_is_the_listed_trace(self, support, k, N):
        # the half-plane ranges give the size; the mask path lists the trace
        spec, kinds = LinearGF2(support), set()
        for v in farey_directions(4):
            cert = direction_status(spec, v, k, N)
            kinds.add(cert.kind)
            assert cert.evidence["trace_size"] == \
                len(dilated_trace(v.contains, k, N)[0]), v
        assert kinds == {"witness", "window-deterministic"}

    def test_kernel_method_refused(self):
        with pytest.raises(InputError, match=r"^unknown method 'kernel'$"):
            direction_status(ledrappier(), (1, 0), 1, 1, method="kernel")

    def test_auto_vs_hull_normals_repeated_site(self):
        # the hull criterion of ``auto`` must see the GF(2) support too
        spec = LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)])
        found = {(v.a, v.b) for v in farey_directions(1)
                 if direction_status(spec, v, 1, 2).kind == "witness"}
        assert found == _hull_normals(spec.support)

    def test_fullshift_all_witness(self):
        spec = FullShift((0, 1))
        for v in parse_grid("farey:2"):
            cert = direction_status(spec, v, 2, 4)
            assert cert.kind == "witness"
            assert verify_witness(spec, v.contains, cert)

    def test_fullshift_singleton_deterministic(self):
        # one symbol leaves no second filling, even off the trace
        for v in parse_grid("farey:1"):
            cert = direction_status(FullShift((0,)), v, 1, 2)
            assert cert.kind == "window-deterministic"
            assert cert.evidence == {"alphabet": "singleton"}

    def test_bad_scales(self):
        with pytest.raises(InputError):
            direction_status(ledrappier(), (0, 1), 3, 2)
        with pytest.raises(InputError):
            direction_status(ledrappier(), (0, 1), 0, 2)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            direction_status(ledrappier(), (0, 1), 2, 4, method="magic")

    # each was taken as given: N=1.5 raised a TypeError, k=1.0 was written
    # as 1.0, and a bool was read as 1 (margin=True written as true)
    @pytest.mark.parametrize("method", ["auto", "enumerate"])
    @pytest.mark.parametrize("k, N, margin", [
        (1, 1.5, None), (1.0, 1, None), (True, 1, None), (1, True, None),
        (1, 1, True), (1, 1, 1.0),
    ], ids=["N-float", "k-float", "k-bool", "N-bool", "margin-bool",
            "margin-float"])
    def test_window_scales_must_be_integers(self, k, N, margin, method):
        with pytest.raises(InputError):
            direction_status(ledrappier(), (1, 0), k, N, margin=margin,
                             method=method)
        with pytest.raises(InputError):
            horoball_status(ledrappier(), l2_horoball((1, 0)), k, N,
                            margin=margin, method=method)

    def test_integer_scales_written_as_ints(self):
        cert = direction_status(ledrappier(), (0, -1), np.int64(2),
                                np.int64(3), margin=np.int64(3))
        assert cert.kind == "witness"
        assert json.loads(json_dumps(cert.to_dict()))["N"] == 3
        assert [type(x) for x in (cert.k, cert.N, cert.evidence["margin"])] \
            == [int] * 3

    def test_enumeration_budget_inconclusive(self):
        cert = direction_status(ledrappier(), (0, 1), 2, 2,
                                method="enumerate", budget=10)
        assert cert.kind == "inconclusive" and cert.reason == "budget"

    def test_enumeration_budget_boundary(self):
        # the hard square has exactly 55,447 fillings of [-2, 2]^2
        hard_square = SFT((0, 1), [{(0, 0): 1, (1, 0): 1},
                                   {(0, 0): 1, (0, 1): 1}])
        short = direction_status(hard_square, (1, 0), 1, 2,
                                 method="enumerate", budget=55_446)
        assert short.kind == "inconclusive" and short.reason == "budget"
        enough = direction_status(hard_square, (1, 0), 1, 2,
                                  method="enumerate", budget=55_447)
        assert enough.kind == "witness"

    def test_enumeration_budget_bounds_work(self, monkeypatch):
        # 3^9 states per row of [-4, 4]^2, each with up to 3^9 next rows:
        # the verdict must come after budget + 1 fillings, not a full walk,
        # so it fails as soon as it resumes more row walks than they take
        vertical, budget = SFT((0, 1, 2), [{(0, 0): 2, (0, 1): 2}]), 1000
        subshifts._check_plan.cache_clear()  # each run expands its own rows
        _, walk_resumes = _with_resumes(monkeypatch, lambda: list(
            itertools.islice(subshifts._RowTransfer(vertical, 4, None)
                             .fillings(), budget + 1)))
        subshifts._check_plan.cache_clear()
        cert, _ = _with_resumes(
            monkeypatch, lambda: direction_status(
                vertical, (1, 0), 1, 4, method="enumerate", budget=budget),
            limit=walk_resumes)
        assert cert.kind == "inconclusive" and cert.reason == "budget"

    def test_negative_budget(self):
        for method in ("auto", "enumerate"):
            with pytest.raises(InputError):
                direction_status(ledrappier(), (1, 0), 1, 1, budget=-1,
                                 method=method)

    # True was read as a budget of 1
    @pytest.mark.parametrize("budget", [True, 0.5, 10.0], ids=str)
    def test_budget_must_be_an_integer(self, budget):
        for method in ("auto", "enumerate"):
            with pytest.raises(InputError):
                direction_status(ledrappier(), (1, 0), 1, 1, budget=budget,
                                 method=method)


HARD_SQUARE = SFT((0, 1), [{(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1}])


class TestVerifyWitness:
    """verify_witness reads the pair in its artifact form and refuses a
    malformed or false one without raising."""

    def setup_method(self):
        self.spec, self.v = ledrappier(), Direction(0, -1)
        self.cert = direction_status(self.spec, self.v, 2, 4)
        # each case below breaks this verified pair in one way
        assert self.check(*self.cert.pair)

    def check(self, x, y, N=4):
        return verify_witness(self.spec, self.v.contains, Witness((x, y), N, 2))

    def test_identical_pair_refused(self):
        x, y = self.cert.pair
        assert not self.check(x, x)
        assert not self.check(y, y)

    def test_difference_on_trace_refused(self):
        trace, _ = dilated_trace(self.v.contains, 2, 4)
        zero = {s: 0 for s in box_sites(4)}
        # admissible, but nonzero on the trace: only the trace test refuses it
        on_trace = next(f for f in enumerate_fillings(self.spec, 4)
                        if any(f[s] for s in trace))
        assert not self.check(_member(4, zero), _member(4, on_trace))

    def test_inadmissible_member_refused(self):
        zero = {s: 0 for s in box_sites(4)}
        # one symbol far below the horoball breaks the rule there
        lone = {**zero, (0, -4): 1}
        assert not self.check(_member(4, zero), _member(4, lone))

    def test_symbol_outside_alphabet_refused(self):
        x, y = self.cert.pair
        assert y["symbols"][0][:2] == [-4, -4]
        bad = {**y, "symbols": [[-4, -4, 2]] + y["symbols"][1:]}
        assert not self.check(x, bad)

    def test_missing_site_refused(self):
        x, y = self.cert.pair
        assert [4, 4] in [c[:2] for c in y["symbols"]]
        short = {**y, "symbols": [c for c in y["symbols"] if c[:2] != [4, 4]]}
        assert not self.check(x, short)
        assert not self.check(short, x)

    def test_extra_site_refused(self):
        x, y = self.cert.pair
        longer = {**y, "symbols": y["symbols"] + [[9, 9, 0]]}
        assert not self.check(x, longer)
        assert not self.check(longer, x)

    def test_wrong_N_refused(self):
        x, y = self.cert.pair
        assert not self.check(x, {**y, "N": 5})
        assert not self.check({**x, "N": 3}, y)
        assert not self.check(x, y, N=5)

    @pytest.mark.parametrize("pair", [
        (), ({"N": 4},) * 2, ({"N": 4, "symbols": [[0, 0]]},) * 2,
        ("not a member", "either"), (None, None)], ids=repr)
    def test_shapeless_pair_refused(self, pair):
        assert not verify_witness(self.spec, self.v.contains,
                                  Witness(pair, 4, 2))

    def test_third_member_refused(self):
        x, y = self.cert.pair
        assert not verify_witness(self.spec, self.v.contains,
                                  Witness((x, y, y), 4, 2))


# (spec, horoball, k, N, method) of one witness per producer; the quarter
# space is the README's, a GF(2) witness off the half-plane path
ROUND_TRIP_CASES = {
    "ledrappier-auto": (ledrappier(), Direction(0, -1), 2, 4, "auto"),
    "ledrappier-quarter-space": (ledrappier(), Horoball(PolyhedralZ2(
        "quarter-space", apex=(0, 0), opening="+x")), 2, 4, "auto"),
    "full-shift": (FullShift((0, 1)), Direction(1, 0), 2, 4, "auto"),
    "hard-square-enumerate": (HARD_SQUARE, Direction(1, 0), 1, 2, "auto"),
}


@pytest.mark.parametrize("case", ROUND_TRIP_CASES.values(),
                         ids=ROUND_TRIP_CASES.keys())
def test_witness_round_trips_through_its_artifact(case):
    spec, horoball, k, N, method = case
    cert = horoball_status(spec, horoball, k, N, method=method)
    assert cert.kind == "witness"
    written = json.loads(json_dumps(cert.to_dict()))
    again = Witness(written["pair"], N, k, written["evidence"])
    assert verify_witness(spec, horoball.contains, again)
    assert again.to_dict() == written
    assert again.to_dict()["pair"] == cert.to_dict()["pair"]
    assert json_dumps(again.to_dict()) == json_dumps(cert.to_dict())
    # the members list [-N, N]^2 in raster order
    for member in written["pair"]:
        assert [tuple(c[:2]) for c in member["symbols"]] == box_sites(N)


# (spec, horoball, k, N, method) -> the certificate's to_dict(), for
# verdict branches that no other test reaches
PINNED_VERDICTS = {
    # the forcing placement of R3 does not fit the 3x3 window
    "r3-auto-not-hull-normal": (
        (LinearGF2(R3), Direction(1, 0), 1, 1, "auto"),
        {"kind": "inconclusive", "N": 1, "k": 1,
         "reason": "origin not forced"}),
    # a sampled l1 ball is no half-plane, so the kernel scans for a witness
    "r3-sampled-ray-no-witness": (
        (LinearGF2(R3), sampled_l1_horoball_z2((-1, 2), n_star=64), 1, 1,
         "auto"),
        {"kind": "inconclusive", "N": 1, "k": 1,
         "reason": "origin not forced; no extendable witness"}),
    # the dilated trace covers [-2, 2]^2, so no site is left free
    "full-shift-no-free-site": (
        (FullShift((0, 1)), Horoball(PolyhedralZ2(
            "quarter-space", apex=(-100, 0), opening="+x")), 1, 2, "auto"),
        {"kind": "window-deterministic", "N": 2, "k": 1,
         "evidence": {"trace_size": 25}}),
}


class TestHoroballStatus:
    @pytest.mark.parametrize("case, want", PINNED_VERDICTS.values(),
                             ids=PINNED_VERDICTS.keys())
    def test_pinned_verdicts(self, case, want):
        spec, horoball, k, N, method = case
        cert = horoball_status(spec, horoball, k, N, method=method)
        assert cert.to_dict() == want

    def test_polyhedral_halfplane_matches_direction(self):
        spec = ledrappier()
        pairs = [
            (PolyhedralZ2("halfplane-diagonal", side=1), (1, -1)),
            (PolyhedralZ2("halfplane-diagonal", side=-1), (-1, 1)),
            (PolyhedralZ2("halfplane-antidiagonal", side=1), (1, 1)),
            (PolyhedralZ2("halfplane-antidiagonal", side=-1), (-1, -1)),
        ]
        for j, v in pairs:
            hcert = horoball_status(spec, Horoball(j), 2, 5)
            dcert = direction_status(spec, v, 2, 5)
            assert hcert.kind == dcert.kind, (v, hcert, dcert)

    def test_linear_horoball_witness(self):
        spec = ledrappier()
        cert = horoball_status(spec, l2_horoball((1, 1)), 2, 5)
        assert cert.kind == "witness"

    def test_quarter_space_generic_path(self):
        spec = ledrappier()
        cone = Horoball(polyhedral_from_ray((1, 0)))
        cert = horoball_status(spec, cone, 2, 4)
        assert cert.kind in ("witness", "window-deterministic", "inconclusive")
        if cert.kind == "witness":
            assert verify_witness(spec, cone.contains, cert)

    @pytest.mark.parametrize("spec, method", [
        (ledrappier(), "auto"), (ledrappier(), "enumerate"),
        (FullShift((0, 1)), "auto"), (HARD_SQUARE, "auto")],
        ids=["ledrappier-auto", "ledrappier-enumerate", "full-shift-auto",
             "hard-square-auto"])
    def test_missing_horoball_inconclusive(self, spec, method):
        far = PolyhedralZ2("quarter-space", apex=(100, 0), opening="+x")
        cert = horoball_status(spec, Horoball(far), 2, 4, method=method)
        assert cert.kind == "inconclusive"
        assert cert.reason == "horoball misses window"

    def test_missing_horoball_not_rechecked_deterministic(self):
        # no trace on [-2N, 2N]^2, so nothing can force the origin
        far = PolyhedralZ2("quarter-space", apex=(-100, 0), opening="-x")
        assert not verify_window_deterministic(
            ledrappier(), Horoball(far).contains, WindowDeterministic(2, 1))

    @pytest.mark.parametrize("v", [(1, 0, 5), (1,)])
    def test_wrong_dimension_rejected(self, v):
        with pytest.raises(InputError):
            horoball_status(ledrappier(), l2_horoball(v), 1, 2)

    def test_halfplane_path_never_calls_contains(self, monkeypatch):
        # the dimension is checked once, not per cell of the exact mask
        def refuse(self, x):
            raise AssertionError("contains called on the half-plane path")
        monkeypatch.setattr(Horoball, "contains", refuse)
        cert = horoball_status(ledrappier(), l2_horoball((1, 1)), 2, 5)
        assert cert.kind == "witness"


class TestNDSet:
    def test_default_grid_metadata(self):
        report = nd_set(ledrappier(), 2, 4)
        assert report.metadata["grid"] == "farey:8+diag"
        assert report.metadata["spec"]["kind"] == "linear-gf2"
        assert report.epsilon == 0.25

    @pytest.mark.parametrize("k, N", [(1, 2), (2, 3), (2, 5)])
    @pytest.mark.parametrize("support", [
        ledrappier().support, ((0, 2), (1, 0), (1, 1), (2, 0)),
        ((0, 0), (0, 1), (1, 2), (2, 0)), ((0, 0), (0, 2), (1, 1), (2, 0))],
        ids=str)
    def test_witness_directions_are_hull_normals(self, support, k, N):
        """auto's witnesses over farey:2 are the known answer for a GF(2)
        rule, the outward normals of its hull's edges (Einsiedler-Lind-
        Miles-Ward), and every other direction is window-deterministic."""
        normals = _hull_normals(support)
        report = nd_set(LinearGF2(support), k, N, grid="farey:2")
        wit = {(d.a, d.b) for d in report.witness_directions()}
        assert wit == normals & {(d.a, d.b) for d in farey_directions(2)}
        if support == ledrappier().support:
            assert wit == {(0, -1), (-1, 0), (1, 1)}
        assert all(isinstance(c, WindowDeterministic)
                   for d, c in report.entries if (d.a, d.b) not in wit)

    # the 4-site rules at (2, 3) run out of the default filling budget
    @pytest.mark.parametrize("support, k, N", [
        (ledrappier().support, 1, 2), (ledrappier().support, 2, 3),
        (ledrappier().support, 1, 3), (R3, 1, 2),
        (((0, 0), (0, 0), (1, 0), (0, 1)), 1, 2),
        (((0, 0), (0, 1), (1, 2), (2, 0)), 1, 2),
        (((0, 0), (0, 2), (1, 1), (2, 0)), 1, 2)], ids=str)
    def test_enumeration_witnesses_are_hull_normals(self, monkeypatch,
                                                    support, k, N):
        """enumerate's witnesses over farey:2 are the hull normals too.
        Everywhere else the origin is forced on the k = 1 trace, by the
        independent re-check, and the oracle says so before it builds any
        walk of the margin window; at a hull normal it builds two."""
        spec, normals = LinearGF2(support), _hull_normals(support)
        # the re-check lists the window's fillings once, not per direction
        listed = functools.lru_cache(maxsize=1)(
            lambda spec, N: list(enumerate_fillings(spec, N)))
        monkeypatch.setattr(certify, "enumerate_fillings", listed)
        walks = _counted_walks(monkeypatch)
        _window_stream.cache_clear()
        try:
            for v in farey_directions(2):
                walks.clear()
                cert = direction_status(spec, v, k, N, method="enumerate")
                margin_walks = [w for w in walks if w[1]]
                forced = verify_window_deterministic(
                    spec, v.contains, WindowDeterministic(N, 1))
                assert forced == ((v.a, v.b) not in normals), v
                if forced:
                    assert cert.kind == "window-deterministic", v
                    assert margin_walks == [], v
                else:
                    assert cert.kind == "witness", v
                    assert verify_witness(spec, v.contains, cert), v
                    assert len(margin_walks) == 2, v
        finally:
            _window_stream.cache_clear()

    def test_entries_cover_grid_in_order(self):
        grid = parse_grid("farey:1")
        report = nd_set(ledrappier(), 2, 4, grid="farey:1")
        assert [d for d, _ in report.entries] == grid

    def test_witnesses_reverify_through_contains(self, monkeypatch):
        """Every witness of the default grid at k=3, N=8 passes
        verify_witness, whose trace comes from the contains scan and never
        from the half-plane closed form the search used."""
        spec = ledrappier()
        report = nd_set(spec, 3, 8)
        scans = []

        def recorded(contains, k, N):
            scans.append(N)
            return dilated_trace(contains, k, N)

        monkeypatch.setattr(certify, "dilated_trace", recorded)
        witnesses = [(v, c) for v, c in report.entries if c.kind == "witness"]
        assert len(witnesses) == 3
        for v, cert in witnesses:
            assert verify_witness(spec, v.contains, cert), v
        assert scans == [8] * 3

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            nd_set(ledrappier(), 2, 4, grid="")

    def test_nd_builds_only_the_margin_kernel(self, monkeypatch):
        """At k = 3 the origin of every direction is a trace site, so the
        origin test builds no kernel and eliminates nothing; every trace is
        read as half-plane ranges, so no direction lists one: one kernel,
        on the margin window, every reduction inside gf2_nullspace, O(M)
        rows for each hull normal, and the box's rank rows built once."""
        builds, depth, traces, ranked = [], [0], [], []
        M = 6 + (6 - 3 + 2)
        solve_forward, trace = certify.solve_forward, certify.dilated_trace
        nullspace, reduce = certify.gf2_nullspace, certify._reduce
        rank_rows = certify._rank_rows

        def counted(support, box, free):
            builds.append(box)  # the box [-box, box]^2
            return solve_forward(support, box, free)

        def traced(contains, k, N):
            traces.append(N)
            return trace(contains, k, N)

        def ranks(support, columns, box, mask):
            ranked.append(box)
            return rank_rows(support, columns, box, mask)

        def solve(rows, ncols):
            assert len(rows) <= 4 * (2 * M + 1)
            depth[0] += 1
            try:
                return nullspace(rows, ncols)
            finally:
                depth[0] -= 1

        def reduced(r, pivots):
            assert depth[0], "_reduce outside gf2_nullspace"
            return reduce(r, pivots)

        monkeypatch.setattr(certify, "solve_forward", counted)
        monkeypatch.setattr(certify, "dilated_trace", traced)
        monkeypatch.setattr(certify, "gf2_nullspace", solve)
        monkeypatch.setattr(certify, "_reduce", reduced)
        monkeypatch.setattr(certify, "_rank_rows", ranks)
        _window_kernel.cache_clear()
        certify._box_rows.cache_clear()
        try:
            report = nd_set(ledrappier(), 3, 6, "farey:8+diag")
            assert _window_kernel.cache_info().misses == 1
        finally:
            _window_kernel.cache_clear()
            certify._box_rows.cache_clear()
        assert builds == [M] == [11]
        hull = {(0, -1), (-1, 0), (1, 1)}
        assert {(d.a, d.b) for d in report.witness_directions()} == hull
        # the trace sizes are read from the ranges too
        assert traces == []
        # the box [-N, N]^2 once, the margin trace at each hull normal
        assert sorted(ranked) == [6, M, M, M]

    def test_certificates_share_no_mutable_object(self):
        """Editing one certificate's pair or evidence leaves every other
        certificate, and a later run, as it was."""
        spec = LinearGF2(R3)
        runs = [nd_set(spec, k, N, "farey:2", method=method)
                for k, N, method in ((1, 3, "auto"), (2, 3, "auto"),
                                     (1, 2, "enumerate"))]
        runs.append(nd_set(FullShift((0, 1)), 1, 2, "farey:1"))
        certs = [c for report in runs for _, c in report.entries]
        assert sum(c.kind == "witness" for c in certs) >= 8
        first = [json_dumps(c.to_dict()) for _, c in runs[0].entries]
        for i, cert in enumerate(certs):
            if cert.kind != "witness":
                continue
            before = [json_dumps(c.to_dict()) for c in certs]
            for member in cert.pair:
                member["symbols"][0][2] = "edited"
                member["symbols"].append([0, 0, "edited"])
            cert.evidence["edited"] = True
            after = [json_dumps(c.to_dict()) for c in certs]
            assert [b for j, b in enumerate(before) if j != i] == \
                [a for j, a in enumerate(after) if j != i], i
        again = nd_set(spec, 1, 3, "farey:2")
        assert [json_dumps(c.to_dict()) for _, c in again.entries] == first

    def test_enumeration_walks_the_window_once(self, monkeypatch):
        hard_square = SFT((0, 1), [{(0, 0): 1, (1, 0): 1},
                                   {(0, 0): 1, (0, 1): 1}])
        walks = []
        init = subshifts._RowTransfer.__init__

        def counted(self, spec, N, clamp, *turn, **kwargs):
            if not clamp:
                walks.append(N)
            init(self, spec, N, clamp, *turn, **kwargs)

        monkeypatch.setattr(subshifts._RowTransfer, "__init__", counted)
        _window_stream.cache_clear()
        report = nd_set(hard_square, 1, 2, grid="farey:1")
        assert walks == [2]  # one free walk for the 8 directions
        for v, cert in report.entries:
            _window_stream.cache_clear()  # each direction walks on its own
            assert cert.to_dict() == \
                direction_status(hard_square, v, 1, 2).to_dict()
        # the window has 55,447 fillings, one more than this budget
        short = nd_set(hard_square, 1, 2, grid="farey:1", budget=55_446)
        assert [(c.kind, c.reason) for _, c in short.entries] == \
            [("inconclusive", "budget")] * 8


def _shared_classes(spec, v, k, N):
    """The trace classes of two or more fillings that the enumeration oracle
    compares at direction v, each as its fillings in stream order."""
    trace, _ = dilated_trace(v.contains, k, N)
    symbols = _window_stream(spec, N, certify.DEFAULT_FILLING_BUDGET)
    sites = box_sites(N)
    cells = np.array(sorted(trace)).reshape(-1, 2) + N
    return [[dict(zip(sites, map(
        spec.alphabet.__getitem__, symbols[m].ravel().tolist())))
        for m in members]
        for members in _shared_trace_classes(
            symbols[:, cells[:, 1], cells[:, 0]])]


def _class_answers(spec, v, k, N, margin=None):
    """For each shared trace class whose first filling extends to the
    margin window: the extension walk's answer, and whether some other
    member extends by a search with the member merged into the clamp.
    Member by member, up to the first that extends, the oracle's walk that
    keeps the fillings equal to the member inside [-N, N]^2 agrees with
    that search."""
    margin = N - k + 2 if margin is None else margin
    M = N + margin
    trace_M, _ = dilated_trace(v.contains, k, M)
    answers = []
    for rep, *others in _shared_classes(spec, v, k, N):
        xhat = next(enumerate_fillings(spec, M, clamp=rep), None)
        if xhat is None:
            continue
        clamp = {s: xhat[s] for s in trace_M}
        equal = subshifts._RowTransfer(spec, M, clamp)
        member = False
        for y in others:
            member = next(enumerate_fillings(spec, M, clamp=clamp | y),
                          None) is not None
            assert (next(equal.fillings(y, N), None) is not None) == member
            if member:
                break
        answers.append((varies_inside(spec, M, clamp, xhat, N), member))
    return answers


# the fast farey:1 directions of each case; Ledrappier (-1,-1) and (1,-1)
# at k=1 take 4 to 30 s
CLASS_CASES = {
    "ledrappier-k1": (ledrappier(), 1, 2, None, [
        v for v in farey_directions(1) if (v.a, v.b) not in {(-1, -1), (1, -1)}]),
    "ledrappier-k2": (ledrappier(), 2, 2, None, farey_directions(1)),
    "hard-square": (SFT((0, 1), [{(0, 0): 1, (1, 0): 1},
                                 {(0, 0): 1, (0, 1): 1}]),
                    1, 2, None, farey_directions(1)),
    "repeated-site": (LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)]), 1, 2, 1,
                      farey_directions(1)),
    "full-shift": (FullShift((0, 1)), 1, 1, None, farey_directions(1)),
}


# a real witness, at a hull normal of R3, whose first class that varies
# tries members that extend to no filling before one that does
R3_WITNESS = (LinearGF2(R3), Direction(0, -1), 1, 2, 1)


class TestExtensionWalk:
    @pytest.mark.parametrize("spec, k, N, margin, directions",
                             CLASS_CASES.values(), ids=CLASS_CASES.keys())
    def test_walk_answers_every_class(self, spec, k, N, margin, directions):
        seen = set()
        for v in directions:
            for walk, member in _class_answers(spec, v, k, N, margin):
                assert walk == member, v
                seen.add(walk)
        assert seen

    def test_witness_is_the_first_member_that_extends(self):
        # here, at a hull normal, the first class that varies has members
        # before the first one that extends, and those extend to no filling
        spec, v, k, N, margin = R3_WITNESS
        M = N + margin
        assert (v.a, v.b) in _hull_normals(spec.support)
        trace_M, _ = dilated_trace(v.contains, k, M)
        for rep, *others in _shared_classes(spec, v, k, N):
            xhat = next(enumerate_fillings(spec, M, clamp=rep), None)
            clamp = {s: xhat[s] for s in trace_M} if xhat else None
            if clamp and varies_inside(spec, M, clamp, xhat, N):
                break
        extends = [next(enumerate_fillings(spec, M, clamp=clamp | y), None)
                   is not None for y in others]
        assert extends[0] is False and True in extends
        y = others[extends.index(True)]
        cert = direction_status(spec, v, k, N, margin=margin,
                                method="enumerate")
        assert cert.pair == (_member(N, rep), _member(N, y))

    def test_member_tests_share_one_walk(self, monkeypatch):
        # the class that varies tries two or more members (see above), all
        # on the one walk it builds after its varies_inside walk
        spec, v, k, N, margin = R3_WITNESS
        members = []
        fillings = subshifts._RowTransfer.fillings

        def recorded(self, reference=None, N=0, differ=False):
            if reference is not None and not differ:
                members.append(self)
            return fillings(self, reference, N, differ)

        monkeypatch.setattr(subshifts._RowTransfer, "fillings", recorded)
        cert = direction_status(spec, v, k, N, margin=margin,
                                method="enumerate")
        assert cert.kind == "witness" and len(members) >= 2
        assert all(walk is members[0] for walk in members)

    def test_one_clamp_parse_per_build(self, monkeypatch):
        # R3 at k = 1, N = 1 in two directions that fail the origin test and
        # find no witness, so their 24 shared classes are all walked: a walk
        # per direction and clamped site set, rebound per class, parses only
        # the clamp it is built with
        parses, walks = [], []
        symbols, init = subshifts._symbols, subshifts._RowTransfer.__init__

        def parsed(*args):
            parses.append(args)
            return symbols(*args)

        def built(self, *args, **kwargs):
            walks.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(subshifts, "_symbols", parsed)
        monkeypatch.setattr(subshifts._RowTransfer, "__init__", built)
        for v in ((-1, 2), (1, -1)):
            _window_stream.cache_clear()
            cert = direction_status(LinearGF2(R3), v, 1, 1, method="enumerate")
            assert cert.kind == "inconclusive"
        assert len(parses) == len(walks) <= 6

    def test_deterministic_directions_build_only_the_free_walk(self,
                                                              monkeypatch):
        # the k = 1 origin test settles oracle-extend's two directions from
        # the free window's walk, before any walk of the margin window
        for k, most in ((1, 128), (2, 256)):
            shared = _shared_classes(ledrappier(), Direction(1, 0), k, 2)
            assert 2 < len(shared) <= most
            _window_stream.cache_clear()
            with monkeypatch.context() as patched:
                walks = _counted_walks(patched)
                cert = direction_status(ledrappier(), (1, 0), k, 2,
                                        method="enumerate")
            assert cert.kind == "window-deterministic"
            assert walks == [(2, False)]

    def test_origin_test_agrees_with_the_recheck(self):
        # where no class finds a witness, the oracle says deterministic
        # exactly when the origin is forced in every trace class
        kinds = collections.Counter()
        for spec, k, N, grid in ((LinearGF2(R3), 1, 1, "farey:2"),
                                 (ledrappier(), 2, 2, "1,0;0,1")):
            report = nd_set(spec, k, N, grid=grid, method="enumerate")
            for v, cert in report.entries:
                kinds[cert.kind] += 1
                if cert.kind != "witness":
                    assert verify_window_deterministic(
                        spec, v.contains, cert) == \
                        (cert.kind == "window-deterministic"), v
        assert kinds["inconclusive"] == 6
        assert kinds["window-deterministic"] == 2

    def test_first_class_settles_hard_square_nd(self, monkeypatch):
        # each direction's witness lies in the class of the stream's first
        # filling, so no direction sorts its classes
        sorts = _counted_sorts(monkeypatch)
        _window_stream.cache_clear()
        report = nd_set(HARD_SQUARE, 1, 2, grid="farey:1")
        assert [c.kind for _, c in report.entries] == ["witness"] * 8
        assert sorts == []

    def test_two_plans_per_direction(self, monkeypatch):
        # hard-square nd: the free window's plan, then per direction one
        # for the inner box of the margin window and one for its trace
        plans = []
        init = subshifts._CheckPlan.__init__

        def counted(self, spec, N, clamped, turn):
            plans.append(clamped)
            init(self, spec, N, clamped, turn)

        monkeypatch.setattr(subshifts._CheckPlan, "__init__", counted)
        subshifts._check_plan.cache_clear()
        _window_stream.cache_clear()
        report = nd_set(HARD_SQUARE, 1, 2, grid="farey:1")
        assert [c.kind for _, c in report.entries] == ["witness"] * 8
        assert len(plans) <= 10

    def test_walks_meet_the_clamp_first(self, monkeypatch):
        # R3 at k = 1, N = 1: both directions fail the origin test and walk
        # every class, and their trace clamps lie above and to the left;
        # walked up from the bottom row, they expand 283,282 row states
        expansions = []
        next_rows = subshifts._RowTransfer._next_rows

        def counted(self, r, state):
            expansions.append(r)
            return next_rows(self, r, state)

        monkeypatch.setattr(subshifts._RowTransfer, "_next_rows", counted)
        subshifts._check_plan.cache_clear()
        _window_stream.cache_clear()
        for v in ((-1, -2), (1, -1)):
            cert = direction_status(LinearGF2(R3), v, 1, 1,
                                    method="enumerate")
            assert cert.kind == "inconclusive"
        assert len(expansions) <= 1500


class _SetHoroball:
    def __init__(self, fn):
        self.contains = fn


def _exponent_image(spec, contains, B):
    """Sorted exponent values over H /\\ [-B, B]^2, one box at a time."""
    out = set()
    for n in range(-B, B + 1):
        for m in range(-B, B + 1):
            if contains((n, m)):
                out.add(spec.alpha * n + spec.beta * m)
    return sorted(out)


def _skew_status_reference(spec, horoball, k, N):
    """The nested-box skew certificate: each stage scans its own box
    [-B, B]^2, and the bounded side is tested below first, then above."""
    exp_k = getattr(spec.base, "expansivity_k", None)
    if exp_k is None:
        return Inconclusive(N, k, "unknown base expansivity constant")
    if k < exp_k:
        return Inconclusive(N, k, f"k below base expansivity level {exp_k}")
    B_max = 16 * N
    stages = []
    B = N
    while B <= B_max:
        E = _exponent_image(spec, horoball.contains, B)
        stages.append((B, (E[0], E[-1]) if E else None))
        B *= 2
    evidence = {"stages": stages, "B_max": B_max}
    if stages[-1][1] is None:
        return Inconclusive(N, k, "horoball misses window")
    if set(range(-N, N + 1)) <= set(E):
        evidence["covers"] = [-N, N]
        return WindowDeterministic(N, k, evidence=evidence)
    mins = [s[1][0] for s in stages if s[1] is not None]
    maxs = [s[1][1] for s in stages if s[1] is not None]
    bounded_below = len(mins) >= 3 and mins[-1] == mins[-2] == mins[-3]
    bounded_above = len(maxs) >= 3 and maxs[-1] == maxs[-2] == maxs[-3]
    a0, a1 = spec.base.alphabet[0], spec.base.alphabet[1]
    if bounded_below or bounded_above:
        if bounded_below:
            q = mins[-1] - k
            evidence["bounded"] = ("below", mins[-1])
        else:
            q = maxs[-1] + k
            evidence["bounded"] = ("above", maxs[-1])
        pair = ({"base_point": "constant", "symbol": a0},
                {"base_point": "constant-with-difference", "symbol": a0,
                 "difference_position": q, "difference_symbol": a1})
        evidence["difference_position"] = q
        return Witness(pair, N, k, evidence=evidence)
    return Inconclusive(N, k, "exponent image unbounded both sides "
                              "but does not cover the window")


_SKEW_MAPS = [(1, -2), (2, 3), (0, 1), (1, 0), (-1, -1), (3, -1)]


def _skew_horoballs():
    """Quarter spaces of every opening with apexes in [-3, 3]^2, the four
    diagonal half-planes, five linear half-planes and two cones."""
    out = [PolyhedralZ2("quarter-space", apex=(a, b), opening=o)
           for o in PolyhedralZ2.OPENINGS
           for a in range(-3, 4) for b in range(-3, 4)]
    out += [PolyhedralZ2(shape, side=side)
            for shape in ("halfplane-diagonal", "halfplane-antidiagonal")
            for side in (1, -1)]
    out = [Horoball(j) for j in out]
    out += [l2_horoball(v) for v in ((1, 0), (0, 1), (1, 2), (-3, 1), (2, -5))]
    return out + [RationalCone((1, -1), (1, 1)), RationalCone((1, 0), (-1, 0))]


def _skew_corpus(count, seed=0):
    rng = random.Random(seed)
    horoballs = _skew_horoballs()
    cases = []
    for _ in range(count):
        N = rng.choice((1, 2))
        cases.append((SkewActionSpec(FullShiftZ(), *rng.choice(_SKEW_MAPS)),
                      rng.choice(horoballs), rng.choice((1, N)), N))
    return cases


class _CountingHoroball:
    def __init__(self, horoball):
        self.inner, self.calls = horoball, 0

    def contains(self, p):
        self.calls += 1
        return self.inner.contains(p)


class TestSkew:
    def setup_method(self):
        self.spec = SkewActionSpec(FullShiftZ(), 1, -2)

    def test_downward_cones_witness(self):
        for t in range(0, 6):
            cone = Horoball(PolyhedralZ2("quarter-space", apex=(t, t),
                                         opening="-y"))
            cert = skew_horoball_status(self.spec, cone, 1, 4)
            assert cert.kind == "witness"
            assert cert.evidence["bounded"] == ("below", 2 - t)
            assert cert.evidence["difference_position"] == 1 - t

    def test_halfplane_deterministic(self):
        below_diag = Horoball(PolyhedralZ2("halfplane-diagonal", side=-1))
        cert = skew_horoball_status(self.spec, below_diag, 1, 4)
        assert cert.kind == "window-deterministic"
        assert cert.evidence["covers"] == [-4, 4]

    def test_exponent_preimage_witness(self):
        pre = _SetHoroball(lambda g: skew_exponent(self.spec, g) >= 1)
        assert pre.contains((1, 0)) and not pre.contains((0, 1))
        cert = skew_horoball_status(self.spec, pre, 1, 4)
        assert cert.kind == "witness"
        assert cert.evidence["bounded"] == ("below", 1)

    def test_missing_horoball(self):
        far = PolyhedralZ2("quarter-space", apex=(10_000, 0), opening="+x")
        cert = skew_horoball_status(self.spec, Horoball(far), 1, 4)
        assert cert.kind == "inconclusive"

    def test_unbounded_noncovering_inconclusive(self):
        evens = _SetHoroball(lambda g: (g[0] - 2 * g[1]) % 2 == 0 and g != (0, 0))
        cert = skew_horoball_status(self.spec, evens, 1, 4)
        assert cert.kind == "inconclusive"

    def test_unknown_base_expansivity(self):
        class Opaque:
            alphabet = (0, 1)
        spec = SkewActionSpec(Opaque(), 1, -2)
        cert = skew_horoball_status(
            spec, Horoball(PolyhedralZ2("halfplane-diagonal", side=-1)), 1, 4)
        assert cert.kind == "inconclusive"

    def test_exponent_image(self):
        below_diag = Horoball(PolyhedralZ2("halfplane-diagonal", side=-1))
        E = _exponent_image(self.spec, below_diag.contains, 3)
        assert E == sorted(set(E))
        assert 2 in E and -1 in E
        # each stage of the one-scan certificate is its own box's image
        cert = skew_horoball_status(self.spec, below_diag, 1, 3)
        for B, span in cert.evidence["stages"]:
            E = _exponent_image(self.spec, below_diag.contains, B)
            assert span == (E[0], E[-1])

    def test_matches_nested_box_reference(self):
        kinds = set()
        for spec, h, k, N in _skew_corpus(100):
            want = _skew_status_reference(spec, h, k, N).to_dict()
            assert skew_horoball_status(spec, h, k, N).to_dict() == want, \
                (spec.alpha, spec.beta, h, k, N)
            kinds.add(want.get("evidence", {}).get("bounded", (want["kind"],))[0])
        # the sample reaches every branch: covers, both bounded sides and
        # a miss
        assert kinds == {"window-deterministic", "below", "above",
                         "inconclusive"}

    def test_readme_case_matches_reference(self):
        h = Horoball(PolyhedralZ2("quarter-space", apex=(2, 2), opening="-y"))
        want = _skew_status_reference(self.spec, h, 1, 4).to_dict()
        assert skew_horoball_status(self.spec, h, 1, 4).to_dict() == want
        assert want["evidence"]["bounded"] == ("below", 0)

    def test_both_sides_bounded_reports_below(self):
        # a finite image stabilizes on both sides; the lower end is used
        finite = _SetHoroball(lambda g: g in {(1, 0), (3, 1), (0, -2)})
        want = _skew_status_reference(self.spec, finite, 1, 2).to_dict()
        assert skew_horoball_status(self.spec, finite, 1, 2).to_dict() == want
        assert want["evidence"]["bounded"] == ("below", 1)

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_one_contains_call_per_cell(self, N):
        h = _CountingHoroball(Horoball(PolyhedralZ2("halfplane-diagonal",
                                                    side=-1)))
        skew_horoball_status(self.spec, h, 1, N)
        assert h.calls == (32 * N + 1) ** 2

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(
               st.builds(lambda o, a: PolyhedralZ2("quarter-space", apex=a,
                                                   opening=o),
                         st.sampled_from(PolyhedralZ2.OPENINGS),
                         st.tuples(st.integers(-80, 80), st.integers(-80, 80))),
               st.builds(PolyhedralZ2,
                         st.sampled_from(("halfplane-diagonal",
                                          "halfplane-antidiagonal")),
                         side=st.sampled_from((1, -1))),
               st.builds(lambda v: l2_horoball(v).j,
                         st.tuples(st.integers(-9, 9), st.integers(-9, 9))
                         .filter(any))),
           st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 2),
           st.booleans())
    def test_exact_regions_match_reference(self, j, alpha, beta, N, wide_k):
        assume((alpha, beta) != (0, 0))
        spec, h = SkewActionSpec(FullShiftZ(), alpha, beta), Horoball(j)
        k = N if wide_k else 1
        assert skew_horoball_status(spec, h, k, N).to_dict() == \
            _skew_status_reference(spec, h, k, N).to_dict()

    @pytest.mark.parametrize("horoball", [
        Horoball(PolyhedralZ2("quarter-space", apex=(a, 2), opening=o))
        for o in PolyhedralZ2.OPENINGS for a in (2, 70)] + [
        Horoball(PolyhedralZ2("halfplane-antidiagonal", side=1)),
        l2_horoball((1, 2)), Direction(-3, 1)], ids=repr)
    def test_exact_regions_read_no_cell(self, horoball, monkeypatch):
        calls = []
        for cls, name in ((PolyhedralZ2, "value"), (Horoball, "contains"),
                          (Direction, "contains")):
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, p, m=method:
                                calls.append(p) or m(self, p))
        skew_horoball_status(self.spec, horoball, 1, 4)
        assert calls == []

    def test_wrong_dimension_rejected(self):
        with pytest.raises(InputError):
            skew_horoball_status(self.spec, l2_horoball((1, 0, 5)), 1, 2)

    def test_bad_scales(self):
        with pytest.raises(InputError):
            skew_horoball_status(self.spec,
                                 Horoball(PolyhedralZ2("halfplane-diagonal",
                                                       side=-1)), 2, 1)

    @pytest.mark.parametrize("k, N", [(1.0, 2), (True, 2), (1, 2.5),
                                      (1, True)], ids=str)
    def test_scales_must_be_integers(self, k, N):
        horoball = Horoball(PolyhedralZ2("halfplane-diagonal", side=-1))
        with pytest.raises(InputError):
            skew_horoball_status(self.spec, horoball, k, N)
