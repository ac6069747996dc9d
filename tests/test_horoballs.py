import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horoshift import (DirectSumZ2, Horoball, InputError, Linear,
                       PolyhedralZ2, RationalCone, Sampled,
                       WeightedFreeAbelian, ZdLp,
                       l2_horoball, largeness_certificate, meeting_radius,
                       polyhedral_from_ray, sampled_l1_horoball_z2,
                       uniform_probes, verify_cone_shift, verify_tangency)
from horoshift.errors import ResourceBudgetError
from horoshift.groups import DEFAULT_BALL_BUDGET
from horoshift.horoballs import (_cone_shift_failures, _lt_sqrt_plus,
                                 _threshold, tangency_threshold)

site = st.tuples(st.integers(-15, 15), st.integers(-15, 15))


class TestLinear:
    def test_integer_direction_exact_sign(self):
        j = Linear((2, 1))
        assert j.int_dir == (2, 1)
        assert j.sign((-1, 1)) == -1   # 2*(-1)+1 = -1
        assert j.sign((1, -2)) == 0
        assert j.sign((1, 0)) == 1

    def test_unit_normalization(self):
        j = Linear((3, 4))
        assert abs(math.hypot(*j.v) - 1) < 1e-12
        assert abs(j.value((3, 4)) - 5) < 1e-12

    # Fraction(nan) raised a bare ValueError, Fraction(inf) an OverflowError
    @pytest.mark.parametrize("v", [(math.nan, 1), (1, math.inf),
                                   (-math.inf, 0), (True, 0), ("1", 0)],
                             ids=repr)
    def test_component_must_be_a_finite_number(self, v):
        with pytest.raises(InputError, match="a component of v must be"):
            Linear(v)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            Linear((0, 0))
        with pytest.raises(InputError):
            Linear((0.0, -0.0))

    def test_tiny_component_keeps_its_sign(self):
        # 1e-13 is small next to 1 but not 0: <(-1, 0), v> < 0
        j = Linear((1e-13, 1.0))
        assert j.int_dir is None and j.sign((-1, 0)) == -1
        assert l2_horoball((1e-13, 1.0)).contains((-1, 0))
        assert not l2_horoball((-1e-13, 1.0)).contains((-1, 0))

    @pytest.mark.parametrize("v, int_dir", [
        ((1e-20, 1e-20), (1, 1)), ((1e-300, -3e-300), (1, -3)),
        ((5e-324, 0.0), (1, 0))])
    def test_tiny_vector_is_a_direction(self, v, int_dir):
        j = Linear(v)
        assert j.int_dir == int_dir
        assert j.v == pytest.approx(Linear(int_dir).v)

    @pytest.mark.parametrize("v", [(1, math.sqrt(2)), (math.pi, 1),
                                   (math.e, 1), (-1, 1 / math.e),
                                   (1, 0.1 + 1e-14)])
    def test_direction_off_every_small_fraction(self, v):
        # a fraction of denominator <= 10**9 lies within 1e-18 of almost
        # any real, so matching one to 1e-12 called these rational
        j = Linear(v)
        assert j.int_dir is None and j.halfplane_normal() is None

    @pytest.mark.parametrize("v, int_dir", [
        ((1, 0.1), (10, 1)), ((0.5, 1), (1, 2)), ((1 / 3, -1), (1, -3)),
        ((0.1 * 3, 1), (3, 10)),  # 0.30000000000000004, an ulp off 3/10
        ((2 / 7, 5 / 11), (22, 35)), ((3, -7), (3, -7)),
        ((Fraction(2, 3), Fraction(-5, 7)), (14, -15)),
        ((Fraction(1, 10 ** 7), 1), (1, 10 ** 7))])
    def test_rational_direction_is_exact(self, v, int_dir):
        assert Linear(v).int_dir == int_dir

    def test_huge_vector_normalizes(self):
        # the summed squares overflow to inf, the norm itself does not
        j = Linear((1e308, 1e308))
        assert j.v == pytest.approx(Linear((1, 1)).v)
        found = [largeness_certificate(ZdLp(2, 2), l2_horoball(v), 3, 20)
                 for v in ((1e308, 1e308), (1, 1))]
        assert [(r.found, r.center) for r in found] == [(True, (-8, -9))] * 2

    @pytest.mark.parametrize("v", [(2, 1), (-6, 9), (0, -4), (4.0, 6.0),
                                   (1e20, 3.0), (10 ** 18 + 1, -10 ** 18),
                                   (3, 0, -12)])
    def test_integer_direction_is_primitive(self, v):
        # integers take the rational path; the result is their own primitive
        # vector, as a separate gcd reduction of the integers gives
        ints = tuple(int(c) for c in v)
        g = math.gcd(*ints)
        assert Linear(v).int_dir == tuple(c // g for c in ints)

    def test_l2_horoball_is_open_halfspace(self):
        h = l2_horoball((1, 0))
        assert h.contains((-1, 5))
        assert not h.contains((0, 7))   # boundary excluded
        assert not h.contains((1, 0))

    @given(x=site, y=site)
    @settings(max_examples=200, deadline=None)
    def test_one_lipschitz_l2(self, x, y):
        j = Linear((3, -2))
        g = ZdLp(2, 2)
        assert abs(j.value(x) - j.value(y)) <= g.dist(x, y) + 1e-9


class TestPolyhedralZ2:
    def test_cone_from_horizontal_ray_eval(self):
        j = polyhedral_from_ray((1, 0))
        assert j.shape == "quarter-space" and j.opening == "+x"
        # j(x, y) = |y| - x
        for (x, y), want in (((3, 1), -2), ((0, 0), 0), ((2, -5), 3)):
            assert j.value((x, y)) == want

    def test_halfplane_values(self):
        j = polyhedral_from_ray((1, 1))
        assert j.shape == "halfplane-antidiagonal"
        assert j.value((2, 1)) == -3
        j = polyhedral_from_ray((1, -1))
        assert j.shape == "halfplane-diagonal"
        assert j.value((3, 1)) == -2   # H = {x > y}

    @staticmethod
    def _value_reference(opening, apex, p):
        """The four-branch quarter-space formula, one branch per opening."""
        (x, y), (a, b) = p, apex
        if opening == "+x":
            return abs(y - b) - (x - a)
        if opening == "-x":
            return abs(y - b) + (x - a)
        if opening == "+y":
            return abs(x - a) - (y - b)
        return abs(x - a) + (y - b)

    def test_openings_order(self):
        assert PolyhedralZ2.OPENINGS == ("+x", "-x", "+y", "-y")

    @pytest.mark.parametrize("opening", ["+x", "-x", "+y", "-y"])
    def test_quarter_space_matches_four_branches(self, opening):
        cells = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for apex in ((0, 0), (2, -3), (-1, 5)):
            j = PolyhedralZ2("quarter-space", apex=apex, opening=opening)
            for p in cells:
                assert j.value(p) == self._value_reference(opening, apex, p)

    # each was read as another apex: (0.7, 2) as (0, 2), (True, 0) as (1, 0)
    @pytest.mark.parametrize("apex", [(0.7, 2), (1, 2.0), (True, 0),
                                      (0, False), ("1", 0), (1,), 5], ids=str)
    def test_apex_must_be_an_integer_pair(self, apex):
        with pytest.raises(InputError):
            PolyhedralZ2("quarter-space", apex=apex, opening="+x")

    # each was kept: 1.0 as the normal (1.0, -1.0), which ended the CLI in a
    # TypeError, and True written back as "side": true
    @pytest.mark.parametrize("side", [1.0, True, -1.0, False, "1", None, 2],
                             ids=repr)
    def test_side_must_be_one_or_minus_one(self, side):
        with pytest.raises(InputError):
            PolyhedralZ2("halfplane-diagonal", side=side)

    def test_side_kept_as_an_int(self):
        j = PolyhedralZ2("halfplane-antidiagonal", side=np.int64(-1))
        assert type(j.side) is int and j.halfplane_normal() == (-1, -1)

    # (1.9, 0.5) was read as (1, 0), where the +x quarter space is -1
    @pytest.mark.parametrize("p", [(1.9, 0.5), (True, 0), (1,)], ids=str)
    def test_value_needs_an_integer_pair(self, p):
        j = PolyhedralZ2("quarter-space", opening="+x")
        with pytest.raises(InputError):
            j.value(p)
        assert j.value((np.int64(2), 1)) == -1

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PolyhedralZ2.OPENINGS),
           st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
           st.integers(0, 30))
    def test_columns_match_cell_scan(self, opening, apex, B):
        j = PolyhedralZ2("quarter-space", apex=apex, opening=opening)
        r = range(-B, B + 1)
        assert [list(ys) for ys in j.columns(B)] == \
            [[y for y in r if j.value((x, y)) < 0] for x in r]

    def test_halfplane_values_match_shapes(self):
        for side in (1, -1):
            diag = PolyhedralZ2("halfplane-diagonal", side=side)
            anti = PolyhedralZ2("halfplane-antidiagonal", side=side)
            for p in ((3, 1), (-2, 5), (0, 0), (4, 4)):
                assert diag.value(p) == side * (p[0] - p[1])
                assert anti.value(p) == side * (p[0] + p[1])

    @staticmethod
    def _from_ray_reference(p, q):
        """The six-branch limit rule, one branch per quadrant or axis."""
        if p > 0 and q > 0:
            return PolyhedralZ2("halfplane-antidiagonal", side=-1)
        if p < 0 and q < 0:
            return PolyhedralZ2("halfplane-antidiagonal", side=1)
        if p > 0 and q < 0:
            return PolyhedralZ2("halfplane-diagonal", side=-1)
        if p < 0 and q > 0:
            return PolyhedralZ2("halfplane-diagonal", side=1)
        if q == 0:
            return PolyhedralZ2("quarter-space", apex=(0, 0),
                                opening="+x" if p > 0 else "-x")
        return PolyhedralZ2("quarter-space", apex=(0, 0),
                            opening="+y" if q > 0 else "-y")

    def test_from_ray_matches_six_branches(self):
        rays = [(p, q) for p in range(-3, 4) for q in range(-3, 4)
                if (p, q) != (0, 0)]
        assert len(rays) == 48
        cells = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        for ray in rays:
            got, want = polyhedral_from_ray(ray), self._from_ray_reference(*ray)
            assert repr(got) == repr(want), ray
            assert (got.shape, got.side, got.opening, got.apex) \
                == (want.shape, want.side, want.opening, want.apex)
            assert [got.value(c) for c in cells] == [want.value(c) for c in cells]
        # (0.5, 1) was read as (0, 1), the +y quarter space
        for ray in ((0, 0), (0.5, 1), (True, 1)):
            with pytest.raises(InputError):
                polyhedral_from_ray(ray)

    def test_horofunction_vanishes_at_identity(self):
        for ray in ((1, 0), (0, -1), (1, 1), (-2, 3), (5, -1)):
            assert polyhedral_from_ray(ray).value((0, 0)) == 0

    def test_apex_translate(self):
        j = PolyhedralZ2("quarter-space", apex=(0, 0), opening="+x")
        t = j.translate((2, 0))
        assert t.apex == (2, 0) and t.opening == "+x"
        assert not t.is_horofunction
        assert j.is_horofunction

    def test_halfplane_translate_off_border_rejected(self):
        j = PolyhedralZ2("halfplane-diagonal", side=1)
        assert j.translate((1, 1)) is j
        with pytest.raises(InputError):
            j.translate((1, 0))

    def test_one_lipschitz_l1(self):
        g = ZdLp(2, 1)
        shapes = [polyhedral_from_ray(r) for r in ((1, 0), (0, 1), (1, 1))]
        pts = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for j in shapes:
            for a in pts:
                for b in pts:
                    assert abs(j.value(a) - j.value(b)) <= g.dist(a, b)


class TestSampledCrossValidation:
    def test_truncated_limits_match_polyhedral(self):
        # balls centered on t * ray converge to the polyhedral horoball
        window = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
        for ray in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1)):
            truncated = sampled_l1_horoball_z2(ray, n_star=256)
            exact = polyhedral_from_ray(ray)
            for p in window:
                assert truncated.j.value(p) == exact.value(p)

    def test_stabilization_span(self):
        h = sampled_l1_horoball_z2((1, 0), n_star=256)
        value, span = h.j.value_with_span((3, 2))
        assert span == 0  # l1 Busemann values stabilize exactly
        assert value == polyhedral_from_ray((1, 0)).value((3, 2))
        for x in ((3, 2), (-5, 1), (0, -7), (40, 40)):
            assert h.j.value(x) == h.j.value_with_span(x)[0]

    # True was carried into the descriptor as the truncation index 1
    @pytest.mark.parametrize("n_star", [True, 2.0, "x", 0], ids=str)
    def test_truncation_index_must_be_a_positive_integer(self, n_star):
        with pytest.raises(InputError, match="truncation index must be"):
            sampled_l1_horoball_z2((1, 0), n_star=n_star)

    def test_sampled_sign_on_directsum(self):
        ds = DirectSumZ2()
        j = Sampled(ds, lambda n: frozenset([n]), n_star=64)
        # truncated horofunction of a sparse escaping sequence: j(x) = |x|
        assert j.value(frozenset()) == 0
        assert j.value(frozenset([1, 2])) == 3


class TestLargeness:
    def test_l1_cone_contains_balls(self):
        g = ZdLp(2, 1)
        cone = Horoball(polyhedral_from_ray((1, 0)))
        for R in range(1, 6):
            res = largeness_certificate(g, cone, R, search_bound=5 * R + 4)
            assert res.found
            # independent re-check of the certified inclusion
            for x in g.ball(res.center, R, closed=False):
                assert cone.contains(x)

    def test_linear_horoball_contains_balls(self):
        g = ZdLp(2, 2)
        h = l2_horoball((0, 1))
        res = largeness_certificate(g, h, 4, search_bound=24)
        assert res.found
        assert h.j.value(res.center) < -16

    def test_directsum_bounded_search_fails(self):
        ds = DirectSumZ2()
        h = Horoball(Sampled(ds, lambda n: frozenset([n]), 64))
        res = largeness_certificate(ds, h, 1, search_bound=20)
        assert not res.found
        assert res.search_bound == 20

    def test_bad_radius(self):
        with pytest.raises(InputError):
            largeness_certificate(ZdLp(2, 1), Horoball(polyhedral_from_ray((1, 0))),
                                  0, search_bound=5)

    @pytest.mark.parametrize("group, h", [
        (ZdLp(3, 1), l2_horoball((1, 0))),
        (ZdLp(2, 2), l2_horoball((1, 0, 5))),
        (ZdLp(3, 1), Horoball(polyhedral_from_ray((1, 0)))),
    ])
    def test_wrong_dimension_rejected(self, group, h):
        with pytest.raises(InputError):
            largeness_certificate(group, h, 1, search_bound=4)

    @pytest.mark.parametrize("group", [WeightedFreeAbelian(),
                                       DirectSumZ2()],
                             ids=["wfa", "dsz2"])
    @pytest.mark.parametrize("h", [
        l2_horoball((1, 0)), Horoball(polyhedral_from_ray((1, 0))),
        sampled_l1_horoball_z2((1, 0))], ids=["linear", "quarter", "sampled"])
    def test_zd_horoball_on_weighted_group_rejected(self, group, h):
        with pytest.raises(InputError, match="which is not a Z"):
            largeness_certificate(group, h, 1, search_bound=4)


class TestMeetingRadius:
    def test_small_grid(self):
        rep = meeting_radius(ZdLp(2, 2), uniform_probes(360))
        assert rep.N == 2

    def test_witnesses_verified(self):
        rep = meeting_radius(ZdLp(2, 2), uniform_probes(100))
        for v, (p, n2) in rep.witnesses.items():
            assert sum(a * b for a, b in zip(p, v)) < 0
            assert n2 == sum(c * c for c in p)
            assert n2 < rep.N ** 2

    def test_dimension_three(self):
        g3 = ZdLp(3, 2)
        dirs = [(1, 0, 0), (0, -1, 0), (0.6, 0.8, 0.0), (0, 0, 1)]
        rep = meeting_radius(g3, dirs)
        assert rep.N == 2

    @pytest.mark.parametrize("group, dirs", [
        (ZdLp(2, 2), uniform_probes(10_000)),
        (ZdLp(3, 2), [(1, 0, 0), (0, -1, 0), (0.6, 0.8, 0.0), (0, 0, 1),
                      (Fraction(-1, 3), 2, 0.5), (0, 0.0, Fraction(-1, 7)),
                      (0, 0, Fraction(1, 10 ** 400)), (-2, 10 ** 400, 0)]),
    ], ids=["probes-10000", "d3-mixed"])
    def test_matches_candidate_scan(self, group, dirs):
        rep = meeting_radius(group, dirs)
        assert (rep.N, rep.witnesses) == _meeting_radius_scan(group, dirs)

    @pytest.mark.parametrize("dirs", [[(1, 0), (0, 0)], [(0.0, -0.0)],
                                      [(1, 0), (1, 0, 0)]],
                             ids=["zero", "float-zero", "wrong-dimension"])
    def test_rejects(self, dirs):
        with pytest.raises(InputError):
            meeting_radius(ZdLp(2, 2), dirs)


def _meeting_radius_scan(group, directions):
    """Reference: the first sorted unit-ball candidate with <p, v> < 0, one
    direction at a time."""
    e = group.identity()
    candidates = sorted(group.ball(e, 1, closed=True) - {e})
    witnesses = {}
    for v in directions:
        p = next(p for p in candidates if sum(a * b for a, b in zip(p, v)) < 0)
        witnesses[tuple(v)] = (p, group.norm_exact(p))
    return math.isqrt(max(n2 for _, n2 in witnesses.values())) + 1, witnesses


def _lt_sqrt_plus_reference(a2, b2, eps):
    """sqrt(a2) < sqrt(b2) + eps in Fractions: with L = a2 - b2 - eps^2,
    L < 0 or L^2 < 4 eps^2 b2."""
    L = Fraction(a2) - Fraction(b2) - eps * eps
    return L < 0 or L * L < 4 * eps * eps * Fraction(b2)


def _tangency_threshold_reference(group, M, eps, ray, n_max):
    """The per-n loop: for each n from n_max down, the radius-M ball is
    built, sorted and scanned again along g = n * ray."""
    eps = Fraction(eps)

    def passes(g):
        g2 = group.norm_exact(g)
        for p in sorted(group.ball(group.identity(), M, closed=True)):
            if sum(a * b for a, b in zip(p, g)) > 0:
                continue
            if not _lt_sqrt_plus_reference(group.norm_exact(group.op(p, g)),
                                           g2, eps):
                return False
        return True

    failing = (n for n in range(n_max, 0, -1)
               if not passes(tuple(n * c for c in ray)))
    return _threshold(next(failing, 0), n_max)


def _tangency_corpus(count, seed=0):
    rng = random.Random(seed)
    rays = [(1, 0), (0, 1), (-1, 0), (1, 1), (2, 1), (-1, 2), (-3, -1)]
    return [(rng.choice((0, 1, 2.5, 3, 5)),
             rng.choice((0.25, 0.5, 1, Fraction(1, 3), 2)),
             rng.choice(rays), rng.choice((1, 2, 5, 12, 30)))
            for _ in range(count)]


class _CountingZdLp(ZdLp):
    def __init__(self, dim, p):
        super().__init__(dim, p)
        self.balls = 0

    def ball(self, *args, **kwargs):
        self.balls += 1
        return super().ball(*args, **kwargs)


class TestTangency:
    def test_threshold_matches_per_n_reference(self):
        g = ZdLp(2, 2)
        seen = set()
        for M, eps, ray, n_max in _tangency_corpus(200):
            want = _tangency_threshold_reference(g, M, eps, ray, n_max)
            assert tangency_threshold(g, M, eps, ray, n_max=n_max) == want, \
                (M, eps, ray, n_max)
            seen.add("none" if want is None else "one" if want == 1 else "n0")
        assert seen == {"none", "one", "n0"}

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.integers(0, 10 ** 4), st.integers(0, 10 ** 30)),
           st.one_of(st.integers(0, 10 ** 4), st.integers(0, 10 ** 30)),
           st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6))
    def test_integer_comparison_matches_fractions(self, a2, b2, eps):
        assert _lt_sqrt_plus(a2, b2, eps.numerator, eps.denominator) == \
            _lt_sqrt_plus_reference(a2, b2, eps)

    def test_integer_comparison_at_equality(self):
        # sqrt(25) = sqrt(9) + 2 exactly, and sqrt(2) - 1 is irrational
        assert not _lt_sqrt_plus(25, 9, 2, 1)
        assert _lt_sqrt_plus(25, 9, 2000001, 1000000)
        assert _lt_sqrt_plus(2, 1, 41422, 100000)
        assert not _lt_sqrt_plus(2, 1, 41421, 100000)

    def test_one_ball_per_call(self):
        g = _CountingZdLp(2, 2)
        # the README's lemma 2.3 check scans n = 40 down to 24, the last failure
        assert tangency_threshold(g, 5, 0.5, (1, 0), n_max=40) == 25
        assert g.balls == 1
        for h in ((10, 0), (30, 0), (3, -4)):
            g.balls = 0
            verify_tangency(g, 5, 0.5, h)
            assert g.balls == 1

    def test_threshold_on_axis_ray(self):
        g = ZdLp(2, 2)
        n0 = tangency_threshold(g, 5, 0.5, (1, 0), n_max=40)
        assert n0 == 25

    def test_fails_below_threshold(self):
        g = ZdLp(2, 2)
        assert not verify_tangency(g, 5, 0.5, (10, 0)).passed
        assert verify_tangency(g, 5, 0.5, (30, 0)).passed

    def test_offending_point_reported(self):
        g = ZdLp(2, 2)
        chk = verify_tangency(g, 5, 0.5, (10, 0))
        p = chk.offending
        # the reported point really does leave the dilated ball
        d_shift = math.hypot(p[0] + 10, p[1])
        assert d_shift >= 10 + 0.5

    def test_identity_center_fails(self):
        chk = verify_tangency(ZdLp(2, 2), 5, 0.5, (0, 0))
        assert not chk.passed and chk.offending is None

    def test_check_reports_only_outcome_and_point(self):
        g = ZdLp(2, 2)
        assert vars(verify_tangency(g, 5, 0.5, (30, 0))) \
            == {"passed": True, "offending": None}
        assert set(vars(verify_tangency(g, 5, 0.5, (10, 0)))) \
            == {"passed", "offending"}

    def test_zero_ray_rejected(self):
        with pytest.raises(InputError):
            tangency_threshold(ZdLp(2, 2), 5, 0.5, (0, 0), n_max=40)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, value):
        g = ZdLp(2, 2)
        for call in (lambda: verify_tangency(g, 5, value, (40, 0)),
                     lambda: verify_tangency(g, value, 0.5, (40, 0)),
                     lambda: verify_cone_shift(RationalCone((1, -1), (1, 1)),
                                               value, (-2, 0), 5)):
            with pytest.raises(InputError):
                call()

    @pytest.mark.parametrize("eps", [0, 0.0, -0.5, Fraction(-1, 3)])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(InputError):
            verify_tangency(ZdLp(2, 2), 5, eps, (40, 0))
        with pytest.raises(InputError):
            tangency_threshold(ZdLp(2, 2), 5, eps, (1, 0), n_max=40)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_n_max_must_be_positive(self, n_max):
        with pytest.raises(InputError):
            tangency_threshold(ZdLp(2, 2), 5, 0.5, (1, 0), n_max=n_max)

    # 2.5 failed inside range() with a bare TypeError; True ran as n_max=1
    @pytest.mark.parametrize("n_max", [2.5, True], ids=str)
    def test_n_max_must_be_an_integer(self, n_max):
        with pytest.raises(InputError, match="n_max must be an integer"):
            tangency_threshold(ZdLp(2, 2), 5, 0.5, (1, 0), n_max=n_max)

    @pytest.mark.parametrize("ray", [(1, 1), (2, 1)])
    def test_threshold_matches_full_scan(self, ray):
        g, n_max = ZdLp(2, 2), 30
        passes = [verify_tangency(g, 5, 0.25, (n * ray[0], n * ray[1])).passed
                  for n in range(1, n_max + 1)]
        n0 = next(n for n in range(1, n_max + 1) if all(passes[n - 1:]))
        assert tangency_threshold(g, 5, 0.25, ray, n_max=n_max) == n0


class TestConeShift:
    def test_right_cone_shift_left(self):
        cone = RationalCone((1, -1), (1, 1))
        rep = verify_cone_shift(cone, 1, (-2, 0), 50)
        assert rep.holds and rep.n1 <= 5

    def test_reported_failures_are_real(self):
        cone = RationalCone((1, -1), (1, 1))
        rep = verify_cone_shift(cone, 1, (-2, 0), 50)
        for r, p in rep.failures:
            assert cone.contains(p)
            assert math.hypot(*p) < r + 1
            assert math.hypot(p[0] - 2, p[1]) >= r

    def test_precondition_rejects_gap_direction(self):
        # shifting down against the upper half-plane: boundary directions
        # have vanishing inner product, the precondition cannot hold
        cone = RationalCone((1, 0), (-1, 0))
        with pytest.raises(InputError):
            verify_cone_shift(cone, 1, (0, -1), 10)

    def test_precondition_rejects_interior_g(self):
        cone = RationalCone((1, -1), (1, 1))
        with pytest.raises(InputError):
            verify_cone_shift(cone, 1, (2, 0), 10)

    def test_cone_membership(self):
        cone = RationalCone((1, -1), (1, 1))
        assert cone.contains((5, 2)) and cone.contains((5, -2))
        assert not cone.contains((5, 5))   # boundary ray excluded
        assert not cone.contains((0, 0))
        assert not cone.contains((-3, 0))
        closed = RationalCone((1, -1), (1, 1), closed=True)
        assert closed.contains((5, 5))

    @pytest.mark.parametrize("u1, u2", [((1, 1), (2, 2)), ((1, 1), (1, -1)),
                                        ((0, 1), (1, 0))],
                             ids=["one-ray", "reflex", "reflex-right-angle"])
    def test_rejects_degenerate_and_reflex(self, u1, u2):
        with pytest.raises(InputError):
            RationalCone(u1, u2)

    @pytest.mark.parametrize("u1", [(1.7, 0), (True, 0), ("1", 0), (1,)])
    def test_rays_must_be_integer_pairs(self, u1):
        # (1.7, 0) and (True, 0) were read as (1, 0)
        with pytest.raises(InputError):
            RationalCone(u1, (0, 1))

    # (0.9, 0.5), inside the cone, was read as (0, 0) and left out, and
    # (True, 0) was read as (1, 0) and let in
    @pytest.mark.parametrize("p", [(0.9, 0.5), (True, 0), ("1", 0), (1,)],
                             ids=str)
    def test_contains_needs_an_integer_pair(self, p):
        with pytest.raises(InputError):
            RationalCone((1, -1), (1, 1)).contains(p)

    def test_halfplane_needs_opposite_rays(self):
        cone = RationalCone((1, 1), (-2, -2))
        assert cone.contains((-1, 5)) and not cone.contains((5, -1))
        assert not cone.contains((3, 3)) and not cone.contains((-1, -1))
        assert RationalCone((1, 1), (-2, -2), closed=True).contains((3, 3))

    # (-2.7, 0.9) was checked as g = (-2, 0) without a word
    @pytest.mark.parametrize("g", [(-2.7, 0.9), (-2, False), (-2,)], ids=str)
    def test_g_must_be_an_integer_pair(self, g):
        with pytest.raises(InputError):
            verify_cone_shift(RationalCone((1, -1), (1, 1)), 1, g, 5)

    def test_r_max_below_one_rejected(self):
        with pytest.raises(InputError):
            verify_cone_shift(RationalCone((1, -1), (1, 1)), 1, (-2, 0), 0)

    # 2.5 failed inside range() with a bare TypeError; True ran as r_max=1
    @pytest.mark.parametrize("r_max", [2.5, True], ids=str)
    def test_r_max_must_be_an_integer(self, r_max):
        with pytest.raises(InputError, match="r_max must be an integer"):
            verify_cone_shift(RationalCone((1, -1), (1, 1)), 1, (-2, 0),
                              r_max)


def _in_cone_reference(cone, p):
    """Membership as a case analysis on the cone's angle."""
    if p == (0, 0):
        return False
    c1 = cone.u1[0] * p[1] - cone.u1[1] * p[0]
    c2 = p[0] * cone.u2[1] - p[1] * cone.u2[0]
    if cone.u1[0] * cone.u2[1] - cone.u1[1] * cone.u2[0] == 0:   # half-plane
        return c1 >= 0 if cone.closed else c1 > 0
    if cone.closed:
        return c1 >= 0 and c2 >= 0
    return c1 > 0 and c2 > 0


def _cone_shift_loop(cone, eta, g, r_max):
    """Reference: the cell-by-cell scan of the box [-ceil(r + eta),
    ceil(r + eta)]^2 at each radius, stopping at the first failing cell."""
    eta = Fraction(eta)
    failures = []
    for r in range(1, r_max + 1):
        bound = Fraction(r) + eta
        reach = math.ceil(bound)
        r2 = Fraction(r) ** 2
        bound2 = bound * bound
        for x in range(-reach, reach + 1):
            for y in range(-reach, reach + 1):
                p = (x, y)
                if not _in_cone_reference(cone, p):
                    continue
                if Fraction(x * x + y * y) >= bound2:
                    continue
                sx, sy = x + g[0], y + g[1]
                if Fraction(sx * sx + sy * sy) >= r2:
                    failures.append((r, p))
                    break
            else:
                continue
            break
    return failures


def _cone_shift_corpus(n, seed=20261018):
    """Seeded scan inputs: open and closed cones, half-planes, float eta
    with large denominators, g in [-8, 8]^2."""
    rng = random.Random(seed)
    etas = [1, 0.1, 0.3, 0.5, 2.75, Fraction(1, 3), Fraction(7, 5)]
    cases = []
    while len(cases) < n:
        u1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        if u1 == (0, 0):
            continue
        if rng.random() < 0.25:
            k = rng.randint(1, 3)
            u2 = (-k * u1[0], -k * u1[1])
        else:
            u2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            if u1[0] * u2[1] - u1[1] * u2[0] <= 0:
                continue
        cases.append((RationalCone(u1, u2, closed=rng.random() < 0.5),
                      rng.choice(etas),
                      (rng.randint(-8, 8), rng.randint(-8, 8)),
                      rng.randint(1, 16)))
    return cases


class TestConeShiftScan:
    def test_matches_cell_loop(self):
        # half-planes never pass the precondition, so the scan is called
        # on its own
        for cone, eta, g, r_max in _cone_shift_corpus(150):
            assert _cone_shift_failures(cone, eta, g, r_max) \
                == _cone_shift_loop(cone, eta, g, r_max), (cone, eta, g, r_max)

    def test_threshold_matches_downward_loop(self):
        seen, checked = set(), 0
        for cone, eta, g, r_max in _cone_shift_corpus(150):
            failures = _cone_shift_failures(cone, eta, g, r_max)
            n1, failed = None, {r for r, _ in failures}
            for r in range(r_max, 0, -1):
                if r in failed:
                    break
                n1 = r
            assert _threshold(max(failed, default=0), r_max) == n1
            seen.add(n1 if n1 in (None, 1) else "inside")
            try:
                rep = verify_cone_shift(cone, eta, g, r_max)
            except InputError:   # the precondition fails
                continue
            assert rep.n1 == n1
            checked += 1
        assert seen == {None, 1, "inside"} and checked >= 10

    def test_readme_case_matches_cell_loop(self):
        cone = RationalCone((1, -1), (1, 1))
        rep = verify_cone_shift(cone, 1, (-2, 0), 50)
        assert rep.failures == _cone_shift_loop(cone, 1, (-2, 0), 50)
        assert rep.n1 == 2 and [r for r, _ in rep.failures] == [1]

    @pytest.mark.parametrize("u1, u2, g", [
        ((2 ** 61 + 1, -2 ** 61), (1, 1), (-3, 1)),
        ((1, -1), (1, 1), (-2 ** 40, 5)),
    ], ids=["huge-direction", "huge-g"])
    def test_large_inputs_stay_exact(self, u1, u2, g):
        cone = RationalCone(u1, u2)
        assert _cone_shift_failures(cone, Fraction(1, 2), g, 8) \
            == _cone_shift_loop(cone, Fraction(1, 2), g, 8)

    def test_scan_never_calls_contains(self, monkeypatch):
        cones = [RationalCone((1, -1), (1, 1)),
                 RationalCone((2, -1), (-2, 1), closed=True)]
        want = [_cone_shift_loop(c, 0.3, (-3, -2), 20) for c in cones]

        def refuse(self, p):
            raise AssertionError("per-cell contains call")
        monkeypatch.setattr(RationalCone, "contains", refuse)
        got = [_cone_shift_failures(c, 0.3, (-3, -2), 20) for c in cones]
        assert got == want
        rep = verify_cone_shift(cones[0], 0.3, (-3, -2), 20)
        assert rep.failures == want[0]

    @pytest.mark.parametrize("r_max", [353, 10 ** 9])
    def test_box_over_budget_refused_before_allocation(self, monkeypatch,
                                                       r_max):
        # with eta = 1, r_max = 352 gives the largest box within the
        # budget, 707^2 cells; the box builders refuse, so nothing is built
        def refuse(*args, **kwargs):
            raise AssertionError("box built")
        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "meshgrid", refuse)
        with pytest.raises(ResourceBudgetError) as exc:
            verify_cone_shift(RationalCone((1, -1), (1, 1)), 1, (-2, 0), r_max)
        assert exc.value.budget == DEFAULT_BALL_BUDGET
