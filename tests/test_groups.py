import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from horoshift import (BallSequenceGroup, DirectSumZ2, InputError,
                       ResourceBudgetError, WeightedFreeAbelian, ZdLp,
                       ball_sequence_check)

small_int = st.integers(min_value=-20, max_value=20)
z2 = st.tuples(small_int, small_int)


class TestZdLp:
    def test_group_ops(self):
        g = ZdLp(2, 2)
        assert g.identity() == (0, 0)
        assert g.op((1, 2), (3, -1)) == (4, 1)
        assert g.inv((1, 2)) == (-1, -2)

    def test_check_reads_integers_only(self):
        g = ZdLp(2, 1)
        assert g.check([3, -4]) == (3, -4)
        # a float was truncated and a bool read as 1
        for bad in ((1.5, True), (1, True), (1.0, 2), ("1", 2)):
            with pytest.raises(InputError):
                g.check(bad)

    # 2.0 was accepted as a dimension and True built Z^1
    @pytest.mark.parametrize("dim", [2.0, True, "2"], ids=str)
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(InputError, match="dimension must be an integer"):
            ZdLp(dim, 2)

    # 1.0 and 2.0 were kept as float p and serialized as such
    @pytest.mark.parametrize("p", [1.0, 2.0, True, "2", 3, 0])
    def test_p_must_be_1_2_or_inf(self, p):
        with pytest.raises(InputError):
            ZdLp(2, p)
        assert ZdLp(2, math.inf).p == ZdLp(2, "inf").p == "inf"

    def test_norms(self):
        assert ZdLp(2, 1).norm((3, -4)) == 7
        assert ZdLp(2, "inf").norm((3, -4)) == 4
        assert ZdLp(2, 2).norm((3, -4)) == 5.0
        assert ZdLp(2, 2).norm_exact((3, -4)) == 25  # squared for l2

    def test_dist_lt_exact(self):
        g = ZdLp(2, 2)
        # d((0,0),(1,1)) = sqrt(2): strictly below 3/2, not below 1.4
        assert g.dist_lt((0, 0), (1, 1), Fraction(3, 2), closed=False)
        assert not g.dist_lt((0, 0), (1, 1), Fraction(7, 5), closed=False)
        assert g.dist_lt((0, 0), (3, 4), 5, closed=True)
        assert not g.dist_lt((0, 0), (3, 4), 5, closed=False)

    @given(g=z2, h=z2, f=z2)
    @settings(max_examples=300, deadline=None)
    def test_right_invariance(self, g, h, f):
        grp = ZdLp(2, 2)
        assert grp.norm_exact(grp.op(grp.op(g, f), grp.inv(grp.op(h, f)))) \
            == grp.norm_exact(grp.op(g, grp.inv(h)))

    @given(g=z2, x=z2, y=z2)
    @settings(max_examples=300, deadline=None)
    def test_busemann_lipschitz_and_zero(self, g, x, y):
        grp = ZdLp(2, 2)
        assert grp.busemann(g, grp.identity()) == 0
        lhs = abs(grp.busemann(g, x) - grp.busemann(g, y))
        assert lhs <= grp.dist(x, y) + 1e-9

    def test_ball_matches_brute_force(self):
        for p in (1, 2, "inf"):
            g = ZdLp(2, p)
            for r, closed in ((3, True), (3, False), (Fraction(5, 2), True)):
                ball = set(g.ball((1, -1), r, closed=closed))
                box = [(x, y) for x in range(-10, 11) for y in range(-10, 11)]
                expected = {q for q in box if g.dist_lt((1, -1), q, r, closed)}
                assert ball == expected

    # exact norms written out per p, independent of ZdLp's own
    NORMS = {1: lambda v: sum(abs(c) for c in v),
             2: lambda v: sum(c * c for c in v),
             "inf": lambda v: max(abs(c) for c in v)}

    @pytest.mark.parametrize("p", [1, 2, "inf"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_matches_definition(self, p, d):
        g, center = ZdLp(d, p), (1, -1, 2)[:d]
        box = list(product(range(-6, 7), repeat=d))
        for radius in (0, 4.999, 5, Fraction(7, 3), 2.5):
            r = Fraction(radius)
            bound = r * r if p == 2 else r
            for closed in (True, False):
                want = {tuple(c + o for c, o in zip(center, offs))
                        for offs in box
                        if (self.NORMS[p](offs) <= bound if closed
                            else self.NORMS[p](offs) < bound)}
                assert g.ball(center, radius, closed=closed) == want, \
                    (radius, closed)

    def test_ball_sphere_points(self):
        # (3, 4) lies on the l2 sphere of radius 5, and (2, 3) on the l1
        # and linf spheres of radius 5 and 3
        for p, r, q in ((2, 5, (3, 4)), (1, 5, (2, 3)), ("inf", 3, (2, 3))):
            g = ZdLp(2, p)
            assert q in g.ball((0, 0), r, closed=True)
            assert q not in g.ball((0, 0), r, closed=False)
            assert g.dist_lt((0, 0), q, r, closed=True)
            assert not g.dist_lt((0, 0), q, r, closed=False)

    def test_ball_sizes(self):
        assert len(ZdLp(2, 1).ball((0, 0), 3, closed=True)) == 25
        assert len(ZdLp(2, 2).ball((0, 0), 10, closed=True)) == 317
        assert len(ZdLp(2, "inf").ball((0, 0), 2, closed=True)) == 25

    def test_ball_budget(self):
        with pytest.raises(ResourceBudgetError):
            ZdLp(2, 1).ball((0, 0), 100, closed=True, budget=10)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            ZdLp(2, 2).check((1, 2, 3))

    def test_busemann_linear_limit_stable(self):
        g = ZdLp(2, 2)
        # far centers: b_{(n,0)}(x) ~ -x1 with error below |x|^2 / n
        for n in (10 ** 3, 10 ** 6):
            for x in ((3, 4), (-7, 2), (10, 0)):
                err = abs(g.busemann((n, 0), x) + x[0])
                assert err <= (x[0] ** 2 + x[1] ** 2) / n

    def test_busemann_exact_l1(self):
        g = ZdLp(2, 1)
        assert g.busemann((5, 0), (1, 1)) == -1 + 1  # |1-5|+1 - 5
        assert isinstance(g.busemann((5, 0), (1, 1)), int)


class TestWeightedFreeAbelian:
    def test_element_and_norm(self):
        w = WeightedFreeAbelian()
        e = w.element({1: 2, 3: -1})
        assert w.norm(e) == 2 * 1 + 1 * 3
        assert w.norm(w.identity()) == 0

    def test_op_inverse(self):
        w = WeightedFreeAbelian()
        a = w.element({1: 2})
        b = w.element({1: -2, 2: 1})
        assert w.op(a, b) == w.element({2: 1})
        assert w.op(a, w.inv(a)) == w.identity()

    def test_ball_count(self):
        w = WeightedFreeAbelian()
        assert len(w.ball(w.identity(), 3, closed=True)) == 15
        # strict ball drops the norm-3 shell
        strict = w.ball(w.identity(), 3, closed=False)
        assert all(w.norm(e) < 3 for e in strict)

    def test_ball_translation_invariance(self):
        w = WeightedFreeAbelian()
        c = w.element({2: 1})
        ball = w.ball(c, 2, closed=True)
        assert {w.op(e, w.inv(c)) for e in ball} \
            == set(w.ball(w.identity(), 2, closed=True))

    def test_check_reads_integer_pairs_only(self):
        w = WeightedFreeAbelian()
        assert w.check([(3, -1), (1, 2)]) == ((1, 2), (3, -1))
        # (2.5, 2.7) was read as (2, 2), and (5, 0) raised a TypeError
        for bad in ([(2.5, 2.7)], [(True, 1)], [(1, False)], [("1", 2)],
                    (5, 0), [(1, 2, 3)], 7):
            with pytest.raises(InputError):
                w.check(bad)

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(-2, 2)),
                    max_size=3),
           st.lists(st.tuples(st.integers(1, 4), st.integers(-2, 2)),
                    max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_norm_symmetry_triangle(self, a_items, b_items):
        w = WeightedFreeAbelian()
        a = w.element(dict(a_items))
        b = w.element(dict(b_items))
        assert w.norm(a) == w.norm(w.inv(a))
        assert w.norm(w.op(a, b)) <= w.norm(a) + w.norm(b)


class TestDirectSumZ2:
    def test_involutive(self):
        d = DirectSumZ2()
        a = d.check([1, 3])
        assert d.op(a, a) == d.identity()
        assert d.inv(a) == a

    def test_check_reads_integers_only(self):
        d = DirectSumZ2()
        assert d.check([3, 1, 3]) == frozenset({1, 3})
        # [1.5, True, 3] was read as {1, 3}
        for bad in ([1.5, True, 3], [True], [2.0], ["1"], 4):
            with pytest.raises(InputError):
                d.check(bad)

    def test_norm_and_ball(self):
        d = DirectSumZ2()
        assert d.norm(d.check([1, 2])) == 3
        assert len(d.ball(d.identity(), 3, closed=True)) == 5

    def test_every_element_far_from_deep_negative(self):
        # weights grow, so balls are finite and norms unbounded
        d = DirectSumZ2()
        ball = d.ball(d.identity(), 6, closed=True)
        assert all(d.norm(e) <= 6 for e in ball)
        assert len(ball) == len(set(ball))


def _index_weight_box(group):
    """Every element supported on e_1..e_6 with |x_i| * i <= 6: a superset
    of the closed index-weight ball of radius 6 at the identity."""
    if isinstance(group, DirectSumZ2):
        ranges = [(0, 1)] * 6
    else:
        ranges = [range(-(6 // i), 6 // i + 1) for i in range(1, 7)]
    for cs in product(*ranges):
        pairs = [(i, c) for i, c in enumerate(cs, start=1) if c]
        if sum(abs(c) * i for i, c in pairs) <= 6:
            yield (frozenset(i for i, _ in pairs)
                   if isinstance(group, DirectSumZ2) else tuple(pairs))


WEIGHTED = {"wfa": (WeightedFreeAbelian, [(2, 1), (3, -1)]),
            "dsz2": (DirectSumZ2, [1, 4])}


class TestWeightedBall:
    @pytest.mark.parametrize("name", WEIGHTED)
    @pytest.mark.parametrize("radius", [0, 1, Fraction(5, 2), 3, 6])
    @pytest.mark.parametrize("closed", [False, True])
    def test_matches_brute_force(self, name, radius, closed):
        cls, other = WEIGHTED[name]
        grp = cls()
        for center in (grp.identity(), grp.check(other)):
            expected = {x for x in (grp.op(e, center)
                                    for e in _index_weight_box(grp))
                        if grp.dist_lt(x, center, radius, closed)}
            assert grp.ball(center, radius, closed=closed) == expected

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_budget(self, name):
        grp = WEIGHTED[name][0]()
        with pytest.raises(ResourceBudgetError) as exc:
            grp.ball(grp.identity(), 6, closed=True, budget=5)
        assert exc.value.budget == 5 and exc.value.count == 6

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_deep_radius_stops_at_budget(self, name):
        # the walk was recursive, one frame per generator index up to the
        # radius, and raised RecursionError here whatever the budget
        grp = WEIGHTED[name][0]()
        with pytest.raises(ResourceBudgetError) as exc:
            grp.ball(grp.identity(), 1500, budget=10)
        assert exc.value.count == 11

    @pytest.mark.parametrize("name", WEIGHTED)
    @pytest.mark.parametrize("radius", [3, 10])
    def test_one_element_per_node(self, monkeypatch, name, radius):
        # each coefficients() call starts at least one node, each node is a
        # new element; the closed radius-10 free abelian ball made 3,856
        # calls for its 643 elements
        cls, calls = WEIGHTED[name][0], []
        coefficients = cls.coefficients
        monkeypatch.setattr(cls, "coefficients",
                            staticmethod(lambda n: calls.append(n)
                                         or coefficients(n)))
        ball = cls().ball(cls().identity(), radius, closed=True)
        assert 0 < len(calls) < len(ball)

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_checks_the_center_once(self, monkeypatch, name):
        # the walk builds valid elements; checking each of them again made
        # 52,681 check calls for the closed radius-20 free abelian ball
        cls, other = WEIGHTED[name]
        calls, check = [], cls.check
        monkeypatch.setattr(cls, "check",
                            lambda self, g: calls.append(g) or check(self, g))
        for center in (cls().identity(), other):
            calls.clear()
            assert len(cls().ball(center, 6, closed=True)) > 1
            assert calls == [center]

    def test_closed_radius_20_size(self):
        w = WeightedFreeAbelian()
        assert len(w.ball(w.identity(), 20, closed=True)) == 26_341


def _l1_balls(n_max):
    return [[(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)
             if abs(x) + abs(y) <= n] for n in range(n_max + 1)]


class TestBallSequence:
    def test_l1_balls_pass(self):
        rep = ball_sequence_check(_l1_balls(5), cutoff=5)
        assert rep.ok
        grp = rep.group
        assert grp.norm((2, 1)) == 3
        assert set(grp.ball((0, 0), 2, closed=True)) == set(_l1_balls(5)[2])
        assert set(grp.ball((0, 0), Fraction(5, 2), closed=False)) \
            == set(_l1_balls(5)[2])

    def test_identity_axiom_violation(self):
        bad = _l1_balls(3)
        bad[0] = [(0, 0), (1, 0)]
        rep = ball_sequence_check(bad, cutoff=3)
        assert not rep.ok and rep.violation.axiom == "identity"

    def test_symmetry_violation(self):
        bad = _l1_balls(3)
        bad[1] = [(0, 0), (1, 0), (0, 1), (-1, 0)]  # missing (0,-1)
        rep = ball_sequence_check(bad, cutoff=3)
        assert not rep.ok and rep.violation.axiom == "symmetry"

    def test_product_violation(self):
        bad = _l1_balls(3)
        bad[2] = bad[1]  # B1*B1 no longer inside B2
        rep = ball_sequence_check(bad, cutoff=3)
        assert not rep.ok and rep.violation.axiom in ("product", "nesting")

    def test_induced_metric_is_invariant(self):
        rep = ball_sequence_check(_l1_balls(5), cutoff=5)
        grp = rep.group
        for g, h, f in (((1, 0), (0, 1), (2, -1)), ((0, 0), (1, 1), (-1, 2))):
            gf = (g[0] + f[0], g[1] + f[1])
            hf = (h[0] + f[0], h[1] + f[1])
            assert grp.dist(gf, hf) == grp.dist(g, h)


def _weighted_case(cls, other):
    grp = cls()
    center = grp.check(other)
    return grp, center, [grp.op(e, center) for e in _index_weight_box(grp)]


# every family with a center and a box of candidates holding its radius-3 ball
RULE_CASES = {
    **{f"z2-l{p}": (ZdLp(2, p), (1, -1),
                    list(product(range(-6, 9), range(-9, 7))))
       for p in (1, 2, "inf")},
    **{name: _weighted_case(*case) for name, case in WEIGHTED.items()},
    "ball-sequence": (ball_sequence_check(_l1_balls(5), cutoff=5).group,
                      (0, 0), _l1_balls(5)[5]),
}


@pytest.mark.parametrize("name", RULE_CASES)
@pytest.mark.parametrize("radius", [0, Fraction(5, 2), 2.5, 3], ids=str)
@pytest.mark.parametrize("closed", [False, True])
def test_ball_and_dist_lt_share_one_radius_rule(name, radius, closed):
    grp, center, candidates = RULE_CASES[name]
    assert grp.ball(center, radius, closed=closed) == \
        {x for x in candidates if grp.dist_lt(x, center, radius, closed)}
    assert not any(grp.dist_lt(x, center, -1, closed) for x in candidates)
    with pytest.raises(InputError, match="radius must be >= 0"):
        grp.ball(center, -1, closed=closed)
