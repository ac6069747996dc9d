import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from horoshift import (InputError, farey_directions, halfspace_coverage,
                       intersection_empty, origin_in_hull, uniform_probes)
from horoshift.separation import _ccw_key


class TestOriginInHull:
    def test_opposite_pair(self):
        cert = origin_in_hull([(1, 0), (-1, 0)])
        assert cert.variant == "in-hull"
        assert cert.coefficients == [Fraction(1, 2), Fraction(1, 2)]

    def test_spanning_triple(self):
        cert = origin_in_hull([(1, 0), (0, 1), (-1, -1)])
        assert cert.variant == "in-hull"
        assert sum(cert.coefficients) == 1
        for i in range(2):
            assert sum(c * v[i] for c, v in
                       zip(cert.coefficients, [(1, 0), (0, 1), (-1, -1)])) == 0

    def test_zero_vector_short_circuit(self):
        cert = origin_in_hull([(3, 1), (0, 0)])
        assert cert.variant == "in-hull"
        assert cert.coefficients == [0, 1]

    def test_separated_quadrant(self):
        cert = origin_in_hull([(1, 0), (1, 1), (0, 1)])
        assert cert.variant == "separated"
        for v in ((1, 0), (1, 1), (0, 1)):
            assert sum(a * b for a, b in zip(v, cert.separator)) > 0

    def test_single_direction(self):
        cert = origin_in_hull([(2, 4), (1, 2)])
        assert cert.variant == "separated"

    def test_symbolic_diagonals(self):
        vecs = [("sqrt-normalized", 1, 1), (-1, 0), (0, -1)]
        cert = origin_in_hull(vecs)
        assert cert.variant == "in-hull"
        lam = [float(c) for c in cert.coefficients]
        # lambda proportional to (sqrt(2), 1, 1): hull weights absorb the
        # normalization of the diagonal
        assert abs(lam[0] / lam[1] - math.sqrt(2)) < 1e-9
        assert abs(lam[1] - lam[2]) < 1e-12

    # each was read as numbers: the first as the in-hull pair (1, 0), (-1, 0)
    # with lambda = [1/2, 1/2], though (1.7, 0.2) and (-1, 0) are separated
    @pytest.mark.parametrize("vecs", [
        [("sqrt-normalized", 1.7, 0.2), (-1, 0)],
        [("sqrt-normalized", True, 0), (-1, 0)],
        [("sqrt-normalized", "1", 0), (-1, 0)],
        [("1", 0), (-1, "0")],
        [(True, 0), (-1, 0)],
        [(1, None), (-1, 0)],
    ], ids=["symbolic-float", "symbolic-bool", "symbolic-str", "str", "bool",
            "none"])
    def test_non_number_component_refused(self, vecs):
        with pytest.raises(InputError):
            origin_in_hull(vecs)

    def test_float_and_fraction_components_read(self):
        cert = origin_in_hull([(2.0, 0), (Fraction(-2), 0.0)])
        assert cert.coefficients == [Fraction(1, 2), Fraction(1, 2)]
        # a finite float is read exactly: lambda was once the floats
        # [0.49999999999999994, 0.4999999999999998]
        cert = origin_in_hull([(1.5, 0.5), (Fraction(-3, 2), -0.5)])
        assert cert.coefficients == [Fraction(1, 2), Fraction(1, 2)]
        assert cert.residual == 0
        # floats alone get an integer separator
        cert = origin_in_hull([(0.1, 0.2), (0.3, -0.1)])
        assert cert.variant == "separated"
        assert all(type(c) is int for c in cert.separator)
        for x, y in [(0.1, 0.2), (0.3, -0.1)]:  # exactly, as Fractions
            assert Fraction(x) * cert.separator[0] + \
                Fraction(y) * cert.separator[1] > 0

    def test_numeric_dimension_three(self):
        vecs = [(1.0, 0.0, 0.0), (-1.0, 0.5, 0.0), (0.0, -1.0, 0.5),
                (0.0, 0.5, -1.0), (0.25, 0.25, 0.75)]
        cert = origin_in_hull(vecs)
        assert cert.variant in ("in-hull", "separated")
        if cert.variant == "in-hull":
            assert cert.residual <= 1e-9

    def test_numeric_separated_dimension_three(self):
        cert = origin_in_hull([(1.0, 0.1, 0.0), (0.9, -0.2, 0.3),
                               (1.1, 0.0, -0.4)])
        assert cert.variant == "separated"

    def test_empty_and_mixed(self):
        with pytest.raises(InputError):
            origin_in_hull([])
        with pytest.raises(InputError):
            origin_in_hull([(1, 0), (1, 0, 0)])

    def test_brute_force_equivalence_2d(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 5)
            vecs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            if all(v == (0, 0) for v in vecs):
                continue
            cert = origin_in_hull(vecs)
            # ground truth by dense angular sweep: separated iff some unit c
            # has all dots positive
            separated = False
            for i in range(720):
                th = math.pi * i / 360
                c = (math.cos(th), math.sin(th))
                if all(v[0] * c[0] + v[1] * c[1] > 1e-9 for v in vecs
                       if v != (0, 0)) and (0, 0) not in vecs:
                    separated = True
                    break
            assert cert.variant == ("separated" if separated else "in-hull"), vecs


class TestCoverage:
    VECS = [(1, 0), (0, -1), ("sqrt-normalized", -1, 1)]

    def test_gap_frozen(self):
        rep = halfspace_coverage(self.VECS, uniform_probes(100))
        assert rep.covered
        assert abs(rep.max_gap_degrees - 135.0) < 1e-9
        assert rep.failing_probes() == []

    def test_uncovered_quadrant(self):
        rep = halfspace_coverage([(1, 0), (0, 1)], uniform_probes(64))
        assert not rep.covered
        assert rep.max_gap_degrees == 270.0
        bad = rep.failing_probes()
        assert bad
        for c in bad:
            assert c[0] < 1e-9 and c[1] < 1e-9

    def test_exact_half_turn_still_covered(self):
        # vectors spanning exactly a closed half-plane: gap exactly 180
        rep = halfspace_coverage([(1, 0), (-1, 0)], uniform_probes(360))
        assert rep.covered
        assert abs(rep.max_gap_degrees - 180.0) < 1e-9

    def test_probe_validation(self):
        with pytest.raises(InputError):
            halfspace_coverage([(1, 0)], [(0.0, 0.0)])
        with pytest.raises(InputError):
            halfspace_coverage([], uniform_probes(4))

    # 2.5 failed inside range() with a bare TypeError; True gave one probe
    @pytest.mark.parametrize("n", [2.5, True], ids=str)
    def test_uniform_probes_count_must_be_an_integer(self, n):
        with pytest.raises(InputError, match="probe count must be an integer"):
            uniform_probes(n)

    def test_uniform_probes_on_circle(self):
        probes = uniform_probes(12)
        assert len(probes) == 12
        for c in probes:
            assert abs(math.hypot(*c) - 1) < 1e-12


class TestIntersectionEmpty:
    def test_empty_from_hull(self):
        empty, cert, witness = intersection_empty([(1, 0), (-1, 0), (0, 1)])
        assert empty and cert.variant == "in-hull" and witness is None

    def test_nonempty_with_witness(self):
        empty, cert, witness = intersection_empty([(1, 0), (1, 1), (0, 1)])
        assert not empty and cert.variant == "separated"
        for v in ((1, 0), (1, 1), (0, 1)):
            assert sum(a * b for a, b in zip(v, witness)) < 0

    def test_witness_against_lattice_scan(self):
        # cross-check the dichotomy against exhaustive lattice search in a
        # radius-50 ball: a common interior point exists iff not empty
        cases = [
            [(1, 0), (0, 1)],
            [(1, 0), (-1, 1), (0, -1)],
            [(2, 1), (-1, 2), (-1, -3)],
            [(1, 2), (1, -2)],
        ]
        for vecs in cases:
            empty, _, witness = intersection_empty(vecs)
            found = None
            for x in range(-50, 51):
                for y in range(-50, 51):
                    if (x, y) != (0, 0) and all(v[0] * x + v[1] * y < 0
                                                for v in vecs):
                        found = (x, y)
                        break
                if found:
                    break
            assert empty == (found is None), vecs
            if not empty:
                assert all(v[0] * witness[0] + v[1] * witness[1] < 0
                           for v in vecs)


def _old_direction_cmp(u, w):
    """The counterclockwise comparator the direction grid once sorted with."""
    hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    hw = 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1
    if hu != hw:
        return hu - hw
    cross = u[0] * w[1] - u[1] * w[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def _old_angle_key(p):
    """The Fraction-valued key the planar Gordan test once sorted with."""
    a, b = p
    half = 0 if (b > 0 or (b == 0 and a > 0)) else 1
    return (half, 0) if b == 0 else (half, 1, Fraction(-a, b))


class TestDirectionOrder:
    def test_farey_grid_order(self):
        prims = [(a, b) for a in range(-8, 9) for b in range(-8, 9)
                 if math.gcd(a, b) == 1]
        random.Random(0).shuffle(prims)
        want = sorted(prims, key=cmp_to_key(_old_direction_cmp))
        assert sorted(prims, key=_old_angle_key) == want
        assert [(d.a, d.b) for d in farey_directions(8)] == want
        assert sorted(prims, key=_ccw_key) == want

    def test_shuffled_primitive_vectors(self):
        rng = random.Random(7)
        for bound in (3, 1000, 10 ** 12):
            prims = set()
            for _ in range(300):
                a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
                g = math.gcd(a, b)
                if g:
                    prims.add((a // g, b // g))
            prims = list(prims)
            rng.shuffle(prims)
            want = sorted(prims, key=cmp_to_key(_old_direction_cmp))
            assert sorted(prims, key=_old_angle_key) == want
            assert sorted(prims, key=_ccw_key) == want
