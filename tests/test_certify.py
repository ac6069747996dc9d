import math

import pytest

from horoshift import (Direction, FullShift, InputError, LinearGF2,
                       PolyhedralZ2,
                       SkewActionSpec, FullShiftZ, direction_status,
                       farey_directions, horoball_status, l2_horoball,
                       ledrappier, nd_set, parse_grid, skew_exponent,
                       skew_horoball_status)
from horoshift.certify import (_LinearWindowKernel, dilated_trace,
                               exponent_image, gf2_nullspace,
                               is_hull_normal, verify_window_deterministic,
                               verify_witness)
from horoshift.horoballs import Horoball, polyhedral_from_ray
from horoshift.subshifts import box_sites, enumerate_fillings


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


class TestWindowKernel:
    SUPPORTS = [ledrappier().support, [(0, 0), (1, 0), (0, 1), (1, 1)],
                [(0, 0), (0, 0), (1, 0), (0, 1)],
                [(0, 0), (0, 1), (1, 2), (2, 0)]]

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("support", SUPPORTS, ids=str)
    def test_spans_exactly_the_fillings(self, support, M):
        spec = LinearGF2(support)
        kern = _LinearWindowKernel(spec.support, M)
        sites = box_sites(M)
        assert kern.dim <= 16
        spanned = {tuple(kern.symbol(c, s) for s in sites)
                   for c in range(2 ** kern.dim)}
        fillings = [tuple(f[s] for s in sites)
                    for f in enumerate_fillings(spec, M)]
        assert len(spanned) == len(fillings) == 2 ** kern.dim
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
        assert trace == {(x, y) for x in range(-3, 4) for y in range(-3, 0)}

    def test_monotone_in_k(self):
        v = Direction(1, 1)
        t1, _ = dilated_trace(v.contains, 1, 4)
        t2, _ = dilated_trace(v.contains, 2, 4)
        t3, _ = dilated_trace(v.contains, 3, 4)
        assert t1 < t2 < t3

    def test_missing_horoball(self):
        far = PolyhedralZ2("quarter-space", apex=(100, 0), opening="+x")
        trace, hits = dilated_trace(lambda p: far.sign(p) < 0, 2, 3)
        assert not hits and trace == set()

    HOROBALLS = {
        "direction-0,1": Direction(0, 1).contains,
        "direction-1,2": Direction(1, 2).contains,
        "direction--3,1": Direction(-3, 1).contains,
        "quarter-apex-inside": Horoball(PolyhedralZ2(
            "quarter-space", apex=(1, -2), opening="+x")).contains,
        "quarter-apex-outside": Horoball(PolyhedralZ2(
            "quarter-space", apex=(0, 7), opening="-y")).contains,
        # meets [-2N, 2N]^2 only at N = 5, in the single site (0, 10)
        "quarter-apex-far": Horoball(PolyhedralZ2(
            "quarter-space", apex=(0, 9), opening="+y")).contains,
        "irrational-linear": l2_horoball((1, math.sqrt(2))).contains,
    }

    @pytest.mark.parametrize("name", HOROBALLS)
    def test_matches_definition(self, name):
        """{p in [-N, N]^2 : linf-dist(p, H /\\ [-2N, 2N]^2) < k}, by brute
        force, for every 1 <= k <= N <= 5; k = N reaches the mask border."""
        contains = self.HOROBALLS[name]
        for N in range(1, 6):
            box = [(x, y) for x in range(-N, N + 1) for y in range(-N, N + 1)]
            ball = [(x, y) for x in range(-2 * N, 2 * N + 1)
                    for y in range(-2 * N, 2 * N + 1) if contains((x, y))]
            for k in range(1, N + 1):
                want = {p for p in box if any(
                    max(abs(p[0] - h[0]), abs(p[1] - h[1])) < k for h in ball)}
                assert dilated_trace(contains, k, N) == (want, bool(ball)), \
                    (N, k)


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

    def test_kernel_vs_enumeration_oracle(self):
        spec = ledrappier()
        for v in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)):
            kcert = direction_status(spec, v, 2, 3, margin=2, method="kernel")
            ecert = direction_status(spec, v, 2, 3, margin=2, method="enumerate")
            assert kcert.kind == ecert.kind, (v, kcert, ecert)
            if kcert.kind == "witness":
                assert verify_witness(spec, Direction(*v).contains, kcert)
                assert verify_witness(spec, Direction(*v).contains, ecert)

    def test_kernel_vs_enumeration_repeated_site(self):
        # a repeated support site cancels in GF(2): this rule is x_{1,0} = x_{0,1}
        spec = LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)])
        for v in ((0, 1), (1, 0), (1, -1), (-1, 1)):
            kcert = direction_status(spec, v, 1, 2, margin=1, method="kernel")
            ecert = direction_status(spec, v, 1, 2, margin=1, method="enumerate")
            assert kcert.kind == ecert.kind, (v, kcert, ecert)

    def test_auto_vs_kernel_repeated_site(self):
        # the hull criterion of ``auto`` must see the GF(2) support too
        spec = LinearGF2([(0, 0), (0, 0), (1, 0), (0, 1)])
        for v in farey_directions(1):
            auto = direction_status(spec, v, 1, 2)
            kernel = direction_status(spec, v, 1, 2, method="kernel")
            assert auto.kind == kernel.kind, (v, auto, kernel)

    def test_fullshift_all_witness(self):
        spec = FullShift((0, 1))
        for v in parse_grid("farey:2"):
            cert = direction_status(spec, v, 2, 4)
            assert cert.kind == "witness"
            assert verify_witness(spec, v.contains, cert)

    def test_bad_scales(self):
        with pytest.raises(InputError):
            direction_status(ledrappier(), (0, 1), 3, 2)
        with pytest.raises(InputError):
            direction_status(ledrappier(), (0, 1), 0, 2)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            direction_status(ledrappier(), (0, 1), 2, 4, method="magic")

    def test_enumeration_budget_inconclusive(self):
        cert = direction_status(ledrappier(), (0, 1), 2, 2,
                                method="enumerate", budget=10)
        assert cert.kind == "inconclusive" and cert.reason == "budget"


class TestHoroballStatus:
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

    def test_missing_horoball_inconclusive(self):
        far = PolyhedralZ2("quarter-space", apex=(100, 0), opening="+x")
        cert = horoball_status(ledrappier(), Horoball(far), 2, 4)
        assert cert.kind == "inconclusive"


class TestNDSet:
    def test_default_grid_metadata(self):
        report = nd_set(ledrappier(), 2, 4)
        assert report.metadata["grid"] == "farey:8+diag"
        assert report.metadata["spec"]["kind"] == "linear-gf2"
        assert report.epsilon == 0.25

    def test_witness_directions_are_hull_normals(self):
        report = nd_set(ledrappier(), 2, 5, grid=parse_grid("farey:2"),
                        grid_label="farey:2")
        wit = {(d.a, d.b) for d in report.witness_directions()}
        assert wit == {(0, -1), (-1, 0), (1, 1)}

    def test_entries_cover_grid_in_order(self):
        grid = parse_grid("farey:1")
        report = nd_set(ledrappier(), 2, 4, grid=grid, grid_label="farey:1")
        assert [d for d, _ in report.entries] == grid

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            nd_set(ledrappier(), 2, 4, grid=[])


class _SetHoroball:
    def __init__(self, fn):
        self.contains = fn


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
        E = exponent_image(self.spec, below_diag.contains, 3)
        assert E == sorted(set(E))
        assert 2 in E and -1 in E

    def test_bad_scales(self):
        with pytest.raises(InputError):
            skew_horoball_status(self.spec,
                                 Horoball(PolyhedralZ2("halfplane-diagonal",
                                                       side=-1)), 2, 1)
