"""Acceptance criteria, one test per criterion, one pass/fail line each."""

import json
import math
import os
import random
import time

from horoshift import (DirectSumZ2, Horoball, ZdLp, halfspace_coverage,
                       intersection_empty, ledrappier, origin_in_hull,
                       uniform_probes, verify_cone_shift, verify_tangency)
from horoshift.certify import verify_witness
from horoshift.cli import main
from horoshift.horoballs import (RationalCone, Sampled,
                                 l2_horoball, largeness_certificate,
                                 meeting_radius, polyhedral_from_ray,
                                 tangency_threshold)
from horoshift.render import ball_raster
from horoshift.serialize import (json_dumps, nd_report_to_dict,
                                 witness_vectors_from_report_dict)
from horoshift.horoballs import PolyhedralZ2
from horoshift.subshifts import FullShiftZ, SkewActionSpec
from horoshift.certify import skew_horoball_status


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_nd_cli(tmp_path):
    t0 = time.monotonic()
    rc = main(["nd", "--system", "ledrappier", "--k", "3", "--window", "6",
               "--grid", "farey:8+diag", "--out", str(tmp_path)])
    elapsed = time.monotonic() - t0
    with open(tmp_path / "nd_report.json", encoding="utf-8") as f:
        d = json.load(f)
    wit = {(w["a"], w["b"]) for w in d["witness_directions"]}
    ok = (rc == 0 and elapsed < 120 and len(d["witness_directions"]) == 3
          and wit == {(0, -1), (-1, 0), (1, 1)}
          and (tmp_path / "nd_report.csv").exists()
          and (tmp_path / "direction_circle.svg").exists())
    report(1, ok, f"nd over farey:8+diag: witnesses {sorted(wit)} "
                  f"in {elapsed:.1f}s")


def test_criterion_2_origin_dichotomy():
    t0 = time.monotonic()
    vecs = [[0, -1], [-1, 0], ["sqrt-normalized", 1, 1]]
    cert = origin_in_hull(vecs)
    lam = [float(c) for c in cert.coefficients]
    empty, cert2, _ = intersection_empty(vecs)
    elapsed = time.monotonic() - t0
    ok = (cert.variant == "in-hull" and empty
          and cert2.variant == "in-hull"
          and abs(lam[2] / lam[0] - math.sqrt(2)) < 1e-9
          and abs(sum(lam) - 1) < 1e-12
          and elapsed < 1.0)
    report(2, ok, f"in-hull with lambda={['%.4f' % c for c in lam]}, "
                  f"open half-space intersection empty, {elapsed:.3f}s")


def test_criterion_3_coverage():
    rep = halfspace_coverage([[0, -1], [-1, 0], ["sqrt-normalized", 1, 1]],
                             uniform_probes(100))
    ok = (rep.covered and not rep.failing_probes()
          and abs(rep.max_gap_degrees - 135.0) <= 0.5)
    report(3, ok, f"100 probes covered, max angular gap "
                  f"{rep.max_gap_degrees:.2f} degrees")


def test_criterion_4_fullshift_all_witness(tmp_path):
    t0 = time.monotonic()
    rc = main(["nd", "--system", "fullshift", "--k", "3", "--window", "6",
               "--grid", "farey:8+diag", "--out", str(tmp_path)])
    elapsed = time.monotonic() - t0
    with open(tmp_path / "nd_report.json", encoding="utf-8") as f:
        d = json.load(f)
    kinds = {e["certificate"]["kind"] for e in d["entries"]}
    ok = (rc == 0 and kinds == {"witness"} and elapsed < 30
          and len(d["entries"]) == len(d["witness_directions"]))
    report(4, ok, f"full shift: all {len(d['entries'])} grid directions "
                  f"witnessed in {elapsed:.1f}s")


def test_criterion_5_skew():
    spec = SkewActionSpec(FullShiftZ(), 1, -2)
    ok = True
    details = []
    for t in range(6):
        cone = Horoball(PolyhedralZ2("quarter-space", apex=(t, t),
                                     opening="-y"))
        cert = skew_horoball_status(spec, cone, 1, 4)
        stages = cert.evidence["stages"] if cert.kind == "witness" else None
        ok = ok and cert.kind == "witness" and len(stages) >= 3
        details.append(f"cone({t},{t})->{cert.kind}")
    half = Horoball(PolyhedralZ2("halfplane-diagonal", side=-1))
    cert = skew_horoball_status(spec, half, 1, 4)
    ok = (ok and cert.kind == "window-deterministic"
          and cert.evidence["covers"] == [-4, 4]
          and len(cert.evidence["stages"]) >= 3)
    details.append(f"halfplane(y<x)->{cert.kind}")
    report(5, ok, "; ".join(details) + " (exponent-image stages recorded)")


def test_criterion_6_busemann_and_raster(tmp_path):
    g = ZdLp(2, 2)
    pts = g.ball((0, 0), 10, closed=True)
    worst = 0.0
    ok = True
    for n in (10 ** 3, 10 ** 4, 10 ** 6):
        for x in pts:
            if x == (0, 0):
                continue
            err = abs(g.busemann((n, 0), x) + x[0])
            bound = (x[0] ** 2 + x[1] ** 2) / n
            ok = ok and err <= bound
            worst = max(worst, err - bound)
    gl1 = ZdLp(2, 1)
    rasters = {t: ball_raster(gl1, (t, 0), 20) for t in (82, 90, 150, 400)}
    base = rasters[82]
    ok = ok and all(r == base for r in rasters.values())
    ok = ok and len(base) == 41 and len(base[0]) == 41
    report(6, ok, f"|b+x1| within |x|^2/n on B_10 for n up to 1e6 "
                  f"(max slack violation {worst:.2e}); 41x41 raster "
                  f"stable for t >= 82")


def test_criterion_7_meeting_radius():
    rep = meeting_radius(ZdLp(2, 2), uniform_probes(10_000))
    ok = rep.N == 2 and len(rep.witnesses) == 10_000
    for v, (p, n2) in rep.witnesses.items():
        if not (sum(a * b for a, b in zip(p, v)) < 0 and n2 < rep.N ** 2):
            ok = False
            break
    report(7, ok, f"meeting radius N={rep.N} over 10000 directions, "
                  f"every witness re-verified")


def test_criterion_8_largeness():
    gl1, gl2 = ZdLp(2, 1), ZdLp(2, 2)
    cone = Horoball(polyhedral_from_ray((1, 0)))
    lin = l2_horoball((1, 0))
    ok = True
    for R in range(1, 11):
        rc = largeness_certificate(gl1, cone, R, search_bound=5 * R + 4)
        rl = largeness_certificate(gl2, lin, R, search_bound=5 * R + 4)
        ok = ok and rc.found and rl.found
        ok = ok and all(cone.contains(x)
                        for x in gl1.ball(rc.center, R, closed=False))
    ds = DirectSumZ2()
    sparse = Horoball(Sampled(ds, lambda n: frozenset([n]), 64))
    res = largeness_certificate(ds, sparse, 1, search_bound=20)
    ok = ok and not res.found
    report(8, ok, "balls of radius 1..10 found inside the cone and linear "
                  "horoballs; bounded search on the direct sum fails as "
                  "expected")


def test_criterion_9_tangency_and_cone_shift():
    g = ZdLp(2, 2)
    n0 = tangency_threshold(g, 5, 0.5, (1, 0), n_max=40)
    shift = verify_cone_shift(RationalCone((1, -1), (1, 1)), 1, (-2, 0), 50)
    ok = (n0 is not None and n0 <= 30
          and verify_tangency(g, 5, 0.5, (n0, 0)).passed
          and not verify_tangency(g, 5, 0.5, (n0 - 1, 0)).passed
          and shift.holds and shift.n1 <= 5)
    report(9, ok, f"tangency threshold n0={n0} <= 30 (sharp); "
                  f"cone translation n1={shift.n1} <= 5")


def test_criterion_10_property_suite():
    rng = random.Random(20260824)
    checks = {}

    g2 = ZdLp(2, 2)
    checks["right-invariance"] = all(
        g2.norm_exact(tuple(a - b for a, b in zip(x, y)))
        == g2.norm_exact(tuple((a + f) - (b + f)
                               for a, b, f in zip(x, y, z)))
        for x, y, z in ((tuple(rng.randint(-50, 50) for _ in range(2)),
                         tuple(rng.randint(-50, 50) for _ in range(2)),
                         tuple(rng.randint(-50, 50) for _ in range(2)))
                        for _ in range(500)))

    checks["busemann-lipschitz"] = all(
        abs(g2.busemann(c, x) - g2.busemann(c, y)) <= g2.dist(x, y) + 1e-9
        for c, x, y in (((rng.randint(1, 99), rng.randint(-99, 99)),
                         (rng.randint(-20, 20), rng.randint(-20, 20)),
                         (rng.randint(-20, 20), rng.randint(-20, 20)))
                        for _ in range(500)))

    from horoshift import direction_status, Direction
    spec = ledrappier()
    checks["witness-reverification"] = all(
        verify_witness(spec, Direction(*v).contains,
                       direction_status(spec, v, 2, 5))
        for v in ((0, -1), (-1, 0), (1, 1)))

    from horoshift import nd_set
    rep = nd_set(spec, 2, 4, grid="farey:2")
    d = nd_report_to_dict(rep)
    checks["serialization-determinism"] = json_dumps(d) == json_dumps(
        nd_report_to_dict(nd_set(spec, 2, 4, grid="farey:2")))
    checks["witness-vector-pipeline"] = (
        origin_in_hull(witness_vectors_from_report_dict(d)).variant
        == "in-hull")

    ok = all(checks.values())
    report(10, ok, "property suite: "
           + ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                       for k, v in checks.items()))
