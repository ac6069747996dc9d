"""Batch command-line front end.

One analysis per invocation; composition happens through files.  All JSON
and CSV artifacts are deterministic (sorted keys, no timestamps); wall
clock times go only to the ``run.log`` sidecar.  Exit codes: 0 success,
2 invalid configuration, 3 resource budget exhausted (partial report) or,
for ``verify lemma2.3`` and ``verify lemma2.5``, a finite check that fails
within its range (the report says so; no partial report).
"""

import argparse
import datetime
import os
import sys

from . import certify, groups, horoballs, render, separation, serialize, subshifts
from .certify import parse_pair
from .errors import InputError, ResourceBudgetError


def _path(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write(out_dir, name, text):
    path = _path(out_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _log(out_dir, message):
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out_dir, "run.log"), "a", encoding="utf-8") as f:
        f.write(f"{stamp} {message}\n")


def _emit_json(args, name, payload_dict, summary_lines):
    text = serialize.json_dumps(payload_dict)
    path = _write(args.out, name, text)
    _log(args.out, f"wrote {name}")
    for line in summary_lines:
        print(line)
    print(f"report: {path}")


def _read(path, what):
    """The text of an input file; an unreadable one is invalid input."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {what}: {e}") from e


def _load_vectors(source):
    """Vector descriptors from inline JSON or a file (JSON list, or a
    serialized ND report whose witness directions are taken)."""
    text = _read(source, "vectors") if os.path.exists(source) else source
    data = serialize.load_json(text)
    if isinstance(data, dict) and "entries" in data:
        return serialize.witness_vectors_from_report_dict(data)
    if isinstance(data, list):
        return data
    raise InputError("vectors must be a JSON list or an ND report")


# ---------------------------------------------------------------------------
# subcommands

def cmd_nd(args):
    spec = serialize.parse_spec(args.system)
    report = certify.nd_set(spec, args.k, args.window, grid=args.grid,
                            margin=args.margin, budget=args.budget,
                            method=args.method)
    d = serialize.nd_report_to_dict(report)
    d["metadata"]["seed"] = args.seed
    _write(args.out, "nd_report.csv", serialize.nd_report_to_csv(d))
    _write(args.out, "direction_circle.svg", render.direction_circle_svg(d))
    wit = report.witness_directions()
    _emit_json(args, "nd_report.json", d, [
        f"system={args.system} k={args.k} N={args.window} grid={args.grid}",
        f"directions: {len(report.entries)}  witnesses: {len(wit)}",
        "witness directions: " + ", ".join(repr(w) for w in wit),
    ])
    return 0


def cmd_direction(args):
    spec = serialize.parse_spec(args.system)
    v = certify.Direction(*parse_pair(args.dir))
    cert = certify.direction_status(spec, v, args.k, args.window,
                                    margin=args.margin, budget=args.budget,
                                    method=args.method)
    d = {"direction": serialize.direction_to_dict(v),
         "certificate": cert.to_dict(),
         "system": spec.to_dict()}
    _emit_json(args, "direction_report.json", d,
               [f"direction {v!r}: {cert!r}"])
    return 0


def cmd_horoball(args):
    spec = serialize.parse_spec(args.system)
    hb = serialize.parse_horoball(args.horoball)
    cert = certify.horoball_status(spec, hb, args.k, args.window,
                                   margin=args.margin, budget=args.budget,
                                   method=args.method)
    d = {"horoball": serialize.horoball_to_dict(hb),
         "certificate": cert.to_dict(),
         "system": spec.to_dict()}
    _emit_json(args, "horoball_report.json", d, [f"{hb!r}: {cert!r}"])
    return 0


def cmd_busemann(args):
    group = serialize.parse_group(args.group)
    if not isinstance(group, groups.ZdLp):
        raise InputError("busemann compares with <x, v> and needs a Z^d group")
    try:
        center = group.check([int(c) for c in args.center.split(",")])
    except ValueError as e:
        raise InputError(f"bad center {args.center!r}: {e}") from e
    n = group.norm(center)
    if n == 0:
        raise InputError("center must differ from the identity")
    unit = tuple(c / n for c in center)
    pts = sorted(group.ball(group.identity(), args.radius, closed=True))
    values = []
    max_dev = 0.0
    for x in pts:
        b = group.busemann(center, x)
        lin = -sum(a * u for a, u in zip(x, unit))
        dev = abs(float(b) - lin)
        max_dev = max(max_dev, dev)
        values.append({"x": list(x), "busemann": float(b), "linear": lin})
    d = {"group": serialize.group_to_dict(group), "center": list(center),
         "radius": args.radius, "points": len(pts),
         "max_deviation_from_linear": max_dev,
         "deviation_bound_radius_sq_over_norm": float(args.radius ** 2) / float(n),
         "values": values}
    _emit_json(args, "busemann_report.json", d, [
        f"b_{tuple(center)} on {len(pts)} points; "
        f"max |b(x) + <x, v>| = {max_dev:.3e}"])
    return 0


def cmd_verify(args):
    if args.check == "lemma2.2":
        rep = horoballs.meeting_radius(
            groups.ZdLp(2, 2), separation.uniform_probes(args.directions))
        worst = max(n2 for _, n2 in rep.witnesses.values())
        d = {"check": "horoball-meeting-radius", "N": rep.N,
             "directions": args.directions,
             "worst_witness_norm_sq": worst}
        _emit_json(args, "verify_report.json", d,
                   [f"meeting radius N = {rep.N} over {args.directions} "
                    f"directions (verified per direction)"])
        return 0
    if args.check == "lemma2.3":
        group = groups.ZdLp(2, 2)
        ray = parse_pair(args.ray)
        n0 = horoballs.tangency_threshold(group, args.M, args.eps, ray,
                                          n_max=args.n_max)
        d = {"check": "horoball-ball-tangency", "M": args.M, "eps": args.eps,
             "ray": list(ray), "n_max": args.n_max, "n0": n0}
        _emit_json(args, "verify_report.json", d,
                   [f"tangency holds for all n in [{n0}, {args.n_max}]"
                    if n0 else f"tangency still fails at n = {args.n_max}"])
        return 0 if n0 else 3
    if args.check == "lemma2.5":
        u1, _, u2 = args.cone.partition(":")
        cone = horoballs.RationalCone(parse_pair(u1), parse_pair(u2))
        g = parse_pair(args.g)
        rep = horoballs.verify_cone_shift(cone, args.eta, g, args.r_max)
        d = {"check": "cone-translation", "cone": [list(cone.u1), list(cone.u2)],
             "eta": args.eta, "g": list(g), "r_max": args.r_max,
             "n1": rep.n1,
             "failing_radii": sorted({r for r, _ in rep.failures})}
        _emit_json(args, "verify_report.json", d,
                   [f"inclusion holds for all r in [{rep.n1}, {args.r_max}]"
                    if rep.holds else "inclusion fails at r_max"])
        return 0 if rep.holds else 3
    if args.check == "largeness":
        group = serialize.parse_group(args.group)
        hb = serialize.parse_horoball(args.horoball)
        res = horoballs.largeness_certificate(group, hb, args.R,
                                              search_bound=args.bound)
        d = {"check": "horoball-largeness", "R": args.R,
             "search_bound": args.bound, "found": res.found,
             "center": list(res.center) if res.found and
             isinstance(res.center, tuple) else None,
             "ball_size": res.ball_size}
        _emit_json(args, "verify_report.json", d, [repr(res)])
        return 0
    raise InputError(f"unknown verify check {args.check!r}")


def cmd_skew(args):
    base = subshifts.FullShiftZ((0, 1))
    spec = subshifts.SkewActionSpec(base, args.alpha, args.beta)
    hb = serialize.parse_horoball(args.horoball)
    cert = certify.skew_horoball_status(spec, hb, args.k, args.window)
    d = {"action": spec.to_dict(), "horoball": serialize.horoball_to_dict(hb),
         "certificate": cert.to_dict()}
    lines = [f"{hb!r}: {cert!r}"]
    ev = getattr(cert, "evidence", None)
    if ev:
        lines.append("exponent image stages (B, [min, max]): "
                     + "; ".join(f"{B}:{rng}" for B, rng in ev["stages"]))
    _emit_json(args, "skew_report.json", d, lines)
    return 0


def cmd_convex(args):
    vectors = _load_vectors(args.vectors)
    if args.test == "origin-test":
        cert = separation.origin_in_hull(vectors)
        d = {"test": "origin-in-hull", "vectors": vectors,
             "certificate": serialize.hull_certificate_to_dict(cert)}
        _emit_json(args, "convex_report.json", d, [repr(cert)])
        return 0
    if args.test == "coverage":
        rep = separation.halfspace_coverage(vectors,
                                            separation.uniform_probes(args.probes))
        d = {"test": "halfspace-coverage", "vectors": vectors,
             "report": serialize.coverage_report_to_dict(rep)}
        _emit_json(args, "convex_report.json", d, [repr(rep)])
        return 0
    if args.test == "intersection":
        empty, cert, witness = separation.intersection_empty(vectors)
        d = {"test": "open-halfspace-intersection", "vectors": vectors,
             "empty": empty,
             "certificate": serialize.hull_certificate_to_dict(cert),
             "common_point": list(witness) if witness else None}
        _emit_json(args, "convex_report.json", d,
                   ["intersection empty" if empty
                    else f"intersection nonempty, witness {witness}"])
        return 0
    raise InputError(f"unknown convex test {args.test!r}")


def cmd_render(args):
    if args.what == "horoball":
        group = serialize.parse_group(args.group)
        if not args.centers.startswith("ray:"):
            raise InputError("centers descriptor must be 'ray:a,b'")
        ray = parse_pair(args.centers[4:])
        center = tuple(args.t * c for c in ray)
        rows = render.ball_raster(group, center, args.window)
        path = _path(args.out, "horoball.pgm")
        render.write_pgm(path, rows)
        _log(args.out, "wrote horoball.pgm")
        print(f"raster {len(rows[0])}x{len(rows)} of ball centered at "
              f"{center}: {path}")
        return 0
    if args.what == "nd":
        text = _read(args.report, "report")
        path = _write(args.out, "direction_circle.svg",
                      render.direction_circle_svg(serialize.load_json(text)))
        _log(args.out, "wrote direction_circle.svg")
        print(f"direction circle: {path}")
        return 0
    raise InputError(f"unknown render target {args.what!r}")


# ---------------------------------------------------------------------------

def build_parser(command=None):
    """The CLI parser, with only the subcommand ``command`` when it names one:
    building them all costs more than most commands take to run."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports (analyses are "
                             "deterministic)")
    p = argparse.ArgumentParser(
        prog="horoshift",
        description="Horoball and expansivity analyses with reproducible "
                    "JSON/CSV/SVG/PGM artifacts.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    def common(sp):
        sp.add_argument("--k", type=int, required=True,
                        help="dyadic scale: epsilon = 2^-k")
        sp.add_argument("--window", type=int, required=True,
                        help="half-width N of the centered window")
        sp.add_argument("--margin", type=int, default=None)
        sp.add_argument("--budget", type=int,
                        default=subshifts.DEFAULT_FILLING_BUDGET,
                        help="most fillings of the free window the "
                             "enumeration oracle keeps (default %(default)s); "
                             "its extension walks are not budgeted")
        sp.add_argument("--method", default="auto",
                        choices=["auto", "kernel", "enumerate"])

    if command in (None, "nd"):
        sp = add_parser("nd", help="per-direction certificates over a grid")
        sp.add_argument("--system", required=True)
        sp.add_argument("--grid", default="farey:8+diag")
        common(sp)
        sp.set_defaults(func=cmd_nd)

    if command in (None, "direction"):
        sp = add_parser("direction", help="certificate for one direction")
        sp.add_argument("--system", required=True)
        sp.add_argument("--dir", required=True, help="integer pair a,b")
        common(sp)
        sp.set_defaults(func=cmd_direction)

    if command in (None, "horoball"):
        sp = add_parser("horoball", help="certificate for a horoball")
        sp.add_argument("--system", required=True)
        sp.add_argument("--horoball", required=True, help="JSON descriptor")
        common(sp)
        sp.set_defaults(func=cmd_horoball)

    if command in (None, "busemann"):
        sp = add_parser("busemann", help="Busemann values on a ball")
        sp.add_argument("--group", required=True)
        sp.add_argument("--center", required=True, help="integer vector a,b,...")
        sp.add_argument("--radius", type=int, default=10)
        sp.set_defaults(func=cmd_busemann)

    if command in (None, "verify"):
        sp = add_parser("verify", help="finite verifiers for the geometric "
                                       "statements")
        sp.add_argument("check",
                        choices=["lemma2.2", "lemma2.3", "lemma2.5", "largeness"])
        sp.add_argument("--directions", type=int, default=10000)
        sp.add_argument("--M", type=float, default=5)
        sp.add_argument("--eps", type=float, default=0.5)
        sp.add_argument("--ray", default="1,0")
        sp.add_argument("--n-max", type=int, default=100)
        sp.add_argument("--cone", default="1,-1:1,1")
        sp.add_argument("--eta", type=float, default=1.0)
        sp.add_argument("--g", default="-2,0")
        sp.add_argument("--r-max", type=int, default=50)
        sp.add_argument("--group", default="z2-l2")
        sp.add_argument("--horoball", default='{"kind":"linear","v":[1,0]}')
        sp.add_argument("--R", type=int, default=1)
        sp.add_argument("--bound", type=int, default=20)
        sp.set_defaults(func=cmd_verify)

    if command in (None, "skew"):
        sp = add_parser("skew", help="horoball certificate for a skew action")
        sp.add_argument("--alpha", type=int, default=1)
        sp.add_argument("--beta", type=int, default=-2)
        sp.add_argument("--horoball", required=True, help="JSON descriptor")
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--window", type=int, required=True)
        sp.set_defaults(func=cmd_skew)

    if command in (None, "convex"):
        sp = add_parser("convex", help="convex separation tests")
        sp.add_argument("test", choices=["origin-test", "coverage", "intersection"])
        sp.add_argument("--vectors", required=True,
                        help="JSON list, or path to a JSON list / ND report")
        sp.add_argument("--probes", type=int, default=100)
        sp.set_defaults(func=cmd_convex)

    if command in (None, "render"):
        sp = add_parser("render", help="figures: PGM rasters, SVG plots")
        sp.add_argument("what", choices=["horoball", "nd"])
        sp.add_argument("--group", default="z2-l1")
        sp.add_argument("--centers", default="ray:1,0")
        sp.add_argument("--t", type=int, default=100)
        sp.add_argument("--window", type=int, default=20)
        sp.add_argument("--report", default="nd_report.json")
        sp.set_defaults(func=cmd_render)

    if not sub.choices:  # no subcommand named: all of them
        return build_parser()
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(*argv[:1]).parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceBudgetError as e:
        print(f"budget exhausted: {e} (budget={e.budget}, count={e.count})",
              file=sys.stderr)
        try:
            _write(args.out, "partial_report.json", serialize.json_dumps(
                {"error": "budget-exhausted", "budget": e.budget,
                 "count": e.count}))
            _log(args.out, "wrote partial_report.json")
        except OSError:
            pass
        return 3


if __name__ == "__main__":
    sys.exit(main())
