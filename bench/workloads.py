"""The benchmark's workloads: CLI command lists and their output checks.

Seed 0 runs the commands verbatim.  Any other seed passes the directions of
every ``nd`` grid as an explicit ``a,b;...`` list in a seed-dependent order
and adds ``--seed``; the certificates do not depend on the order, so every
check holds for every seed.
"""

import csv
import hashlib
import io
import json
import math
import random
import re
import shlex
import xml.etree.ElementTree as ET

HARD_SQUARE = ('{"kind":"sft","alphabet":[0,1],"forbidden":'
               '[[[[0,0],1],[[1,0],1]],[[[0,0],1],[[0,1],1]]]}')
LEDRAPPIER_SUPPORT = [(0, 0), (1, 0), (0, 1)]

CONCLUSIVE = {"witness", "window-deterministic"}
EXPANSIVITY_KINDS = CONCLUSIVE | {"inconclusive"}
ND_ARTIFACTS = ("nd_report.json", "nd_report.csv", "direction_circle.svg")


class Invocation:
    """One CLI call: its argv, the artifacts it must leave, and how the
    workload seed affects it (``seeded``: an nd grid that gets permuted;
    ``reads_nd``: consumes the nd report of an earlier invocation)."""

    def __init__(self, line, artifacts, seeded=False, reads_nd=False):
        self.argv = shlex.split(line)
        self.artifacts = tuple(artifacts)
        self.seeded = seeded
        self.reads_nd = reads_nd


class Workload:
    def __init__(self, name, why, invocations, check):
        self.name, self.why = name, why
        self.invocations = invocations
        self.check = check


# ---------------------------------------------------------------------------
# mathematical references, computed here and not through horoshift

def hull_outward_normals(points):
    """Primitive outward normals of the edges of the convex hull of a finite
    set of lattice points: n is one when some line {<p, n> = c} holds at
    least two of the points and every point has <p, n> <= c."""
    pts = sorted(set(points))
    normals = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            ex, ey = q[0] - p[0], q[1] - p[1]
            g = math.gcd(ex, ey)
            for n in ((ey // g, -ex // g), (-ey // g, ex // g)):
                c = n[0] * p[0] + n[1] * p[1]
                if all(n[0] * r[0] + n[1] * r[1] <= c for r in pts):
                    normals.add(n)
    return normals


def grid_directions(descriptor):
    """The directions of a ``farey:Q[+diag]`` grid: primitive (a, b) with
    max(|a|, |b|) <= Q (the diagonal tag only relabels)."""
    q = int(descriptor[len("farey:"):].removesuffix("+diag"))
    return sorted((a, b) for a in range(-q, q + 1) for b in range(-q, q + 1)
                  if (a, b) != (0, 0) and math.gcd(a, b) == 1)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _direction(d):
    return (d["a"], d["b"])


def certificates(doc):
    """(direction or "", kind) of every certificate in an artifact: the
    expansivity certificates (witness, window-deterministic, inconclusive)
    and the convex-hull ones (in-hull, separated)."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            cert = node.get("certificate")
            if isinstance(cert, dict):
                where = node.get("direction")
                where = ("%s,%s" % (where.get("a"), where.get("b"))
                         if isinstance(where, dict) else "")
                found.append((where, cert.get("kind") or cert.get("variant")))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
    walk(doc)
    return sorted(found)


def _kinds_by_direction(docs, name="nd_report.json"):
    return {d: k for d, k in certificates(docs.get(name, {})) if d}


# ---------------------------------------------------------------------------
# checks: each returns a list of problems (empty when the output is right)

def _check_ledrappier_nd(index, docs, golden):
    kinds = _kinds_by_direction(docs)
    found = {tuple(map(int, d.split(","))) for d, k in kinds.items()
             if k == "witness"}
    want = hull_outward_normals(LEDRAPPIER_SUPPORT)
    if found != want:
        return [f"witness set {sorted(found)} != hull normals {sorted(want)}"]
    return []


def _check_hardsquare(index, docs, golden):
    problems = []
    if index == 0:
        kinds = _kinds_by_direction(docs)
        bad = sorted(d for d, k in kinds.items() if k != "witness")
        if len(kinds) != 8 or bad:
            problems.append(f"safe symbol 0: every direction must be a "
                            f"witness, not {bad} of {len(kinds)}")
    for doc in docs.values():
        for where, kind in certificates(doc):
            if kind == "window-deterministic":
                problems.append(f"{where}: deterministic contradicts the "
                                f"safe symbol")
    return problems


def _check_oracle_extend(index, docs, golden):
    certs = certificates(docs.get("direction_report.json", {}))
    if len(certs) != 1 or certs[0][0] != "1,0":
        return [f"expected one certificate for (1,0), got {certs}"]
    if certs[0][1] == "witness":
        return ["(1,0) is not a hull normal of the Ledrappier support, "
                "so it cannot be a witness"]
    return []


def _check_recorded_kinds(index, docs, golden):
    if golden is None:  # recording
        return []
    problems = []
    recorded = golden.get("kinds", {})
    for name, doc in docs.items():
        key = f"{index}/{name}"
        got = [list(c) for c in certificates(doc)]
        if key not in recorded:
            problems.append(f"{key}: no certificate kinds recorded")
        elif got != recorded[key]:
            problems.append(f"{key}: certificate kinds differ from the "
                            f"recorded ones")
    return problems


# ---------------------------------------------------------------------------

QUARTER_PLUS_X = '\'{"kind": "quarter-space", "apex": [0, 0], "opening": "+x"}\''

README_CLI = [
    Invocation("nd --system ledrappier --k 3 --window 6 --grid farey:8+diag "
               "--out out/", ND_ARTIFACTS, seeded=True),
    Invocation("direction --system ledrappier --dir 0,-1 --k 2 --window 5 "
               "--out out/", ["direction_report.json"]),
    Invocation(f"horoball --system ledrappier --horoball {QUARTER_PLUS_X} "
               "--k 2 --window 4 --out out/", ["horoball_report.json"]),
    Invocation("busemann --group z2-l2 --center 1000,0 --radius 10 --out out/",
               ["busemann_report.json"]),
    Invocation("verify lemma2.2 --directions 10000 --out out/",
               ["verify_report.json"]),
    Invocation("verify lemma2.3 --M 5 --eps 0.5 --ray 1,0 --n-max 40 "
               "--out out/", ["verify_report.json"]),
    Invocation("verify lemma2.5 --cone 1,-1:1,1 --eta 1 --g=-2,0 --r-max 50 "
               "--out out/", ["verify_report.json"]),
    Invocation(f"verify largeness --group z2-l1 --horoball {QUARTER_PLUS_X} "
               "--R 3 --bound 20 --out out/", ["verify_report.json"]),
    Invocation("skew --alpha 1 --beta=-2 --horoball "
               '\'{"kind": "quarter-space", "apex": [2, 2], "opening": "-y"}\' '
               "--k 1 --window 4 --out out/", ["skew_report.json"]),
    Invocation("convex origin-test --vectors out/nd_report.json --out out/",
               ["convex_report.json"], reads_nd=True),
    Invocation("convex coverage --probes 100 "
               "--vectors '[[0,-1],[-1,0],[\"sqrt-normalized\",1,1]]' "
               "--out out/", ["convex_report.json"]),
    Invocation("convex intersection --vectors out/nd_report.json --out out/",
               ["convex_report.json"], reads_nd=True),
    Invocation("render horoball --group z2-l1 --centers ray:1,0 --t 100 "
               "--window 20 --out out/", ["horoball.pgm"]),
    Invocation("render nd --report out/nd_report.json --out out/",
               ["direction_circle.svg"], reads_nd=True),
]

WORKLOADS = {w.name: w for w in [
    Workload(
        "ledrappier-nd",
        "GF(2) kernel path: 176 constrained solves over two kernel builds "
        "plus the dilated traces",
        [Invocation("nd --system ledrappier --k 3 --window 18 "
                    "--grid farey:8+diag", ND_ARTIFACTS, seeded=True)],
        _check_ledrappier_nd),
    Workload(
        "hardsquare",
        "free filling enumeration repeated per direction, then a filling "
        "budget that runs out",
        [Invocation(f"nd --system '{HARD_SQUARE}' --k 1 --window 2 "
                    "--grid farey:1", ND_ARTIFACTS, seeded=True),
         Invocation(f"direction --system '{HARD_SQUARE}' --dir 1,0 --k 1 "
                    "--window 3", ["direction_report.json"])],
        _check_hardsquare),
    Workload(
        "oracle-extend",
        "enumeration oracle: 1,664 clamped extension searches, half of "
        "which find no filling",
        [Invocation(f"direction --system ledrappier --dir 1,0 "
                    f"--method enumerate --window 2 --k {k}",
                    ["direction_report.json"]) for k in (1, 2)],
        _check_oracle_extend),
    Workload(
        "readme-cli",
        "the README's 14 CLI commands; the only workload reaching groups, "
        "horoballs, separation, render and skew",
        README_CLI,
        _check_recorded_kinds),
]}


def argv_for(inv, seed):
    """The invocation's argv under a workload seed."""
    if not inv.seeded or seed == 0:
        return list(inv.argv)
    argv = list(inv.argv)
    at = argv.index("--grid")
    dirs = grid_directions(argv[at + 1])
    random.Random(seed).shuffle(dirs)
    argv[at:at + 2] = ["--grid=" + ";".join("%d,%d" % d for d in dirs)]
    return argv + ["--seed", str(seed)]


# ---------------------------------------------------------------------------
# artifact parsing and seed-independent digests

def parse_artifact(name, data):
    """Parsed JSON for .json files; for the other formats a structural check
    only.  Raises ValueError when the bytes do not parse."""
    if name.endswith(".json"):
        return json.loads(data)
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged or empty CSV")
        return None
    if name.endswith(".svg"):
        try:
            ET.fromstring(data)
        except ET.ParseError as e:
            raise ValueError(f"SVG: {e}") from e
        return None
    if name.endswith(".pgm"):
        head = data.split(b"\n", 3)
        if len(head) != 4 or head[0] != b"P5" or head[2] != b"255":
            raise ValueError("not a binary PGM")
        w, h = map(int, head[1].split())
        if len(head[3]) != w * h:
            raise ValueError("PGM size mismatch")
        return None
    raise ValueError(f"unknown artifact type {name}")


_LABEL = re.compile(r"/\|\(-?\d+,-?\d+\)\|")


def canonical(name, data):
    """Bytes of an nd artifact with the grid order, the grid descriptor, the
    seed and the direction labels taken out: what an explicit permuted grid
    must reproduce.  None for artifacts without a seed-independent form."""
    try:
        return _canonical(name, data)
    except (KeyError, TypeError, AttributeError, ValueError):
        return b"no canonical form: the artifact's layout changed"


def _canonical(name, data):
    if name == "nd_report.json":
        doc = json.loads(data)
        doc["metadata"].pop("grid", None)
        doc["metadata"].pop("seed", None)
        for e in doc["entries"]:
            e["direction"].pop("label", None)
        doc["entries"].sort(key=lambda e: _direction(e["direction"]))
        doc["witness_directions"] = sorted(
            _direction(d) for d in doc["witness_directions"])
        return json.dumps(doc, sort_keys=True).encode()
    if name == "nd_report.csv":
        head, *rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        rows = sorted([r[:2] + r[3:] for r in rows])
        return json.dumps([head[:2] + head[3:]] + rows).encode()
    if name == "direction_circle.svg":
        return "\n".join(sorted(_LABEL.sub("", data.decode("utf-8"))
                                .splitlines())).encode()
    return None
