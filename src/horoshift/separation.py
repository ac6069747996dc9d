"""Convex separation on finite vector sets: the Gordan dichotomy.

For nonzero vectors V exactly one of the following holds and a verified
certificate is produced either way:

* InHull -- convex coefficients lambda >= 0, sum 1, with sum lambda_i v_i
  = 0 (the origin lies in the convex hull);
* Separated -- a vector c with <v, c> > 0 for every v in V.

The planar case runs on exact arithmetic.  Vectors may be given as number
tuples or as symbolic ("sqrt-normalized", a, b), meaning (a, b)/|(a, b)|;
sign tests are scale-invariant so the integer data suffices for them,
while convex coefficients pick up the normalization factor.
"""

import functools
import math
from fractions import Fraction

from .errors import InputError
from .subshifts import _integer

_TOL = 1e-9


class _Vec:
    """Input vector: exact integer/Fraction data plus the actual floats."""

    __slots__ = ("exact", "scale", "actual", "is_exact")

    def __init__(self, desc):
        try:
            self._parse(desc)
        except InputError:
            raise
        except (TypeError, ValueError) as e:
            raise InputError(f"a vector must be numbers, got {desc!r}") from e

    def _parse(self, desc):
        if (isinstance(desc, (tuple, list)) and desc
                and desc[0] == "sqrt-normalized"):
            ints = tuple(_integer(c, "a symbolic component") for c in desc[1:])
            if all(c == 0 for c in ints):
                raise InputError("zero symbolic vector")
            self.exact = ints
            n = math.sqrt(sum(c * c for c in ints))
            self.scale = 1.0 / n          # actual = exact * scale
            self.actual = tuple(c / n for c in ints)
            self.is_exact = True
            return
        comps = tuple(desc)
        if not all(type(c) is not bool and isinstance(c, (int, float, Fraction))
                   for c in comps):
            raise InputError(f"a vector must be numbers, got {desc!r}")
        # a finite float is a dyadic rational, so it is read exactly too
        if all(isinstance(c, (int, Fraction)) or math.isfinite(c)
               for c in comps):
            fr = tuple(Fraction(c) for c in comps)
            den = math.lcm(*(f.denominator for f in fr)) if fr else 1
            self.exact = tuple(int(f * den) for f in fr)
            self.scale = Fraction(1, den)
            self.actual = tuple(float(f) for f in fr)
            self.is_exact = True
        else:
            self.exact = None
            self.scale = 1.0
            self.actual = tuple(float(c) for c in comps)
            self.is_exact = False

    @property
    def dim(self):
        return len(self.actual)

    def primitive(self):
        """(primitive integer direction, magnitude) with
        actual = magnitude * primitive; exact vectors only, nonzero."""
        g = math.gcd(*self.exact)
        return tuple(c // g for c in self.exact), g * self.scale


class HullCertificate:
    """Outcome of the Gordan dichotomy, re-verified by substitution."""

    def __init__(self, variant, coefficients=None, separator=None,
                 residual=None):
        self.variant = variant            # "in-hull" | "separated"
        self.coefficients = coefficients  # aligned with the input list
        self.separator = separator
        self.residual = residual

    def __repr__(self):
        if self.variant == "in-hull":
            return f"HullCertificate(in-hull, lambda={self.coefficients})"
        return f"HullCertificate(separated, c={self.separator})"


def _verify_in_hull(vecs, coeffs):
    if any(c < -_TOL for c in coeffs):
        return None
    total = sum(coeffs)
    if abs(float(total) - 1.0) > _TOL:
        return None
    d = vecs[0].dim
    resid = [sum(c * v.actual[i] for c, v in zip(coeffs, vecs))
             for i in range(d)]
    r = math.sqrt(sum(x * x for x in resid))
    return r if r <= _TOL else None


def _verify_separated(vecs, c):
    for v in vecs:
        if v.is_exact and all(isinstance(ci, int) for ci in c):
            if sum(a * b for a, b in zip(v.exact, c)) <= 0:
                return False
        else:
            dot = sum(a * float(b) for a, b in zip(v.actual, c))
            scale = math.sqrt(sum(float(b) ** 2 for b in c)) or 1.0
            if dot <= _TOL * scale:
                return False
    return True


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _ccw_cmp(u, w):
    """Exact counterclockwise order of nonzero integer directions from
    (1, 0): by half-turn, then by the sign of the cross product."""
    hu = u[1] < 0 or (u[1] == 0 and u[0] < 0)
    hw = w[1] < 0 or (w[1] == 0 and w[0] < 0)
    if hu != hw:
        return hu - hw
    cross = _cross(u, w)
    return (cross < 0) - (cross > 0)


# a comparator: a Fraction-valued key sorts about three times slower
_ccw_key = functools.cmp_to_key(_ccw_cmp)


def _exact_2d(vecs):
    # zero vector: origin is that vector
    for i, v in enumerate(vecs):
        if all(c == 0 for c in v.exact):
            coeffs = [Fraction(0)] * len(vecs)
            coeffs[i] = Fraction(1)
            return HullCertificate("in-hull", coefficients=coeffs, residual=0.0)
    prims = []
    for v in vecs:
        prim, mag = v.primitive()
        prims.append((prim, mag))
    # counterclockwise angular order of the distinct directions
    distinct = sorted({p for p, _ in prims}, key=_ccw_key)
    n = len(distinct)
    # Separated iff some counterclockwise gap exceeds pi
    if n == 1:
        gap_found = distinct[0]  # everything on one ray
        c = gap_found
        if _verify_separated(vecs, c):
            return HullCertificate("separated", separator=c)
    else:
        for i in range(n):
            u, w = distinct[i], distinct[(i + 1) % n]
            # the ccw gap from u to its cyclic successor w exceeds pi
            # exactly when w sits strictly clockwise of u
            if _cross(u, w) < 0:
                # all directions live in the ccw arc from w to u, of width
                # < pi; rot90ccw(w) + rot90cw(u) points into its dual cone
                c = (-w[1] + u[1], w[0] - u[0])
                if _verify_separated(vecs, c):
                    return HullCertificate("separated", separator=c)
    # in-hull: find a vanishing positive combination of <= 3 directions
    coeffs = _positive_combination(prims)
    if coeffs is None:
        raise InputError("Gordan dichotomy failed; inconsistent input")
    # convert direction weights to input-vector coefficients
    lam = [c / mag for c, (_, mag) in zip(coeffs, prims)]
    total = sum(lam)
    lam = [c / total for c in lam]
    resid = _verify_in_hull(vecs, lam)
    if resid is None:
        raise InputError("in-hull certificate failed re-verification")
    return HullCertificate("in-hull", coefficients=lam, residual=resid)


def _positive_combination(prims):
    """Nonnegative, not-all-zero weights on the primitive directions with
    sum w_i prim_i = 0; at most three nonzero entries (Caratheodory)."""
    n = len(prims)
    dirs = [p for p, _ in prims]
    # opposite pair
    for i in range(n):
        for j in range(i + 1, n):
            if dirs[i][0] == -dirs[j][0] and dirs[i][1] == -dirs[j][1]:
                w = [Fraction(0)] * n
                w[i] = w[j] = Fraction(1)
                return w
    # triple positively spanning the plane
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                u, v, t = dirs[i], dirs[j], dirs[l]
                det = _cross(v, t)
                if det == 0:
                    continue
                # solve b*v + c*t = -u
                b = Fraction(_cross((-u[0], -u[1]), t), det)
                c = Fraction(_cross(v, (-u[0], -u[1])), det)
                if b > 0 and c > 0:
                    w = [Fraction(0)] * n
                    w[i], w[j], w[l] = Fraction(1), b, c
                    return w
    return None


def _numeric(vecs):
    import numpy as np
    from scipy.optimize import linprog, nnls

    A = np.array([v.actual for v in vecs], dtype=float).T
    d, n = A.shape
    # nonnegative least squares on [vectors; ones] lambda = (0,...,0,1)
    M = np.vstack([A, np.ones((1, n))])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    lam, resid = nnls(M, b)
    if resid <= _TOL:
        coeffs = [float(x) for x in lam]
        if _verify_in_hull(vecs, coeffs) is not None:
            return HullCertificate("in-hull", coefficients=coeffs,
                                   residual=float(resid))
    # separator: feasibility of <v_i, c> >= 1
    res = linprog(c=np.zeros(d), A_ub=-A.T, b_ub=-np.ones(n),
                  bounds=[(None, None)] * d, method="highs")
    if res.status == 0:
        c = tuple(float(x) for x in res.x)
        if _verify_separated(vecs, c):
            return HullCertificate("separated", separator=c)
    raise InputError("Gordan dichotomy failed numerically; "
                     "input may be degenerate at tolerance")


def origin_in_hull(vectors):
    """Verified Gordan dichotomy certificate for a finite vector set."""
    vecs = [v if isinstance(v, _Vec) else _Vec(v) for v in vectors]
    if not vecs:
        raise InputError("empty vector set")
    d = vecs[0].dim
    if any(v.dim != d for v in vecs):
        raise InputError("mixed dimensions")
    if d == 2 and all(v.is_exact for v in vecs):
        return _exact_2d(vecs)
    return _numeric(vecs)


class CoverageReport:
    def __init__(self, covered, probe_results, max_gap_degrees=None):
        self.covered = covered
        self.probe_results = probe_results  # list of (probe, passed)
        self.max_gap_degrees = max_gap_degrees

    def failing_probes(self):
        return [p for p, ok in self.probe_results if not ok]

    def __repr__(self):
        return (f"CoverageReport(covered={self.covered}, "
                f"max_gap={self.max_gap_degrees})")


def uniform_probes(n):
    """n >= 1 unit probe directions uniformly spaced on the circle."""
    if (n := _integer(n, "the probe count")) < 1:
        raise InputError(f"need at least one probe direction, got {n}")
    return [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
            for i in range(n)]


def halfspace_coverage(vectors, probes):
    """Does every closed half-space {x : <x, c> >= 0} contain some vector?

    Checked over the given probes c; in the plane the maximal angular gap
    between consecutive vectors is also reported (coverage holds exactly
    when the gap does not exceed pi -- a gap of exactly pi is still
    covered since the half-spaces are closed).
    """
    vecs = [v if isinstance(v, _Vec) else _Vec(v) for v in vectors]
    if not vecs:
        raise InputError("empty vector set")
    results = []
    for c in probes:
        if all(abs(float(x)) < 1e-300 for x in c):
            raise InputError("probe directions must be nonzero")
        ok = any(sum(a * float(b) for a, b in zip(v.actual, c)) >= -_TOL
                 for v in vecs)
        results.append((tuple(float(x) for x in c), ok))
    covered = all(ok for _, ok in results)
    max_gap = None
    if vecs[0].dim == 2:
        angles = sorted({math.atan2(v.actual[1], v.actual[0]) for v in vecs})
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2 * math.pi - angles[-1])
        max_gap = math.degrees(max(gaps))
    return CoverageReport(covered, results, max_gap_degrees=max_gap)


def intersection_empty(vectors):
    """Is the intersection of the open half-spaces {y : <y, v> < 0} empty?

    Empty exactly when the origin lies in the convex hull (Gordan); in the
    separated case -c is a common point of all the half-spaces.
    """
    cert = origin_in_hull(vectors)
    if cert.variant == "in-hull":
        return True, cert, None
    witness = tuple(-c for c in cert.separator)
    return False, cert, witness
