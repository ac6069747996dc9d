"""Horofunctions and horoballs.

Three representations:

* ``Linear`` -- the l2 horofunctions on Z^d, x -> <x, v> for a unit vector
  v.  When v is proportional to an integer vector, sign queries (and hence
  horoball membership) are exact integer arithmetic.
* ``PolyhedralZ2`` -- the l1 horofunctions on Z^2: two half-planes per
  diagonal border line, and quarter spaces whose apex slides along a
  boundary ray of the cone.  Values are exact integers.
* ``Sampled`` -- a truncated limit b_{g_n} along an explicit generating
  sequence.  Evaluation reports the value at the truncation index together
  with a stabilization span; it never claims convergence.

The horoball of a horofunction j is the strict sublevel set {j < 0}.
"""

from fractions import Fraction
from itertools import chain
import math

from .errors import InputError, ResourceBudgetError
from .groups import DEFAULT_BALL_BUDGET, ZdLp, _as_fraction
from .separation import _cross
from .subshifts import _integer, _site

# sample indices of a truncated limit (see ``Sampled``)
_SAMPLES = 48


def _gcd_reduce(vec):
    g = math.gcd(*vec)
    if g == 0:
        return None
    return tuple(c // g for c in vec)


class Linear:
    """l2 horofunction x -> <x, v> on Z^d, v the outgoing unit normal."""

    kind = "linear"

    def __init__(self, v):
        v = tuple(v)
        if not any(v):
            raise InputError("direction vector must be nonzero")
        # small denominators (integers too) are exact; else, scaled by the
        # largest, each lies a few ulps off a fraction of denominator <= 10**6
        exact = fracs = [Fraction(c) for c in v]
        if any(f.denominator > 10 ** 9 for f in exact):
            top = max(map(abs, exact))
            exact = [f / top for f in exact]
            fracs = [f.limit_denominator(10 ** 6) for f in exact]
        if all(abs(g - f) <= 2 ** -50 * abs(f) for g, f in zip(fracs, exact)):
            den = math.lcm(*(f.denominator for f in fracs))
            self.int_dir = _gcd_reduce(tuple(int(f * den) for f in fracs))
        else:
            self.int_dir = None
        nrm = math.hypot(*map(float, v))
        self.v = tuple(float(c) / nrm for c in v)
        self.dim = len(v)

    def __repr__(self):
        return f"Linear({self.v})"

    def value(self, x):
        return sum(a * b for a, b in zip(x, self.v))

    def sign(self, x):
        """Exact sign of j(x) when the direction is rational, float otherwise."""
        if self.int_dir is not None:
            s = sum(a * b for a, b in zip(x, self.int_dir))
            return (s > 0) - (s < 0)
        s = self.value(x)
        return (s > 0) - (s < 0)

    def halfplane_normal(self):
        return self.int_dir if self.dim == 2 else None


# quarter-space opening -> (axis it opens along, sign of that axis)
_OPENING_AXES = {"+x": (0, 1), "-x": (0, -1), "+y": (1, 1), "-y": (1, -1)}


class PolyhedralZ2:
    """An l1 horofunction of Z^2, with exact integer values.

    kind "halfplane-diagonal"      j = side * (x - y)       H = {side*(x-y) < 0}
    kind "halfplane-antidiagonal"  j = side * (x + y)
    kind "quarter-space"           j = |t - b| - s*(opening axis), apex (a, b)

    Quarter spaces open along one of the four axis directions; an apex
    (a, b) describes a genuine horofunction (j vanishing at the identity)
    exactly when it lies on a boundary ray of the cone, e.g. a = -|b| for
    an +x opening.  Arbitrary apexes are allowed so that set translates can
    be represented; ``is_horofunction`` tells them apart.
    """

    kind = "polyhedral-z2"
    dim = 2
    OPENINGS = tuple(_OPENING_AXES)

    def __init__(self, shape, apex=(0, 0), side=None, opening=None):
        if shape not in ("halfplane-diagonal", "halfplane-antidiagonal", "quarter-space"):
            raise InputError(f"unknown polyhedral shape {shape!r}")
        self.shape = shape
        self.apex = _site(apex)
        if shape == "quarter-space":
            if opening not in self.OPENINGS:
                raise InputError(f"quarter-space needs opening in {self.OPENINGS}")
            self.opening = opening
            self.side = None
        else:
            if side not in (1, -1):
                raise InputError("half-plane needs side +1 or -1")
            self.side = side
            self.opening = None

    def __repr__(self):
        if self.shape == "quarter-space":
            return f"PolyhedralZ2({self.shape!r}, apex={self.apex}, opening={self.opening!r})"
        return f"PolyhedralZ2({self.shape!r}, side={self.side})"

    def value(self, p):
        x, y = _site(p)
        if self.opening is None:
            a, b = self.halfplane_normal()
            return a * x + b * y
        axis, s = _OPENING_AXES[self.opening]
        d = (x - self.apex[0], y - self.apex[1])
        return abs(d[1 - axis]) - s * d[axis]

    def sign(self, p):
        v = self.value(p)
        return (v > 0) - (v < 0)

    def columns(self, B):
        """A quarter space's horoball on [-B, B]^2 as the range of its y at
        each x of [-B, B]: s*(y - b) > |x - a| when it opens along +-y, and
        |y - b| < s*(x - a) along +-x."""
        (a, b), (axis, s) = self.apex, _OPENING_AXES[self.opening]
        xs = range(-B, B + 1)
        if axis == 0:
            return [range(max(-B, b - s * (x - a) + 1),
                          min(B, b + s * (x - a) - 1) + 1) for x in xs]
        if s > 0:
            return [range(max(-B, b + abs(x - a) + 1), B + 1) for x in xs]
        return [range(-B, min(B, b - abs(x - a) - 1) + 1) for x in xs]

    def halfplane_normal(self):
        if self.shape == "halfplane-diagonal":
            return (self.side, -self.side)
        if self.shape == "halfplane-antidiagonal":
            return (self.side, self.side)
        return None

    @property
    def is_horofunction(self):
        return self.value((0, 0)) == 0

    def translate(self, g):
        """The set translate H + g, as a polyhedral descriptor."""
        if self.shape == "quarter-space":
            return PolyhedralZ2(self.shape,
                                apex=(self.apex[0] + g[0], self.apex[1] + g[1]),
                                opening=self.opening)
        # translating a half-plane along its border is the identity; across
        # the border it is no longer a horoball, so refuse silently shifting
        a, b = self.halfplane_normal()
        if a * g[0] + b * g[1] != 0:
            raise InputError("translating a half-plane off its border line "
                             "does not yield an l1 horoball")
        return self


class Sampled:
    """Truncated-limit horofunction along an explicit generating sequence.

    ``gen`` maps n >= 1 to a group element; ``n_star`` is the truncation
    index.  Evaluations return the value of b_{g_{n*}} together with a
    stabilization span, the max-min of the sampled values over the last
    quarter of the sample indices.  ``ray`` is set for the l1 horoballs of
    ``sampled_l1_horoball_z2`` (g_n = n * ray), so they can be described again.
    """

    kind = "sampled"

    def __init__(self, group, gen, n_star, ray=None):
        if (n_star := _integer(n_star, "truncation index")) < 1:
            raise InputError(f"truncation index must be >= 1, got {n_star}")
        self.group = group
        self.dim = getattr(group, "dim", None)
        self.ray = ray
        self.gen = gen
        self.n_star = n_star
        # log-spaced sample indices ending at the truncation index
        pts = sorted({max(1, round(n_star ** (k / (_SAMPLES - 1))))
                      for k in range(_SAMPLES)} | {n_star})
        self.sample_indices = pts

    def __repr__(self):
        return f"Sampled({self.group!r}, ray={self.ray}, n_star={self.n_star})"

    def value_with_span(self, x):
        vals = [self.group.busemann(self.gen(n), x) for n in self.sample_indices]
        tail = vals[-max(1, len(vals) // 4):]
        span = max(tail) - min(tail)
        return vals[-1], span

    def value(self, x):
        return self.group.busemann(self.gen(self.n_star), x)

    def sign(self, x):
        v = self.value(x)
        return (v > 0) - (v < 0)

    def halfplane_normal(self):
        return None


class Horoball:
    """Strict sublevel set {j < 0} of a horofunction."""

    def __init__(self, horofunction):
        self.j = horofunction

    def __repr__(self):
        return f"Horoball({self.j!r})"

    def contains(self, x):
        return self.j.sign(x) < 0

    def halfplane_normal(self):
        """Primitive outward normal (a, b) when the horoball is an exact
        half-plane of Z^2, else None."""
        return self.j.halfplane_normal()


def _check_dim(horoball, d):
    """Refuse a horoball of Z^e, e != d, whose sign test would zip points
    of Z^d short; d is None for a group that is no Z^d."""
    e = getattr(getattr(horoball, "j", None), "dim", d)
    if e != d:
        space = f"Z^{d}" if d is not None else "this group, which is not a Z^d"
        raise InputError(f"{horoball!r} is not a horoball of {space}")


def l2_horoball(v):
    """The open half-space horoball {x : <x, v> < 0} with outgoing normal v."""
    return Horoball(Linear(v))


def sampled_l1_horoball_z2(ray, n_star=512):
    """Truncated l1 horoball of Z^2 generated by centers t * ray."""
    ray = _site(ray)
    if ray == (0, 0):
        raise InputError("ray must be nonzero")
    group = ZdLp(2, 1)
    return Horoball(Sampled(group, lambda n: (n * ray[0], n * ray[1]), n_star,
                            ray=ray))


def polyhedral_from_ray(ray):
    """Exact l1 horofunction obtained as the limit of balls centered on t*ray.

    A ray inside a quadrant, with signs (sx, sy), gives the half-plane
    {sx*x + sy*y > 0}; a ray on an axis, the quarter space opening along it.
    """
    sx, sy = ((c > 0) - (c < 0) for c in _site(ray))
    if (sx, sy) == (0, 0):
        raise InputError("ray must be nonzero")
    if sx and sy:
        # outward normal (-sx, -sy): (side, side) or (side, -side)
        shape = "halfplane-antidiagonal" if sx == sy else "halfplane-diagonal"
        return PolyhedralZ2(shape, side=-sx)
    along = (int(sx == 0), sx + sy)
    return PolyhedralZ2("quarter-space", opening=next(
        o for o, axis in _OPENING_AXES.items() if axis == along))


class LargenessResult:
    """Outcome of a search for a radius-R ball inside a horoball."""

    def __init__(self, found, center=None, radius=None, search_bound=None,
                 ball_size=None):
        self.found = found
        self.center = center
        self.radius = radius
        self.search_bound = search_bound
        self.ball_size = ball_size

    def __repr__(self):
        if self.found:
            return f"LargenessResult(center={self.center!r}, radius={self.radius})"
        return f"LargenessResult(not found within bound {self.search_bound})"


def largeness_certificate(group, horoball, R, search_bound):
    """Search for g with j(g) < -4R, then certify B_R(g) inside the horoball.

    Follows the large-horoball argument: a point deep enough below level 0
    carries a whole ball inside {j < 0}; the returned center is re-verified
    by exact enumeration.  Exhausting the search bound is NOT evidence of
    smallness; it is reported as a bounded-search failure.
    """
    if R <= 0:
        raise InputError(f"R must be > 0, got {R}")
    _check_dim(horoball, getattr(group, "dim", None))
    candidates = group.ball(group.identity(), search_bound, closed=True)
    ordered = sorted(candidates, key=lambda g: (group.norm_exact(g), repr(g)))
    j = horoball.j
    for g in ordered:
        if j.value(g) < -4 * R:
            ball = group.ball(g, R, closed=False)
            if all(horoball.contains(x) for x in ball):
                return LargenessResult(True, center=g, radius=R,
                                       search_bound=search_bound,
                                       ball_size=len(ball))
    return LargenessResult(False, search_bound=search_bound, radius=R)


class MeetingRadiusReport:
    def __init__(self, N, witnesses):
        self.N = N
        self.witnesses = witnesses  # direction -> (lattice point, squared norm)


def meeting_radius(group, directions):
    """Smallest integer N with H_v meeting the open ball B_N(0) for every v.

    Works for ZdLp l2 instances.  For each direction the witness is the
    minimum-norm lattice point with <p, v> < 0; N is the smallest integer
    exceeding every witness norm.  Every nonzero v has some +-e_i with
    <+-e_i, v> < 0, so the witnesses come from the closed unit ball: the
    first of its points in sorted order with a negative product, found
    from the exact signs of the components of v in one pass over the
    direction matrix.
    """
    # numpy is imported on use: a module-level import would load it ahead of
    # the rest of the package, which raises every command's peak RSS by
    # about 0.2 MB
    import numpy as np

    if not isinstance(group, ZdLp) or group.p != 2:
        raise InputError("meeting_radius expects a ZdLp l2 group")
    d = group.dim
    dirs = [tuple(v) for v in directions]
    for v in dirs:
        if len(v) != d:
            raise InputError(f"direction {v} has dimension {len(v)}, "
                             f"group has {d}")
    # the unit ball's points other than 0 in sorted order: -e_0, ..., -e_{d-1},
    # e_{d-1}, ..., e_0; <-e_i, v> < 0 exactly when v_i > 0, and <e_i, v> < 0
    # exactly when v_i < 0
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    candidates = [tuple(-c for c in u) for u in units] + units[::-1]
    # object dtype: Python comparisons keep the signs of ints, floats and
    # Fractions exact; fromiter builds no temporaries
    V = np.fromiter(chain.from_iterable(dirs), dtype=object,
                    count=len(dirs) * d).reshape(len(dirs), d)
    negative = np.concatenate([V > 0, (V < 0)[:, ::-1]], axis=1)
    has_witness = negative.any(axis=1)
    if not has_witness.all():
        v = dirs[int(np.argmin(has_witness))]
        raise InputError(f"no witness among unit vectors for {v}")
    first = negative.argmax(axis=1).tolist()
    # one (point, squared norm) tuple per distinct witness, shared by its
    # directions rather than built once per direction
    pairs = {k: (candidates[k], group.norm_exact(candidates[k]))
             for k in set(first)}
    witnesses = {v: pairs[k] for v, k in zip(dirs, first)}
    N = math.isqrt(max((n2 for _, n2 in pairs.values()), default=0)) + 1
    return MeetingRadiusReport(N, witnesses)


def _lt_sqrt_plus(a2, b2, p, q):
    """Exact test sqrt(a2) < sqrt(b2) + p/q for integers a2, b2 and p, q > 0:
    with L = (a2 - b2) q^2 - p^2, L < 0 or L^2 < 4 p^2 q^2 b2."""
    L = (a2 - b2) * q * q - p * p
    return L < 0 or L * L < 4 * p * p * q * q * b2


class TangencyCheck:
    def __init__(self, passed, offending=None):
        self.passed = passed
        self.offending = offending


def _tangency_check(group, M, eps):
    """``verify_tangency``'s check as a function of a nonzero g: the first
    offending point of the sorted cap, or None.  The radius-M ball is built
    and sorted once, for every g checked."""
    if not isinstance(group, ZdLp) or group.p != 2:
        raise InputError("verify_tangency expects a ZdLp l2 group")
    eps = _as_fraction(eps)
    if eps <= 0:
        raise InputError(f"eps must be > 0, got {eps}")
    ball = sorted(group.ball(group.identity(), M, closed=True))
    num, den = eps.numerator, eps.denominator

    def offending(g):
        g2 = group.norm_exact(g)
        return next((p for p in ball if sum(a * b for a, b in zip(p, g)) <= 0
                     and not _lt_sqrt_plus(group.norm_exact(group.op(p, g)),
                                           g2, num, den)), None)
    return offending


def verify_tangency(group, M, eps, g):
    """Check that the closed horoball cap of radius M, translated by g,
    stays within eps of the ball of radius d(g, 1).

    The cap is that of the l2 horoball {<x, g> < 0}: the check runs over
    lattice points p with |p| <= M and <p, g> <= 0, requiring
    |p + g| < |g| + eps, all in exact arithmetic.
    """
    offending = _tangency_check(group, M, eps)
    g = group.check(g)
    if all(c == 0 for c in g):
        return TangencyCheck(False)
    p = offending(g)
    return TangencyCheck(p is None, offending=p)


def tangency_threshold(group, M, eps, ray, n_max=100):
    """Smallest n0 such that verify_tangency passes for all n in [n0, n_max]
    along g = n * ray.  Returns None if it still fails at n_max."""
    if (n_max := _integer(n_max, "n_max")) < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    ray = group.check(ray)
    if not any(ray):
        raise InputError("ray must be nonzero")
    offending = _tangency_check(group, M, eps)
    # searched downward, so only the largest failing n is ever checked
    failing = (n for n in range(n_max, 0, -1)
               if offending(tuple(n * c for c in ray)) is not None)
    return _threshold(next(failing, 0), n_max)


def _threshold(last_failure, top):
    """One past the largest failing index, or None when past ``top``."""
    return last_failure + 1 if last_failure < top else None


class RationalCone:
    """Cone in Z^2 spanned counterclockwise from u1 to u2 (angle <= pi).

    Membership of lattice points is strict (boundary rays excluded) unless
    ``closed`` is set.  The angle must be positive: u2 strictly
    counterclockwise of u1, or a negative multiple of u1 for a half-plane.
    """

    def __init__(self, u1, u2, closed=False):
        self.u1, self.u2 = _site(u1), _site(u2)
        if self.u1 == (0, 0) or self.u2 == (0, 0):
            raise InputError("cone directions must be nonzero")
        turn = _cross(self.u1, self.u2)
        if turn < 0:
            raise InputError(f"cone from {self.u1} to {self.u2} turns "
                             "clockwise (angle above pi)")
        if turn == 0 and self.u1[0] * self.u2[0] + self.u1[1] * self.u2[1] > 0:
            raise InputError(f"cone directions {self.u1} and {self.u2} lie on "
                             "one ray (angle 0)")
        self.closed = closed

    def __repr__(self):
        return f"RationalCone({self.u1}, {self.u2}, closed={self.closed})"

    def mask(self, x, y):
        """Membership of (x, y), for ints or integer arrays alike.

        The point must be counterclockwise of u1 and clockwise of u2 (or on
        those rays when closed), and not the origin.  For a half-plane,
        u2 = -k u1 with k > 0 makes the second cross product k times the
        first, so the same two sign tests give the side of the line.
        """
        c1 = _cross(self.u1, (x, y))
        c2 = _cross((x, y), self.u2)
        if self.closed:
            side = (c1 >= 0) & (c2 >= 0)
        else:
            side = (c1 > 0) & (c2 > 0)
        return side & ((x != 0) | (y != 0))

    def contains(self, p):
        return self.mask(*_site(p))


class ConeShiftReport:
    def __init__(self, n1, r_max, failures):
        self.n1 = n1
        self.r_max = r_max
        self.failures = failures  # list of (r, offending point)

    @property
    def holds(self):
        return self.n1 is not None


def verify_cone_shift(cone, eta, g, r_max):
    """Exhaustive check of [G0 /\\ B_{r+eta}(0)] + g within B_r(0), r = 1..r_max.

    Precondition (checked first, exactly): every horofunction coming from
    sequences inside the cone takes a value < -eta at -g; over the l2
    boundary these are x -> <x, -u> for unit u in the closed arc, so the
    test reduces to <g, u> < -eta |u| at the extreme directions, plus
    rejecting g whose own direction lies inside the arc.

    The radii are checked by one scan of the box [-R, R]^2, R = ceil(r_max
    + eta): cone membership, n2 = |p|^2 and s2 = |p + g|^2 are integer
    arrays, and p fails at radius r when it is in the cone, n2 < T_r and
    s2 >= r^2.  T_r = ceil((r + eta)^2) is computed exactly, and for an
    integer n2, n2 < (r + eta)^2 exactly when n2 < T_r, so the test is
    exact for any rational or float eta.  The reported point of radius r
    is the first failing cell in C order of the "ij" grid, x-major, then
    y: the raster order of the box [-ceil(r + eta), ceil(r + eta)]^2,
    which holds every cell with n2 < (r + eta)^2.  A box of more than
    ``groups.DEFAULT_BALL_BUDGET`` cells is refused before it is built.
    """
    eta = _as_fraction(eta)
    if eta <= 0:
        raise InputError(f"eta must be > 0, got {eta}")
    if (r_max := _integer(r_max, "r_max")) < 1:
        raise InputError(f"r_max must be >= 1, got {r_max}")
    g = _site(g)
    if RationalCone(cone.u1, cone.u2, closed=True).mask(*g):
        raise InputError(f"direction of g={g} lies inside the cone arc; "
                         "horofunction value would be positive")
    for u in (cone.u1, cone.u2):
        dot = g[0] * u[0] + g[1] * u[1]
        u2 = u[0] * u[0] + u[1] * u[1]
        # need dot < -eta * sqrt(u2)
        if not (dot < 0 and Fraction(dot) ** 2 > eta * eta * u2):
            raise InputError(
                f"precondition fails at extreme direction {u}: "
                f"<g, u> = {dot} is not below -eta|u|")
    failures = _cone_shift_failures(cone, eta, g, r_max)
    return ConeShiftReport(_threshold(max((r for r, _ in failures), default=0),
                                      r_max), r_max, failures)


def _cone_shift_failures(cone, eta, g, r_max):
    """The scan of ``verify_cone_shift``, without its input checks: for each
    radius with a failing cone point, (r, the first such point)."""
    import numpy as np   # on use, as in meeting_radius

    eta = _as_fraction(eta)
    R = math.ceil(r_max + eta)
    if (2 * R + 1) ** 2 > DEFAULT_BALL_BUDGET:
        raise ResourceBudgetError(
            f"cone-shift box [-{R}, {R}]^2 exceeds budget {DEFAULT_BALL_BUDGET}",
            budget=DEFAULT_BALL_BUDGET)
    # every product below stays under 2**62 while the inputs and R stay
    # under 2**30; larger inputs are scanned with exact Python ints
    big = max(abs(c) for c in (*cone.u1, *cone.u2, *g)) + R
    axis = np.arange(-R, R + 1, dtype=np.int64 if big < 2 ** 30 else object)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    inside = cone.mask(x, y)
    n2 = x * x + y * y
    s2 = (x + g[0]) ** 2 + (y + g[1]) ** 2
    failures = []
    for r in range(1, r_max + 1):
        bad = inside & (n2 < math.ceil((r + eta) ** 2)) & (s2 >= r * r)
        k = int(np.argmax(bad))
        if bad.flat[k]:
            failures.append((r, (int(x.flat[k]), int(y.flat[k]))))
    return failures
