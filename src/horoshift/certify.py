"""Window-scale determinism / witness certificates.

A direction (or horoball) H is probed at window scale (k, N): two locally
admissible fillings of [-N, N]^2 that agree on the k-dilated trace of H and
still disagree somewhere form a *window witness*; if instead the origin
symbol is forced by the dilated trace in every admissibility class, the
window is *deterministic* for H.

The dilated trace is {p in [-N,N]^2 : linf-dist(p, H /\\ [-2N,2N]^2) < k},
so every disagreement site of a witness automatically sits at distance
>= k from the horoball, forcing the pair 2^{-k}-close under T_g for all
g in H within the window horizon.

Witnesses are only reported when they extend to a larger window (margin)
while agreeing on the larger dilated trace; this is what separates genuine
asymptotic behavior from boundary artifacts of the finite window, where
unconstrained edge cells can fake a disagreement.

For GF(2) linear rules the search is linear algebra: valid fillings form a
GF(2) vector space, so witness pairs correspond to kernel vectors
vanishing on the trace.  The generic path enumerates fillings and serves
as the independent oracle.
"""

import functools
import itertools
import math
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ResourceBudgetError
from .subshifts import (FullShift, LinearGF2, WindowFilling, box_sites,
                        enumerate_fillings, solve_forward)

DEFAULT_ENUM_BUDGET = 400_000


# ---------------------------------------------------------------------------
# directions

class Direction:
    """A nonzero direction of the plane, stored as a primitive integer
    vector so half-plane membership <p, v> < 0 is exact.

    ``label`` distinguishes registered irrational specials that share the
    integer direction (e.g. (1,1)/sqrt(2), written "sqrt-normalized").
    All sign tests are scale-invariant, so the integer vector is enough.
    """

    __slots__ = ("a", "b", "label")

    def __init__(self, a, b, label="rational"):
        a, b = int(a), int(b)
        if a == 0 and b == 0:
            raise InputError("direction must be nonzero")
        g = math.gcd(a, b)
        self.a, self.b = a // g, b // g
        self.label = label

    def __eq__(self, other):
        return isinstance(other, Direction) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        base = f"({self.a},{self.b})"
        return base if self.label == "rational" else f"{base}/|{base}|"

    def contains(self, p):
        """Open half-space horoball membership: <p, v> < 0 (exact)."""
        return self.a * p[0] + self.b * p[1] < 0

    def halfplane_normal(self):
        """The horoball of a direction is the half-plane of that normal."""
        return (self.a, self.b)

    def unit(self):
        n = math.hypot(self.a, self.b)
        return (self.a / n, self.b / n)

def _direction_cmp(u, w):
    """Counterclockwise order starting at (1, 0), exact arithmetic."""
    hu = 0 if (u.b > 0 or (u.b == 0 and u.a > 0)) else 1
    hw = 0 if (w.b > 0 or (w.b == 0 and w.a > 0)) else 1
    if hu != hw:
        return hu - hw
    cross = u.a * w.b - u.b * w.a
    return -1 if cross > 0 else (1 if cross < 0 else 0)


direction_sort_key = functools.cmp_to_key(_direction_cmp)


def farey_directions(Q):
    """Primitive integer directions (a, b) with max(|a|, |b|) <= Q,
    covering all four sign quadrants, in counterclockwise order."""
    if Q < 1:
        raise InputError(f"Farey order must be >= 1, got {Q}")
    out = set()
    for a in range(-Q, Q + 1):
        for b in range(-Q, Q + 1):
            if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                out.add(Direction(a, b))
    return sorted(out, key=direction_sort_key)


def parse_pair(text):
    """The integer pair of an "a,b" descriptor."""
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError as e:
        raise InputError(f"expected 'a,b' integer pair, got {text!r}") from e


def parse_grid(descriptor):
    """Grid descriptors: "farey:Q", optionally "+diag" to register the
    sqrt-normalized diagonal specials; or an explicit "a,b;c,d;..." list."""
    descriptor = descriptor.strip()
    if descriptor.startswith("farey:"):
        rest = descriptor[len("farey:"):]
        add_diag = rest.endswith("+diag")
        if add_diag:
            rest = rest[:-len("+diag")]
        try:
            Q = int(rest)
        except ValueError as e:
            raise InputError(f"bad Farey order in grid {descriptor!r}") from e
        dirs = farey_directions(Q)
        if add_diag:
            # the sqrt-normalized diagonals share their integer direction
            # with (1,1) etc., so this relabels rather than adds
            specials = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
            dirs = [Direction(d.a, d.b, "sqrt-normalized")
                    if (d.a, d.b) in specials else d for d in dirs]
        return dirs
    return [Direction(*parse_pair(part)) for part in descriptor.split(";")]


# ---------------------------------------------------------------------------
# certificates

class WindowDeterministic:
    kind = "window-deterministic"

    def __init__(self, N, k, evidence=None):
        self.N, self.k, self.evidence = N, k, evidence

    def __repr__(self):
        return f"WindowDeterministic(N={self.N}, k={self.k})"

    def to_dict(self):
        return {"kind": self.kind, "N": self.N, "k": self.k,
                "evidence": self.evidence}


class Witness:
    kind = "witness"
    # linear and enumeration pairs extend to the margin window; a full-shift
    # or skew pair (a constant and a one-site change) extends everywhere
    extendable = True

    def __init__(self, pair, N, k, evidence=None):
        self.pair = pair
        self.N, self.k = N, k
        self.evidence = evidence

    def __repr__(self):
        return f"Witness(N={self.N}, k={self.k}, extendable)"

    def to_dict(self):
        # skew witnesses carry plain dict descriptions of their pair
        pair = [f if isinstance(f, dict) else f.to_dict() for f in self.pair]
        return {"kind": self.kind, "N": self.N, "k": self.k,
                "extendable": self.extendable, "pair": pair,
                "evidence": self.evidence}


class Inconclusive:
    kind = "inconclusive"

    def __init__(self, N, k, reason):
        self.N, self.k, self.reason = N, k, reason

    def __repr__(self):
        return f"Inconclusive(N={self.N}, k={self.k}, {self.reason!r})"

    def to_dict(self):
        return {"kind": self.kind, "N": self.N, "k": self.k,
                "reason": self.reason}


class NDReport:
    """Per-direction certificates over a grid, at fixed epsilon = 2^{-k}."""

    def __init__(self, spec, k, N, entries, metadata=None):
        self.spec = spec
        self.k, self.N = k, N
        self.epsilon = 2.0 ** (-k)
        self.entries = entries  # list of (Direction, Certificate)
        self.metadata = metadata or {}

    def witness_directions(self):
        return [d for d, c in self.entries if c.kind == "witness"]

    def __repr__(self):
        kinds = {}
        for _, c in self.entries:
            kinds[c.kind] = kinds.get(c.kind, 0) + 1
        return f"NDReport(k={self.k}, N={self.N}, {kinds})"


# ---------------------------------------------------------------------------
# dilated traces

def horoball_box_mask(contains, B):
    """Boolean mask of H on [-B, B]^2; mask[x + B, y + B] = membership."""
    r = range(-B, B + 1)
    return np.array([[contains((x, y)) for y in r] for x in r], dtype=bool)


def dilated_trace(contains, k, N):
    """Sites of [-N, N]^2 at l-infinity distance < k from H /\\ [-2N, 2N]^2.

    Returns (trace set, horoball-hits-box flag).
    """
    if not 1 <= k <= N:
        raise InputError(f"need N >= k >= 1, got N={N}, k={k}")
    mask = horoball_box_mask(contains, 2 * N)
    if not mask.any():
        return set(), False
    # site x sits at mask index x + 2N; it is in the trace iff the w-wide
    # square around it meets H, and k <= N keeps those squares in the mask
    lo, hi, w = N - k + 1, 3 * N + k, 2 * k - 1
    hit = sliding_window_view(mask[lo:hi, lo:hi], (w, w)).any(axis=(2, 3))
    return {(x - N, y - N) for x, y in np.argwhere(hit).tolist()}, True


# ---------------------------------------------------------------------------
# GF(2) linear algebra (bitmask rows)

def gf2_nullspace(rows, ncols):
    """Basis of the null space of the GF(2) matrix given as bitmask rows
    (bit j = column j).  Deterministic: columns processed in order."""
    pivots = {}  # column -> reduced row
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead in pivots:
                r ^= pivots[lead]
            else:
                pivots[lead] = r
                break
    basis = []
    # a pivot row's equation involves only columns below its lead, so
    # resolve pivots in increasing column order
    order = sorted(pivots.items())
    for j in range(ncols):
        if j in pivots:
            continue
        # free column j: back-substitute a vector with bit j set
        vec = 1 << j
        for lead, row in order:
            if (row & vec).bit_count() % 2:
                vec |= 1 << lead
        basis.append(vec)
    return basis


class _LinearWindowKernel:
    """Kernel of a GF(2) linear rule on the box [-M, M]^2.

    Fillings of a LinearGF2 spec form a GF(2) vector space; witness pairs
    (x, y) correspond to kernel vectors z = x + y.  The basis is kept as one
    mask per site: bit j of ``mask[s]`` is basis vector j's symbol at s, so a
    combination c of basis vectors has symbol parity(c & mask[s]) at s.
    ``solve_forward`` gives the j-th free site of the raster walk bit j.
    """

    def __init__(self, support, M):
        free = itertools.count()  # after the solve, the number of free sites
        self.mask = solve_forward(support, box_sites(M), (1 << j for j in free))
        self.dim = next(free)

    def vanishing_on(self, sites):
        """Combinations whose kernel vectors vanish on the given sites."""
        return gf2_nullspace([self.mask[s] for s in sorted(sites)], self.dim)

    def symbol(self, c, s):
        """Symbol at site s of the kernel vector of combination c."""
        return (c & self.mask[s]).bit_count() & 1


# a linear certificate uses two kernels, on [-N, N]^2 and [-(N + margin),
# N + margin]^2; an nd run alternates between the same two
@functools.lru_cache(maxsize=4)
def _window_kernel(support, M):
    return _LinearWindowKernel(support, M)


# ---------------------------------------------------------------------------
# status computation

def is_hull_normal(support, v):
    """Is v an outward edge normal of the convex hull of a GF(2) support?

    It is exactly when <p, v> takes its maximum over the support at two or
    more sites; a site repeated an even number of times cancels in GF(2), so
    only sites of odd multiplicity count.

    For a GF(2) linear rule these are exactly the directions v whose
    half-plane admits nonzero rule-respecting configurations supported in
    {<p, v> >= c}: along an edge of the hull the rule degenerates to a
    one-dimensional recurrence transverse to v, which has nonzero
    solutions constant along the edge direction, while for any other v
    the extreme support site is alone on its supporting line and forces
    the configuration to vanish line by line.
    """
    heights = [p[0] * v[0] + p[1] * v[1]
               for p in set(support) if support.count(p) % 2]
    return heights.count(max(heights)) >= 2


def _origin_forced(spec, trace, N):
    """Is the origin symbol of [-N, N]^2 forced by the symbols on the trace?"""
    small = _window_kernel(spec.support, N)
    return not any(small.symbol(c, (0, 0)) for c in small.vanishing_on(trace))


def _linear_status(spec, contains, trace, k, N, margin, normal=None):
    """LinearGF2 certificate from the window kernels.

    ``normal`` is the primitive outward normal when the horoball is an exact
    half-plane.  The window kernel search alone cannot distinguish genuine
    asymptotic behavior from boundary artifacts for slanted expansive
    directions (the artifacts recede only as the margin grows without
    bound), so for a half-plane the existence side is decided by the
    hull-normal criterion and the window is used to exhibit, or to verify
    determinism of, the certificate.
    """
    deterministic = WindowDeterministic(N, k,
                                        evidence={"trace_size": len(trace)})
    if normal is not None and not is_hull_normal(spec.support, normal):
        if _origin_forced(spec, trace, N):
            return deterministic
        return Inconclusive(N, k, "origin not forced")
    M = N + margin
    trace_M, _ = dilated_trace(contains, k, M)
    kern = _window_kernel(spec.support, M)
    inner = box_sites(N)
    for c in kern.vanishing_on(trace_M):
        if any(kern.symbol(c, s) for s in inner):
            x = WindowFilling(N, {s: 0 for s in inner})
            y = WindowFilling(N, {s: kern.symbol(c, s) for s in inner})
            evidence = {"margin": margin, "trace_size": len(trace)}
            if normal is not None:
                evidence["hull-normal"] = list(normal)
            return Witness((x, y), N, k, evidence=evidence)
    if normal is not None:
        return Inconclusive(N, k, "hull normal direction but no window "
                                  "witness at this scale; enlarge N")
    if _origin_forced(spec, trace, N):
        return deterministic
    return Inconclusive(N, k, "origin not forced; no extendable witness")


def _fullshift_status(spec, trace, k, N):
    inner = box_sites(N)
    free = [s for s in inner if s not in trace]
    if not free:
        return WindowDeterministic(N, k, evidence={"trace_size": len(trace)})
    # single-difference witness at the free site farthest from the window
    # center (deterministic tie-break by raster order)
    site = max(free, key=lambda s: (max(abs(s[0]), abs(s[1])), s[1], s[0]))
    a0, a1 = spec.alphabet[0], spec.alphabet[1] if len(spec.alphabet) > 1 else spec.alphabet[0]
    if a0 == a1:
        return WindowDeterministic(N, k, evidence={"alphabet": "singleton"})
    x = WindowFilling(N, {s: a0 for s in inner})
    y = WindowFilling(N, {**x.symbols, site: a1})
    return Witness((x, y), N, k,
                   evidence={"difference_site": site, "trace_size": len(trace)})


def _pair_extends(spec, x, y, trace_M, M):
    """Does the window witness (x, y) extend to a pair on [-M, M]^2 that
    agrees on the larger dilated trace?"""
    xhat = next(enumerate_fillings(spec, M, clamp=x.symbols), None)
    if xhat is None:
        return False
    clamp = {s: xhat[s] for s in trace_M} | y.symbols
    return next(enumerate_fillings(spec, M, clamp=clamp), None) is not None


def _enumeration_status(spec, contains, trace, k, N, margin, budget):
    M = N + margin
    trace_M, _ = dilated_trace(contains, k, M)
    classes = {}
    # a filling's class is its symbols on the trace, read in one fixed order
    key = itemgetter(*sorted(trace)) if trace else (lambda symbols: ())
    try:
        for f in enumerate_fillings(spec, N, budget=budget):
            classes.setdefault(key(f.symbols), []).append(f)
    except ResourceBudgetError:
        return Inconclusive(N, k, "budget")
    origin_forced = True
    for members in classes.values():
        if len({f.symbols[(0, 0)] for f in members}) > 1:
            origin_forced = False
        rep = members[0]
        for other in members[1:]:
            if other.symbols != rep.symbols:
                if _pair_extends(spec, rep, other, trace_M, M):
                    return Witness((rep, other), N, k,
                                   evidence={"margin": margin,
                                             "trace_size": len(trace)})
    if origin_forced:
        return WindowDeterministic(N, k, evidence={"trace_size": len(trace)})
    return Inconclusive(N, k, "origin not forced; no extendable witness")


def _status(spec, horoball, k, N, margin, budget, method):
    if method not in ("auto", "kernel", "enumerate"):
        raise InputError(f"unknown method {method!r}")
    linear = isinstance(spec, LinearGF2)
    if method == "kernel" and not linear:
        raise InputError("kernel method needs a linear-gf2 spec")
    if margin is not None and margin < 0:
        raise InputError(f"margin must be >= 0, got {margin}")
    contains = horoball.contains
    trace, hits = dilated_trace(contains, k, N)
    if not hits:
        return Inconclusive(N, k, "horoball misses window")
    if margin is None:
        # wide enough that boundary effects of the margin window cannot
        # propagate into [-N, N]^2 along a rule of unit step
        margin = N - k + 2
    if method == "auto" and isinstance(spec, FullShift):
        return _fullshift_status(spec, trace, k, N)
    if method == "kernel" or (method == "auto" and linear):
        normal = horoball.halfplane_normal() if method == "auto" else None
        return _linear_status(spec, contains, trace, k, N, margin, normal)
    return _enumeration_status(spec, contains, trace, k, N, margin, budget)


def direction_status(spec, v, k, N, margin=None, budget=DEFAULT_ENUM_BUDGET,
                     method="auto"):
    """Certificate for the open half-space horoball of direction v."""
    v = v if isinstance(v, Direction) else Direction(*v)
    return _status(spec, v, k, N, margin, budget, method)


def horoball_status(spec, horoball, k, N, margin=None,
                    budget=DEFAULT_ENUM_BUDGET, method="auto"):
    """Certificate for a ``Horoball``; exact half-planes among them get the
    same hull-normal treatment as directions."""
    return _status(spec, horoball, k, N, margin, budget, method)


def nd_set(spec, k, N, grid=None, margin=None, budget=DEFAULT_ENUM_BUDGET,
           method="auto", grid_label=None):
    """Per-direction certificates over a grid; Witness entries form the
    window-scale nondeterministic set."""
    if grid is None:
        grid = parse_grid("farey:8+diag")
        grid_label = grid_label or "farey:8+diag"
    if not grid:
        raise InputError("direction grid must be nonempty")
    entries = []
    for v in grid:
        entries.append((v, direction_status(spec, v, k, N, margin=margin,
                                            budget=budget, method=method)))
    meta = {"grid": grid_label or f"{len(grid)} directions",
            "spec": spec.to_dict()}
    return NDReport(spec, k, N, entries, metadata=meta)


# ---------------------------------------------------------------------------
# certificate re-verification (independent of the search that produced them)

def verify_witness(spec, contains, cert):
    """Direct re-check of a window witness: both fillings locally
    admissible, equal on the dilated trace, unequal somewhere, and every
    disagreement site at l-infinity distance >= k from the horoball's
    trace in [-2N, 2N]^2."""
    from .subshifts import Pattern, validate
    x, y = cert.pair
    N, k = cert.N, cert.k
    if not (validate(spec, Pattern(x.symbols)) and validate(spec, Pattern(y.symbols))):
        return False
    trace, hits = dilated_trace(contains, k, N)
    if not hits:
        return False
    if any(x.symbols[s] != y.symbols[s] for s in trace):
        return False
    diff = [s for s in x.symbols if x.symbols[s] != y.symbols[s]]
    if not diff:
        return False
    B = 2 * N
    ball_sites = [(hx, hy) for hx in range(-B, B + 1) for hy in range(-B, B + 1)
                  if contains((hx, hy))]
    for s in diff:
        if min(max(abs(s[0] - hx), abs(s[1] - hy))
               for hx, hy in ball_sites) < k:
            return False
    return True


def verify_window_deterministic(spec, contains, cert,
                                budget=DEFAULT_ENUM_BUDGET):
    """Exhaustive re-check that the origin symbol is forced in every
    admissibility class of the dilated trace (small windows only)."""
    trace, hits = dilated_trace(contains, cert.k, cert.N)
    if not hits:
        return False
    classes = {}
    for f in enumerate_fillings(spec, cert.N, budget=budget):
        key = tuple(sorted((s, f.symbols[s]) for s in trace))
        prev = classes.setdefault(key, f.symbols[(0, 0)])
        if prev != f.symbols[(0, 0)]:
            return False
    return True


# ---------------------------------------------------------------------------
# skew actions

def exponent_image(spec, contains, B):
    """Sorted exponent values over H /\\ [-B, B]^2."""
    out = set()
    for n in range(-B, B + 1):
        for m in range(-B, B + 1):
            if contains((n, m)):
                out.add(spec.alpha * n + spec.beta * m)
    return sorted(out)


def skew_horoball_status(spec, horoball, k, N, B_max=None):
    """Certificate for a skew action T_{(n,m)} = sigma^{alpha n + beta m}.

    Decides through the exponent image E = exponent(H /\\ [-B, B]^2):

    * E bounded on one side (min or max stabilizes as B doubles): a
      one-sided asymptotic pair of the base shift, placed so every
      realized power keeps the disagreement at distance >= k -> Witness.
    * E covers [-N, N]: any pair 2^{-k}-close under all those powers
      must agree on the whole window -> WindowDeterministic (for k at or
      above the base expansivity level).
    * otherwise Inconclusive.
    """
    if N < k or k < 1:
        raise InputError(f"need N >= k >= 1, got N={N}, k={k}")
    exp_k = getattr(spec.base, "expansivity_k", None)
    if exp_k is None:
        return Inconclusive(N, k, "unknown base expansivity constant")
    if k < exp_k:
        return Inconclusive(N, k, f"k below base expansivity level {exp_k}")
    contains = horoball.contains
    if B_max is None:
        B_max = 16 * N
    stages = []
    B = N
    while B <= B_max:
        E = exponent_image(spec, contains, B)
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
        # base-shift pair: constant a0 versus a single a1 placed so every
        # realized power keeps the disagreement at distance >= k
        pair = ({"base_point": "constant", "symbol": a0},
                {"base_point": "constant-with-difference", "symbol": a0,
                 "difference_position": q, "difference_symbol": a1})
        evidence["difference_position"] = q
        return Witness(pair, N, k, evidence=evidence)
    return Inconclusive(N, k, "exponent image unbounded both sides "
                              "but does not cover the window")
