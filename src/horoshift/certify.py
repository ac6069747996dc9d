"""Window-scale determinism / witness certificates.

A direction (or horoball) H is probed at window scale (k, N): two locally
admissible fillings of [-N, N]^2 that agree on the k-dilated trace of H and
still disagree somewhere form a *window witness*; if instead the origin
symbol is forced by the dilated trace in every admissibility class, the
window is *deterministic* for H.

The dilated trace is {p in [-N,N]^2 : linf-dist(p, H /\\ [-2N,2N]^2) < k},
so every disagreement site of a witness automatically sits at distance
>= k from the horoball, forcing the pair 2^{-k}-close under T_g for all
g in H within the window horizon.  The search builds it once per window,
as columns (``_trace``), in closed form on an exact half-plane; the
re-checks list it from ``contains`` alone (``dilated_trace``).

Witnesses are only reported when they extend to a larger window (margin)
while agreeing on the larger dilated trace; this is what separates genuine
asymptotic behavior from boundary artifacts of the finite window, where
unconstrained edge cells can fake a disagreement.

For GF(2) linear rules the search is linear algebra: valid fillings form a
GF(2) vector space, so witness pairs correspond to kernel vectors
vanishing on the trace, sought on a half-plane only at a hull normal.
The generic path enumerates fillings and serves as the independent
oracle: on a half-plane it first asks whether the k = 1 trace forces the
origin, a proof on Z^2; if not, it settles each trace class of fillings
with two walks of the larger window, built once per direction and rebound
per class, clamped on two site sets: the inner box, for the class's first
extension, then the larger trace.
"""

import bisect
import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .horoballs import PolyhedralZ2, _check_dim
from .separation import _ccw_key
from .subshifts import (DEFAULT_FILLING_BUDGET, FullShift, LinearGF2,
                        _RowTransfer, _integer, _lead_rectangle, _odd_sites,
                        _site, _window_array, box_sites, enumerate_fillings,
                        solve_forward, validate)


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
        a, b = _site((a, b))
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


def farey_directions(Q):
    """Primitive integer directions (a, b) with max(|a|, |b|) <= Q,
    covering all four sign quadrants, in counterclockwise order."""
    if (Q := _integer(Q, "the Farey order")) < 1:
        raise InputError(f"Farey order must be >= 1, got {Q}")
    prims = [(a, b) for a in range(-Q, Q + 1) for b in range(-Q, Q + 1)
             if math.gcd(a, b) == 1]
    return [Direction(a, b) for a, b in sorted(prims, key=_ccw_key)]


def parse_pair(text):
    """The integer pair of an "a,b" descriptor."""
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError as e:
        raise InputError(f"expected 'a,b' integer pair, got {text!r}") from e


def parse_grid(descriptor):
    """Grid descriptors: "farey:Q", optionally "+diag" to register the
    sqrt-normalized diagonal specials; or an explicit "a,b;c,d;..." list,
    which may name each direction (a primitive vector) only once."""
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
    dirs = [Direction(*parse_pair(part)) for part in descriptor.split(";")]
    if twice := next((d for i, d in enumerate(dirs) if d in dirs[:i]), None):
        raise InputError(f"grid {descriptor!r} names {twice!r} twice")
    return dirs


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
        self.pair = pair  # artifact form: ``_member``s, or skew base points
        self.N, self.k = N, k
        self.evidence = evidence

    def __repr__(self):
        return f"Witness(N={self.N}, k={self.k}, extendable)"

    def to_dict(self):
        return {"kind": self.kind, "N": self.N, "k": self.k,
                "extendable": self.extendable, "pair": list(self.pair),
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


def _member(N, symbols):
    """A window pair member in artifact form: N and [x, y, symbol] for each
    site of [-N, N]^2, the ``symbols`` given in ``box_sites`` order."""
    return {"N": N, "symbols": [[x, y, v] for (x, y), v in
                                zip(box_sites(N), symbols)]}


# ---------------------------------------------------------------------------
# dilated traces

def horoball_box_mask(contains, B):
    """Boolean mask of H on [-B, B]^2, mask[x + B, y + B], from one
    ``contains`` call per cell."""
    r = range(-B, B + 1)
    return np.array([[contains((x, y)) for y in r] for x in r], dtype=bool)


def _scales(k, N):
    """The window scales k and N as ints, given N >= k >= 1."""
    k, N = _integer(k, "k"), _integer(N, "N")
    if not 1 <= k <= N:
        raise InputError(f"need N >= k >= 1, got N={N}, k={k}")
    return k, N


def _halfplane_rows(normal, k, N):
    """The dilated trace of the half-plane H = {a*x + b*y < 0} of ``normal``
    (a, b) as the range of its y at each x of [-N, N]: the (2k-1)-square
    around s in [-N, N]^2 lies in [-2N, 2N]^2 (k <= N) and meets H exactly
    when a*s_x + b*s_y < (k-1)(|a|+|b|), and H always meets that box."""
    a, b = normal
    c, xs = (k - 1) * (abs(a) + abs(b)), range(-N, N + 1)
    # (x, y) is a site exactly when b*y < c - a*x
    if b > 0:
        return [range(-N, min(N, (c - a * x - 1) // b) + 1) for x in xs]
    if b < 0:
        return [range(max(-N, (a * x - c) // -b + 1), N + 1) for x in xs]
    return [range(-N, N + 1 if a * x < c else -N) for x in xs]


def _columns(horoball, B):
    """H /\\ [-B, B]^2 as the sorted y of H at each x of [-B, B]: ranges for
    a half-plane or a quarter space, else one ``contains`` call per cell."""
    if normal := getattr(horoball, "halfplane_normal", lambda: None)():
        return _halfplane_rows(normal, 1, B)
    if isinstance(j := getattr(horoball, "j", None), PolyhedralZ2):
        return j.columns(B)
    r = range(-B, B + 1)
    return [[y for y in r if horoball.contains((x, y))] for x in r]


def dilated_trace(contains, k, N):
    """Sites of [-N, N]^2 at l-infinity distance < k from H /\\ [-2N, 2N]^2,
    in sorted order, and whether H meets that box, from ``contains`` alone:
    the (2k-1)-squares slide over its mask of [-2N, 2N]^2.  The re-checks
    read it as it is; ``_trace`` groups it by x off a half-plane."""
    k, N = _scales(k, N)
    mask = horoball_box_mask(contains, 2 * N)
    if not mask.any():
        return [], False
    # site x sits at mask index x + 2N; it is in the trace iff the w-wide
    # square around it meets H, and k <= N keeps those squares in the mask
    lo, hi, w = N - k + 1, 3 * N + k, 2 * k - 1
    hit = sliding_window_view(mask[lo:hi, lo:hi], (w, w)).any(axis=(2, 3))
    # hit[x + N, y + N]; nonzero lists it in C order, the sorted (x, y) order
    xs, ys = np.nonzero(hit)
    return list(zip((xs - N).tolist(), (ys - N).tolist())), True


def _trace(horoball, k, B):
    """The dilated trace of H on [-B, B]^2 as the sorted y at each x of
    [-B, B], or None when H misses [-2B, 2B]^2: the ``_halfplane_rows``
    ranges on an exact half-plane, else ``dilated_trace`` grouped by x."""
    if (normal := horoball.halfplane_normal()) is not None:
        return _halfplane_rows(normal, k, B)
    trace, hits = dilated_trace(horoball.contains, k, B)
    columns = [[] for _ in range(2 * B + 1)]
    for x, y in trace:
        columns[x + B].append(y)
    return columns if hits else None


def _sites(columns, B):
    """The sites of ``columns`` on [-B, B]^2, in sorted (x, y) order."""
    return [(x, y) for x, ys in zip(range(-B, B + 1), columns) for y in ys]


# ---------------------------------------------------------------------------
# GF(2) linear algebra (bitmask rows)

def _reduce(r, pivots):
    """The bitmask row r less the ``pivots`` rows (lead column -> row) that
    its leading bits call for: 0 exactly when r lies in their span."""
    while r and (lead := r.bit_length() - 1) in pivots:
        r ^= pivots[lead]
    return r


def gf2_nullspace(rows, ncols):
    """Basis of the null space of the GF(2) matrix given as bitmask rows
    (bit j = column j).  Deterministic: columns processed in order."""
    pivots = {}  # column -> reduced row
    for r in rows:
        if r := _reduce(r, pivots):
            pivots[r.bit_length() - 1] = r
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


# a linear certificate uses at most two kernels, on [-(N + margin), N +
# margin]^2 and, when the origin is off the trace, on [-N, N]^2; an nd run
# builds the first once, and the second only at k = 1, where a half-plane
# trace misses the origin
@functools.lru_cache(maxsize=4)
def _window_kernel(support, M):
    """Kernel of a GF(2) linear rule on the box [-M, M]^2, as (mask, dim).

    Fillings of a LinearGF2 spec form a GF(2) vector space of dimension
    ``dim``; witness pairs (x, y) correspond to kernel vectors z = x + y.  The
    basis is kept as one mask per site: bit j of ``mask[s]`` is basis vector
    j's symbol at s, so a combination c of basis vectors has symbol
    parity(c & mask[s]) at s.  ``solve_forward`` gives the j-th free site of
    the raster walk bit j.
    """
    free = itertools.count()  # after the solve, the number of free sites
    mask = solve_forward(support, M, (1 << j for j in free))
    return mask, next(free)


def _rank_rows(support, columns, M, mask):
    """The masks of ``mask``, a kernel on [-M, M]^2 or a larger box, at the
    sites of ``columns`` (the sorted y at each x of [-M, M]) that can add
    rank to the rest, in sorted (x, y) order: the raster-last odd cell of a
    placement in [-M, M]^2 is the xor of its other odd cells, so when those
    are sites too its row is the xor of theirs, and dropping every such row
    leaves the row space as it was.  In a column, such sites lie between
    the shifted ends of the columns of the other cells: a slice, whose
    sites are tested one by one only next to a column with a gap."""
    *odd, (lx, ly) = _odd_sites(support)
    x0, x1, y0, y1 = _lead_rectangle(support, M)
    kept = list(columns)
    for x in range(x0, x1 + 1):  # the leads of placements in the box
        # the other odd cells of a placement led at (x, y): y + d in c
        near = [(columns[x + ox - lx + M], oy - ly) for ox, oy in odd]
        if not all(c for c, _ in near):
            continue
        ys = columns[x + M]
        i = bisect.bisect_left(ys, max([y0, *(c[0] - d for c, d in near)]))
        j = bisect.bisect_right(ys, min([y1, *(c[-1] - d for c, d in near)]))
        gaps = [(c, d) for c, d in near if len(c) <= c[-1] - c[0]]
        mid = [y for y in ys[i:j]
               if not all(y + d in c for c, d in gaps)] if gaps else ()
        kept[x + M] = itertools.chain(ys[:i], mid, ys[max(i, j):])
    return [mask[x, y] for x, ys in zip(range(-M, M + 1), kept) for y in ys]


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
    heights = [p[0] * v[0] + p[1] * v[1] for p in _odd_sites(support)]
    return heights.count(max(heights)) >= 2


def _origin_forced(spec, columns, N):
    """Is the origin symbol of [-N, N]^2 forced by the symbols on the trace,
    given as its ``columns`` (the sorted y at each x of [-N, N])?

    It is exactly when the origin's mask lies in the span of the trace's
    masks.  An origin on the trace is one of them, so that answer needs no
    kernel.  Otherwise the rows of ``_rank_rows``, which span what all the
    trace rows span, are eliminated in sorted site order until the origin's
    mask reduces to 0 or the rows run out.
    """
    if 0 in columns[N]:
        return True
    mask, _ = _window_kernel(spec.support, N)
    origin = mask[(0, 0)]
    pivots = {}
    for r in _rank_rows(spec.support, columns, N, mask):
        if not origin:
            break
        if r := _reduce(r, pivots):
            pivots[r.bit_length() - 1] = r
            origin = _reduce(origin, pivots)
    return not origin


@functools.lru_cache(maxsize=4)  # read at every hull normal of an nd run
def _box_rows(support, N, M):
    """The masks of the kernel on [-M, M]^2 at the sites of [-N, N]^2, in
    ``box_sites`` order, and its ``_rank_rows`` on that box."""
    mask, _ = _window_kernel(support, M)
    box = range(-N, N + 1)
    return (tuple(map(mask.__getitem__, box_sites(N))),
            tuple(_rank_rows(support, [box] * len(box), N, mask)))


def _linear_status(spec, horoball, columns, k, N, margin):
    """LinearGF2 certificate from the window kernels, given the trace's
    ``columns`` on [-N, N]^2.

    On an exact half-plane the hull-normal criterion decides the side: the
    window kernel alone cannot tell asymptotic behavior from boundary
    artifacts for slanted expansive directions (they recede only as the
    margin grows without bound), so only a hull normal scans for a
    witness, and every other normal asks ``_origin_forced``.  Any other
    horoball scans on the trace of [-M, M]^2, M = N + margin, then asks
    the origin.

    The null space of the margin trace's ``_rank_rows`` has the basis of
    all its rows, one vector per free column of the same row space.  A
    combination vanishes on [-N, N]^2 exactly when it vanishes on that
    box's ``_rank_rows``, the sites its own solve leaves free, so the scan
    reads only their parities, and builds the symbols only of the
    combination that hits.
    """
    M, normal = N + margin, horoball.halfplane_normal()
    size = {"trace_size": sum(map(len, columns))}
    if normal is None or is_hull_normal(spec.support, normal):
        wide = _trace(horoball, k, M)
        mask, dim = _window_kernel(spec.support, M)
        masks, free = _box_rows(spec.support, N, M)
        for c in gf2_nullspace(_rank_rows(spec.support, wide, M, mask), dim):
            if any((c & m).bit_count() & 1 for m in free):
                evidence = {"margin": margin, **size}
                if normal is not None:
                    evidence["hull-normal"] = list(normal)
                y = [(c & m).bit_count() & 1 for m in masks]
                return Witness((_member(N, [0] * len(y)), _member(N, y)),
                               N, k, evidence=evidence)
        if normal is not None:
            return Inconclusive(N, k, "hull normal direction but no window "
                                      "witness at this scale; enlarge N")
    if _origin_forced(spec, columns, N):
        return WindowDeterministic(N, k, evidence=size)
    return Inconclusive(N, k, "origin not forced" if normal is not None else
                              "origin not forced; no extendable witness")


def _fullshift_status(spec, columns, k, N):
    inner, size = box_sites(N), sum(map(len, columns))
    free = set(inner).difference(_sites(columns, N))
    if not free:
        return WindowDeterministic(N, k, evidence={"trace_size": size})
    if len(spec.alphabet) == 1:
        return WindowDeterministic(N, k, evidence={"alphabet": "singleton"})
    # single-difference witness at the free site farthest from the window
    # center (deterministic tie-break by raster order)
    site = max(free, key=lambda s: (max(abs(s[0]), abs(s[1])), s[1], s[0]))
    a0, a1 = spec.alphabet[:2]
    y = [a1 if s == site else a0 for s in inner]
    return Witness((_member(N, [a0] * len(y)), _member(N, y)), N, k,
                   evidence={"difference_site": site, "trace_size": size})


# every direction of an nd run reads the same free window array
_window_stream = functools.lru_cache(maxsize=1)(_window_array)


def _unique_rows(values):
    """numpy's ``unique`` over the rows of ``values``, an (n, t) array with
    t >= 1, each row's bytes one key: each class's first row, each row's
    class and each class's size, the classes in key order."""
    values = np.ascontiguousarray(values)
    # the view's single column: numpy 2.0 shapes the inverse like the keys
    keys = values.view(np.dtype((np.void, values[0].nbytes)))[:, 0]
    return np.unique(keys, return_index=True, return_inverse=True,
                     return_counts=True)[1:]


def _shared_trace_classes(values):
    """The classes of two or more equal rows of ``values``, an (n, t) array,
    in the order of their first rows, each as its row numbers ascending.
    Lazily: one comparison pass finds row 0's class, and the other rows
    are grouped only when a later class is asked for."""
    first = np.flatnonzero((values == values[:1]).all(axis=1))
    if len(first) > 1:
        yield first.tolist()
    if len(first) < len(values):
        firsts, labels, sizes = _unique_rows(values)
        by_class = np.argsort(labels, kind="stable")  # each class ascending
        offsets = [0, *np.cumsum(sizes).tolist()]
        shared = np.flatnonzero((sizes > 1) & (firsts > 0))  # not row 0's
        for c in shared[np.argsort(firsts[shared])].tolist():
            yield by_class[offsets[c]:offsets[c + 1]].tolist()


def _enumeration_status(spec, horoball, columns, k, N, margin, budget):
    """Enumeration oracle: the window's fillings fall into classes by their
    symbols on the trace's ``columns``.  On an exact half-plane H the
    origin is asked first, on the k = 1 trace: if each class holds one
    origin symbol, configurations of Z^2 that agree on H agree at the
    origin, hence everywhere (translate along the boundary line, then line
    by line), and so do those agreeing on its k-dilation.  The test stops
    at the first class whose origin varies.  Then the first pair of a
    class, in stream order, whose second filling extends to [-M, M]^2
    agreeing on the larger trace with an extension xhat of the first is a
    witness; at k = 1 the tested classes are replayed, and a symbol dict
    is built only for a compared member.  With no witness, every class
    holding one origin symbol (on a half-plane: k > 1) is deterministic.

    xhat equals the first filling on [-N, N]^2, and the larger trace meets
    [-N, N]^2 in the trace, so some member extends exactly when a filling
    agreeing with xhat on the larger trace differs from xhat there.  Two
    walks of [-M, M]^2, built after the test, are bound to each class: one
    clamped on [-N, N]^2 finds xhat, as rows, and one clamped on the larger
    trace, read from those rows, asks that and, only where it hits, tries
    the members in stream order.
    """
    symbols = _window_stream(spec, N, budget)
    if symbols is None:
        return Inconclusive(N, k, "budget")
    size = {"trace_size": sum(map(len, columns))}

    def classes(trace):  # by the fillings' symbols on its columns, in order
        cells = np.array(_sites(trace, N), dtype=np.intp).reshape(-1, 2) + N
        yield from _shared_trace_classes(symbols[:, cells[:, 1], cells[:, 0]])

    def fixed(members):  # does the class hold one origin symbol?
        return len(set(symbols[members, N, N].tolist())) == 1

    shared = classes(columns)
    if horoball.halfplane_normal() is not None:
        if k == 1:  # the walks replay the classes tested
            shared, tested = itertools.tee(shared)
        else:
            tested = classes(_trace(horoball, 1, N))
        if all(map(fixed, tested)):
            return WindowDeterministic(N, k, evidence=size)
        del tested  # else the tee keeps every class the walks read after
    M = N + margin
    trace_M = _sites(_trace(horoball, k, M), M)
    sites, alphabet = box_sites(N), spec.alphabet
    at_trace = [(y + M) * (2 * M + 1) + x + M for x, y in trace_M]
    inner = _RowTransfer(spec, M, dict.fromkeys(sites, alphabet[0]))
    extends = _RowTransfer(spec, M, dict.fromkeys(trace_M, alphabet[0]), None)

    def filling(i):
        values = map(alphabet.__getitem__, symbols[i].ravel().tolist())
        return dict(zip(sites, values))

    forced = True
    for members in shared:
        forced = forced and fixed(members)
        # the stream has no repeats, so every other member differs from rep
        rep, *others = members
        reference = filling(rep)
        inner.bind(reference.values())
        xhat = next(inner.fillings(), None)
        if xhat is None:
            continue
        xhat = list(itertools.chain.from_iterable(xhat))
        extends.bind(map(xhat.__getitem__, at_trace))
        if next(extends.fillings(reference, N, differ=True), None) is None:
            continue
        # a filling that differs from xhat inside [-N, N]^2 restricts there
        # to another member of the class, so some member extends
        other = next(o for o in others if any(extends.fillings(filling(o), N)))
        return Witness((_member(N, reference.values()),
                        _member(N, filling(other).values())),
                       N, k, evidence={"margin": margin, **size})
    if forced:
        return WindowDeterministic(N, k, evidence=size)
    return Inconclusive(N, k, "origin not forced; no extendable witness")


def _status(spec, horoball, k, N, margin, budget, method):
    if method not in ("auto", "enumerate"):
        raise InputError(f"unknown method {method!r}")
    k, N = _scales(k, N)
    if margin is not None and (margin := _integer(margin, "margin")) < 0:
        raise InputError(f"margin must be >= 0, got {margin}")
    if (budget := _integer(budget, "budget")) < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if margin is None:  # a window claim only: a witness extends that far
        margin = N - k + 2
    columns = _trace(horoball, k, N)
    if columns is None:
        return Inconclusive(N, k, "horoball misses window")
    if method == "auto" and isinstance(spec, LinearGF2):
        return _linear_status(spec, horoball, columns, k, N, margin)
    if method == "auto" and isinstance(spec, FullShift):
        return _fullshift_status(spec, columns, k, N)
    return _enumeration_status(spec, horoball, columns, k, N, margin, budget)


def direction_status(spec, v, k, N, margin=None, budget=DEFAULT_FILLING_BUDGET,
                     method="auto"):
    """Certificate for the open half-space horoball of direction v."""
    v = v if isinstance(v, Direction) else Direction(*v)
    return _status(spec, v, k, N, margin, budget, method)


def horoball_status(spec, horoball, k, N, margin=None,
                    budget=DEFAULT_FILLING_BUDGET, method="auto"):
    """Certificate for a ``Horoball``; exact half-planes among them get the
    same hull-normal treatment as directions."""
    _check_dim(horoball, 2)
    return _status(spec, horoball, k, N, margin, budget, method)


def nd_set(spec, k, N, grid="farey:8+diag", margin=None,
           budget=DEFAULT_FILLING_BUDGET, method="auto"):
    """Per-direction certificates over the directions of a grid descriptor
    (see ``parse_grid``); Witness entries form the window-scale
    nondeterministic set."""
    entries = []
    for v in parse_grid(grid):
        entries.append((v, direction_status(spec, v, k, N, margin=margin,
                                            budget=budget, method=method)))
    meta = {"grid": grid, "spec": spec.to_dict()}
    return NDReport(spec, k, N, entries, metadata=meta)


# ---------------------------------------------------------------------------
# certificate re-verification (independent of the search that produced them)

def verify_witness(spec, contains, cert):
    """Direct re-check of a window witness from its pair's artifact form,
    as ``Witness.to_dict`` writes it: each member {"N": N, "symbols": [[x,
    y, v], ...]} carries the certificate's N and lists [-N, N]^2 in
    ``box_sites`` order; both are locally admissible, equal on the dilated
    trace and unequal somewhere.  The trace is exactly the sites at
    l-infinity distance < k from H /\\ [-2N, 2N]^2, so agreeing on it puts
    every disagreement at distance >= k; it is built from ``contains``
    alone, not from the closed form the search uses.  A malformed pair is
    refused, never raised on."""
    N, k = cert.N, cert.k
    box = [[sx, sy] for sx, sy in box_sites(N)]
    try:
        if any(f["N"] != N or [s[:2] for s in f["symbols"]] != box
               for f in cert.pair):
            return False
        x, y = ({(sx, sy): v for sx, sy, v in f["symbols"]} for f in cert.pair)
        if not (validate(spec, x) and validate(spec, y)):
            return False
    except (KeyError, TypeError, ValueError):  # an InputError is a ValueError
        return False
    trace, hits = dilated_trace(contains, k, N)
    return hits and x != y and all(x[s] == y[s] for s in trace)


def verify_window_deterministic(spec, contains, cert):
    """Exhaustive re-check that the origin symbol is forced in every
    admissibility class of the dilated trace (small windows only)."""
    trace, hits = dilated_trace(contains, cert.k, cert.N)
    if not hits:
        return False
    classes = {}
    for f in enumerate_fillings(spec, cert.N):
        key = tuple(map(f.__getitem__, trace))
        prev = classes.setdefault(key, f[0, 0])
        if prev != f[0, 0]:
            return False
    return True


# ---------------------------------------------------------------------------
# skew actions

def skew_horoball_status(spec, horoball, k, N):
    """Certificate for a skew action T_{(n,m)} = sigma^{alpha n + beta m}.

    Decides through the exponent images E_B = exponent(H /\\ [-B, B]^2),
    B = N, 2N, ..., 16N, read from the sorted columns of H on the largest
    box (``_columns``): the exponent is linear in m, so bisection finds each
    column's extremes in [-B, B] and its exponents in [-N, N].  Then:

    * E_B bounded on one side (min or max stabilizes as B doubles): a
      one-sided asymptotic pair of the base shift, placed so every
      realized power keeps the disagreement at distance >= k -> Witness.
    * E_16N covers [-N, N]: any pair 2^{-k}-close under all those powers
      must agree on the whole window -> WindowDeterministic (for k at or
      above the base expansivity level).
    * otherwise Inconclusive.
    """
    k, N = _scales(k, N)
    _check_dim(horoball, 2)
    exp_k = getattr(spec.base, "expansivity_k", None)
    if exp_k is None:
        return Inconclusive(N, k, "unknown base expansivity constant")
    if k < exp_k:
        return Inconclusive(N, k, f"k below base expansivity level {exp_k}")
    B_max, a, b = 16 * N, spec.alpha, spec.beta
    columns = list(zip(range(-B_max, B_max + 1), _columns(horoball, B_max)))

    def extremes(B):  # of the exponent, at the ends of each column's part
        ends = []
        for n, ms in columns[B_max - B:B_max + B + 1]:
            i, j = bisect.bisect_left(ms, -B), bisect.bisect_right(ms, B)
            ends += (a * n + b * ms[i], a * n + b * ms[j - 1]) if i < j else ()
        return (min(ends), max(ends)) if ends else None

    # the exponents in [-N, N]: at x = n, those of the m with
    # |c + |b|*m| <= N, c = a*n*sign(b); for b = 0, a*n itself or nothing
    window = set()
    for n, ms in columns:
        if b:
            c, d = (a * n if b > 0 else -a * n), abs(b)
            ms = ms[bisect.bisect_left(ms, -((N + c) // d)):
                    bisect.bisect_right(ms, (N - c) // d)]
        else:
            ms = ms[:1] if abs(a * n) <= N else ()
        window.update(a * n + b * m for m in ms)
    stages = [(B, extremes(B)) for B in (N, 2 * N, 4 * N, 8 * N, B_max)]
    evidence = {"stages": stages, "B_max": B_max}
    if stages[-1][1] is None:
        return Inconclusive(N, k, "horoball misses window")
    if len(window) == 2 * N + 1:
        evidence["covers"] = [-N, N]
        return WindowDeterministic(N, k, evidence=evidence)
    last = [span for _, span in stages if span is not None][-3:]
    a0, a1 = spec.base.alphabet[0], spec.base.alphabet[1]
    for side, end, shift in (("below", 0, -k), ("above", 1, k)):
        if len(last) == 3 and len({span[end] for span in last}) == 1:
            q = last[-1][end] + shift
            evidence.update(bounded=(side, last[-1][end]), difference_position=q)
            # base-shift pair: constant a0 versus a single a1 placed so
            # every realized power keeps the disagreement at distance >= k
            pair = ({"base_point": "constant", "symbol": a0},
                    {"base_point": "constant-with-difference", "symbol": a0,
                     "difference_position": q, "difference_symbol": a1})
            return Witness(pair, N, k, evidence=evidence)
    return Inconclusive(N, k, "exponent image unbounded both sides "
                              "but does not cover the window")
