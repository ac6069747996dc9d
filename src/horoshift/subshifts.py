"""Finite descriptions of Z^2 shift actions and window combinatorics.

Specs come in three flavors: plain SFTs (finitely many forbidden patterns),
GF(2) linear rules (a finite coefficient support S with sum_{s in S}
x_{z+s} = 0 mod 2 for every z), and full shifts.  Skew actions are a
Z-subshift together with an exponent homomorphism (n, m) -> alpha*n +
beta*m; their Z^2 configurations are never materialized.

Every spec gives its rule as ``constraints()``, a list of ``(support,
allowed)``: ``allowed(values)`` judges the symbols read at z + support (a
bare symbol for a one-site support).  ``placements`` is the one rule for
where a support fits inside a finite set of sites; ``solve_forward`` solves a
GF(2) rule on them in raster order.  ``enumerate_fillings`` streams the
locally admissible total assignments (window fillings) of the box [-N, N]^2
in a deterministic raster-order backtracking.
"""

from functools import partial, reduce
from operator import itemgetter, ne, xor

from .errors import InputError, ResourceBudgetError, field

DEFAULT_FILLING_BUDGET = 2_000_000


def box_sites(N):
    """Sites of [-N, N]^2 in raster order (row by row, left to right)."""
    return [(x, y) for y in range(-N, N + 1) for x in range(-N, N + 1)]


def _alphabet(symbols):
    """A nonempty alphabet of hashable, mutually ordered symbols, sorted."""
    try:
        alphabet = tuple(sorted(set(symbols)))
    except TypeError as e:
        raise InputError(f"bad alphabet {symbols!r}") from e
    if not alphabet:
        raise InputError("alphabet must be nonempty")
    return alphabet


def _site(s):
    """A site given as a pair of integers, as a tuple of ints."""
    try:
        x, y = s
        return (int(x), int(y))
    except (TypeError, ValueError) as e:
        raise InputError(f"a site must be an integer pair, got {s!r}") from e


class Pattern:
    """A symbol assignment on finitely many sites: a dict or [site, v] pairs."""

    def __init__(self, symbols):
        pairs = symbols.items() if isinstance(symbols, dict) else symbols
        try:
            pairs = [(s, v) for s, v in pairs]
        except (TypeError, ValueError) as e:
            raise InputError(f"bad [site, symbol] pairs {symbols!r}") from e
        self.symbols = {_site(s): v for s, v in pairs}

    def __getitem__(self, site):
        return self.symbols[site]

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.symbols == other.symbols

    def __repr__(self):
        items = sorted(self.symbols.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return f"Pattern({dict(items)})"


class FullShift:
    """All configurations over a finite alphabet."""

    kind = "full-shift"

    def __init__(self, alphabet=(0, 1)):
        self.alphabet = _alphabet(alphabet)

    def constraints(self):
        return []

    def to_dict(self):
        return {"kind": self.kind, "alphabet": list(self.alphabet)}

    def __repr__(self):
        return f"FullShift(alphabet={self.alphabet})"


class LinearGF2:
    """Binary configurations with sum over a coefficient support = 0 mod 2."""

    kind = "linear-gf2"

    def __init__(self, support):
        sup = sorted(_site(s) for s in support)
        # a site repeated an even number of times cancels in GF(2)
        if sum(sup.count(s) % 2 for s in set(sup)) < 2:
            raise InputError("linear-gf2 support needs at least 2 sites of "
                             "odd multiplicity")
        self.support = tuple(sup)
        self.alphabet = (0, 1)

    def constraints(self):
        return [(self.support, lambda values: not sum(values) & 1)]

    def to_dict(self):
        return {"kind": self.kind, "support": [list(s) for s in self.support]}

    def __repr__(self):
        return f"LinearGF2(support={list(self.support)})"


class SFT:
    """Configurations avoiding finitely many forbidden patterns."""

    kind = "sft"

    def __init__(self, alphabet, forbidden):
        self.alphabet = _alphabet(alphabet)
        self.forbidden = []
        for p in forbidden:
            if not isinstance(p, Pattern):
                p = Pattern(p)
            if not p.symbols:
                raise InputError("forbidden patterns must have nonempty support")
            self.forbidden.append(p)
        if not self.forbidden:
            raise InputError("an SFT needs at least one forbidden pattern; "
                             "use FullShift otherwise")

    def constraints(self):
        # read each pattern with its getter's shape: one site gives a symbol
        supports = [tuple(sorted(p.symbols)) for p in self.forbidden]
        return [(s, partial(ne, itemgetter(*s)(p.symbols)))
                for s, p in zip(supports, self.forbidden)]

    def to_dict(self):
        return {"kind": self.kind, "alphabet": list(self.alphabet),
                "forbidden": [sorted(([s[0], s[1]], v) for s, v in p.symbols.items())
                              for p in self.forbidden]}

    def __repr__(self):
        return f"SFT(alphabet={self.alphabet}, forbidden={len(self.forbidden)} patterns)"


def ledrappier():
    """The binary rule x_{i,j} + x_{i+1,j} + x_{i,j+1} = 0 mod 2."""
    return LinearGF2([(0, 0), (1, 0), (0, 1)])


def spec_from_dict(d):
    kind = d.get("kind")
    if kind == "full-shift":
        return FullShift(field(d, "alphabet", list) if "alphabet" in d else (0, 1))
    if kind == "linear-gf2":
        return LinearGF2(field(d, "support", list))
    if kind == "sft":
        return SFT(field(d, "alphabet", list), field(d, "forbidden", list))
    raise InputError(f"unknown subshift kind {kind!r}")


def placements(support, sites):
    """Iterates the cells z + support for every anchor z that puts the support
    inside ``sites`` (a set or dict); anchors sites - support[0] give each once."""
    x0, y0 = support[0]
    shifted = (tuple((x - x0 + sx, y - y0 + sy) for sx, sy in support)
               for x, y in sites)
    return (cells for cells in shifted if all(c in sites for c in cells))


def solve_forward(support, sites, free):
    """Solve the GF(2) rule with ``support`` on ``sites``, given in raster
    order: the raster-last odd-multiplicity cell of each placement (taken with
    the full support, so a repeated site cancels) is the xor of the
    placement's other odd cells, and every other site takes ``next(free)``."""
    odd = sorted((s for s in set(support) if support.count(s) % 2),
                 key=lambda s: (s[1], s[0]))
    values = dict.fromkeys(sites)
    get = itemgetter(*map(support.index, odd))
    lead = {c[-1]: c[:-1] for c in map(get, placements(support, values))}
    for s in values:
        values[s] = reduce(xor, map(values.get, lead[s])) if s in lead else next(free)
    return values


def validate(spec, pattern):
    """True iff no constraint is violated fully inside the pattern support."""
    if not isinstance(pattern, Pattern):
        pattern = Pattern(pattern)
    symbols = pattern.symbols
    for v in symbols.values():
        if v not in spec.alphabet:
            raise InputError(f"symbol {v!r} outside alphabet {spec.alphabet}")
    return all(allowed(itemgetter(*cells)(symbols))
               for support, allowed in spec.constraints()
               for cells in placements(support, symbols))


class WindowFilling:
    """A total, locally admissible assignment of [-N, N]^2."""

    __slots__ = ("N", "symbols")

    def __init__(self, N, symbols):
        self.N = N
        self.symbols = symbols

    def __getitem__(self, site):
        return self.symbols[site]

    def __eq__(self, other):
        return (isinstance(other, WindowFilling) and self.N == other.N
                and self.symbols == other.symbols)

    def __hash__(self):
        return hash((self.N, tuple(sorted(self.symbols.items()))))

    def to_dict(self):
        cells = sorted(self.symbols.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return {"N": self.N, "symbols": [[s[0], s[1], v] for s, v in cells]}

    def __repr__(self):
        return f"WindowFilling(N={self.N}, {len(self.symbols)} sites)"


def enumerate_fillings(spec, N, clamp=None, budget=DEFAULT_FILLING_BUDGET):
    """Stream all locally admissible fillings of [-N, N]^2 extending clamp.

    Backtracking in raster order with symbols tried in sorted order, so the
    stream order is deterministic.  Raises a resource error (carrying the
    count so far) after ``budget`` fillings.
    """
    sites = box_sites(N)
    clamp = dict(clamp or {})
    for s in clamp:
        if not (abs(s[0]) <= N and abs(s[1]) <= N):
            raise InputError(f"clamp site {s} outside window [-{N},{N}]^2")
    # each placement is checked once, when its raster-last cell gets a value
    check_plan = {s: [] for s in sites}
    for support, allowed in spec.constraints():
        for cells in placements(support, check_plan):
            last = max(cells, key=lambda c: (c[1], c[0]))
            check_plan[last].append((itemgetter(*cells), allowed))
    alphabet = sorted(spec.alphabet)
    symbols = {}
    count = 0

    def backtrack(i):
        nonlocal count
        if i == len(sites):
            count += 1
            if count > budget:
                raise ResourceBudgetError(
                    f"filling budget {budget} exceeded", budget, count - 1)
            yield WindowFilling(N, dict(symbols))
            return
        site = sites[i]
        choices = [clamp[site]] if site in clamp else alphabet
        for v in choices:
            symbols[site] = v
            if all(allowed(get(symbols)) for get, allowed in check_plan[site]):
                yield from backtrack(i + 1)
            del symbols[site]

    yield from backtrack(0)


def count_fillings(spec, N, clamp=None, budget=DEFAULT_FILLING_BUDGET):
    return sum(1 for _ in enumerate_fillings(spec, N, clamp, budget))


def complete_upward(spec, rows, x_start=0, y_start=0):
    """Deterministic upward completion of the Ledrappier rule by
    ``solve_forward`` from the bottom row.

    ``rows`` is a list of bit rows, bottom first, each one shorter than the
    previous (the rule x_{i,j+1} = x_{i,j} + x_{i+1,j} shrinks width by 1).
    Returns the full triangle down to width 1 as a Pattern.
    """
    if not (isinstance(spec, LinearGF2)
            and set(spec.support) == {(0, 0), (1, 0), (0, 1)}):
        raise InputError("complete_upward implements the rule with support "
                         "{(0,0),(1,0),(0,1)}")
    rows = [tuple(int(b) & 1 for b in r) for r in rows]
    if not rows or not rows[0]:
        raise InputError("need at least one nonempty initial row")
    if any(len(b) != len(a) - 1 for a, b in zip(rows, rows[1:])):
        raise InputError("each initial row must be one shorter than the last")
    w = len(rows[0])
    sites = [(x_start + i, y_start + j) for j in range(w) for i in range(w - j)]
    tri = solve_forward(spec.support, sites, iter(rows[0]))
    if any(tri[s] != b for s, b in zip(sites, [b for r in rows for b in r])):
        raise InputError("initial rows violate the rule")
    return Pattern(tri)


def config_distance(x, y):
    """2^{-r} with r the minimum l-infinity norm of a disagreement site;
    0.0 when the fillings agree on the whole window."""
    if x.N != y.N:
        raise InputError(f"window mismatch: N={x.N} vs N={y.N}")
    r = None
    for s, v in x.symbols.items():
        if y.symbols[s] != v:
            n = max(abs(s[0]), abs(s[1]))
            if r is None or n < r:
                r = n
    if r is None:
        return 0.0
    return 2.0 ** (-r)


class FullShiftZ:
    """Binary (or larger) full shift on Z, the base of skew actions.

    ``expansivity_k`` is the smallest k with: dist(sigma^n x, sigma^n y)
    <= 2^{-k} for all n forces x = y.  For a full shift any k >= 1 works.
    """

    kind = "full-shift-z"

    def __init__(self, alphabet=(0, 1)):
        self.alphabet = tuple(sorted(set(alphabet)))
        if len(self.alphabet) < 2:
            raise InputError("base shift needs at least 2 symbols")
        self.expansivity_k = 1

    def to_dict(self):
        return {"kind": self.kind, "alphabet": list(self.alphabet)}

    def __repr__(self):
        return f"FullShiftZ(alphabet={self.alphabet})"


class SkewActionSpec:
    """Z^2-action T_{(n,m)} = sigma^{alpha n + beta m} on a Z-subshift."""

    kind = "skew-action"

    def __init__(self, base, alpha, beta):
        self.base = base
        self.alpha = int(alpha)
        self.beta = int(beta)
        if self.alpha == 0 and self.beta == 0:
            raise InputError("exponent map must be nonzero")

    def to_dict(self):
        return {"kind": self.kind, "base": self.base.to_dict(),
                "alpha": self.alpha, "beta": self.beta}

    def __repr__(self):
        return f"SkewActionSpec({self.base!r}, alpha={self.alpha}, beta={self.beta})"


def skew_exponent(spec, g):
    n, m = g
    return spec.alpha * n + spec.beta * m
