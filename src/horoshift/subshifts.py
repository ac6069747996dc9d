"""Finite descriptions of Z^2 shift actions and window combinatorics.

Specs come in three flavors: plain SFTs (finitely many forbidden patterns),
GF(2) linear rules (a finite coefficient support S with sum_{s in S}
x_{z+s} = 0 mod 2 for every z), and full shifts.  Skew actions are a
Z-subshift together with an exponent homomorphism (n, m) -> alpha*n +
beta*m; their Z^2 configurations are never materialized.

A symbol assignment (a pattern, a window filling, a clamp) is a plain dict
from site to symbol; outside input (an SFT's forbidden patterns, the
pattern given to ``validate``, the clamp of a walk) may also be a list of
[site, symbol] pairs and is checked in one place, ``_symbols``.

Every spec gives its rule as ``constraints()``, a list of ``(support,
allowed)``: ``allowed(values)`` judges the symbols read at z + support (a
bare symbol for a one-site support).  ``placements`` is the one rule for
where a support fits inside a finite set of sites.  ``solve_forward`` solves
a GF(2) rule on a box a row at a time: the cells it solves for fill a
rectangle, ``_lead_rectangle``, so each row's are xors of slices of the rows
below.  ``enumerate_fillings`` streams the locally admissible total
assignments (window fillings) of the box [-N, N]^2, each a dict keyed in
raster order, in raster-lexicographic order by a walk over its rows; walks
clamped on one site set share those rows through one check plan of bounded
size, and one walk can be rebound to each clamp of its sites.  One
depth-first walk streams the fillings as bare tuples of rows, or only those
equal to a reference inside a smaller box (a site map), or only those that
differ from it there; ``varies_inside`` asks whether any of the last kind
exists, in the quarter turn the walk picks to meet its clamp first
(a stream whose order is output walks unturned).
``_window_array`` counts the free fillings up to a budget by row states and,
under it, writes them all into one numpy array a row plane at a time.
"""

from functools import lru_cache, partial, reduce
from itertools import chain, compress, islice
from operator import index, itemgetter, ne, xor

from .errors import InputError, ResourceBudgetError, field

DEFAULT_FILLING_BUDGET = 400_000
# the row states one check plan keeps before it drops them all
_PLAN_STATES = 2 ** 15
# the quarter turns of the plane, counterclockwise; _TURNS[-t % 4] undoes t
_TURNS = (lambda x, y: (x, y), lambda x, y: (-y, x),
          lambda x, y: (-x, -y), lambda x, y: (y, -x))


def box_sites(N):
    """Sites of [-N, N]^2 in raster order (row by row, left to right)."""
    N = _integer(N, "N")
    return [(x, y) for y in range(-N, N + 1) for x in range(-N, N + 1)]


def _raster_key(site):
    return (site[1], site[0])


def _alphabet(symbols):
    """A nonempty alphabet of hashable, mutually ordered symbols, sorted."""
    try:
        alphabet = tuple(sorted(set(symbols)))
    except TypeError as e:
        raise InputError(f"bad alphabet {symbols!r}") from e
    if not alphabet:
        raise InputError("alphabet must be nonempty")
    return alphabet


def _integer(v, name):
    """``v``, an integer and not a bool, as an int; else an InputError
    naming it ``name``."""
    try:
        if type(v) is bool:
            raise TypeError
        return index(v)
    except TypeError as e:
        raise InputError(f"{name} must be an integer, got {v!r}") from e


def _site(s):
    """A site given as a pair of integers (not bools), as a tuple of ints."""
    try:
        x, y = s
        if type(x) is int is type(y):  # the common case, without two calls
            return (x, y)
        return (_integer(x, "x"), _integer(y, "y"))
    except (TypeError, ValueError) as e:  # an InputError is a ValueError
        raise InputError(f"a site must be an integer pair, got {s!r}") from e


def _symbols(pattern, alphabet=None):
    """A symbol map given as a dict or as [site, symbol] pairs, each site
    once, as a dict keyed by integer sites, each symbol in ``alphabet`` if
    one is given."""
    try:
        pairs = list(pattern.items() if isinstance(pattern, dict) else pattern)
        symbols = {(x, y) if type(x) is int is type(y) else _site((x, y)): v
                   for (x, y), v in pairs}
    except (TypeError, ValueError) as e:
        raise InputError(f"bad [site, symbol] pairs {pattern!r}") from e
    if len(symbols) < len(pairs):
        raise InputError(f"a site is listed twice in {pattern!r}")
    for v in symbols.values():
        if alphabet and v not in alphabet:
            raise InputError(f"symbol {v!r} outside alphabet {alphabet}")
    return symbols


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
        if len(_odd_sites(sup)) < 2:
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
        self.forbidden = [_symbols(p, self.alphabet) for p in forbidden]
        if not all(self.forbidden):
            raise InputError("forbidden patterns must have nonempty support")
        if not self.forbidden:
            raise InputError("an SFT needs at least one forbidden pattern; "
                             "use FullShift otherwise")

    def constraints(self):
        # read each pattern with its getter's shape: one site gives a symbol
        supports = [tuple(sorted(p)) for p in self.forbidden]
        return [(s, partial(ne, itemgetter(*s)(p)))
                for s, p in zip(supports, self.forbidden)]

    def to_dict(self):
        return {"kind": self.kind, "alphabet": list(self.alphabet),
                "forbidden": [sorted(([s[0], s[1]], v) for s, v in p.items())
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
    (x0, y0), (xs, ys) = support[0], zip(*sites) if sites else ((), ())
    # cells[i][n]: the i-th cell of the support placed at the n-th anchor
    cells = [list(zip(map((x - x0).__add__, xs), map((y - y0).__add__, ys)))
             for x, y in support]
    inside = map(all, zip(*[map(sites.__contains__, c) for c in cells]))
    return compress(zip(*cells), inside)


def _odd_sites(support):
    """The sites of odd multiplicity in ``support``, in raster order: a site
    repeated an even number of times cancels in GF(2)."""
    return sorted((s for s in set(support) if support.count(s) % 2),
                  key=_raster_key)


def _lead_rectangle(support, M):
    """The sites [x0, x1] x [y0, y1] of [-M, M]^2 (none when x0 > x1 or
    y0 > y1) that are the raster-last odd cell of a placement in the box:
    those whose anchor fits the whole support, cancelled sites too."""
    (lx, ly), (xs, ys) = _odd_sites(support)[-1], zip(*support)
    return (lx - M - min(xs), lx + M - max(xs),
            ly - M - min(ys), ly + M - max(ys))


def solve_forward(support, M, free):
    """Solve the GF(2) rule with ``support`` on the box [-M, M]^2, as a site
    map in raster order: the raster-last odd-multiplicity cell of each
    placement (taken with the full support, so a repeated site cancels) is
    the xor of the placement's other odd cells, and every other site takes
    ``next(free)`` in raster order.

    Those lead cells fill a rectangle, so a row is solved at once: its leads
    are the xor of slices of the rows below, one per odd cell below the
    last, and then its cells' odd cells to their left, if any, are folded in
    left to right."""
    *odd, (lx, ly) = _odd_sites(support)
    w = 2 * M + 1
    # the lead columns and rows, numbered from 0 at -M
    x0, x1, y0, y1 = (c + M for c in _lead_rectangle(support, M))
    below = [(oy - ly, x0 + ox - lx) for ox, oy in odd if oy < ly]
    left = [ox - lx for ox, oy in odd if oy == ly]
    rows, n = [], x1 - x0 + 1
    for r in range(w):
        if not (y0 <= r <= y1 and n > 0):
            rows.append(list(islice(free, w)))
            continue
        leads = reduce(partial(map, xor),
                       [rows[r + dy][c:c + n] for dy, c in below] or [[0] * n])
        row = [*islice(free, x0), *leads, *islice(free, w - 1 - x1)]
        for c in range(x0, x1 + 1) if left else ():
            row[c] = reduce(xor, (row[c + dx] for dx in left), row[c])
        rows.append(row)
    return dict(zip(box_sites(M), chain.from_iterable(rows)))


def validate(spec, pattern):
    """True iff no constraint is violated fully inside the pattern support."""
    symbols = _symbols(pattern, spec.alphabet)
    return all(allowed(itemgetter(*cells)(symbols))
               for support, allowed in spec.constraints()
               for cells in placements(support, symbols))


def _state_after(state, row, keep):
    """The last ``keep`` rows of ``state`` followed by ``row``."""
    rows = (*state, row)
    return rows[max(0, len(rows) - keep):]


# the clamped searches of an oracle run place the same supports in one window
@lru_cache(maxsize=16)
def _box_placements(support, N):
    """Each placement of ``support`` in [-N, N]^2, in ``placements`` order
    over the raster-ordered sites, as its getter and its cells raster-last
    first, every cell numbered by its place in ``box_sites(N)``."""
    number = {s: i for i, s in enumerate(box_sites(N))}
    placed = [list(map(number.get, c)) for c in placements(support, number)]
    return tuple((itemgetter(*cells), tuple(sorted(cells, reverse=True)))
                 for cells in placed)


class _CheckPlan:
    """How the walks of [-N, N]^2 in one turn with one clamped site set,
    numbered in raster order, check their rows, and the rows they found.

    Each placement is checked once, at its raster-last unclamped cell (its
    raster-last cell when all are clamped): a clamped symbol never changes,
    so a partial row is rejected as soon as it contradicts the clamp, and no
    filling is lost.  So the admissible rows r above a state depend only on
    the clamped symbols at ``reads[r]``, those of row r and those above it
    that row r's checks read.  ``tables`` keeps them per (``rows[r]``, those
    symbols), keyed by state, each row interned, for at most ``_PLAN_STATES``
    states: ``rows[r]`` is r, or with no clamp min(r, ``keep``), since every
    row from ``keep`` up then checks the same cells, whole rows apart.
    """

    def __init__(self, spec, N, clamped, turn):
        self.width = width = 2 * N + 1
        self.checks = [[] for _ in range(width * width)]
        reads = [set() for _ in range(width)]
        for i in clamped:
            reads[i // width].add(i)
        height = 1
        for support, allowed in spec.constraints():
            support = tuple(_TURNS[turn](*s) for s in support)
            ys = [y for _, y in support]
            height = max(height, max(ys) - min(ys) + 1)
            for get, cells in _box_placements(support, N):
                for j, last in enumerate(cells):  # raster-last first
                    if last not in clamped:
                        break
                else:
                    j, last = 0, cells[0]
                self.checks[last].append((get, allowed))
                reads[last // width].update(cells[:j])  # clamped, above last
        self.reads = [sorted(r) for r in reads]
        # a state is the last h - 1 rows placed, h the tallest row span of a
        # support, since a row's checks read no row below those
        self.keep = height - 1
        self.rows = [r if clamped else min(r, self.keep) for r in range(width)]
        self.tables, self.interned, self.stored = {}, {}, 0


# an oracle direction walks two clamped site sets of one margin window, the
# inner box for each class's first extension and the larger trace, each with
# one walk that it rebinds per class; the inner box's plan serves every
# direction of an nd run
_check_plan = lru_cache(maxsize=2)(_CheckPlan)


class _RowTransfer:
    """The locally admissible fillings of [-N, N]^2 as walks over its rows,
    bottom to top, for one spec and clamp, in the frame ``_TURNS[turn]``:
    0 for a stream whose order is output, None to meet the clamp first.

    The admissible next rows of a state follow the check plan of the clamped
    sites.  They are produced lazily, cell by cell with symbols in sorted
    order, so in lexicographic order, and once fully walked they are kept in
    the plan's tables, shared by every walk whose clamp has the same symbols
    where the row reads it, until the plan drops its tables at its cap.
    ``bind`` clamps the same sites to other symbols, so a caller that walks
    many clamps of one site set builds one walk for them.
    """

    def __init__(self, spec, N, clamp, turn=0):
        if (N := _integer(N, "N")) < 0:
            raise InputError(f"need a window size N >= 0, got N={N}")
        width = 2 * N + 1
        clamp = _symbols(clamp or {}, spec.alphabet)
        if turn is None:  # the least sum of turned rows over the clamp
            x, y = map(sum, zip((0, 0), *clamp))
            turn = min(range(4), key=(y, x, -y, -x).__getitem__)  # 0 on a tie
        self.turn = turn
        # per site number, the clamped symbol and the candidate symbols
        self.symbols = [None] * width * width
        self.choices = [sorted(spec.alphabet)] * width * width
        self.clamped = []  # the clamp's site numbers, in its order
        for s in clamp:
            if not (abs(s[0]) <= N and abs(s[1]) <= N):
                raise InputError(f"clamp site {s} outside window [-{N},{N}]^2")
            x, y = _TURNS[turn](*s)
            self.clamped.append((y + N) * width + x + N)
        self.plan = _check_plan(spec, N, frozenset(self.clamped), turn)
        self.keep, self.top = self.plan.keep, width - 1
        self.bind(clamp.values())

    def bind(self, values):
        """Clamp the clamp's sites, in its order, to the symbols ``values``
        instead: the plan stays, and the walk reads the new symbols' rows."""
        for i, v in zip(self.clamped, values):
            self.symbols[i], self.choices[i] = v, (v,)
        self.keys = [(r, tuple(map(self.symbols.__getitem__, reads)))
                     for r, reads in zip(self.plan.rows, self.plan.reads)]
        self.tables = [self.plan.tables.setdefault(key, {})
                       for key in self.keys]

    def _next_rows(self, r, state):
        """The admissible rows r above the rows ``state``, lexicographically."""
        width, checks, choices = self.plan.width, self.plan.checks, self.choices
        lo, last = r * width, (r + 1) * width - 1
        # a check may read a clamped cell of a row above r
        symbols = self.symbols.copy()
        symbols[lo - len(state) * width:lo] = chain.from_iterable(state)
        # tried[i - lo] iterates the candidates of cell i under the values
        # chosen for cells lo..i-1
        tried = [iter(choices[lo])] + [None] * (width - 1)
        i = lo
        while i >= lo:
            for v in tried[i - lo]:
                symbols[i] = v
                for get, allowed in checks[i]:
                    if not allowed(get(symbols)):
                        break
                else:  # every check passed: keep v
                    break
            else:
                i -= 1
                continue
            if i == last:
                yield tuple(symbols[lo:i + 1])
            else:
                i += 1
                tried[i - lo] = iter(choices[i])

    def _keep(self, r, state):
        plan = self.plan
        rows = []
        for row in self._next_rows(r, state):
            rows.append(plan.interned.setdefault(row, row))
            yield rows[-1]
        if plan.stored == _PLAN_STATES:  # walks hold the old tables: empty them
            for table in plan.tables.values():
                table.clear()
            plan.tables, plan.interned, plan.stored = {}, {}, 0
        plan.stored += 1
        table = self.tables[r] = plan.tables.setdefault(self.keys[r], {})
        table[state] = tuple(rows)

    def successors(self, r, state):
        rows = self.tables[r].get(state)
        return iter(rows) if rows is not None else self._keep(r, state)

    def fillings(self, reference=None, N=0, differ=False):
        """Every filling as its tuple of rows in the walk's frame,
        lexicographic in raster order; given ``reference``, a site map over
        [-N, N]^2 at least, only those equal to it there, or with ``differ``
        only those that differ from it there.  One depth-first walk over
        (row, state, differs) compares each row as it places it, and does
        not walk again a triple that yielded no filling.
        """
        back, span = _TURNS[-self.turn % 4], range(-N, N + 1)
        inner = [tuple(reference[back(x, y)] for x in span)
                 for y in span] if reference is not None else ()
        top, keep = self.top, self.keep
        lo = (top + 1 - len(inner)) // 2  # the inner rows and columns
        hi = lo + len(inner) - 1
        path, dead, found = [None] * (top + 1), set(), 0
        # frames of (r, state, differs, the rows r left to try, found before)
        stack = [(0, (), False, self.successors(0, ()), 0)]
        while stack:
            r, state, differs, rows, _ = stack[-1]
            row = next(rows, None)
            if row is None:
                if stack.pop()[4] == found:
                    dead.add((r, state, differs))
                continue
            differs = differs or (lo <= r <= hi
                                  and row[lo:hi + 1] != inner[r - lo])
            # a difference stays, and its absence is final past row hi
            if differs != differ and (differs or r >= hi):
                continue
            path[r] = row
            if r == top:
                found += 1
                yield tuple(path)
            elif (r + 1, after := _state_after(state, row, keep),
                  differs) not in dead:
                stack.append((r + 1, after, differs,
                              self.successors(r + 1, after), found))


def varies_inside(spec, M, clamp, reference, N):
    """Does some filling of [-M, M]^2 extending ``clamp`` differ from
    ``reference``, a site map over [-N, N]^2 (N <= M), inside [-N, N]^2?
    Only the answer is output, so the walk turns to meet its clamp first."""
    N, M = _integer(N, "N"), _integer(M, "M")
    if not 0 <= N <= M:
        raise InputError(f"need 0 <= N <= M, got N={N}, M={M}")
    if missing := [s for s in box_sites(N) if s not in reference]:
        raise InputError(f"the reference has no symbol at site {missing[0]} "
                         f"of [-{N},{N}]^2")
    walk = _RowTransfer(spec, M, clamp, turn=None)
    return next(walk.fillings(reference, N, differ=True), None) is not None


def enumerate_fillings(spec, N, clamp=None, budget=DEFAULT_FILLING_BUDGET):
    """Stream all locally admissible fillings of [-N, N]^2 extending clamp.

    Each filling is a dict from site to symbol with its keys in raster
    order (``box_sites``); the stream is raster-lexicographic (symbols in
    sorted order), so deterministic.  Raises a resource error (carrying the
    count so far) after ``budget`` fillings.
    """
    walk = _RowTransfer(spec, N, clamp)  # checks N before box_sites reads it
    sites = box_sites(N)
    for count, rows in enumerate(walk.fillings(), 1):
        if count > budget:
            raise ResourceBudgetError(
                f"filling budget {budget} exceeded", budget, count - 1)
        yield dict(zip(sites, chain.from_iterable(rows)))


def _window_array(spec, N, budget):
    """The fillings of [-N, N]^2 in stream order as one array of indices
    into ``spec.alphabet``, shaped (filling, row, column) with the rows
    bottom first; None when the window has more than ``budget`` fillings.

    A depth-first count over the row states, in the stream's order through
    ``successors``, settles the budget first: it keeps the exact count above
    every finished state, so a state met again adds its count at once, and
    it stops as soon as the count passes the budget, so it expands no row
    state that ``islice(fillings(), budget + 1)`` would not.  Under the
    budget no filling is walked: row by row, each prefix of rows that some
    filling passes takes its state's rows in turn, with ``np.repeat`` over
    offsets, so no level holds more prefixes than there are fillings, and
    each row is one plane of a (row, filling, column) array, transposed.
    """
    import numpy as np  # on use: nothing else here needs it
    walk = _RowTransfer(spec, N, None)
    top, keep = walk.top, walk.keep
    done = {}  # (r, state) -> fillings of rows r.. above it
    total = 0
    # frames of (r, state, the rows r left to try, total on entering)
    stack = [(0, (), walk.successors(0, ()), 0)]
    while stack and total <= budget:
        r, state, rows, before = stack[-1]
        row = next(rows, None)
        if row is None:
            stack.pop()
            done[r, state] = total - before
        elif r == top:
            total += 1
        elif (after := (r + 1, _state_after(state, row, keep))) in done:
            total += done[after]
        else:
            stack.append((*after, walk.successors(*after), total))
    if total > budget:
        return None
    width, index = 2 * N + 1, {v: i for i, v in enumerate(spec.alphabet)}
    dtype = np.min_scalar_type(len(spec.alphabet) - 1)
    planes = np.empty((width, total, width), dtype=dtype)
    states, prefixes = [()], np.zeros(1, dtype=np.intp)  # prefixes' states
    for r in range(top + 1):
        # state i's rows that fillings take are rows[first[i]:first[i + 1]],
        # each with its next state's number and the fillings above it
        first, rows, edges, number = [0], [], [], {}
        for state in states:
            for row in walk.successors(r, state):
                after = _state_after(state, row, keep)
                if above := done[r + 1, after] if r < top else 1:
                    rows.append([index[v] for v in row])
                    edges += number.setdefault(after, len(number)), above
            first.append(len(rows))
        rows = np.array(rows, dtype=dtype).reshape(-1, width)
        child, above = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        # taken: the rows of each prefix's state, prefix by prefix
        start, degree = np.take(first, prefixes), np.diff(first)[prefixes]
        taken = np.repeat(start - np.cumsum(degree) + degree, degree)
        taken += np.arange(len(taken))
        np.take(rows, np.repeat(taken, above[taken]), axis=0, out=planes[r])
        prefixes = child[taken]
        states = list(number)
    return planes.transpose(1, 0, 2)


class FullShiftZ:
    """Binary (or larger) full shift on Z, the base of skew actions.

    ``expansivity_k`` is the smallest k with: dist(sigma^n x, sigma^n y)
    <= 2^{-k} for all n forces x = y.  For a full shift any k >= 1 works.
    """

    kind = "full-shift-z"

    def __init__(self, alphabet=(0, 1)):
        self.alphabet = _alphabet(alphabet)
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
        self.alpha = _integer(alpha, "alpha")
        self.beta = _integer(beta, "beta")
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
