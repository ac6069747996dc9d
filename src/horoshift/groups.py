"""Concrete groups with proper right-invariant distances.

Four families are supported:

* ``ZdLp`` -- Z^d with the l1, l2 or l-infinity norm.  Elements are int
  tuples.  l1/l-inf distances are exact integers; l2 distances are floats
  but every *comparison* (ball membership, symmetry checks) goes through
  exact squared-integer arithmetic.
* ``WeightedFreeAbelian`` -- the free abelian group on generators e_1, e_2,
  ... with norm sum(|x_i| * i).  Elements are sorted tuples of
  (index, coefficient) pairs with no zero coefficients.
* ``DirectSumZ2`` -- infinite direct sum of Z/2Z with the same weighted
  norm.  Elements are frozensets of generator indices.
* ``BallSequenceGroup`` -- a metric induced by an explicit nested sequence
  of finite symmetric sets, checked by :func:`ball_sequence_check`.

Every group's exact norm is an integer, so ``ball`` and ``dist_lt`` read a
radius through one rule, ``MetricGroup._bound``: the largest exact norm
inside it.  The two weighted families share ``WeightedSum``, whose one ball
walk lists one element per node.
"""

from fractions import Fraction
from itertools import product
import math

from .errors import InputError, ResourceBudgetError
from .subshifts import _integer

DEFAULT_BALL_BUDGET = 500_000


def _as_fraction(r):
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, float) and math.isfinite(r):
        return Fraction(r)  # exact binary value
    raise InputError(f"expected a finite int, float or Fraction, got {r!r}")


class MetricGroup:
    """Right-invariant distance d(g, h) = |g h^-1| from a group's norm.

    Subclasses provide ``identity``, ``op``, ``inv``, ``norm`` and ``ball``;
    ``norm_exact``, an integer, is the norm itself unless a subclass needs
    another exact form (the squared l2 norm of ``ZdLp``).
    """

    def norm_exact(self, g):
        return self.norm(g)

    def dist(self, g, h):
        return self.norm(self.op(g, self.inv(h)))

    def dist_lt(self, g, h, radius, closed=False):
        """Exact comparison d(g, h) < radius (or <= when closed)."""
        r = _as_fraction(radius)
        if r < 0:
            return False
        return self.norm_exact(self.op(g, self.inv(h))) <= self._bound(r, closed)

    def _bound(self, r, closed):
        """The largest exact norm within radius r >= 0: an integer e is
        <= r exactly when e <= floor(r), and < r when e <= ceil(r) - 1."""
        return math.floor(r) if closed else math.ceil(r) - 1

    def _ball_bound(self, radius, closed):
        """``_bound`` of a ball's radius, which must not be negative."""
        r = _as_fraction(radius)
        if r < 0:
            raise InputError(f"radius must be >= 0, got {radius}")
        return self._bound(r, closed)

    def busemann(self, g, x):
        return self.dist(g, x) - self.norm(g)


# the exact norm of each p; the l2 one is squared, so it stays an integer
_EXACT_NORMS = {1: lambda g: sum(map(abs, g)),
                2: lambda g: sum(c * c for c in g),
                "inf": lambda g: max(map(abs, g))}


class ZdLp(MetricGroup):
    """Z^d with an l^p norm, p in {1, 2, inf}."""

    def __init__(self, dim, p):
        if (dim := _integer(dim, "dimension")) < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        p = "inf" if p in ("inf", math.inf) else _integer(p, "p")
        if p not in (1, 2, "inf"):
            raise InputError(f"p must be 1, 2 or 'inf', got {p!r}")
        self.dim, self.p = dim, p
        self._norm = _EXACT_NORMS[self.p]

    def __repr__(self):
        return f"ZdLp({self.dim}, {self.p!r})"

    def identity(self):
        return (0,) * self.dim

    def check(self, g):
        if len(g) != self.dim:
            raise InputError(f"element {g} has dimension {len(g)}, group has {self.dim}")
        if {*map(type, g)} <= {int}:  # the common case, without a call per entry
            return tuple(g)
        return tuple(_integer(c, "a coordinate") for c in g)

    def op(self, g, h):
        return tuple(a + b for a, b in zip(self.check(g), self.check(h)))

    def inv(self, g):
        return tuple(-a for a in self.check(g))

    def norm_exact(self, g):
        """For l1/linf the norm itself; for l2 the *squared* norm (an int)."""
        return self._norm(self.check(g))

    def norm(self, g):
        n = self.norm_exact(g)
        return math.sqrt(n) if self.p == 2 else n

    def _bound(self, r, closed):
        """The l2 bound is on the squared norm, so it squares r >= 0."""
        return super()._bound(r * r if self.p == 2 else r, closed)

    def busemann(self, g, x):
        """b_g(x) = d(g, x) - d(g, 1); exact int for l1/linf, stable float for l2."""
        g, x = self.check(g), self.check(x)
        if self.p != 2:
            return self.dist(g, x) - self.norm(g)
        # (|g-x|^2 - |g|^2) / (|g-x| + |g|) avoids catastrophic cancellation
        num = sum(c * c for c in x) - 2 * sum(a * b for a, b in zip(g, x))
        if num == 0:
            return 0.0
        den = self.dist(g, x) + self.norm(g)
        if den == 0.0:
            raise InputError("busemann undefined for g = identity = x")
        return num / den

    def ball(self, center, radius, closed=False, budget=DEFAULT_BALL_BUDGET):
        """Exact enumeration of the (open or closed) ball around ``center``."""
        center = self.check(center)
        bound, norm = self._ball_bound(radius, closed), self._norm
        # the largest |coordinate| of an offset within the bound
        reach = math.isqrt(max(bound, 0)) if self.p == 2 else max(bound, 0)
        if (2 * reach + 1) ** self.dim > budget:
            raise ResourceBudgetError(
                f"ball of radius {radius} in Z^{self.dim} exceeds budget {budget}",
                budget=budget,
            )
        return {tuple(c + o for c, o in zip(center, offs))
                for offs in product(range(-reach, reach + 1), repeat=self.dim)
                if norm(offs) <= bound}


class WeightedSum(MetricGroup):
    """Direct sum over generators e_1, e_2, ... with norm sum |x_i| * i.

    Subclasses give ``coefficients(n)``, the nonzero coefficients of one
    generator of absolute value at most n, ``from_pairs``, which turns the
    walk's (index, coefficient) pairs into an element, and ``_sum``, the
    group operation on checked elements.
    """

    def __repr__(self):
        return f"{type(self).__name__}()"

    def op(self, g, h):
        return self._sum(self.check(g), self.check(h))

    def ball(self, center, radius, closed=False, budget=DEFAULT_BALL_BUDGET):
        """Depth-first walk of the (open or closed) ball.  Each node adds one
        generator above the last one used, with a nonzero coefficient that
        fits the bound left, so each node is a new element.  The walk keeps
        one lazy child iterator per level, and the budget bounds its nodes.
        Only the center is checked: the walk builds valid elements."""
        center = self.check(center)
        bound = self._ball_bound(radius, closed)
        if bound < 0:
            return set()

        def children(last, left):
            return ((i, c, left - abs(c) * i) for i in range(last + 1, left + 1)
                    for c in self.coefficients(left // i))

        out, pairs, levels = {center}, [], [children(0, bound)]
        while levels:
            step = next(levels[-1], None)
            if step is None:
                levels.pop()
                if pairs:  # the popped level's node, unless it was the root
                    pairs.pop()
                continue
            i, c, left = step
            pairs.append((i, c))
            out.add(self._sum(self.from_pairs(pairs), center))
            if len(out) > budget:
                raise ResourceBudgetError(
                    f"ball enumeration exceeds budget {budget}", budget=budget,
                    count=len(out))
            levels.append(children(i, left))
        return out


class WeightedFreeAbelian(WeightedSum):
    """Free abelian group on e_1, e_2, ... with norm sum |x_i| * i.

    Elements are sorted tuples of (index, coeff) pairs, coeff != 0.
    """

    @staticmethod
    def coefficients(n):
        """1, -1, 2, -2, ..., n, -n."""
        for c in range(1, n + 1):
            yield c
            yield -c

    def identity(self):
        return ()

    def check(self, g):
        try:
            g = tuple(sorted((_integer(i, "an index"),
                              _integer(c, "a coefficient")) for i, c in g))
        except (TypeError, ValueError) as e:  # an InputError is a ValueError
            raise InputError("an element must be (index, coefficient) "
                             f"integer pairs, got {g!r}") from e
        seen = set()
        for i, c in g:
            if i < 1:
                raise InputError(f"generator index {i} < 1")
            if c == 0:
                raise InputError(f"zero coefficient at index {i}")
            if i in seen:
                raise InputError(f"duplicate index {i}")
            seen.add(i)
        return g

    @staticmethod
    def element(mapping):
        """Build an element from an index -> coefficient mapping."""
        return tuple(sorted((i, c) for i, c in dict(mapping).items() if c != 0))

    from_pairs = element

    def _sum(self, g, h):
        acc = dict(g)
        for i, c in h:
            acc[i] = acc.get(i, 0) + c
        return self.element(acc)

    def inv(self, g):
        return tuple((i, -c) for i, c in self.check(g))

    def norm(self, g):
        return sum(abs(c) * i for i, c in self.check(g))


class DirectSumZ2(WeightedSum):
    """Infinite direct sum of Z/2Z with norm sum(indices); elements are
    frozensets of indices."""

    @staticmethod
    def coefficients(n):
        return (1,)

    @staticmethod
    def from_pairs(pairs):
        return frozenset(i for i, _ in pairs)

    def identity(self):
        return frozenset()

    def check(self, g):
        try:
            g = frozenset(_integer(i, "an index") for i in g)
        except TypeError as e:
            raise InputError("an element must be a set of integer "
                             f"indices, got {g!r}") from e
        for i in g:
            if i < 1:
                raise InputError(f"generator index {i} < 1")
        return g

    _sum = staticmethod(frozenset.symmetric_difference)

    def inv(self, g):
        return self.check(g)

    def norm(self, g):
        return sum(self.check(g))


class BallSequenceViolation:
    """First failed axiom of a ball-sequence construction."""

    def __init__(self, axiom, n, m=None, element=None):
        self.axiom = axiom
        self.n = n
        self.m = m
        self.element = element

    def __repr__(self):
        return (f"BallSequenceViolation(axiom={self.axiom!r}, n={self.n}, "
                f"m={self.m}, element={self.element!r})")


class BallSequenceReport:
    def __init__(self, ok, cutoff, violation=None, group=None):
        self.ok = ok
        self.cutoff = cutoff
        self.violation = violation
        self.group = group


def _tuple_op(g, h):
    return tuple(a + b for a, b in zip(g, h))


def _tuple_inv(g):
    return tuple(-a for a in g)


def ball_sequence_check(sets, cutoff=None, op=_tuple_op, inv=_tuple_inv, identity=None):
    """Check B_0 = {1}, nesting, symmetry and B_n B_m <= B_{n+m} up to the cutoff.

    On success returns a report whose ``group`` is a :class:`BallSequenceGroup`
    carrying the induced metric d(g, h) = min { n : g h^-1 in B_n }.
    """
    sets = [frozenset(s) for s in sets]
    if cutoff is None:
        cutoff = len(sets) - 1
    if cutoff >= len(sets):
        raise InputError(f"cutoff {cutoff} exceeds the {len(sets)} provided sets")
    if identity is None:
        some = next(iter(sets[0])) if sets[0] else None
        identity = tuple(0 for _ in some) if some is not None else None
    if sets[0] != frozenset([identity]):
        return BallSequenceReport(False, cutoff, BallSequenceViolation("identity", 0))
    for n in range(cutoff + 1):
        for g in sets[n]:
            if inv(g) not in sets[n]:
                return BallSequenceReport(
                    False, cutoff, BallSequenceViolation("symmetry", n, element=g))
        if n > 0 and not sets[n - 1] <= sets[n]:
            bad = next(iter(sets[n - 1] - sets[n]))
            return BallSequenceReport(
                False, cutoff, BallSequenceViolation("nesting", n, element=bad))
    for n in range(cutoff + 1):
        for m in range(cutoff + 1 - n):
            for g in sets[n]:
                for h in sets[m]:
                    if op(g, h) not in sets[n + m]:
                        return BallSequenceReport(
                            False, cutoff,
                            BallSequenceViolation("product", n, m, op(g, h)))
    group = BallSequenceGroup(sets, cutoff, op, inv, identity)
    return BallSequenceReport(True, cutoff, group=group)


class BallSequenceGroup(MetricGroup):
    """Metric induced by a checked ball sequence, valid up to its cutoff."""

    def __init__(self, sets, cutoff, op, inv, identity_elt):
        self.sets = sets
        self.cutoff = cutoff
        self._op = op
        self._inv = inv
        self._identity = identity_elt

    def identity(self):
        return self._identity

    def op(self, g, h):
        return self._op(g, h)

    def inv(self, g):
        return self._inv(g)

    def norm(self, g):
        for n in range(self.cutoff + 1):
            if g in self.sets[n]:
                return n
        raise InputError(f"element {g!r} outside the cutoff-{self.cutoff} ball sequence")

    def ball(self, center, radius, closed=False, budget=DEFAULT_BALL_BUDGET):
        n = self._ball_bound(radius, closed)
        if n < 0:
            return set()
        if n > self.cutoff:
            raise ResourceBudgetError(
                f"radius {radius} beyond ball-sequence cutoff {self.cutoff}",
                budget=self.cutoff)
        return {self.op(g, center) for g in self.sets[n]}
