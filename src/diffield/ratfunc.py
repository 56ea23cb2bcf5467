"""Canonical multivariate rational functions over Q.

A :class:`RatFunc` stores a coprime numerator/denominator pair whose
denominator is monic under the graded-lex order, so equality of values is
equality of representations.  This is the universal element type: everything
the engine manipulates (generators, twisted-equation coefficients, character
arguments) is one of these.

Only ``RatFunc(num, den)`` normalizes; constructors, sums, products,
powers, inverses, shifts and renamings build results that are canonical by
construction (the :class:`RatFunc` docstring says why).

Q-linear dependence is decided in one place, by evaluation: a
:class:`SpanTracker` reduces each element once, as the row of its values at
integer points, against the independent elements before it, and checks each
dependence exactly.  :func:`linear_relations` hands a tracker's reduced row
echelon form to :func:`~diffield.linalg.integer_kernel`, and
:meth:`SpanTracker.express` gives an element's coordinates over the tracked ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .linalg import Echelon, integer_kernel
from .poly import Q1, Coeff, MPoly, VarId, as_rational, divexact, poly_gcd


P1 = MPoly.const(1)
"""The unit polynomial, the denominator of every polynomial value; never changed."""


class PoleError(ArithmeticError):
    """A substitution made a denominator identically zero."""


class RatFunc:
    """A canonical pair: coprime num and den, with den monic under graded lex.

    ``RatFunc(num, den)`` normalizes through :func:`_normalize`, the one
    normalization: a gcd of the whole pair and a rescaling by the
    denominator's leading coefficient.  Substitution and :meth:`top_form`
    build through it.  Every other result is canonical by construction and
    is built as it is:

    - constants, variables and polynomials are ``p / 1``;
    - a negation, shift or renaming keeps both coprimality and the leading
      coefficient;
    - sums and products take Henrici's forms (see :meth:`__add__` and
      :meth:`__mul__`), which take gcds of parts only;
    - ``num**n / den**n`` is coprime when ``num / den`` is, and a power of a
      monic polynomial is monic;
    - an inverse swaps the coprime pair and divides both by the new
      denominator's leading coefficient.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MPoly, den: MPoly):
        self.num, self.den = _normalize(num, den)
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return _canonical(MPoly.const(c), P1)

    @staticmethod
    def zero() -> "RatFunc":
        return _canonical(MPoly(), P1)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc.const(1)

    @staticmethod
    def var(v: VarId) -> "RatFunc":
        return _canonical(MPoly.var(v), P1)

    @staticmethod
    def from_poly(p: MPoly) -> "RatFunc":
        return _canonical(p, P1)

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise ValueError("not a constant")
        # a constant denominator is 1, since canonical denominators are monic
        return self.num.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def variables(self) -> set[VarId]:
        return self.num.variables() | self.den.variables()

    def shifts(self) -> set[int]:
        return {v.shift for v in self.variables()}

    def valuation(self) -> int:
        """Degree at infinity: deg(num) - deg(den). Only for nonzero values."""
        if self.is_zero():
            raise ValueError("zero has no degree at infinity")
        return self.num.total_degree() - self.den.total_degree()

    def top_form(self) -> "RatFunc":
        """Ratio of the homogeneous top parts (nonzero input)."""
        return RatFunc(self.num.top_form(), self.den.top_form())

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """Henrici's sum of canonical fractions a/b + c/d (Knuth, TAOCP 4.5.1).

        With g = gcd(b, d), b = b'g and d = d'g, the sum is t / (b'd'g) with
        t = a d' + c b'.  A prime factor of b' divides b, hence not a, and
        not d' (g takes all that b and d share); so it does not divide t.
        The same holds for d'.  Hence gcd(t, b'd'g) = gcd(t, g) = g2, and
        (t/g2) / (b' (d/g2)) is coprime.  When b or d is constant, or g = 1,
        nothing cancels.  So the gcds see b, d and the smaller g, never the
        whole numerator against b*d.  Canonical denominators are monic, and
        under the graded order so are their products and exact quotients by
        monic gcds: the result needs no rescaling.  When b and d are both
        constant they are 1, so a zero sum a + c already has denominator 1;
        t = 0 can only happen in the gcd branch.
        """
        other = _coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms:
            return other
        if not c.terms:
            return self
        b_const, d_const = b.is_constant(), d.is_constant()
        if b_const and d_const:
            return _canonical(a + c, b)
        if b_const:
            return _canonical(a * d + c, d)
        if d_const:
            return _canonical(a + c * b, b)
        g = b if b == d else poly_gcd(b, d)
        if g.is_constant():
            return _canonical(a * d + c * b, b * d)
        b1, d1 = divexact(b, g), divexact(d, g)
        t = a * d1 + c * b1
        if not t.terms:
            return RatFunc.zero()
        g2 = poly_gcd(t, g)
        if g2.is_constant():
            return _canonical(t, b1 * d)
        return _canonical(divexact(t, g2), b1 * divexact(d, g2))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _canonical(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "RatFunc":
        """Henrici's product of canonical fractions a/b * c/d (Knuth, TAOCP 4.5.1).

        With g1 = gcd(a, d) and g2 = gcd(c, b), the product is
        (a/g1)(c/g2) / ((b/g2)(d/g1)).  a/g1 is prime to d/g1, and to b/g2
        since a is prime to b; so for c/g2.  The result is coprime, and its
        denominator is a product of exact quotients of monic polynomials by
        monic gcds, hence monic: it needs no rescaling.  A gcd is taken only
        when both of its arguments are nonconstant, so a product of
        polynomials takes none.
        """
        other = _coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms or not c.terms:
            return RatFunc.zero()
        if b.is_constant() and d.is_constant():
            return _canonical(a * c, P1)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _canonical(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        return self * _coerce(other).inv()

    def inv(self) -> "RatFunc":
        """den / num, divided through by the leading coefficient of num; no gcd."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        s = Q1 / self.num.leading_coefficient()
        return _canonical(self.den.scale(s), self.num.scale(s))

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return RatFunc.one()
        if n < 0:
            return self.inv() ** (-n)
        return _canonical(self.num**n, self.den**n)

    def shift(self, k: int) -> "RatFunc":
        """Shift all variables by k; canonicalization is preserved."""
        if k == 0:
            return self
        return _canonical(self.num.shift(k), self.den.shift(k))

    def rename(self, gens: Mapping[int, tuple[int, str]]) -> "RatFunc":
        """Generators renamed as in MPoly.rename; canonicalization is preserved."""
        return _canonical(self.num.rename(gens), self.den.rename(gens))

    # -- substitution / evaluation ---------------------------------------------

    def evaluate(self, assignment: Mapping[VarId, Coeff]) -> "RatFunc":
        """Substitute rational values for some variables and renormalize."""
        return self.substitute({v: RatFunc.const(c) for v, c in assignment.items()})

    def substitute(self, images: Mapping[VarId, "RatFunc"]) -> "RatFunc":
        """Substitute rational functions for variables (the sigma action, evaluation)."""
        if not images:
            return self
        num, den = substitute_polys((self.num, self.den), images)
        if den.is_zero():
            raise PoleError("pole hit: denominator vanished under substitution")
        return RatFunc(num, den)

    # -- equality / printing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        if self.den.is_constant():  # a canonical constant denominator is 1
            return repr(self.num)
        num = repr(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = repr(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"


def _coerce(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, MPoly):
        return RatFunc.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFunc")


def _normalize(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    if den.is_zero():
        raise ZeroDivisionError("division by zero")
    if num.is_zero():
        return MPoly(), P1
    num, den = _cancel(num, den)
    lc = den.leading_coefficient()
    if lc != 1:
        inv = Q1 / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _cancel(p: MPoly, q: MPoly) -> tuple[MPoly, MPoly]:
    """p and q divided by their monic gcd; taken only when both are nonconstant."""
    if p.is_constant() or q.is_constant():
        return p, q
    g = poly_gcd(p, q)
    if g.is_constant():
        return p, q
    return divexact(p, g), divexact(q, g)


def _canonical(num: MPoly, den: MPoly) -> RatFunc:
    """A RatFunc from a pair that is already canonical: no gcd, no scaling."""
    r = RatFunc.__new__(RatFunc)
    r.num, r.den = num, den
    r._hash = None
    return r


def substitute_polys(polys: Sequence[MPoly], images: Mapping[VarId, RatFunc]) -> list[MPoly]:
    """The polys at the images, all times one shared nonzero factor, not reduced.

    An image P_v/Q_v with nonconstant Q_v is cleared with d_v, the largest
    degree of v in the polys: a monomial c * prod v^e becomes
    c * prod P_v^e * Q_v^(d_v - e), e = 0 for a variable it lacks.  So ratios
    of results are ratios of the polys at the images, and a result is zero
    exactly when its poly vanishes there.  Image powers are shared by all.
    """
    subst: dict[VarId, MPoly] = {}
    dens: dict[VarId, tuple[MPoly, int]] = {}
    for v, f in images.items():
        subst[v] = f.num
        if not f.den.is_constant():
            d = max(p.degree_in(v) for p in polys)
            if d:
                dens[v] = (f.den, d)
    powers: dict[tuple[VarId, int], MPoly] = {}  # (v, e): image^e; (v, -k): Q^k

    def power(key: tuple[VarId, int], base: MPoly, e: int) -> MPoly:
        got = powers.get(key)
        if got is None:
            got = powers[key] = base if e == 1 else base**e
        return got

    out = []
    for p in polys:
        terms: dict = {}
        for m, c in p.terms.items():
            rest = []
            term = None
            for v, e in m:
                image = subst.get(v)
                if image is None:
                    rest.append((v, e))
                    continue
                factor = power((v, e), image, e)
                term = factor if term is None else term * factor
            if dens:
                exps = dict(m)
                for v, (q, d) in dens.items():
                    k = d - exps.get(v, 0)
                    if k:
                        factor = power((v, -k), q, k)
                        term = factor if term is None else term * factor
            head = MPoly({tuple(rest): c})
            term = head if term is None else head * term
            for mm, cc in term.terms.items():
                s = terms.get(mm, 0) + cc
                if s:
                    terms[mm] = s
                else:
                    del terms[mm]
        out.append(MPoly(terms))  # puts Fraction sums back in coefficient form
    return out


def _coordinates(v: VarId, points: Sequence[int]) -> list[int]:
    """v's coordinate at each point k, in [-B, B] with B = 2^(8 + k // 64): the
    splitmix64 finalizer over a mix of (k, v.index, v.shift), so an element's
    values depend on nothing else, nor on the process or its hash seed."""
    mask, base = (1 << 64) - 1, v.index * 0xBF58476D1CE4E5B9 + v.shift * 0x94D049BB133111EB
    out = []
    for k in points:
        h = (k * 0x9E3779B97F4A7C15 + base) & mask
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & mask
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & mask
        box = 1 << (8 + k // 64)
        out.append((h ^ (h >> 31)) % (2 * box + 1) - box)
    return out


def _integer_values(p: MPoly, at: dict[VarId, list[int]], points: list[int]) -> tuple[int, list[int]]:
    """(L, values): L * p at each point, all integers, with L the lcm of p's
    coefficient denominators; ``at`` caches the variables' coordinates."""
    den = lcm(*[c.denominator for c in p.terms.values()])
    values = [0] * len(points)
    for m, c in p.terms.items():
        c = c.numerator * (den // c.denominator)
        term = None
        for v, e in m:
            xs = at.get(v)
            if xs is None:
                xs = at[v] = _coordinates(v, points)
            xs = xs if e == 1 else [x**e for x in xs]
            term = xs if term is None else [a * b for a, b in zip(term, xs)]
        values = [a + c for a in values] if term is None else [a + c * b for a, b in zip(values, term)]
    return den, values


def _vanishes(combo: Iterable[tuple[RatFunc, int]]) -> bool:
    """Exactly whether the sum of c * e over the pairs (e, c) is zero.

    Numerators are summed per denominator, and the sums S_D are cleared
    with the product of the distinct denominators: the sum is zero exactly
    when sum_D S_D * prod_{D' != D} D' is.  No gcd or exact division is
    needed.
    """
    sums: dict[MPoly, MPoly] = {}
    for e, c in combo:
        part = e.num.scale(c)
        sums[e.den] = sums[e.den] + part if e.den in sums else part
    num, den = MPoly(), P1
    for d, s in sums.items():
        if s.terms:
            num, den = num * d + s * den, den * d
    return num.is_zero()


class SpanTracker:
    """The Q-linear relations of a growing list of rational functions, by evaluation.

    Element i is one row: its values at the m points (:func:`_coordinates`),
    scaled to integers, and the scale in its tracking column m + i.  Reduced
    against the kept rows, a surviving value proves the element independent,
    exactly, and its row is kept.  Otherwise the tracking columns give its
    coordinates over the kept elements, checked with :func:`_vanishes`.  A
    nonzero function of degree d vanishes at a random point of [-B, B]^n with
    probability at most d/(2B + 1) (Schwartz 1980); a failed check means the
    points did not separate the elements, and the tracker doubles them.  A
    point where an element has a pole is replaced by the next unused one.
    Every answer is exact, so none depends on the points or the history.
    """

    __slots__ = ("elems", "kept", "coords", "points", "at", "echelon")

    def __init__(self, elems: Iterable[RatFunc] = ()) -> None:
        self.elems: list[RatFunc] = []
        self.kept: list[int] = []  # the independent elements, by index
        self.coords: dict[int, dict[int, Fraction]] = {}  # each other one over the kept ones
        self.points, self.at = list(range(8)), {}  # at: coordinates at the points, by variable
        self.echelon = Echelon()
        for f in elems:
            self.add(f)

    def fork(self) -> "SpanTracker":
        """A tracker that grows apart from this one.  Rows and points are
        never changed, so both are shared, and so is ``at`` with the points."""
        t = SpanTracker.__new__(SpanTracker)
        t.elems, t.kept, t.coords = list(self.elems), list(self.kept), dict(self.coords)
        t.points, t.at, t.echelon = self.points, self.at, self.echelon.fork()
        return t

    def add(self, f: RatFunc) -> bool:
        """Append f; True when it is independent of the elements before it (the span grew)."""
        row, coords = self._locate(f)
        i = len(self.elems)
        self.elems.append(f)
        if coords is None:
            self.echelon.insert(row, 0)
            self.kept.append(i)
        else:
            self.coords[i] = coords
        return coords is None

    def express(self, f: RatFunc) -> list[Fraction] | None:
        """f's coordinates over the elements, 0 at each one dependent on those
        before it; None when f is outside their span."""
        coords = self._locate(f)[1]
        return None if coords is None else [coords.get(j, Fraction(0)) for j in range(len(self.elems))]

    def rref(self) -> list[list[Coeff]]:
        """The reduced row echelon form whose kernel is the elements' relation space:
        row p has 1 at kept element p and p's coordinate at each dependent one."""
        rows = {p: [1 if j == p else 0 for j in range(len(self.elems))] for p in self.kept}
        for f, coords in self.coords.items():
            for p, c in coords.items():
                rows[p][f] = c
        return list(rows.values())

    def _locate(self, f: RatFunc) -> tuple[dict[int, int], dict[int, Fraction] | None]:
        """f's row as the next element, reduced, and its coordinates over the
        kept elements (None when f is independent of them)."""
        i = len(self.elems)
        if len(self.kept) == len(self.points):
            self._rebuild(more=True)
        while True:
            row = self._row(f, i)
            if row is None:
                self._rebuild()
                continue
            row = self.echelon.reduce(row, 0)[0]
            m = len(self.points)
            if min(row) < m:
                return row, None
            elems = [*self.elems, f]
            if _vanishes((elems[j - m], t) for j, t in row.items()):
                lead = row.pop(m + i)
                return row, {j - m: Fraction(-t, lead) for j, t in row.items()}
            self._rebuild(more=True)

    def _row(self, f: RatFunc, i: int) -> dict[int, int] | None:
        """Element i, f, as a row; None when f has a pole at a point, which
        is then replaced by the next unused one."""
        points = self.points
        num_scale, nums = _integer_values(f.num, self.at, points)
        den_scale, dens = _integer_values(f.den, self.at, points)
        if 0 in dens:
            j = dens.index(0)
            self.points, self.at = [*points[:j], max(points) + 1, *points[j + 1 :]], {}
            return None
        scale = lcm(*(d for n, d in zip(nums, dens) if n))
        row = {j: n * den_scale * (scale // d) for j, (n, d) in enumerate(zip(nums, dens)) if n}
        row[len(points) + i] = scale * num_scale
        return row

    def _rebuild(self, more: bool = False) -> None:
        """The kept rows again, on twice the points when ``more``; a pole or
        kept values that the points do not separate start it over."""
        if more:
            top = max(self.points) + 1
            self.points, self.at = [*self.points, *range(top, top + len(self.points))], {}
        self.echelon = Echelon()
        for i in self.kept:
            row = self._row(self.elems[i], i)
            if row is None:
                return self._rebuild()
            row = self.echelon.reduce(row, 0)[0]
            if min(row) >= len(self.points):
                return self._rebuild(more=True)
            self.echelon.insert(row, 0)


def linear_relations(elements: Sequence[RatFunc] | SpanTracker) -> list[tuple[Fraction, ...]]:
    """Basis of the integer relation lattice {z : sum z_i * element_i = 0}.

    The tuples returned are integral and primitive, form a Q-basis of the full
    rational relation space, and generate *all* integer relations (the lattice
    is saturated).  Downstream character checks rely on the last point:
    a circle-valued homomorphism extends exactly when it vanishes on every
    integer relation, and a rescaled rational basis could miss some.  The
    lattice is computed from a tracker's reduced row echelon form, so its
    basis depends only on the relation space.
    """
    tracker = elements if isinstance(elements, SpanTracker) else SpanTracker(elements)
    if not tracker.elems:
        raise ValueError("empty element list")
    basis = integer_kernel(tracker.rref(), len(tracker.elems))
    return [tuple(Fraction(z) for z in vec) for vec in basis]


class CircleValue:
    """Element of the rational circle group Q/Z, written additively.

    Angles live in [0, 1); the group law is addition mod 1: callers add the
    ``Fraction`` angles and wrap the sum in a new CircleValue.  Restricting to
    rational angles keeps every consistency question exact, and all in-scope
    decisions are Q-linear, so nothing is lost at instance level.  An angle
    is not a coefficient: it is always a ``Fraction``, ``Fraction(0)`` for
    the identity.
    """

    __slots__ = ("angle",)

    def __init__(self, angle) -> None:
        a = Fraction(as_rational(angle))
        self.angle = a - (a.numerator // a.denominator)

    def is_identity(self) -> bool:
        return self.angle == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, CircleValue) and self.angle == other.angle

    def __hash__(self) -> int:
        return hash(("circle", self.angle))

    def __repr__(self) -> str:
        return f"angle({self.angle})"
