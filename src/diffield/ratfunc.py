"""Canonical multivariate rational functions over Q.

A :class:`RatFunc` stores a coprime numerator/denominator pair whose
denominator is monic under the graded-lex order, so equality of values is
equality of representations.  This is the universal element type: everything
the engine manipulates (generators, twisted-equation coefficients, character
arguments) is one of these.

Q-linear dependence is decided in one place, by evaluation:
:func:`linear_relations` and :func:`express_in_span` build an
:class:`~diffield.linalg.Echelon` over the values of the elements at fixed
integer points, check every kernel vector exactly, and hand its reduced row
echelon form to :func:`~diffield.linalg.integer_kernel` or
:func:`~diffield.linalg.solve_affine`.  :class:`SpanTracker`, which grows a
span one element at a time, asks :func:`express_in_span` about each one.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

from .linalg import Echelon, integer_kernel, solve_affine
from .poly import Q1, Coeff, MPoly, VarId, as_rational, divexact, poly_gcd, poly_lcm


class PoleError(ArithmeticError):
    """A substitution made a denominator identically zero."""


class RatFunc:
    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MPoly, den: MPoly):
        self.num, self.den = _normalize(num, den)
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(MPoly.const(c), MPoly.const(1))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(MPoly(), MPoly.const(1))

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc.const(1)

    @staticmethod
    def var(v: VarId) -> "RatFunc":
        return RatFunc(MPoly.var(v), MPoly.const(1))

    @staticmethod
    def from_poly(p: MPoly) -> "RatFunc":
        return RatFunc(p, MPoly.const(1))

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

    def __rsub__(self, other) -> "RatFunc":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _coerce(other) / self

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return RatFunc.one()
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc(self.num**n, self.den**n)

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
        num, den = self.substitute_parts(images)
        if den.is_zero():
            raise PoleError("pole hit: denominator vanished under substitution")
        return RatFunc(num, den)

    def substitute_parts(self, images: Mapping[VarId, "RatFunc"]) -> tuple[MPoly, MPoly]:
        """Polynomials num', den' with num'/den' == self(images), not reduced.

        An image P_v/Q_v with nonconstant Q_v is cleared with
        d_v = max(deg_v num, deg_v den): a monomial c * prod v^e of num or
        den becomes c * prod P_v^e * Q_v^(d_v - e), with e = 0 for a
        variable the monomial lacks.  Both parts then carry the same factor
        prod Q_v^d_v, which cancels in num'/den'.  With polynomial images
        this is plain substitution.  den' is zero exactly when den vanishes
        at the images.
        """
        polys: dict[VarId, MPoly] = {}
        dens: dict[VarId, tuple[MPoly, int]] = {}
        for v, f in images.items():
            polys[v] = f.num
            if not f.den.is_constant():
                d = max(self.num.degree_in(v), self.den.degree_in(v))
                if d:
                    dens[v] = (f.den, d)
        return _subst_mpoly(self.num, polys, dens), _subst_mpoly(self.den, polys, dens)

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
        if self.den == MPoly.const(1):
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
        return MPoly(), MPoly.const(1)
    if not den.is_constant():
        g = poly_gcd(num, den)
        if not (g.is_constant()):
            num = divexact(num, g)
            den = divexact(den, g)
    lc = den.leading_coefficient()
    if lc != 1:
        inv = Q1 / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _canonical(num: MPoly, den: MPoly) -> RatFunc:
    """A RatFunc from a pair that is already canonical: no gcd, no scaling."""
    r = RatFunc.__new__(RatFunc)
    r.num, r.den = num, den
    r._hash = None
    return r


def _subst_mpoly(p: MPoly, images: Mapping[VarId, MPoly], dens: Mapping[VarId, tuple[MPoly, int]]) -> MPoly:
    """p with images[v] substituted for v, each monomial times prod Q^(d - e) over dens[v] = (Q, d)."""
    powers: dict[tuple[VarId, int], MPoly] = {}  # (v, e): image^e; (v, -k): Q^k

    def power(key: tuple[VarId, int], base: MPoly, e: int) -> MPoly:
        got = powers.get(key)
        if got is None:
            got = powers[key] = base if e == 1 else base**e
        return got

    out: dict = {}
    for m, c in p.terms.items():
        rest = []
        term = None
        for v, e in m:
            image = images.get(v)
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
            s = out.get(mm, 0) + cc
            if s:
                out[mm] = s
            else:
                del out[mm]
    return MPoly(out)  # puts Fraction sums back in coefficient form


def common_denominator(elems: Sequence[RatFunc]) -> MPoly:
    seen: set[MPoly] = set()
    den = MPoly.const(1)
    for e in elems:
        d = e.den
        if d.is_constant() or d in seen:
            continue
        seen.add(d)
        den = poly_lcm(den, d)
    return den


def over_denominator(f: RatFunc, den: MPoly) -> MPoly:
    """The numerator of f over den, a multiple of f.den: f == out / den."""
    return f.num if f.den == den else f.num * divexact(den, f.den)


def clear_denominators(elems: Sequence[RatFunc]) -> list[MPoly]:
    """Numerators over the common denominator D: elems[i] == out[i] / D."""
    den = common_denominator(elems)
    return [over_denominator(e, den) for e in elems]


def _points(nvars: int) -> Iterator[list[int]]:
    """The fixed sequence of integer evaluation points, in a growing box.

    Point k draws its coordinates from [-B, B] with B = 2^(8 + k // 64), from
    a generator of its own seeded with 0, so the sequence is the same in
    every call and every process.
    """
    rng = random.Random(0)
    for k in itertools.count():
        box = 1 << (8 + k // 64)
        yield [rng.randrange(-box, box + 1) for _ in range(nvars)]


def _integer_terms(p: MPoly, index: Mapping[VarId, int]) -> tuple[int, list[tuple[int, tuple]]]:
    """(L, terms) with L * p == sum of c * prod x_i^e over (c, ((i, e), ...)) in terms, all ints.

    Variables become their positions in ``index``, so a point is a list.
    """
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    return den, [
        (c.numerator * (den // c.denominator), tuple((index[v], e) for v, e in m)) for m, c in p.terms.items()
    ]


def _integer_value(terms: list[tuple[int, tuple]], point: list[int]) -> int:
    """The value of :func:`_integer_terms` terms at an integer point."""
    total = 0
    for c, mono in terms:
        for i, e in mono:
            c *= point[i] ** e
        total += c
    return total


def _vanishes(elems: Sequence[RatFunc], z: Mapping[int, Coeff]) -> bool:
    """Exactly whether sum z_i * elems[i] is zero.

    Numerators are summed per denominator, and the sums S_D are cleared
    with the product of the distinct denominators: the sum is zero exactly
    when sum_D S_D * prod_{D' != D} D' is.  No gcd or exact division is
    needed.
    """
    sums: dict[MPoly, MPoly] = {}
    for i, c in z.items():
        e = elems[i]
        part = e.num.scale(c)
        sums[e.den] = sums[e.den] + part if e.den in sums else part
    num, den = MPoly(), MPoly.const(1)
    for d, s in sums.items():
        if s.terms:
            num, den = num * d + s * den, den * d
    return num.is_zero()


def _relation_rref(elems: Sequence[RatFunc]) -> list[list[Coeff]]:
    """The reduced row echelon form of the values of elems at integer
    points, whose kernel is exactly {z : sum z_i * elems[i] = 0}.

    Rows are the values at the points of :func:`_points`, one coordinate per
    variable in sorted ``VarId`` order; a point where a denominator vanishes
    is skipped.  Each row goes to the echelon as integers, its values scaled
    by the lcm of their denominators, which leaves its kernel unchanged; the
    echelon stores it as a primitive integer row, positive at its pivot, and
    its reduced row echelon form comes back in ``Coeff`` form.

    Every relation vanishes at every point, so the kernel of the value rows
    contains the relation space; values that are independent prove the
    elements independent.  Rows are added until the rank is n or
    n rows are in, then every kernel vector is checked exactly with
    :func:`_vanishes`; if one fails, n more rows go in.  Once all pass, the
    row space is the orthogonal complement of the relation space, the same
    as that of any exact coefficient matrix, so the reduced row echelon
    form is too.  A nonzero function of degree d vanishes at a random point
    of [-B, B]^m with probability at most d/(2B + 1) (Schwartz 1980), so a
    failed check is rare.
    """
    n = len(elems)
    variables = sorted(set().union(*(e.variables() for e in elems)))
    index = {v: i for i, v in enumerate(variables)}
    forms = [(_integer_terms(e.num, index), _integer_terms(e.den, index)) for e in elems]
    echelon = Echelon(n)
    points = _points(len(variables))
    rows, budget = 0, n
    while True:
        while rows < budget and len(echelon.pivots) < n:
            point = next(points)
            values = {}
            for j, ((num_scale, num), (den_scale, den)) in enumerate(forms):
                d = _integer_value(den, point)
                if not d:
                    break
                v = _integer_value(num, point)
                if v:
                    values[j] = (v * den_scale, d * num_scale)
            else:
                scale = lcm(*(q for _, q in values.values()))
                echelon.add_row({j: p * (scale // q) for j, (p, q) in values.items()}, 0)
                rows += 1
        if all(_vanishes(elems, z) for z in echelon.kernel()):
            return echelon.rref()
        budget = rows + n


def linear_relations(elements: Sequence[RatFunc]) -> list[tuple[Fraction, ...]]:
    """Basis of the integer relation lattice {z : sum z_i * element_i = 0}.

    The tuples returned are integral and primitive, form a Q-basis of the full
    rational relation space, and generate *all* integer relations (the lattice
    is saturated).  Downstream character checks rely on the last point:
    a circle-valued homomorphism extends exactly when it vanishes on every
    integer relation, and a rescaled rational basis could miss some.  The
    lattice is computed from the reduced row echelon form of the values, so
    its basis depends only on the relation space.
    """
    if not elements:
        raise ValueError("empty element list")
    basis = integer_kernel(_relation_rref(elements), len(elements))
    return [tuple(Fraction(z) for z in vec) for vec in basis]


def express_in_span(basis: Sequence[RatFunc], target: RatFunc) -> list[Fraction] | None:
    """Rational coordinates of target over the basis values, if any.

    With a dependent basis, the coordinates of the free columns of the
    reduced row echelon form are zero; so are all of them when every value
    is zero and the form has no rows.
    """
    matrix = _relation_rref([*basis, target])
    if not matrix:
        return [Fraction(0)] * len(basis)
    rhs = [row.pop() for row in matrix]
    coords = solve_affine(matrix, rhs)
    return None if coords is None else list(map(Fraction, coords))


class SpanTracker:
    """Incremental Q-span membership for rational functions.

    Membership is decided by :func:`express_in_span` over the members kept
    so far, so the tracker holds nothing but them.
    """

    def __init__(self) -> None:
        self.values: list[RatFunc] = []

    def add(self, f: RatFunc) -> bool:
        """Add if independent; returns True when the span grew."""
        if f.is_zero() or express_in_span(self.values, f) is not None:
            return False
        self.values.append(f)
        return True


class CircleValue:
    """Element of the rational circle group Q/Z, written additively.

    Angles live in [0, 1); the group law is addition mod 1.  Restricting to
    rational angles keeps every consistency question exact, and all in-scope
    decisions are Q-linear, so nothing is lost at instance level.  An angle
    is not a coefficient: it is always a ``Fraction``, ``Fraction(0)`` for
    the identity.
    """

    __slots__ = ("angle",)

    def __init__(self, angle) -> None:
        a = Fraction(as_rational(angle))
        self.angle = a - (a.numerator // a.denominator)

    def __add__(self, other: "CircleValue") -> "CircleValue":
        return CircleValue(self.angle + other.angle)

    def __neg__(self) -> "CircleValue":
        return CircleValue(-self.angle)

    def __sub__(self, other: "CircleValue") -> "CircleValue":
        return CircleValue(self.angle - other.angle)

    def scaled(self, q) -> "CircleValue":
        return CircleValue(self.angle * as_rational(q))

    def is_identity(self) -> bool:
        return self.angle == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, CircleValue) and self.angle == other.angle

    def __hash__(self) -> int:
        return hash(("circle", self.angle))

    def __repr__(self) -> str:
        return f"angle({self.angle})"
