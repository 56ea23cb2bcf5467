"""Canonical multivariate rational functions over Q.

A :class:`RatFunc` stores a coprime numerator/denominator pair whose
denominator is monic under the graded-lex order, so equality of values is
equality of representations.  This is the universal element type: everything
the engine manipulates (generators, twisted-equation coefficients, character
arguments) is one of these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import Echelon, integer_kernel, solve_affine
from .poly import MPoly, VarId, as_rational, divexact, poly_gcd, poly_lcm

Q0 = Fraction(0)
Q1 = Fraction(1)


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

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        if self.num.is_zero():
            return Q0
        return self.num.constant_value() / self.den.constant_value()

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

    # -- substitution / evaluation ---------------------------------------------

    def evaluate(self, assignment: Mapping[VarId, Fraction]) -> "RatFunc":
        """Substitute rational values for some variables and renormalize."""
        num = self.num.eval_partial(assignment)
        den = self.den.eval_partial(assignment)
        if den.is_zero():
            raise PoleError("pole hit: denominator vanished under substitution")
        return RatFunc(num, den)

    def substitute(self, images: Mapping[VarId, "RatFunc"]) -> "RatFunc":
        """Substitute rational functions for variables (used by the sigma action)."""
        if not images:
            return self
        parts = self.substitute_parts(images)
        if parts is None:
            num, den = _subst_poly(self.num, images), _subst_poly(self.den, images)
        else:
            num, den = parts
        if den.is_zero():
            raise PoleError("pole hit: denominator vanished under substitution")
        return num / den if parts is None else RatFunc(num, den)

    def substitute_parts(self, images: Mapping[VarId, "RatFunc"]) -> tuple[MPoly, MPoly] | None:
        """The substituted numerator and denominator, when every image is a polynomial.

        Both are then polynomials, computed with ``MPoly`` arithmetic and not
        reduced against each other; None when some image has a denominator.
        """
        polys = {}
        for v, f in images.items():
            if not f.den.is_constant():
                return None
            polys[v] = f.num
        return _subst_mpoly(self.num, polys), _subst_mpoly(self.den, polys)

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


def _subst_mpoly(p: MPoly, images: Mapping[VarId, MPoly]) -> MPoly:
    """p with polynomials substituted for some of its variables."""
    powers: dict[tuple[VarId, int], MPoly] = {}
    out: dict = {}
    for m, c in p.terms.items():
        rest = []
        term = None
        for v, e in m:
            image = images.get(v)
            if image is None:
                rest.append((v, e))
                continue
            power = powers.get((v, e))
            if power is None:
                power = powers[(v, e)] = image if e == 1 else image**e
            term = power if term is None else term * power
        head = MPoly({tuple(rest): c})
        term = head if term is None else head * term
        for mm, cc in term.terms.items():
            s = out.get(mm, Q0) + cc
            if s:
                out[mm] = s
            else:
                del out[mm]
    return MPoly(out)


def _subst_poly(p: MPoly, images: Mapping[VarId, RatFunc]) -> RatFunc:
    power_cache: dict[tuple[VarId, int], RatFunc] = {}

    def power(v: VarId, e: int) -> RatFunc:
        key = (v, e)
        got = power_cache.get(key)
        if got is None:
            got = images[v] ** e
            power_cache[key] = got
        return got

    total = RatFunc.zero()
    for m, c in p.terms.items():
        term = RatFunc.const(c)
        for v, e in m:
            if v in images:
                term = term * power(v, e)
            else:
                term = term * RatFunc(MPoly({((v, e),): Q1}), MPoly.const(1))
        total = total + term
    return total


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


def _coefficient_matrix(elems: Sequence[RatFunc]) -> list[list[Fraction]]:
    """Cleared coefficients: one row per monomial, one column per element.

    Rows are in ``str`` order of the monomials, which fixes the lattice bases
    and the witnesses that reports print.
    """
    cleared = clear_denominators(elems)
    monomials = sorted({m for p in cleared for m in p.terms}, key=str)
    return [[p.terms.get(m, Q0) for p in cleared] for m in monomials]


def linear_relations(elements: Sequence[RatFunc]) -> list[tuple[Fraction, ...]]:
    """Basis of the integer relation lattice {z : sum z_i * element_i = 0}.

    The tuples returned are integral and primitive, form a Q-basis of the full
    rational relation space, and generate *all* integer relations (the lattice
    is saturated).  Downstream character checks rely on the last point:
    a circle-valued homomorphism extends exactly when it vanishes on every
    integer relation, and a rescaled rational basis could miss some.
    """
    if not elements:
        raise ValueError("empty element list")
    basis = integer_kernel(_coefficient_matrix(elements), len(elements))
    return [tuple(Fraction(z) for z in vec) for vec in basis]


def express_in_span(basis: Sequence[RatFunc], target: RatFunc) -> list[Fraction] | None:
    """Rational coordinates of target over the basis values, if any."""
    matrix = _coefficient_matrix([*basis, target])
    rhs = [row.pop() for row in matrix]
    return solve_affine(matrix, rhs)


class SpanTracker:
    """Incremental Q-span membership for rational functions.

    Keeps a common denominator and feeds the cleared numerators, one row per
    element with one column per monomial, to an :class:`Echelon`; adding an
    element whose denominator does not divide the current one triggers a
    re-clearing of the stored elements.  Candidates should be grouped by
    denominator where possible to keep rebuilds rare.
    """

    def __init__(self) -> None:
        self.values: list[RatFunc] = []
        self.den: MPoly = MPoly.const(1)
        self._columns: dict = {}
        self._echelon = Echelon()

    def _add_row(self, f: RatFunc) -> bool:
        poly = over_denominator(f, self.den)
        columns = self._columns
        row = {columns.setdefault(m, len(columns)): c for m, c in poly.terms.items()}
        return self._echelon.add_row(row, Q0)

    def add(self, f: RatFunc) -> bool:
        """Add if independent; returns True when the span grew."""
        if f.is_zero():
            return False
        new_den = poly_lcm(self.den, f.den)
        if new_den != self.den:
            self.den = new_den
            self._columns = {}
            self._echelon = Echelon()
            for v in self.values:
                self._add_row(v)
        if not self._add_row(f):
            return False
        self.values.append(f)
        return True


class CircleValue:
    """Element of the rational circle group Q/Z, written additively.

    Angles live in [0, 1); the group law is addition mod 1.  Restricting to
    rational angles keeps every consistency question exact, and all in-scope
    decisions are Q-linear, so nothing is lost at instance level.
    """

    __slots__ = ("angle",)

    def __init__(self, angle) -> None:
        a = as_rational(angle)
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
