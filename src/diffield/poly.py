"""Exact sparse multivariate polynomials over the rationals.

Variables are shift-indexed: a :class:`VarId` names a generator together with
an integer shift (the k-th image of the generator under the field
automorphism).  Variables are totally ordered by generator declaration index,
then shift; monomials are compared in graded lexicographic order with respect
to that variable order, which fixes canonical forms everywhere downstream.

A polynomial is a mapping from monomials to nonzero ``Fraction`` coefficients.
A monomial is a tuple of ``(VarId, exponent)`` pairs, sorted by variable,
with every exponent positive.  The zero polynomial has no terms.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Collection, Mapping

Q0 = Fraction(0)
Q1 = Fraction(1)


def as_rational(c) -> Fraction:
    """An ``int`` or ``Fraction`` as a ``Fraction``; anything else is a TypeError.

    Floats, strings and other number types are refused rather than converted,
    so no inexact value enters the exact arithmetic.
    """
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"expected an int or a Fraction, got {type(c).__name__} {c!r}")


class VarId(tuple):
    """A generator at a given shift, built as ``VarId(index, name, shift)``.

    ``index`` is the generator's declaration position; it drives the variable
    order, so canonical forms agree between a presentation and its
    sub-presentations (which keep the ambient indices).  The value is stored
    as the tuple ``(index, shift, name)``: tuple hashing, equality and
    ordering then give the variable order directly, and run in C.
    """

    __slots__ = ()

    def __new__(cls, index: int, name: str, shift: int = 0) -> "VarId":
        return tuple.__new__(cls, (index, shift, name))

    def __getnewargs__(self) -> tuple[int, str, int]:
        # pickle and copy rebuild through __new__, which takes (index, name, shift)
        return (self[0], self[2], self[1])

    index = property(itemgetter(0))
    shift = property(itemgetter(1))
    name = property(itemgetter(2))

    def key(self) -> "VarId":
        return self

    def shifted(self, k: int) -> "VarId":
        return tuple.__new__(VarId, (self[0], self[1] + k, self[2]))

    def __repr__(self) -> str:
        if self[1] == 0:
            return self[2]
        return f"{self[2]}[{self[1]}]"


Monomial = tuple[tuple[VarId, int], ...]

ONE_MONO: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: dict[VarId, int] = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff monomial ``a`` divides ``b``."""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b; caller guarantees divisibility."""
    out = dict(a)
    for v, e in b:
        r = out[v] - e
        if r:
            out[v] = r
        else:
            del out[v]
    return tuple(sorted(out.items()))


def mono_cmp(a: Monomial, b: Monomial) -> int:
    """Graded lexicographic comparison (positive when a > b)."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return 1 if da > db else -1
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            if ea != eb:
                # Same leading variable: larger exponent is lex-larger.
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif va < vb:
            return 1  # a has the earlier variable with positive exponent
        else:
            return -1
    if ia < len(a):
        return 1
    if ib < len(b):
        return -1
    return 0


MONO_KEY = functools.cmp_to_key(mono_cmp)


def mono_shift(m: Monomial, k: int) -> Monomial:
    # Shifting all variables by the same k preserves the variable order,
    # so the pair tuple stays sorted.
    return tuple((v.shifted(k), e) for v, e in m)


class MPoly:
    """Sparse polynomial with ``Fraction`` coefficients, always canonical."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c if isinstance(c, Fraction) else as_rational(c)
        self.terms: dict[Monomial, Fraction] = t
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly()

    @staticmethod
    def const(c) -> "MPoly":
        c = as_rational(c)
        return MPoly({ONE_MONO: c}) if c else MPoly()

    @staticmethod
    def var(v: VarId) -> "MPoly":
        return MPoly({((v, 1),): Q1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Q0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[ONE_MONO]

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set[VarId]:
        out: set[VarId] = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, v: VarId) -> int:
        d = 0
        for m in self.terms:
            for w, e in m:
                if w == v and e > d:
                    d = e
        return d

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        best = None
        for m in self.terms:
            if best is None or mono_cmp(m, best) > 0:
                best = m
        return best

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def top_form(self) -> "MPoly":
        """Homogeneous part of maximal total degree."""
        d = self.total_degree()
        return MPoly({m: c for m, c in self.terms.items() if mono_degree(m) == d})

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda p: MONO_KEY(p[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Q0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = MPoly.__new__(MPoly)
        p.terms = out
        p._hash = None
        return p

    def __neg__(self) -> "MPoly":
        p = MPoly.__new__(MPoly)
        p.terms = {m: -c for m, c in self.terms.items()}
        p._hash = None
        return p

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        if not self.terms or not other.terms:
            return MPoly()
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                s = out.get(m, Q0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = MPoly.__new__(MPoly)
        p.terms = out
        p._hash = None
        return p

    def scale(self, c) -> "MPoly":
        c = as_rational(c)
        if not c:
            return MPoly()
        p = MPoly.__new__(MPoly)
        p.terms = {m: cc * c for m, cc in self.terms.items()}
        p._hash = None
        return p

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "MPoly":
        """Shift every variable by k (the free-generator action)."""
        if k == 0 or not self.terms:
            return self
        p = MPoly.__new__(MPoly)
        p.terms = {mono_shift(m, k): c for m, c in self.terms.items()}
        p._hash = None
        return p

    # -- equality / hashing / printing --------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m == ONE_MONO:
                body = str(c)
            else:
                factors = []
                for v, e in m:
                    factors.append(repr(v) if e == 1 else f"{v!r}^{e}")
            # coefficient formatting
                body = "*".join(factors)
                if c == -1:
                    body = "-" + body
                elif c != 1:
                    body = f"{c}*{body}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out


# -- division and gcd ---------------------------------------------------------


def divexact(a: MPoly, b: MPoly) -> MPoly:
    """Exact quotient a / b; raises ValueError when b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return MPoly()
    if b.is_constant():
        return a.scale(Q1 / b.constant_value())
    quot: dict[Monomial, Fraction] = {}
    rem = a
    lm_b = b.leading_monomial()
    lc_b = b.terms[lm_b]
    while not rem.is_zero():
        lm_r = rem.leading_monomial()
        if not mono_divides(lm_b, lm_r):
            raise ValueError("inexact polynomial division")
        m = mono_div(lm_r, lm_b)
        c = rem.terms[lm_r] / lc_b
        quot[m] = c
        rem = rem - MPoly({m: c}) * b
    return MPoly(quot)


def to_univar(p: MPoly, v: VarId) -> dict[int, MPoly]:
    """View p as a polynomial in v with coefficients free of v."""
    out: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in p.terms.items():
        deg = 0
        rest: list[tuple[VarId, int]] = []
        for w, e in m:
            if w == v:
                deg = e
            else:
                rest.append((w, e))
        out.setdefault(deg, {})[tuple(rest)] = c
    return {d: MPoly(t) for d, t in out.items()}


def _from_univar(coeffs: dict[int, MPoly], v: VarId) -> MPoly:
    vp = MPoly.var(v)
    result = MPoly()
    for d in sorted(coeffs):
        result = result + coeffs[d] * vp**d
    return result


def _univar_degree(coeffs: dict[int, MPoly]) -> int:
    degs = [d for d, c in coeffs.items() if not c.is_zero()]
    return max(degs) if degs else -1


def _prem(a: dict[int, MPoly], b: dict[int, MPoly]) -> dict[int, MPoly]:
    """Pseudo-remainder of a by b, viewed univariately (b nonzero)."""
    da, db = _univar_degree(a), _univar_degree(b)
    lb = b[db]
    r = dict(a)
    while True:
        dr = _univar_degree(r)
        if dr < db:
            return r
        lr = r[dr]
        # r := lb*r - lr * x^(dr-db) * b
        new: dict[int, MPoly] = {}
        for d, c in r.items():
            new[d] = c * lb
        for d, c in b.items():
            t = c * lr
            nd = d + dr - db
            new[nd] = new.get(nd, MPoly()) - t
        r = {d: c for d, c in new.items() if not c.is_zero()}
        if not r:
            return r


def _int_primitive(p: MPoly) -> MPoly:
    """Rescale to integer coefficients with gcd 1 and positive leading sign.

    Keeping every intermediate of the PRS integer-primitive is what keeps the
    integer sizes at subresultant scale instead of exploding through Fraction
    normalization.
    """
    if p.is_zero():
        return p
    q = p.scale(_int_content_scale(p.terms.values()))
    if q.leading_coefficient() < 0:
        q = q.scale(-1)
    return q


def _int_content_scale(coeffs: Collection[Fraction]) -> Fraction:
    """Positive s making s*coeffs integers with gcd 1 (1 when all are 0).

    s is the lcm of the denominators over the gcd of the cleared numerators.
    """
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    num = 0
    for c in coeffs:
        num = gcd(num, c.numerator * (den // c.denominator))
    return Fraction(den, num) if num else Q1


def _content(coeffs: dict[int, MPoly]) -> MPoly:
    g = MPoly()
    for c in coeffs.values():
        g = _gcd_primitive(g, c)
        if g.is_constant() and not g.is_zero():
            break
    return g if not g.is_zero() else MPoly.const(1)


def _monic(p: MPoly) -> MPoly:
    if p.is_zero():
        return p
    return p.scale(Q1 / p.leading_coefficient())


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Monic gcd in Q[variables] via the primitive Euclidean algorithm."""
    return _monic(_gcd_primitive(a, b))


def _gcd_primitive(a: MPoly, b: MPoly) -> MPoly:
    if a.is_zero():
        return _int_primitive(b)
    if b.is_zero():
        return _int_primitive(a)
    if a.is_constant() or b.is_constant():
        return MPoly.const(1)
    if len(a.terms) == 1:
        return _monomial_gcd(a, b)
    if len(b.terms) == 1:
        return _monomial_gcd(b, a)
    a = _int_primitive(a)
    b = _int_primitive(b)
    avars = a.variables()
    bvars = b.variables()
    v = _main_variable(a, b, avars | bvars)
    if v not in avars:
        # gcd divides a, which is free of v: reduce b to its v-content.
        return _gcd_primitive(a, _content(to_univar(b, v)))
    if v not in bvars:
        return _gcd_primitive(_content(to_univar(a, v)), b)
    ua = to_univar(a, v)
    ub = to_univar(b, v)
    ca = _content(ua)
    cb = _content(ub)
    cont = _gcd_primitive(ca, cb)
    pa = {d: divexact(c, ca) for d, c in ua.items()}
    pb = {d: divexact(c, cb) for d, c in ub.items()}
    if _univar_degree(pa) < _univar_degree(pb):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb)
        if not r:
            break
        r = _strip_int_content_univar(r)
        cr = _content(r)
        pa = pb
        pb = {d: divexact(c, cr) for d, c in r.items()}
        pb = _strip_int_content_univar(pb)
    g = _from_univar(pb, v) * cont
    return _int_primitive(g)


def _monomial_gcd(single: MPoly, other: MPoly) -> MPoly:
    """gcd when one side is a single term: the shared monomial factor."""
    (mono,) = single.terms
    out = []
    for v, e in mono:
        low = e
        for m in other.terms:
            dv = 0
            for w, f in m:
                if w == v:
                    dv = f
                    break
            if dv < low:
                low = dv
            if low == 0:
                break
        if low > 0:
            out.append((v, low))
    return MPoly({tuple(out): Q1})


def _strip_int_content_univar(coeffs: dict[int, MPoly]) -> dict[int, MPoly]:
    scale = _int_content_scale([coef for c in coeffs.values() for coef in c.terms.values()])
    if scale == 1:
        return coeffs
    return {d: c.scale(scale) for d, c in coeffs.items()}


def _main_variable(a: MPoly, b: MPoly, candidates: set[VarId]) -> VarId:
    # Prefer the variable with the smallest combined degree: fewer
    # pseudo-division rounds and smaller coefficient growth.
    return min(candidates, key=lambda v: (a.degree_in(v) + b.degree_in(v), v))


def poly_lcm(a: MPoly, b: MPoly) -> MPoly:
    if a.is_zero() or b.is_zero():
        return MPoly()
    if a.is_constant():
        return _monic(b)
    if b.is_constant():
        return _monic(a)
    if a == b:
        return _monic(a)
    return _monic(divexact(a * b, poly_gcd(a, b)))
