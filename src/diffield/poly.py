"""Exact sparse multivariate polynomials over the rationals.

Variables are shift-indexed: a :class:`VarId` names a generator together with
an integer shift (the k-th image of the generator under the field
automorphism).  Variables are totally ordered by generator declaration index,
then shift; monomials are compared in graded lexicographic order with respect
to that variable order (:func:`MONO_KEY`, a sort key of plain tuples compared
in C), which fixes canonical forms everywhere downstream.

A polynomial is a mapping from monomials to nonzero rational coefficients.
A coefficient is a :data:`Coeff`: an ``int`` when it is integral, otherwise a
``Fraction`` whose denominator is not 1.  :func:`as_rational` writes that
form, and every builder of a term dict keeps it, so the common integral case
runs on Python ints.  ``Fraction(3) == 3``, ``hash(Fraction(3)) == hash(3)``
and ``str(Fraction(3)) == "3"``, so equality, hashing and printing cannot see
the type.  A monomial is a tuple of ``(VarId, exponent)`` pairs, sorted by
variable, with every exponent positive.  The zero polynomial has no terms.

:func:`poly_gcd` runs Knuth's primitive PRS (TAOCP vol. 2, 4.6.1) on integer
term dicts ``{monomial: int}``, cleared of denominators once; it builds one
MPoly of the result.  Two sides in disjoint sets of variables have gcd 1
before any pseudo-division: a factor of a polynomial involves only the
polynomial's variables, so a common factor involves none and is a constant.
Shifts count as variables apart, so g and g[1] share none.
:func:`coeff_str` prints a coefficient, also an int past Python's digit limit
on int-to-str conversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Mapping

Coeff = int | Fraction
"""A coefficient: an ``int`` when integral, else a ``Fraction`` with denominator > 1."""

Q1 = Fraction(1)


def as_rational(c) -> Coeff:
    """An ``int`` or ``Fraction`` in coefficient form; anything else is a TypeError.

    An integral value comes back as an ``int`` and any other as a
    ``Fraction``.  Floats, strings and other number types are refused rather
    than converted, so no inexact value enters the exact arithmetic.  Since
    ``int / int`` is a float, a quotient of coefficients must divide a
    ``Fraction`` (``Q1 / c``, ``Fraction(a) / b``) before it comes here.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"expected an int or a Fraction, got {type(c).__name__} {c!r}")


def coeff_str(c: Coeff) -> str:
    """``str(c)``, also for an int past Python's digit limit on int-to-str conversion."""
    try:
        return str(c)
    except ValueError:
        if type(c) is not int:
            return f"{coeff_str(c.numerator)}/{coeff_str(c.denominator)}"
    chunk, low_digits, n = 10**1000, [], abs(c)
    while n >= chunk:
        n, low = divmod(n, chunk)
        low_digits.append(str(low).zfill(1000))
    return ("-" if c < 0 else "") + str(n) + "".join(reversed(low_digits))


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


def MONO_KEY(m: Monomial) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Sort key of the graded lexicographic order: the larger key, the larger monomial.

    The degree, then ``(-index, -shift, exponent)`` per factor in variable
    order: the earlier variable and, on one variable, the larger exponent
    win, and a proper prefix loses.  ``(index, shift)`` stands for the whole
    VarId because one index names one generator: ``Presentation.validate``
    refuses a duplicate index and ``check_value`` a variable named otherwise.
    """
    deg = 0
    out = []
    for (i, s, _), e in m:
        deg += e
        out.append((-i, -s, e))
    return deg, tuple(out)


def mono_shift(m: Monomial, k: int) -> Monomial:
    # Shifting all variables by the same k preserves the variable order,
    # so the pair tuple stays sorted.
    return tuple((v.shifted(k), e) for v, e in m)


class MPoly:
    """Sparse polynomial with :data:`Coeff` coefficients, always canonical."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c if type(c) is int else as_rational(c)
        self.terms: dict[Monomial, Coeff] = t
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        c = as_rational(c)
        return MPoly({ONE_MONO: c}) if c else MPoly()

    @staticmethod
    def var(v: VarId) -> "MPoly":
        return MPoly({((v, 1),): 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONO in self.terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return 0
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
        t = self.terms
        if len(t) == 1:  # no key to compute
            return next(iter(t))
        if not t:
            raise ValueError("zero polynomial has no leading monomial")
        return max(t, key=MONO_KEY)

    def leading_coefficient(self) -> Coeff:
        return self.terms[self.leading_monomial()]

    def top_form(self) -> "MPoly":
        """Homogeneous part of maximal total degree."""
        d = self.total_degree()
        return MPoly({m: c for m, c in self.terms.items() if mono_degree(m) == d})

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        t = self.terms
        return [(m, t[m]) for m in sorted(t, key=MONO_KEY, reverse=True)]

    # -- arithmetic ---------------------------------------------------------
    #
    # Sums and products start from the int 0 and are put back in coefficient
    # form only when they come out as a Fraction, so int terms stay on the
    # int path.

    def __add__(self, other: "MPoly") -> "MPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = as_rational(s) if type(s) is Fraction else s
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
        """The product; a constant operand scales the other one.

        A product by the constant 1 is the other operand itself, not a copy,
        as a sum with zero is: an MPoly is never changed once built.
        """
        a, b = self.terms, other.terms
        if not a or not b:
            return MPoly()
        if len(b) == 1 and ONE_MONO in b:
            return self.scale(b[ONE_MONO])
        if len(a) == 1 and ONE_MONO in a:
            return other.scale(a[ONE_MONO])
        p = MPoly.__new__(MPoly)
        p.terms = _mul_into({}, a, b)
        p._hash = None
        return p

    def scale(self, c) -> "MPoly":
        """self * c for a rational c; scaling by 1 returns self."""
        c = as_rational(c)
        if not c:
            return MPoly()
        if c == 1:
            return self
        p = MPoly.__new__(MPoly)
        p.terms = {m: as_rational(cc * c) for m, cc in self.terms.items()}
        p._hash = None
        return p

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MPoly.const(1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def shift(self, k: int) -> "MPoly":
        """Shift every variable by k (the free-generator action)."""
        if k == 0 or self.is_constant():
            return self
        p = MPoly.__new__(MPoly)
        p.terms = {mono_shift(m, k): c for m, c in self.terms.items()}
        p._hash = None
        return p

    def rename(self, gens: Mapping[int, tuple[int, str]]) -> "MPoly":
        """Generator ``i`` renamed to ``gens[i] = (index, name)`` in every variable, shifts kept.

        ``gens`` must be strictly increasing in index (ValueError otherwise).
        The variable order is then kept, so monomials stay sorted and a
        canonical form renames to a canonical form with no re-sort.  A
        generator missing from ``gens`` raises KeyError.
        """
        targets = [gens[i][0] for i in sorted(gens)]
        if any(a >= b for a, b in zip(targets, targets[1:])):
            raise ValueError("a renaming must be strictly increasing in index")
        new = {v: VarId(*gens[v.index], v.shift) for v in self.variables()}
        p = MPoly.__new__(MPoly)
        p.terms = {tuple((new[v], e) for v, e in m): c for m, c in self.terms.items()}
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
            body = "*".join(repr(v) if e == 1 else f"{v!r}^{e}" for v, e in m)
            if m == ONE_MONO:
                body = coeff_str(c)
            elif c == -1:
                body = "-" + body
            elif c != 1:
                body = f"{coeff_str(c)}*{body}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out


# -- division and gcd ---------------------------------------------------------
#
# By Gauss's lemma an exact quotient of an integer polynomial by an
# integer-primitive one is integral, and a product of integer-primitive
# polynomials is integer-primitive: the gcd kernel's steps stay in int.


def _mul_into(out: dict, a: Mapping[Monomial, Coeff], b: Mapping[Monomial, Coeff]) -> dict:
    """out + a*b over term dicts, written into out; a Fraction sum is put back in coefficient form."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = as_rational(s) if type(s) is Fraction else s
            else:
                out.pop(m, None)
    return out


def _divide(a: dict, b: dict, quo) -> dict:
    """The exact quotient of term dicts a / b, with ``quo`` dividing coefficients.

    ValueError when a leading monomial of the remainder is not a multiple
    of b's; an inexact ``quo`` is the caller's to rule out.
    """
    lm_b = max(b, key=MONO_KEY)
    lc_b = b[lm_b]
    rest = [(m, c) for m, c in b.items() if m != lm_b]
    rem, out = dict(a), {}
    while rem:
        lm = max(rem, key=MONO_KEY)
        if not mono_divides(lm_b, lm):
            raise ValueError("inexact polynomial division")
        m = mono_div(lm, lm_b)
        c = out[m] = quo(rem.pop(lm), lc_b)
        for mb, cb in rest:
            mm = mono_mul(m, mb)
            s = rem.get(mm, 0) - c * cb
            if s:
                rem[mm] = s
            else:
                del rem[mm]
    return out


def divexact(a: MPoly, b: MPoly) -> MPoly:
    """Exact quotient a / b; raises ValueError when b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return MPoly()
    if b.is_constant():
        return a.scale(Q1 / b.constant_value())
    return MPoly(_divide(a.terms, b.terms, lambda x, y: as_rational(Fraction(x) / y)))


def _univar(t: Mapping[Monomial, Coeff], v: VarId) -> dict[int, dict[Monomial, Coeff]]:
    """Term dict t as {degree in v: term dict free of v}."""
    out: dict[int, dict[Monomial, Coeff]] = {}
    for m, c in t.items():
        for i, (w, e) in enumerate(m):
            if w == v:
                out.setdefault(e, {})[m[:i] + m[i + 1 :]] = c
                break
        else:
            out.setdefault(0, {})[m] = c
    return out


def to_univar(p: MPoly, v: VarId) -> dict[int, MPoly]:
    """View p as a polynomial in v with coefficients free of v."""
    return {d: MPoly(t) for d, t in _univar(p.terms, v).items()}


def _monic(p: MPoly) -> MPoly:
    if p.is_zero() or p.leading_coefficient() == 1:
        return p
    return p.scale(Q1 / p.leading_coefficient())


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Monic gcd in Q[variables]: the primitive Euclidean algorithm of ``_gcd_primitive``."""
    ta, tb = a.terms, b.terms
    if not ta or not tb:
        return _monic(b if not ta else a)
    if len(ta) == 1 or len(tb) == 1:  # a cheap exit: a monomial, already monic
        return MPoly(_gcd_primitive(ta, tb))
    return _monic(MPoly(_gcd_primitive(_cleared(ta), _cleared(tb))))


def _cleared(t: Mapping[Monomial, Coeff]) -> dict[Monomial, int]:
    """t times the lcm of its denominators: an integer term dict."""
    den = lcm(*[c.denominator for c in t.values()])
    return t if den == 1 else {m: c.numerator * (den // c.denominator) for m, c in t.items()}


def _stripped(t: dict[Monomial, int]) -> dict[Monomial, int]:
    """t over the gcd of its coefficients: integer-primitive, sign kept."""
    k = gcd(*t.values())
    return t if k == 1 else {m: c // k for m, c in t.items()}


def _gcd_primitive(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """The gcd of nonzero integer term dicts: integer-primitive, positive leading coefficient.

    Knuth's primitive PRS (TAOCP vol. 2, 4.6.1) in the variable of least
    combined degree, over the contents in the other variables.  A constant
    or one-term side may have any coefficients: its exit does not read them.
    """
    if (len(a) == 1 and ONE_MONO in a) or (len(b) == 1 and ONE_MONO in b):
        return {ONE_MONO: 1}
    if len(a) == 1:
        return _monomial_gcd(a, b)
    if len(b) == 1:
        return _monomial_gcd(b, a)
    a, b = _stripped(a), _stripped(b)
    da, db = _degrees(a), _degrees(b)
    if da.keys().isdisjoint(db):  # no variable in common: see the module docstring
        return {ONE_MONO: 1}
    # Fewest pseudo-division rounds and least coefficient growth.
    v = min(da.keys() | db.keys(), key=lambda v: (da.get(v, 0) + db.get(v, 0), v))
    if v not in da:
        # gcd divides a, which is free of v: reduce b to its v-content.
        return _gcd_primitive(a, _content(_univar(b, v)))
    if v not in db:
        return _gcd_primitive(_content(_univar(a, v)), b)
    ua, ub = _univar(a, v), _univar(b, v)
    ca, cb = _content(ua), _content(ub)
    cont = _gcd_primitive(ca, cb)
    pa, pb = _over(ua, ca), _over(ub, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while r := _prem(pa, pb):
        k = gcd(*[c for t in r.values() for c in t.values()])
        if k != 1:  # the integer-content strip
            r = {d: {m: c // k for m, c in t.items()} for d, t in r.items()}
        # r and its content are integer-primitive, so their quotient is too (Gauss)
        pa, pb = pb, _over(r, _content(r))
    g = {}
    for d in sorted(pb):
        g.update((mono_mul(m, ((v, d),)) if d else m, c) for m, c in pb[d].items())
    if cont != {ONE_MONO: 1}:
        g = _mul_into({}, g, cont)
    # primitive by Gauss, as pb and cont are; the sign makes it the primitive gcd
    if g[max(g, key=MONO_KEY)] < 0:
        g = {m: -c for m, c in g.items()}
    return g


def _degrees(t: dict[Monomial, int]) -> dict[VarId, int]:
    out: dict[VarId, int] = {}
    for m in t:
        for v, e in m:
            if e > out.get(v, 0):
                out[v] = e
    return out


def _content(coeffs: dict[int, dict[Monomial, int]]) -> dict[Monomial, int]:
    """The primitive gcd of the coefficients: constant 1 once it is constant."""
    g = None
    for c in coeffs.values():
        g = _stripped(c) if g is None else _gcd_primitive(g, c)
        if len(g) == 1 and ONE_MONO in g:
            return {ONE_MONO: 1}
    return g


def _over(u: dict[int, dict[Monomial, int]], c: dict[Monomial, int]) -> dict[int, dict[Monomial, int]]:
    """Every coefficient of u over c, which divides each one."""
    if c == {ONE_MONO: 1}:
        return u
    return {d: _divide(t, c, int.__floordiv__) for d, t in u.items()}


def _prem(a: dict[int, dict], b: dict[int, dict]) -> dict[int, dict]:
    """Pseudo-remainder of univariate a by b (b nonzero); zero coefficients dropped."""
    db = max(b)
    lb = b[db]
    r = a
    while r and (dr := max(r)) >= db:
        # r := lb*r - lr * v^(dr-db) * b
        neg_lr = {m: -c for m, c in r[dr].items()}
        new = {d: _mul_into({}, c, lb) for d, c in r.items()}
        for d, c in b.items():
            _mul_into(new.setdefault(d + dr - db, {}), c, neg_lr)
        r = {d: c for d, c in new.items() if c}
    return r


def _monomial_gcd(single: dict[Monomial, Coeff], other: dict[Monomial, Coeff]) -> dict[Monomial, int]:
    """gcd when one side is a single term: the shared monomial factor."""
    (mono,) = single
    out = []
    for v, e in mono:
        low = e
        for m in other:
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
    return {tuple(out): 1}


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
