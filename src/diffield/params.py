"""Affine parameter bookkeeping for the linear solvers.

Equation solving decomposes every unknown into an affine combination of
rational parameters (:class:`LinComb`): polynomial numerators, the constant's
and one per parameter, over one shared denominator, which is exactly the
form the echelon consumes.  Constraints accumulate in a
:class:`ParamContext`, the row echelon of :mod:`diffield.linalg` over the
parameters: each new row is reduced against the existing pivots on arrival,
so infeasibility surfaces immediately (as
:class:`~diffield.linalg.Infeasible`) and structural case splits can fork
the context cheaply (pivot rows are immutable once stored).
:meth:`ParamContext.add_identity` is the one place a polynomial identity
becomes rows, one per monomial; :meth:`ParamContext.add_zero` hands it the
numerators of a family.  :meth:`ParamContext.reduced` rewrites a family
over the free parameters alone: each pivot parameter is replaced by its
value over the later ones, so a family the rows pin to zero becomes the
zero family (:meth:`LinComb.is_zero`).  ``_lincomb_coefficients`` and
``require_level_free`` are the level steps that the tower search and the
certifier share; each reads its level off the presentation's ``affine_top``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .equations import UnsupportedCoefficientShape
from .field import Element, Presentation, sigma_images
from .linalg import Echelon
from .poly import Coeff, MPoly, _monomial_gcd, divexact, poly_gcd, to_univar
from .ratfunc import P1, RatFunc, _cancel, substitute_polys


class LinComb:
    """(const + sum(coeffs[k] * x_k)) / den, affine in the parameters x_k.

    ``const`` and the ``coeffs`` values are polynomial numerators; a zero
    one is left out.  The invariant: den is monic, and den and all the
    numerators together have gcd 1.  So den is the lcm of the reduced
    denominators of the coefficients, each numerator is its coefficient
    times den, and equal families have equal forms.

    The constructor is the one reducer: it cancels gcd(den, numerators...)
    and makes den monic.  The gcd stops at the first constant gcd; against a
    one-term divisor it is the common monomial content of the divisor and
    the numerators' terms, taken in one pass.  It starts from den, or from
    ``shared``: an operation that builds a monic den passes a divisor of it
    that holds every common factor, so sums and products take gcds of parts
    only, as RatFunc's Henrici forms do.  When that divisor is the unit
    ``P1`` the parts are already reduced, and only zero coefficients go.
    """

    __slots__ = ("pres", "const", "coeffs", "den")

    def __init__(self, pres: Presentation, const: MPoly, coeffs: Mapping[int, MPoly] | None = None,
                 den: MPoly = P1, *, shared: MPoly | None = None):
        coeffs = {k: v for k, v in coeffs.items() if v.terms} if coeffs else {}
        g = den if shared is None else shared
        if not (const.terms or coeffs):
            den = g = P1
        if g is not P1:
            if not g.is_constant():
                nums = (const, *coeffs.values())
                if len(g.terms) == 1:
                    g = MPoly(_monomial_gcd(g.terms, [m for n in nums for m in n.terms]))
                else:
                    for n in nums:
                        if n.terms:
                            g = poly_gcd(g, n)
                            if g.is_constant():
                                break
            h = P1 if g.is_constant() else g  # a gcd is monic
            if shared is None:  # only then may den not be monic
                h = h.scale(den.leading_coefficient())
            if h != P1:
                const, den = divexact(const, h), divexact(den, h)
                coeffs = {k: divexact(v, h) for k, v in coeffs.items()}
        self.pres, self.const, self.coeffs, self.den = pres, const, coeffs, den

    @staticmethod
    def _reduced(pres: Presentation, const: MPoly, coeffs: dict[int, MPoly], den: MPoly) -> "LinComb":
        """A family from parts already in the reduced form, shared as they are."""
        lc = LinComb.__new__(LinComb)
        lc.pres, lc.const, lc.coeffs, lc.den = pres, const, coeffs, den
        return lc

    @staticmethod
    def constant(pres: Presentation, value: Element) -> "LinComb":
        return LinComb(pres, value.value.num, None, value.value.den, shared=P1)

    @staticmethod
    def zero(pres: Presentation) -> "LinComb":
        return LinComb._reduced(pres, MPoly(), {}, P1)

    def is_zero(self) -> bool:
        """True for the zero family: no constant and no parameter left."""
        return not (self.const.terms or self.coeffs)

    def __add__(self, other: "LinComb") -> "LinComb":
        """With g = gcd(D, E), D = D'g and E = E'g: N*E' + M*D' over D'E,
        where a common factor divides g (RatFunc.__add__ says why)."""
        d, e = self.den, other.den
        if d == e:
            mine, theirs, den, g = (self.const, self.coeffs), (other.const, other.coeffs), d, d
        else:
            g = P1 if d.is_constant() or e.is_constant() else poly_gcd(d, e)
            d1, e1 = divexact(d, g), divexact(e, g)
            den = e if d1.is_constant() else d if e1.is_constant() else d1 * e
            mine, theirs = self._times(e1), other._times(d1)
        coeffs = dict(mine[1])
        for k, v in theirs[1].items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LinComb(self.pres, mine[0] + theirs[0], coeffs, den, shared=g)

    def _times(self, f: MPoly) -> tuple[MPoly, dict[int, MPoly]]:
        """The numerators times the polynomial f; a constant f scales them."""
        if f.is_constant():
            c = f.constant_value()
            return self.const.scale(c), {k: v.scale(c) for k, v in self.coeffs.items()}
        return self.const * f, {k: v * f for k, v in self.coeffs.items()}

    def __neg__(self) -> "LinComb":
        return LinComb._reduced(self.pres, -self.const, {k: -v for k, v in self.coeffs.items()}, self.den)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def mul_known(self, e: Element) -> "LinComb":
        """Times e = n/d: n cancels against den, and what is left in common divides d."""
        n, d = e.value.num, e.value.den
        n, den = _cancel(n, self.den)
        const, coeffs = self._times(n)
        return LinComb(self.pres, const, coeffs, den if d.is_constant() else den * d, shared=d)

    def sigma(self) -> "LinComb":
        """All numerators and den in one substitution, or a shift when sigma is one."""
        polys = [self.const, *self.coeffs.values(), self.den]
        images = sigma_images(self.pres, set().union(*(p.variables() for p in polys)), 1)
        if images is None:
            out, shared = [p.shift(1) for p in polys], P1
        else:
            out, shared = substitute_polys(polys, images), None
        return LinComb(self.pres, out[0], dict(zip(self.coeffs, out[1:-1])), out[-1], shared=shared)

    def lift(self, pres: Presentation) -> "LinComb":
        """Reinterpret over a presentation that subsumes the current one."""
        return LinComb._reduced(pres, self.const, self.coeffs, self.den)

    def evaluate(self, values: Mapping[int, Coeff]) -> Element:
        return self._accumulate(self.const, values)

    def direction(self, direction: Mapping[int, Coeff]) -> Element:
        """Linear part evaluated along a parameter direction."""
        return self._accumulate(MPoly(), direction)

    def _accumulate(self, total: MPoly, values: Mapping[int, Coeff]) -> Element:
        for k, v in self.coeffs.items():
            q = values.get(k)
            if q:
                total = total + v.scale(q)
        return self.pres.element(RatFunc(total, self.den))


def require_level_free(e1: Element, pres: Presentation) -> Element:
    """e1 over the level below pres's affine top; UnsupportedCoefficientShape
    when it involves the top generator."""
    affine = pres.affine_top
    if pres.varid(affine.gen.name) in e1.value.variables():
        _lincomb_coefficients(LinComb.constant(pres, e1), pres)  # raises when the generator is in the denominator
        raise UnsupportedCoefficientShape(
            f"twist coefficient mentions the extension generator {affine.gen.name!r}"
        )
    return affine.sub.element(e1.value)


def _lincomb_coefficients(lc: LinComb, pres: Presentation) -> dict[int, LinComb]:
    """Split a LinComb into per-degree LinCombs in pres's affine top, over the level below.

    The numerators split over the shared denominator, and each degree's piece
    is reduced again.  Raises UnsupportedCoefficientShape when the
    denominator, the lcm of the coefficients' reduced ones, involves the
    generator.
    """
    affine = pres.affine_top
    var = pres.varid(affine.gen.name)
    if var in lc.den.variables():
        raise UnsupportedCoefficientShape(f"coefficient has {affine.gen.name!r} in its denominator")
    pieces: dict[int, dict[int | None, MPoly]] = {}  # degree -> parameter (None: const) -> piece
    for param, num in ((None, lc.const), *lc.coeffs.items()):
        for deg, part in to_univar(num, var).items():
            pieces.setdefault(deg, {})[param] = part
    return {deg: LinComb(affine.sub, p.pop(None, MPoly()), p, lc.den, shared=lc.den) for deg, p in pieces.items()}


class ParamContext(Echelon):
    """Exact linear constraints over integer-indexed parameters.

    The echelon's columns are the parameters allocated so far.
    """

    __slots__ = ()

    def new_param(self) -> int:
        i = self.ncols
        self.ncols += 1
        return i

    def new_params(self, count: int) -> list[int]:
        return [self.new_param() for _ in range(count)]

    def reduced(self, lc: LinComb) -> LinComb:
        """lc over the free parameters: each pivot replaced by its value over the later columns.

        A stored row ``const + sum(row[c] * x_c) = 0`` gives the pivot
        ``x_p = -(const + sum_{c != p} row[c] * x_c) / row[p]``.  The pivots
        are taken in insertion order: a stored row mentions only pivots
        inserted after it, so no substitution brings back one already done,
        and one pass leaves only free columns.  The result differs from lc by
        a combination of stored rows, so it has lc's value at every solution
        and along every kernel direction; the reducer then cancels what the
        substitution made common to den and the numerators.
        """
        if not any(c in self.pivots for c in lc.coeffs):
            return lc
        const, coeffs = lc.const, dict(lc.coeffs)
        for col in self.order:
            v = coeffs.pop(col, None)
            if v is None or not v.terms:
                continue
            row, pconst = self.pivots[col]
            lead = row[col]
            if pconst:
                const = const - v.scale(Fraction(pconst, lead))
            for c, r in row.items():
                if c != col:
                    t = v.scale(Fraction(r, lead))
                    coeffs[c] = coeffs[c] - t if c in coeffs else -t
        return LinComb(lc.pres, const, coeffs, lc.den)

    def add_zero(self, lc: LinComb) -> None:
        """Require lc == 0: its numerators must vanish identically."""
        self.add_identity(lc.const, lc.coeffs)

    def add_identity(self, const: MPoly, coeffs: Mapping[int, MPoly]) -> None:
        """Require const + sum(coeffs[k] * x_k) == 0 as a polynomial identity.

        Adds one row per monomial, in structural order of the monomials
        (``VarId`` compares by index and shift); a row lists its parameters in
        the order of ``coeffs``.  The echelon's pivots, and so what it solves
        and whether it is infeasible, do not depend on the row order.
        """
        rows: dict = {m: ({}, c) for m, c in const.terms.items()}
        for k, p in coeffs.items():
            for m, c in p.terms.items():
                rows.setdefault(m, ({}, 0))[0][k] = c
        for m in sorted(rows):
            self.add_row(*rows[m])
