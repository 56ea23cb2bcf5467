"""Affine parameter bookkeeping for the linear solvers.

Equation solving decomposes every unknown into an affine combination of
rational parameters with field-element coefficients (:class:`LinComb`).
Constraints accumulate in a :class:`ParamContext`, the row echelon of
:mod:`diffield.linalg` over the parameters: each new row is reduced against
the existing pivots on arrival, so infeasibility surfaces immediately (as
:class:`~diffield.linalg.Infeasible`) and structural case splits can fork
the context cheaply (pivot rows are immutable once stored).
:meth:`ParamContext.add_identity` is the one place a polynomial identity
becomes rows, one per monomial; :meth:`ParamContext.add_zero` clears the
denominators of a field-element identity and hands it there.
"""

from __future__ import annotations

from typing import Mapping

from .field import Element, Presentation
from .linalg import Echelon
from .poly import Coeff, MPoly
from .ratfunc import clear_denominators


class LinComb:
    """const + sum(coeffs[i] * param_i) with Element values."""

    __slots__ = ("pres", "const", "coeffs")

    def __init__(self, pres: Presentation, const: Element, coeffs: Mapping[int, Element] | None = None):
        self.pres = pres
        self.const = const
        self.coeffs: dict[int, Element] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not v.is_zero():
                    self.coeffs[k] = v

    @staticmethod
    def constant(pres: Presentation, value: Element) -> "LinComb":
        return LinComb(pres, value)

    @staticmethod
    def zero(pres: Presentation) -> "LinComb":
        return LinComb(pres, pres.zero())

    def __add__(self, other: "LinComb") -> "LinComb":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LinComb(self.pres, self.const + other.const, coeffs)

    def __neg__(self) -> "LinComb":
        return LinComb(self.pres, -self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def mul_known(self, e: Element) -> "LinComb":
        if e.is_zero():
            return LinComb.zero(self.pres)
        return LinComb(self.pres, self.const * e, {k: v * e for k, v in self.coeffs.items()})

    def sigma(self, k: int = 1) -> "LinComb":
        return LinComb(
            self.pres, self.const.sigma(k), {p: v.sigma(k) for p, v in self.coeffs.items()}
        )

    def lift(self, pres: Presentation) -> "LinComb":
        """Reinterpret over a presentation that subsumes the current one."""
        return LinComb(
            pres,
            self.const.in_presentation(pres),
            {p: v.in_presentation(pres) for p, v in self.coeffs.items()},
        )

    def evaluate(self, values: Mapping[int, Coeff]) -> Element:
        return self._accumulate(self.const, values)

    def direction(self, direction: Mapping[int, Coeff]) -> Element:
        """Linear part evaluated along a parameter direction."""
        return self._accumulate(self.pres.zero(), direction)

    def _accumulate(self, total: Element, values: Mapping[int, Coeff]) -> Element:
        for k, v in self.coeffs.items():
            q = values.get(k)
            if q:
                total = total + v * self.pres.const(q)
        return total

    def __repr__(self) -> str:
        parts = [repr(self.const)]
        for k in sorted(self.coeffs):
            parts.append(f"p{k}*({self.coeffs[k]})")
        return " + ".join(parts)


class ParamContext(Echelon):
    """Exact linear constraints over integer-indexed parameters.

    The echelon's columns are the parameters allocated so far.
    """

    __slots__ = ()

    def fork(self) -> "ParamContext":
        c = ParamContext(self.ncols)
        c.pivots.update(self.pivots)
        c.order.extend(self.order)
        return c

    def new_param(self) -> int:
        i = self.ncols
        self.ncols += 1
        return i

    def new_params(self, count: int) -> list[int]:
        return [self.new_param() for _ in range(count)]

    def add_zero(self, lc: LinComb) -> None:
        """Require lc == 0: its cleared numerators must vanish identically."""
        cleared = clear_denominators([lc.const.value] + [v.value for v in lc.coeffs.values()])
        self.add_identity(cleared[0], dict(zip(lc.coeffs, cleared[1:])))

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
