"""Affine parameter bookkeeping for the linear solvers.

Equation solving decomposes every unknown into an affine combination of
rational parameters with field-element coefficients (:class:`LinComb`).
Constraints accumulate in a :class:`ParamContext`, which maintains an
incremental sparse row echelon over the parameters: each new row is reduced
against the existing pivots on arrival, so infeasibility surfaces
immediately (as :class:`Infeasible`) and structural case splits can fork
the context cheaply (pivot rows are immutable once stored).  Equation rows
come from expanding field-element identities over the monomial basis after
clearing denominators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .field import Element, Presentation
from .ratfunc import clear_denominators

Q0 = Fraction(0)
Q1 = Fraction(1)


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

    @staticmethod
    def parameter(pres: Presentation, param: int) -> "LinComb":
        return LinComb(pres, pres.zero(), {param: pres.one()})

    def __add__(self, other: "LinComb") -> "LinComb":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LinComb(self.pres, self.const + other.const, coeffs)

    def __neg__(self) -> "LinComb":
        return LinComb(self.pres, -self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, q) -> "LinComb":
        return self.mul_known(self.pres.const(q))

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

    def evaluate(self, values: Mapping[int, Fraction]) -> Element:
        total = self.const
        for k, v in self.coeffs.items():
            q = values.get(k, Q0)
            if q:
                total = total + v * self.pres.const(q)
        return total

    def direction(self, direction: Mapping[int, Fraction]) -> Element:
        """Linear part evaluated along a parameter direction."""
        total = self.pres.zero()
        for k, v in self.coeffs.items():
            q = direction.get(k, Q0)
            if q:
                total = total + v * self.pres.const(q)
        return total

    def params(self) -> set[int]:
        return set(self.coeffs)

    def __repr__(self) -> str:
        parts = [repr(self.const)]
        for k in sorted(self.coeffs):
            parts.append(f"p{k}*({self.coeffs[k]})")
        return " + ".join(parts)


class Infeasible(Exception):
    """A constraint row is unsatisfiable regardless of parameters."""


class ParamContext:
    """Exact linear constraints over integer-indexed parameters.

    Rows mean const + sum(coeff * param) = 0.  The echelon invariant: for
    every stored pivot column c, ``pivots[c]`` is a row with coefficient 1
    at c and no other pivot column of the time it was inserted; stored rows
    are never mutated, so forks share them.
    """

    __slots__ = ("n_params", "pivots", "order")

    def __init__(self) -> None:
        self.n_params = 0
        self.pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
        self.order: list[int] = []  # pivot columns in insertion order

    def fork(self) -> "ParamContext":
        c = ParamContext.__new__(ParamContext)
        c.n_params = self.n_params
        c.pivots = dict(self.pivots)
        c.order = list(self.order)
        return c

    def new_param(self) -> int:
        i = self.n_params
        self.n_params += 1
        return i

    def new_params(self, count: int) -> list[int]:
        return [self.new_param() for _ in range(count)]

    def _insert_row(self, coeffs: dict[int, Fraction], const: Fraction) -> None:
        while True:
            hit = None
            for col in coeffs:
                if col in self.pivots:
                    hit = col
                    break
            if hit is None:
                break
            prow, pconst = self.pivots[hit]
            factor = coeffs.pop(hit)
            for c, v in prow.items():
                if c == hit:
                    continue
                nv = coeffs.get(c, Q0) - factor * v
                if nv:
                    coeffs[c] = nv
                else:
                    coeffs.pop(c, None)
            const = const - factor * pconst
        if not coeffs:
            if const:
                raise Infeasible(f"constant residue {const} cannot vanish")
            return
        col = min(coeffs)
        lead = coeffs[col]
        row = {c: v / lead for c, v in coeffs.items()}
        self.pivots[col] = (row, const / lead)
        self.order.append(col)

    def add_row(self, coeffs: dict[int, Fraction], const: Fraction) -> None:
        """Require const + sum(coeff * param) = 0 for one prepared row."""
        if not coeffs:
            if const:
                raise Infeasible(f"constant residue {const} cannot vanish")
            return
        self._insert_row(dict(coeffs), const)

    def add_zero(self, lc: LinComb) -> None:
        """Require lc == 0; expands into one row per monomial."""
        cleared = clear_denominators([lc.const.value] + [v.value for v in lc.coeffs.values()])
        keys = list(lc.coeffs.keys())
        monos = {m for p in cleared for m in p.terms}
        for m in monos:
            const = cleared[0].terms.get(m, Q0)
            coeffs = {}
            for k, p in zip(keys, cleared[1:]):
                c = p.terms.get(m, Q0)
                if c:
                    coeffs[k] = c
            if not coeffs:
                if const:
                    raise Infeasible(f"constant residue {const} cannot vanish")
                continue
            self._insert_row(coeffs, const)

    def solve(self) -> tuple[dict[int, Fraction], list[dict[int, Fraction]]]:
        """Particular solution (free parameters zero) and kernel directions."""
        value_cache: dict[int, Fraction] = {}

        def value(col: int) -> Fraction:
            got = value_cache.get(col)
            if got is not None:
                return got
            entry = self.pivots.get(col)
            if entry is None:
                value_cache[col] = Q0
                return Q0
            row, const = entry
            total = -const
            value_cache[col] = Q0  # provisional; DAG order makes this safe
            for c, v in row.items():
                if c != col:
                    total -= v * value(c)
            value_cache[col] = total
            return total

        particular = {col: value(col) for col in self.order}
        kernel: list[dict[int, Fraction]] = []
        free = [i for i in range(self.n_params) if i not in self.pivots]
        for f in free:
            dir_cache: dict[int, Fraction] = {f: Q1}

            def dvalue(col: int) -> Fraction:
                got = dir_cache.get(col)
                if got is not None:
                    return got
                entry = self.pivots.get(col)
                if entry is None:
                    dir_cache[col] = Q0
                    return Q0
                row, _ = entry
                total = Q0
                dir_cache[col] = Q0
                for c, v in row.items():
                    if c != col:
                        total -= v * dvalue(c)
                dir_cache[col] = total
                return total

            direction = {f: Q1}
            for col in self.order:
                v = dvalue(col)
                if v:
                    direction[col] = v
            kernel.append(direction)
        return particular, kernel
