"""Exact linear algebra over the rationals.

:class:`Echelon` is the package's one row reduction over Q: an incremental
sparse row echelon.  Rows come in as dicts from integer columns to
coefficients in the form of :data:`~diffield.poly.Coeff` (``int`` when
integral, else ``Fraction``) and are stored fraction-free: each stored row is
a primitive integer row, positive at its pivot.  A new row is scaled to
integers and reduced against the stored pivots on arrival, so an
inconsistent row raises :class:`Infeasible` at once and span growth is known
row by row.  Values read back (:meth:`Echelon.solve`, :meth:`Echelon.kernel`,
:meth:`Echelon.rref`) are rationals in ``Coeff`` form again.  Three routines
feed it rows:

* :meth:`~diffield.params.ParamContext.add_identity`, the polynomial
  identities of the solvers' parameter systems, one row per monomial;
* ``ratfunc._relation_rref``, the values of elements at integer points,
  behind relation lattices and span membership
  (:func:`~diffield.ratfunc.linear_relations`,
  :func:`~diffield.ratfunc.express_in_span`,
  :class:`~diffield.ratfunc.SpanTracker`);
* :func:`solve_affine`, dense systems.

The one other routine is :func:`integer_kernel`, which returns a basis of
the *saturated* integer kernel lattice (all integer vectors in the rational
kernel), computed by unimodular column reduction.  Rational kernel bases are
not enough for character-consistency questions: integer relations outside
the lattice spanned by rescaled basis vectors would go unchecked.
``linear_relations`` feeds it the rows of :meth:`Echelon.rref`, which depend
only on the kernel, so the basis does too; raw value rows would let the
integer entries swell.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Mapping, Sequence

from .poly import Coeff, as_rational

Row = list[Coeff]


class Infeasible(Exception):
    """A constraint row is unsatisfiable regardless of parameters."""


class Echelon:
    """Exact linear constraints over integer-indexed columns.

    Rows mean const + sum(coeff * x_col) = 0.  The echelon invariant: for
    every stored pivot column c, ``pivots[c]`` is ``(row, const)``, a
    primitive integer row (the gcd of its entries and const is 1), positive
    at its pivot c, with no other pivot column of the time it was inserted;
    stored rows are never mutated, so copies may share them.  Hence a stored
    row only mentions pivots inserted after it, and back-substitution in
    reverse insertion order needs no recursion.  Back-substitution divides
    by each pivot's entry, the echelon's only division, so rows are reduced
    with integer arithmetic alone (fraction-free elimination; Bareiss 1968,
    Math. Comp. 22(103)).

    The pivot of a row is its least column left after reduction, so the
    pivot set is the set of leading columns of the row space: the pivots of
    the reduced row echelon form, whatever order the rows arrive in.
    ``ncols`` is the number of columns :meth:`kernel` ranges over.
    """

    __slots__ = ("ncols", "pivots", "order")

    def __init__(self, ncols: int = 0) -> None:
        self.ncols = ncols
        self.pivots: dict[int, tuple[dict[int, Coeff], Coeff]] = {}
        self.order: list[int] = []  # pivot columns in insertion order

    def add_row(self, coeffs: Mapping[int, Coeff], const: Coeff) -> bool:
        """Require const + sum(coeff * x_col) = 0.

        Returns True when the row was independent of the stored ones (a new
        pivot), False when it reduced to 0 = 0; raises :class:`Infeasible`
        when it reduced to a nonzero constant.

        The row is scaled to integers by the lcm of its denominators, then
        reduced fraction-free: against a pivot row with entry ``lead`` at
        column c, ``r <- (lead/g)*r - (r[c]/g)*prow`` with
        ``g = gcd(lead, r[c])``.
        """
        den = 1
        for v in coeffs.values():
            den = lcm(den, v.denominator)
        den = lcm(den, const.denominator)
        row = {c: v.numerator * (den // v.denominator) for c, v in coeffs.items()}
        const = const.numerator * (den // const.denominator)
        while True:
            hit = None
            for col in row:
                if col in self.pivots:
                    hit = col
                    break
            if hit is None:
                break
            prow, pconst = self.pivots[hit]
            lead = prow[hit]
            factor = row.pop(hit)
            g = int_gcd(lead, factor)
            if g != 1:
                lead //= g
                factor //= g
            if lead != 1:
                row = {c: lead * v for c, v in row.items()}
                const *= lead
            for c, v in prow.items():
                if c == hit:
                    continue
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            const -= factor * pconst
        if not row:
            if const:
                raise Infeasible(f"constant residue {const} cannot vanish")
            return False
        col = min(row)
        g = int_gcd(*row.values(), const)
        if row[col] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
            const //= g
        self.pivots[col] = (row, const)
        self.order.append(col)
        return True

    def _back_substitute(self, values: dict[int, Coeff], affine: bool) -> dict[int, Coeff]:
        """Fill in the pivot columns from ``values`` on the free ones.

        ``affine`` keeps the row constants (a solution); without them the
        result is a kernel direction.  Zero entries are left out.
        """
        for col in reversed(self.order):
            row, const = self.pivots[col]
            total = -const if affine else 0
            for c, v in row.items():
                if c != col and c in values:
                    total -= v * values[c]
            if total:
                lead = row[col]
                values[col] = as_rational(total if lead == 1 else Fraction(total, lead))
        return values

    def solve(self) -> dict[int, Coeff]:
        """The solution with every free column zero (absent entries are zero)."""
        return self._back_substitute({}, True)

    def kernel(self) -> list[dict[int, Coeff]]:
        """One kernel direction per free column below ``ncols``, in column order."""
        return [self._back_substitute({f: 1}, False) for f in range(self.ncols) if f not in self.pivots]

    def rref(self) -> list[Row]:
        """The nonzero rows of the reduced row echelon form, constants left out.

        Row p has 1 at pivot p, 0 at the other pivots and -z[p] at each free
        column f, where z is the kernel direction of f.  Every pivot must be
        below ``ncols``.
        """
        rows = {p: [1 if j == p else 0 for j in range(self.ncols)] for p in self.pivots}
        free = [f for f in range(self.ncols) if f not in self.pivots]
        for f, z in zip(free, self.kernel()):
            for p, v in z.items():
                if p != f:
                    rows[p][f] = -v
        return [rows[p] for p in sorted(rows)]


def solve_affine(matrix: list[Row], rhs: Row) -> Row | None:
    """Solve M x = b exactly.

    Returns the solution with every free variable set to zero, or None when
    the system is infeasible.  The pivots of :class:`Echelon` are those of
    the reduced row echelon form, so this is the solution read off the RREF.
    """
    if not matrix:
        return []
    echelon = Echelon()
    try:
        for row, b in zip(matrix, rhs):
            echelon.add_row({j: x for j, x in enumerate(row) if x}, -b)
    except Infeasible:
        return None
    values = echelon.solve()
    return [values.get(j, 0) for j in range(len(matrix[0]))]


def _row_lcm_scale(row: Sequence[Coeff]) -> list[int]:
    den = 1
    for x in row:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in row]


def integer_kernel(matrix: list[Row], ncols: int) -> list[list[int]]:
    """Basis of the saturated lattice {z in Z^n : M z = 0}.

    Unimodular column operations reduce the matrix row by row; the columns
    that never acquire a pivot span the full integer kernel (not merely a
    finite-index sublattice), because the tracking matrix stays unimodular.
    """
    int_rows = [_row_lcm_scale(r) for r in matrix]
    # cols[j] = (matrix column j, tracking column j of the identity)
    track = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    cols = [[row[j] for row in int_rows] for j in range(ncols)]
    active = list(range(ncols))
    nrows = len(int_rows)
    for i in range(nrows):
        live = [j for j in active if cols[j][i] != 0]
        while len(live) > 1:
            j, k = live[0], live[1]
            a, b = cols[j][i], cols[k][i]
            g, x, y = _xgcd(a, b)
            aj, ak = a // g, b // g
            new_j_m = [x * cols[j][r] + y * cols[k][r] for r in range(nrows)]
            new_k_m = [-ak * cols[j][r] + aj * cols[k][r] for r in range(nrows)]
            new_j_t = [x * track[j][r] + y * track[k][r] for r in range(ncols)]
            new_k_t = [-ak * track[j][r] + aj * track[k][r] for r in range(ncols)]
            cols[j], cols[k] = new_j_m, new_k_m
            track[j], track[k] = new_j_t, new_k_t
            live = [j for j in active if cols[j][i] != 0]
        if live:
            active.remove(live[0])
    basis = []
    for j in active:
        vec = track[j]
        basis.append(_primitive(vec))
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    prev_x, x = 1, 0
    prev_y, y = 0, 1
    while b:
        q, r = divmod(a, b)
        x, prev_x = prev_x - q * x, x
        y, prev_y = prev_y - q * y, y
        a, b = b, r
    return a, prev_x, prev_y


def _primitive(vec: list[int]) -> list[int]:
    g = 0
    for x in vec:
        g = int_gcd(g, abs(x))
    if g > 1:
        vec = [x // g for x in vec]
    for x in vec:
        if x:
            return vec if x > 0 else [-v for v in vec]
    return vec
