"""Exact linear algebra over the rationals.

Everything here works on small dense matrices of ``Fraction`` entries; the
scale is a few hundred rows at most, so plain Gaussian elimination is fine.
The one less-standard routine is :func:`integer_kernel`, which returns a
basis of the *saturated* integer kernel lattice (all integer vectors in the
rational kernel), computed by unimodular column reduction.  Rational kernel
bases are not enough for character-consistency questions: integer relations
outside the lattice spanned by rescaled basis vectors would go unchecked.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)

Row = list[Fraction]


def rref(matrix: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Q1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(matrix: list[Row], ncols: int) -> list[Row]:
    """Basis of the rational kernel {x : M x = 0} in free-variable form."""
    if not matrix:
        return [[Q1 if i == j else Q0 for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Q0] * ncols
        vec[f] = Q1
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def solve_affine(matrix: list[Row], rhs: list[Fraction]) -> tuple[Row, list[Row]] | None:
    """Solve M x = b exactly.

    Returns (particular solution with free variables set to zero, kernel
    basis), or None when the system is infeasible.
    """
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    aug = [list(r) + [b] for r, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    for r, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the constants column
    part = [Q0] * ncols
    for r, p in zip(red, pivots):
        part[p] = r[ncols]
    return part, kernel_basis([row[:ncols] for row in red], ncols)


def _row_lcm_scale(row: Sequence[Fraction]) -> list[int]:
    den = 1
    for x in row:
        den = lcm(den, x.denominator)
    return [int(x * den) for x in row]


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
