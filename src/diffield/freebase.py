"""Complete decisions for first-order equations over all-free presentations.

Over a presentation whose generators are all free, the field is a rational
function field in shift-indexed indeterminates and sigma permutes the
variables.  That makes three a-priori bounds provable for any solution x of
sigma(x) - e1*x = e2 (written in lowest terms as N/D):

* window: every variable of x has shift in [lo, hi] where lo is the minimal
  shift appearing in e1, e2 and hi is the maximal shift minus one.  If x is
  nonconstant, sigma(x) has maximal shift m(x)+1 in reduced form, and the
  reduced right-hand side cannot reach above the coefficient support, which
  forces m(x) < max shift; the minimal-shift bound is symmetric.
* denominator: sigma(D) divides q1*q2*D and D divides sigma(D)*q2*p1 (p/q
  the coefficient numerators/denominators), so every irreducible factor of
  D chains out of the window through the coefficients in both directions;
  D divides the product over i = 1..S of gcd(sigma^'-i'(q1*q2),
  prod_j sigma^j(q2*p1)), a two-sided candidate that stays close to what
  can actually chain.  Each gcd is computed shift by shift with
  gcd(a, b*c) = gcd(a, b) * gcd(a/gcd(a, b), c), so the product over j is
  never formed.
* numerator degree: the degree at infinity v(x) = deg N - deg D is capped by
  max(v(e2), v(e2) - v(e1), d0), where the extra candidate d0 exists only if
  the top homogeneous forms admit a multiplicative relation sigma(T) =
  top(e1)*T (a one-dimensional condition decided by the same machinery).

Within those bounds the equation is a finite exact linear system in the
coefficients of Y, where x = Y/A, so solvability is genuinely decided: a
returned witness verifies by substitution and an infeasible system refutes
every solution, not just bounded ones.  One :class:`Ansatz` holds the
finite search (window, denominator bound, degree cap and monomials) for
both equation shapes, and a refutation record reports its fields.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .equations import (
    MultiplicativeEquation,
    Solution,
    SolveResult,
    TwistedEquation,
    Unsolvable,
    UnsupportedCoefficientShape,
)
from .field import Element, Presentation
from .linalg import Infeasible
from .params import LinComb, ParamContext
from .poly import MPoly, VarId, divexact, poly_gcd
from .ratfunc import P1, RatFunc
from .record import record

_ANSATZ_LIMIT = 20000


@record(frozen=True)
class WindowBound:
    lo: int
    hi: int

    def is_empty(self) -> bool:
        return self.hi < self.lo

    def span(self) -> int:
        return 0 if self.is_empty() else self.hi - self.lo + 1


@record(frozen=True)
class FreeRefutation:
    """Replayable record of a free-base unsolvability decision."""

    kind: str  # "twisted" | "multiplicative"
    equation: str
    window: WindowBound | None
    denominator_bound: str
    degree_cap: int
    ansatz_size: int
    constant_candidate: str | None
    note: str


def _require_free(pres: Presentation) -> None:
    if pres.affine_top is not None:
        raise UnsupportedCoefficientShape(
            "free-base decision requires a presentation with only free generators"
        )


def _window(parts: Sequence[MPoly], cap: int | None) -> WindowBound | None:
    """The shift window of the parts' variables, clipped to [-cap, cap]."""
    shifts = {v.shift for p in parts for v in p.variables()}
    if not shifts:
        return None
    lo, hi = min(shifts), max(shifts) - 1
    return WindowBound(lo, hi) if cap is None else WindowBound(max(lo, -cap), min(hi, cap))


def _denominator_bound(up: MPoly, down: MPoly, span: int) -> MPoly:
    """Two-sided candidate denominator.

    Every irreducible factor of a reduced solution denominator chains
    upward out of the window through ``up`` (sigma(D) | up * D) and
    downward through ``down`` (D | sigma(D) * down), so D divides the
    product over i of gcd(sigma^'-i'(up), prod_j sigma^j(down)); taking the
    gcd per shifted piece keeps the bound close to what can actually chain.

    The product over j is never formed.  In a UFD
    gcd(a, b*c) = gcd(a, b) * gcd(a/gcd(a, b), c): at a prime with
    valuations x, y, z in a, b, c,
    min(x, y+z) = min(x, y) + min(x - min(x, y), z).
    So each sigma^j(down) in turn contributes its gcd with what is left of
    sigma^'-i'(up), that gcd is divided out, and the walk stops once the
    rest is constant.  A nonzero factor that shares no variable with the
    rest has gcd 1 and is skipped: on the free base a factor's shifts show
    in its variables, which is the free-base form of Abramov's dispersion
    bound (S. A. Abramov, USSR Comput. Math. Math. Phys. 29(6), 1989;
    ISSAC 1995).  Every gcd is monic, so the result is the same monic
    polynomial as the product form.
    """
    if up.is_constant():
        return MPoly.const(1)
    downs = [down.shift(j) for j in range(span + 1)]
    out = MPoly.const(1)
    for i in range(1, span + 1):
        rest = up.shift(-i)
        for f in downs:
            if rest.variables().isdisjoint(f.variables()) and not f.is_zero():
                continue
            g = poly_gcd(rest, f)
            if not g.is_constant():
                out = out * g
                rest = divexact(rest, g)
                if rest.is_constant():
                    break
    return out


def _window_vars(pres: Presentation, w: WindowBound | None) -> list[VarId]:
    if w is None or w.is_empty():
        return []
    out = []
    for g in pres.gens:
        for s in range(w.lo, w.hi + 1):
            out.append(VarId(g.index, g.name, s))
    return out


def _monomials(vars_: Sequence[VarId], max_deg: int) -> list[MPoly]:
    """All monomials of total degree <= max_deg, deterministically ordered."""
    if max_deg < 0:
        return []
    if not vars_:  # the loop below would pass every degree up to the cap
        return [MPoly.const(1)]
    k = len(vars_)
    # quick size estimate: C(max_deg + k, k)
    est = 1
    for i in range(1, k + 1):
        est = est * (max_deg + i) // i
    if est > _ANSATZ_LIMIT:
        raise UnsupportedCoefficientShape(
            f"ansatz of ~{est} monomials exceeds the supported search size"
        )
    ordered = sorted(vars_)
    monos: list[MPoly] = []
    for deg in range(max_deg + 1):
        for combo in itertools.combinations_with_replacement(ordered, deg):
            # a sorted combination lists each variable's repeats together
            mono = tuple((v, len(list(run))) for v, run in itertools.groupby(combo))
            monos.append(MPoly({mono: 1}))
    return monos


@record(frozen=True)
class Ansatz:
    """The finite search for x = Y/A: Y a combination of the monomials over A.

    ``degree_cap`` is the total degree of Y, after the ``deg_cap`` clip.
    """

    window: WindowBound | None
    denominator: MPoly
    degree_cap: int
    monomials: tuple[MPoly, ...]

    @staticmethod
    def build(pres: Presentation, window: WindowBound | None, denominator: MPoly, cap: int,
              deg_cap: int | None) -> "Ansatz":
        """Clip cap to deg_cap + deg A; monomials over the window's and A's variables."""
        if deg_cap is not None:
            cap = min(cap, deg_cap + denominator.total_degree())
        vars_ = sorted(set(_window_vars(pres, window)) | denominator.variables())
        return Ansatz(window, denominator, cap, tuple(_monomials(vars_, cap)))

    def family(self, pres: Presentation, e1: Element, rhs: LinComb, ctx: ParamContext) -> LinComb:
        """Rows of sigma(y) - e1*y = rhs for y = Y/A in ctx; returns Y/A.

        The coefficients of Y become fresh parameters of ctx, and the rows
        come from the cleared polynomial identity (e1 = p1/q1, rhs = R/Q2)
          sigma(Y)*A*q1*Q2 - p1*Y*sigma(A)*Q2 = R*H,  H = sigma(A)*A*q1,
        built with polynomial products only: no gcd normalization in the loop.
        When Q2 divides H (one exact division decides it), the rows come from
        the reduced identity
          sigma(Y)*A*q1 - p1*Y*sigma(A) = R*(H/Q2)
        instead, whose products are smaller by deg Q2.  The cleared identity
        is Q2 times the reduced one, both sides affine in the parameters, and
        Q[vars] is a domain: a parameter assignment satisfies one exactly
        when it satisfies the other.  So both have the same solutions, hence
        the same row space, pivot set, solve(), kernel() and reduced
        families; only the stored rows may differ.
        With no monomials only y = 0 is left, so rhs must vanish.
        Raises Infeasible when no parameter assignment can work.
        """
        if not self.monomials:
            ctx.add_zero(-rhs)
            return LinComb.zero(pres)
        a_poly, q2 = self.denominator, rhs.den
        p1, q1 = e1.value.num, e1.value.den
        a_shifted = a_poly.shift(1)
        rhs_scale = None
        if rhs.const.terms or rhs.coeffs:  # else the identity is homogeneous and Q2 = 1
            rhs_scale = a_shifted * a_poly * q1
            if not q2.is_constant():
                try:
                    rhs_scale, q2 = divexact(rhs_scale, q2), P1
                except ValueError:
                    pass
        lhs_pos = a_poly * q1 * q2
        lhs_neg = p1 * a_shifted * q2
        params = ctx.new_params(len(self.monomials))
        coeffs = {p: mono.shift(1) * lhs_pos - mono * lhs_neg for p, mono in zip(params, self.monomials)}
        const = MPoly()
        if rhs_scale is not None:
            const = -(rhs.const * rhs_scale)
            for lam, part in rhs.coeffs.items():  # outer parameters: never fresh ones
                coeffs[lam] = -(part * rhs_scale)
        ctx.add_identity(const, coeffs)
        return LinComb(pres, MPoly(), dict(zip(params, self.monomials)), a_poly)

    def refutation(self, kind: str, equation: str, constant_candidate: str | None, note: str) -> FreeRefutation:
        return FreeRefutation(
            kind, equation, self.window, repr(self.denominator), self.degree_cap, len(self.monomials),
            constant_candidate, note,
        )


def _mult_text(ratio: Element) -> str:
    return f"sigma(x) = ({ratio})*x"


def multiplicative_kernel(
    pres: Presentation,
    ratio: Element,
    deg_cap: int | None = None,
    window_cap: int | None = None,
) -> tuple[list[Element], FreeRefutation | None]:
    """All nonzero solutions of sigma(x) = ratio*x over a free presentation.

    Returns (basis of the solution space, refutation record when empty).
    The space has dimension at most one over Q since the fixed field of a
    free presentation is Q.  The equation's text is formed only for a
    refutation.
    """
    _require_free(pres)
    u = ratio.value
    if u.is_constant():
        if u == RatFunc.one():
            return [pres.one()], None
        cert = FreeRefutation(
            "multiplicative", _mult_text(ratio), None, "1", 0, 1,
            None, f"constant ratio {ratio} != 1 admits no nonzero solution",
        )
        return [], cert
    window = _window([u.num, u.den], window_cap)
    if window is None or window.is_empty():
        cert = FreeRefutation(
            "multiplicative", _mult_text(ratio), window, "1", 0, 0,
            None,
            "empty shift window: nonconstant solutions impossible, "
            "constants require ratio = 1",
        )
        return [], cert
    span = window.span()
    a_den = _denominator_bound(u.den, u.num, span)
    a_num = _denominator_bound(u.num, u.den, span)
    ansatz = Ansatz.build(pres, window, a_den, a_num.total_degree() + a_den.total_degree(), deg_cap)
    ctx = ParamContext()
    family = ansatz.family(pres, ratio, LinComb.zero(pres), ctx)  # homogeneous: never Infeasible
    basis: list[Element] = []
    for direction in ctx.kernel():
        x = family.direction(direction)
        if not x.is_zero() and not any(x == b for b in basis):
            basis.append(x)
    if basis:
        return basis, None
    return [], ansatz.refutation(
        "multiplicative", _mult_text(ratio), None, "homogeneous coefficient system has trivial kernel"
    )


def _twisted_ansatz(
    pres: Presentation, e1: Element, rhs: LinComb, deg_cap: int | None, window_cap: int | None
) -> Ansatz | None:
    """The ansatz for sigma(y) - e1*y = rhs.

    None when rhs is identically zero and there is no homogeneous
    direction: then only y = 0 solves, with no rows to add.
    """
    _require_free(pres)
    q1, q2 = e1.value.den, rhs.den
    rhs_nums = [rhs.const, *rhs.coeffs.values()]
    window = _window([e1.value.num, q1, q2, *rhs_nums], window_cap)
    v_candidates: list[int] = []
    ve1 = e1.value.valuation()
    for n in rhs_nums:
        if n.terms:  # the valuation of n/q2
            v = n.total_degree() - q2.total_degree()
            v_candidates += [v, v - ve1]
    if ve1 == 0:
        top = Element(pres, e1.value.top_form())
        kernel, _ = multiplicative_kernel(pres, top, deg_cap, window_cap)
        if kernel:
            v_candidates.append(kernel[0].value.valuation())
    if not v_candidates:
        return None
    span = window.span() if window is not None else 0
    a_poly = _denominator_bound(q1 * q2, q2 * e1.value.num, span)
    return Ansatz.build(pres, window, a_poly, max(v_candidates) + a_poly.total_degree(), deg_cap)


def twisted_family(
    pres: Presentation,
    e1: Element,
    rhs: LinComb,
    ctx: ParamContext,
    deg_cap: int | None = None,
    window_cap: int | None = None,
) -> LinComb:
    """Complete affine family of solutions of sigma(y) - e1*y = rhs.

    ``rhs`` may mention outer parameters; the ansatz coefficients become
    fresh parameters of ``ctx`` and the equation becomes exact rows.  Any
    actual solution (for any admissible parameter values) lies in the
    returned family; conversely, ctx rows force the family to solve.
    Raises Infeasible when no parameter assignment can work.
    """
    ansatz = _twisted_ansatz(pres, e1, rhs, deg_cap, window_cap)
    return LinComb.zero(pres) if ansatz is None else ansatz.family(pres, e1, rhs, ctx)


def decide_free_base(pres: Presentation, eq) -> SolveResult:
    """Decision procedure over an all-free presentation (no search bounds)."""
    if isinstance(eq, TwistedEquation):
        rhs = LinComb.constant(pres, eq.e2)
        ansatz = _twisted_ansatz(pres, eq.e1, rhs, None, None)
        ctx = ParamContext()
        try:
            family = LinComb.zero(pres) if ansatz is None else ansatz.family(pres, eq.e1, rhs, ctx)
        except Infeasible:
            window = ansatz.window
            const_cand = None
            note = "coefficient system infeasible over the derived ansatz"
            if eq.e1 != 1:
                cand = eq.e2 / (pres.one() - eq.e1)
                if not cand.is_constant():
                    const_cand = repr(cand)
                    if window is None or window.is_empty():
                        note = "constant case: the forced candidate is not rational"
            elif window is None or window.is_empty():
                note = "torsor over empty window: sigma(x)-x is never a nonzero constant"
            return Unsolvable(ansatz.refutation("twisted", repr(eq), const_cand, note))
        x = family.evaluate(ctx.solve())
    elif isinstance(eq, MultiplicativeEquation):
        basis, cert = multiplicative_kernel(pres, eq.ratio())
        if not basis:
            return Unsolvable(cert)
        x = basis[0]
    else:
        raise TypeError(f"unsupported equation type {type(eq).__name__}")
    if not eq.holds_for(x):
        raise AssertionError("internal error: candidate failed verification")
    return Solution(x)


def replay_refutation(pres: Presentation, eq, cert: FreeRefutation) -> bool:
    """Re-run the decision and compare the reproduced record."""
    again = decide_free_base(pres, eq)
    return isinstance(again, Unsolvable) and again.certificate == cert
