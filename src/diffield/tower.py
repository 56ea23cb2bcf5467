"""Bounded solving over presentations with affine extensions.

The solver peels the last affine generator a (rule sigma(a) = alpha*a +
beta) and writes a candidate x = N(a)/D(a) with coefficients one level
down.  For coefficients of the equation polynomial in a, coprimality forces
the reduced monic denominator to satisfy sigma(D) = alpha^m * D, and the
numerator to satisfy sigma(N) = alpha^m * (e1*N + e2*D).  Both identities
split degree by degree into the same triangular tower of twisted equations
for the coefficients one level down (the coefficient of a^k in
sigma(sum_i y_i a^i) is alpha^k * sum_{i>=k} C(i,k) beta^(i-k) sigma(y_i)),
solved recursively; the recursion bottoms out in the complete free-base
solver.  Everything stays jointly linear in the bookkeeping parameters, so
each structural branch is one exact linear system.

Search class (what "within bounds" means here): numerator and denominator
degree at most ``bounds.degree`` in every affine generator, coefficient
degree budgets shrinking accordingly, free-variable shifts within
``bounds.window`` plus the derived free-base windows, and free-base
denominators from the derived candidate products.  Denominators whose
coefficient tower has free parameters are searched at their particular
point only.  Every returned solution is verified by substitution;
exhaustion of the class is reported as NoSolutionWithinBounds, never as
unsolvability (certificates are a separate mechanism).
"""

from __future__ import annotations

import functools
from math import comb
from typing import Callable, Iterable, Iterator

from .equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    SolveResult,
    TwistedEquation,
    UnsupportedCoefficientShape,
)
from .field import Element, GeneratorSpec, Presentation
from .freebase import decide_free_base, twisted_family
from .linalg import Infeasible
from .params import LinComb, ParamContext
from .poly import MPoly, to_univar
from .ratfunc import SpanTracker


def last_affine(pres: Presentation) -> GeneratorSpec | None:
    for g in reversed(pres.gens):
        if not g.is_free:
            return g
    return None


def iter_twisted_branches(
    pres: Presentation,
    e1: Element,
    rhs: LinComb,
    ctx: ParamContext,
    deg_budget: int,
    window: int,
    *,
    polynomial: bool = False,
) -> Iterator[tuple[ParamContext, LinComb]]:
    """Yield (ctx, family) branches covering the search class.

    With ``polynomial`` every level searches denominator degree m = 0 only
    (see fixed_space).
    """
    if deg_budget < 0:
        return
    if pres.is_free_only():
        forked = ctx.fork()
        try:
            fam = twisted_family(pres, e1, rhs, forked, deg_budget, window)
        except Infeasible:
            return
        yield forked, fam
        return
    gen = last_affine(pres)
    assert gen is not None
    sub, alpha, beta = peel(pres, gen)
    e1_sub = require_level_free(e1, pres, sub, gen)
    a_var = pres.gen(gen.name)
    for m in range(0, 1 if polynomial else deg_budget + 1):
        for delta in _denominator_candidates(sub, alpha, beta, m, deg_budget, window):
            denominator = sum((c.in_presentation(pres) * a_var**k for k, c in enumerate(delta)), pres.zero())
            # sigma(N) = alpha^m * (e1*N + rhs*D), with N of degree at most
            # deg_budget: the coefficients of rhs*D above it must vanish.  The
            # first D is 1, so a rhs with gen in its denominator raises at once.
            rhs_delta = _lincomb_coefficients(rhs.mul_known(denominator), pres, gen, sub)
            top = ctx.fork()
            try:
                for k, row in rhs_delta.items():
                    if k > deg_budget:
                        top.add_zero(row)
            except Infeasible:
                continue

            def level(k: int) -> tuple[Element, LinComb, int]:
                scale = alpha ** (m - k)
                base = rhs_delta[k].mul_known(scale) if k in rhs_delta else LinComb.zero(sub)
                return e1_sub * scale, base, deg_budget - k

            for final_ctx, ys in _coefficient_tower(sub, beta, level, deg_budget, {}, top, window, polynomial):
                family = sum((ys[k].lift(pres).mul_known(a_var**k) for k in range(deg_budget + 1)), LinComb.zero(pres))
                yield final_ctx, family.mul_known(pres.one() / denominator)


def peel(pres: Presentation, gen: GeneratorSpec) -> tuple[Presentation, Element, Element]:
    """(sub, alpha, beta): pres without gen, and gen's rule sigma(gen) = alpha*gen + beta over sub."""
    sub = pres.restrict([n for n in pres.names() if n != gen.name])
    return sub, Element(sub, gen.kind.linear), Element(sub, gen.kind.constant)


def require_level_free(e1: Element, pres: Presentation, sub: Presentation, gen: GeneratorSpec) -> Element:
    """e1 as an element of sub; UnsupportedCoefficientShape when it involves gen."""
    if pres.varid(gen.name) in e1.value.variables():
        _lincomb_coefficients(LinComb.constant(pres, e1), pres, gen, sub)  # raises when gen is in the denominator
        raise UnsupportedCoefficientShape(
            f"twist coefficient mentions the extension generator {gen.name!r}"
        )
    return sub.element(e1.value)


def _lincomb_coefficients(lc: LinComb, pres: Presentation, gen: GeneratorSpec, sub: Presentation) -> dict[int, LinComb]:
    """Split a LinComb into per-degree LinCombs over the sub-presentation.

    The numerators split over the shared denominator, and each degree's piece
    is reduced again.  Raises UnsupportedCoefficientShape when the
    denominator, the lcm of the coefficients' reduced ones, involves gen.
    """
    var = pres.varid(gen.name)
    if var in lc.den.variables():
        raise UnsupportedCoefficientShape(f"coefficient has {gen.name!r} in its denominator")
    pieces: dict[int, dict[int | None, MPoly]] = {}  # degree -> parameter (None: const) -> piece
    for param, num in ((None, lc.const), *lc.coeffs.items()):
        for deg, part in to_univar(num, var).items():
            pieces.setdefault(deg, {})[param] = part
    return {deg: LinComb(sub, p.pop(None, MPoly()), p, lc.den, shared=lc.den) for deg, p in pieces.items()}


# The memo outlives a search because decide job streams repeat presentations.
# Working sets: 90 entries for run_pipeline() at default bounds, 82 at the
# benchmark's (2, 2) bounds (one corner search per shape), 9 for a stream of
# 504 decide jobs; 1024 bounds a long-lived process without evicting within
# any of these.
@functools.lru_cache(maxsize=1024)
def _denominator_candidates(
    sub: Presentation,
    alpha: Element,
    beta: Element,
    m: int,
    deg_budget: int,
    window: int,
) -> tuple[tuple[Element, ...], ...]:
    """Concrete monic denominators D = sum_k c_k a^k: tuples (c_0..c_m), c_m = 1.

    sigma(D) = alpha^m * D is the coefficient tower with twist 1 and base 0,
    solved in an isolated parameter context; each branch is materialized at
    its particular point, and a tuple equal to an earlier branch's (compared
    as elements) is dropped.  Results are memoized per exact budget, so
    enumeration order never depends on call history.
    """
    one = sub.one()
    if m == 0:
        return ((one,),)

    def level(k: int) -> tuple[Element, LinComb, int]:
        return alpha ** (m - k), LinComb.zero(sub), deg_budget

    out: dict[tuple[Element, ...], None] = {}  # insertion-ordered set
    for ctx, solved in _coefficient_tower(sub, beta, level, m - 1, {m: LinComb.constant(sub, one)}, ParamContext(), window):
        particular = ctx.solve()
        out[tuple(solved[k].evaluate(particular) for k in range(m + 1))] = None
    return tuple(out)


def _coefficient_tower(
    sub: Presentation,
    beta: Element,
    level: Callable[[int], tuple[Element, LinComb, int]],
    k: int,
    solved: dict[int, LinComb],
    ctx: ParamContext,
    window: int,
    polynomial: bool = False,
) -> Iterator[tuple[ParamContext, dict[int, LinComb]]]:
    """Branches solving the coefficient levels k, k-1, .., 0 below ``solved``.

    With ``level(k) = (twist, base, budget)``, level k is the twisted equation

        sigma(y_k) - twist * y_k = base - sum_{i>k} C(i,k) beta^(i-k) sigma(y_i)

    over the coefficients y_i already solved, searched within ``budget``
    (Karr's degree-by-degree split; see fixed_space).  A lower-level family
    can carry extension-generator denominators (an m >= 1 denominator
    branch); feeding it into the next level would need a non-polynomial
    split, so such combinations are outside the documented class and their
    branches simply end there.
    """
    if k < 0:
        yield ctx, solved
        return
    twist, rhs, budget = level(k)
    for i in sorted(solved):
        rhs = rhs - solved[i].sigma().mul_known(sub.const(comb(i, k)) * beta ** (i - k))
    branches = iter_twisted_branches(sub, twist, rhs, ctx, budget, window, polynomial=polynomial)
    while True:
        try:
            ctx2, fam = next(branches)
        except (StopIteration, UnsupportedCoefficientShape):
            return
        yield from _coefficient_tower(sub, beta, level, k - 1, {**solved, k: fam}, ctx2, window, polynomial)


def solve_twisted_bounded(pres: Presentation, eq: TwistedEquation, bounds: SearchBounds = SearchBounds()) -> SolveResult:
    """Search the bounded class; first verified hit under the documented order.

    Over an all-free presentation this delegates to the genuine decision,
    which can return the stronger Unsolvable verdict.
    """
    if pres.is_free_only():
        return decide_free_base(pres, eq)
    ctx = ParamContext()
    rhs = LinComb.constant(pres, eq.e2)
    for branch_ctx, family in iter_twisted_branches(pres, eq.e1, rhs, ctx, bounds.degree, bounds.window):
        particular = branch_ctx.solve()
        x = family.evaluate(particular)
        if eq.holds_for(x):
            return Solution(x)
        raise AssertionError("internal error: branch solution failed verification")
    return NoSolutionWithinBounds(bounds)


def solve_multiplicative_bounded(
    pres: Presentation, eq: MultiplicativeEquation, bounds: SearchBounds = SearchBounds()
) -> SolveResult:
    """Nonzero solutions of sigma(x) = e^z * x within the bounded class."""
    if pres.is_free_only():
        return decide_free_base(pres, eq)
    for x in _homogeneous_solutions(pres, eq.ratio(), bounds.degree, bounds.window):
        if eq.holds_for(x):
            return Solution(x)
        raise AssertionError("internal error: branch solution failed verification")
    return NoSolutionWithinBounds(bounds)


def _homogeneous_solutions(
    pres: Presentation, e1: Element, deg_budget: int, window: int, *, polynomial: bool = False
) -> Iterator[Element]:
    """Nonzero kernel directions of each branch solving sigma(x) = e1*x.

    With rhs = 0 every row of a branch is homogeneous, so its particular
    point is 0 and its solutions are spanned by its kernel directions.
    """
    branches = iter_twisted_branches(
        pres, e1, LinComb.zero(pres), ParamContext(), deg_budget, window, polynomial=polynomial
    )
    for ctx, family in branches:
        for direction in ctx.kernel():
            x = family.direction(direction)
            if not x.is_zero():
                yield x


def fixed_space(
    pres: Presentation, bounds: SearchBounds = SearchBounds(), *, polynomial: bool = False
) -> list[Element]:
    """Spanning set of fixed elements found within the bounded class.

    Complete for the documented class; used as the honest bounded proxy for
    the fixed subfield of a generated difference field.

    With ``polynomial`` the search covers only elements with no affine
    generator in a denominator, which is all that callers wanting the
    polynomial fixed elements need: a polynomial x = sum_k y_k a^k in the
    last affine generator a has coefficients y_k that are again polynomials
    one level down, so its denominator in a has degree m = 0, and the same
    holds for each y_k at every lower level.  Every m >= 1 denominator branch
    is therefore skipped, at every level.  This is the degree-bounding
    argument of Karr's summation in PiSigma-fields (M. Karr, "Summation in
    Finite Terms", JACM 28(2), 1981).  Members may still have free-base
    denominators; callers keep the polynomial ones.
    """
    return span_basis(fixed_candidates(pres, bounds, polynomial=polynomial), first=pres.one())


def fixed_candidates(
    pres: Presentation, bounds: SearchBounds = SearchBounds(), *, polynomial: bool = False
) -> list[Element]:
    """The fixed elements the search of fixed_space finds, before span_basis.

    The search reads generators by index and rule only, never by name.  A
    free presentation gives none: its fixed field is Q, which fixed_space
    adds as ``first``.
    """
    if pres.is_free_only():
        return []
    return require_fixed(_homogeneous_solutions(pres, pres.one(), bounds.degree, bounds.window, polynomial=polynomial))


def require_fixed(elems: Iterable[Element]) -> list[Element]:
    """The elements as a list; AssertionError when one of them is not fixed."""
    out = list(elems)
    if not all(x.is_fixed() for x in out):
        raise AssertionError("internal error: fixed-space candidate not fixed")
    return out


def span_basis(elems: Iterable[Element], first: Element | None = None) -> list[Element]:
    """The members of elems that grow the Q-span of those kept before them.

    ``first`` is tried before all the others, which are tried grouped by
    denominator in ``repr`` order; that order fixes which members are kept.
    """
    ordered = sorted(elems, key=lambda e: (repr(e.value.den), repr(e.value)))
    if first is not None:
        ordered.insert(0, first)
    tracker = SpanTracker()
    return [e for e in ordered if tracker.add(e.value)]
