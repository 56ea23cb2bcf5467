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

Families are kept over the free parameters of their branch's echelon: each
branch's family has its solved parameters substituted out
(:meth:`~diffield.params.ParamContext.reduced`).  That changes a family only
by a combination of the branch's rows, so it keeps its value at every
solution of the branch.  A free-base ansatz read off a sparser right-hand
side can be smaller, and it still holds every solution, since its bounds
hold at each parameter value.  A family the rows pin to zero becomes the
zero family, and it is skipped: it is never multiplied into a level's
right-hand side, sigma-substituted, or added as a term of the assembled
numerator.

A query of degree budget 0 is a free-base query.  Its solutions have
degree 0 in every affine generator, so they lie in the free base: there is
one branch, the free-base family of sigma(y) - e1*y = c, where c is the
coefficient of rhs at the affine monomial 1, under rows that make every
coefficient at a nonconstant affine monomial vanish.  It raises or comes
back empty exactly when the level-by-level tower would (_free_base_branch).

Special denominators are refuted once per level.  If D is monic of degree
m >= 1 with sigma(D) = alpha^m * D, its coefficient c of a^(m-1) solves
sigma(c) - alpha*c = -m*beta (M. Karr, "Summation in Finite Terms", JACM
28(2), 1981; M. Bronstein, "On Solutions of Linear Ordinary Difference
Equations in their Coefficient Field", JSC 29(6), 2000).  In characteristic
0 that is the m = 1 equation sigma(w) - alpha*w = -beta scaled by m, so
when m = 1 has no denominator within the bounds, no degree has one.

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
from .field import Element, Presentation
from .freebase import decide_free_base, twisted_family
from .linalg import Infeasible
from .params import LinComb, ParamContext, _lincomb_coefficients, require_level_free
from .ratfunc import SpanTracker


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

    Each family is over the free parameters of its ctx: the free-base
    family, and the numerator assembled from the coefficient levels, whose
    zero levels add no term, are reduced before a denominator D of degree
    m >= 1 divides them.  With ``polynomial`` every level searches
    denominator degree m = 0 only (see fixed_space).  A query of budget 0
    has the one free-base branch of _free_base_branch.
    """
    if deg_budget < 0:
        return
    affine = pres.affine_top
    if affine is None or deg_budget == 0:
        yield from _free_base_branch(pres, e1, rhs, ctx, deg_budget, window)
        return
    gen, sub, alpha, beta = affine.gen, affine.sub, affine.alpha, affine.beta
    e1_sub = require_level_free(e1, pres, sub, gen)
    a_var = pres.gen(gen.name)
    for m in range(0, 1 if polynomial else deg_budget + 1):
        for delta in _denominator_candidates(sub, alpha, beta, m, deg_budget, window):
            # sigma(N) = alpha^m * (e1*N + rhs*D), with N of degree at most
            # deg_budget: the coefficients of rhs*D above it must vanish.  The
            # first D is 1 (m = 0), never formed or multiplied by, so a rhs
            # with gen in its denominator raises at once.
            if m:
                denominator = sum((c.in_presentation(pres) * a_var**k for k, c in enumerate(delta)), pres.zero())
                rhs_delta = _lincomb_coefficients(rhs.mul_known(denominator), pres, gen, sub)
            else:
                rhs_delta = _lincomb_coefficients(rhs, pres, gen, sub)
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

            for final_ctx, ys in _coefficient_tower(sub, beta, level, deg_budget, {}, {}, top, window, polynomial):
                terms = (ys[k].lift(pres).mul_known(a_var**k) for k in range(1, deg_budget + 1) if not ys[k].is_zero())
                family = final_ctx.reduced(sum(terms, ys[0].lift(pres)))
                yield final_ctx, family.mul_known(pres.one() / denominator) if m else family


def _free_base_branch(
    pres: Presentation, e1: Element, rhs: LinComb, ctx: ParamContext, deg_budget: int, window: int
) -> Iterator[tuple[ParamContext, LinComb]]:
    """The one branch of a query with no affine generator left to split.

    Over a free presentation this is the free-base family within the budget.
    At budget 0 over affine generators it is the same family at the free
    base: a solution of degree 0 in every affine generator lies there, so
    e1 must mention none of them, and every coefficient of rhs at a
    nonconstant affine monomial must vanish.  The levels are walked top
    down, the coefficient of a^0 of each one passed to the next, as the
    coefficient tower at budget 0 would; a generator in a denominator can
    cancel only once that coefficient is taken.  The top level raises
    UnsupportedCoefficientShape for a twist or a denominator that mentions
    its generator, and a lower one ends with no branch, as a level of the
    tower does.
    """
    forked = ctx.fork()
    base = pres
    try:
        while (affine := base.affine_top) is not None:
            try:
                e1 = require_level_free(e1, base, affine.sub, affine.gen)
                pieces = _lincomb_coefficients(rhs, base, affine.gen, affine.sub)
            except UnsupportedCoefficientShape:
                if base is pres:
                    raise
                return
            rhs = pieces.pop(0) if 0 in pieces else LinComb.zero(affine.sub)
            for row in pieces.values():
                forked.add_zero(row)
            base = affine.sub
        fam = twisted_family(base, e1, rhs, forked, deg_budget, window)
    except Infeasible:
        return
    yield forked, forked.reduced(fam).lift(pres)


# The memo outlives a search because decide job streams repeat presentations.
# Working sets: 59 entries for run_pipeline() at default bounds and at the
# benchmark's (2, 2) bounds (the certified corners run no search, and a
# budget-0 query reads no entry), 8 for a stream of 504 decide jobs; 1024
# bounds a long-lived process without evicting within any of these.
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

    sigma(D) = alpha^m * D is the coefficient tower with twist alpha^(m-k)
    at level k and base 0, solved in an isolated parameter context; each
    branch is materialized at its particular point, and a tuple equal to an
    earlier branch's (compared as elements) is dropped.  Results are
    memoized per exact budget, so enumeration order never depends on call
    history.

    For m >= 2 the top level k = m-1 is sigma(c) - alpha*c = -m*beta (the
    solved c_m = 1 adds -C(m, m-1)*beta*sigma(1)): the m = 1 equation
    sigma(w) - alpha*w = -beta scaled by m, which is nonzero in
    characteristic 0 (Karr 1981; Bronstein 2000).  Scaling a right-hand side
    by a nonzero rational scales its rows and keeps windows, valuations, the
    ansatz and the free-base denominators, so the level has a branch exactly
    when m = 1 has one.  An empty m = 1 entry with the same budget and
    window therefore returns () at once.  The check reads the memoized m = 1
    entry, computing it when absent, so results never depend on call history
    either; iter_twisted_branches asks for m = 1 before any m >= 2, so it
    adds no search there.
    """
    one = sub.one()
    if m == 0:
        return ((one,),)
    if m > 1 and not _denominator_candidates(sub, alpha, beta, 1, deg_budget, window):
        return ()

    def level(k: int) -> tuple[Element, LinComb, int]:
        return alpha ** (m - k), LinComb.zero(sub), deg_budget

    leading = {m: LinComb.constant(sub, one)}  # sigma(1) = 1
    out: dict[tuple[Element, ...], None] = {}  # insertion-ordered set
    for ctx, solved in _coefficient_tower(sub, beta, level, m - 1, leading, leading, ParamContext(), window):
        particular = ctx.solve()
        out[tuple(solved[k].evaluate(particular) for k in range(m + 1))] = None
    return tuple(out)


def _coefficient_tower(
    sub: Presentation,
    beta: Element,
    level: Callable[[int], tuple[Element, LinComb, int]],
    k: int,
    solved: dict[int, LinComb],
    images: dict[int, LinComb],
    ctx: ParamContext,
    window: int,
    polynomial: bool = False,
) -> Iterator[tuple[ParamContext, dict[int, LinComb]]]:
    """Branches solving the coefficient levels k, k-1, .., 0 below ``solved``.

    With ``level(k) = (twist, base, budget)``, level k is the twisted equation

        sigma(y_k) - twist * y_k = base - sum_{i>k} C(i,k) beta^(i-k) sigma(y_i)

    over the coefficients y_i already solved, whose images sigma(y_i) are
    ``images``: each is formed once, when its branch is, and only when a
    level below reads it.  A zero y_i is its own image and adds no term.
    The right-hand side is reduced over the free parameters of ctx before
    the level is searched, as every family is.
    Each level is searched within ``budget`` (Karr's degree-by-degree split;
    see fixed_space).  A lower-level family can carry extension-generator
    denominators (an m >= 1 denominator branch); feeding it into the next
    level would need a non-polynomial split, so such combinations are
    outside the documented class and their branches simply end there.
    Whether a family carries one is read off its free-parameter form: an
    m >= 1 family that its rows make polynomial in the generator is fed on.
    """
    if k < 0:
        yield ctx, solved
        return
    twist, rhs, budget = level(k)
    for i in sorted(solved):
        if not images[i].is_zero():
            rhs = rhs - images[i].mul_known(sub.const(comb(i, k)) * beta ** (i - k))
    rhs = ctx.reduced(rhs)
    branches = iter_twisted_branches(sub, twist, rhs, ctx, budget, window, polynomial=polynomial)
    while True:
        try:
            ctx2, fam = next(branches)
        except (StopIteration, UnsupportedCoefficientShape):
            return
        below = {**images, k: fam if fam.is_zero() else fam.sigma()} if k else images
        yield from _coefficient_tower(sub, beta, level, k - 1, {**solved, k: fam}, below, ctx2, window, polynomial)


def solve_twisted_bounded(pres: Presentation, eq: TwistedEquation, bounds: SearchBounds = SearchBounds()) -> SolveResult:
    """Search the bounded class; first verified hit under the documented order.

    Over an all-free presentation this delegates to the genuine decision,
    which can return the stronger Unsolvable verdict.
    """
    if pres.affine_top is None:
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
    if pres.affine_top is None:
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
    if pres.affine_top is None:
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
