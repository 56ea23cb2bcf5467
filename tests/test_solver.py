"""Free-base decisions, the bounded tower solver, and descent transformations."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_decide_free_base,
    reference_denominator_candidates,
    reference_fixed_space,
    reference_iter_twisted_branches,
    reference_solve_twisted_bounded,
    reference_twisted_family,
)
from diffield.descent import DescentHypothesisViolated, descent_linear, descent_multiplicative
from diffield.equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unsolvable,
    UnsupportedCoefficientShape,
)
from diffield.field import Presentation
from diffield.freebase import (
    _denominator_bound,
    _twisted_ansatz,
    decide_free_base,
    replay_refutation,
    twisted_family,
)
from diffield.linalg import Infeasible
from diffield.params import LinComb, ParamContext
from diffield.poly import MPoly, VarId, divexact, poly_gcd
from diffield.ratfunc import SpanTracker
from diffield.tower import (
    _denominator_candidates,
    fixed_space,
    iter_twisted_branches,
    solve_multiplicative_bounded,
    solve_twisted_bounded,
)


def free_base():
    return Presentation.empty().with_free("g")


def closed_base():
    p, g = free_base()
    p, t = p.with_affine("t", 1, 1)
    return p, g.in_presentation(p), t


def test_zero_torsor_solved_by_zero():
    p, g = free_base()
    res = solve_twisted_bounded(p, TwistedEquation(p.one(), p.zero()))
    assert isinstance(res, Solution) and res.witness.is_zero()


def test_adjoined_witness_found():
    p, g, t = closed_base()
    res = solve_twisted_bounded(p, TwistedEquation(p.one(), p.one()), SearchBounds(3, 2))
    assert isinstance(res, Solution) and res.witness == t


def test_torsor_of_g_unsolvable_and_oracle_agrees():
    # cross-check against a brute-force enumeration of the polynomial
    # coefficient system: within degree 4, window 3 the linear system for
    # sigma(x) - x = g has no solution (an independent dense-rank oracle).
    p, g = free_base()
    res = decide_free_base(p, TwistedEquation(p.one(), g))
    assert isinstance(res, Unsolvable)
    assert _poly_ansatz_has_solution(p, e2_shift_coeffs={0: Fraction(1)}, deg=4, window=3) is False


def _poly_ansatz_has_solution(p, e2_shift_coeffs, deg, window):
    """Brute-force oracle: solve sigma(x) - x = e2 over polynomial x.

    x ranges over polynomials in g[-window..window] of total degree <= deg;
    rows come from matching monomials of sigma(x) - x - e2 directly, using
    an independent elimination written here.
    """
    import itertools

    from diffield.poly import MPoly, VarId

    vars_ = [VarId(0, "g", s) for s in range(-window, window + 1)]
    monos = []
    for d in range(deg + 1):
        for combo in itertools.combinations_with_replacement(vars_, d):
            m = MPoly.const(1)
            for v in combo:
                m = m * MPoly.var(v)
            monos.append(m)
    e2 = MPoly()
    for shift, c in e2_shift_coeffs.items():
        e2 = e2 + MPoly.var(VarId(0, "g", shift)).scale(c)
    columns = [m.shift(1) - m for m in monos]
    keys = sorted({mm for c in columns for mm in c.terms} | set(e2.terms), key=str)
    matrix = [[c.terms.get(k, Fraction(0)) for c in columns] for k in keys]
    rhs = [e2.terms.get(k, Fraction(0)) for k in keys]
    # dense elimination, written independently of the package's linalg
    ncols = len(columns)
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    r = 0
    for c in range(ncols + 1):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        if c == ncols:
            return False  # pivot in the constant column: infeasible
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return True


def test_telescoping_oracle_cross_check():
    p, g = free_base()
    res = decide_free_base(p, TwistedEquation(p.one(), p.gen("g", 1) - g))
    assert isinstance(res, Solution) and res.witness == g
    assert _poly_ansatz_has_solution(p, {1: Fraction(1), 0: Fraction(-1)}, deg=4, window=3) is True


def test_avoided_families_decided():
    p, g = free_base()
    for z in (1, 2, 3, -1, -2, -3):
        assert isinstance(decide_free_base(p, MultiplicativeEquation(g, z)), Unsolvable)
    assert isinstance(decide_free_base(p, TwistedEquation(g, g)), Unsolvable)
    inv = p.one() / g
    assert isinstance(decide_free_base(p, TwistedEquation(inv, inv)), Unsolvable)


def test_constant_case_certificate_records_candidate():
    p, g = free_base()
    res = decide_free_base(p, TwistedEquation(g, g))
    cert = res.certificate
    assert cert.constant_candidate is not None
    assert "g" in cert.constant_candidate
    assert replay_refutation(p, TwistedEquation(g, g), cert)


def test_multiplicative_rational_ratio():
    p, g = free_base()
    res = decide_free_base(p, MultiplicativeEquation(p.const(Fraction(2)), 1))
    assert isinstance(res, Unsolvable)
    res = solve_multiplicative_bounded(p, MultiplicativeEquation(p.gen("g", 1) / g, 1))
    assert isinstance(res, Solution) and res.witness.sigma(1) == (p.gen("g", 1) / g) * res.witness


def test_mult_zero_exponent_rejected():
    p, g = free_base()
    with pytest.raises(ValueError):
        MultiplicativeEquation(g, 0)


def test_torsor_of_twisted_generator_bounded_refusal():
    p, g, t = closed_base()
    p2, a1 = p.with_affine("a1", g, g)
    res = solve_twisted_bounded(p2, TwistedEquation(p2.one(), a1), SearchBounds(4, 2))
    assert isinstance(res, NoSolutionWithinBounds)


def test_pair_sum_torsor_solved_by_product():
    q, g = Presentation.empty().with_free("g")
    q, a1 = q.with_affine("a1", g, g)
    inv = q.one() / q.gen("g")
    q, a2 = q.with_affine("a2", inv, inv)
    q, t = q.with_affine("t", 1, 1)
    a1, a2 = a1.in_presentation(q), a2.in_presentation(q)
    res = solve_twisted_bounded(q, TwistedEquation(q.one(), a1 + a2), SearchBounds(4, 2))
    assert isinstance(res, Solution)
    assert res.witness == a1 * a2 - t


def test_planted_solutions_always_found_and_never_refuted():
    # soundness battery: instances constructed with a solution inside the
    # bounds must come back Solution (no false refutations).
    rng = random.Random(2024)
    p, g, t = closed_base()
    found = 0
    for _ in range(25):
        # plant x, pick e1 among units, set e2 := sigma(x) - e1*x
        deg = rng.randint(0, 2)
        x = p.const(rng.randint(-3, 3))
        for _ in range(deg):
            pick = rng.random()
            if pick < 0.4:
                x = x + p.gen("g", rng.randint(-1, 1)) * rng.randint(-2, 2)
            elif pick < 0.8:
                x = x + t * rng.randint(-2, 2)
            else:
                x = x + p.gen("g", 0) * t
        e1 = [p.one(), g, p.one() / g][rng.randint(0, 2)]
        e2 = x.sigma(1) - e1 * x
        res = solve_twisted_bounded(p, TwistedEquation(e1, e2), SearchBounds(3, 2))
        assert isinstance(res, Solution), (x, e1, e2, res)
        # any verified solution is acceptable (solution sets are cosets)
        assert res.witness.sigma(1) - e1 * res.witness == e2
        found += 1
    assert found == 25


def test_tower_agrees_with_dense_polynomial_oracle():
    """Over E0(t), finding/refuting agrees with a dense independent search.

    The oracle solves sigma(x) - e1*x = e2 over polynomials in g[-1..1], t
    of total degree <= 2 with its own elimination; whenever it finds a
    solution the tower solver must too, and a tower refutation implies the
    oracle finds no polynomial one.
    """
    import itertools

    from diffield.poly import MPoly, divexact
    from conftest import common_denominator
    from diffield.ratfunc import RatFunc

    p, g, t = closed_base()
    vars_ = [p.varid("g", s) for s in (-1, 0, 1)] + [p.varid("t")]
    monos = []
    for d in range(3):
        for combo in itertools.combinations_with_replacement(vars_, d):
            m = MPoly.const(1)
            for v in combo:
                m = m * MPoly.var(v)
            monos.append(p.element(RatFunc.from_poly(m)))

    def dense_has_solution(e1, e2):
        cols = [mono.sigma(1) - e1 * mono for mono in monos]
        den = common_denominator([c.value for c in cols] + [e2.value])
        cleared = [c.value.num * divexact(den, c.value.den) for c in cols]
        rhs_p = e2.value.num * divexact(den, e2.value.den)
        keys = sorted({mm for c in cleared for mm in c.terms} | set(rhs_p.terms), key=str)
        aug = [
            [c.terms.get(k, Fraction(0)) for c in cleared] + [rhs_p.terms.get(k, Fraction(0))]
            for k in keys
        ]
        ncols = len(cleared)
        r = 0
        for c in range(ncols + 1):
            piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
            if piv is None:
                continue
            if c == ncols:
                return False  # pivot in the constants column
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = Fraction(1) / aug[r][c]
            aug[r] = [x * inv for x in aug[r]]
            for i in range(len(aug)):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            r += 1
        return True

    cases = [
        (p.one(), p.one()),                 # x = t
        (p.one(), g.sigma(1) - g),          # x = g
        (g, g),                             # refuted outright downstairs
        (p.one(), g),                       # no solution at all
        (p.one(), 2 * t.sigma(1) - 2 * t),  # x = 2t
    ]
    for e1, e2 in cases:
        oracle_found = dense_has_solution(e1, e2)
        got = solve_twisted_bounded(p, TwistedEquation(e1, e2), SearchBounds(2, 1))
        if oracle_found:
            assert isinstance(got, Solution), (e1, e2)
        else:
            assert not (isinstance(got, Solution) and got.witness.value.is_polynomial())


def test_free_base_planted_with_denominators():
    """The decision procedure finds planted solutions with denominators.

    Exercises the denominator-candidate bound: x is planted as a rational
    function whose reduced denominator chains through the coefficient
    denominators, and e2 is back-computed so x really solves the equation.
    """
    rng = random.Random(616)
    p, g = free_base()
    found = 0
    for _ in range(30):
        num = p.const(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            num = num + p.gen("g", rng.randint(-1, 1)) * rng.randint(-2, 2)
        den = p.gen("g", rng.randint(-1, 1)) + rng.randint(0, 2)
        x = num / den
        e1 = [p.one(), g, p.one() / g, p.gen("g", 1) / g][rng.randint(0, 3)]
        e2 = x.sigma(1) - e1 * x
        res = decide_free_base(p, TwistedEquation(e1, e2))
        assert isinstance(res, Solution), (x, e1)
        assert res.witness.sigma(1) - e1 * res.witness == e2
        found += 1
    assert found == 30


def _product_form_bound(up, down, span):
    """The denominator bound as gcd(sigma^-i(up), prod_j sigma^j(down)), product formed."""
    if up.is_constant():
        return MPoly.const(1)
    down_all = MPoly.const(1)
    for j in range(0, span + 1):
        down_all = down_all * down.shift(j)
    out = MPoly.const(1)
    for i in range(1, span + 1):
        piece = poly_gcd(up.shift(-i), down_all)
        if not piece.is_constant():
            out = out * piece
    return out


def _shift_factor(kind, k, c):
    g = MPoly.var(VarId(0, "g", k))
    if kind == "linear":
        return g + MPoly.const(c)
    if kind == "square":
        return (g + MPoly.const(c)) ** 2
    return g * MPoly.var(VarId(0, "g", k + 1)) + MPoly.const(c)  # "quadratic"


def _bound_operand(kinds, lo, hi, max_size):
    """c * (a product of up to max_size small factors in shifts lo..hi of g).

    sigma^-i(up) meets sigma^j(down) where up's shifts exceed down's by
    i + j, so up draws higher shifts than down.  Repeats and shifts of one
    factor are common, so one prime of sigma^-i(up) often sits in several
    shifts of down and the divide-out step decides its multiplicity.  down
    stays small (two factors, no squares): the product form's gcd against
    prod_j sigma^j(down) takes seconds once that product passes degree 16.
    """
    return st.tuples(
        st.sampled_from([1, -3, 2]),
        st.lists(
            st.tuples(st.sampled_from(kinds), st.integers(lo, hi), st.integers(0, 2)),
            max_size=max_size,
        ),
    )


def _operand(drawn):
    scalar, factors = drawn
    out = MPoly.const(scalar)
    for kind, k, c in factors:
        out = out * _shift_factor(kind, k, c)
    return out


@settings(max_examples=200, deadline=None)
@given(
    _bound_operand(["linear", "linear", "square", "quadratic"], 0, 3, 3),
    _bound_operand(["linear", "linear", "quadratic"], -1, 1, 2),
    st.integers(0, 3),
)
@example((0, []), (1, [("linear", 0, 1)]), 2)  # zero up
@example((2, []), (1, [("linear", 0, 1)]), 2)  # constant up
@example((1, [("linear", 0, 1)]), (-3, []), 2)  # constant down
@example((1, [("square", 1, 1)]), (0, []), 2)  # zero down: gcd(a, 0) = a
def test_denominator_bound_agrees_with_product_form(up, down, span):
    up, down = _operand(up), _operand(down)
    got = _denominator_bound(up, down, span)
    want = _product_form_bound(up, down, span)
    assert repr(got) == repr(want), (up, down, span)
    assert got.terms == want.terms


def test_denominator_bound_divides_out_repeated_factors():
    g = [_shift_factor("linear", k, 1) for k in range(-1, 3)]  # g[-1]+1 .. g[2]+1
    # (g+1)^2 against (g+1)(g[-1]+1) and its shift: multiplicity 2, not 1 or 3
    assert _denominator_bound(g[2] ** 2, g[1] * g[0], 1) == g[1] ** 2
    # g+1 once against the same: the second shift must not count it again
    assert _denominator_bound(g[2], g[1] * g[0], 1) == g[1]


def test_tower_planted_with_free_denominators():
    """Planted solutions with free-base denominators over a 2-level tower."""
    rng = random.Random(2718)
    p, g, t = closed_base()
    p2, a1 = p.with_affine("a1", g.in_presentation(p), g.in_presentation(p))
    g2, t2 = g.in_presentation(p2), t.in_presentation(p2)
    for trial in range(12):
        x = (t2 * rng.randint(1, 2) + a1 * rng.randint(0, 2) + rng.randint(-2, 2)) / g2
        e1 = [p2.one(), g2][rng.randint(0, 1)]
        e2 = x.sigma(1) - e1 * x
        res = solve_twisted_bounded(p2, TwistedEquation(e1, e2), SearchBounds(3, 2))
        assert isinstance(res, Solution), (trial, x, e1)
        assert res.witness.sigma(1) - e1 * res.witness == e2


def test_integer_relation_lattice_is_saturated():
    """Brute-force saturation check for the integer relation lattice.

    For random small element families, every box relation found by direct
    enumeration must be an integer combination of the returned basis.
    """
    import itertools

    from diffield.linalg import solve_affine
    from diffield.ratfunc import linear_relations

    rng = random.Random(99)
    p, g = free_base()
    u, v = p.gen("g", 0), p.gen("g", 1)
    for _ in range(25):
        k = rng.randint(2, 4)
        rows = [[rng.randint(-1, 1) for _ in range(2)] + [rng.randint(-1, 1)] for _ in range(k)]
        elems = [row[0] * u + row[1] * v + p.const(row[2]) for row in rows]
        basis = linear_relations([e.value for e in elems])
        for rel in basis:
            acc = p.zero()
            for q, e in zip(rel, elems):
                acc = acc + p.const(q) * e
            assert acc.is_zero()
        for z in itertools.product(range(-3, 4), repeat=k):
            if not any(z):
                continue
            acc = p.zero()
            for q, e in zip(z, elems):
                acc = acc + p.const(q) * e
            if not acc.is_zero():
                continue
            # z must be an *integer* combination of the basis
            if not basis:
                assert False, f"relation {z} exists but basis is empty"
            matrix = [[basis[j][i] for j in range(len(basis))] for i in range(k)]
            got = solve_affine(matrix, [Fraction(c) for c in z])
            assert got is not None
            combo = got
            assert all(q.denominator == 1 for q in combo), (z, basis)


def test_param_context_solve_leaves_no_cyclic_garbage():
    ctx = ParamContext()
    p0, p1, p2 = ctx.new_params(3)
    rows = [({p0: Fraction(1), p1: Fraction(2)}, Fraction(-1)), ({p1: Fraction(1), p2: Fraction(-3)}, Fraction(2))]
    for coeffs, const in rows:
        ctx.add_row(coeffs, const)
    gc.collect()
    gc.disable()
    try:
        particular = ctx.solve()
        kernel = ctx.kernel()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(kernel) == 1 and kernel[0][p2] == 1
    for coeffs, const in rows:
        assert const + sum(c * particular.get(k, 0) for k, c in coeffs.items()) == 0
        assert sum(c * kernel[0].get(k, 0) for k, c in coeffs.items()) == 0


def test_fixed_space_of_closed_base_is_rational():
    p, g, t = closed_base()
    assert [repr(e) for e in fixed_space(p, SearchBounds(3, 2))] == ["1"]


def test_fixed_space_sees_torsor_differences():
    p, g = free_base()
    p, u = p.with_affine("u", 1, g)
    p, v = p.with_affine("v", 1, g.in_presentation(p))
    span = fixed_space(p, SearchBounds(2, 1))
    u, v = u.in_presentation(p), v
    assert any(not e.is_constant() for e in span)
    from diffield.ratfunc import linear_relations

    rels = linear_relations([e.value for e in span] + [(u - v).value])
    assert any(rel[-1] for rel in rels)  # u - v lies in the computed span


def test_fixed_space_does_not_depend_on_the_denominator_memo():
    p, g, t = closed_base()
    p, _ = p.with_affine("a1", g, g)  # Q(g)(t)(a1), sigma(a1) = g*a1 + g
    t = t.in_presentation(p)
    bounds = SearchBounds(2, 1)
    _denominator_candidates.cache_clear()
    cold = repr(fixed_space(p, bounds))
    cold_misses = _denominator_candidates.cache_info().misses
    _denominator_candidates.cache_clear()
    solve_twisted_bounded(p, TwistedEquation(p.one(), t), bounds)
    misses = _denominator_candidates.cache_info().misses
    warm = repr(fixed_space(p, bounds))
    info = _denominator_candidates.cache_info()
    assert info.misses - misses < cold_misses  # it reused the other search's entries
    assert warm == cold
    assert info.maxsize is not None


def special_denominator_rules():
    """The last affine generator's rule over Q(g), or Q(g)(t), by name."""
    p, g = free_base()
    closed, g1, _ = closed_base()
    return {
        "sigma": p.with_affine("t", 1, 1)[0],  # no special denominator
        "pi": p.with_affine("a", g, 0)[0],  # D = a^m
        "avoided": closed.with_affine("a1", g1, g1)[0],  # sigma(w) - g*w = -g has no solution
        "realized": p.with_affine("a", g, g - 1)[0],  # D = (a + 1)^m
        "scaled": p.with_affine("a", 2, 1)[0],  # D = (a + 1)^m
    }


@pytest.mark.parametrize("name", ["sigma", "pi", "avoided", "realized", "scaled"])
def test_special_denominators_agree_with_every_degree_solved(name):
    # m >= 2 reads the m = 1 entry, computing it when the memo lacks it: so
    # each budget is asked cold at its highest m first, then downwards
    top = special_denominator_rules()[name].affine_top
    args = (top.sub, top.alpha, top.beta)
    for budget in (1, 2, 3):
        for window in (1, 2):
            _denominator_candidates.cache_clear()
            for m in range(budget, 0, -1):
                got = _denominator_candidates(*args, m, budget, window)
                assert got == reference_denominator_candidates(*args, m, budget, window)
                assert bool(got) == (name in ("pi", "realized", "scaled")), (m, budget, window)


# The three tests below reach denominators of degree m >= 1 in an affine
# generator, where sigma(D) = alpha^m * D is solved by the coefficient tower.


def test_denominator_branch_fixed_space_of_two_scalings():
    # sigma(a) = 2a, sigma(b) = 4b: a^2/b is fixed and has b in its
    # denominator, so the polynomial-only search leaves it out
    p, g = free_base()
    p, _ = p.with_affine("a", 2, 0)
    p, _ = p.with_affine("b", 4, 0)
    assert [repr(e) for e in fixed_space(p, SearchBounds(2, 1))] == ["1", "a^2/b"]
    assert [repr(e) for e in fixed_space(p, SearchBounds(2, 1), polynomial=True)] == ["1"]


def test_denominator_branch_fixed_space_of_a_shared_twist():
    # sigma(a) = g*a, sigma(b) = g*b: every a^i*b^j with i + j = 0 is fixed
    p, g = free_base()
    p, _ = p.with_affine("a", g, 0)
    p, _ = p.with_affine("b", g.in_presentation(p), 0)
    assert [repr(e) for e in fixed_space(p, SearchBounds(2, 1))] == ["1", "b/a", "a/b", "a^2/b^2"]


def test_denominator_branch_multiplicative_solution():
    # sigma(x) = x/2 with sigma(a) = 2a is solved by 1/a
    p, g = free_base()
    p, a = p.with_affine("a", 2, 0)
    res = solve_multiplicative_bounded(p, MultiplicativeEquation(p.const(2), -1), SearchBounds(2, 1))
    assert repr(res) == "Solution(1/a)"
    assert res.witness == p.one() / a


def test_denominator_branch_with_a_shift():
    # sigma(a) = 2a + 1, sigma(b) = 4b + 3: the denominators a + 1 and b + 1
    # need the binomial terms of the tower, and (a + 1)^2/(b + 1) is fixed
    p, g = free_base()
    p, a = p.with_affine("a", 2, 1)
    res = solve_multiplicative_bounded(p, MultiplicativeEquation(p.const(2), -1), SearchBounds(2, 1))
    assert repr(res) == "Solution(1/(a + 1))"
    p, _ = p.with_affine("b", 4, 3)
    assert [repr(e) for e in fixed_space(p, SearchBounds(2, 1))] == [
        "1",
        "(-b - 1)/(a^2 + 2*a - b)",
        "(1/2*a^2 + a - 1/2*b)/(b + 1)",
    ]


# Rules sigma(a) = linear*a + constant for random towers over Q(g); ``a`` in a
# constant is the previous affine generator (1 for the first one).
LINEAR = (
    lambda g: g.pres.one(),
    lambda g: g,
    lambda g: g.pres.one() / g,
    lambda g: g.sigma(1) / g,
    lambda g: g.pres.const(-1),
)
CONSTANT = (
    lambda g, a: g.pres.zero(),
    lambda g, a: g.pres.one(),
    lambda g, a: g,
    lambda g, a: g.sigma(1) - g,
    lambda g, a: g.pres.one() / g,
    lambda g, a: a,
    lambda g, a: g * a,
)


TOWER_RULES = st.lists(
    st.tuples(st.integers(0, len(LINEAR) - 1), st.integers(0, len(CONSTANT) - 1)),
    min_size=1,
    max_size=2,
)


def drawn_tower(rules):
    """Q(g) extended by affine generators a0, a1, .. with the drawn rules."""
    p, g = free_base()
    a = p.one()
    for n, (lin, con) in enumerate(rules):
        g, a = g.in_presentation(p), a.in_presentation(p)
        p, a = p.with_affine(f"a{n}", LINEAR[lin](g), CONSTANT[con](g, a))
    return p


@settings(max_examples=100, deadline=None)
@given(
    TOWER_RULES,
    st.sampled_from([SearchBounds(1, 0), SearchBounds(1, 1), SearchBounds(2, 0), SearchBounds(2, 1)]),
)
def test_polynomial_fixed_space_agrees_with_full_search(rules, bounds):
    p = drawn_tower(rules)
    full = fixed_space(p, bounds)
    poly = fixed_space(p, bounds, polynomial=True)
    # (a) the polynomial mode loses no polynomial member of the full space
    poly_values = [e.value for e in poly if e.value.is_polynomial()]
    for e in full:
        if e.value.is_polynomial():
            assert SpanTracker(poly_values).express(e.value) is not None, (p, e)
    # (b) and finds nothing outside it
    full_values = [e.value for e in full]
    for e in poly:
        assert e.is_fixed(), (p, e)
        assert SpanTracker(full_values).express(e.value) is not None, (p, e)


# A query over a drawn tower: sigma(x) - e1*x = e2 with x a combination of
# the terms below (``a`` the last affine generator), planted as
# e2 = sigma(x) - e1*x or taken as e2 = x.
TWISTS = (lambda g: g.pres.one(), lambda g: g, lambda g: g.pres.one() / g)
TERMS = (
    lambda g, a: g.pres.one(),
    lambda g, a: g,
    lambda g, a: g.sigma(1),
    lambda g, a: g.pres.one() / g,
    lambda g, a: a,
    lambda g, a: g * a,
    lambda g, a: a * a,
)
QUERIES = st.tuples(
    st.integers(0, len(TWISTS) - 1),
    st.lists(st.tuples(st.integers(0, len(TERMS) - 1), st.integers(-2, 2).filter(bool)), max_size=3),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(TOWER_RULES, st.sampled_from([SearchBounds(2, 1), SearchBounds(3, 2)]), QUERIES)
@example([(4, 1), (4, 1)], SearchBounds(3, 2), (0, [], False))
def test_tower_search_agrees_with_the_reference(rules, bounds, query):
    # families over the free parameters only, zero families skipped: the
    # free-base ansatz sees sparser right-hand sides, and the answers and
    # fixed spaces are the ones the unreduced search finds, with one
    # exception, in the full fixed space only.  A special-denominator family
    # whose rows make it polynomial is fed to the level below, where the
    # reference ends the branch on its formal denominator.  Over
    # sigma(a0) = 1 - a0, sigma(a1) = 1 - a1 at (3, 2) (the example above)
    # the search so finds the special denominator a1*(a1 - 1)*(a1 - a0) of
    # degree 3, and a 36th fixed member, besides the reference's 35.
    p = drawn_tower(rules)
    g, a = p.gen("g"), p.gen(f"a{len(rules) - 1}")
    twist, terms, planted = query
    e1 = TWISTS[twist](g)
    x = sum((TERMS[i](g, a) * c for i, c in terms), p.zero())
    eq = TwistedEquation(e1, x.sigma(1) - e1 * x if planted else x)
    got = repr(solve_twisted_bounded(p, eq, bounds))
    assert got == repr(reference_solve_twisted_bounded(p, eq, bounds))
    if planted:
        assert got.startswith("Solution(")
    for polynomial in (False, True):
        found = fixed_space(p, bounds, polynomial=polynomial)
        expected = reference_fixed_space(p, bounds, polynomial=polynomial)
        if repr(found) != repr(expected):  # only a strictly larger span
            assert not polynomial, (found, expected)
            assert len(found) > len(expected), (found, expected)
            span = SpanTracker([e.value for e in found])
            assert all(span.express(e.value) is not None for e in expected), (found, expected)


# A budget-0 query over a drawn tower of up to three levels: the twist and
# the terms may mention the lowest or the top affine generator, in a
# numerator or a denominator.  With a parameter x0, rhs = e2 + x0*u.
ZERO_TWISTS = (
    lambda g, low, top: g.pres.one(),
    lambda g, low, top: g,
    lambda g, low, top: g.pres.one() / g,
    lambda g, low, top: low,
    lambda g, low, top: top,
    lambda g, low, top: g.pres.one() / top,
)
ZERO_TERMS = (
    lambda g, low, top: g.pres.one(),
    lambda g, low, top: g,
    lambda g, low, top: g.sigma(1) / g,
    lambda g, low, top: low,
    lambda g, low, top: top,
    lambda g, low, top: g * top,
    lambda g, low, top: low * top,
    lambda g, low, top: g.pres.one() / low,
    lambda g, low, top: g.pres.one() / top,
    lambda g, low, top: top / low,
    lambda g, low, top: (low * g + top) / low,
)
ZERO_SUMS = st.lists(st.tuples(st.integers(0, len(ZERO_TERMS) - 1), st.integers(-2, 2).filter(bool)), max_size=3)


def _budget_zero_branches(search, p, e1, rhs, window, polynomial):
    """Each branch's particular point, value there and kernel directions; or the exception's name."""
    try:
        out = []
        for ctx, family in search(p, e1, rhs, ParamContext(1), 0, window, polynomial=polynomial):
            point = ctx.solve()
            directions = [repr(family.direction(v)) for v in ctx.kernel()]
            out.append((sorted(point.items()), repr(family.evaluate(point)), directions))
        return out
    except UnsupportedCoefficientShape as exc:
        return type(exc).__name__


def _outcome(solve, p, eq, bounds):
    try:
        return repr(solve(p, eq, bounds))
    except UnsupportedCoefficientShape as exc:
        return type(exc).__name__


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, len(LINEAR) - 1), st.integers(0, len(CONSTANT) - 1)), min_size=1, max_size=3),
    st.integers(0, 2),
    st.integers(0, len(ZERO_TWISTS) - 1),
    ZERO_SUMS,
    ZERO_SUMS,
)
@example([(0, 1), (0, 5)], 1, 0, [], [(10, 1)])
def test_budget_zero_queries_agree_with_the_reference(rules, window, twist, e2_terms, u_terms):
    # a budget-0 query goes straight to the free base; the reference splits
    # it one affine level at a time.  A twist or a denominator that mentions
    # the top generator raises at the top level, one that mentions a lower
    # generator ends the branch there, and a lower generator in a
    # denominator may cancel once the top coefficient of a^0 is taken (the
    # example: rhs = x0*(g*a0 + a1)/a0, whose coefficient of a1^0 is x0*g)
    p = drawn_tower(rules)
    g, low, top = p.gen("g"), p.gen("a0"), p.gen(f"a{len(rules) - 1}")

    def total(terms):
        return sum((ZERO_TERMS[i](g, low, top) * c for i, c in terms), p.zero())

    e1 = ZERO_TWISTS[twist](g, low, top)
    e2, u = total(e2_terms), total(u_terms)
    bounds = SearchBounds(0, window)
    eq = TwistedEquation(e1, e2)
    assert _outcome(solve_twisted_bounded, p, eq, bounds) == _outcome(reference_solve_twisted_bounded, p, eq, bounds)
    rhs = LinComb.constant(p, e2) + LinComb(p, MPoly(), {0: u.value.num}, u.value.den)
    for polynomial in (False, True):
        got = _budget_zero_branches(iter_twisted_branches, p, e1, rhs, window, polynomial)
        want = _budget_zero_branches(reference_iter_twisted_branches, p, e1, rhs, window, polynomial)
        assert got == want, (e1, rhs)
        found = fixed_space(p, bounds, polynomial=polynomial)
        assert repr(found) == repr(reference_fixed_space(p, bounds, polynomial=polynomial))


# -- descent ---------------------------------------------------------------------


def test_descent_linear_degree_one():
    p, g, t = closed_base()
    # degree-1 case: c1 = -b for a known solution b of sigma(x) - x = 1
    got = descent_linear([-t], p.one(), p.one())
    assert got == t


def test_descent_linear_constructed_degree_two():
    p, g, t = closed_base()
    s = t + 3
    got = descent_linear([-2 * s, p.zero()], p.one(), s.sigma(1) - s)
    assert got == s


def test_descent_linear_violation():
    p, g, t = closed_base()
    with pytest.raises(DescentHypothesisViolated):
        descent_linear([g], p.one(), p.one())


def test_descent_multiplicative():
    p, g = free_base()
    # c1 = g solves sigma(x) = (g[1]/g) x with e = g[1]/g, z = 1
    e = p.gen("g", 1) / g
    wit, k = descent_multiplicative([g], e, 1)
    assert wit == g and k == 1
    # constructed k = 2: coefficients [0, c2] with c2 solving sigma(x) = e^2 x
    c2 = g * g
    wit, k = descent_multiplicative([p.zero(), c2], e, 1)
    assert k == 2 and wit == c2


def test_descent_multiplicative_all_zero():
    p, g = free_base()
    with pytest.raises(ValueError):
        descent_multiplicative([p.zero(), p.zero()], g, 1)


# -- the free-base decision against its reference before the one Ansatz record

FREE, _ = Presentation.empty().with_free("g")


def _g(shift):
    return FREE.gen("g", shift)


NAMED = {
    "1": FREE.one(),
    "2": FREE.const(2),
    "g": _g(0),
    "g[1]/g": _g(1) / _g(0),
    "(g[1]+1)/(g+2)": (_g(1) + 1) / (_g(0) + 2),
    "g/g[1]": _g(0) / _g(1),
    "1/g": FREE.one() / _g(0),
}
# e1 among 1, 2, g, g[1]/g and a rational one (valuation 0, so the top
# forms add the homogeneous degree candidate d0)
E1_CHOICES = ("1", "2", "g", "g[1]/g", "(g[1]+1)/(g+2)")


# a sum of up to two terms c * g[s]^k, negative k too, over 1 or g[s] + c
_free_elements = st.tuples(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1), st.integers(-2, 2)), max_size=2),
    st.none() | st.tuples(st.integers(-1, 1), st.integers(1, 2)),
)


def _free_element(drawn):
    terms, den = drawn
    out = FREE.zero()
    for c, s, k in terms:
        out = out + c * (_g(s) ** k if k >= 0 else FREE.one() / _g(s) ** -k)
    return out if den is None else out / (_g(den[0]) + den[1])


def _assert_same_decision(eq):
    # Solution compares the witnesses, Unsolvable all eight record fields
    assert decide_free_base(FREE, eq) == reference_decide_free_base(FREE, eq), eq


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(E1_CHOICES), _free_elements)
@example("g", ([(1, 0, 1)], None))  # sigma(x) - g*x = g: the paper's avoided family
@example("g", ([(1, 0, -2)], None))  # every degree candidate negative
@example("1", ([(1, 1, 1), (-1, 0, 1)], None))  # sigma(x) - x = g[1] - g: x = g
def test_twisted_decisions_agree_with_the_reference(e1, e2):
    _assert_same_decision(TwistedEquation(NAMED[e1], _free_element(e2)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NAMED)), st.sampled_from([-2, -1, 1, 2]))
def test_multiplicative_decisions_agree_with_the_reference(e, z):
    _assert_same_decision(MultiplicativeEquation(NAMED[e], z))


def _rhs_family(const, parts):
    """const + sum(parts[k] * lambda_k), lambda_k the outer parameters 0, 1, ..."""
    rhs = LinComb.constant(FREE, const)
    for k, part in enumerate(parts):
        rhs = rhs + LinComb(FREE, MPoly(), {k: MPoly.const(1)}).mul_known(part)
    return rhs


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(E1_CHOICES),
    _free_elements,
    st.lists(_free_elements, max_size=2),
    st.integers(0, 2),
    st.none() | st.integers(0, 2),
)
# deg_cap 0 against a rhs of degree 2: the degree clip binds
@example("g[1]/g", ([(1, 0, 2)], None), [([(1, 1, 2)], None)], 0, None)
@example("(g[1]+1)/(g+2)", ([(2, 0, 2), (1, 1, 1)], (0, 1)), [], 0, 1)
def test_twisted_family_agrees_with_the_reference(e1, const, parts, deg_cap, window_cap):
    _assert_family_like_the_reference(e1, const, parts, deg_cap, window_cap)


def _assert_family_like_the_reference(e1, const, parts, deg_cap, window_cap):
    e1 = NAMED[e1]
    rhs = _rhs_family(_free_element(const), [_free_element(p) for p in parts])
    ctx, ref_ctx = ParamContext(len(parts)), ParamContext(len(parts))
    try:
        want = reference_twisted_family(FREE, e1, rhs, ref_ctx, deg_cap, window_cap)
    except Infeasible:
        with pytest.raises(Infeasible):
            twisted_family(FREE, e1, rhs, ctx, deg_cap, window_cap)
        return
    got = twisted_family(FREE, e1, rhs, ctx, deg_cap, window_cap)
    assert (got.const, got.coeffs, got.den) == (want.const, want.coeffs, want.den)
    # The rows may come from the identity divided by Q2, so the stored rows
    # can differ; the row space cannot: same pivots, solution and kernel.
    assert (ctx.ncols, set(ctx.pivots)) == (ref_ctx.ncols, set(ref_ctx.pivots))
    assert ctx.solve() == ref_ctx.solve()
    assert ctx.kernel() == ref_ctx.kernel()


def _q2_divides_h(e1, rhs):
    """Whether the rows of twisted_family come from the identity divided by Q2."""
    a_poly = _twisted_ansatz(FREE, e1, rhs, None, None).denominator
    try:
        divexact(a_poly.shift(1) * a_poly * e1.value.den, rhs.den)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "e1, const, parts, divided",
    [
        ("g", ([(1, 0, -2)], None), [([(1, 0, 1)], None)], False),  # Q2 = g^2, A = 1
        ("1/g", ([(2, 0, -1)], None), [([(1, 1, 1)], (0, 2)), ([(1, 0, 1)], None)], False),  # Q2 = g*(g+2)
        ("1", ([(1, 0, 0)], (1, 1)), [([(1, 0, 1)], (0, 1))], True),  # Q2 = (g+1)(g[1]+1), A = g+1
    ],
)
def test_parametric_family_with_and_without_the_division(e1, const, parts, divided):
    rhs = _rhs_family(_free_element(const), [_free_element(p) for p in parts])
    assert _q2_divides_h(NAMED[e1], rhs) is divided
    for deg_cap in (None, 0, 2):
        _assert_family_like_the_reference(e1, const, parts, deg_cap, None)


@pytest.mark.parametrize("e1", ["1", "g"])
def test_planted_solution_over_a_divided_identity(e1):
    # D = (g[1]+3)(g+2) divides H = sigma(A)*A*q1: the rows are read off the
    # identity divided by Q2, and the planted x comes back
    e1 = NAMED[e1]
    x = (_g(-1) + 2 * _g(0) + 1) / ((_g(1) + 3) * (_g(0) + 2))
    eq = TwistedEquation(e1, x.sigma() - e1 * x)
    assert _q2_divides_h(e1, LinComb.constant(FREE, eq.e2))
    got = decide_free_base(FREE, eq)
    assert got == reference_decide_free_base(FREE, eq)
    assert isinstance(got, Solution) and got.witness == x
