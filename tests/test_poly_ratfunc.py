"""Exact arithmetic substrate: canonical forms, gcd cancellation, evaluation."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffield.field import Presentation, _var_image
from diffield.linalg import solve_affine
from diffield.poly import MPoly, VarId, divexact, mono_mul, poly_gcd
from diffield.ratfunc import (
    CircleValue,
    PoleError,
    RatFunc,
    SpanTracker,
    express_in_span,
    linear_relations,
)

X = VarId(0, "x")
Y = VarId(1, "y")
Z = VarId(2, "z")

x = RatFunc.var(X)
y = RatFunc.var(Y)
z = RatFunc.var(Z)

px = MPoly.var(X)
py = MPoly.var(Y)
pz = MPoly.var(Z)


def rand_poly(rng, vars_, max_deg=2, max_terms=4):
    p = MPoly()
    for _ in range(rng.randint(1, max_terms)):
        mono = MPoly.const(1)
        for _ in range(rng.randint(0, max_deg)):
            mono = mono * MPoly.var(rng.choice(vars_))
        p = p + mono.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def rand_ratfunc(rng, vars_):
    num = rand_poly(rng, vars_)
    den = MPoly()
    while den.is_zero():
        den = rand_poly(rng, vars_)
    return RatFunc(num, den)


def test_normalize_constant_gcd():
    # 2x/4 -> x/2 with denominator 1
    f = RatFunc(px.scale(2), MPoly.const(4))
    assert f == RatFunc(px.scale(Fraction(1, 2)), MPoly.const(1))
    assert f.den == MPoly.const(1)


def test_normalize_common_factor():
    # (x^2-1)/(x-1) -> x+1
    f = RatFunc(px * px - MPoly.const(1), px - MPoly.const(1))
    assert f == x + 1


def test_normalize_cancels_random_products():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(rng, [X, Y])
        q = MPoly()
        while q.is_zero():
            q = rand_poly(rng, [X, Y])
        f = RatFunc(p * q, q)
        # property checked by re-multiplication: f * 1 == p exactly
        assert f == RatFunc.from_poly(p)


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        f = rand_ratfunc(rng, [X, Y])
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_denominator_monic_under_graded_lex():
    f = RatFunc(py, px.scale(3) + MPoly.const(1))
    assert f.den.leading_coefficient() == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(px, MPoly())


def test_evaluate_partial():
    f = x + y
    assert f.evaluate({X: Fraction(3)}) == y + 3


def test_evaluate_pole():
    f = RatFunc(MPoly.const(1), px - MPoly.const(1))
    with pytest.raises(PoleError):
        f.evaluate({X: Fraction(1)})


def _horner_eval(poly, assignment):
    """Independent scalar oracle: evaluate monomial by monomial."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        v = Fraction(coeff)
        for var, exp in mono:
            v *= assignment[var] ** exp
        total += v
    return total


def test_evaluate_matches_scalar_oracle():
    rng = random.Random(23)
    done = 0
    while done < 100:
        f = rand_ratfunc(rng, [X, Y, Z])
        point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in (X, Y, Z)}
        den_val = _horner_eval(f.den, point)
        if den_val == 0:
            continue
        expected = _horner_eval(f.num, point) / den_val
        assert f.evaluate(point) == RatFunc.const(expected)
        done += 1


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_field_laws(a, b, c):
    rng = random.Random(a * 9931 + b * 131 + c)
    f = rand_ratfunc(rng, [X, Y])
    g = rand_ratfunc(rng, [X, Y])
    h = rand_ratfunc(rng, [X, Y])
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    if not f.is_zero():
        assert f * f.inv() == RatFunc.one()


def test_gcd_examples():
    a = (px + py) * (px - py)
    b = (px + py) * px
    g = poly_gcd(a, b)
    assert g == px + py
    assert divexact(a, g) == px - py


def test_gcd_random_products():
    rng = random.Random(5)
    for _ in range(25):
        common = rand_poly(rng, [X, Y])
        if common.is_zero() or common.is_constant():
            continue
        a = common * rand_poly(rng, [X, Y])
        b = common * rand_poly(rng, [X, Y])
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(a, b)
        assert divexact(a, g) is not None
        assert divexact(b, g) is not None
        # the planted common factor divides the gcd
        assert poly_gcd(g, common).total_degree() == common.total_degree()


# -- variables -----------------------------------------------------------------


def test_varid_contract():
    v = VarId(3, "g", -2)
    assert (v.index, v.name, v.shift) == (3, "g", -2)
    assert VarId(0, "x").shift == 0
    assert repr(v) == "g[-2]" and repr(X) == "x"
    assert v.shifted(2) == VarId(3, "g") and v.key() == v
    rng = random.Random(17)
    vs = [VarId(rng.randint(0, 3), rng.choice("abc"), rng.randint(-2, 2)) for _ in range(80)]
    assert sorted(vs) == sorted(vs, key=lambda w: (w.index, w.shift, w.name))
    for w in vs[:10]:
        for back in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
            assert back == w and type(back) is VarId and repr(back) == repr(w)
            assert (back.index, back.name, back.shift) == (w.index, w.name, w.shift)
    f = RatFunc(px * py + MPoly.const(1), pz - MPoly.const(2))
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f
    for _ in range(100):
        a, b = (tuple(sorted({rng.choice(vs): rng.randint(1, 3) for _ in range(rng.randint(0, 3))}.items()))
                for _ in range(2))
        m = mono_mul(a, b)
        assert [w for w, _ in m] == sorted({w for w, _ in a + b})
        assert dict(m) == {w: dict(a).get(w, 0) + dict(b).get(w, 0) for w, _ in a + b}


# -- canonical arithmetic: fast paths against the paths they replace ---------------

# Denominators are drawn from products of a small pool of factors, so that two
# of them often share a factor (the gcd branch of the Henrici sum) and often
# do not (the coprime branch).
FACTORS = [px + MPoly.const(1), py, px * py - MPoly.const(2), px - py + MPoly.const(3), pz + px * px]


def shared_factor_ratfunc(rng, vars_=(X, Y, Z)):
    den = MPoly.const(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    for _ in range(rng.randint(0, 3)):
        den = den * rng.choice(FACTORS)
    num = rand_poly(rng, list(vars_), max_deg=2, max_terms=3)
    if rng.random() < 0.3:
        num = num * rng.choice(FACTORS)
    return RatFunc(num, den)


def assert_canonical(f):
    assert not f.den.is_zero()
    if f.num.is_zero():
        assert f.den == MPoly.const(1)
        return
    assert f.den.leading_coefficient() == 1
    assert poly_gcd(f.num, f.den) == MPoly.const(1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_results_contract(seed):
    rng = random.Random(seed)
    f, g = shared_factor_ratfunc(rng), shared_factor_ratfunc(rng)
    h = g - f  # f + h shares denominator factors with f, and often cancels
    results = [f + g, f - g, f * g, f + h, h + f, f + f, f - f, f.shift(rng.randint(-2, 2))]
    if not g.is_zero():
        results.append(f / g)
    images = {
        X: RatFunc.from_poly(rand_poly(rng, [X, Y], max_deg=1)),
        Y: RatFunc(rand_poly(rng, [X, Z], max_deg=1), rng.choice(FACTORS)),
    }
    try:
        results.append(f.substitute(images))
        results.append(f.substitute({X: images[X]}))
    except PoleError:
        pass
    for r in results:
        assert_canonical(r)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_differential_henrici_sum(seed):
    rng = random.Random(seed)
    f = shared_factor_ratfunc(rng)
    g = shared_factor_ratfunc(rng) if rng.random() < 0.7 else RatFunc(shared_factor_ratfunc(rng).num, f.den)
    for a, b in ((f, g), (g, f), (f, g - f)):
        assert a + b == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)


def naive_substitute(f, images):
    """f(images) summed term by term in RatFunc arithmetic: the reference for substitute."""

    def subst(p):
        total = RatFunc.zero()
        for m, c in p.terms.items():
            term = RatFunc.const(c)
            for v, e in m:
                term = term * (images[v] if v in images else RatFunc.var(v)) ** e
            total = total + term
        return total

    return subst(f.num) / subst(f.den)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_differential_polynomial_substitute(seed):
    # images are polynomials of degree up to 2, or have a numerator of degree
    # up to 1 over a denominator from FACTORS
    rng = random.Random(seed)
    f = shared_factor_ratfunc(rng)
    images = {}
    for v in rng.sample([X, Y, Z], 2):
        den = rng.choice([MPoly.const(1), *FACTORS])
        max_deg = 2 if den == MPoly.const(1) else 1
        images[v] = RatFunc(rand_poly(rng, [X, Y, Z], max_deg=max_deg, max_terms=3), den)
    try:
        expected = naive_substitute(f, images)
    except ZeroDivisionError:
        with pytest.raises(PoleError):
            f.substitute(images)
        return
    assert f.substitute(images) == expected


def _fixed_field_presentation():
    pres, g = Presentation.empty().with_free("g")
    pres, _ = pres.with_affine("t", 1, 1)
    pres, _ = pres.with_affine("s", 1, 1)
    g = g.in_presentation(pres)
    pres, _ = pres.with_affine("a", g, g - 1)
    pres, _ = pres.with_affine("b", g, g - 1)
    pres, _ = pres.with_affine("c", 1 / g, 1 / g - 1)
    return pres


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_differential_is_fixed(seed):
    # w = s - t, q = (a+1)/(b+1) and r = (a+1)*(c+1) are fixed (sigma(a) + 1
    # = g*(a+1), and so for b; sigma(c) + 1 = (c+1)/g, a rational image), so
    # rational functions of w, q and r are fixed, though their numerators need
    # not be; adding a perturbation usually breaks that
    rng = random.Random(seed)
    pres = _fixed_field_presentation()
    w = pres.gen("s") - pres.gen("t")
    q = (pres.gen("a") + 1) / (pres.gen("b") + 1)
    r = (pres.gen("a") + 1) * (pres.gen("c") + 1)
    assert r.is_fixed() and not ((pres.gen("a") + 1) / (pres.gen("c") + 1)).is_fixed()
    gens = [pres.gen("g"), pres.gen("g", 1), pres.gen("t"), pres.gen("a"), pres.gen("c"), w]

    def poly_in(elems):
        total = pres.zero()
        for _ in range(rng.randint(1, 3)):
            term = pres.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(elems)
            total = total + term
        return total

    num, den = poly_in([w, q, r]), poly_in([w, q, r])
    if den.is_zero():
        den = pres.one()
    x = num / den
    if rng.random() < 0.5:
        den2 = poly_in(gens)
        x = x + poly_in(gens) / (den2 if not den2.is_zero() else pres.one())
    # the reference forms sigma(x) in RatFunc arithmetic, apart from the
    # clearing that is_fixed and substitute share
    images = {v: _var_image(pres, v, 1) for v in x.value.variables()}
    assert x.is_fixed() == (naive_substitute(x.value, images) == x.value)


# -- linear relations ----------------------------------------------------------


def test_linear_relations_sum():
    u, v = x, y
    basis = linear_relations([u, v, u + v])
    assert len(basis) == 1
    tpl = basis[0]
    span = {tuple(tpl), tuple(-q for q in tpl)}
    assert (Fraction(1), Fraction(1), Fraction(-1)) in span


def test_linear_relations_independent_monomials():
    assert linear_relations([x, x * x]) == []


def test_linear_relations_match_construction():
    rng = random.Random(41)
    basis_elems = [x, y, z]
    for _ in range(100):
        k = rng.randint(3, 5)
        coeffs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(k)]
        elems = []
        for row in coeffs:
            e = RatFunc.zero()
            for c, b in zip(row, basis_elems):
                e = e + RatFunc.const(c) * b
            elems.append(e)
        rels = linear_relations(elems)
        # kernel dimension matches the planted construction
        rank = len(_rref(coeffs)[1])
        assert len(rels) == k - rank
        # every returned tuple satisfies the relation exactly
        for tpl in rels:
            acc = RatFunc.zero()
            for q, e in zip(tpl, elems):
                acc = acc + RatFunc.const(q) * e
            assert acc.is_zero()


def _rref(rows):
    """Dense reduced row echelon form: (nonzero rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [a / lead for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _rref_solution(matrix, rhs):
    """Solution of M x = b with every free variable zero, read off the RREF."""
    ncols = len(matrix[0])
    red, pivots = _rref([row + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    out = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        out[p] = row[ncols]
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_solve_affine_matches_dense_rref(seed):
    # the sparse echelon's pivots are the RREF's, so both pick the same
    # solution; half the right-hand sides are planted, the others make most
    # systems with dependent rows infeasible
    rng = random.Random(seed)
    ncols = rng.randint(1, 4)
    matrix = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(len(matrix)), rng.randrange(len(matrix))
        q = Fraction(rng.randint(-2, 2))
        matrix.append([a + q * b for a, b in zip(matrix[i], matrix[j])])
    rng.shuffle(matrix)
    if rng.random() < 0.5:
        planted = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
        rhs = [sum(a * v for a, v in zip(row, planted)) for row in matrix]
    else:
        rhs = [Fraction(rng.randint(-2, 2)) for _ in matrix]
    got = solve_affine(matrix, rhs)
    assert got == _rref_solution(matrix, rhs)
    if got is not None:
        assert all(sum(a * v for a, v in zip(row, got)) == b for row, b in zip(matrix, rhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_span_tracker_agrees_with_express_in_span(seed):
    # denominators drawn from a small pool force common-denominator
    # rebuilds; combinations of earlier members force rejections
    rng = random.Random(seed)
    dens = [MPoly.const(1), px + MPoly.const(1), py, px * py - MPoly.const(2)]
    tracker = SpanTracker()
    for _ in range(rng.randint(1, 8)):
        if tracker.values and rng.random() < 0.4:
            f = RatFunc.zero()
            for v in rng.sample(tracker.values, rng.randint(1, len(tracker.values))):
                f = f + RatFunc.const(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) * v
        else:
            f = RatFunc(rand_poly(rng, [X, Y], max_deg=1), rng.choice(dens))
        expected = not f.is_zero() and express_in_span(tracker.values, f) is None
        assert tracker.add(f) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_express_in_span_agrees_with_linear_relations(seed):
    # express_in_span and linear_relations share one coefficient matrix; over
    # an independent basis, t has coordinates exactly when some relation of
    # basis + [t] involves t
    rng = random.Random(seed)
    basis = []
    for _ in range(rng.randint(1, 4)):
        f = rand_ratfunc(rng, [X, Y])
        if not linear_relations(basis + [f]):
            basis.append(f)
    if not basis:
        basis = [x]
    target = RatFunc.zero()
    for b in basis:
        target = target + RatFunc.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * b
    planted = rng.random() < 0.5
    if not planted:
        target = target + rand_ratfunc(rng, [X, Y])
    coords = express_in_span(basis, target)
    involved = any(rel[-1] for rel in linear_relations(basis + [target]))
    assert (coords is not None) == involved
    assert coords is not None or not planted
    if coords is not None:
        total = RatFunc.zero()
        for q, b in zip(coords, basis):
            total = total + RatFunc.const(q) * b
        assert total == target


# -- exact numbers only ------------------------------------------------------


def test_inexact_numbers_rejected():
    pres, g = Presentation.empty().with_free("g")
    for make in (
        lambda: pres.const(0.1),
        lambda: pres.with_affine("a", 0.5, 0),
        lambda: CircleValue(0.25),
        lambda: pres.const("1/3"),
        lambda: MPoly({(): 0.5}),
        lambda: px.scale(0.5),
        lambda: x.evaluate({X: 0.5}),
        lambda: CircleValue(Fraction(1, 3)).scaled(0.5),
    ):
        with pytest.raises(TypeError):
            make()
    # ints and Fractions stay exact
    assert pres.const(Fraction(1, 3)) * 3 == pres.one()
    _, a = pres.with_affine("a", 1, Fraction(1, 2))
    assert a.sigma(1) == a + Fraction(1, 2)
    assert CircleValue(Fraction(5, 4)) == CircleValue(Fraction(1, 4))
    assert x.evaluate({X: 2}) == RatFunc.const(2)
