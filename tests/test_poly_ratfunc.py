"""Exact arithmetic substrate: canonical forms, gcd cancellation, evaluation."""

import copy
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    clear_denominators,
    over_denominator,
    reference_express_in_span,
    reference_gcd_primitive,
    reference_leading_monomial,
    reference_linear_relations,
    reference_mono_cmp,
    reference_monic,
    reference_span_grows,
)
from diffield import ratfunc
from diffield.field import Presentation, _var_image
from diffield.linalg import Echelon, Infeasible, integer_kernel, solve_affine
from diffield.params import ParamContext
from diffield.poly import (
    MONO_KEY,
    MPoly,
    VarId,
    _cleared,
    _gcd_primitive,
    divexact,
    mono_div,
    mono_divides,
    mono_mul,
    poly_gcd,
    poly_lcm,
)
from diffield.ratfunc import (
    CircleValue,
    PoleError,
    RatFunc,
    SpanTracker,
    _coordinates,
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
    assert v.shifted(2) == VarId(3, "g")
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


def product_operand(rng):
    """Zero, a Fraction constant, a polynomial or a fraction that shares factors with FACTORS."""
    kind = rng.random()
    if kind < 0.1:
        return RatFunc.zero()
    if kind < 0.25:
        return RatFunc.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if kind < 0.4:
        return RatFunc.from_poly(rand_poly(rng, [X, Y, Z], max_deg=2, max_terms=3) * rng.choice(FACTORS))
    return shared_factor_ratfunc(rng)


def assert_same_canonical(got, ref):
    assert got.num == ref.num and got.den == ref.den
    assert repr(got) == repr(ref)
    assert poly_gcd(got.num, got.den) == MPoly.const(1)
    assert got.den.leading_coefficient() == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_differential_canonical_products(seed):
    # products, quotients, inverses and powers against RatFunc(num, den) of the
    # unreduced pair, the normalizing path they replace
    rng = random.Random(seed)
    f, g = product_operand(rng), product_operand(rng)
    if rng.random() < 0.3 and not f.is_zero():  # g cancels against f across
        g = RatFunc(f.den * rand_poly(rng, [X, Y], max_deg=1, max_terms=2), f.num)
    for a, b in ((f, g), (g, f), (f, f)):
        assert_same_canonical(a * b, RatFunc(a.num * b.num, a.den * b.den))
        if not b.is_zero():
            assert_same_canonical(a / b, RatFunc(a.num * b.den, a.den * b.num))
    for a in (f, g):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inv()
            continue
        assert_same_canonical(a.inv(), RatFunc(a.den, a.num))
    for n in range(-3, 4):
        for a in (f, g):
            if n < 0 and a.is_zero():
                continue
            ref = RatFunc(a.num**n, a.den**n) if n >= 0 else RatFunc(a.den ** -n, a.num ** -n)
            assert_same_canonical(a**n, ref)


def test_products_powers_and_inverses_take_no_gcd(monkeypatch):
    rng = random.Random(5)
    polys = [rand_poly(rng, [X, Y, Z]) for _ in range(6)] + [MPoly(), MPoly.const(Fraction(-3, 2))]
    fractions = [shared_factor_ratfunc(rng) for _ in range(6)]

    def refuse(*args):
        raise AssertionError("normalized a result that is canonical by construction")

    monkeypatch.setattr(ratfunc, "poly_gcd", refuse)
    monkeypatch.setattr(ratfunc, "_normalize", refuse)
    for c in (0, 1, -4, Fraction(2, 3)):
        assert RatFunc.const(c).constant_value() == c
    assert RatFunc.zero().is_zero() and RatFunc.one() == 1 and repr(RatFunc.var(X)) == "x"
    for p, q in itertools.product(polys, repeat=2):
        r = RatFunc.from_poly(p) * RatFunc.from_poly(q)
        assert r.num == p * q and r.den == MPoly.const(1)
        assert (RatFunc.from_poly(p) * Fraction(5, 3)).num == p.scale(Fraction(5, 3))
    for f in fractions + [RatFunc.from_poly(p) for p in polys]:
        for n in range(4):
            assert (f**n).num == f.num**n and (f**n).den == f.den**n
        if not f.is_zero():
            back = f.inv().inv()
            assert back.num == f.num and back.den == f.den
            assert all((f**n).den.leading_coefficient() == 1 for n in range(-3, 0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_constant_products_match_the_double_loop(seed):
    rng = random.Random(seed)
    p = rand_poly(rng, [X, Y, Z])
    if rng.random() < 0.5:
        p = p.scale(6)
    c = MPoly.const(rng.choice([1, -1, 3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3)]))
    before = (dict(p.terms), dict(c.terms))
    for got in (p * c, c * p, p.scale(c.constant_value())):
        assert got.terms == reference_mul(p, c)
        assert_poly_form(got)
    assert (dict(p.terms), dict(c.terms)) == before
    one = MPoly.const(1)
    if not p.is_zero():  # a product with zero is a new zero
        assert p * one is p and p.scale(1) is p and p.scale(Fraction(2, 2)) is p
        assert one * p is p or p.is_constant()  # a constant times a constant scales the left one
    assert (p * MPoly()).is_zero() and (MPoly() * c).is_zero()
    assert p**0 == one and p**3 == p * (p * p) and (p * c) ** 2 == (p * p) * (c * c)


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


class ClearedMonomialTracker:
    """Reference span tracker: cleared numerators as monomial rows of an Echelon.

    Keeps a common denominator of the members; a candidate whose denominator
    does not divide it re-clears every member.
    """

    def __init__(self):
        self.values = []
        self.den = MPoly.const(1)
        self.columns = {}
        self.echelon = Echelon()

    def _add_row(self, f):
        poly = over_denominator(f, self.den)
        row = {self.columns.setdefault(m, len(self.columns)): c for m, c in poly.terms.items()}
        return self.echelon.add_row(row, Fraction(0))

    def add(self, f):
        if f.is_zero():
            return False
        new_den = poly_lcm(self.den, f.den)
        if new_den != self.den:
            self.den, self.columns, self.echelon = new_den, {}, Echelon()
            for v in self.values:
                self._add_row(v)
        if not self._add_row(f):
            return False
        self.values.append(f)
        return True


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_span_tracker_agrees_with_cleared_monomial_tracker(seed):
    # denominators drawn from a small pool force the reference to re-clear;
    # combinations of earlier members force rejections
    rng = random.Random(seed)
    dens = [MPoly.const(1), px + MPoly.const(1), py, px * py - MPoly.const(2)]
    tracker, reference = SpanTracker(), ClearedMonomialTracker()
    for _ in range(rng.randint(1, 8)):
        kept = [tracker.elems[i] for i in tracker.kept]
        if kept and rng.random() < 0.4:
            f = RatFunc.zero()
            for v in rng.sample(kept, rng.randint(1, len(kept))):
                f = f + RatFunc.const(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) * v
        else:
            f = RatFunc(rand_poly(rng, [X, Y], max_deg=1), rng.choice(dens))
        assert tracker.add(f) == reference.add(f)
        assert [tracker.elems[i] for i in tracker.kept] == reference.values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_express_in_span_agrees_with_linear_relations(seed):
    # SpanTracker.express and linear_relations reduce the same values at the
    # same points; over an independent basis, t has coordinates exactly when
    # some relation of basis + [t] involves t
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
    coords = SpanTracker(basis).express(target)
    involved = any(rel[-1] for rel in linear_relations(basis + [target]))
    assert (coords is not None) == involved
    assert coords is not None or not planted
    if coords is not None:
        total = RatFunc.zero()
        for q, b in zip(coords, basis):
            total = total + RatFunc.const(q) * b
        assert total == target


# -- relation lattices by evaluation, against the cleared-monomial matrix ------


def monomial_matrix(elems):
    """Cleared coefficients: one row per monomial in str order, one column per element."""
    cleared = clear_denominators(elems)
    monomials = sorted({m for p in cleared for m in p.terms}, key=str)
    return [[p.terms.get(m, Fraction(0)) for p in cleared] for m in monomials]


def _echelon_outcome(ncols, rows):
    echelon = Echelon(ncols)
    try:
        for coeffs, const in rows:
            echelon.add_row(coeffs, const)
    except Infeasible:
        return None
    return echelon.solve(), echelon.kernel()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_echelon_ignores_row_order(seed):
    # the pivots are the RREF's whatever order rows arrive in, so solve,
    # kernel and infeasibility do not see a permutation of the rows;
    # ParamContext.add_identity relies on this for its monomial order
    rng = random.Random(seed)
    ncols = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(1, 5)):
        cols = rng.sample(range(ncols), rng.randint(1, ncols))
        rows.append(({c: Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)) for c in cols}, Fraction(0)))
    for _ in range(rng.randint(0, 2)):
        (a, _), (b, _) = rng.choice(rows), rng.choice(rows)
        q = Fraction(rng.randint(-2, 2))
        combined = {c: a.get(c, 0) + q * b.get(c, 0) for c in set(a) | set(b)}
        rows.append(({c: x for c, x in combined.items() if x}, Fraction(0)))
    planted = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
    rows = [
        (coeffs, -sum(x * planted[c] for c, x in coeffs.items()) + (rng.randint(-1, 1) if rng.random() < 0.3 else 0))
        for coeffs, _ in rows
    ]
    want = _echelon_outcome(ncols, rows)
    for _ in range(3):
        rng.shuffle(rows)
        assert _echelon_outcome(ncols, rows) == want


def _mixed_entry(rng):
    """An int, an integral Fraction or a Fraction with a denominator; some of
    height 10^30 or more, the size of value rows at points in [-2^9, 2^9]."""
    num = rng.choice([rng.randint(-3, 3), rng.randint(-(10**34), 10**34)])
    kind = rng.randrange(3)
    if kind == 0:
        return num
    if kind == 1:
        return Fraction(num)
    return Fraction(num, rng.choice([2, 3, 10**30 + 7]))


def _dense_reference(ncols, rows):
    """add_row's returns up to the first Infeasible, then (solve, kernel) or None,
    all read off the dense Fraction RREF of the rows seen so far."""
    returns, rank = [], 0
    for k in range(1, len(rows) + 1):
        aug = [[coeffs.get(j, 0) for j in range(ncols)] + [-const] for coeffs, const in rows[:k]]
        red, pivots = _rref(aug)
        if ncols in pivots:
            return returns, None
        returns.append(len(pivots) > rank)
        rank = len(pivots)
    solution = {p: row[ncols] for row, p in zip(red, pivots) if row[ncols]}
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            z = {f: 1}
            z.update({p: -row[f] for row, p in zip(red, pivots) if row[f]})
            kernel.append(z)
    return returns, (solution, kernel)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_echelon_matches_dense_fraction_rref(seed):
    # the fraction-free echelon against the Fraction elimination it replaced:
    # same pivots, same infeasibility, and the same values in int-when-integral
    # form; half the systems have a planted solution
    rng = random.Random(seed)
    ncols = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(1, 6)):
        if rows and rng.random() < 0.3:
            (a, ca), (b, cb) = rng.choice(rows), rng.choice(rows)
            q = _mixed_entry(rng)
            combined = {c: a.get(c, 0) + q * b.get(c, 0) for c in set(a) | set(b)}
            rows.append(({c: v for c, v in combined.items() if v}, ca + q * cb))
        else:
            cols = rng.sample(range(ncols), rng.randint(0, ncols))
            rows.append(({c: _mixed_entry(rng) or 1 for c in cols}, _mixed_entry(rng)))
    if rng.random() < 0.5:
        planted = [_mixed_entry(rng) for _ in range(ncols)]
        rows = [(coeffs, -sum(v * planted[c] for c, v in coeffs.items())) for coeffs, _ in rows]
    want_returns, want = _dense_reference(ncols, rows)
    echelon = Echelon(ncols)
    got_returns = []
    try:
        for coeffs, const in rows:
            got_returns.append(echelon.add_row(coeffs, const))
    except Infeasible:
        assert want is None
    else:
        assert want is not None
    assert got_returns == want_returns
    assert_stored_rows_primitive(echelon)
    if want is not None:
        got = echelon.solve(), echelon.kernel()
        assert got == want
        assert_coefficient_form(got[0].values())
        for z in got[1]:
            assert_coefficient_form(z.values())


def reference_relations(elems):
    """The cleared-monomial path: integer_kernel over the monomial matrix."""
    return [tuple(Fraction(z) for z in vec) for vec in integer_kernel(monomial_matrix(elems), len(elems))]


def reference_express(basis, target):
    """The cleared-monomial path: solve_affine over the monomial matrix.

    All elements zero leave no rows, and every coordinate zero.
    """
    matrix = monomial_matrix([*basis, target])
    if not matrix:
        return [0] * len(basis)
    rhs = [row.pop() for row in matrix]
    return solve_affine(matrix, rhs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_add_identity_matches_monomial_matrix(seed):
    # const + sum coeffs[k] * x_k == 0 holds as an identity exactly when the
    # str-ordered monomial matrix M x = -const is solvable; half the
    # constants are planted, the others may reach monomials no coefficient has
    rng = random.Random(seed)
    ctx = ParamContext()
    params = ctx.new_params(rng.randint(1, 4))
    coeffs = {k: rand_poly(rng, [X, Y]) for k in params}
    if len(params) > 1 and rng.random() < 0.5:
        k1, k2 = rng.sample(params, 2)
        coeffs[k1] = coeffs[k2].scale(Fraction(rng.randint(-2, 2)))
    const = MPoly()
    for k in params:
        const = const - coeffs[k].scale(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    if rng.random() < 0.5:
        const = const + rand_poly(rng, [X, Y, Z])
    matrix = monomial_matrix([RatFunc.from_poly(p) for p in [const, *coeffs.values()]])
    expected = solve_affine([row[1:] for row in matrix], [-row[0] for row in matrix]) if matrix else [0] * len(params)
    order = list(params)
    rng.shuffle(order)
    try:
        ctx.add_identity(const, {k: coeffs[k] for k in order})
    except Infeasible:
        assert expected is None
        return
    solution = ctx.solve()
    assert expected is not None and [solution.get(k, 0) for k in params] == expected


def in_integer_span(vec, basis):
    """Whether vec is an integer combination of the (independent) basis vectors."""
    if not basis:
        return not any(vec)
    coords = solve_affine([list(row) for row in zip(*basis)], list(vec))
    return coords is not None and all(q.denominator == 1 for q in coords)


RENAMED = {X: VarId(0, "r"), Y: VarId(1, "q"), Z: VarId(2, "p")}


def renamed(f):
    """f over generators with the same indices, named in reverse str order."""
    return f.substitute({v: RatFunc.var(w) for v, w in RENAMED.items()})


# strictly increasing in index, with names in reverse str order, and back
RENAMING = {0: (3, "r"), 1: (5, "q"), 2: (9, "p")}
UNRENAMING = {3: (0, "x"), 5: (1, "y"), 9: (2, "z")}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_rename_matches_substitution(seed):
    rng = random.Random(seed)
    shifted = [X, Y, Z, X.shifted(1), Y.shifted(-1), Z.shifted(2)]
    f = rand_ratfunc(rng, shifted)
    g = f.rename(RENAMING)
    images = {v: RatFunc.var(VarId(*RENAMING[v.index], v.shift)) for v in f.variables()}
    rebuilt = f.substitute(images)  # through RatFunc(num, den) normalization
    assert g == rebuilt and repr(g) == repr(rebuilt)
    assert all(list(m) == sorted(m) for p in (g.num, g.den) for m in p.terms)
    back = g.rename(UNRENAMING)
    assert back == f and repr(back) == repr(f)


def test_rename_keeps_constants():
    for c in (0, 1, -3, Fraction(2, 7)):
        assert RatFunc.const(c).rename(RENAMING) == RatFunc.const(c)
        assert MPoly.const(c).rename(RENAMING) == MPoly.const(c)


def test_rename_refuses_a_map_that_is_not_strictly_increasing():
    f = x * y + z
    for gens in (
        {0: (5, "r"), 1: (3, "q"), 2: (9, "p")},
        {0: (3, "r"), 1: (3, "q"), 2: (9, "p")},
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            f.rename(gens)
        with pytest.raises(ValueError, match="strictly increasing"):
            RatFunc.one().rename(gens)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_differential_relation_lattices(seed):
    # atoms over Q(x, y, z) with denominators from FACTORS; each planted
    # element is a rational combination of atoms, so the relation lattice
    # has rank at least the number planted (0 to 3)
    rng = random.Random(seed)
    atoms = [shared_factor_ratfunc(rng) for _ in range(rng.randint(1, 4))]
    elems = list(atoms)
    for _ in range(rng.randint(0, 3)):
        combo = RatFunc.zero()
        for a in rng.sample(atoms, rng.randint(1, len(atoms))):
            combo = combo + RatFunc.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * a
        elems.append(combo)
    rng.shuffle(elems)
    ref = reference_relations(elems)
    got = linear_relations(elems)
    assert len(got) == len(ref) >= len(elems) - len(atoms)
    if len(ref) <= 1:
        assert got == ref
    matrix = monomial_matrix(elems)
    rows = _rref(matrix)[0] if matrix else []
    assert got == [tuple(Fraction(z) for z in vec) for vec in integer_kernel(rows, len(elems))]
    assert all(in_integer_span(v, got) for v in ref)
    assert all(in_integer_span(v, ref) for v in got)
    assert linear_relations([renamed(e) for e in elems]) == got
    # the last element as target over a basis that may be dependent, and a
    # planted target in the span of all of them
    planted = RatFunc.zero()
    for e in elems:
        planted = planted + RatFunc.const(rng.randint(-2, 2)) * e
    for basis, target in ((elems[:-1], elems[-1]), (elems, planted)):
        coords = SpanTracker(basis).express(target)
        assert coords == reference_express(basis, target)
        assert SpanTracker([renamed(b) for b in basis]).express(renamed(target)) == coords
    assert SpanTracker(elems).express(planted) is not None


def test_relations_check_elements_that_vanish_at_the_first_points():
    # f vanishes at all of a new tracker's first points, so its values alone
    # would report the relation f = 0; the exact check must send the tracker
    # on to more points
    first = SpanTracker().points
    for gens in ([X], [X, Y]):
        f = RatFunc.zero()
        for v in gens:
            term = RatFunc.one()
            for k in first:
                term = term * (RatFunc.var(v) - RatFunc.const(_coordinates(v, [k])[0]))
            f = f + term
        assert len(SpanTracker([f]).points) > len(first)
        assert linear_relations([f]) == []
        assert linear_relations([RatFunc.one(), f]) == []
        assert linear_relations([f, f + 1, RatFunc.one()]) == [(Fraction(1), Fraction(-1), Fraction(1))]
        assert SpanTracker([RatFunc.one()]).express(f) is None
        assert SpanTracker([f]).express(RatFunc.one()) is None
        assert SpanTracker([RatFunc.one(), f]).express(f + 3) == [Fraction(3), Fraction(1)]


def test_express_zero_over_zeros_gives_a_coordinate_per_element():
    # every value is zero, so the reduced row echelon form has no rows
    zero = RatFunc.const(0)
    assert SpanTracker([zero]).express(zero) == [Fraction(0)]
    assert SpanTracker([zero, zero, zero]).express(zero) == [Fraction(0)] * 3
    assert SpanTracker([]).express(zero) == []
    assert SpanTracker([zero]).express(RatFunc.one()) is None


def test_relations_skip_a_pole_at_the_first_point():
    first = SpanTracker().points
    a = _coordinates(X, first)[0]
    pole = RatFunc.one() / (x - RatFunc.const(a))
    assert first[0] not in SpanTracker([pole]).points
    elems = [pole, x * pole, RatFunc.one()]  # x/(x - a) = 1 + a/(x - a)
    assert linear_relations(elems) == reference_relations(elems)
    assert len(linear_relations(elems)) == 1
    assert SpanTracker([pole, RatFunc.one()]).express(x * pole) == [Fraction(a), Fraction(1)]
    assert SpanTracker([pole]).express(x * pole) is None


# -- the relation tracker against the evaluation it replaced (tests/conftest.py)


def relation_elements(rng):
    """Zeros, repeats, constants, combinations and fractions over shared denominator factors in x and y."""
    elems = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if elems and kind < 0.15:
            elems.append(rng.choice(elems))
        elif kind < 0.25:
            elems.append(RatFunc.zero())
        elif kind < 0.35:
            elems.append(RatFunc.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        elif elems and kind < 0.55:
            combo = RatFunc.zero()
            for e in rng.sample(elems, rng.randint(1, len(elems))):
                combo = combo + RatFunc.const(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) * e
            elems.append(combo)
        else:
            elems.append(shared_factor_ratfunc(rng, (X, Y)))
    return elems


def relation_target(rng, elems):
    """A combination of elems, plus at times an element with variables they lack."""
    target = RatFunc.zero()
    for e in elems:
        target = target + RatFunc.const(rng.randint(-2, 2)) * e
    if rng.random() < 0.5:
        target = target + rng.choice([z, x.shift(1), shared_factor_ratfunc(rng)])
    return target


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_tracker_agrees_with_the_evaluation_it_replaced(seed):
    rng = random.Random(seed)
    elems = relation_elements(rng)
    target = relation_target(rng, elems)
    assert linear_relations(elems) == reference_linear_relations(elems)
    assert SpanTracker(elems).express(target) == reference_express_in_span(elems, target)
    tracker, kept = SpanTracker(), []
    for f in [*elems, target]:
        grew = reference_span_grows(kept, f)
        assert tracker.add(f) == grew
        if grew:
            kept.append(f)
    assert [tracker.elems[i] for i in tracker.kept] == kept


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_tracker_answers_do_not_depend_on_its_history(seed):
    # trackers reached by adds, forks and queries in any order answer as a
    # fresh tracker over the same elements, and a fork leaves its parent as
    # it was; one pool element has a pole at the first point
    rng = random.Random(seed)
    pole = RatFunc.one() / (x - RatFunc.const(_coordinates(X, SpanTracker().points)[0]))
    pool = [*relation_elements(rng), pole, x * pole]
    queries = [relation_target(rng, pool) for _ in range(2)]

    def answers(t):
        return t.kept, t.coords, [t.express(q) for q in queries], t.elems and linear_relations(t)

    trackers = [SpanTracker()]
    for _ in range(rng.randint(1, 10)):
        t = rng.choice(trackers)
        before = answers(t)
        op = rng.random()
        if op < 0.3:
            t.express(rng.choice(pool))
            assert answers(t) == before
        elif op < 0.6:
            child = t.fork()
            child.add(rng.choice(pool))
            trackers.append(child)
            assert answers(t) == before
        else:
            t.add(rng.choice(pool))
    for t in trackers:
        assert answers(t) == answers(SpanTracker(t.elems))


def test_tracker_grows_past_its_first_points():
    elems = [x**k for k in range(12)] + [y * x**k for k in range(6)]
    tracker = SpanTracker(elems)
    assert tracker.kept == list(range(len(elems))) and len(tracker.points) >= len(elems)
    planted = x**11 * 3 - y * x**5 + 2
    coords = [Fraction(0)] * len(elems)
    coords[0], coords[11], coords[17] = Fraction(2), Fraction(3), Fraction(-1)
    assert tracker.express(planted) == coords
    assert linear_relations([*elems, planted]) == reference_relations([*elems, planted])


# -- exact numbers only ------------------------------------------------------


def test_inexact_numbers_rejected():
    pres, g = Presentation.empty().with_free("g")
    for make in (
        lambda: pres.const(0.1),
        lambda: pres.with_affine("a", 0.5, 0),
        lambda: CircleValue(0.25),
        lambda: pres.const("1/3"),
        lambda: MPoly({(): 0.5}),
        lambda: MPoly({(): 1.5}),
        lambda: MPoly({(): "1"}),
        lambda: MPoly.const(1.5),
        lambda: px.scale(0.5),
        lambda: x.evaluate({X: 0.5}),
    ):
        with pytest.raises(TypeError):
            make()
    # ints and Fractions stay exact
    assert pres.const(Fraction(1, 3)) * 3 == pres.one()
    _, a = pres.with_affine("a", 1, Fraction(1, 2))
    assert a.sigma(1) == a + Fraction(1, 2)
    assert CircleValue(Fraction(5, 4)) == CircleValue(Fraction(1, 4))
    assert x.evaluate({X: 2}) == RatFunc.const(2)


# -- coefficient form: int when integral, else a Fraction ---------------------


def assert_coefficient_form(values):
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_poly_form(*polys):
    for p in polys:
        assert_coefficient_form(p.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_coefficients_are_ints_exactly_when_integral(seed):
    rng = random.Random(seed)
    p, q = rand_poly(rng, [X, Y]), rand_poly(rng, [X, Y])
    factor = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    assert_poly_form(p, q, p + q, p - q, p * q, p.scale(factor), p.scale(rng.randint(-3, 3)))
    assert_poly_form(p.shift(rng.randint(-2, 2)))
    assert_poly_form(poly_gcd(p, q), poly_lcm(p, q))
    if not q.is_zero():
        assert_poly_form(divexact(p * q, q), divexact(p, MPoly.const(factor or 3)))
    f, g = shared_factor_ratfunc(rng), shared_factor_ratfunc(rng)
    results = [f + g, f - g, f * g, f.shift(1)]
    if not q.is_zero():
        results.append(RatFunc(p, q))
    images = {
        X: RatFunc.from_poly(rand_poly(rng, [X, Y], max_deg=1)),
        Y: RatFunc(rand_poly(rng, [X, Z], max_deg=1), rng.choice(FACTORS)),
    }
    try:
        results.append(f.substitute(images))
    except PoleError:
        pass
    for r in results:
        assert_poly_form(r.num, r.den)
        if r.is_constant():
            assert_coefficient_form([r.constant_value()])
    # the rows the parameter echelon stores, and what it solves
    ctx = ParamContext()
    params = ctx.new_params(rng.randint(1, 4))
    coeffs = {k: rand_poly(rng, [X, Y]) for k in params}
    const = MPoly()
    for k in params:
        const = const - coeffs[k].scale(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    ctx.add_identity(const, coeffs)
    assert_stored_rows_primitive(ctx)
    assert_coefficient_form(ctx.solve().values())
    for direction in ctx.kernel():
        assert_coefficient_form(direction.values())


def assert_stored_rows_primitive(echelon):
    """Every stored pivot row and its constant are ints, primitive, positive at the pivot."""
    for col, (row, row_const) in echelon.pivots.items():
        assert all(type(v) is int for v in (*row.values(), row_const)), (row, row_const)
        assert math.gcd(*row.values(), row_const) == 1
        assert row[col] > 0 and col == min(row)


def test_fork_leaves_the_shared_pivot_rows_alone():
    # the parent's pivots have leads 2 and 3, and each child row reduces
    # against both with factors that are not multiples of the leads, so a
    # reduction that scaled a shared row in place would show in the parent
    parent = ParamContext()
    a, b, c, d = parent.new_params(4)
    parent.add_row({a: 2, b: 3, c: 1}, 1)
    parent.add_row({b: Fraction(3, 2), c: -1, d: Fraction(1, 2)}, Fraction(-5, 2))
    assert [parent.pivots[p][0][p] for p in parent.order] == [2, 3]
    before = copy.deepcopy(parent.pivots)
    child = parent.fork()
    child.add_row({a: 3, b: 1, d: 4}, 2)
    child.add_row({a: 5, b: 7, c: Fraction(2, 3)}, 0)
    assert len(child.pivots) == 4 and child.solve()
    assert_stored_rows_primitive(child)
    assert parent.pivots == before
    assert parent.order == [a, b]


def fraction_terms(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def fraction_poly(terms):
    """An MPoly holding the Fraction-only terms as they are, for repr and hash."""
    p = MPoly.__new__(MPoly)
    p.terms, p._hash = terms, None
    return p


def reference_add(a, b):
    out = fraction_terms(a)
    for m, c in b.terms.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def reference_mul(a, b):
    out = {}
    for ma, ca in fraction_terms(a).items():
        for mb, cb in b.terms.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def reference_divexact(a, b):
    """Schoolbook division on Fraction terms; b must divide a."""
    rem = fraction_terms(a)
    lm_b = max(b.terms, key=MONO_KEY)
    lc_b = Fraction(b.terms[lm_b])
    quot = {}
    while rem:
        lm = max(rem, key=MONO_KEY)
        assert mono_divides(lm_b, lm)
        m = mono_div(lm, lm_b)
        quot[m] = c = rem[lm] / lc_b
        for mb, cb in b.terms.items():
            mm = mono_mul(m, mb)
            rem[mm] = rem.get(mm, Fraction(0)) - c * cb
            if not rem[mm]:
                del rem[mm]
    return quot


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_int_coefficients_match_the_fraction_path(seed):
    rng = random.Random(seed)
    p, q = rand_poly(rng, [X, Y, Z]), rand_poly(rng, [X, Y, Z])
    if rng.random() < 0.5:  # integral inputs, where sums and products stay ints
        p, q = p.scale(6), q.scale(6)
    cases = [(p + q, reference_add(p, q)), (p * q, reference_mul(p, q))]
    if not q.is_zero():
        cases.append((divexact(p * q, q), reference_divexact(fraction_poly(reference_mul(p, q)), q)))
        lead = MPoly.const(q.leading_coefficient())
        cases.append((divexact(p, lead), reference_divexact(p, lead)))
    for got, ref in cases:
        assert got.terms == ref
        assert repr(got) == repr(fraction_poly(ref))
        assert hash(got) == hash(fraction_poly(ref))


def test_coefficients_past_the_int_to_str_digit_limit_print():
    big = 10**5000 + 7  # past Python's default limit of 4300 digits
    digits = "1" + "0" * 4999 + "7"
    p = MPoly({((X, 1),): Fraction(-big, 3), (): big})
    assert repr(p) == f"-{digits}/3*x + {digits}"
    assert repr(RatFunc(p, MPoly.const(1))) == f"-{digits}/3*x + {digits}"


def test_public_coefficient_types():
    p = px.scale(Fraction(6, 2)) + MPoly.const(Fraction(1, 2))
    assert type(p.leading_coefficient()) is int and p.leading_coefficient() == 3
    assert [type(c) for _, c in p.sorted_terms()] == [int, Fraction]
    assert type(MPoly.const(Fraction(4, 2)).constant_value()) is int
    assert type(MPoly().constant_value()) is int
    assert type(RatFunc(MPoly.const(4), MPoly.const(2)).constant_value()) is int
    assert RatFunc(MPoly.const(3), MPoly.const(6)).constant_value() == Fraction(1, 2)
    # angles are not coefficients: always a Fraction, also a whole one
    for angle in (0, 1, Fraction(3, 2), Fraction(2, 1)):
        assert type(CircleValue(angle).angle) is Fraction
    # relation lattices and span coordinates are Fractions
    relations = linear_relations([x, x * 2, RatFunc.one()])
    assert relations == [(Fraction(2), Fraction(-1), Fraction(0))]
    assert all(type(z) is Fraction for vec in relations for z in vec)
    coords = SpanTracker([x, RatFunc.one()]).express(x * 2 + 3)
    assert coords == [2, 3] and all(type(c) is Fraction for c in coords)


# -- the integer gcd kernel and the order key against the Fraction PRS and the
#    comparison before them (tests/conftest.py)


def _g(k):
    return MPoly.var(VarId(0, "g", k))


def assert_gcd_like_the_reference(a, b):
    primitive = reference_gcd_primitive(a, b)
    got, ref = poly_gcd(a, b), reference_monic(primitive)
    assert got == ref and repr(got) == repr(ref)
    assert [type(c) for _, c in got.sorted_terms()] == [type(c) for _, c in ref.sorted_terms()]
    if a.terms and b.terms:  # the primitive gcd under the monic one
        assert MPoly(_gcd_primitive(_cleared(a.terms), _cleared(b.terms))) == primitive


_GCD_VARS = [VarId(0, "g", k) for k in (-1, 0, 1)] + [VarId(1, "h", k) for k in (0, 1)]
_GCD_COEFFS = st.sampled_from([1, 1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3)])
_GCD_MONOS = st.lists(st.sampled_from(_GCD_VARS), max_size=2).map(
    lambda vs: tuple(sorted((v, vs.count(v)) for v in set(vs)))
)
_GCD_FACTORS = st.lists(st.tuples(_GCD_MONOS, _GCD_COEFFS), min_size=2, max_size=3).map(
    lambda terms: sum((MPoly({m: c}) for m, c in terms), MPoly())
)


@st.composite
def gcd_operand(draw, pool):
    kind = draw(st.sampled_from(["product"] * 9 + ["zero", "constant", "term"]))
    scale = draw(_GCD_COEFFS)
    if kind == "zero":
        return MPoly()
    if kind == "constant":
        return MPoly.const(scale)
    if kind == "term":
        return MPoly({draw(_GCD_MONOS): scale})
    p = MPoly.const(scale)
    for _ in range(draw(st.integers(1, 3))):
        p = p * draw(st.sampled_from(pool)).shift(draw(st.integers(-1, 1)))
    return p


@st.composite
def gcd_pairs(draw):
    """Two operands over one pool of factors, so they often share some."""
    pool = draw(st.lists(_GCD_FACTORS, min_size=1, max_size=3))
    return draw(gcd_operand(pool)), draw(gcd_operand(pool))


@settings(max_examples=200, deadline=None)
@given(gcd_pairs())
def test_differential_gcd(pair):
    assert_gcd_like_the_reference(*pair)


_SHAPES = [
    # recorded from the decide stream: the denominator bound and _cancel
    lambda c: ((_g(0) + c) * (_g(1) + c), _g(0) * (_g(1) + c) * (_g(2) + c)),
    lambda c: ((_g(-1) * _g(0) + c) * (_g(0) * _g(1) + c), (_g(0) * _g(1) + c) * (_g(1) * _g(2) + c).scale(2)),
    lambda c: ((_g(-1) * _g(0) + c) * (_g(0) * _g(1) + c), _g(0) * (_g(0) * _g(1) + c) * (_g(1) * _g(2) + c)),
    lambda c: ((_g(-1) * _g(0) + c) * (_g(0) * _g(1) + c), (_g(0) * _g(1) + c) * (_g(1) * _g(2) + c)),
]


@pytest.mark.parametrize("shape", range(len(_SHAPES)))
@pytest.mark.parametrize("c", [1, 2, 5, Fraction(-1, 3)])
def test_gcd_of_recorded_shapes(shape, c):
    a, b = _SHAPES[shape](MPoly.const(c))
    assert_gcd_like_the_reference(a, b)
    assert_gcd_like_the_reference(b, a.scale(Fraction(-3, 2)))


def test_gcd_against_a_degree_16_product_in_6_variables():
    two = MPoly.const(2)
    down = (_g(-1) + two) ** 2 * (_g(1) + two) ** 2
    product = down * down.shift(1) * down.shift(2) * down.shift(3)
    up = _g(1) * _g(2) * (_g(-1) + two) ** 2 * (_g(1) * _g(2) + two)
    assert (product.total_degree(), len(product.variables())) == (16, 6)
    assert_gcd_like_the_reference(product, up)


_KEY_VARS = [VarId(i, n, k) for i, n in ((0, "g"), (2, "h")) for k in (-1, 0, 2)]
_KEY_MONOS = st.lists(st.tuples(st.sampled_from(_KEY_VARS), st.integers(1, 3)), max_size=3).map(
    lambda pairs: tuple(sorted(dict(pairs).items()))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_KEY_MONOS, min_size=1, max_size=8, unique=True))
def test_order_key_agrees_with_the_comparison(monos):
    """Few variables and exponents, so monomials share variables, prefixes and degrees."""
    for a in monos:
        for b in monos:
            assert (MONO_KEY(a) > MONO_KEY(b)) - (MONO_KEY(a) < MONO_KEY(b)) == reference_mono_cmp(a, b)
    p = MPoly({m: i + 1 for i, m in enumerate(monos)})
    assert p.leading_monomial() == reference_leading_monomial(p)
    ordered = sorted(monos, key=functools.cmp_to_key(reference_mono_cmp), reverse=True)
    assert [m for m, _ in p.sorted_terms()] == ordered
