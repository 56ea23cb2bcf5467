"""Parameter families against the per-coefficient reference.

A ``LinComb`` keeps polynomial numerators over one shared denominator.  The
reference below is the form it replaced: one field element per coefficient,
every operation run coefficient by coefficient.  Families are drawn over
presentations with affine generators (the closed base g, t1, a1, and a base
whose rule has a rational image) and over a free one.  After every operation
the family must equal the reference's coefficients, written over the lcm of
their reduced denominators: so the shared denominator is that lcm.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_denominators, common_denominator, over_denominator
from diffield.equations import TwistedEquation, Unsolvable, UnsupportedCoefficientShape
from diffield.field import Element, Presentation
from diffield.freebase import _monomials, decide_free_base
from diffield.linalg import Infeasible
from diffield.params import LinComb, ParamContext, _lincomb_coefficients, require_level_free
from diffield.parser import parse_document
from diffield.poly import MPoly, VarId, to_univar
from diffield.ratfunc import RatFunc


class ReferenceLinComb:
    """const + sum(coeffs[i] * param_i) with Element values, one per coefficient."""

    def __init__(self, pres, const, coeffs=None):
        self.pres = pres
        self.const = const
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if not v.is_zero()}

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return ReferenceLinComb(self.pres, self.const + other.const, coeffs)

    def __neg__(self):
        return ReferenceLinComb(self.pres, -self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul_known(self, e):
        if e.is_zero():
            return ReferenceLinComb(self.pres, self.pres.zero())
        return ReferenceLinComb(self.pres, self.const * e, {k: v * e for k, v in self.coeffs.items()})

    def sigma(self):
        return ReferenceLinComb(self.pres, self.const.sigma(1), {p: v.sigma(1) for p, v in self.coeffs.items()})

    def lift(self, pres):
        return ReferenceLinComb(
            pres, self.const.in_presentation(pres), {p: v.in_presentation(pres) for p, v in self.coeffs.items()}
        )

    def evaluate(self, values):
        return self._accumulate(self.const, values)

    def direction(self, direction):
        return self._accumulate(self.pres.zero(), direction)

    def _accumulate(self, total, values):
        for k, v in self.coeffs.items():
            q = values.get(k)
            if q:
                total = total + v * self.pres.const(q)
        return total


def reference_add_zero(ctx, ref):
    """The rows the reference fed the echelon: numerators cleared by the lcm."""
    cleared = clear_denominators([ref.const.value] + [v.value for v in ref.coeffs.values()])
    ctx.add_identity(cleared[0], dict(zip(ref.coeffs, cleared[1:])))


def reference_split(ref, pres, gen, sub):
    """Per-degree families in gen, coefficient by coefficient."""
    var = pres.varid(gen.name)

    def coefficients_in(elem):
        value = elem.value
        if var in value.den.variables():
            raise UnsupportedCoefficientShape(f"coefficient has {gen.name!r} in its denominator")
        return {deg: Element(sub, RatFunc(c, value.den)) for deg, c in to_univar(value.num, var).items()}

    consts = coefficients_in(ref.const)
    coeffs = {deg: {} for deg in consts}
    for param, coeff in ref.coeffs.items():
        for deg, val in coefficients_in(coeff).items():
            coeffs.setdefault(deg, {})[param] = val
    return {deg: ReferenceLinComb(sub, consts.get(deg, sub.zero()), by_param) for deg, by_param in coeffs.items()}


def closed_base():
    pres, g = Presentation.empty().with_free("g")
    pres, _ = pres.with_affine("t1", 1, 1)
    g = g.in_presentation(pres)
    pres, _ = pres.with_affine("a1", g, g)
    return pres


def rational_base():
    """sigma(a2) = a2/g + 1/g: sigma of a2 has a denominator to clear."""
    pres, g = Presentation.empty().with_free("g")
    inv = pres.one() / g
    pres, _ = pres.with_affine("a2", inv, inv)
    return pres


def free_base():
    pres, _ = Presentation.empty().with_free("g")
    pres, _ = pres.with_free("h")
    return pres


BASES = {"closed": closed_base(), "rational": rational_base(), "free": free_base()}
PARAMS = range(4)


def variables(pres):
    out = []
    for spec in pres.gens:
        for shift in (-1, 0, 1) if spec.is_free else (0,):
            out.append(VarId(spec.index, spec.name, shift))
    return out


def draw_poly(rng, vars_, terms=3):
    p = MPoly()
    for _ in range(rng.randint(1, terms)):
        mono = MPoly.const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2])))
        for _ in range(rng.randint(0, 2)):
            mono = mono * MPoly.var(rng.choice(vars_))
        p = p + mono
    return p


def draw_element(rng, pres, den_vars=None, dens="any"):
    """A small element whose denominator is a product of factors that recur across draws.

    ``dens`` is "any" (factors v and v + 1), "monomial" (factors v only) or
    "unit" (denominator 1).
    """
    vars_ = variables(pres)
    den = MPoly.const(1)
    if dens != "unit":
        consts = (0,) if dens == "monomial" else (0, 1)
        factors = [MPoly.var(v) + MPoly.const(c) for v in (den_vars or vars_) for c in consts]
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            den = den * rng.choice(factors)
    return Element(pres, RatFunc(draw_poly(rng, vars_), den))


def draw_family(rng, pres, den_vars=None, dens="any"):
    """(LinComb, reference) for one drawn family; zero coefficients are kept out."""
    const = draw_element(rng, pres, den_vars, dens) if rng.random() < 0.7 else pres.zero()
    coeffs = {k: draw_element(rng, pres, den_vars, dens) for k in PARAMS if rng.random() < 0.6}
    lc = LinComb.constant(pres, const)
    for k, e in coeffs.items():
        lc = lc + LinComb(pres, MPoly(), {k: e.value.num}, e.value.den)
    return lc, ReferenceLinComb(pres, const, coeffs)


def assert_agrees(lc, ref):
    """lc holds ref's coefficients over the lcm of their reduced denominators."""
    den = common_denominator([ref.const.value] + [v.value for v in ref.coeffs.values()])
    assert lc.den == den
    assert lc.const == over_denominator(ref.const.value, den)
    assert lc.coeffs == {k: over_denominator(v.value, den) for k, v in ref.coeffs.items()}


def draw_values(rng):
    return {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in PARAMS if rng.random() < 0.7}


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_family_operations_agree_with_the_reference(base, seed):
    rng = random.Random(seed)
    pres = BASES[base]
    a, ref_a = draw_family(rng, pres)
    b, ref_b = draw_family(rng, pres)
    e = draw_element(rng, pres) if rng.random() < 0.9 else pres.zero()
    assert_agrees(a, ref_a)
    assert_agrees(a + b, ref_a + ref_b)
    assert_agrees(a - b, ref_a - ref_b)
    assert_agrees(a - a, ref_a - ref_a)
    assert_agrees((a + b) - b, (ref_a + ref_b) - ref_b)  # cancels down to a's denominator
    assert_agrees(-a, -ref_a)
    assert_agrees(a.mul_known(e), ref_a.mul_known(e))
    assert_agrees(a.sigma(), ref_a.sigma())
    assert_agrees(a.sigma().sigma(), ref_a.sigma().sigma())
    values = draw_values(rng)
    assert a.evaluate(values) == ref_a.evaluate(values)
    assert a.direction(values) == ref_a.direction(values)
    # monomial denominators: the reducer takes one content pass, no gcds
    c, ref_c = draw_family(rng, pres, dens="monomial")
    d, ref_d = draw_family(rng, pres, dens="monomial")
    assert_agrees(c, ref_c)
    assert_agrees(c + d, ref_c + ref_d)
    assert_agrees((c + d) - d, (ref_c + ref_d) - ref_d)
    assert_agrees(c.mul_known(e), ref_c.mul_known(e))
    assert_agrees(c.sigma(), ref_c.sigma())
    # unit denominators: zero, negation and sums built without the reducer
    u, ref_u = draw_family(rng, pres, dens="unit")
    v, ref_v = draw_family(rng, pres, dens="unit")
    zero, ref_zero = LinComb.zero(pres), ReferenceLinComb(pres, pres.zero())
    assert_agrees(zero, ref_zero)
    assert_agrees(-u, -ref_u)
    assert_agrees(u - u, ref_u - ref_u)
    assert_agrees(u + v, ref_u + ref_v)
    assert_agrees((u + v) - v, (ref_u + ref_v) - ref_v)
    assert_agrees(zero + u, ref_zero + ref_u)
    assert_agrees(zero - u, ref_zero - ref_u)
    assert_agrees(-zero, -ref_zero)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_lift_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    pres = BASES["closed"]
    sub = pres.restrict(["g", "t1"])
    lc, ref = draw_family(rng, sub)
    lifted = lc.lift(pres)
    assert lifted.pres is pres
    assert_agrees(lifted, ref.lift(pres))
    assert_agrees(lifted.sigma(), ref.lift(pres).sigma())
    unit, ref_unit = draw_family(rng, sub, dens="unit")
    for lc, ref in ((unit, ref_unit), (-unit, -ref_unit), (LinComb.zero(sub), ReferenceLinComb(sub, sub.zero()))):
        lifted = lc.lift(pres)
        assert lifted.pres is pres
        assert_agrees(lifted, ref.lift(pres))
        assert_agrees(lifted + lifted.sigma(), ref.lift(pres) + ref.lift(pres).sigma())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_degree_split_agrees_with_the_reference(seed):
    # denominators mention a1 in some draws: both forms must refuse those
    rng = random.Random(seed)
    pres = BASES["closed"]
    gen = pres.spec("a1")
    sub = pres.restrict(["g", "t1"])
    den_vars = variables(pres) if rng.random() < 0.3 else variables(sub)
    lc, ref = draw_family(rng, pres, den_vars)
    try:
        expected = reference_split(ref, pres, gen, sub)
    except UnsupportedCoefficientShape:
        with pytest.raises(UnsupportedCoefficientShape):
            _lincomb_coefficients(lc, pres, gen, sub)
        return
    got = _lincomb_coefficients(lc, pres, gen, sub)
    assert set(got) == set(expected)
    for deg, part in got.items():
        assert part.pres is sub
        assert_agrees(part, expected[deg])


def test_a_twist_one_level_down_must_be_free_of_the_generator():
    pres = BASES["closed"]
    gen, sub = pres.spec("a1"), pres.restrict(["g", "t1"])
    g, a1 = pres.gen("g"), pres.gen("a1")
    twist = require_level_free(g / (g + 1), pres, sub, gen)
    assert twist.pres is sub and twist == sub.gen("g") / (sub.gen("g") + 1)
    assert require_level_free(pres.zero(), pres, sub, gen) == sub.zero()
    with pytest.raises(UnsupportedCoefficientShape, match="'a1' in its denominator"):
        require_level_free(a1 / (a1 + 1), pres, sub, gen)
    with pytest.raises(UnsupportedCoefficientShape, match="mentions the extension generator 'a1'"):
        require_level_free(g * a1 + 1, pres, sub, gen)


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_add_zero_rows_agree_with_the_reference(base, seed):
    # the same rows reach the echelon, so the stored pivot rows are identical
    rng = random.Random(seed)
    pres = BASES[base]
    ctx, ref_ctx = ParamContext(len(PARAMS)), ParamContext(len(PARAMS))
    for _ in range(rng.randint(1, 3)):
        lc, ref = draw_family(rng, pres)
        if rng.random() < 0.5:  # a family whose rows are consistent
            lc, ref = lc - LinComb.constant(pres, lc.evaluate({})), ref - ReferenceLinComb(pres, ref.evaluate({}))
        try:
            ctx.add_zero(lc)
        except Infeasible:
            with pytest.raises(Infeasible):
                reference_add_zero(ref_ctx, ref)
            return
        reference_add_zero(ref_ctx, ref)
        assert ctx.pivots == ref_ctx.pivots
        assert ctx.order == ref_ctx.order


ECHELON_COLUMNS = range(len(PARAMS) + 2)  # rows also reach past the families' parameters
_entries = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 3)),
)
_rows = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(ECHELON_COLUMNS), _entries, min_size=1, max_size=4), st.integers(-3, 3)),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BASES)), _rows, st.integers(0, 10**6))
def test_reduced_families_keep_only_free_parameters(base, rows, seed):
    rng = random.Random(seed)
    pres = BASES[base]
    ctx = ParamContext(len(ECHELON_COLUMNS))
    for coeffs, const in rows:
        try:
            ctx.add_row(coeffs, const)
        except Infeasible:  # the echelon is left as it was
            pass
    solution, kernel = ctx.solve(), ctx.kernel()
    lc, _ = draw_family(rng, pres)
    # plus a multiple of a stored row, which the rows pin to zero
    if ctx.order and rng.random() < 0.5:
        row, const = ctx.pivots[rng.choice(ctx.order)]
        pinned = LinComb(pres, MPoly.const(const), {c: MPoly.const(v) for c, v in row.items()})
        lc = lc + pinned.mul_known(draw_element(rng, pres))
        assert ctx.reduced(pinned).is_zero()
    reduced = ctx.reduced(lc)
    assert not set(reduced.coeffs) & set(ctx.pivots)
    assert reduced.evaluate(solution) == lc.evaluate(solution)
    for direction in kernel:
        assert reduced.direction(direction) == lc.direction(direction)
    again = ctx.reduced(reduced)
    assert (again.const, again.coeffs, again.den) == (reduced.const, reduced.coeffs, reduced.den)
    assert ctx.reduced(LinComb.zero(pres)).is_zero()


def test_evaluate_reduces_the_shared_denominator():
    # (g*x0 + x1)/g at x0 = 1, x1 = 0 is 1, though the family's form is over g
    pres = BASES["free"]
    g = MPoly.var(pres.varid("g"))
    lc = LinComb(pres, MPoly(), {0: g, 1: MPoly.const(1)}, g)
    assert lc.den == g
    assert lc.evaluate({0: 1}) == pres.one()
    assert lc.evaluate({0: 1}).value.den == MPoly.const(1)
    assert lc.direction({0: 2, 1: 1}) == pres.const(2) + pres.one() / pres.gen("g")


def test_monomials_match_products_of_variables():
    g, h = VarId(0, "g"), VarId(1, "h")
    for vars_ in ([], [g], [h, g], [g.shifted(1), g, h, g.shifted(-1)]):
        for max_deg in range(-1, 4):
            reference = []
            for deg in range(max_deg + 1):
                for combo in itertools.combinations_with_replacement(sorted(vars_), deg):
                    p = MPoly.const(1)
                    for v in combo:
                        p = p * MPoly.var(v)
                    reference.append(p)
            assert _monomials(vars_, max_deg) == reference


def test_monomials_without_variables_are_the_constant_at_any_cap():
    # the loop over every degree up to the cap, which no variables cut short
    for max_deg in range(6):
        reference = []
        for deg in range(max_deg + 1):
            for combo in itertools.combinations_with_replacement([], deg):
                reference.append(MPoly({combo: 1}))
        assert _monomials([], max_deg) == reference == [MPoly.const(1)]


def test_a_torsor_of_a_huge_power_over_a_free_base_is_decided_at_once():
    # the ansatz has no variables, so its degree cap of 10^6 costs nothing
    doc = parse_document("gen g free;\ntwisted e1 = 1, e2 = g^1000000;\n")
    start = time.perf_counter()
    res = decide_free_base(doc.presentation, TwistedEquation(*doc.twisted))
    assert time.perf_counter() - start < 2.0
    assert isinstance(res, Unsolvable)
