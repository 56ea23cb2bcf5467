"""Presentations and the sigma action: rules, inverses, homomorphism laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffield.field import AffineSpec, FreeSpec, GeneratorSpec, Presentation, PresentationError
from diffield.poly import MPoly, VarId
from diffield.ratfunc import RatFunc


def twisted_pair_presentation():
    p, g = Presentation.empty().with_free("g")
    p, a1 = p.with_affine("a1", g, g)
    return p, g, a1


def test_validate_ok():
    p, _ = Presentation.empty().with_free("g")
    p.validate()


def test_validate_zero_linear_part():
    p = Presentation.empty()
    with pytest.raises(PresentationError, match="linear part zero"):
        p.with_affine("a", 0, 1)


def test_validate_stratification():
    p, g = Presentation.empty().with_free("g")
    # a rule may not mention a generator declared later
    later = RatFunc.var(VarId(5, "b"))
    with pytest.raises(PresentationError, match="strictly earlier|not in this"):
        p.with_affine("a", later, 1)


def test_sigma_free_shift():
    p, g = Presentation.empty().with_free("g")
    assert g.sigma(1) == p.gen("g", 1)
    assert g.sigma(-2) == p.gen("g", -2)


def test_sigma_affine_rule():
    p, g, a1 = twisted_pair_presentation()
    # sigma(a1) = g*a1 + g
    assert a1.sigma(1) == g * a1 + g


def test_sigma_inverse_affine():
    p, g, a1 = twisted_pair_presentation()
    gm1 = p.gen("g", -1)
    assert a1.sigma(-1) == a1 / gm1 - 1
    assert a1.sigma(-1).sigma(1) == a1


def test_wp_examples():
    p, g, a1 = twisted_pair_presentation()
    assert p.const(Fraction(7, 3)).wp().is_zero()
    assert a1.wp() == (g - 1) * a1 + g


def test_wp_of_twisted_product():
    # sigma(a1) = g a1 + g, sigma(a2) = (1/g) a2 + (1/g): wp(a1*a2) = a1+a2+1
    p, g = Presentation.empty().with_free("g")
    p, a1 = p.with_affine("a1", g, g)
    p, a2 = p.with_affine("a2", g.in_presentation(p).value.inv(), g.value.inv())
    a1 = a1.in_presentation(p)
    prod = a1 * a2
    assert prod.wp() == a1 + a2 + 1


def test_is_fixed():
    p, g, a1 = twisted_pair_presentation()
    assert p.const(Fraction(7, 3)).is_fixed()
    assert not g.is_fixed()


def _random_element(p, rng, names, max_shift=1):
    def rand_poly():
        poly = MPoly.const(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            mono = MPoly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2)):
                name = rng.choice(names)
                shift = rng.randint(-max_shift, max_shift) if p.spec(name).is_free else 0
                mono = mono * MPoly.var(p.varid(name, shift))
            poly = poly + mono
        return poly

    num = rand_poly()
    den = MPoly()
    while den.is_zero():
        den = rand_poly()
    return p.element(RatFunc(num, den))


def _laws_presentation():
    p, g = Presentation.empty().with_free("g")
    p, t = p.with_affine("t", 1, 1)
    p, a = p.with_affine("a", g.in_presentation(p), g.in_presentation(p))
    return p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_is_ring_homomorphism(seed):
    p = _laws_presentation()
    rng = random.Random(seed)
    x = _random_element(p, rng, list(p.names()))
    y = _random_element(p, rng, list(p.names()))
    assert (x * y).sigma(1) == x.sigma(1) * y.sigma(1)
    assert (x + y).sigma(1) == x.sigma(1) + y.sigma(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_sigma_inverse_roundtrip(seed, k):
    p = _laws_presentation()
    rng = random.Random(seed)
    x = _random_element(p, rng, list(p.names()))
    assert x.sigma(k).sigma(-k) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_wp_zero_iff_fixed(seed):
    p = _laws_presentation()
    rng = random.Random(seed)
    x = _random_element(p, rng, list(p.names()))
    assert x.wp().is_zero() == x.is_fixed()
    q = p.const(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
    assert q.wp().is_zero() and q.is_fixed()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_images_are_kept_per_direction(seed):
    # each presentation forms an affine generator's image under sigma^{+1}
    # and sigma^{-1} once; asking for them in either order on equal but
    # separate presentations gives the same values, and b's inverse image
    # needs a's, so one direction's image must never answer for the other
    def build():
        p = _laws_presentation()
        p, _ = p.with_affine("b", 1, p.gen("a"))
        return p

    p, q = build(), build()
    assert p == q and p is not q
    rng = random.Random(seed)
    for _ in range(3):
        x = _random_element(p, rng, list(p.names()))
        down, up = x.sigma(-1), x.sigma(1)
        y = x.in_presentation(q)
        assert (y.sigma(1).value, y.sigma(-1).value) == (up.value, down.value)
    affine = {g.index for g in p.gens if not g.is_free}
    for pres in (p, q):
        assert all(v.index in affine and d in (1, -1) for v, d in pres._images)
        assert len(pres._images) <= 2 * len(affine)


def test_restriction_preserves_indices():
    p, g, a1 = twisted_pair_presentation()
    sub = p.restrict(["g"])
    assert sub.gen("g", 2).value == p.gen("g", 2).value
    # element of the sub-presentation combines with ambient elements
    assert (sub.gen("g") + a1) == (g + a1)


def test_affine_top_is_formed_once_and_matches_restrict():
    p, g = Presentation.empty().with_free("g")
    assert p.affine_top is None
    p, _ = p.with_affine("t", 1, 1)
    p, _ = p.with_affine("a", g, g + 1)
    p, _ = p.with_free("h")  # a free generator after the last affine one stays in sub
    top = p.affine_top
    assert top is p.affine_top
    assert top.gen == p.spec("a")
    assert top.sub == p.restrict(["g", "t", "h"])
    assert top.alpha.pres is top.sub and top.beta.pres is top.sub
    assert (top.alpha, top.beta) == (top.sub.gen("g"), top.sub.gen("g") + 1)
    assert top.sub.affine_top.gen == p.spec("t") and top.sub.affine_top.sub == p.restrict(["g", "h"])
    # kept outside the record fields: equality and hashing see gens only
    again = Presentation(p.gens)
    assert again == p and hash(again) == hash(p) and "affine_top" not in again.__dict__


def test_affine_shift_materialization_rejected():
    p, g, a1 = twisted_pair_presentation()
    with pytest.raises(PresentationError):
        p.gen("a1", 1)


def _laws_presentation_renamed():
    """_laws_presentation's shape over other names and higher, spread indices."""
    p, _ = Presentation.empty().with_free("z")
    p, h = p.with_free("h")
    p, _ = p.with_free("y")
    p, _ = p.with_affine("u", 1, 1)
    p, _ = p.with_affine("b9", h.in_presentation(p), h.in_presentation(p))
    return p.restrict(["h", "u", "b9"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_renamed_commutes_with_sigma(seed):
    p, q = _laws_presentation(), _laws_presentation_renamed()
    assert p.shape() == q.shape()
    rng = random.Random(seed)
    x = _random_element(p, rng, list(p.names()))
    y = x.renamed(q)
    assert y.pres == q and y.value == x.value.rename({0: (1, "h"), 1: (3, "u"), 2: (4, "b9")})
    assert y.sigma(1) == x.sigma(1).renamed(q)
    assert y.is_fixed() == x.is_fixed()
    assert y.renamed(p) == x and repr(y.renamed(p)) == repr(x)
    assert p.const(Fraction(-2, 3)).renamed(q) == q.const(Fraction(-2, 3))


def test_renamed_refuses_another_shape():
    p, g = Presentation.empty().with_free("g")
    free, _ = p.with_free("a")
    torsor, _ = p.with_affine("a", 1, 1)
    shifted, _ = p.with_affine("a", 1, g)
    twisted, _ = p.with_affine("a", g, 1)
    longer, _ = torsor.with_free("b")
    for source, target in ((free, torsor), (torsor, free), (torsor, shifted), (torsor, twisted), (torsor, longer)):
        with pytest.raises(ValueError, match="shapes"):
            source.gen("g").renamed(target)


def test_lookups_and_value_checks():
    p, g, a1 = twisted_pair_presentation()
    assert p.has_gen("a1") and not p.has_gen("zz")
    assert p.spec("a1").index == 1
    with pytest.raises(PresentationError, match="unknown generator 'zz'"):
        p.spec("zz")
    with pytest.raises(PresentationError, match="unknown generator"):
        p.gen("zz")
    # a foreign index, a known index under another name, an affine shift
    for v in (VarId(7, "g"), VarId(0, "h"), VarId(1, "a1", 1)):
        with pytest.raises(PresentationError):
            p.check_value(RatFunc.var(v))
    p.check_value(RatFunc.var(VarId(0, "g", -3)) / RatFunc.var(VarId(1, "a1")))
    assert p.const(Fraction(1, 2)).value == RatFunc.const(Fraction(1, 2))
    # an unvalidated presentation that repeats a name: spec keeps the first
    first, second = GeneratorSpec(0, "g", FreeSpec()), GeneratorSpec(1, "g", FreeSpec())
    assert Presentation((first, second)).spec("g") is first
    # one that repeats an index: spec_by_index keeps the first too, so validate
    # reads a's rule against the free g and reports the repeated index
    rule = AffineSpec(RatFunc.const(1), RatFunc.var(VarId(0, "g", 1)))
    twin = GeneratorSpec(0, "h", AffineSpec(RatFunc.const(1), RatFunc.const(0)))
    repeated = Presentation((first, GeneratorSpec(1, "a", rule), twin))
    assert repeated.spec_by_index(0) is first
    with pytest.raises(PresentationError, match="duplicate generator index for 'h'"):
        repeated.validate()
    with pytest.raises(PresentationError, match="no generator with index 5"):
        repeated.spec_by_index(5)
