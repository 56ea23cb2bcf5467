"""Certificates: case analyses, registry matching, replay, reductions."""

import itertools
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from diffield.certify import (
    AvoidedRegistry,
    DegreeObstruction,
    IntSet,
    MultFamilyQuery,
    RatioQuery,
    RegistryEntry,
    RegistryHit,
    TwistedShiftFamily,
    _normalize_query,
    certify_constants,
    certify_unsolvable,
    leading_cases,
    replay_certificate,
)
from diffield import certify
from diffield.equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unknown,
    Unsolvable,
)
from diffield.field import Element, Presentation
from diffield.freebase import decide_free_base
from diffield.tower import fixed_space, solve_multiplicative_bounded, solve_twisted_bounded


def base_with_registry():
    p, g = Presentation.empty().with_free("g")
    inv = p.one() / g
    queries = (
        MultFamilyQuery(p.one(), g, IntSet("nonzero")),
        TwistedEquation(inv, inv),
        TwistedEquation(g, g),
    )
    entries = []
    for q in queries:
        res = certify_unsolvable(p, q)
        assert isinstance(res, Unsolvable)
        entries.append(RegistryEntry(q, res.certificate))
    return p, g, AvoidedRegistry(p, tuple(entries))


def closed(p, g, registry):
    from diffield.counterexample import closure_step

    return closure_step(p, registry, p.one(), name="t1")


def test_base_families_certify_and_replay():
    p, g, registry = base_with_registry()
    for entry in registry.entries:
        assert replay_certificate(p, entry.query, entry.certificate)


def test_registry_matches_power_queries():
    p, g, registry = base_with_registry()
    hit = registry.match(p, RatioQuery(g * g))
    assert hit is not None
    # a multiplicative query reaches the registry as its ratio query
    query = _normalize_query(MultiplicativeEquation(g, -3))
    assert query == RatioQuery(p.one() / g**3)
    assert registry.match(p, query) == RegistryHit(0, repr(registry.entries[0].query))
    res = certify_unsolvable(p, MultiplicativeEquation(g, -3), registry)
    assert isinstance(res, Unsolvable) and res.certificate.node == RegistryHit(0, repr(registry.entries[0].query))
    assert registry.match(p, RatioQuery(p.one())) is None


def test_closure_preserves_certificates():
    p, g, registry = base_with_registry()
    p1, reg1, step = closed(p, g, registry)
    assert step.generator == "t1"
    for entry in reg1.entries:
        assert replay_certificate(p1, entry.query, entry.certificate, registry)


def test_twisted_pair_torsor_certificate_shape():
    p, g, registry = base_with_registry()
    p1, reg1, _ = closed(p, g, registry)
    p2, a1 = p1.with_affine("a1", p1.gen("g"), p1.gen("g"))
    eq = TwistedEquation(p2.one(), a1)
    res = certify_unsolvable(p2, eq, reg1)
    assert isinstance(res, Unsolvable)
    node = res.certificate.node
    labels = {c.label for c in node.cases}
    assert labels == {"n < m + 1", "n = m + 1", "n > m + 1"}
    derived = {c.label: c.derived for c in node.cases}
    assert repr(derived["n = m + 1"]) == "sigma(x) - (1/g)*x = 1/g"
    assert "(g)^z" in repr(derived["n > m + 1"])
    assert replay_certificate(p2, eq, res.certificate, reg1)


def test_symmetric_side_certifies():
    p, g, registry = base_with_registry()
    p1, reg1, _ = closed(p, g, registry)
    inv = p1.one() / p1.gen("g")
    p2, a2 = p1.with_affine("a2", inv, inv)
    res = certify_unsolvable(p2, TwistedEquation(p2.one(), a2), reg1)
    assert isinstance(res, Unsolvable)
    derived = {c.label: repr(c.derived) for c in res.certificate.node.cases if c.derived}
    assert derived["n = m + 1"] == "sigma(x) - (g)*x = g"


def test_shift_family_certifies_and_control_refuses():
    p, g, registry = base_with_registry()
    p1, reg1, _ = closed(p, g, registry)
    p2, a1 = p1.with_affine("a1", p1.gen("g"), p1.gen("g"))
    res = certify_unsolvable(p2, TwistedShiftFamily(p2.one(), a1), reg1)
    assert isinstance(res, Unsolvable)
    # adjoining a torsor witness for T_{a1} makes the family uncertifiable
    p3, h1 = p2.with_affine("h1", 1, a1.in_presentation(p2))
    res = certify_unsolvable(p3, TwistedShiftFamily(p3.one(), a1.in_presentation(p3)), reg1)
    assert isinstance(res, Unknown)


def test_certifier_never_contradicts_solver():
    p, g, registry = base_with_registry()
    solvable = TwistedEquation(p.one(), p.gen("g", 1) - g)
    res = certify_unsolvable(p, solvable, registry)
    assert isinstance(res, Unknown)
    # over the torsor closure Q(g)(t1), sigma(t1) = t1 + 1: solvable queries
    # that reach the refusals of the twisted split (alpha = 1 with e1 = 1,
    # d2 = 0 with e2 = 0, d2 = 0 for a shift family); a shift family is
    # solved through one member, given as (family, member)
    p1, _, _ = closed(p, g, registry)
    one, g1, t1 = p1.one(), p1.gen("g"), p1.gen("t1")
    queries = [
        (TwistedEquation(one, one), None),
        (TwistedEquation(one, t1), None),
        (TwistedEquation(one, t1 * t1 + t1), None),
        (TwistedShiftFamily(one, t1), TwistedEquation(one, t1)),
        (TwistedEquation(g1, p1.zero()), None),
        (TwistedShiftFamily(g1, g1), TwistedEquation(g1, g1 + (1 - 2 * g1))),
    ]
    for query, member in queries:
        found = solve_twisted_bounded(p1, member or query, SearchBounds(3, 1))
        assert isinstance(found, Solution), query
        assert isinstance(certify_unsolvable(p1, query, registry), Unknown), query
    # sigma(h) = g*h: y = h solves the family at z = 1, so the base g must not
    # pass through a nontrivial alpha unchanged
    ph, h = p.with_affine("h", g, 0)
    gh = ph.gen("g")
    found = solve_multiplicative_bounded(ph, MultiplicativeEquation(gh, 1), SearchBounds(1, 1))
    assert isinstance(found, Solution) and found.witness == h
    family = MultFamilyQuery(ph.one(), gh, IntSet("nonzero"))
    assert isinstance(certify_unsolvable(ph, family, registry), Unknown)


def split(pres, name, query):
    """The labelled cases of the reduction of query over generator name."""
    top = pres.affine_top
    assert top.gen.name == name
    return dict(leading_cases(pres, query))


def test_reduce_cases_match_hand_calculation():
    p, g, registry = base_with_registry()
    p2, a1 = p.with_affine("a1", g, g)
    cases = split(p2, "a1", TwistedEquation(p2.one(), a1))
    # (n, m) = (3, 0) lies in the n > m + 1 family at z = m - n = -3
    high = cases["n > m + 1"]
    assert high == MultFamilyQuery(p.one(), g, IntSet("le", -2))
    assert repr(high.twist * high.base ** -3) == "1/g^3"
    edge = cases["n = m + 1"]
    assert isinstance(edge, TwistedEquation)
    assert edge.e1 == p.one() / g and edge.e2 == p.one() / g
    assert cases["n < m + 1"] == DegreeObstruction(1, p.one())


def test_reduce_torsor_extension_cases():
    # over a torsor extension sigma(t) = t + f, the twisted equation with
    # unit e keeps its family: n = m gives the same equation, n > m the ratio
    p, g, registry = base_with_registry()
    p1, t = p.with_affine("t", 1, 1)
    g1 = g.in_presentation(p1)
    cases = split(p1, "t", TwistedEquation(g1, g1))
    assert list(cases) == ["n < m", "n = m + 0", "n > m + 0"]
    assert cases["n < m"] == DegreeObstruction(0, g)
    same = cases["n = m + 0"]
    assert isinstance(same, TwistedEquation)
    assert same.e1 == g and same.e2 == g
    ratio = cases["n > m + 0"]
    assert isinstance(ratio, RatioQuery) and ratio.ratio == g


def pi_step():
    """Q(g)(a) with sigma(a) = g*a, its g, a and the free base Q(g)."""
    p, g = Presentation.empty().with_free("g")
    pa, a = p.with_affine("a", g, 0)
    return pa, pa.gen("g"), a, pa.affine_top.sub


def test_multiplicative_equations_over_a_pi_step():
    # the ratio case over alpha = g != 1: sigma(x) = e*x leads to
    # sigma(y)/y = e*g^z, z in Z, one level down
    pa, g, a, sub = pi_step()
    two = MultiplicativeEquation(pa.const(2), 1)
    assert split(pa, "a", RatioQuery(pa.const(2))) == {
        "any degrees n, m": MultFamilyQuery(sub.const(2), sub.gen("g"), IntSet("all"))
    }
    # sigma(x) = 2x: the family is refuted, its z = 0 sample by 2 != 1
    res = certify_unsolvable(pa, two)
    assert isinstance(res, Unsolvable) and replay_certificate(pa, two, res.certificate)
    (case,) = res.certificate.node.cases
    assert case.node.spot_checks == IntSet("all").samples() and 0 in case.node.spot_checks
    assert isinstance(solve_multiplicative_bounded(pa, two, SearchBounds(3, 2)), NoSolutionWithinBounds)
    # solvable ones stay Unknown, and the search finds their solutions
    for e, x in ((g, a), (pa.one() / g, pa.one() / a), (pa.gen("g", 1) / g, g)):
        eq = MultiplicativeEquation(e, 1)
        assert isinstance(certify_unsolvable(pa, eq), Unknown), e
        found = solve_multiplicative_bounded(pa, eq, SearchBounds(3, 2))
        assert isinstance(found, Solution) and found.witness == x, e


def test_polynomial_family_cases_over_a_pi_step():
    # a polynomial y of degree n in a has leading ratio twist * base^z * g^(-n)
    pa, g, a, sub = pi_step()
    one, two, g0 = pa.one(), pa.const(2), sub.gen("g")

    def cases(query):
        got = leading_cases(pa, query, polynomial=True)
        return got if got is None else dict(got)

    # refused where y = 1 solves it: sigma(y)/y = 1, and g^z at z = 0
    for query in (RatioQuery(one), MultFamilyQuery(one, g, IntSet("all"))):
        assert cases(query) is None, query
        assert isinstance(solve_multiplicative_bounded(pa, MultiplicativeEquation(one, 1), SearchBounds(0, 0)), Solution)
    # the twist of sigma(y)/y = 2 moves into a family over g, z <= 0 ...
    assert cases(RatioQuery(two)) == {"any degree n": MultFamilyQuery(sub.const(2), g0, IntSet("le", 0))}
    assert isinstance(certify_unsolvable(sub, MultFamilyQuery(sub.const(2), g0, IntSet("le", 0))), Unsolvable)
    assert isinstance(solve_multiplicative_bounded(pa, MultiplicativeEquation(two, 1), SearchBounds(3, 2)), NoSolutionWithinBounds)
    # ... and the twist g = g^1 folds into the exponents, where z = 0 is y = a
    assert cases(RatioQuery(g)) == {"any degree n": MultFamilyQuery(sub.one(), g0, IntSet("le", 1))}
    assert isinstance(certify_unsolvable(sub, MultFamilyQuery(sub.one(), g0, IntSet("le", 1))), Unknown)
    # a twisted family over alpha keeps its twist, with the exponents smeared over Z
    family = MultFamilyQuery(two, g, IntSet("nonzero"))
    assert cases(family) == {"any degree n": MultFamilyQuery(sub.const(2), g0, IntSet("all"))}
    assert isinstance(certify_unsolvable(sub, MultFamilyQuery(sub.const(2), g0, IntSet("all"))), Unsolvable)
    for z in (1, -1, 2):
        eq = MultiplicativeEquation(two * g**z, 1)
        assert isinstance(solve_multiplicative_bounded(pa, eq, SearchBounds(3, 2)), NoSolutionWithinBounds), z


def test_free_family_exits(monkeypatch):
    p, g = Presentation.empty().with_free("g")
    # a constant base has no uniform argument, though each member is refuted
    family = MultFamilyQuery(p.one(), p.const(2), IntSet("nonzero"))
    assert isinstance(certify_unsolvable(p, family), Unknown)
    for z in family.exponents.samples():
        assert isinstance(decide_free_base(p, MultiplicativeEquation(p.const(2), z)), Unsolvable), z
    # each sample is decided: a decision that finds a solution refuses the family
    refuted = MultFamilyQuery(p.one(), g, IntSet("nonzero"))
    assert isinstance(certify_unsolvable(p, refuted), Unsolvable)
    monkeypatch.setattr(certify, "multiplicative_kernel", lambda pres, ratio: ([pres.one()], None))
    assert isinstance(certify_unsolvable(p, refuted), Unknown)


# -- order-preserving renamings ------------------------------------------------

# Rules of the first and second affine step, over the generators below them.
STEP_RULES = (
    (
        lambda g: (1, 1),
        lambda g: (1, g),
        lambda g: (g, g),
        lambda g: (g, 0),
        lambda g: (1 / g, 1 / g),
        lambda g: (2, g * g),
    ),
    (
        lambda g, a: (1, a),
        lambda g, a: (1, 1),
        lambda g, a: (g, a),
        lambda g, a: (1 / g, 1 / g),
        lambda g, a: (1, g * a),
    ),
)


def drawn_tower(names, pads, free, rules):
    """``free`` free generators, then one affine step per rule drawn from STEP_RULES.

    A rule reads the first free generator and the affine ones before it.
    pads[k] free generators come before names[k] and are restricted away, so
    the indices depend on pads while the shape does not.
    """
    amb, gens = Presentation.empty(), []
    for k, name in enumerate(names):
        for i in range(pads[k]):
            amb, _ = amb.with_free(f"{name}_pad{i}")
        if k < free:
            amb, gen = amb.with_free(name)
        else:
            below = [e.in_presentation(amb) for e in (gens[0], *gens[free:])]
            amb, gen = amb.with_affine(name, *STEP_RULES[k - free][rules[k - free]](*below))
        gens.append(gen)
    pres = amb.restrict(names)
    return pres, [pres.gen(name) for name in names]


def renaming(source, target):
    """Map a verdict, a query or a certificate over source to target.

    Generators are matched by position.  Elements go through Element.renamed
    (over the matching restriction of target, for one a level down); strings
    (reprs, labels, reasons) have the generator names replaced as tokens.
    """
    names = dict(zip(source.names(), target.names()))
    token = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")

    def rename(obj):
        if isinstance(obj, Element):
            return obj.renamed(target.restrict(names[n] for n in obj.pres.names()))
        if isinstance(obj, str):
            return token.sub(lambda m: names[m.group()], obj)
        if isinstance(obj, tuple):
            return tuple(map(rename, obj))
        fields = getattr(type(obj), "__match_args__", None)
        if fields is not None:  # a record: rebuilt field by field
            return type(obj)(**{name: rename(getattr(obj, name)) for name in fields})
        return obj

    return rename


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_solver_and_certifier_commute_with_renamings(seed):
    # a one- or two-step tower over one or two free generators, under other
    # names and indices in the same order; half the equations have a planted
    # solution, which the search bounds reach
    rng = random.Random(seed)
    free = rng.randint(1, 2)
    rules = [rng.randrange(len(step)) for step in STEP_RULES[: rng.randint(1, 2)]]
    size = free + len(rules)
    # name order is index order in the source, and the reverse among the
    # free and among the affine generators in the target
    source_names = ["gx", "kx"][:free] + ["ax", "bx"][: len(rules)]
    target_names = ["wy", "hy"][:free] + ["dy", "cy"][: len(rules)]
    source, gens = drawn_tower(source_names, [rng.randint(0, 2) for _ in range(size)], free, rules)
    target, _ = drawn_tower(target_names, [rng.randint(0, 2) for _ in range(size)], free, rules)
    g = gens[0]
    atoms = [source.one(), g, g.sigma(1), *gens[1:], g * gens[-1]]
    x = source.zero()
    for atom in rng.sample(atoms, rng.randint(1, 3)):
        x = x + rng.choice([-2, -1, 1, 3]) * atom
    e1 = rng.choice([source.one(), g, 1 / g, 2 * g])
    planted = rng.random() < 0.5
    e2 = x.sigma(1) - e1 * x if planted else x
    rename = renaming(source, target)
    bounds = SearchBounds(2, 1)
    equation = TwistedEquation(e1, e2)
    found = solve_twisted_bounded(source, equation, bounds)
    assert isinstance(found, Solution) or not planted
    assert rename(found) == solve_twisted_bounded(target, rename(equation), bounds)
    for query in (equation, TwistedShiftFamily(e1, e2)):
        assert rename(certify_unsolvable(source, query)) == certify_unsolvable(target, rename(query))


# -- certify_constants: the polynomial fixed elements of a corner are Q -------------


def height4_corners(control):
    from diffield.counterexample import build_base, build_height4_instance

    base0, reg0 = build_base()
    base, reg, _ = closed(base0, base0.gen("g"), reg0)
    model = build_height4_instance(base, control=control).model
    return [model.corner(model.complement(i, j)) for i, j in itertools.combinations(range(1, 5), 2)]


def test_main_corners_certify_and_search_only_constants():
    # one certificate per affine generator, from the bottom; the search at
    # (4, 3), which the certificate stands in for, finds only the constants
    for corner in height4_corners(control=False):
        certificates = certify_constants(corner)
        assert isinstance(certificates, tuple), corner.names()
        names = corner.names()  # g, then the affine generators
        assert [c.presentation for c in certificates] == [names[:k] for k in range(2, len(names) + 1)]
        assert fixed_space(corner, SearchBounds(4, 3), polynomial=True) == [corner.one()]


def test_control_corners_do_not_certify():
    # each control corner has a planted constant at its top generator: in
    # {g, t1, a3, a4, c34, h3, h4}, T_{a4} is solved by h3 - c34, so h4 - h3 + c34
    # is fixed
    for corner in height4_corners(control=True):
        top = corner.names()[-1]
        assert certify_constants(corner) == top
        assert len(fixed_space(corner, SearchBounds(2, 1), polynomial=True)) > 1
    corner = height4_corners(control=True)[0]
    h3, h4, c34 = corner.gen("h3"), corner.gen("h4"), corner.gen("c34")
    assert (h4 - h3 + c34).is_fixed()


def rule2_blocks(*pairs):
    """Q(g)(t1) with three blocks a2, a3, a4 of rule 2 and the torsors c_ij of pairs."""
    from diffield.counterexample import build_base, pair_rules
    from diffield.systems import build_system

    base0, reg0 = build_base()
    base, _, _ = closed(base0, base0.gen("g"), reg0)
    _, rule2 = pair_rules(base)
    model = build_system(base, [[(f"a{i}", rule2)] for i in (2, 3, 4)])
    for i, j in pairs:
        a = {k: model.pres.gen(f"a{k}") for k in (2, 3, 4)}
        model, _ = model.adjoin({i - 1, j - 1}, f"c{i}{j}", 1, a[i] - a[j])
    return model.pres


def test_a_corner_of_three_rule2_blocks_certifies():
    assert len(certify_constants(rule2_blocks())) == 4
    assert len(certify_constants(rule2_blocks((3, 4)))) == 5
    # with all three torsors, c23 - c24 + c34 is fixed
    pres = rule2_blocks((2, 3), (2, 4), (3, 4))
    assert (pres.gen("c23") - pres.gen("c24") + pres.gen("c34")).is_fixed()
    assert certify_constants(pres) == "c34"


def test_a_pi_pair_does_not_certify():
    # sigma(a) = g*a and sigma(b) = b/g: a*b is fixed.  Over Q(g)[a], the
    # leading coefficient of a fixed polynomial in b solves
    # sigma(y)/y = (1/g)^z = g^(-z), z <= -1, and y = a^(-z) does
    p, g = Presentation.empty().with_free("g")
    p, a = p.with_affine("a", g, 0)
    p, b = p.with_affine("b", p.one() / p.gen("g"), 0)
    assert (a.in_presentation(p) * b).is_fixed()
    assert certify_constants(p) == "b"
    assert isinstance(certify_constants(p.restrict(["g", "a"])), tuple)


# Rules sigma(a) = linear*a + constant over Q(g), ``a`` in a constant the
# previous affine generator, and polynomial terms in the last one.
TOWER_LINEAR = (lambda g: g.pres.one(), lambda g: g, lambda g: g.pres.one() / g, lambda g: g.sigma(1) / g)
TOWER_CONSTANT = (
    lambda g, a: g.pres.zero(),
    lambda g, a: g.pres.one(),
    lambda g, a: g,
    lambda g, a: g.pres.one() / g,
    lambda g, a: a,
    lambda g, a: g * a,
)
TOWER_TERMS = (lambda g, a: g, lambda g, a: g.pres.one() / g, lambda g, a: a, lambda g, a: g * a, lambda g, a: a * a)
TOWER_RULES = st.lists(
    st.tuples(st.integers(0, len(TOWER_LINEAR) - 1), st.integers(0, len(TOWER_CONSTANT) - 1)), min_size=1, max_size=3
)


def affine_tower(rules):
    p, g = Presentation.empty().with_free("g")
    a = p.one()
    for n, (lin, con) in enumerate(rules):
        g, a = g.in_presentation(p), a.in_presentation(p)
        p, a = p.with_affine(f"a{n}", TOWER_LINEAR[lin](g), TOWER_CONSTANT[con](g, a))
    return p, g.in_presentation(p), a


@settings(max_examples=80, deadline=None)
@given(TOWER_RULES)
def test_a_certified_tower_has_only_constant_polynomial_fixed_elements(rules):
    p, _, _ = affine_tower(rules)
    if isinstance(certify_constants(p), tuple):
        assert fixed_space(p, SearchBounds(2, 1), polynomial=True) == [p.one()], rules


@settings(max_examples=80, deadline=None)
@given(TOWER_RULES, st.lists(st.tuples(st.integers(0, len(TOWER_TERMS) - 1), st.integers(-2, 2).filter(bool)), max_size=3))
def test_a_planted_torsor_solution_never_certifies(rules, terms):
    # adjoin w with sigma(w) = w + beta for beta = sigma(x) - x, x a polynomial
    # of the tower: then w - x is a fixed polynomial of degree 1 in w
    p, g, a = affine_tower(rules)
    x = sum((TOWER_TERMS[i](g, a) * c for i, c in terms), p.zero())
    p, w = p.with_affine("w", 1, x.sigma(1) - x)
    assert (w - x.in_presentation(p)).is_fixed()
    assert isinstance(certify_constants(p), str)
