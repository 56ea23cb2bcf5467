"""Certificates: case analyses, registry matching, replay, reductions."""

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
    TwistedShiftFamily,
    certify_unsolvable,
    leading_cases,
    replay_certificate,
)
from diffield.equations import (
    MultiplicativeEquation,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unknown,
    Unsolvable,
)
from diffield.field import Element, Presentation
from diffield.tower import solve_multiplicative_bounded, solve_twisted_bounded


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
    hit = registry.match(p, MultiplicativeEquation(g, -3))
    assert hit is not None
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
    return dict(leading_cases(pres, top.sub, top.gen, top.alpha, query))


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
