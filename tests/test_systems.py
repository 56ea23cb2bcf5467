"""Independent systems: decomposition, witnesses, bounded ff search."""

import itertools
import random

import pytest

from diffield.counterexample import build_base, build_height4_instance, closure_step
from diffield.equations import SearchBounds
from diffield.field import Presentation
import diffield.systems as systems
from diffield.systems import (
    AdditiveEquation,
    ClosureOracle,
    NoGenericPoint,
    NotFoundWithinBounds,
    SolverOracle,
    SystemModel,
    SystemModelError,
    WitnessUnavailable,
    build_system,
    decompose,
    ff_decompose_bounded,
    ff_decompose_with_witnesses,
    generic_evaluation,
    generic_points,
    pairwise_fixed_polynomials,
    specialise_step1,
    validate_decomposition,
    wp_decompose_with_witnesses,
)
from diffield.tower import fixed_space


def free_blocks(n):
    return build_system(
        Presentation.empty(), [[(f"x{k}", "free")] for k in range(1, n + 1)]
    )


def torsor_blocks(n):
    base, g = Presentation.empty().with_free("g")
    blocks = [[(f"u{i}", (1, g)), (f"v{i}", (1, g))] for i in range(1, n + 1)]
    return build_system(base, blocks)


def planted_equation(model, rng, fixed=False):
    idx = sorted(range(1, model.size + 1))
    dec = {}
    for a in idx:
        for b in idx:
            if a >= b:
                continue
            others = sorted(model.complement(a, b))
            e = model.pres.const(rng.randint(-3, 3))
            for k in others:
                if fixed:
                    e = e + (model.pres.gen(f"u{k}") - model.pres.gen(f"v{k}")) * rng.randint(-2, 2)
                else:
                    x = model.pres.gen(f"x{k}")
                    e = e + x * rng.randint(-2, 2)
                    if rng.random() < 0.4:
                        e = e + x * x
            dec[(a, b)] = e
            dec[(b, a)] = -e
    summands = {}
    for a in idx:
        total = model.pres.zero()
        for b in idx:
            if b != a:
                total = total + dec[(a, b)]
        summands[a] = total
    return AdditiveEquation.of(model, summands)


def test_build_system_duplicate_rejected():
    with pytest.raises(SystemModelError):
        build_system(Presentation.empty(), [[("x", "free")], [("x", "free")]])


def test_build_system_base_keeps_ambient_indices():
    # a restricted base keeps the ambient indices: t sits at index 2 in a base of two
    p, g = Presentation.empty().with_free("g")
    p, _ = p.with_free("h")
    p, t = p.with_affine("t", 1, 1)
    base = p.restrict(["g", "t"])
    t = t.in_presentation(base)
    m = build_system(base, [[("a1", (1, t))], [("a2", "free")]])
    assert m.pres.gen("a1").sigma(1) == m.pres.gen("a1") + m.pres.gen("t")
    # a1 gets index 3 in both presentations below, so a rule may name it
    _, a1 = base.with_free("a1")
    with pytest.raises(SystemModelError, match="base generators only"):
        build_system(base, [[("a1", "free")], [("a2", (1, a1))]])
    with pytest.raises(SystemModelError, match="base generators only"):
        build_system(base, [[("a1", "free"), ("a2", (1, a1))], [("a3", "free")]])


def test_a_base_rule_that_mentions_a_block_is_refused():
    # every generator carries its index set, the base's empty, and a rule
    # stays inside its own corner: a base generator may not name block 1
    m = free_blocks(3)
    x1 = m.pres.gen("x1")
    with pytest.raises(SystemModelError, match="rule of 'b' mentions 'x1' outside its corner"):
        m.adjoin(set(), "b", 1, x1)
    m2, t = m.adjoin(set(), "t", 1, 1)
    assert m2.blocks == m.blocks + (frozenset(),)
    assert m2.member_of(t, ()) and m2.corner(()).names() == ("t",)
    m3, b = m2.adjoin({1}, "b", 1, x1 + t)
    assert m3.member_of(b, {1}) and not m3.member_of(b, {2, 3})


def test_an_index_set_outside_the_system_is_refused():
    m = free_blocks(3)
    with pytest.raises(SystemModelError, match="outside the system"):
        m.adjoin({3, 4}, "w", 1, m.pres.gen("x3"))
    with pytest.raises(SystemModelError, match="one index set per generator"):
        SystemModel(m.pres, 3, m.blocks[:2]).validate()


def test_block_names_are_generators_listed_once():
    m = free_blocks(3)
    assert SystemModel.of(m.pres, [["x1"], ["x2"], ["x3"]]) == m
    with pytest.raises(SystemModelError, match="unknown block generator 'y'"):
        SystemModel.of(m.pres, [["x1"], ["y"]])
    with pytest.raises(SystemModelError, match="a generator is assigned to two blocks"):
        SystemModel.of(m.pres, [["x1", "x2"], ["x3", "x2"]])
    with pytest.raises(SystemModelError, match="a generator is assigned to two blocks"):
        SystemModel.of(m.pres, [["x1", "x1"], ["x2"]])


def test_three_free_singleton_blocks_valid():
    m = free_blocks(3)
    m.validate()


def test_twisted_blocks_over_base_valid():
    base, g = Presentation.empty().with_free("g")
    inv_spec = (g, g)
    m = build_system(base, [[("a1", (g, g))], [("a2", (g, g))]])
    m.validate()


def test_equation_validation_flags_bad_membership():
    m = free_blocks(3)
    x1 = m.pres.gen("x1")
    eq = AdditiveEquation.of(m, {1: x1, 2: -x1, 3: m.pres.zero()})
    assert any("block 1" in p for p in eq.validate())


def test_member_of_rejects_a_foreign_generator():
    m = free_blocks(3)
    _, z = m.pres.with_free("z")
    assert not m.member_of(z, m.indices())
    assert not m.member_of(z + m.pres.gen("x1").in_presentation(z.pres), m.indices())


def test_member_of_accepts_the_base_everywhere():
    m = torsor_blocks(3)
    g = m.pres.gen("g")
    for r in range(4):
        for w in itertools.combinations(range(1, 4), r):
            assert m.member_of(g * g + 1, w)


def pair_generator_model():
    """Blocks 1..4 over a free base g, and w adjoined to the pair {1, 2}."""
    base, g = Presentation.empty().with_free("g")
    m = build_system(
        base,
        [[("x1", "free"), ("u1", (1, g))], [("x2", "free")], [("x3", "free")], [("x4", "free")]],
    )
    return m.adjoin({1, 2}, "w", m.pres.one(), m.pres.gen("x1") * m.pres.gen("x2"))


def test_adjoined_pair_generator_belongs_to_corners_containing_the_pair():
    m, w = pair_generator_model()
    for r in range(5):
        for corner in itertools.combinations(range(1, 5), r):
            assert m.member_of(w, corner) == ({1, 2} <= set(corner)), corner


def test_block_vars_lists_the_block_and_its_pair_generators():
    m, w = pair_generator_model()
    g, x1, u1, x2, x3 = (m.pres.gen(n) for n in ("g", "x1", "u1", "x2", "x3"))
    e = g * x1.sigma(1) + u1 * w + x2 + x3 * g
    variables = e.value.variables()
    for i, names in ((1, {"x1", "u1", "w"}), (2, {"x2", "w"}), (3, {"x3"}), (4, set())):
        assert m.block_vars(i, [e]) == sorted(v for v in variables if v.name in names)
    assert any(v.name == "x1" and v.shift == 1 for v in m.block_vars(1, [e]))


def test_specialise_step1_cocycle():
    m = free_blocks(3)
    x1, x2, x3 = (m.pres.gen(f"x{k}") for k in (1, 2, 3))
    summands = {1: x2 - x3, 2: x3 - x1, 3: x1 - x2}
    d = specialise_step1(m, summands, 1, seed=3)
    total = m.pres.zero()
    for j, val in d.items():
        assert m.member_of(val, m.complement(1, j))
        total = total + val
    assert total == summands[1]


def test_specialise_zero_equation():
    m = free_blocks(3)
    summands = {i: m.pres.zero() for i in (1, 2, 3)}
    d = specialise_step1(m, summands, 2, seed=0)
    assert all(v.is_zero() for v in d.values())


def test_generic_evaluation_skips_a_pole():
    m = free_blocks(2)
    x1 = m.pres.gen("x1")
    (v,) = m.block_vars(1, [x1])
    first, second = itertools.islice(generic_points(5, [v]), 2)
    c = first[v]
    assert second[v] != c
    point, (value,) = generic_evaluation(m, 1, [m.pres.one() / (x1 - c)], 5)
    assert point == second
    assert value == m.pres.const(1 / (second[v] - c))


def test_generic_evaluation_all_poles_raises():
    m = free_blocks(2)
    x1 = m.pres.gen("x1")
    den = m.pres.one()
    for c in range(-33, 34):  # every integer of the largest box, [-33, 33]
        den = den * (x1 - c)
    with pytest.raises(NoGenericPoint, match="no generic point found after 32 attempts"):
        generic_evaluation(m, 1, [x1 / den, m.pres.gen("x2")], 0)


def test_decompose_heights_3_to_5_planted():
    rng = random.Random(99)
    for n in (3, 4, 5):
        model = free_blocks(n)
        for trial in range(8):
            eq = planted_equation(model, rng)
            assert eq.validate() == []
            dec = decompose(model, eq, seed=trial)
            ok, problems = validate_decomposition(model, eq, dec)
            assert ok, problems


def test_decompose_reproducible_bit_exact():
    model = free_blocks(4)
    rng = random.Random(5)
    eq = planted_equation(model, rng)
    d1 = decompose(model, eq, seed=12)
    d2 = decompose(model, eq, seed=12)
    assert {k: repr(v) for k, v in d1.items()} == {k: repr(v) for k, v in d2.items()}


def reference_decompose(model, eq, seed=0):
    """The recursive decomposition with a height-3 base case that decompose's
    peeling loop replaced: three specialisations and a delta correction at
    height 3, of which two cancel.  Kept as the reference for the loop."""
    return _reference_rec(model, eq.summand_map(), sorted(eq.summand_map()), seed)


def _reference_rec(model, summands, active, seed):
    n = len(active)
    if n == 3:
        i1, i2, i3 = active
        d = {i: specialise_step1(model, summands, i, seed=seed + 17 * i) for i in active}
        # delta_i = d[j][k] + d[k][j] for (i, j, k) a cyclic labelling
        delta = {
            i1: d[i2][i3] + d[i3][i2],
            i2: d[i1][i3] + d[i3][i1],
            i3: d[i1][i2] + d[i2][i1],
        }
        assert (delta[i1] + delta[i2] + delta[i3]).is_zero()
        for i in active:
            assert model.member_of(delta[i], model.complement(*active))
        return {
            (i3, i1): d[i3][i1],
            (i3, i2): d[i3][i2],
            (i2, i3): d[i2][i3] - delta[i1],
            (i2, i1): d[i2][i1] + delta[i1],
            (i1, i3): d[i1][i3] - delta[i2],
            (i1, i2): d[i1][i2] + delta[i2],
        }
    last = active[-1]
    rest = active[:-1]
    d_last = specialise_step1(model, summands, last, seed=seed + 17 * last)
    c = {}
    reduced = {}
    for j in rest:
        c[(last, j)] = d_last[j]
        c[(j, last)] = -d_last[j]
        reduced[j] = summands[j] + d_last[j]
    c.update(_reference_rec(model, reduced, rest, seed + 1))
    return c


def rational_planted_equation(model, rng):
    """A planted equation over free blocks with entries sum_k r*x_l/(x_k + c).

    l is the index after k in the entry's corner, cyclically, so entries mix
    blocks and later peels see the generic points of earlier ones."""
    idx = range(1, model.size + 1)
    dec = {}
    for a, b in itertools.combinations(idx, 2):
        e = model.pres.const(rng.randint(-3, 3))
        corner = sorted(model.complement(a, b))
        for k, l in zip(corner, corner[1:] + corner[:1]):
            x_k, x_l = model.pres.gen(f"x{k}"), model.pres.gen(f"x{l}")
            e = e + x_l * rng.randint(-2, 2) / (x_k + rng.randint(-3, 3))
        dec[(a, b)], dec[(b, a)] = e, -e
    return AdditiveEquation.of(
        model, {a: sum((dec[(a, b)] for b in idx if b != a), model.pres.zero()) for a in idx}
    )


def test_decompose_matches_the_recursive_reference():
    rng = random.Random(2024)
    draws = []
    for n in (3, 4, 5, 6):
        free, fixed = free_blocks(n), torsor_blocks(n)
        draws += [(free, planted_equation(free, rng)) for _ in range(3)]
        draws += [(fixed, planted_equation(fixed, rng, fixed=True)) for _ in range(2)]
    for n, count in ((3, 3), (4, 3), (5, 1)):
        free = free_blocks(n)
        draws += [(free, rational_planted_equation(free, rng)) for _ in range(count)]
    for seed, (model, eq) in enumerate(draws):
        got = decompose(model, eq, seed=seed)
        want = reference_decompose(model, eq, seed=seed)
        assert sorted(got) == sorted(want)
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}, (
            model.size,
            seed,
        )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decompose_specialises_n_minus_2_times(monkeypatch, n):
    calls = []
    real = systems.specialise_step1

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(systems, "specialise_step1", counting)
    model = free_blocks(n)
    decompose(model, planted_equation(model, random.Random(n)), seed=1)
    assert calls == list(range(n, 2, -1))


def test_validate_decomposition_detects_perturbation():
    model = free_blocks(3)
    rng = random.Random(8)
    eq = planted_equation(model, rng)
    dec = decompose(model, eq, seed=1)
    dec[(1, 2)] = dec[(1, 2)] + 1
    ok, problems = validate_decomposition(model, eq, dec)
    assert not ok and any("antisymmetry" in p or "recovery" in p for p in problems)


def test_wp_decompose_two_blocks():
    m = torsor_blocks(2)
    u1, u2 = m.pres.gen("u1"), m.pres.gen("u2")
    d = {1: u2, 2: -u1}
    oracle = ClosureOracle(SearchBounds(3, 2))
    model, e, wit = wp_decompose_with_witnesses(m, d, oracle, seed=1)
    assert e[(1, 2)] == d[1].wp()
    assert e[(2, 1)] == -e[(1, 2)]
    assert wit[(1, 2)].wp() == e[(1, 2)]


def test_wp_decompose_all_fixed_summands():
    m = torsor_blocks(3)
    fixedelems = {
        1: m.pres.gen("u2") - m.pres.gen("v2"),
        2: m.pres.gen("u3") - m.pres.gen("v3"),
        3: m.pres.gen("u1") - m.pres.gen("v1"),
    }
    oracle = SolverOracle(SearchBounds(2, 1))
    model, e, wit = wp_decompose_with_witnesses(m, fixedelems, oracle)
    assert all(v.is_zero() for v in e.values())


def test_ff_decompose_with_witnesses_planted():
    rng = random.Random(31)
    m = torsor_blocks(3)
    eq = planted_equation(m, rng, fixed=True)
    assert eq.is_ff()
    oracle = ClosureOracle(SearchBounds(3, 2))
    model, dec = ff_decompose_with_witnesses(m, eq, oracle, seed=4)
    ok, problems = validate_decomposition(model, eq, dec)
    assert ok, problems
    assert all(v.is_fixed() for v in dec.values())


def test_ff_decompose_bounded_planted():
    rng = random.Random(77)
    m = torsor_blocks(3)
    eq = planted_equation(m, rng, fixed=True)
    res = ff_decompose_bounded(m, eq, SearchBounds(2, 1))
    assert not isinstance(res, NotFoundWithinBounds)
    ok, problems = validate_decomposition(m, eq, res)
    assert ok and all(v.is_fixed() for v in res.values())


def test_ff_decompose_bounded_zero_equation():
    m = torsor_blocks(3)
    eq = AdditiveEquation.of(m, {i: m.pres.zero() for i in (1, 2, 3)})
    res = ff_decompose_bounded(m, eq, SearchBounds(1, 1))
    assert not isinstance(res, NotFoundWithinBounds)
    assert all(v.is_zero() for v in res.values())


def fixed_space_per_corner(model, bounds):
    """pairwise_fixed_polynomials without the shape cache: one fixed_space per corner."""
    return {
        (i, j): [
            model.pres.element(s.value)
            for s in fixed_space(model.corner(model.complement(i, j)), bounds, polynomial=True)
            if s.value.is_polynomial()
        ]
        for i, j in itertools.combinations(range(1, model.size + 1), 2)
    }


def assert_pairwise_matches_fixed_space(model, bounds):
    got = pairwise_fixed_polynomials(model, range(1, model.size + 1), bounds)
    want = fixed_space_per_corner(model, bounds)
    assert list(got) == list(want)
    assert {k: [repr(e) for e in v] for k, v in got.items()} == {k: [repr(e) for e in v] for k, v in want.items()}
    assert got == want


def misnamed_blocks():
    """Blocks a9..a12 with sigma(a) = a + 1 over a free base, and a T_1 witness per pair.

    Index order is a9 < a10 < a11 < a12, but repr order is a10 < a11 < a12
    < a9.  All six pairwise corners have one shape, and each has fixed
    members a_i - c and a_j - c, so the repr order of a corner's members
    depends on its names.
    """
    base, _ = Presentation.empty().with_free("g")
    names = {1: "9", 2: "10", 3: "11", 4: "12"}
    model = build_system(base, [[(f"a{names[i]}", (1, 1))] for i in range(1, 5)])
    for i, j in itertools.combinations(range(1, 5), 2):
        model, _ = model.adjoin({i, j}, f"c{names[i]}_{names[j]}", 1, 1)
    return model


@pytest.mark.parametrize("bounds", [SearchBounds(1, 1), SearchBounds(2, 1)])
def test_pairwise_fixed_polynomials_do_not_read_names(bounds):
    model = misnamed_blocks()
    first = model.corner(model.complement(1, 2))  # a11, a12, c11_12
    later = model.corner(model.complement(2, 3))  # a9, a12, c9_12
    assert first.shape == later.shape
    # the test can see a leak: the first corner's span, renamed, is not the
    # later corner's own span
    renamed_span = [x.renamed(later) for x in fixed_space(first, bounds, polynomial=True)]
    assert renamed_span != fixed_space(later, bounds, polynomial=True)
    assert_pairwise_matches_fixed_space(model, bounds)


@pytest.mark.parametrize("control", [False, True])
@pytest.mark.parametrize("bounds", [SearchBounds(2, 2), SearchBounds(2, 1), SearchBounds(4, 3)])
def test_pairwise_fixed_polynomials_of_the_pipeline_instances(control, bounds):
    base0, reg0 = build_base()
    base, reg, _ = closure_step(base0, reg0, base0.one(), name="t1")
    instance = build_height4_instance(base, control=control)
    assert_pairwise_matches_fixed_space(instance.model, bounds)


def test_witness_unavailable_names_the_query():
    # blocks whose torsors are genuinely closed off: the oracle cannot help
    base, g = Presentation.empty().with_free("g")
    m = build_system(base, [[("a1", (g, g))], [("a2", (g, g))], [("a3", (g, g))]])
    a = {i: m.pres.gen(f"a{i}") for i in (1, 2, 3)}
    # wp(a_i) = (g-1)a_i + g is not fixed, so build d's from the a's directly
    d = {1: a[2] - a[3], 2: a[3] - a[1], 3: a[1] - a[2]}
    oracle = SolverOracle(SearchBounds(2, 1))  # no adjunction allowed
    with pytest.raises(WitnessUnavailable) as err:
        wp_decompose_with_witnesses(m, d, oracle, seed=2)
    assert "witness unavailable at T_" in str(err.value)


def test_ff_decompose_with_witnesses_height1_is_empty():
    m = torsor_blocks(1)
    eq = AdditiveEquation.of(m, {1: m.pres.zero()})
    assert ff_decompose_with_witnesses(m, eq, ClosureOracle(SearchBounds(1, 1))) == (m, {})


def test_wp_decompose_with_witnesses_empty_family():
    m = torsor_blocks(3)
    assert wp_decompose_with_witnesses(m, {}, ClosureOracle(SearchBounds(1, 1))) == (m, {}, {})


def reference_wp_split(model, d, oracle, seed=0):
    """The recursion that _wp_split's peeling loop replaced, kept as its
    reference: one level per peeled index, active and universe threaded."""
    return _reference_wp_rec(model, dict(d), sorted(d), model.indices(), oracle, seed)


def _reference_wp_rec(model, d, active, universe, oracle, seed):
    e, wit = {}, {}
    if len(active) == 1:
        (i,) = active
        if not d[i].wp().is_zero():
            raise SystemModelError("single-summand wp-decomposition needs a fixed summand")
        return model, e, wit
    if len(active) == 2:
        i, j = active
        target = d[i].wp()
        if not model.member_of(target, universe - {i, j}):
            raise SystemModelError("wp difference escapes the pair corner")
        e[(i, j)], e[(j, i)] = target, -target
        found = oracle.find(model, target, universe - {i, j})
        if found is None:
            raise WitnessUnavailable(target, universe - {i, j})
        witness, model = found
        wit[(i, j)], wit[(j, i)] = witness, -witness
        return model, e, wit
    last = active[-1]
    rest = active[:-1]
    f = specialise_step1(model, {i: d[i].wp() for i in active}, last, seed=seed + 17 * last)
    shifted = {}
    for i in rest:
        target = f[i]
        corner = universe - {i, last}
        found = oracle.find(model, target, corner)
        if found is None:
            raise WitnessUnavailable(target, corner)
        h, model = found
        e[(last, i)], e[(i, last)] = target, -target
        wit[(last, i)], wit[(i, last)] = h, -h
        shifted[i] = d[i] + h
    model, e_rest, wit_rest = _reference_wp_rec(model, shifted, rest, universe, oracle, seed + 1)
    e.update(e_rest)
    wit.update(wit_rest)
    return model, e, wit


def reference_ff_decompose(model, eq, oracle, seed=0):
    """The recursion that ff_decompose_with_witnesses' peeling loop replaced,
    with the row-total, reduced-fixedness and reduced-sum checks it dropped."""
    smap = eq.summand_map()
    return _reference_ff_rec(model, smap, sorted(smap), model.indices(), oracle, seed)


def _reference_ff_rec(model, b, active, universe, oracle, seed):
    if len(active) == 2:
        i, j = active
        assert b[i] == -b[j]
        return model, {(i, j): b[i], (j, i): b[j]}
    dec = {}
    last = active[-1]
    rest = active[:-1]
    d_last = specialise_step1(model, b, last, seed=seed + 17 * last)
    model, _, wit = _reference_wp_rec(model, d_last, rest, frozenset(universe) - {last}, oracle, seed + 3)
    row_total = model.pres.zero()
    for i in rest:
        correction = model.pres.zero()
        for k in rest:
            if k != i:
                correction = correction + wit[(i, k)]
        entry = d_last[i] - correction
        assert entry.is_fixed()
        dec[(last, i)], dec[(i, last)] = entry, -entry
        row_total = row_total + entry
    assert row_total == b[last]
    reduced = {i: b[i] + dec[(last, i)] for i in rest}
    assert all(reduced[i].is_fixed() for i in rest)
    assert sum(reduced.values(), model.pres.zero()).is_zero()
    model, inner = _reference_ff_rec(model, reduced, rest, universe, oracle, seed + 5)
    dec.update(inner)
    return model, dec


def row_sum_family(model, rng):
    """Row sums d_i = sum_k e[(i,k)] of a random antisymmetric family with
    e[(i,k)] in corner(complement(i,k)): their total is 0, hence fixed.

    The cubic terms give wp-values with products across blocks, so every
    peel's specialisation, not only the first, depends on its point."""
    u = {k: model.pres.gen(f"u{k}") for k in model.indices()}
    v = {k: model.pres.gen(f"v{k}") for k in model.indices()}
    e = {}
    for i, k in itertools.combinations(sorted(model.indices()), 2):
        corner = sorted(model.complement(i, k))
        x = model.pres.const(rng.randint(-2, 2))
        for a, c in zip(corner, corner[1:] + corner[:1]):
            x = x + u[a] * rng.randint(-2, 2) + u[a] * v[c] * rng.randint(-1, 1)
            if rng.random() < 0.5:
                x = x + u[a] * u[c] * v[c]
        e[(i, k)], e[(k, i)] = x, -x
    idx = sorted(model.indices())
    return {i: sum((e[(i, k)] for k in idx if k != i), model.pres.zero()) for i in idx}


def product_planted_equation(model, rng):
    """A fixed-field equation whose entries carry products of cross-block
    fixed differences such as (u_k - u_l)*(u_l - v_l).

    Their specialisations depend on the point of every peel, not only the
    first, and the later peels need closures, so each seed of the peel's
    schedule shows in the output."""
    idx = range(1, model.size + 1)
    u = {k: model.pres.gen(f"u{k}") for k in idx}
    v = {k: model.pres.gen(f"v{k}") for k in idx}
    dec = {}
    for a, b in itertools.combinations(idx, 2):
        e = model.pres.const(rng.randint(-2, 2))
        corner = sorted(model.complement(a, b))
        for k, l in zip(corner, corner[1:] + corner[:1]):
            if k != l:
                e = e + (u[k] - u[l]) * (u[l] - v[l]) * rng.randint(-1, 1)
            e = e + (u[k] - v[k]) * rng.randint(-2, 2)
        dec[(a, b)], dec[(b, a)] = e, -e
    return AdditiveEquation.of(
        model, {a: sum((dec[(a, b)] for b in idx if b != a), model.pres.zero()) for a in idx}
    )


def _closures(oracle):
    return [(name, sorted(w), repr(t)) for name, w, t in oracle.closures]


def _reprs(family):
    return {k: repr(x) for k, x in family.items()}


def test_witness_decompositions_match_the_recursive_reference():
    rng = random.Random(416)
    for n in (3, 4, 5):
        m = torsor_blocks(n)
        for trial in range(3):
            seed = 10 * n + trial
            eq = planted_equation(m, rng, fixed=True)
            got_oracle, want_oracle = ClosureOracle(SearchBounds(1, 1)), ClosureOracle(SearchBounds(1, 1))
            _, got = ff_decompose_with_witnesses(m, eq, got_oracle, seed=seed)
            _, want = reference_ff_decompose(m, eq, want_oracle, seed=seed)
            assert _reprs(got) == _reprs(want), (n, trial)
            assert _closures(got_oracle) == _closures(want_oracle)

            d = row_sum_family(m, rng)
            got_oracle, want_oracle = ClosureOracle(SearchBounds(1, 1)), ClosureOracle(SearchBounds(1, 1))
            _, got_e, got_wit = wp_decompose_with_witnesses(m, d, got_oracle, seed=seed)
            _, want_e, want_wit = reference_wp_split(m, d, want_oracle, seed=seed)
            assert _reprs(got_e) == _reprs(want_e), (n, trial)
            assert _reprs(got_wit) == _reprs(want_wit), (n, trial)
            assert _closures(got_oracle) == _closures(want_oracle)
    rng = random.Random(5)
    for n in (4, 5):
        m = torsor_blocks(n)
        for trial in range(2):
            seed = 10 * n + trial
            eq = product_planted_equation(m, rng)
            got_oracle, want_oracle = ClosureOracle(SearchBounds(1, 1)), ClosureOracle(SearchBounds(1, 1))
            _, got = ff_decompose_with_witnesses(m, eq, got_oracle, seed=seed)
            _, want = reference_ff_decompose(m, eq, want_oracle, seed=seed)
            assert _reprs(got) == _reprs(want), (n, trial)
            assert _closures(got_oracle) == _closures(want_oracle)
            assert got_oracle.closures, (n, trial)


# Exact outputs of the witness-driven decompositions.  Both reach _wp_split with
# three or more summands; the values depend on the generic points drawn
# for each specialisation, so any change in which point is used shows here.


def test_ff_decompose_with_witnesses_pinned_height4():
    m = torsor_blocks(4)
    eq = planted_equation(m, random.Random(31), fixed=True)
    oracle = ClosureOracle(SearchBounds(3, 2))
    _, dec = ff_decompose_with_witnesses(m, eq, oracle, seed=4)
    assert {k: repr(v) for k, v in dec.items()} == {
        (1, 2): "0",
        (1, 3): "-3*u4 + 3*v4 - 12",
        (1, 4): "-u2 + v2 + 14",
        (2, 1): "0",
        (2, 3): "u4 - v4 + 4",
        (2, 4): "u1 - v1 - 2*u3 + 2*v3 - 2",
        (3, 1): "3*u4 - 3*v4 + 12",
        (3, 2): "-u4 + v4 - 4",
        (3, 4): "-4*u1 + 4*v1 - 3*u2 + 3*v2 - 6",
        (4, 1): "u2 - v2 - 14",
        (4, 2): "-u1 + v1 + 2*u3 - 2*v3 + 2",
        (4, 3): "4*u1 - 4*v1 + 3*u2 - 3*v2 + 6",
    }
    assert oracle.closures == []


def test_wp_decompose_with_witnesses_pinned_height4():
    m = torsor_blocks(4)
    u = {k: m.pres.gen(f"u{k}") for k in range(1, 5)}
    v = {k: m.pres.gen(f"v{k}") for k in range(1, 5)}
    e = {}
    for i in range(1, 5):
        for k in range(i + 1, 5):
            a, c = sorted(m.complement(i, k))
            e[(i, k)] = u[a] * v[c] + (i + k) * u[c]
            e[(k, i)] = -e[(i, k)]
    # an antisymmetric family's row sums: their total is 0, hence fixed
    d = {i: sum((e[(i, k)] for k in range(1, 5) if k != i), m.pres.zero()) for i in range(1, 5)}
    oracle = ClosureOracle(SearchBounds(1, 1))
    _, ew, wit = wp_decompose_with_witnesses(m, d, oracle, seed=3)
    assert {k: (repr(ew[k]), repr(wit[k])) for k in ew} == {
        (1, 2): ("0", "0"),
        (1, 3): ("2*g*v4", "-w4"),
        (1, 4): ("3*g^2 + 2*g*u2 + g*u3 + g*v3 + 12*g", "-w1"),
        (2, 1): ("0", "0"),
        (2, 3): ("0", "0"),
        (2, 4): ("g^2 + 2*g*u1 - g*u3 + g*v3 + 8*g", "-w2"),
        (3, 1): ("-2*g*v4", "w4"),
        (3, 2): ("0", "0"),
        (3, 4): ("-g^2 - g*u2 + g*v2 - 2*g", "-w3"),
        (4, 1): ("-3*g^2 - 2*g*u2 - g*u3 - g*v3 - 12*g", "w1"),
        (4, 2): ("-g^2 - 2*g*u1 + g*u3 - g*v3 - 8*g", "w2"),
        (4, 3): ("g^2 + g*u2 - g*v2 + 2*g", "w3"),
    }
    assert [(n, sorted(w), repr(t)) for n, w, t in oracle.closures] == [
        ("w1", [2, 3], "-3*g^2 - 2*g*u2 - g*u3 - g*v3 - 12*g"),
        ("w2", [1, 3], "-g^2 - 2*g*u1 + g*u3 - g*v3 - 8*g"),
        ("w3", [1, 2], "g^2 + g*u2 - g*v2 + 2*g"),
        ("w4", [2, 4], "-2*g*v4"),
    ]
