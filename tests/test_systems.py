"""Independent systems: decomposition, witnesses, bounded ff search."""

import itertools
import random

import pytest

from diffield.equations import SearchBounds
from diffield.field import Presentation
from diffield.systems import (
    AdditiveEquation,
    ClosureOracle,
    NoGenericPoint,
    NotFoundWithinBounds,
    SolverOracle,
    SystemModelError,
    WitnessUnavailable,
    build_system,
    decompose,
    ff_decompose_bounded,
    ff_decompose_with_witnesses,
    generic_evaluation,
    generic_points,
    restrict_over_corner,
    specialise_step1,
    validate_decomposition,
    wp_decompose_with_witnesses,
)


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


def test_three_free_singleton_blocks_valid():
    m = free_blocks(3)
    assert m.diagnostics() == []


def test_twisted_blocks_over_base_valid():
    base, g = Presentation.empty().with_free("g")
    inv_spec = (g, g)
    m = build_system(base, [[("a1", (g, g))], [("a2", (g, g))]])
    assert m.diagnostics() == []


def test_equation_validation_flags_bad_membership():
    m = free_blocks(3)
    x1 = m.pres.gen("x1")
    eq = AdditiveEquation.of(m, {1: x1, 2: -x1, 3: m.pres.zero()})
    assert any("block 1" in p for p in eq.validate())


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


def test_validate_decomposition_detects_perturbation():
    model = free_blocks(3)
    rng = random.Random(8)
    eq = planted_equation(model, rng)
    dec = decompose(model, eq, seed=1)
    dec[(1, 2)] = dec[(1, 2)] + 1
    ok, problems = validate_decomposition(model, eq, dec)
    assert not ok and any("antisymmetry" in p or "recovery" in p for p in problems)


def test_restrict_over_corner_matches():
    model = free_blocks(4)
    restricted, mapping = restrict_over_corner(model, 4)
    assert restricted.size == 3
    assert set(restricted.base_names) == {"x4"}
    w = frozenset({mapping[1], mapping[2]})
    assert set(restricted.corner_names(w)) == set(model.corner_names({1, 2, 4}))


def test_double_restriction_commutes():
    model = free_blocks(4)
    r1, m1 = restrict_over_corner(model, 4)
    r2, m2 = restrict_over_corner(r1, m1[3])
    s1, k1 = restrict_over_corner(model, 3)
    s2, k2 = restrict_over_corner(s1, k1[4])
    assert set(r2.base_names) == set(s2.base_names)
    assert r2.size == s2.size == 2


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


# Exact outputs of the witness-driven decompositions.  Both reach _wp_rec with
# three or more active indices; the values depend on the generic points drawn
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
