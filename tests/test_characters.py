"""Character tables, hyperplanes, and amalgamation obstruction instances."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_extend_character, reference_value_of
from diffield import cli
from diffield.characters import (
    CharacterError,
    CharacterTable,
    Obstruction,
    extend_character,
    value_of,
)
from diffield.counterexample import (
    build_3amalg_obstruction,
    build_base,
    build_failing_instance,
    build_height4_instance,
    closure_step,
    hyperplane_search,
)
from diffield.equations import SearchBounds
from diffield.field import Element, Presentation
from diffield.ratfunc import CircleValue
from diffield.systems import AdditiveEquation, build_system, check_n_sas_witness


def fixed_playground():
    """Presentation with a 3-dim supply of nonconstant fixed elements."""
    p, g = Presentation.empty().with_free("g")
    us = []
    for i in range(4):
        p, u = p.with_affine(f"u{i}", 1, g.in_presentation(p) if i else g)
        us.append(u)
    us = [u.in_presentation(p) for u in us]
    basis = [us[0] - us[1], us[0] - us[2], us[0] - us[3]]
    assert all(b.is_fixed() for b in basis)
    return p, basis


def test_homomorphism_forcing():
    p, (b1, b2, _) = fixed_playground()
    table = extend_character(
        CharacterTable.empty(p),
        [(b1, CircleValue(Fraction(1, 3))), (b2, CircleValue(Fraction(1, 4)))],
    )
    assert isinstance(table, CharacterTable)
    assert value_of(table, b1 + b2) == CircleValue(Fraction(7, 12))


def test_integer_relation_obstruction():
    p, (b1, _, _) = fixed_playground()
    table = extend_character(CharacterTable.empty(p), [(b1, CircleValue(Fraction(1, 2)))])
    got = extend_character(table, [(2 * b1, CircleValue(Fraction(1, 3)))])
    assert isinstance(got, Obstruction)


def test_rational_scaling_consistency():
    # psi(u) = 1/2 with psi(2u) = 0 is consistent: the integer relation
    # lattice is generated by (2, -1), whose angle sum vanishes.
    p, (b1, _, _) = fixed_playground()
    got = extend_character(
        CharacterTable.empty(p),
        [(b1, CircleValue(Fraction(1, 2))), (2 * b1, CircleValue(0))],
    )
    assert isinstance(got, CharacterTable)


def test_order_independence():
    p, (b1, b2, b3) = fixed_playground()
    triples = [
        (b1, CircleValue(Fraction(1, 6))),
        (b2, CircleValue(Fraction(5, 12))),
        (b1 + b2, CircleValue(Fraction(7, 12))),
    ]
    outcomes = set()
    for perm in itertools.permutations(triples):
        got = extend_character(CharacterTable.empty(p), list(perm))
        outcomes.add(isinstance(got, CharacterTable))
    assert outcomes == {True}


def test_non_fixed_rejected():
    p, _ = fixed_playground()
    with pytest.raises(ValueError):
        extend_character(CharacterTable.empty(p), [(p.gen("g"), CircleValue(0))])


def test_value_of_refuses_an_element_that_is_not_fixed():
    p, (b1, _, _) = fixed_playground()
    empty = CharacterTable.empty(p)
    u0 = p.gen("u0")
    for table in (empty, extend_character(empty, [(b1, CircleValue(Fraction(1, 3)))])):
        with pytest.raises(CharacterError, match="element u0 is not fixed"):
            value_of(table, u0)
    assert value_of(empty, b1) is None and value_of(empty, p.zero()) is None


def _outcome(fn, *args):
    """What fn returned, or the text of the CharacterError it raised."""
    try:
        return fn(*args)
    except CharacterError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_span_first_checks_agree_with_testing_every_element(seed):
    # tables grown by extend_character and by the reference, which sigma-tests
    # every element before it looks at the span, give the same entries or
    # obstruction, or raise the same error; so do value_of and its reference.
    # Drawn elements are fixed combinations of the basis (new or, once in
    # the table, dependent), combinations of the table's own entries (always
    # dependent), zero, constants, and non-fixed elements, anywhere in a batch.
    rng = random.Random(seed)
    p, basis = fixed_playground()
    g, us = p.gen("g"), [p.gen(f"u{i}") for i in range(4)]
    psi = [Fraction(rng.randint(0, 11), 12) for _ in range(len(basis) + 1)]  # psi[0] on 1

    def planted(const, coeffs):
        e = p.const(const)
        for c, b in zip(coeffs, basis):
            e = e + c * b
        return e, const * psi[0] + sum((c * a for c, a in zip(coeffs, psi[1:])), Fraction(0))

    def draw(table):
        kind = rng.choice(("basis", "basis", "entries", "zero", "constant", "not fixed"))
        if kind == "basis":
            e, angle = planted(rng.randint(-1, 1), [rng.randint(-2, 2) for _ in basis])
        elif kind == "entries" and table.entries:
            e, angle = p.zero(), Fraction(0)
            for x, v in rng.sample(table.entries, min(2, len(table.entries))):
                c = rng.choice((-2, -1, 1, 2))
                e, angle = e + c * x, angle + c * v.angle
        elif kind == "constant":
            e, angle = planted(rng.choice((-2, 1, 3)), [0] * len(basis))
        elif kind == "not fixed":
            u = rng.choice(us)
            e, angle = rng.choice((u, g, p.gen("g", 1), u * rng.choice(basis), u + rng.choice(basis))), Fraction(0)
        else:
            e, angle = p.zero(), Fraction(0)
        return e, CircleValue(angle + (Fraction(1, 4) if rng.random() < 0.15 else 0))

    tables = [CharacterTable.empty(p)]
    for _ in range(rng.randint(2, 8)):
        table = rng.choice(tables)
        if rng.random() < 0.35:
            e = draw(table)[0]
            assert _outcome(value_of, table, e) == _outcome(reference_value_of, table, e)
            continue
        batch = [draw(table) for _ in range(rng.randint(1, 3))]
        got = _outcome(extend_character, table, batch)
        assert got == _outcome(reference_extend_character, table, batch)
        if isinstance(got, CharacterTable):
            tables.append(got)


def test_extension_matches_bruteforce_kernel_oracle():
    """100 random instances against exhaustive integer-relation enumeration.

    Instances are {-1,0,1}-combinations (plus a {-1,0,1} constant) of at
    most two independent fixed elements, so the coordinate matrix has rank
    at most 3 and the saturated relation lattice has a basis with entries
    bounded by 3x3 minors <= 3! = 6: scanning the box of height 6 really
    sees every relation that matters.
    """
    p, basis = fixed_playground()
    rng = random.Random(421)
    box = 6
    agree = 0
    for _ in range(100):
        k = rng.randint(2, 5)
        d = rng.randint(1, 2)
        rows = []
        elems = []
        for _ in range(k):
            const = rng.randint(-1, 1)
            row = [rng.randint(-1, 1) for _ in range(d)]
            e = p.const(const)
            for c, b in zip(row, basis):
                e = e + c * b
            rows.append([const] + row)
            elems.append(e)
        angles = [CircleValue(Fraction(rng.randint(0, 11), 12)) for _ in range(k)]
        got = extend_character(CharacterTable.empty(p), list(zip(elems, angles)))
        decided = isinstance(got, CharacterTable)
        oracle = _bruteforce_consistent(rows, angles, box)
        assert decided == oracle, (rows, [a.angle for a in angles])
        agree += 1
    assert agree == 100


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_table_answers_do_not_depend_on_its_history(seed):
    # tables reached by extensions of any earlier table, with queries in
    # between, answer as fresh tables with the same entries, and a table's
    # answers do not change when it is extended; the angles follow a
    # planted character, perturbed at times to draw obstructions
    rng = random.Random(seed)
    p, basis = fixed_playground()
    psi = [Fraction(rng.randint(0, 11), 12) for _ in basis]

    def draw():
        coeffs = [rng.randint(-2, 2) for _ in basis]
        e = p.const(rng.randint(-1, 1))
        for c, b in zip(coeffs, basis):
            e = e + c * b
        angle = sum((c * a for c, a in zip(coeffs, psi)), Fraction(0))
        return e, CircleValue(angle + (Fraction(1, 4) if rng.random() < 0.15 else 0))

    queries = [draw()[0] for _ in range(2)]

    def answers(table):
        return table.consistency(), [value_of(table, q) for q in queries]

    tables = [CharacterTable.empty(p)]
    for _ in range(rng.randint(1, 6)):
        parent = rng.choice(tables)
        before = answers(parent)
        if rng.random() < 0.5:
            value_of(parent, draw()[0])
        new = [draw() for _ in range(rng.randint(1, 2))]
        got = extend_character(parent, new)
        assert answers(parent) == before
        fresh = CharacterTable(p, parent.entries + tuple(new))
        if isinstance(got, CharacterTable):
            assert got == fresh and fresh.consistency() is None
            tables.append(got)
        else:
            assert got == fresh.consistency()
    for table in tables:
        assert answers(table) == answers(CharacterTable(p, table.entries))


def _bruteforce_consistent(rows, angles, box):
    """Exhaustive relation-kernel oracle over the integer box.

    z is a relation exactly when z . column = 0 for every coordinate column
    (constant included); enumerate prefixes and solve for the last entry.
    """
    k = len(rows)
    ncols = len(rows[0])
    cols = [[rows[i][j] for i in range(k)] for j in range(ncols)]

    def violates(z):
        total = sum((z[i] * angles[i].angle for i in range(k)), Fraction(0))
        return total % 1 != 0

    for prefix in itertools.product(range(-box, box + 1), repeat=k - 1):
        forced = None
        consistent = True
        for col in cols:
            head = sum(prefix[i] * col[i] for i in range(k - 1))
            if col[k - 1] == 0:
                if head != 0:
                    consistent = False
                    break
            else:
                cand = Fraction(-head, col[k - 1])
                if cand.denominator != 1 or abs(cand) > box:
                    consistent = False
                    break
                if forced is None:
                    forced = int(cand)
                elif forced != int(cand):
                    consistent = False
                    break
        if not consistent:
            continue
        lasts = [forced] if forced is not None else list(range(-box, box + 1))
        for last in lasts:
            z = prefix + (last,)
            if any(z) and violates(z):
                return False
    return True


def test_free_valuation_iff_no_hyperplane():
    p, (b1, b2, b3) = fixed_playground()
    table = extend_character(
        CharacterTable.empty(p), [(b1, CircleValue(Fraction(1, 5)))]
    )
    sub = p.restrict(["g"])
    rng = random.Random(9)
    for x in (b2, b3, b2 + 2 * b3):
        assert hyperplane_search([b1, x], 4, sub) is None
        assert value_of(table, x) is None
        got = extend_character(table, [(x, CircleValue(Fraction(rng.randint(0, 11), 12)))])
        assert isinstance(got, CharacterTable)
    # dependent element: hyperplane exists, and once the table also covers
    # the subfield constants the valuation is forced
    w = hyperplane_search([b1, 2 * b1 + 3], 4, sub)
    assert w is not None and w.coefficients == (2, -1) and w.value == -3
    table2 = extend_character(table, [(p.one(), CircleValue(Fraction(1, 12)))])
    assert isinstance(table2, CharacterTable)
    assert value_of(table2, 2 * b1 + 3) is not None


def test_hyperplane_trivial_cases():
    p, (b1, _, _) = fixed_playground()
    sub = p.restrict(["g"])
    w = hyperplane_search([b1, b1], 1, sub)
    assert w.coefficients == (1, -1) and w.value.is_zero()
    assert hyperplane_search([b1, b1 * b1], 5, sub) is None


def test_3amalg_instances():
    base, registry = build_base()
    g = base.gen("g")
    ok = build_3amalg_obstruction(
        base, g, registry,
        (CircleValue(Fraction(1, 3)), CircleValue(Fraction(2, 3)), CircleValue(Fraction(1, 3))),
    )
    assert ok["verdict"] == "solvable"
    bad = build_3amalg_obstruction(
        base, g, registry,
        (CircleValue(Fraction(1, 2)), CircleValue(0), CircleValue(Fraction(1, 3))),
    )
    assert bad["verdict"] == "obstruction"


def test_3amalg_requires_certificate():
    base, registry = build_base()
    # sigma(x) - x = g[1] - g is solvable, so the instance must be refused
    with pytest.raises(ValueError):
        build_3amalg_obstruction(
            base, base.gen("g", 1) - base.gen("g"), registry,
            (CircleValue(0), CircleValue(0), CircleValue(0)),
        )


def count_is_fixed(monkeypatch) -> list:
    """The elements Element.is_fixed is called on from here on, in order."""
    calls = []
    is_fixed = Element.is_fixed

    def counted(self):
        calls.append(self)
        return is_fixed(self)

    monkeypatch.setattr(Element, "is_fixed", counted)
    return calls


@pytest.mark.parametrize(
    "r", ["r12 = 1/3; r13 = 2/3; r23 = 1/3;", "r12 = 1/2; r13 = 0; r23 = 1/3;"], ids=["solvable", "obstruction"]
)
def test_amalg_check_sigma_tests_two_differences(monkeypatch, capsys, tmp_path, r):
    # extend_character tests d12 and d13; d23 = d13 - d12 is fixed by linearity
    job = tmp_path / "amalg.df"
    job.write_text(f"gen g free;\ntorsor g;\n{r}\n", encoding="utf-8")
    calls = count_is_fixed(monkeypatch)
    assert cli.main(["amalg-check", str(job)]) == 0
    assert '"verdict"' in capsys.readouterr().out
    assert [repr(d) for d in calls] == ["alpha1 - alpha2", "alpha1 - alpha3"]


def test_3amalg_refuses_witness_differences_that_are_not_fixed(monkeypatch):
    base, registry = build_base()
    with_affine = Presentation.with_affine

    def skewed(self, name, linear, constant):
        # sigma(alpha2) = alpha2 + target + 1, so alpha1 - alpha2 is not fixed
        return with_affine(self, name, linear, constant + 1 if name == "alpha2" else constant)

    monkeypatch.setattr(Presentation, "with_affine", skewed)
    with pytest.raises(AssertionError, match="witness differences must be fixed"):
        build_3amalg_obstruction(base, base.gen("g"), registry, (CircleValue(0),) * 3)


def test_failing_instance_sigma_tests_each_summand_once(monkeypatch):
    base0, reg0 = build_base()
    base, reg, _ = closure_step(base0, reg0, base0.one(), name="t1")
    inst = build_height4_instance(base, control=False)
    summands = inst.equation.summand_map()
    calls = count_is_fixed(monkeypatch)
    report = build_failing_instance(inst.model, inst.equation, 4, SearchBounds(2, 1))
    assert report["verdict"] == "obstruction"
    # is_ff tests each summand; the rest are the corners' candidates, all 1
    assert [calls.count(s) for s in summands.values()] == [1] * len(summands)
    assert all(x == 1 for x in calls if x not in summands.values())


def test_failing_instance_on_height4():
    base0, reg0 = build_base()
    base, reg, _ = closure_step(base0, reg0, base0.one(), name="t1")
    inst = build_height4_instance(base, control=False)
    report = build_failing_instance(inst.model, inst.equation, 4, SearchBounds(2, 1))
    assert report["verdict"] == "obstruction"
    assert not report["angle_sum"].is_identity()
    assert report["per_corner_tables_consistent"]


def test_failing_instance_refuses_decomposable():
    base, g = Presentation.empty().with_free("g")
    m = build_system(base, [[(f"u{i}", (1, g)), (f"v{i}", (1, g))] for i in (1, 2, 3, 4)])
    rng = random.Random(6)
    dec = {}
    for a in range(1, 5):
        for b in range(1, 5):
            if a >= b:
                continue
            others = sorted(m.complement(a, b))
            e = m.pres.const(rng.randint(-1, 1))
            for k in others:
                e = e + (m.pres.gen(f"u{k}") - m.pres.gen(f"v{k}")) * rng.randint(-1, 1)
            dec[(a, b)] = e
            dec[(b, a)] = -e
    summands = {
        i: sum((dec[(i, j)] for j in range(1, 5) if j != i), m.pres.zero()) for i in range(1, 5)
    }
    eq = AdditiveEquation.of(m, summands)
    report = build_failing_instance(m, eq, 4, SearchBounds(2, 1))
    assert report["verdict"].startswith("refused")
    assert "combination" in report


def test_check_n_sas_witness():
    base, g = Presentation.empty().with_free("g")
    m = build_system(base, [[("u1", (1, g))], [("u2", (1, g))]])
    u1, u2 = m.pres.gen("u1"), m.pres.gen("u2")
    btilde = 2 * g
    summands = {1: g, 2: g}
    rewrite = {1: g, 2: g}
    witnesses = {1: u2, 2: u1}
    ok, problems = check_n_sas_witness(m, btilde, summands, rewrite, witnesses)
    assert ok, problems
    # wrong corner: witness for summand 1 must avoid block 1
    bad = {1: u1, 2: u1}
    ok, problems = check_n_sas_witness(m, btilde, summands, rewrite, bad)
    assert not ok and any("membership" in p for p in problems)
