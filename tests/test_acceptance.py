"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact-symbolic or seeded-deterministic; the only
tolerances are the stated wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from conftest import run_cli

from diffield.certify import certify_unsolvable, replay_certificate
from diffield.characters import CharacterTable, extend_character
from diffield.counterexample import (
    adjoin_twisted_pair,
    build_3amalg_obstruction,
    build_base,
    build_height4_instance,
    closure_step,
    run_pipeline,
    verify_no_torsor_over_twisted,
)
from diffield.descent import DescentHypothesisViolated, descent_linear, descent_multiplicative
from diffield.equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unsolvable,
)
from diffield.field import Presentation
from diffield.freebase import decide_free_base, replay_refutation
from diffield.ratfunc import CircleValue
from diffield.systems import (
    AdditiveEquation,
    ClosureOracle,
    NotFoundWithinBounds,
    SolverOracle,
    WitnessUnavailable,
    build_system,
    decompose,
    ff_decompose_with_witnesses,
    validate_decomposition,
)


def _report(name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget, f"{name} exceeded its time budget"


@pytest.fixture(scope="module")
def closed_base():
    base0, reg0 = build_base()
    base, reg, _ = closure_step(base0, reg0, base0.one(), name="t1")
    return base, reg


def test_criterion_1_product_identity(closed_base):
    base, reg = closed_base
    start = time.time()
    pair, a1, a2 = adjoin_twisted_pair(base)
    ok = (a1 * a2).wp() == a1 + a2 + 1
    _report("1 product identity", ok, time.time() - start, 1.0)


def test_criterion_2_decomposition_suite():
    start = time.time()
    rng = random.Random(20250808)
    total = 0
    good = 0
    for n in (3, 4, 5):
        model = build_system(
            Presentation.empty(), [[(f"x{k}", "free")] for k in range(1, n + 1)]
        )
        gens = {k: model.pres.gen(f"x{k}") for k in range(1, n + 1)}
        for trial in range(50):
            dec = {}
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    others = sorted(model.complement(a, b))
                    e = model.pres.const(rng.randint(-3, 3))
                    for k in others:
                        e = e + gens[k] * rng.randint(-2, 2)
                        if rng.random() < 0.3:
                            e = e + gens[k] * gens[k]
                    dec[(a, b)] = e
                    dec[(b, a)] = -e
            summands = {
                a: sum((dec[(a, b)] for b in range(1, n + 1) if b != a), model.pres.zero())
                for a in range(1, n + 1)
            }
            eq = AdditiveEquation.of(model, summands)
            got = decompose(model, eq, seed=trial)
            ok, _problems = validate_decomposition(model, eq, got)
            total += 1
            good += ok
    _report(f"2 decomposition suite ({good}/{total})", good == total == 150, time.time() - start, 30.0)


def test_criterion_3_automorphism_laws():
    start = time.time()
    p, g = Presentation.empty().with_free("g")
    p, t = p.with_affine("t", 1, 1)
    p, a = p.with_affine("a", g.in_presentation(p), g.in_presentation(p))
    rng = random.Random(33)

    def rand_elem():
        e = p.const(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.4:
                e = e + p.gen("g", rng.randint(-1, 1)) * rng.randint(-2, 2)
            elif pick < 0.7:
                e = e + p.gen("t") * rng.randint(-2, 2)
            else:
                e = e + p.gen("a") * rng.randint(-2, 2)
        if rng.random() < 0.3:
            e = e / (p.gen("g") ** 2 + 1)
        return e

    ok = True
    for i in range(200):
        x, y = rand_elem(), rand_elem()
        ok = ok and (x * y).sigma(1) == x.sigma(1) * y.sigma(1)
        ok = ok and (x + y).sigma(1) == x.sigma(1) + y.sigma(1)
        k = (i % 3) + 1
        ok = ok and x.sigma(k).sigma(-k) == x
        if not ok:
            break
    _report("3 automorphism laws (200 pairs)", ok, time.time() - start, 10.0)


def test_criterion_4_free_base_decisions():
    start = time.time()
    p, g = Presentation.empty().with_free("g")
    ok = True
    for z in (1, 2, 3, -1, -2, -3):
        res = decide_free_base(p, MultiplicativeEquation(g, z))
        ok = ok and isinstance(res, Unsolvable)
        ok = ok and replay_refutation(p, MultiplicativeEquation(g, z), res.certificate)
    inv = p.one() / g
    for eq in (TwistedEquation(g, g), TwistedEquation(inv, inv)):
        res = decide_free_base(p, eq)
        ok = ok and isinstance(res, Unsolvable)
        ok = ok and replay_refutation(p, eq, res.certificate)
    res = decide_free_base(p, TwistedEquation(p.one(), p.gen("g", 1) - g))
    ok = ok and isinstance(res, Solution) and res.witness == g
    _report("4 free-base decisions", ok, time.time() - start, 5.0)


def test_criterion_5_twisted_pair_torsor_refutation(closed_base):
    base, reg = closed_base
    start = time.time()
    pair, a1, a2 = adjoin_twisted_pair(base)
    frame = verify_no_torsor_over_twisted(pair, reg, "a1", SearchBounds(6, 4))
    derived = frame["derived_equations"]
    ok = any(d == "sigma(x) - (1/g)*x = 1/g" for d in derived)
    ok = ok and any("(g)^z" in d for d in derived)
    ok = ok and isinstance(frame["bounded"], NoSolutionWithinBounds)
    sub = pair.restrict(tuple(reg.pres.names()) + ("a1",))
    eq = TwistedEquation(sub.one(), sub.gen("a1"))
    ok = ok and replay_certificate(sub, eq, frame["certificate"], reg)
    _report("5 twisted-pair torsor refutation", ok, time.time() - start, 60.0)


def test_criterion_6_counterexample_pipeline():
    start = time.time()
    report = run_pipeline(bounds=SearchBounds(4, 3), torsor_bounds=SearchBounds(6, 4))
    ok = report.verdict == "refuted with certificate chain"
    ok = ok and report.registry_replayed
    ok = ok and report.product_identity["identity"]
    ok = ok and all(report.instance_checks.values())
    ok = ok and isinstance(report.refutation.bounded, NotFoundWithinBounds)
    ok = ok and report.control is not None and report.control.verdict.startswith("refused")
    _report("6 counterexample pipeline (control flips)", ok, time.time() - start, 300.0)


def test_criterion_7_character_oracle_equivalence():
    start = time.time()
    p, g = Presentation.empty().with_free("g")
    us = []
    for i in range(3):
        p, u = p.with_affine(f"u{i}", 1, g.in_presentation(p) if i else g)
        us.append(u)
    us = [u.in_presentation(p) for u in us]
    basis = [us[0] - us[1], us[0] - us[2]]
    rng = random.Random(777)
    box = 6
    agree = 0
    for _ in range(100):
        k = rng.randint(2, 5)
        rows, elems = [], []
        for _ in range(k):
            const = rng.randint(-1, 1)
            row = [rng.randint(-1, 1) for _ in basis]
            e = p.const(const)
            for c, b in zip(row, basis):
                e = e + c * b
            rows.append([const] + row)
            elems.append(e)
        angles = [CircleValue(Fraction(rng.randint(0, 11), 12)) for _ in range(k)]
        decided = isinstance(
            extend_character(CharacterTable.empty(p), list(zip(elems, angles))),
            CharacterTable,
        )
        agree += decided == _box_oracle(rows, angles, box)
    _report(f"7 character oracle equivalence ({agree}/100)", agree == 100, time.time() - start, 20.0)


def _box_oracle(rows, angles, box):
    k = len(rows)
    cols = [[rows[i][j] for i in range(k)] for j in range(len(rows[0]))]
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
        lasts = [forced] if forced is not None else range(-box, box + 1)
        for last in lasts:
            z = prefix + (last,)
            if any(z):
                total = sum((z[i] * angles[i].angle for i in range(k)), Fraction(0))
                if total % 1 != 0:
                    return False
    return True


def test_criterion_8_three_amalgamation_obstruction():
    start = time.time()
    base0, reg0 = build_base()
    g = base0.gen("g")

    def run(r12, r13, r23):
        return build_3amalg_obstruction(
            base0, g, reg0, (CircleValue(r12), CircleValue(r13), CircleValue(r23))
        )["verdict"]

    ok = run(Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)) == "solvable"
    ok = ok and run(Fraction(1, 2), Fraction(0), Fraction(1, 3)) == "obstruction"
    rng = random.Random(88)
    for _ in range(50):
        r = [Fraction(rng.randint(0, 11), 12) for _ in range(3)]
        predicted = "solvable" if (r[0] + r[2] - r[1]) % 1 == 0 else "obstruction"
        ok = ok and run(*r) == predicted
    _report("8 three-amalgamation obstruction", ok, time.time() - start, 5.0)


def test_criterion_9_descent_transformations():
    start = time.time()
    p, g = Presentation.empty().with_free("g")
    p, t = p.with_affine("t", 1, 1)
    t = t.in_presentation(p)
    rng = random.Random(55)
    ok = True
    for _ in range(50):
        s = t * rng.randint(1, 3) + p.gen("g", rng.randint(-1, 1)) * rng.randint(-2, 2)
        n = rng.randint(1, 4)
        e1 = [p.one(), p.gen("g")][rng.randint(0, 1)]
        e2 = s.sigma(1) - e1 * s
        coeffs = [-n * s] + [p.zero()] * (n - 1)
        ok = ok and descent_linear(coeffs, e1, e2) == s
    ratio = p.gen("g", 1) / p.gen("g")
    for _ in range(50):
        k = rng.randint(1, 3)
        sol = p.one()
        for _ in range(k):
            sol = sol * p.gen("g")
        coeffs = [p.zero()] * (k - 1) + [sol]
        wit, got_k = descent_multiplicative(coeffs, ratio, 1)
        ok = ok and got_k == k and wit == sol
    bad = 0
    for _ in range(10):
        try:
            descent_linear([p.gen("g") * rng.randint(1, 5)], p.one(), p.one())
        except DescentHypothesisViolated:
            bad += 1
    ok = ok and bad == 10
    _report("9 descent transformations", ok, time.time() - start, 10.0)


def test_criterion_10_witness_driven_ff_decomposition(closed_base):
    start = time.time()
    base, reg = closed_base
    basefree, g0 = Presentation.empty().with_free("g")

    def torsor_system(n):
        return build_system(
            basefree, [[(f"u{i}", (1, g0)), (f"v{i}", (1, g0))] for i in range(1, n + 1)]
        )

    rng = random.Random(4242)
    good = 0
    total = 0
    for n, count in ((3, 12), (4, 8)):
        model = torsor_system(n)
        for _ in range(count):
            dec = {}
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    others = sorted(model.complement(a, b))
                    e = model.pres.const(rng.randint(-2, 2))
                    for k in others:
                        e = e + (model.pres.gen(f"u{k}") - model.pres.gen(f"v{k}")) * rng.randint(-2, 2)
                    dec[(a, b)] = e
                    dec[(b, a)] = -e
            summands = {
                a: sum((dec[(a, b)] for b in range(1, n + 1) if b != a), model.pres.zero())
                for a in range(1, n + 1)
            }
            eq = AdditiveEquation.of(model, summands)
            oracle = ClosureOracle(SearchBounds(3, 2))
            grown, got = ff_decompose_with_witnesses(model, eq, oracle, seed=total)
            ok, _problems = validate_decomposition(grown, eq, got)
            ok = ok and all(v.is_fixed() for v in got.values())
            good += ok
            total += 1
    inst = build_height4_instance(base, control=False)
    blocked_ok = False
    try:
        ff_decompose_with_witnesses(inst.model, inst.equation, SolverOracle(SearchBounds(2, 1)), seed=0)
    except WitnessUnavailable as exc:
        corner_pres = inst.model.corner(exc.corner)
        q = TwistedEquation(corner_pres.one(), corner_pres.element(exc.target.value))
        blocked_ok = isinstance(certify_unsolvable(corner_pres, q, reg), Unsolvable)
        blocked_ok = blocked_ok and "witness unavailable at T_" in str(exc)
    _report(
        f"10 witness-driven ff-decomposition ({good}/{total} planted, blocked query certified)",
        good == total == 20 and blocked_ok,
        time.time() - start,
        60.0,
    )


def test_criterion_11_reproducibility(tmp_path):
    start = time.time()
    doc = tmp_path / "job.df"
    doc.write_text(
        "gen x1 free; gen x2 free; gen x3 free;\n"
        "system blocks x1 | x2 | x3;\n"
        "summand 1 = x2*x2 - x3;\n"
        "summand 2 = x3 - x1*x1;\n"
        "summand 3 = x1*x1 - x2*x2;\n"
    )
    outs = []
    for run in (1, 2):
        out = tmp_path / f"r{run}.json"
        proc = run_cli(["decompose", str(doc), "--seed", "41", "--out", str(out)], timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    solves = []
    sdoc = tmp_path / "s.df"
    sdoc.write_text("gen g free;\ngen t affine linear=1 const=1;\ntwisted e1 = 1, e2 = 1;\n")
    for run in (1, 2):
        out = tmp_path / f"s{run}.json"
        proc = run_cli(["solve-sas", str(sdoc), "--seed", "9", "--out", str(out)], timeout=120)
        assert proc.returncode == 0, proc.stderr
        solves.append(out.read_bytes())
    ok = ok and solves[0] == solves[1]
    _report("11 reproducibility (byte-identical reports)", ok, time.time() - start, 120.0)
