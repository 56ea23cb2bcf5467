"""Pipeline stages: base registry, closure, twisted pair, height-4 instance."""

from diffield import params, run_pipeline, tower
from diffield.certify import TwistedShiftFamily, certify_unsolvable
from diffield.counterexample import (
    adjoin_twisted_pair,
    build_base,
    build_height4_instance,
    closure_step,
    refute_ff_decomposition,
    replay_registry,
    verify_no_torsor_over_twisted,
    verify_product_identity,
)
from diffield.equations import (
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unsolvable,
)
from diffield.freebase import decide_free_base
from diffield.parser import parse_document
from diffield.systems import NotFoundWithinBounds


def closed_base():
    base0, reg0 = build_base()
    base, reg, step = closure_step(base0, reg0, base0.one(), name="t1")
    return base0, reg0, base, reg, step


def test_build_base_certifies_three_families():
    base0, reg0 = build_base()
    assert len(reg0.entries) == 3
    assert replay_registry(reg0, None)


def test_base_sanity_guard_telescope():
    base0, _ = build_base()
    res = decide_free_base(
        base0, TwistedEquation(base0.one(), base0.gen("g", 1) - base0.gen("g"))
    )
    assert isinstance(res, Solution) and res.witness == base0.gen("g")


def test_closure_step_realizes_and_recertifies():
    base0, reg0, base, reg, step = closed_base()
    assert step.generator == "t1"
    t = base.gen("t1")
    assert t.wp() == 1
    assert replay_registry(reg, reg0)


def test_five_consecutive_closure_steps():
    base0, reg0 = build_base()
    pres, reg = base0, reg0
    parents = [None]
    targets = [pres.one(), pres.gen("g"), None, None, None]
    for i in range(5):
        target = targets[i]
        if target is None:
            target = pres.gen("g") + i  # vary the torsor targets
        parents.append(reg)
        pres, reg, step = closure_step(pres, reg, target.in_presentation(pres))
        assert pres.gen(step.generator).wp() == target.in_presentation(pres)
    assert replay_registry(reg, parents[-1])


def test_closure_with_g_target():
    base0, reg0, base, reg, _ = closed_base()
    pres, reg2, step = closure_step(base, reg, base.gen("g"))
    assert pres.gen(step.generator).wp() == pres.gen("g")


def test_twisted_pair_rules():
    base0, reg0, base, reg, _ = closed_base()
    pair, a1, a2 = adjoin_twisted_pair(base)
    g = pair.gen("g")
    assert a1.sigma(1) == g * a1 + g
    assert a2.sigma(1) == (a2 + 1) / g
    assert a1.wp() == (g - 1) * a1 + g


def test_product_identity_and_controls():
    base0, reg0, base, reg, _ = closed_base()
    pair, a1, a2 = adjoin_twisted_pair(base)
    out = verify_product_identity(pair)
    assert out["identity"] and out["perturbed_identity_fails"]
    assert out["torsor_of_pair_sum_realized"]


def test_product_identity_finds_the_witness_by_its_rule_not_its_name():
    # tau comes first and starts with "t" but is no witness for T_1; t1 is
    doc = parse_document(
        "gen g free; gen tau affine linear=g const=0; gen t1 affine linear=1 const=1;"
        "gen a1 affine linear=g const=g; gen a2 affine linear=1/g const=1/g;"
    )
    out = verify_product_identity(doc.presentation)
    assert out["torsor_of_pair_sum_realized"] is True


def test_no_torsor_over_twisted_both_sides():
    base0, reg0, base, reg, _ = closed_base()
    pair, a1, a2 = adjoin_twisted_pair(base)
    frame = verify_no_torsor_over_twisted(pair, reg, "a1", SearchBounds(4, 2))
    assert isinstance(frame["bounded"], NoSolutionWithinBounds)
    assert any("1/g" in d for d in frame["derived_equations"])
    frame2 = verify_no_torsor_over_twisted(pair, reg, "a2", SearchBounds(4, 2))
    assert any("(g)*x = g" in d for d in frame2["derived_equations"])


def test_height4_instance_checks():
    base0, reg0, base, reg, _ = closed_base()
    inst = build_height4_instance(base)
    assert all(f.is_fixed() for f in inst.f_elements.values())
    total = inst.model.pres.zero()
    for f in inst.f_elements.values():
        total = total + f
    assert total.is_zero()
    assert inst.equation.validate() == []
    # pairwise torsor witnesses realize the right targets
    a = {j: inst.model.pres.gen(f"a{j}") for j in range(1, 5)}
    assert inst.c_elements["c12"].wp() == a[1] + a[2]
    assert inst.c_elements["c34"].wp() == a[3] - a[4]


def test_refutation_chain_and_control_flip():
    base0, reg0, base, reg, _ = closed_base()
    inst = build_height4_instance(base, control=False)
    report = refute_ff_decomposition(inst, reg, SearchBounds(2, 1))
    assert report.verdict == "refuted"
    assert isinstance(report.bounded, NotFoundWithinBounds)
    assert set(report.side_certificates) == {"a1", "a2"}
    control = build_height4_instance(base, control=True)
    report2 = refute_ff_decomposition(control, reg, SearchBounds(2, 1))
    assert report2.verdict.startswith("refused")
    assert not isinstance(report2.bounded, NotFoundWithinBounds)


def test_shift_families_certify_over_both_corners():
    base0, reg0, base, reg, _ = closed_base()
    inst = build_height4_instance(base, control=False)
    for which in ("a1", "a2"):
        corner = inst.model.corner({int(which[1])})
        res = certify_unsolvable(
            corner, TwistedShiftFamily(corner.one(), corner.gen(which)), reg
        )
        assert isinstance(res, Unsolvable)


def test_pipeline_search_counts_are_pinned(monkeypatch):
    # run_pipeline() at (2, 2) and (8, 4), seed 1, each from a cold
    # denominator memo.  The main corners certify (certify_constants) and run
    # no search, so the counts do not depend on the main bounds: what is left
    # are the control corners at (2, 1) and the two torsor confirmations.
    # With the main corners searched they were 273 tower calls, 136
    # free-base searches, 33 sigma images and 172 products by a known
    # element at (2, 2), and 1153, 771, 93 and 803 at (8, 4).  A budget-0
    # query goes straight to the free base, and the family reducer takes no
    # gcd at all (5 at (2, 2) and 268 at (8, 4) without it)
    names = ("iter_twisted_branches", "twisted_family", "poly_gcd", "sigma", "mul_known")
    calls = dict.fromkeys(names, 0)
    targets = (tower, tower, params, params.LinComb, params.LinComb)
    for target, name in zip(targets, names):
        def counting(*args, _original=getattr(target, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(target, name, counting)
    pinned = {
        (2, 2): {"iter_twisted_branches": 161, "twisted_family": 111, "poly_gcd": 0, "sigma": 25, "mul_known": 107},
        (8, 4): {"iter_twisted_branches": 161, "twisted_family": 111, "poly_gcd": 0, "sigma": 25, "mul_known": 107},
    }
    for bounds, counts in pinned.items():
        calls.update(dict.fromkeys(names, 0))
        tower._denominator_candidates.cache_clear()
        report = run_pipeline(bounds=SearchBounds(*bounds), seed=1)
        assert report.verdict == "refuted with certificate chain"
        assert calls == counts, bounds
