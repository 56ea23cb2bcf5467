"""Remaining contract examples that cut across modules."""

import ast
import random
import re
from pathlib import Path

from diffield.certify import certify_unsolvable
from diffield.counterexample import adjoin_twisted_pair, build_base, closure_step
from diffield.equations import (
    MultiplicativeEquation,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unknown,
    Unsolvable,
)
from diffield.field import Presentation
from diffield.freebase import decide_free_base
from diffield.systems import SystemModel, check_n_sas_witness
from diffield.tower import solve_twisted_bounded

README = Path(__file__).resolve().parents[1] / "README.md"


def test_rational_only_presentation_multiplicative():
    # over the empty presentation the field is Q and constants are fixed
    p = Presentation.empty()
    res = decide_free_base(p, MultiplicativeEquation(p.const(2), 1))
    assert isinstance(res, Unsolvable)
    res = decide_free_base(p, MultiplicativeEquation(p.const(1), 1))
    assert isinstance(res, Solution)


def test_pair_sum_torsor_certifier_stays_unknown():
    # the solver finds a1*a2 - t; the certifier must not contradict it
    q, g = Presentation.empty().with_free("g")
    q, a1 = q.with_affine("a1", g, g)
    inv = q.one() / q.gen("g")
    q, a2 = q.with_affine("a2", inv, inv)
    q, t = q.with_affine("t", 1, 1)
    a1, a2 = a1.in_presentation(q), a2.in_presentation(q)
    eq = TwistedEquation(q.one(), a1 + a2)
    solved = solve_twisted_bounded(q, eq, SearchBounds(4, 2))
    assert isinstance(solved, Solution)
    certified = certify_unsolvable(q, eq)
    assert isinstance(certified, Unknown)


def test_two_sas_failure_witnessed():
    # the pair sum has a witness in the joint corner but no per-corner
    # rewrite: every natural candidate fails the higher splitting check
    base0, reg0 = build_base()
    base, reg, _ = closure_step(base0, reg0, base0.one(), name="t1")
    pair, a1, a2 = adjoin_twisted_pair(base)
    model = SystemModel.of(pair, [["a1"], ["a2"]])
    model.validate()
    t = model.pres.gen("t1")
    btilde = a1 + a2
    top_witness = a1 * a2 - t
    assert top_witness.wp() == btilde
    # natural rewrite attempt: b1 = a1, b2 = a2; witnesses would have to
    # realize T_{a1} in corner(1) and T_{a2} in corner(2), which the
    # certificates exclude, so no candidate passes
    for x1 in (model.pres.zero(), t, model.pres.gen("g")):
        ok, problems = check_n_sas_witness(
            model, btilde, {1: a2, 2: a1}, {1: a2, 2: a1}, {1: x1, 2: x1}
        )
        assert not ok
    for which in ("a1", "a2"):
        corner = model.corner({int(which[1])})
        res = solve_twisted_bounded(
            corner, TwistedEquation(corner.one(), corner.gen(which)), SearchBounds(3, 2)
        )
        assert not isinstance(res, Solution)


def test_no_false_refutation_battery():
    """Instances with a planted in-bounds solution: always found, never certified."""
    rng = random.Random(31337)
    p, g = Presentation.empty().with_free("g")
    p, t = p.with_affine("t", 1, 1)
    g, t = g.in_presentation(p), t
    checked = 0
    for _ in range(100):
        x = p.const(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 2)):
            pick = rng.random()
            if pick < 0.5:
                x = x + p.gen("g", rng.randint(-1, 1)) * rng.randint(-2, 2)
            else:
                x = x + t * rng.randint(-2, 2)
        e1 = [p.one(), g, p.one() / g][rng.randint(0, 2)]
        e2 = x.sigma(1) - e1 * x
        eq = TwistedEquation(e1, e2)
        res = solve_twisted_bounded(p, eq, SearchBounds(3, 2))
        assert isinstance(res, Solution)
        assert res.witness.sigma(1) - e1 * res.witness == e2
        cert = certify_unsolvable(p, eq)
        assert not isinstance(cert, Unsolvable)
        checked += 1
    assert checked == 100


def _commented_repr(lines, node):
    """The repr a tour comment gives for an expression statement.

    It is the comment after the expression, or on the next line after
    "# ->", up to a run of two spaces that starts a remark.
    """
    comment = lines[node.end_lineno - 1][node.end_col_offset :].strip() or lines[node.end_lineno].strip()
    assert comment.startswith("#"), f"no repr given for line {node.lineno}"
    return re.split(r"\s{2,}", comment.lstrip("# ").removeprefix("-> "))[0]


def test_readme_library_tour():
    # runs every python block of the README's library tour; each expression
    # statement's repr must be the one its comment gives
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") : text.index("## Command line")]
    namespace: dict = {}
    checked = 0
    for block in re.findall(r"```python\n(.*?)```", tour, re.S):
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == _commented_repr(lines, node), ast.unparse(node)
            checked += 1
    assert checked == 8
