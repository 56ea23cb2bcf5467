"""Shared test helpers."""

import faulthandler
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import diffield
from diffield.characters import CharacterError, CharacterTable
from diffield.equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    Solution,
    TwistedEquation,
    Unsolvable,
    UnsupportedCoefficientShape,
)
from diffield.field import Element, Presentation, PresentationError
from diffield.freebase import (
    FreeRefutation,
    WindowBound,
    _denominator_bound,
    _monomials,
    _require_free,
    _window_vars,
    decide_free_base,
    twisted_family,
)
from diffield.linalg import Echelon, Infeasible, integer_kernel, solve_affine
from diffield.params import LinComb, ParamContext, _lincomb_coefficients, require_level_free
from diffield.parser import Document, ParseError, SemanticError
from diffield.poly import MPoly, divexact, poly_lcm
from diffield.ratfunc import P1, CircleValue, RatFunc
from diffield.tower import require_fixed, span_basis


def run_cli(args, *, cwd=None, timeout):
    """Run ``python -m diffield.cli ARGS`` in a subprocess (see run_python)."""
    return run_python(["-m", "diffield.cli", *args], cwd=cwd, timeout=timeout)


def run_python(args, *, cwd=None, timeout):
    """Run ``python ARGS`` in a subprocess, capturing its output as text.

    The subprocess imports the same ``diffield`` copy as the test process:
    the directory holding that package goes first on its ``PYTHONPATH`` as
    an absolute path, so it starts from any working directory even when the
    suite runs from an uninstalled checkout with ``PYTHONPATH=src``.
    """
    path = [str(Path(diffield.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
        env=env,
    )


# -- a test still running past faulthandler_timeout ends the run


@pytest.hookimpl(hookwrapper=True, trylast=True)
def pytest_runtest_protocol(item, nextitem):
    """End the run when a test is still running after ``faulthandler_timeout``.

    pytest's own faulthandler dumps the stacks at that timeout and lets the
    test run on, so a hung run stays busy without naming its test.  This
    wrapper runs inside pytest's (trylast, registered after it) and replaces
    its timer: at the same timeout it prints the test's node id, dumps every
    thread's stack and exits with status 1 at once.
    """
    timeout = float(item.config.getini("faulthandler_timeout") or 0)
    if timeout <= 0:
        yield
        return
    faulthandler.cancel_dump_traceback_later()
    timer = threading.Timer(timeout, _end_hung_run, (item, timeout))
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()


def _end_hung_run(item, timeout):
    capture = item.config.pluginmanager.get_plugin("capturemanager")
    if capture is not None:
        capture.suspend()  # the test's captured stderr is not the terminal's
    sys.stderr.write(f"\n{item.nodeid}: still running after faulthandler_timeout = {timeout:g} s\n")
    sys.stderr.flush()
    faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
    os._exit(1)


def common_denominator(elems):
    """The lcm of the denominators of the rational functions elems."""
    seen = set()
    den = P1
    for e in elems:
        d = e.den
        if d.is_constant() or d in seen:
            continue
        seen.add(d)
        den = poly_lcm(den, d)
    return den


def over_denominator(f, den):
    """The numerator of f over den, a multiple of f.den: f == out / den."""
    return f.num if f.den == den else f.num * divexact(den, f.den)


def clear_denominators(elems):
    """Numerators over the common denominator D: elems[i] == out[i] / D."""
    den = common_denominator(elems)
    return [over_denominator(e, den) for e in elems]


# -- the free-base decision before its one Ansatz record: the differential
#    reference of tests/test_solver.py (twisted_family with its trace dict)


def _support_window(parts):
    shifts = {v.shift for p in parts for v in p.variables()}
    return WindowBound(min(shifts), max(shifts) - 1) if shifts else None


def _clip_window(w, cap):
    if w is None or cap is None:
        return w
    return WindowBound(max(w.lo, -cap), min(w.hi, cap))


def reference_multiplicative_kernel(pres, ratio, deg_cap=None, window_cap=None):
    _require_free(pres)
    u = ratio.value
    eqrepr = f"sigma(x) = ({ratio})*x"
    if u.is_constant():
        if u == RatFunc.one():
            return [pres.one()], None
        cert = FreeRefutation(
            "multiplicative", eqrepr, None, "1", 0, 1,
            None, f"constant ratio {ratio} != 1 admits no nonzero solution",
        )
        return [], cert
    window = _clip_window(_support_window([u.num, u.den]), window_cap)
    if window is None or window.is_empty():
        cert = FreeRefutation(
            "multiplicative", eqrepr, window, "1", 0, 0,
            None,
            "empty shift window: nonconstant solutions impossible, "
            "constants require ratio = 1",
        )
        return [], cert
    span = window.span()
    a_den = _denominator_bound(u.den, u.num, span)
    a_num = _denominator_bound(u.num, u.den, span)
    cap = a_num.total_degree() + a_den.total_degree()
    if deg_cap is not None:
        cap = min(cap, deg_cap + a_den.total_degree())
    vars_ = sorted(set(_window_vars(pres, window)) | a_den.variables())
    monos = _monomials(vars_, cap)
    ctx = ParamContext()
    params = ctx.new_params(len(monos))
    lhs_pos = u.den * a_den
    lhs_neg = u.num * a_den.shift(1)
    ctx.add_identity(
        MPoly(), {p: mono.shift(1) * lhs_pos - mono * lhs_neg for p, mono in zip(params, monos)}
    )
    family = LinComb(pres, MPoly(), dict(zip(params, monos)), a_den)
    basis = []
    for direction in ctx.kernel():
        x = family.direction(direction)
        if not x.is_zero() and not any(x == b for b in basis):
            basis.append(x)
    if basis:
        return basis, None
    cert = FreeRefutation(
        "multiplicative", eqrepr, window, repr(a_den), cap, len(monos),
        None, "homogeneous coefficient system has trivial kernel",
    )
    return [], cert


def reference_twisted_family(pres, e1, rhs, ctx, deg_cap=None, window_cap=None, trace=None):
    _require_free(pres)
    q1, q2 = e1.value.den, rhs.den
    rhs_nums = [rhs.const, *rhs.coeffs.values()]
    window = _clip_window(_support_window([e1.value.num, q1, q2, *rhs_nums]), window_cap)
    span = window.span() if window is not None else 0
    a_poly = _denominator_bound(q1 * q2, q2 * e1.value.num, span)
    v_candidates = []
    ve1 = e1.value.valuation()
    for n in rhs_nums:
        if n.terms:
            v = n.total_degree() - q2.total_degree()
            v_candidates += [v, v - ve1]
    if ve1 == 0:
        top = Element(pres, e1.value.top_form())
        kernel, _ = reference_multiplicative_kernel(pres, top, deg_cap, window_cap)
        if kernel:
            v_candidates.append(kernel[0].value.valuation())
    if trace is not None:
        trace["window"] = window
        trace["denominator_bound"] = repr(a_poly)
    if not v_candidates:
        if trace is not None:
            trace["degree_cap"] = -1
            trace["ansatz_size"] = 0
        return LinComb.zero(pres)
    cap = max(v_candidates) + a_poly.total_degree()
    if deg_cap is not None:
        cap = min(cap, deg_cap + a_poly.total_degree())
    if cap < 0:
        if trace is not None:
            trace["degree_cap"] = cap
            trace["ansatz_size"] = 0
        ctx.add_zero(-rhs)
        return LinComb.zero(pres)
    vars_ = sorted(set(_window_vars(pres, window)) | a_poly.variables())
    monos = _monomials(vars_, cap)
    if trace is not None:
        trace["degree_cap"] = cap
        trace["ansatz_size"] = len(monos)
    params = ctx.new_params(len(monos))
    a_shifted = a_poly.shift(1)
    p1 = e1.value.num
    lhs_pos = a_poly * q1 * q2
    lhs_neg = p1 * a_shifted * q2
    rhs_scale = a_shifted * a_poly * q1
    coeffs = {p: mono.shift(1) * lhs_pos - mono * lhs_neg for p, mono in zip(params, monos)}
    for lam, part in rhs.coeffs.items():
        coeffs[lam] = -(part * rhs_scale)
    ctx.add_identity(-(rhs.const * rhs_scale), coeffs)
    return LinComb(pres, MPoly(), dict(zip(params, monos)), a_poly)


def _reference_decide_twisted(pres, eq):
    _require_free(pres)
    ctx = ParamContext()
    trace = {}
    try:
        family = reference_twisted_family(pres, eq.e1, LinComb.constant(pres, eq.e2), ctx, trace=trace)
    except Infeasible:
        return Unsolvable(_reference_twisted_refutation(pres, eq, trace))
    x = family.evaluate(ctx.solve())
    if not eq.holds_for(x):
        raise AssertionError("internal error: candidate failed verification")
    return Solution(x)


def _reference_twisted_refutation(pres, eq, trace):
    window = trace.get("window")
    const_cand = None
    note = "coefficient system infeasible over the derived ansatz"
    if eq.e1 != 1:
        cand = eq.e2 / (pres.one() - eq.e1)
        if not cand.is_constant():
            const_cand = repr(cand)
            if window is None or window.is_empty():
                note = "constant case: the forced candidate is not rational"
    elif window is None or window.is_empty():
        note = "torsor over empty window: sigma(x)-x is never a nonzero constant"
    return FreeRefutation(
        "twisted",
        repr(eq),
        window,
        trace.get("denominator_bound", "1"),
        trace.get("degree_cap", -1),
        trace.get("ansatz_size", 0),
        const_cand,
        note,
    )


def _reference_decide_multiplicative(pres, eq):
    _require_free(pres)
    basis, cert = reference_multiplicative_kernel(pres, eq.ratio())
    if basis:
        x = basis[0]
        if not eq.holds_for(x):
            raise AssertionError("internal error: candidate failed verification")
        return Solution(x)
    return Unsolvable(cert)


def reference_decide_free_base(pres, eq):
    if isinstance(eq, TwistedEquation):
        return _reference_decide_twisted(pres, eq)
    if isinstance(eq, MultiplicativeEquation):
        return _reference_decide_multiplicative(pres, eq)
    raise TypeError(f"unsupported equation type {type(eq).__name__}")


# -- the tower search before families were kept over the free parameters:
#    every family carries the parameters the echelon has solved, and zero
#    families are multiplied and sigma-substituted like any other; the
#    differential reference of tests/test_solver.py.  Its special
#    denominators come from reference_denominator_candidates below, on this
#    same path, memoized as the search memoizes them.  A query of budget 0
#    descends one affine level at a time, as the search did before such a
#    query went straight to the free base.


def reference_iter_twisted_branches(pres, e1, rhs, ctx, deg_budget, window, *, polynomial=False):
    if deg_budget < 0:
        return
    affine = pres.affine_top
    if affine is None:
        forked = ctx.fork()
        try:
            fam = twisted_family(pres, e1, rhs, forked, deg_budget, window)
        except Infeasible:
            return
        yield forked, fam
        return
    gen, sub, alpha, beta = affine.gen, affine.sub, affine.alpha, affine.beta
    e1_sub = require_level_free(e1, pres, sub, gen)
    a_var = pres.gen(gen.name)
    for m in range(0, 1 if polynomial else deg_budget + 1):
        for delta in _reference_denominators(sub, alpha, beta, m, deg_budget, window):
            if m:
                denominator = sum((c.in_presentation(pres) * a_var**k for k, c in enumerate(delta)), pres.zero())
                rhs_delta = _lincomb_coefficients(rhs.mul_known(denominator), pres, gen, sub)
            else:
                rhs_delta = _lincomb_coefficients(rhs, pres, gen, sub)
            top = ctx.fork()
            try:
                for k, row in rhs_delta.items():
                    if k > deg_budget:
                        top.add_zero(row)
            except Infeasible:
                continue

            def level(k):
                scale = alpha ** (m - k)
                base = rhs_delta[k].mul_known(scale) if k in rhs_delta else LinComb.zero(sub)
                return e1_sub * scale, base, deg_budget - k

            for final_ctx, ys in reference_coefficient_tower(sub, beta, level, deg_budget, {}, {}, top, window, polynomial):
                family = sum((ys[k].lift(pres).mul_known(a_var**k) for k in range(1, deg_budget + 1)), ys[0].lift(pres))
                yield final_ctx, family.mul_known(pres.one() / denominator) if m else family


def reference_coefficient_tower(sub, beta, level, k, solved, images, ctx, window, polynomial=False):
    if k < 0:
        yield ctx, solved
        return
    twist, rhs, budget = level(k)
    for i in sorted(solved):
        rhs = rhs - images[i].mul_known(sub.const(math.comb(i, k)) * beta ** (i - k))
    branches = reference_iter_twisted_branches(sub, twist, rhs, ctx, budget, window, polynomial=polynomial)
    while True:
        try:
            ctx2, fam = next(branches)
        except (StopIteration, UnsupportedCoefficientShape):
            return
        below = {**images, k: fam.sigma()} if k else images
        yield from reference_coefficient_tower(sub, beta, level, k - 1, {**solved, k: fam}, below, ctx2, window, polynomial)


def reference_solve_twisted_bounded(pres, eq, bounds):
    if pres.affine_top is None:
        return decide_free_base(pres, eq)
    rhs = LinComb.constant(pres, eq.e2)
    for branch_ctx, family in reference_iter_twisted_branches(pres, eq.e1, rhs, ParamContext(), bounds.degree, bounds.window):
        x = family.evaluate(branch_ctx.solve())
        if eq.holds_for(x):
            return Solution(x)
        raise AssertionError("internal error: branch solution failed verification")
    return NoSolutionWithinBounds(bounds)


def reference_fixed_space(pres, bounds, *, polynomial=False):
    found = []
    if pres.affine_top is not None:
        branches = reference_iter_twisted_branches(
            pres, pres.one(), LinComb.zero(pres), ParamContext(), bounds.degree, bounds.window, polynomial=polynomial
        )
        for ctx, family in branches:
            for direction in ctx.kernel():
                x = family.direction(direction)
                if not x.is_zero():
                    found.append(x)
    return span_basis(require_fixed(found), first=pres.one())


# -- the tower's special denominators before the once-per-level refutation:
#    every degree m solves its own coefficient tower, on the search path above


def reference_denominator_candidates(sub, alpha, beta, m, deg_budget, window):
    one = sub.one()
    if m == 0:
        return ((one,),)

    def level(k):
        return alpha ** (m - k), LinComb.zero(sub), deg_budget

    leading = {m: LinComb.constant(sub, one)}
    out = {}
    for ctx, solved in reference_coefficient_tower(sub, beta, level, m - 1, leading, leading, ParamContext(), window):
        particular = ctx.solve()
        out[tuple(solved[k].evaluate(particular) for k in range(m + 1))] = None
    return tuple(out)


_reference_denominators = functools.lru_cache(maxsize=1024)(reference_denominator_candidates)


# -- the parser before its tuple tokens, text-compare cursor and atom table:
#    the differential reference of tests/test_parser_cli.py


@dataclass(frozen=True)
class _RefToken:
    kind: str  # "name", "int", "punct", "end"
    text: str
    line: int
    column: int


_REF_PUNCT = ("[", "]", "(", ")", ",", ";", "=", "+", "-", "*", "/", "^", "|", ":")


def reference_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(_RefToken("int", text[start:i], line, startcol))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_RefToken("name", text[start:i], line, startcol))
            continue
        if ch in _REF_PUNCT:
            tokens.append(_RefToken("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_RefToken("end", "", line, col))
    return tokens


class _RefCursor:
    def __init__(self, tokens: list[_RefToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _RefToken:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> _RefToken | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None


_REF_RESERVED = {"s", "wp", "free", "affine", "gen", "linear", "const"}


def _ref_expr(cur: _RefCursor, pres: Presentation) -> Element:
    total = _ref_term(cur, pres)
    while True:
        if cur.accept("punct", "+"):
            total = total + _ref_term(cur, pres)
        elif cur.accept("punct", "-"):
            total = total - _ref_term(cur, pres)
        else:
            return total


def _ref_term(cur: _RefCursor, pres: Presentation) -> Element:
    total = _ref_factor(cur, pres)
    while True:
        if cur.accept("punct", "*"):
            total = total * _ref_factor(cur, pres)
        elif cur.accept("punct", "/"):
            tok = cur.peek()
            divisor = _ref_factor(cur, pres)
            if divisor.is_zero():
                raise ParseError("division by zero", tok.line, tok.column)
            total = total / divisor
        else:
            return total


def _ref_factor(cur: _RefCursor, pres: Presentation) -> Element:
    if cur.accept("punct", "-"):
        return -_ref_factor(cur, pres)
    return _ref_power(cur, pres)


def _ref_power(cur: _RefCursor, pres: Presentation) -> Element:
    base = _ref_atom(cur, pres)
    if cur.accept("punct", "^"):
        expo = _ref_signed_int(cur)
        if expo < 0 and base.is_zero():
            tok = cur.peek()
            raise ParseError("zero to a negative power", tok.line, tok.column)
        return base**expo
    return base


def _ref_signed_int(cur: _RefCursor) -> int:
    sign = 1
    while True:
        if cur.accept("punct", "-"):
            sign = -sign
        elif cur.accept("punct", "+"):
            pass
        else:
            break
    tok = cur.expect("int")
    return sign * int(tok.text)


def _ref_atom(cur: _RefCursor, pres: Presentation) -> Element:
    tok = cur.peek()
    if tok.kind == "int":
        cur.next()
        return pres.const(int(tok.text))
    if cur.accept("punct", "("):
        inner = _ref_expr(cur, pres)
        cur.expect("punct", ")")
        return inner
    if tok.kind == "name":
        cur.next()
        if tok.text == "s":
            cur.expect("punct", "(")
            inner = _ref_expr(cur, pres)
            cur.expect("punct", ",")
            k = _ref_signed_int(cur)
            cur.expect("punct", ")")
            return inner.sigma(k)
        if tok.text == "wp":
            cur.expect("punct", "(")
            inner = _ref_expr(cur, pres)
            cur.expect("punct", ")")
            return inner.wp()
        name = tok.text
        if not pres.has_gen(name):
            raise SemanticError(f"unknown generator {name!r}")
        if cur.accept("punct", "["):
            shift = _ref_signed_int(cur)
            cur.expect("punct", "]")
            if not pres.spec(name).is_free:
                raise SemanticError(f"generator {name!r} is not free; shifts need s(...)")
            return pres.gen(name, shift)
        return pres.gen(name)
    raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.line, tok.column)


def _ref_angle(cur: _RefCursor) -> CircleValue:
    num = _ref_signed_int(cur)
    if cur.accept("punct", "/"):
        den = _ref_signed_int(cur)
        if den == 0:
            tok = cur.peek()
            raise ParseError("zero denominator in angle", tok.line, tok.column)
        return CircleValue(Fraction(num, den))
    return CircleValue(Fraction(num))



def reference_parse_document(text: str) -> Document:
    cur = _RefCursor(reference_tokenize(text))
    pres = Presentation.empty()
    doc = Document(pres, source=text)

    def current() -> Presentation:
        return doc.presentation

    while cur.peek().kind != "end":
        tok = cur.expect("name")
        word = tok.text
        if word == "gen":
            name_tok = cur.expect("name")
            name = name_tok.text
            if name in _REF_RESERVED:
                raise SemanticError(f"generator name {name!r} is reserved")
            kind = cur.expect("name")
            if kind.text == "free":
                doc.presentation, _ = current().with_free(name)
            elif kind.text == "affine":
                cur.expect("name", "linear")
                cur.expect("punct", "=")
                linear = _ref_expr(cur, current())
                cur.expect("name", "const")
                cur.expect("punct", "=")
                const = _ref_expr(cur, current())
                try:
                    doc.presentation, _ = current().with_affine(name, linear, const)
                except PresentationError as exc:
                    raise SemanticError(str(exc)) from exc
            else:
                raise ParseError("expected 'free' or 'affine'", kind.line, kind.column)
        elif word == "twisted":
            cur.expect("name", "e1")
            cur.expect("punct", "=")
            e1 = _ref_expr(cur, current())
            cur.expect("punct", ",")
            cur.expect("name", "e2")
            cur.expect("punct", "=")
            e2 = _ref_expr(cur, current())
            doc.twisted = (e1, e2)
        elif word == "mult":
            cur.expect("name", "e")
            cur.expect("punct", "=")
            e = _ref_expr(cur, current())
            cur.expect("punct", ",")
            cur.expect("name", "z")
            cur.expect("punct", "=")
            z = _ref_signed_int(cur)
            doc.mult = (e, z)
        elif word == "system":
            cur.expect("name", "blocks")
            blocks = [[cur.expect("name").text]]
            while True:
                if cur.accept("punct", ","):
                    blocks[-1].append(cur.expect("name").text)
                elif cur.accept("punct", "|"):
                    blocks.append([cur.expect("name").text])
                else:
                    break
            doc.blocks = blocks
        elif word == "summand":
            idx = int(cur.expect("int").text)
            cur.expect("punct", "=")
            doc.summands[idx] = _ref_expr(cur, current())
        elif word == "rewrite":
            idx = int(cur.expect("int").text)
            cur.expect("punct", "=")
            doc.rewrites[idx] = _ref_expr(cur, current())
        elif word == "witness":
            idx = int(cur.expect("int").text)
            cur.expect("punct", "=")
            doc.witnesses[idx] = _ref_expr(cur, current())
        elif word == "target":
            doc.target = _ref_expr(cur, current())
        elif word == "assign":
            elem = _ref_expr(cur, current())
            cur.expect("punct", "=")
            doc.assignments.append((elem, _ref_angle(cur)))
        elif word == "query":
            elem = _ref_expr(cur, current())
            if cur.accept("name", "free"):
                doc.queries.append((elem, None))
            else:
                cur.expect("punct", "=")
                doc.queries.append((elem, _ref_angle(cur)))
        elif word == "tuple":
            elems = [_ref_expr(cur, current())]
            while cur.accept("punct", ","):
                elems.append(_ref_expr(cur, current()))
            doc.tuple_elems = elems
        elif word == "height":
            doc.height = int(cur.expect("int").text)
        elif word == "subfield":
            names = [cur.expect("name").text]
            while cur.accept("punct", ","):
                names.append(cur.expect("name").text)
            for n in names:
                if not current().has_gen(n):
                    raise SemanticError(f"unknown generator {n!r} in subfield")
            doc.subfield = names
        elif word == "torsor":
            doc.torsor = _ref_expr(cur, current())
        elif word in ("r12", "r13", "r23"):
            cur.expect("punct", "=")
            doc.r_values[word] = _ref_angle(cur)
        elif word == "closure":
            doc.closure = _ref_expr(cur, current())
        else:
            raise ParseError(f"unknown statement {word!r}", tok.line, tok.column)
        cur.expect("punct", ";")
    return doc


# -- the gcd before its integer kernel, and the monomial order before its sort
#    key: Knuth's primitive PRS over Fraction-scaled MPolys, and the graded
#    lexicographic comparison; the differential reference of
#    tests/test_poly_ratfunc.py


def reference_mono_cmp(a, b) -> int:
    """Graded lexicographic comparison (positive when a > b)."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            if ea != eb:
                # Same leading variable: larger exponent is lex-larger.
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif va < vb:
            return 1  # a has the earlier variable with positive exponent
        else:
            return -1
    if ia < len(a):
        return 1
    if ib < len(b):
        return -1
    return 0


def reference_leading_monomial(p):
    best = None
    for m in p.terms:
        if best is None or reference_mono_cmp(m, best) > 0:
            best = m
    return best


def _ref_divexact(a, b):
    if b.is_constant():
        return a.scale(Fraction(1) / b.constant_value())
    quot = {}
    rem = a
    lm_b = reference_leading_monomial(b)
    lc_b = b.terms[lm_b]
    while not rem.is_zero():
        lm_r = reference_leading_monomial(rem)
        db = dict(lm_r)
        assert all(db.get(v, 0) >= e for v, e in lm_b), "inexact polynomial division"
        for v, e in lm_b:
            db[v] -= e
        m = tuple(sorted((v, e) for v, e in db.items() if e))
        c = Fraction(rem.terms[lm_r]) / lc_b
        quot[m] = c
        rem = rem - MPoly({m: c}) * b
    return MPoly(quot)


def _ref_to_univar(p, v):
    out = {}
    for m, c in p.terms.items():
        deg = 0
        rest = []
        for w, e in m:
            if w == v:
                deg = e
            else:
                rest.append((w, e))
        out.setdefault(deg, {})[tuple(rest)] = c
    return {d: MPoly(t) for d, t in out.items()}


def _ref_univar_degree(coeffs):
    degs = [d for d, c in coeffs.items() if not c.is_zero()]
    return max(degs) if degs else -1


def _ref_prem(a, b):
    db = _ref_univar_degree(b)
    lb = b[db]
    r = dict(a)
    while True:
        dr = _ref_univar_degree(r)
        if dr < db:
            return r
        lr = r[dr]
        new = {d: c * lb for d, c in r.items()}
        for d, c in b.items():
            nd = d + dr - db
            new[nd] = new.get(nd, MPoly()) - c * lr
        r = {d: c for d, c in new.items() if not c.is_zero()}
        if not r:
            return r


def _ref_int_content_scale(coeffs):
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    num = 0
    for c in coeffs:
        num = math.gcd(num, c.numerator * (den // c.denominator))
    return Fraction(den, num) if num else Fraction(1)


def _ref_int_primitive(p):
    if p.is_zero():
        return p
    q = p.scale(_ref_int_content_scale(p.terms.values()))
    if q.terms[reference_leading_monomial(q)] < 0:
        q = q.scale(-1)
    return q


def _ref_content(coeffs):
    g = MPoly()
    for c in coeffs.values():
        g = reference_gcd_primitive(g, c)
        if g.is_constant() and not g.is_zero():
            break
    return g if not g.is_zero() else MPoly.const(1)


def _ref_strip_int_content_univar(coeffs):
    scale = _ref_int_content_scale([coef for c in coeffs.values() for coef in c.terms.values()])
    if scale == 1:
        return coeffs
    return {d: c.scale(scale) for d, c in coeffs.items()}


def _ref_monomial_gcd(single, other):
    (mono,) = single.terms
    out = []
    for v, e in mono:
        low = min([e] + [dict(m).get(v, 0) for m in other.terms])
        if low > 0:
            out.append((v, low))
    return MPoly({tuple(out): 1})


def reference_gcd_primitive(a, b):
    """The integer-primitive gcd with a positive leading coefficient."""
    if a.is_zero():
        return _ref_int_primitive(b)
    if b.is_zero():
        return _ref_int_primitive(a)
    if a.is_constant() or b.is_constant():
        return MPoly.const(1)
    if len(a.terms) == 1:
        return _ref_monomial_gcd(a, b)
    if len(b.terms) == 1:
        return _ref_monomial_gcd(b, a)
    a = _ref_int_primitive(a)
    b = _ref_int_primitive(b)
    avars = a.variables()
    bvars = b.variables()
    v = min(avars | bvars, key=lambda v: (a.degree_in(v) + b.degree_in(v), v))
    if v not in avars:
        return reference_gcd_primitive(a, _ref_content(_ref_to_univar(b, v)))
    if v not in bvars:
        return reference_gcd_primitive(_ref_content(_ref_to_univar(a, v)), b)
    ua = _ref_to_univar(a, v)
    ub = _ref_to_univar(b, v)
    ca = _ref_content(ua)
    cb = _ref_content(ub)
    cont = reference_gcd_primitive(ca, cb)
    pa = {d: _ref_divexact(c, ca) for d, c in ua.items()}
    pb = {d: _ref_divexact(c, cb) for d, c in ub.items()}
    if _ref_univar_degree(pa) < _ref_univar_degree(pb):
        pa, pb = pb, pa
    while True:
        r = _ref_prem(pa, pb)
        if not r:
            break
        r = _ref_strip_int_content_univar(r)
        cr = _ref_content(r)
        pa = pb
        pb = {d: _ref_divexact(c, cr) for d, c in r.items()}
        pb = _ref_strip_int_content_univar(pb)
    vp = MPoly.var(v)
    g = MPoly()
    for d in sorted(pb):
        g = g + pb[d] * vp**d
    return _ref_int_primitive(g * cont)


def reference_monic(p):
    """p over its leading coefficient; the monic gcd is the primitive one made monic."""
    if p.is_zero():
        return p
    return p.scale(Fraction(1) / p.terms[reference_leading_monomial(p)])


# -- the relation layer before the tracker: every call evaluates every element
#    afresh at points drawn from random.Random(0), then checks each kernel vector


def reference_points(nvars):
    """Point k draws its coordinates from [-B, B], B = 2^(8 + k // 64), from random.Random(0)."""
    rng = random.Random(0)
    for k in itertools.count():
        box = 1 << (8 + k // 64)
        yield [rng.randrange(-box, box + 1) for _ in range(nvars)]


def _ref_value(p, index, point):
    total = Fraction(0)
    for m, c in p.terms.items():
        for v, e in m:
            c *= point[index[v]] ** e
        total += c
    return total


def reference_relation_rref(elems):
    """The reduced row echelon form of the values of elems at the points, with
    n more rows until every kernel vector is checked exactly; a point where a
    denominator vanishes is skipped."""
    n = len(elems)
    variables = sorted(set().union(*(e.variables() for e in elems)))
    index = {v: i for i, v in enumerate(variables)}
    echelon = Echelon(n)
    points = reference_points(len(variables))
    rows, budget = 0, n
    while True:
        while rows < budget and len(echelon.pivots) < n:
            point = next(points)
            dens = [_ref_value(e.den, index, point) for e in elems]
            if all(dens):
                values = {j: _ref_value(e.num, index, point) / d for j, (e, d) in enumerate(zip(elems, dens))}
                echelon.add_row({j: v for j, v in values.items() if v}, 0)
                rows += 1
        exact = []
        for z in echelon.kernel():
            total = RatFunc.zero()
            for j, c in z.items():
                total = total + RatFunc.const(c) * elems[j]
            exact.append(total.is_zero())
        if all(exact):
            break
        budget = rows + n
    # row p: 1 at pivot p and -z[p] at each free column f, z the kernel direction of f
    out = {p: [1 if j == p else 0 for j in range(n)] for p in echelon.pivots}
    for f, z in zip([f for f in range(n) if f not in echelon.pivots], echelon.kernel()):
        for p, v in z.items():
            if p != f:
                out[p][f] = -v
    return [out[p] for p in sorted(out)]


def reference_linear_relations(elems):
    return [tuple(Fraction(z) for z in vec) for vec in integer_kernel(reference_relation_rref(elems), len(elems))]


def reference_express_in_span(basis, target):
    matrix = reference_relation_rref([*basis, target])
    if not matrix:
        return [Fraction(0)] * len(basis)
    rhs = [row.pop() for row in matrix]
    coords = solve_affine(matrix, rhs)
    return None if coords is None else list(map(Fraction, coords))


def reference_span_grows(kept, f):
    """Whether f grows the span of the kept values, as SpanTracker.add answered."""
    return not f.is_zero() and reference_express_in_span(kept, f) is None


# -- character tables, sigma-testing every element first


def reference_extend_character(table, assignments):
    """extend_character as it was before it tested only new directions."""
    tracker = table.tracker.fork()
    for elem, _ in assignments:
        if not elem.is_fixed():
            raise CharacterError(f"element {elem} is not fixed")
        tracker.add(elem.value)
    combined = CharacterTable(table.pres, table.entries + tuple(assignments))
    combined.__dict__["tracker"] = tracker
    bad = combined.consistency()
    return combined if bad is None else bad


def reference_value_of(table, element):
    """value_of with the sigma test first, for every element."""
    if not element.is_fixed():
        raise CharacterError(f"element {element} is not fixed")
    if not table.entries:
        return None
    combo = table.tracker.express(element.value)
    if combo is None:
        return None
    return CircleValue(sum((q * v.angle for q, v in zip(combo, table.angles())), Fraction(0)))
