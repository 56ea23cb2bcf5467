"""Grammar round-trips, error positions, CLI exit codes, reproducibility, and
the parser against its previous version (tests/conftest.py)."""

import dataclasses
import gc
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest
from conftest import reference_parse_document, reference_tokenize, run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from diffield import cli
from diffield.field import Element
from diffield.parser import (
    MAX_NESTING,
    MAX_POWER_DIGITS,
    MAX_POWER_TERMS,
    ParseError,
    SemanticError,
    parse_document,
    print_element,
    tokenize,
)
from diffield.systems import AdditiveEquation

ROOT = Path(__file__).resolve().parents[1]

DOC = """
gen g free;
gen t affine linear=1 const=1;
gen a1 affine linear=g const=g;
twisted e1 = 1, e2 = a1;
"""


def test_parse_presentation_and_rule():
    doc = parse_document(DOC)
    assert doc.presentation.names() == ("g", "t", "a1")
    e1, e2 = doc.twisted
    assert e1 == 1 and e2 == doc.presentation.gen("a1")


def test_statements_of_one_shape_fill_their_own_fields():
    doc = parse_document(
        "gen g free;\nsummand 1 = g; rewrite 2 = 2*g; witness 3 = 3*g;\n"
        "target 4*g; torsor 5*g; closure 6*g;\n"
    )
    g = doc.presentation.gen("g")
    assert (doc.summands, doc.rewrites, doc.witnesses) == ({1: g}, {2: 2 * g}, {3: 3 * g})
    assert (doc.target, doc.torsor, doc.closure) == (4 * g, 5 * g, 6 * g)


def test_rule_expression_evaluates_to_zero():
    text = DOC + "summand 1 = s(a1, 1) - g*a1 - g;\nsystem blocks a1;\n"
    doc = parse_document(text)
    assert doc.summands[1].is_zero()


def test_shift_sugar_and_sigma_powers():
    doc = parse_document("gen g free; summand 1 = g[2] - s(g, 2); system blocks g;")
    assert doc.summands[1].is_zero()


def test_wp_function():
    doc = parse_document(DOC + "summand 1 = wp(a1) - (g - 1)*a1 - g;")
    assert doc.summands[1].is_zero()


def test_malformed_shift_reports_position():
    with pytest.raises(ParseError) as err:
        parse_document("gen g free;\nsummand 1 = g[;")
    assert "line 2" in str(err.value)
    assert "column" in str(err.value)


def test_unknown_generator_semantic_error():
    with pytest.raises(SemanticError, match="unknown generator"):
        parse_document("gen g free; twisted e1 = 1, e2 = h;")


def test_stratification_error_names_generator():
    with pytest.raises(SemanticError):
        parse_document("gen a affine linear=b const=1;")


def test_element_round_trip():
    doc = parse_document(DOC)
    p = doc.presentation
    elems = [
        p.gen("a1") * p.gen("g", -1) + 3,
        (p.gen("g") ** 2 - 1) / (p.gen("g") + 1),
        p.const(0),
        -p.gen("t") / (2 * p.gen("g", 2)),
    ]
    for e in elems:
        text = f"gen g free; gen t affine linear=1 const=1; gen a1 affine linear=g const=g; summand 1 = {print_element(e)};"
        again = parse_document(text)
        assert again.summands[1] == e, print_element(e)


def _run_cli(args, tmp_path):
    return run_cli(args, cwd=str(tmp_path), timeout=300)


def test_cli_solution_exit_zero(tmp_path):
    doc = tmp_path / "job.df"
    doc.write_text("gen g free;\ngen t affine linear=1 const=1;\ntwisted e1 = 1, e2 = 1;\n")
    proc = _run_cli(["solve-sas", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout[: proc.stdout.rindex("}") + 1])
    assert report["schema_version"] == 1
    assert report["result"]["verdict"] == "solution"
    assert report["result"]["witness"] == "t"


def test_cli_main_leaves_no_argparse_garbage(tmp_path, capsys):
    doc = tmp_path / "job.df"
    doc.write_text("gen g free;\ngen t affine linear=1 const=1;\ntwisted e1 = 1, e2 = 1;\n")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(["solve-sas", str(doc)]) == 0
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left
    assert "solution" in capsys.readouterr().out


def test_cli_unreadable_input_exit_two(tmp_path):
    for path in (tmp_path / "missing.df", tmp_path):
        proc = _run_cli(["solve-sas", str(path)], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "input error: cannot read" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_unwritable_output_exit_two(tmp_path):
    job = ROOT / "jobs" / "torsor_over_closed_base.df"
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        proc = _run_cli(["solve-sas", str(job), "--out", str(out)], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"output error: cannot write {str(out)!r}" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_input_error_exit_two(tmp_path):
    doc = tmp_path / "bad.df"
    doc.write_text("gen g[ free;\n")
    proc = _run_cli(["solve-sas", str(doc)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "syntax error" in proc.stderr


def test_cli_decompose_invalid_equation_exit_two(tmp_path):
    doc = tmp_path / "bad_eq.df"
    doc.write_text(
        "gen x1 free; gen x2 free; gen x3 free;\n"
        "system blocks x1 | x2 | x3;\n"
        "summand 1 = x1 - x3;\n"
        "summand 2 = x3 - x1;\n"
        "summand 3 = 0;\n"
    )
    proc = _run_cli(["decompose", str(doc)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "input error: summand 1 mentions block 1\n"


FREE_BLOCKS = "gen x1 free; gen x2 free;\n"


@pytest.mark.parametrize(
    "statements, message",
    [
        ("gen b affine linear=1 const=x1;\nsystem blocks x1 | x2;", "rule of 'b' mentions 'x1' outside its corner"),
        ("system blocks x1 | x1;", "a generator is assigned to two blocks"),
        ("system blocks x1 | y;", "unknown block generator 'y'"),
    ],
    ids=["base rule names a block", "a name in two blocks", "unknown block name"],
)
@pytest.mark.parametrize("command", ["decompose", "nsas-check"])
def test_cli_malformed_system_exit_two(tmp_path, capsys, command, statements, message):
    doc = tmp_path / "system.df"
    doc.write_text(FREE_BLOCKS + statements + "\nsummand 1 = 0; summand 2 = 0;\ntarget 0;\n")
    assert cli.main([command, str(doc)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("command, job", [("decompose", "cocycle"), ("ff-decompose", "ff_planted")])
def test_cli_validates_each_equation_once(tmp_path, monkeypatch, command, job):
    calls = []
    real = AdditiveEquation.validate

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(AdditiveEquation, "validate", counting)
    assert cli.main([command, str(ROOT / "jobs" / f"{job}.df"), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


HYPERPLANE = {"tuple": "tuple g, 2*g;\n", "height": "height 2;\n", "subfield": "subfield g;\n"}
AMALG = "amalg-check needs 'torsor' and r12/r13/r23 statements"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("solve-sas", "gen g free;\n", "missing 'twisted e1 = ..., e2 = ...;' statement"),
        ("solve-mult", "gen g free;\n", "missing 'mult e = ..., z = ...;' statement"),
        ("decompose", FREE_BLOCKS + "summand 1 = 0;\n", "missing 'system blocks ...;' statement"),
        ("ff-decompose", FREE_BLOCKS + "system blocks x1 | x2;\n", "missing 'summand i = ...;' statements"),
        ("nsas-check", FREE_BLOCKS + "system blocks x1 | x2;\n", "nsas-check needs a 'target' statement"),
        ("closure-step", "gen g free;\n", "closure-step needs a 'closure <expr>;' statement"),
        *(
            (
                "hyperplane",
                "gen g free;\n" + "".join(line for key, line in HYPERPLANE.items() if key != missing),
                "hyperplane needs 'tuple', 'height' and 'subfield' statements",
            )
            for missing in HYPERPLANE
        ),
        ("amalg-check", "gen g free;\nr12 = 0; r13 = 0; r23 = 0;\n", AMALG),
        ("amalg-check", "gen g free;\ntorsor g;\nr12 = 0; r23 = 0;\n", AMALG),
    ],
)
def test_cli_command_without_its_statement_exit_two(tmp_path, capsys, command, text, message):
    doc = tmp_path / "job.df"
    doc.write_text(text)
    assert cli.main([command, str(doc)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_cli_require_decision_exit_three(tmp_path):
    doc = tmp_path / "job.df"
    doc.write_text(
        "gen g free;\ngen t affine linear=1 const=1;\n"
        "gen a1 affine linear=g const=g;\ntwisted e1 = 1, e2 = a1;\n"
    )
    proc = _run_cli(
        ["solve-sas", str(doc), "--bounds-degree", "2", "--bounds-window", "1", "--require-decision"],
        tmp_path,
    )
    assert proc.returncode == 3, proc.stderr
    assert "no solution within bounds" in proc.stdout


def test_cli_unsolvable_certificate(tmp_path):
    doc = tmp_path / "job.df"
    doc.write_text("gen g free;\ntwisted e1 = g, e2 = g;\n")
    proc = _run_cli(["solve-sas", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout[: proc.stdout.rindex("}") + 1])
    assert report["result"]["verdict"] == "unsolvable"
    assert report["result"]["certificate"]["kind"] == "free-base"


def test_cli_decompose_and_seeded_reproducibility(tmp_path):
    doc = tmp_path / "dec.df"
    doc.write_text(
        "gen x1 free; gen x2 free; gen x3 free;\n"
        "system blocks x1 | x2 | x3;\n"
        "summand 1 = x2*x2 - x3;\n"
        "summand 2 = x3 - x1*x1;\n"
        "summand 3 = x1*x1 - x2*x2;\n"
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    p1 = _run_cli(["decompose", str(doc), "--seed", "7", "--out", str(out1)], tmp_path)
    p2 = _run_cli(["decompose", str(doc), "--seed", "7", "--out", str(out2)], tmp_path)
    assert p1.returncode == p2.returncode == 0, p1.stderr + p2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    different = _run_cli(["decompose", str(doc), "--seed", "8", "--out", str(out2)], tmp_path)
    assert different.returncode == 0, different.stderr  # may or may not differ; only determinism matters


def test_cli_mult(tmp_path):
    doc = tmp_path / "m.df"
    doc.write_text("gen g free;\nmult e = g, z = 2;\n")
    proc = _run_cli(["solve-mult", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "unsolvable" in proc.stdout


def test_cli_hyperplane(tmp_path):
    doc = tmp_path / "h.df"
    doc.write_text(
        "gen g free;\ngen u affine linear=1 const=1;\ngen v affine linear=1 const=1;\n"
        "tuple u - v, 2*u - 2*v + 3;\nheight 3;\nsubfield g;\n"
    )
    proc = _run_cli(["hyperplane", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout[: proc.stdout.rindex("}") + 1])
    assert report["result"]["coefficients"] == [2, -1]
    assert report["result"]["value"] == "-3"


def test_cli_closure_step(tmp_path):
    doc = tmp_path / "c.df"
    doc.write_text("gen g free;\nclosure 1;\n")
    proc = _run_cli(["closure-step", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "adjoined" in proc.stdout


CLOSED_BASE = "gen g free;\ngen t1 affine linear=1 const=1;\n"


def test_cli_rebuilds_the_registry_over_a_closed_base(tmp_path, capsys):
    doc = tmp_path / "c.df"
    doc.write_text(CLOSED_BASE + "closure g;\n")
    assert cli.main(["closure-step", str(doc)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[: out.rindex("}") + 1])["result"]["generator"] == "t2"
    assert out.endswith("closure-step: adjoined t2\n")
    # over a torsor step the certifier refuses sigma(x) - x = g (alpha = 1 and e1 = 1): Unknown
    doc.write_text(CLOSED_BASE + "torsor g;\nr12 = 1/3; r13 = 2/3; r23 = 1/3;\n")
    assert cli.main(["amalg-check", str(doc)]) == 2
    assert capsys.readouterr().err == "input error: refused: the torsor is not certified unrealized over the base\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("gen h free;\n", "this command needs a presentation with a free generator named g"),
        ("gen g free;\ngen h free;\n", "extra free generators are not supported by the registry"),
        ("gen g free;\ngen a affine linear=g const=g;\n", "registry re-certification supports torsor extensions only"),
    ],
)
def test_cli_registry_rebuild_refuses_other_bases(tmp_path, capsys, text, message):
    doc = tmp_path / "c.df"
    doc.write_text(text + "closure 1;\n")
    assert cli.main(["closure-step", str(doc)]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_cli_verify_counterexample_reduced_bounds(tmp_path):
    outs = []
    for run in (1, 2):
        out = tmp_path / f"cx{run}.json"
        proc = _run_cli(
            [
                "verify-counterexample",
                "--bounds-degree", "2",
                "--bounds-window", "1",
                "--out", str(out),
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "refuted with certificate chain" in proc.stdout
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["result"]["verdict"] == "refuted with certificate chain"
    assert report["result"]["control"]["bounded_found"] is True
    assert report["result"]["registry_replayed"] is True


def test_cli_ff_decompose(tmp_path):
    doc = tmp_path / "ff.df"
    doc.write_text(
        "gen g free;\n"
        "gen u1 affine linear=1 const=g; gen v1 affine linear=1 const=g;\n"
        "gen u2 affine linear=1 const=g; gen v2 affine linear=1 const=g;\n"
        "gen u3 affine linear=1 const=g; gen v3 affine linear=1 const=g;\n"
        "system blocks u1, v1 | u2, v2 | u3, v3;\n"
        "summand 1 = (u3 - v3) - (u2 - v2);\n"
        "summand 2 = (u1 - v1) - (u3 - v3);\n"
        "summand 3 = (u2 - v2) - (u1 - v1);\n"
    )
    proc = _run_cli(["ff-decompose", str(doc), "--bounds-degree", "2", "--bounds-window", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "decomposed" in proc.stdout


NOT_FIXED = (
    "gen g free;\n"
    "gen u1 affine linear=1 const=g; gen v1 affine linear=1 const=g;\n"
    "assign (u1 - v1) = 1/3;\n"
)


@pytest.mark.parametrize("query", ["query u1 free;\nquery g free;\n", "query u1 = 1/2;\n"], ids=["free", "angle"])
def test_cli_character_refuses_a_query_that_is_not_fixed(tmp_path, capsys, query):
    # u1 is outside the span of u1 - v1 and sigma(u1) = u1 + g: neither form
    # of query may call it free or give it a value
    doc = tmp_path / "c.df"
    doc.write_text(NOT_FIXED + query)
    assert cli.main(["character", str(doc)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "input error: element u1 is not fixed\n"


def test_cli_amalg_check(tmp_path):
    doc = tmp_path / "a.df"
    doc.write_text("gen g free;\ntorsor g;\nr12 = 1/3; r13 = 2/3; r23 = 1/3;\n")
    proc = _run_cli(["amalg-check", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "solvable" in proc.stdout


NSAS_SYSTEM = (
    "gen g free;\n"
    "gen u1 affine linear=1 const=g;\ngen u2 affine linear=1 const=g;\n"
    "system blocks u1 | u2;\n"
    "target 2*g;\n"
)


def test_cli_nsas_check(tmp_path):
    doc = tmp_path / "n.df"
    doc.write_text(
        NSAS_SYSTEM + "summand 1 = g; summand 2 = g;\n"
        "rewrite 1 = g; rewrite 2 = g;\n"
        "witness 1 = u2; witness 2 = u1;\n"
    )
    proc = _run_cli(["nsas-check", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "verified" in proc.stdout
    # a summand outside the rewritten indices, and indices outside 1..n, are checked too
    rejected = {
        "summand 1 = g - u2; summand 2 = g + u2;\nrewrite 1 = 2*g;\nwitness 1 = 2*u2;\n": [
            "membership: summand 2 escapes its corner"
        ],
        "summand 1 = g; summand 2 = g;\nrewrite 1 = g; rewrite 7 = g;\nwitness 1 = u2; witness 7 = u1;\n": [
            "index: rewrite 7 outside 1..2",
            "index: witness 7 outside 1..2",
        ],
    }
    for statements, problems in rejected.items():
        doc.write_text(NSAS_SYSTEM + statements)
        out = tmp_path / "n.json"
        assert cli.main(["nsas-check", str(doc), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result == {"verdict": "rejected", "problems": problems}, statements


# -- the one-pass front end against the parser before it (tests/conftest.py)


def _plain(value):
    """Documents compared field by field; an element by its presentation and value."""
    if isinstance(value, Element):
        return ("element", value.pres, value.value)
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _outcome(parse, text):
    try:
        doc = parse(text)
    except ValueError as exc:  # ParseError, SemanticError and PresentationError alike
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return {name: _plain(getattr(doc, name)) for name in type(doc).__match_args__}


def _tokens(tokenizer, text):
    try:
        return [tuple(tok) if isinstance(tok, tuple) else dataclasses.astuple(tok) for tok in tokenizer(text)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def assert_parses_like_the_reference(text):
    assert _tokens(tokenize, text) == _tokens(reference_tokenize, text)
    assert _outcome(parse_document, text) == _outcome(reference_parse_document, text)


@pytest.mark.parametrize("job", sorted(p.name for p in (ROOT / "jobs").glob("*.df")))
def test_job_documents_parse_like_the_reference(job):
    assert_parses_like_the_reference((ROOT / "jobs" / job).read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("stream", ["decide", "characters"])
def test_benchmark_documents_parse_like_the_reference(stream, seed):
    workloads = _workloads()
    for job in workloads.make_jobs(stream, seed, workloads.JOBS[stream]):
        assert_parses_like_the_reference(job["doc"])


PRELUDE = "gen g free;\ngen h free;\ngen a affine linear=g const=1;\n"
_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " # note\n"])
_ATOMS = st.sampled_from(["g", "h", "a", "g[1]", "h[-1]", "g[ 0 ]", "g[+2]", "0", "1", "2", "17", "(g + 1)"])


def _compound(inner):
    binary = st.tuples(inner, _SPACES, st.sampled_from("+-*/"), _SPACES, inner).map("".join)
    power = st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}")
    sigma = st.tuples(inner, st.integers(-2, 2)).map(lambda t: f"s({t[0]}, {t[1]})")
    return st.one_of(
        binary,
        power,
        sigma,
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"wp({e})"),
        inner.map(lambda e: f"({e})"),
    )


EXPRS = st.recursive(_ATOMS, _compound, max_leaves=5)


@st.composite
def documents(draw):
    """A prelude, statements over drawn expressions, and a generator added midway.

    The same names occur before and after the added generator, so their
    elements must move to the new presentation.
    """
    e = [draw(EXPRS) for _ in range(4)]
    statements = [
        f"summand 1 = {e[0]};",
        f"target {e[1]};",
        f"gen b affine linear=1 const={e[2]};",
        f"assign {e[3]} = -1/3;",
        f"query {e[0]} free;",
        f"tuple {e[1]}, b;",
        f"twisted e1 = {e[2]}, e2 = {e[3]};",
        "mult e = g, z = -2;",
    ]
    picked = draw(st.lists(st.sampled_from(statements), min_size=1, max_size=5))
    return PRELUDE + "\n".join(picked) + "\n"


@settings(max_examples=150, deadline=None)
@given(documents())
def test_drawn_documents_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


# Inserted characters: the grammar's own, whitespace, a comment, a letter and
# a non-letter outside ASCII.  No digit outside ASCII: that is the one place
# the two parsers differ on purpose (test_non_ascii_digits_are_unexpected).
_INSERTED = st.sampled_from(list("[](),;=+-*/^|:#_ \t\r\n0123456789gshaw.!{$\\\"'") + ["é", "§", "free", "gen"])


@settings(max_examples=200, deadline=None)
@given(documents(), st.data())
def test_malformed_documents_fail_like_the_reference(text, data):
    for _ in range(data.draw(st.integers(1, 3))):
        # edits from the affine generator on, where the expressions are
        i = data.draw(st.sampled_from(range(PRELUDE.index("gen a"), len(text) + 1)))
        edit = data.draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        if edit == "truncate":
            text = text[:i]
        elif edit == "insert":
            text = text[:i] + data.draw(_INSERTED) + text[i:]
        else:
            tail = text[i + 1 :]
            text = text[:i] + (data.draw(_INSERTED) if edit == "replace" else "") + tail
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize(
    ("text", "line", "column", "message"),
    [
        # a comment takes no columns: the end of input is at its '#'
        ("gen g free # trailing comment", 1, 12, "expected ';', found 'end of input'"),
        # a tab is one column
        ("gen g free;\n\ttarget\tg +;", 2, 12, "expected an expression, found ';'"),
        # CRLF: the '\r' is a column of its line, the '\n' starts the next
        ("gen g free;\r\ntarget g\r\n", 3, 1, "expected ';', found 'end of input'"),
        ("gen g free;\r\ntarget g;\r\ntarget g \r", 3, 11, "expected ';', found 'end of input'"),
        # errors past the second line
        ("gen g free;\n\n\ngen h fre;", 4, 7, "expected 'free' or 'affine'"),
        ("gen g free;\n# note\ntarget 1/(g - g);", 3, 10, "division by zero"),
        ("gen g free;\ntarget g;\nassign g = 1/0;", 3, 15, "zero denominator in angle"),
        ("gen g free;\ntarget g;\n\ntarget (g - g)^-1 ;", 4, 19, "zero to a negative power"),
        ("gen g free;\ntarget g;\ntarget g @ 1;", 3, 10, "unexpected character '@'"),
    ],
)
def test_error_positions_are_pinned(text, line, column, message):
    for parse in (parse_document, reference_parse_document):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"syntax error at line {line}, column {column}: {message}"


@pytest.mark.parametrize(
    ("text", "line", "column", "char"),
    [
        ("gen g free;\ntwisted e1 = 1, e2 = ²;", 2, 22, "²"),
        ("gen g free;\nmult e = g, z = ³;", 2, 17, "³"),
        ("gen g free;\nsummand 1 = 1²;", 2, 14, "²"),
        ("gen g free;\nheight ٣;", 2, 8, "٣"),
    ],
)
def test_non_ascii_digits_are_unexpected(text, line, column, char):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).endswith(f"unexpected character {char!r}")


def test_cli_non_ascii_digit_exit_two(tmp_path):
    doc = tmp_path / "digit.df"
    doc.write_text("gen g free;\nmult e = g, z = ³;\n", encoding="utf-8")
    proc = _run_cli(["solve-mult", str(doc)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "input error: syntax error at line 2, column 17: unexpected character '³'\n"


# Inputs past the parser's limits: nesting deeper than MAX_NESTING, and an
# integer literal longer than int() converts (no limit before Python 3.10.7).
DEEP = "gen g free;\ntarget " + "(" * 2000 + "g" + ")" * 2000 + ";\n"
NEGATED = "gen g free;\ntarget " + "-" * 3000 + "g;\n"
DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
LONG = "1" * (DIGITS + 1)
TOO_LONG = f"integer literal of {DIGITS + 1} digits is too long"
NESTED = f"expression nested deeper than {MAX_NESTING} levels"
# A base of 3 terms to the 200th power: C(202, 2) = 20301 terms by the estimate.
POWER = "gen g free;\ntarget (g + g[1] + 1)^200;\n"
TOO_MANY_TERMS = f"power estimated at over {MAX_POWER_TERMS} terms"
# 3^2000000 has 954,243 digits; the estimate is 2 bits per unit of exponent.
BIG_POWER = "gen g free;\ntwisted e1 = 1, e2 = 3^2000000;\n"
TOO_MANY_DIGITS = f"power estimated at over {MAX_POWER_DIGITS} digits"
needs_digit_limit = pytest.mark.skipif(DIGITS == 0, reason="the interpreter converts integers of any length")


@pytest.mark.parametrize(
    ("text", "line", "column", "message"),
    [
        # the (MAX_NESTING + 1)-th opening, after "target " on line 2
        (DEEP, 2, 8 + MAX_NESTING, NESTED),
        (NEGATED, 2, 8 + MAX_NESTING, NESTED),
        ("gen g free;\ntarget g;\ntarget 1 + " + "wp(" * 150 + "g" + ")" * 150 + ";", 3, 12 + 3 * MAX_NESTING, NESTED),
        pytest.param(f"gen g free;\nheight {LONG};", 2, 8, TOO_LONG, marks=needs_digit_limit),
        pytest.param(f"gen g free;\ntarget g + {LONG};", 2, 12, TOO_LONG, marks=needs_digit_limit),
        pytest.param(f"gen g free;\nmult e = g, z = -{LONG};", 2, 18, TOO_LONG, marks=needs_digit_limit),
        # at the '^' of the power
        (POWER, 2, 22, TOO_MANY_TERMS),
        ("gen g free;\ntarget g;\ntarget 1/(g + g[1] + 1)^-62;", 3, 24, TOO_MANY_TERMS),
        (BIG_POWER, 2, 23, TOO_MANY_DIGITS),
        ("gen g free;\ntarget (g/3)^-300000;", 2, 13, TOO_MANY_DIGITS),
    ],
    ids=["parentheses", "minus", "wp", "height", "term", "exponent", "power", "negative power", "digits", "rational digits"],
)
def test_deep_nesting_and_long_literals_are_positioned_parse_errors(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"syntax error at line {line}, column {column}: {message}"


def test_powers_up_to_the_term_estimate_parse():
    # three independent terms: the estimate C(63, 2) = 1953 is the term count
    doc = parse_document("gen g free;\ntarget (g + g[1] + 1)^61;\n")
    assert len(doc.target.value.num.terms) == 1953 <= MAX_POWER_TERMS
    # a base of one term has one term at any power
    doc = parse_document("gen g free;\ntarget (2*g[3])^-5000;\n")
    assert len(doc.target.value.den.terms) == 1


def test_powers_up_to_the_digit_estimate_parse():
    doc = parse_document("gen g free;\ntarget 3^100000 + 10^5000*g;\n")
    assert doc.target.value.num.terms[()] == 3**100000
    # a coefficient of 1 or -1 adds no digits at any power
    doc = parse_document("gen g free;\ntarget (-g[1])^-300000;\n")
    assert len(doc.target.value.den.terms) == 1


def test_a_power_past_the_digit_estimate_is_refused_before_it_is_taken():
    start = time.perf_counter()
    with pytest.raises(ParseError, match=TOO_MANY_DIGITS):
        parse_document(BIG_POWER)
    assert time.perf_counter() - start < 1.0


def test_nesting_up_to_the_limit_parses_like_the_reference():
    depth = MAX_NESTING - 1  # the statement's expression is the first level
    assert_parses_like_the_reference("gen g free;\ntarget " + "(" * depth + "g" + ")" * depth + ";\n")
    assert_parses_like_the_reference("gen g free;\ntarget " + "-" * depth + "g;\n")


@needs_digit_limit
def test_cli_deep_or_long_input_exit_two(tmp_path):
    for name, text in (
        ("deep", DEEP),
        ("negated", NEGATED),
        ("long", f"gen g free;\nheight {LONG};\n"),
        ("power", POWER),
        ("digits", BIG_POWER),
    ):
        doc = tmp_path / f"{name}.df"
        doc.write_text(text)
        proc = _run_cli(["solve-sas", str(doc)], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("input error: syntax error at line 2, column "), proc.stderr
        assert "Traceback" not in proc.stderr

def test_cli_reports_a_coefficient_past_the_int_to_str_digit_limit(tmp_path):
    doc = tmp_path / "large.df"
    doc.write_text("gen g free;\ntwisted e1 = 1, e2 = 10^5000;\n")
    proc = _run_cli(["solve-sas", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout[: proc.stdout.rindex("}") + 1])
    assert report["result"]["verdict"] == "unsolvable"
    assert report["result"]["equation"] == "sigma(x) - (1)*x = 1" + "0" * 5000


def test_each_atom_is_its_own_shift_over_the_current_presentation():
    doc = parse_document("gen g free; target g; gen h free; summand 1 = g[1] - g; summand 2 = g[1] - g[1];")
    pres = doc.presentation
    assert doc.summands[1] == pres.gen("g", 1) - pres.gen("g")
    assert doc.summands[2].is_zero()
    assert doc.target.pres.names() == ("g",)
    assert doc.summands[1].pres is pres
