"""Command-line front end: parse a job document, dispatch, report JSON.

One command per exported capability; no interactive mode.  Every run prints
a one-line human summary to stdout and writes (or prints) a single JSON
report with ``schema_version`` 1 and a stable field order, so byte-identical
reruns are a testable property.  Exit codes: 0 = analysis completed
(whatever the mathematical verdict), 2 = input or output error, 3 = bounds
exhausted where a definite answer was requested with --require-decision.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import CharacterTable, Obstruction, extend_character, hyperplane_search, value_of
from .counterexample import build_3amalg_obstruction, build_base, closure_step, run_pipeline
from .equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unsolvable,
)
from .field import PresentationError
from .freebase import FreeRefutation
from .parser import Document, ParseError, SemanticError, parse_document, print_element
from .systems import (
    AdditiveEquation,
    NotFoundWithinBounds,
    SystemModel,
    SystemModelError,
    check_n_sas_witness,
    decompose,
    ff_decompose_bounded,
    validate_decomposition,
)
from .tower import solve_multiplicative_bounded, solve_twisted_bounded

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDECIDED = 3

COMMANDS = (
    "solve-sas",
    "solve-mult",
    "decompose",
    "ff-decompose",
    "character",
    "hyperplane",
    "amalg-check",
    "nsas-check",
    "closure-step",
    "verify-counterexample",
)


# Built once: parse_args does not change the parser.
_PARSER = argparse.ArgumentParser(
    prog="diffield",
    description="exact solver and checker for finitely presented difference fields",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("input", nargs="?", help="job document (UTF-8 text)")
_PARSER.add_argument("--bounds-degree", type=int, default=6, metavar="N")
_PARSER.add_argument("--bounds-window", type=int, default=4, metavar="W")
_PARSER.add_argument("--seed", type=int, default=0, metavar="S")
_PARSER.add_argument("--require-decision", action="store_true")
_PARSER.add_argument("--out", metavar="PATH", help="write the JSON report here")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        doc = _load_document(args)
        bounds = SearchBounds(args.bounds_degree, args.bounds_window)
        result, summary, decided = _dispatch(args.command, doc, bounds, args.seed)
    except (ParseError, SemanticError, PresentationError, SystemModelError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "schema_version": 1,
        "command": args.command,
        "seed": args.seed,
        "bounds": {"degree": args.bounds_degree, "window": args.bounds_window},
        "input": None if doc is None else doc.source,
        "result": result,
    }
    payload = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"output error: cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(payload)
    print(summary)
    if args.require_decision and not decided:
        return EXIT_UNDECIDED
    return EXIT_OK


def _load_document(args) -> Document | None:
    if args.command == "verify-counterexample":
        return None
    if not args.input:
        raise SemanticError(f"command {args.command!r} needs an input document")
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SemanticError(f"cannot read {args.input!r}: {exc.strerror}") from exc
    return parse_document(text)


def _dispatch(command: str, doc: Document | None, bounds: SearchBounds, seed: int):
    if command == "solve-sas":
        if doc.twisted is None:
            raise SemanticError("missing 'twisted e1 = ..., e2 = ...;' statement")
        eq = TwistedEquation(*doc.twisted)
        res = solve_twisted_bounded(doc.presentation, eq, bounds)
        return _solve_result(res, repr(eq))
    if command == "solve-mult":
        if doc.mult is None:
            raise SemanticError("missing 'mult e = ..., z = ...;' statement")
        eq = MultiplicativeEquation(*doc.mult)
        res = solve_multiplicative_bounded(doc.presentation, eq, bounds)
        return _solve_result(res, repr(eq))
    if command in ("decompose", "ff-decompose"):
        model, eq = _equation_from(doc)
        if command == "decompose":
            dec = decompose(model, eq, seed=seed)
            ok, problems = validate_decomposition(model, eq, dec)
            result = {
                "verdict": "decomposed" if ok else "invalid",
                "entries": _dec_entries(dec),
                "problems": problems,
            }
            return result, f"decompose: {result['verdict']}", True
        res = ff_decompose_bounded(model, eq, bounds)
        if isinstance(res, NotFoundWithinBounds):
            return (
                {"verdict": "not found within bounds"},
                "ff-decompose: not found within bounds",
                False,
            )
        return (
            {"verdict": "decomposed", "entries": _dec_entries(res)},
            "ff-decompose: decomposed",
            True,
        )
    if command == "character":
        table = CharacterTable.empty(doc.presentation)
        got = extend_character(table, doc.assignments)
        if isinstance(got, Obstruction):
            return (
                {"verdict": "inconsistent assignments", "obstruction": repr(got)},
                "character: assignments inconsistent",
                True,
            )
        table = got
        answers = []
        verdict = "consistent"
        for elem, desired in doc.queries:
            if desired is None:
                forced = value_of(table, elem)
                answers.append(
                    {
                        "element": print_element(elem),
                        "free": forced is None,
                        "forced": None if forced is None else str(forced.angle),
                    }
                )
                continue
            got = extend_character(table, [(elem, desired)])
            if isinstance(got, Obstruction):
                verdict = "obstruction"
                answers.append(
                    {"element": print_element(elem), "obstruction": repr(got)}
                )
            else:
                table = got
                answers.append({"element": print_element(elem), "accepted": str(desired.angle)})
        return (
            {"verdict": verdict, "queries": answers},
            f"character: {verdict}",
            True,
        )
    if command == "hyperplane":
        if not doc.tuple_elems or doc.height is None or doc.subfield is None:
            raise SemanticError("hyperplane needs 'tuple', 'height' and 'subfield' statements")
        sub = doc.presentation.restrict(doc.subfield)
        witness = hyperplane_search(doc.tuple_elems, doc.height, sub, bounds)
        if witness is None:
            return {"verdict": "none"}, "hyperplane: none found", True
        return (
            {
                "verdict": "witness",
                "coefficients": list(witness.coefficients),
                "value": print_element(witness.value),
            },
            f"hyperplane: {witness.coefficients} -> {print_element(witness.value)}",
            True,
        )
    if command == "amalg-check":
        if doc.torsor is None or set(doc.r_values) != {"r12", "r13", "r23"}:
            raise SemanticError("amalg-check needs 'torsor' and r12/r13/r23 statements")
        base, registry = _registry_for(doc)
        rep = build_3amalg_obstruction(
            base,
            doc.torsor.in_presentation(base),
            registry,
            (doc.r_values["r12"], doc.r_values["r13"], doc.r_values["r23"]),
        )
        return (
            {"verdict": rep["verdict"], "forced_relation": rep["forced_relation"]},
            f"amalg-check: {rep['verdict']}",
            True,
        )
    if command == "nsas-check":
        model = _system_from(doc)
        if doc.target is None:
            raise SemanticError("nsas-check needs a 'target' statement")
        ok, problems = check_n_sas_witness(
            model, doc.target, doc.summands, doc.rewrites, doc.witnesses
        )
        return (
            {"verdict": "verified" if ok else "rejected", "problems": problems},
            f"nsas-check: {'verified' if ok else 'rejected'}",
            True,
        )
    if command == "closure-step":
        if doc.closure is None:
            raise SemanticError("closure-step needs a 'closure <expr>;' statement")
        base, registry = _registry_for(doc)
        pres, reg, step = closure_step(base, registry, doc.closure.in_presentation(base))
        return (
            {
                "verdict": "accepted",
                "generator": step.generator,
                "target": step.target,
                "families_recertified": [repr(e.query) for e in reg.entries],
            },
            f"closure-step: adjoined {step.generator}",
            True,
        )
    if command == "verify-counterexample":
        report = run_pipeline(
            bounds=SearchBounds(min(bounds.degree, 4), min(bounds.window, 3)),
            torsor_bounds=bounds,
            seed=seed,
        )
        return (
            report.to_dict(),
            f"verify-counterexample: {report.verdict}",
            report.verdict == "refuted with certificate chain",
        )
    raise SemanticError(f"unknown command {command!r}")


def _solve_result(res, equation: str):
    if isinstance(res, Solution):
        witness = print_element(res.witness)
        return {"verdict": "solution", "equation": equation, "witness": witness}, f"solution: {witness}", True
    if isinstance(res, NoSolutionWithinBounds):
        return (
            {
                "verdict": "no solution within bounds",
                "equation": equation,
                "bounds": {"degree": res.bounds.degree, "window": res.bounds.window},
            },
            "no solution within bounds",
            False,
        )
    if isinstance(res, Unsolvable):
        return (
            {
                "verdict": "unsolvable",
                "equation": equation,
                "certificate": certificate_to_dict(res.certificate),
            },
            "unsolvable (certificate attached)",
            True,
        )
    return ({"verdict": "unknown", "equation": equation, "reason": res.reason}, "unknown", False)


def _dec_entries(dec) -> list[dict]:
    out = []
    for (i, j) in sorted(dec):
        out.append({"i": i, "j": j, "value": print_element(dec[(i, j)])})
    return out


def _system_from(doc: Document) -> SystemModel:
    if doc.blocks is None:
        raise SemanticError("missing 'system blocks ...;' statement")
    return SystemModel.of(doc.presentation, doc.blocks)


def _equation_from(doc: Document):
    model = _system_from(doc)
    if not doc.summands:
        raise SemanticError("missing 'summand i = ...;' statements")
    return model, AdditiveEquation.of(model, doc.summands)


def _registry_for(doc: Document):
    """Certified base registry for documents over a single free generator g.

    The avoided-family registry is tied to bases built from one free g plus
    torsor extensions; re-certify it over the document's presentation.
    """
    pres = doc.presentation
    if "g" not in pres.names() or not pres.spec("g").is_free:
        raise SemanticError("this command needs a presentation with a free generator named g")
    base0, registry = build_base()
    names = list(pres.names())
    if names == ["g"]:
        return pres, registry
    current, reg = base0, registry
    for name in names:
        if name == "g":
            continue
        spec = pres.spec(name)
        if spec.is_free:
            raise SemanticError("extra free generators are not supported by the registry")
        if spec.kind.linear != current.one().value:
            raise SemanticError("registry re-certification supports torsor extensions only")
        target = current.element(spec.kind.constant)
        current, reg, _ = closure_step(current, reg, target, name=name)
    return current, reg


def certificate_to_dict(cert: FreeRefutation) -> dict:
    """The report record of a solver certificate.

    The bounded solvers return Unsolvable only through decide_free_base, so
    the certificate is always a free-base refutation.
    """
    data = cert.summary()
    data["equation_kind"] = data.pop("kind")
    return {"kind": "free-base", **data}


if __name__ == "__main__":
    raise SystemExit(main())
