"""A growth ladder: the pipeline and the free-base decision at rising sizes, each rung in a fresh process.

    python3 tools/ladder.py                          # every rung, into BENCH_ladder.json
    python3 tools/ladder.py --rungs 2,2 4,3 free:1:1 free:refuted:1 --out "$TMPDIR/ladder.json"
    python3 tools/ladder.py --src OTHER/src --label before

A pipeline rung ``d,w`` is ``run_pipeline(bounds=SearchBounds(d, w),
seed=1)`` with the torsor and control bounds at their defaults, at (2, 2),
(4, 3), (8, 4), (12, 6), (16, 8) and (20, 10).  Every run checks the answer
the construction fixes: the main verdict is ``refuted with certificate
chain`` and the control instance is refused.  Each run then repeats the
call from a cold denominator memo with counters on, for the deterministic
counts: tower calls, free-base searches and corner searches.

A free-base rung ``free:k:e1`` is ``decide_free_base`` on sigma(x) - e1*x =
e2 over Q(g), with e2 planted from x = (g[-1] + 2g + 1)/D, where D is the
product of the first k of (g[1] + 3), (g + 2), (g[-1] + 5), (g[2] + 7), for
k = 1..4 and e1 in {1, g}.  Its answer is a Solution whose witness solves
the equation; the counted run repeats the call counting the denominator
bound's gcds and divisions.

A refuted free-base rung ``free:refuted:k`` is ``decide_free_base`` on
sigma(x) - x = 1/D over Q(g), with D as above, for k = 1..4.  Its answer is
an Unsolvable whose refutation ``replay_refutation`` accepts; its report is
the refutation's repr.  The answer also records whether the right-hand
denominator Q2 = D divides H = sigma(A)*A*q1, A the ansatz's denominator
bound: the free-base decision reads its rows off the identity divided by
Q2 exactly when it does (see ``freebase.Ansatz.family``).  It is counted
like the planted rungs.

Each rung runs ``--repeat`` times, each time in a new interpreter that
imports the package from ``--src`` (the checkout's own ``src`` by default),
and records the median wall time of the timed call and the answer.  The
sha256 of the report (the pipeline report's JSON, the decision's repr) must
be the same in every run of a rung; it is recorded, so two labels can be
compared byte for byte.

A rung that passes its time limit (``--limit`` seconds for all its runs) is
recorded with status ``timeout`` and the rungs above it are still run.  The
results go under ``--label`` into the JSON file ``--out``; other labels
already in the file are kept.  Exits 1 when a rung crashes or gives a wrong
answer; a timeout is not a failure.  The ladder is evidence for growth, not
a gate: it checks answers, not times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNGS = (
    "2,2", "4,3", "8,4", "12,6", "16,8", "20,10",
    *(f"free:{k}:{e1}" for k in range(1, 5) for e1 in ("1", "g")),
    *(f"free:refuted:{k}" for k in range(1, 5)),
)
COUNTED = (("tower", "iter_twisted_branches"), ("tower", "twisted_family"), ("systems", "fixed_candidates"))
FREE_COUNTED = (("freebase", "poly_gcd"), ("freebase", "divexact"))
FREE_FACTORS = ((1, 3), (0, 2), (-1, 5), (2, 7))  # (shift s, constant c): the factor g[s] + c


def worker(spec: str) -> dict:
    """One timed run and one counted run of a rung, in this process."""
    import hashlib

    from diffield import tower

    if spec.startswith("free:refuted:"):
        call, describe, counted = _refuted_run(int(spec.rsplit(":", 1)[1]))
    elif spec.startswith("free:"):
        _, k, e1 = spec.split(":")
        call, describe, counted = _free_base_run(int(k), e1)
    else:
        call, describe, counted = _pipeline_run(*map(int, spec.split(",")))
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    report, answer = describe(result)
    counts = _count_calls(counted)
    tower._denominator_candidates.cache_clear()
    again, _ = describe(call())
    return {
        "wall_s": wall,
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "answer": answer,
        "counts": counts,
        "counted_report_matches": again == report,
    }


def _pipeline_run(degree: int, window: int):
    """The rung's timed call, what turns its result into (report JSON, answer), and its counted functions."""
    from diffield import SearchBounds, run_pipeline

    def describe(report) -> tuple[str, dict]:
        text = json.dumps(report.to_dict(), sort_keys=True, default=repr)
        return text, {"verdict": report.verdict, "control": report.control.verdict}

    return lambda: run_pipeline(bounds=SearchBounds(degree, window), seed=1), describe, COUNTED


def _free_base_run(k: int, e1_name: str):
    """The rung's timed decision, what turns it into (its repr, answer), and its counted functions."""
    from diffield import Solution, TwistedEquation
    from diffield.freebase import decide_free_base

    pres, den = _free_denominator(k)
    g = pres.gen("g")
    x = (pres.gen("g", -1) + 2 * g + 1) / den
    e1 = g if e1_name == "g" else pres.one()
    eq = TwistedEquation(e1, x.sigma() - e1 * x)

    def describe(res) -> tuple[str, dict]:
        solved = isinstance(res, Solution) and eq.holds_for(res.witness)
        return repr(res), {"verdict": type(res).__name__, "verified": solved}

    return lambda: decide_free_base(pres, eq), describe, FREE_COUNTED


def _refuted_run(k: int):
    """The refuted rung's timed decision, what turns it into (its repr, answer), and its counted functions."""
    from diffield import TwistedEquation, Unsolvable
    from diffield.freebase import _twisted_ansatz, decide_free_base, replay_refutation
    from diffield.params import LinComb
    from diffield.poly import divexact

    pres, den = _free_denominator(k)
    eq = TwistedEquation(pres.one(), pres.one() / den)

    def describe(res) -> tuple[str, dict]:
        replayed = isinstance(res, Unsolvable) and replay_refutation(pres, eq, res.certificate)
        rhs = LinComb.constant(pres, eq.e2)
        a_poly = _twisted_ansatz(pres, eq.e1, rhs, None, None).denominator
        try:
            divexact(a_poly.shift(1) * a_poly * eq.e1.value.den, rhs.den)
            divides = True
        except ValueError:
            divides = False
        report = repr(res.certificate) if isinstance(res, Unsolvable) else repr(res)
        return report, {"verdict": type(res).__name__, "replayed": replayed, "q2_divides_h": divides}

    return lambda: decide_free_base(pres, eq), describe, FREE_COUNTED


def _free_denominator(k: int):
    """Q(g) and the product of the first k of FREE_FACTORS."""
    from diffield import Presentation

    pres, _ = Presentation.empty().with_free("g")
    den = pres.one()
    for s, c in FREE_FACTORS[:k]:
        den = den * (pres.gen("g", s) + c)
    return pres, den


def _count_calls(counted) -> dict[str, int]:
    """Wrap each (module, name) of diffield with a counter; the dict fills as they run."""
    import importlib

    counts = {}
    for module_name, name in counted:
        module = importlib.import_module(f"diffield.{module_name}")
        key = f"{module_name}.{name}"
        counts[key] = 0

        def counting(*args, _original=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        setattr(module, name, counting)
    return counts


def problems_of(out: dict) -> list[str]:
    found = []
    answer = out["answer"]
    if "control" in answer:
        if answer["verdict"] != "refuted with certificate chain":
            found.append(f"main verdict {answer['verdict']!r}")
        if not answer["control"].startswith("refused"):
            found.append(f"control verdict {answer['control']!r}")
    elif "replayed" in answer:
        if answer["verdict"] != "Unsolvable" or not answer["replayed"]:
            found.append(f"refuted free-base answer {answer!r}")
    elif answer != {"verdict": "Solution", "verified": True}:
        found.append(f"free-base answer {answer!r}")
    if not out["counted_report_matches"]:
        found.append("the counted run gave another report")
    return found


def rung(src: Path, spec: str, repeat: int, limit: float) -> dict:
    entry: dict = {"rung": spec} if spec.startswith("free:") else {"bounds": list(map(int, spec.split(",")))}
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", spec]
    deadline = time.monotonic() + limit
    runs = []
    for _ in range(repeat):
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=max(left, 0.001))
        except subprocess.TimeoutExpired:
            entry.update(status="timeout", limit_s=limit, completed_runs=len(runs))
            break
        if done.returncode != 0:
            entry.update(status="failed", problems=done.stderr.strip().splitlines()[-1:] or ["no output"])
            return entry
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    if runs:
        problems = [p for out in runs for p in problems_of(out)]
        if len({out["report_sha256"] for out in runs}) > 1:
            problems.append("reports differ between runs")
        entry.update(
            wall_s=round(statistics.median(out["wall_s"] for out in runs), 4),
            wall_s_runs=[round(out["wall_s"], 4) for out in runs],
            report_sha256=runs[0]["report_sha256"],
            answer=runs[0]["answer"],
            counts=runs[0]["counts"],
        )
        entry.setdefault("status", "failed" if problems else "ok")
        if problems:
            entry["problems"] = problems
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", nargs="*", default=list(RUNGS), help="pipeline bounds d,w, free:k:e1 or free:refuted:k")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--limit", type=float, default=120.0, help="seconds for all runs of one rung")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0
    entries = []
    for spec in args.rungs:
        entry = rung(args.src.resolve(), spec, args.repeat, args.limit)
        print(json.dumps(entry), flush=True)
        entries.append(entry)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["workload"] = {
        "d,w": "run_pipeline(bounds=SearchBounds(d, w), seed=1)",
        "free:k:e1": "decide_free_base on a planted x = (g[-1] + 2g + 1)/D, D a product of k shifted linear factors",
        "free:refuted:k": "decide_free_base on sigma(x) - x = 1/D, D as above; answer a replayed Unsolvable",
    }
    data.setdefault("runs", {})[args.label] = {
        "recorded": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "repeat": args.repeat,
        "limit_s": args.limit,
        "rungs": entries,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 1 if any(e["status"] == "failed" for e in entries) else 0


if __name__ == "__main__":
    sys.exit(main())
