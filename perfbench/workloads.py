"""Seeded job documents with answers known by construction.

Generation is plain text and ``fractions`` arithmetic: it never touches
diffield, so the package's module-level caches are still cold when the
timed section starts.  Every input is a pure function of the workload and
its seed; the same seed gives the same documents.

Each job is a dict with the CLI ``argv`` tail, the document text, a family
name and the expected answer; ``check_*`` compares a parsed CLI report with
it and re-checks planted witnesses by exact substitution.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

# decide ---------------------------------------------------------------------

FREE = "gen g free;\n"
TORSOR = FREE + "gen t affine linear=1 const=1;\n"
TWISTED = TORSOR + "gen a1 affine linear=g const=g;\n"
DECIDE_BOUNDS = ("--bounds-degree", "2", "--bounds-window", "1")

# One block of the decide stream; blocks keep the family mix, hence the
# free-only/tower split, the same for every seed.
DECIDE_BLOCK = (
    "free_planted", "free_planted", "free_planted",
    "torsor_planted", "torsor_planted",
    "twisted_planted", "twisted_planted",
    "telescoping_unsolvable", "telescoping_unsolvable",
    "mult_unsolvable",
    "twisted_torsor_bounded", "twisted_torsor_bounded",
)
FREE_ONLY_FAMILIES = {"free_planted", "telescoping_unsolvable", "mult_unsolvable"}


def _signed(rng: random.Random, hi: int = 5) -> int:
    v = rng.randint(1, hi)
    return v if rng.random() < 0.5 else -v


def _twisted_job(family: str, pres: str, e1: str, e2: str, planted: str | None, verdict: str) -> dict:
    doc = f"{pres}twisted e1 = {e1}, e2 = {e2};\n"
    return {"family": family, "command": "solve-sas", "doc": doc, "planted": planted, "verdict": verdict}


def _planted(family: str, pres: str, e1: str, x: str) -> dict:
    return _twisted_job(family, pres, e1, f"s({x}, 1) - ({e1})*({x})", x, "solution")


E1 = ("1", "g", "2")
FREE_NUMERATORS = ("({a})*g^2 + ({b})", "({a})*g[-1] + ({b})", "({a})*g + ({b})*g[1]")
FREE_DENOMINATORS = ("g[1] + {k}", "g + {k}", "g*g[1] + {k}")
TORSOR_C1 = ("({a})", "({a})*g + ({b})")
TORSOR_C0 = ("({b})*g^2 + ({k})", "({b})*g[1] - ({k})*g", "({b})")
TWISTED_C0 = ("({b})", "({b})*g")
MULT_E = ("g", "g[1]", "2*g")

# Shapes per family, as index tuples.  The twist e1 follows a Latin square
# over the other two choices, so every shape and every e1 occur equally
# often; a stream of whole rotations has the same shape multiset for every
# seed, and only the coefficients vary.
SHAPES = {
    "free_planted": [(i, j, (i + j) % 3) for i in range(3) for j in range(3)],
    "torsor_planted": [(i, j, (i + j) % 3) for i in range(2) for j in range(3)],
    "twisted_planted": [(i, j) for i in range(2) for j in range(3)],
    "mult_unsolvable": [(i,) for i in range(3)],
}


def _decide_job(family: str, shape: tuple, rng: random.Random) -> dict:
    coeffs = {"a": _signed(rng), "b": _signed(rng), "k": rng.randint(1, 5)}
    if family == "free_planted":
        num, den, e1 = shape
        x = f"({FREE_NUMERATORS[num].format(**coeffs)})/({FREE_DENOMINATORS[den].format(**coeffs)})"
        return _planted(family, FREE, E1[e1], x)
    if family == "torsor_planted":
        c1, c0, e1 = shape
        x = f"({TORSOR_C1[c1].format(**coeffs)})*t + {TORSOR_C0[c0].format(**coeffs)}"
        return _planted(family, TORSOR, E1[e1], x)
    if family == "twisted_planted":
        c0, e1 = shape
        x = "({a})*a1 + ({k})*t + ".format(**coeffs) + TWISTED_C0[c0].format(**coeffs)
        return _planted(family, TWISTED, E1[e1], x)
    if family == "telescoping_unsolvable":
        c = [_signed(rng) for _ in range(3)]
        while sum(c) == 0:
            c[2] = _signed(rng)
        e2 = f"({c[0]})*g[-1] + ({c[1]})*g + ({c[2]})*g[1]"
        return _twisted_job(family, FREE, "1", e2, None, "unsolvable")
    if family == "mult_unsolvable":
        doc = f"{FREE}mult e = {MULT_E[shape[0]]}, z = {_signed(rng, 4)};\n"
        return {"family": family, "command": "solve-mult", "doc": doc, "planted": None, "verdict": "unsolvable"}
    if family == "twisted_torsor_bounded":
        return _twisted_job(family, TWISTED, "1", "({a})*a1".format(**coeffs), None, "no solution within bounds")
    raise ValueError(f"unknown decide family {family!r}")


def decide_jobs(seed: int, size: int) -> list[dict]:
    rng = random.Random(f"decide:{seed}")
    rotations = {f: rng.sample(shapes, len(shapes)) for f, shapes in SHAPES.items()}
    used = {f: 0 for f in DECIDE_BLOCK}
    jobs: list[dict] = []
    while len(jobs) < size:
        block = list(DECIDE_BLOCK)
        rng.shuffle(block)
        for f in block:
            cycle = rotations.get(f, [()])
            jobs.append(_decide_job(f, cycle[used[f] % len(cycle)], rng))
            used[f] += 1
    for job in jobs:
        job["argv"] = [job["command"], *DECIDE_BOUNDS]
    return jobs[:size]


# characters -----------------------------------------------------------------

PAIRS = (1, 2, 3)
# d_i = u_i - v_i is fixed because u_i and v_i solve the same torsor T_g.
# The pairs are alike, so a table's cost does not depend on which it uses.
PAIR_PRESENTATION = FREE + "".join(
    f"gen u{i} affine linear=1 const=g; gen v{i} affine linear=1 const=g;\n" for i in PAIRS
)
D = {i: f"(u{i} - v{i})" for i in PAIRS}
# Polynomial table entries by degree: distinct monomials in the d_i.
POLYS = {
    "deg1": [D[i] for i in PAIRS],
    "deg2": [f"{D[i]}*{D[j]}" for i in PAIRS for j in PAIRS if i < j] + [f"{D[i]}^2" for i in PAIRS],
}
# Degrees of the polynomial entries of a table of size k: the first k - 2,
# after the two quotient entries.  Fixing the shape of every table leaves
# table size as what varies between tables.
POLY_PROFILE = ("deg1", "deg2", "deg1", "deg2", "deg2")
TABLE_SIZES = (4, 5, 6, 7)
AMALG_TARGETS = ("g", "({a})*g", "({a})*g + ({b})*g[1]")
# One block of the characters stream: two tables of each size and two
# amalgamation checks.
CHARACTERS_BLOCK = tuple(("character", k) for k in TABLE_SIZES for _ in range(2)) + (("amalg", 3),) * 2


def _angle(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def _circle(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def _combination(rng: random.Random, indices: list[int], size: int) -> list[int]:
    """Nonzero coefficients on the given entries, zero elsewhere."""
    z = [0] * size
    for i in indices:
        z[i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return z


def _expr(z: list[int], elems: list[str]) -> str:
    return " + ".join(f"({c})*{e}" for c, e in zip(z, elems) if c)


def _character_job(rng: random.Random, size: int, perturbed: bool) -> dict:
    """A table of fixed elements with planted angles, and three queries.

    The entries are 1/(d_a + k), d_b/(d_c + k') with a, b, c distinct, and
    size - 2 distinct monomials in the d_i.  Monomials in the algebraically
    independent d_i and partial fractions with distinct denominators are
    linearly independent over Q, so the table is consistent for any angles.
    """
    a, b, c = rng.sample(PAIRS, 3)
    profile = POLY_PROFILE[: size - 2] + ("deg2",)  # the last one stays outside the table
    picks = {k: rng.sample(POLYS[k], profile.count(k)) for k in dict.fromkeys(profile)}
    polys = [picks[k].pop() for k in profile]
    outside = polys.pop()
    elems = [f"1/({D[a]} + {rng.randint(1, 3)})", f"{D[b]}/({D[c]} + {rng.randint(1, 3)})"] + polys
    angles = [_angle(rng) for _ in elems]
    # each combination has one quotient entry and two polynomial entries
    z = _combination(rng, [0] + rng.sample(range(2, size), 2), size)
    forced = _circle(sum((k * t for k, t in zip(z, angles)), Fraction(0)))
    z2 = _combination(rng, [1] + rng.sample(range(2, size), 2), size)
    desired = _circle(sum((k * t for k, t in zip(z2, angles)), Fraction(0)))
    if perturbed:
        desired = _circle(desired + _angle(rng))
    lines = [PAIR_PRESENTATION]
    lines += [f"assign {e} = {t};\n" for e, t in zip(elems, angles)]
    lines.append(f"query {_expr(z, elems)} free;\n")
    lines.append(f"query {outside} free;\n")
    lines.append(f"query {_expr(z2, elems)} = {desired};\n")
    expected = {
        "verdict": "obstruction" if perturbed else "consistent",
        "forced": str(forced),
        "accepted": None if perturbed else str(desired),
    }
    return {"family": f"character_{size}", "command": "character", "doc": "".join(lines),
            "table_size": size, "expected": expected}


def _amalg_job(rng: random.Random, shape: int, solvable: bool) -> dict:
    a, b = _signed(rng), _signed(rng)
    while a + b == 0:
        b = _signed(rng)
    target = AMALG_TARGETS[shape].format(a=a, b=b)
    r12, r23 = _angle(rng), _angle(rng)
    r13 = _circle(r12 + r23 + (0 if solvable else _angle(rng)))
    doc = f"{FREE}torsor {target};\nr12 = {r12}; r13 = {r13}; r23 = {r23};\n"
    return {"family": "amalg", "command": "amalg-check", "doc": doc, "table_size": 3,
            "expected": {"verdict": "solvable" if solvable else "obstruction"}}


def characters_jobs(seed: int, size: int) -> list[dict]:
    rng = random.Random(f"characters:{seed}")
    jobs: list[dict] = []
    amalgs = 0
    while len(jobs) < size:
        block = list(CHARACTERS_BLOCK)
        rng.shuffle(block)
        # each size, and the amalgamation pair, gets one table of each answer
        pending: dict[int, list[bool]] = {}
        for kind, k in block:
            answers = pending.setdefault(k, rng.sample((True, False), 2))
            if kind == "amalg":
                jobs.append(_amalg_job(rng, amalgs % len(AMALG_TARGETS), solvable=answers.pop()))
                amalgs += 1
            else:
                jobs.append(_character_job(rng, k, perturbed=answers.pop()))
    for job in jobs:
        job["argv"] = [job["command"]]
    return jobs[:size]


# job files ------------------------------------------------------------------

# Jobs per sample.  504 decide jobs are 42 blocks, whole rotations of every
# shape; over five seeds, latency_p90_ms spread by 0.12 (interquartile range
# over median) with 252 jobs and by 0.06 with 504.
JOBS = {"decide": 504, "characters": 120}
# The tracer check runs the first jobs of the same stream.
CHECK_JOBS = {"decide": 12, "characters": 5}


def make_jobs(workload: str, seed: int, size: int) -> list[dict]:
    make = decide_jobs if workload == "decide" else characters_jobs
    return make(seed, size)


def job_path(jobdir: str, index: int) -> str:
    return os.path.join(jobdir, f"job{index}.df")


# checks ---------------------------------------------------------------------


def check_decide(job: dict, result: dict, diffield) -> str | None:
    """None when the report matches the known answer, else the reason."""
    verdict = result.get("verdict")
    if verdict != job["verdict"]:
        return f"verdict {verdict!r}, expected {job['verdict']!r}"
    if verdict != "solution":
        return None
    for label, witness in (("planted", job["planted"]), ("returned", result["witness"])):
        doc = diffield.parse_document(f"{job['doc']}target {witness};\n")
        e1, e2 = doc.twisted
        x = doc.target
        if x.sigma(1) - e1 * x != e2:
            return f"{label} witness {witness!r} fails sigma(x) - e1*x = e2"
    return None


def check_characters(job: dict, result: dict) -> str | None:
    expected = job["expected"]
    if result.get("verdict") != expected["verdict"]:
        return f"verdict {result.get('verdict')!r}, expected {expected['verdict']!r}"
    if job["command"] == "amalg-check":
        return None
    forced, outside, last = result["queries"]
    if forced.get("free") is not False or forced.get("forced") != expected["forced"]:
        return f"forced value {forced!r}, expected {expected['forced']}"
    if outside.get("free") is not True:
        return f"element outside the span was not free: {outside!r}"
    if expected["accepted"] is None:
        if "obstruction" not in last:
            return f"perturbed angle was accepted: {last!r}"
    elif last.get("accepted") != expected["accepted"]:
        return f"consistent angle not accepted: {last!r}"
    return None
