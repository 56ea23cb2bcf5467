"""Byte-identical CLI reports for the sample jobs, across code changes.

``tests/golden/<job>.json`` holds the report of each ``jobs/<job>.df`` run
with the command and flags listed below (the README's commands), and
``tests/golden/verify_counterexample.json`` holds the report of
``diffield verify-counterexample`` at its default bounds, and
``verify_counterexample_deg8.json`` its report with ``--bounds-degree 8
--bounds-window 4``.  The reports print canonical forms (``repr`` of
polynomials and rational functions, lattice bases, witnesses), so any drift
in the exact substrate's canonical forms shows up here.  Regenerate a file
only for an intended change of output, with ``diffield COMMAND
jobs/JOB.df FLAGS --out tests/golden/JOB.json`` (or ``diffield
verify-counterexample [FLAGS] --out tests/golden/NAME.json``).
"""

from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]

JOBS = {
    "torsor_over_closed_base": ["solve-sas"],
    "twisted_avoided": ["solve-sas"],
    "chained_denominator": ["solve-sas"],
    "negative_cap": ["solve-sas"],
    "multiplicative_family": ["solve-mult"],
    "denominator_branch": ["solve-mult"],
    "mult_tower_bounded": ["solve-mult"],
    "cocycle": ["decompose", "--seed", "7"],
    "ff_planted": ["ff-decompose", "--bounds-degree", "2", "--bounds-window", "1"],
    "character": ["character"],
    "hyperplane": ["hyperplane"],
    "amalg": ["amalg-check"],
    "nsas": ["nsas-check"],
    "closure": ["closure-step"],
}


def _assert_golden(args, name, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli([*args, "--out", str(out)], cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (ROOT / "tests" / "golden" / f"{name}.json").read_bytes()


@pytest.mark.parametrize("job", sorted(JOBS))
def test_golden_report(job, tmp_path):
    command, *flags = JOBS[job]
    _assert_golden([command, str(ROOT / "jobs" / f"{job}.df"), *flags], job, tmp_path)


def test_golden_verify_counterexample(tmp_path):
    # the paper's counterexample at default bounds: refuted, control flips
    _assert_golden(["verify-counterexample"], "verify_counterexample", tmp_path)


def test_golden_verify_counterexample_deg8(tmp_path):
    # deeper torsor searches, where most special-denominator degrees are refuted at m = 1
    flags = ["--bounds-degree", "8", "--bounds-window", "4", "--require-decision"]
    _assert_golden(["verify-counterexample", *flags], "verify_counterexample_deg8", tmp_path)


def test_golden_covers_every_job():
    assert sorted(p.stem for p in (ROOT / "jobs").glob("*.df")) == sorted(JOBS)
