"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import diffield
from diffield.poly import divexact, poly_lcm
from diffield.ratfunc import P1


def run_cli(args, *, cwd=None, timeout):
    """Run ``python -m diffield.cli ARGS`` in a subprocess.

    The subprocess imports the same ``diffield`` copy as the test process:
    the directory holding that package goes first on its ``PYTHONPATH`` as
    an absolute path, so the CLI starts from any working directory even when
    the suite runs from an uninstalled checkout with ``PYTHONPATH=src``.
    """
    path = [str(Path(diffield.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-m", "diffield.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
        env=env,
    )


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
