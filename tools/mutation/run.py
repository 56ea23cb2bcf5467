"""Apply each entry of the mutation catalogue and check that its tests catch it.

    python3 tools/mutation/run.py

Run from anywhere; it reads the checkout it lives in.  For each entry of
``catalogue.CATALOGUE`` it copies the checkout's ``src``, ``tests``, ``jobs``,
``README.md`` and ``pyproject.toml`` to a fresh temporary directory, replaces
the entry's snippet (which must occur exactly once) and runs the entry's
tests there with ``pytest -x --hypothesis-seed=0``, the copy's ``src`` first
on ``PYTHONPATH``.  The mutant is killed when a test fails (or the run passes
its time limit), and survives when they all pass.

First the named tests of every entry run once on an unmutated copy: they
must pass there and import the copy's package, so a failure under a mutant
is the mutant's doing.  Prints one line per entry; exits 1 when a mutant
survives, and 2 when the unmutated copy fails or a snippet does not occur
exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from catalogue import CATALOGUE

COPIED = ("src", "tests", "jobs", "README.md", "pyproject.toml")
TIME_LIMIT_S = 600


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _env(dest: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(dest / "src")}


def _passes(dest: Path, tests: tuple[str, ...]) -> bool | None:
    """True when every test passes, False when one fails, None past the time limit."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=dest, env=_env(dest), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIME_LIMIT_S
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def _imports_the_copy(dest: Path) -> bool:
    cmd = [sys.executable, "-c", "import diffield; print(diffield.__file__)"]
    out = subprocess.run(cmd, cwd=dest, env=_env(dest), capture_output=True, text=True).stdout
    return Path(out.strip()).resolve().is_relative_to((dest / "src").resolve())


def main() -> int:
    for mutant in CATALOGUE:
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)
        if count != 1:
            print(f"catalogue error: {mutant.name!r}: snippet occurs {count} times in {mutant.file}")
            return 2
    tests = tuple(dict.fromkeys(t for mutant in CATALOGUE for t in mutant.tests))
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        dest = Path(tmp) / "clean"
        _copy(dest)
        if not _imports_the_copy(dest) or not _passes(dest, tests):
            print("the named tests do not pass on an unmutated copy")
            return 2
    survivors = []
    for mutant in CATALOGUE:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
            dest = Path(tmp) / "mutant"
            _copy(dest)
            path = dest / mutant.file
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            passed = _passes(dest, mutant.tests)
        verdict = {True: "SURVIVED", False: "killed", None: "killed (time limit)"}[passed]
        print(f"{verdict:20s} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        if passed:
            survivors.append(mutant.name)
    print(f"{len(CATALOGUE) - len(survivors)} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
