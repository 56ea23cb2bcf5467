"""A test still running past faulthandler_timeout is named and ends the run
(the hook in tests/conftest.py), also when it hangs inside one C call that
holds the GIL."""

import shutil
import time
from pathlib import Path

from conftest import run_python

SLEEPER = """
import time


def test_sleeps():
    time.sleep(30)
"""

# sre backtracks about 2^40 times here without releasing the GIL
GIL_HOLDER = """
import re


def test_hangs():
    re.match(r"(a+)+$", "a" * 40 + "b")
"""


def run_past_the_timeout(tmp_path, name, source):
    """Run the one test in source with faulthandler_timeout = 1 s; the process and its wall time."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / name).write_text(source)
    start = time.monotonic()
    proc = run_python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "faulthandler_timeout=1", name],
        cwd=str(tmp_path),
        timeout=60,
    )
    return proc, time.monotonic() - start


def test_a_test_past_the_timeout_is_named_and_ends_the_run(tmp_path):
    proc, elapsed = run_past_the_timeout(tmp_path, "test_sleeper.py", SLEEPER)
    assert proc.returncode != 0
    assert elapsed < 15, elapsed
    assert "test_sleeper.py::test_sleeps: still running after faulthandler_timeout = 1 s" in proc.stderr
    assert "in test_sleeps" in proc.stderr  # the main thread's stack, from the dump


def test_a_hang_that_holds_the_gil_ends_the_run(tmp_path):
    proc, elapsed = run_past_the_timeout(tmp_path, "test_gil_holder.py", GIL_HOLDER)
    assert proc.returncode != 0
    assert elapsed < 20, elapsed
    assert "in test_hangs" in proc.stderr  # faulthandler's dump, 5 s past the timeout
