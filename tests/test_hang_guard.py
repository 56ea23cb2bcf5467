"""A test still running past faulthandler_timeout is named and ends the run
(the hook in tests/conftest.py)."""

import shutil
import time
from pathlib import Path

from conftest import run_python

SLEEPER = """
import time


def test_sleeps():
    time.sleep(30)
"""


def test_a_test_past_the_timeout_is_named_and_ends_the_run(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_sleeper.py").write_text(SLEEPER)
    start = time.monotonic()
    proc = run_python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "faulthandler_timeout=1", "test_sleeper.py"],
        cwd=str(tmp_path),
        timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode != 0
    assert elapsed < 15, elapsed
    assert "test_sleeper.py::test_sleeps: still running after faulthandler_timeout = 1 s" in proc.stderr
    assert "in test_sleeps" in proc.stderr  # the main thread's stack, from the dump
