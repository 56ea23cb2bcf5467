"""The benchmark tracer's targets exist in the package.

perfbench/tracer.py wraps each (module, attribute path) of its TARGETS when
it installs; a target deleted or renamed in the package only shows there as
a crash of ``perfbench/run.py --trace 1``.  This resolves every target the
way the tracer does, without running a workload.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, path, name, _ in tracer.TARGETS:
        owner = importlib.import_module(f"diffield.{modname}")
        try:
            for part in path.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            missing.append(name)
    assert missing == []
