"""The mutation catalogue still points at code that exists.

tools/mutation/run.py applies each entry of tools/mutation/catalogue.py by
replacing its snippet; a snippet the code no longer holds only shows there,
outside Tier-1.  This checks that every snippet occurs exactly once in its
file under src, without running a mutant.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tools" / "mutation" / "catalogue.py"


def test_every_snippet_occurs_exactly_once_in_src():
    spec = importlib.util.spec_from_file_location("mutation_catalogue", CATALOGUE)
    catalogue = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalogue)
    counts = {}
    for mutant in catalogue.CATALOGUE:
        assert mutant.file.startswith("src/")
        counts[mutant.name] = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)
    assert counts and all(n == 1 for n in counts.values()), counts
