"""Every name the package exports is used somewhere.

A name that ``diffield/__init__.py`` imports must appear as a code name
outside ``__init__.py``: in the package's modules, in the acceptance suite,
or in the README's library tour.  Its own ``def`` or ``class``, imports,
comments and strings do not count.  The check reads files only.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diffield"

# Exports kept with no caller yet, and why.
EXEMPT = {
    "poly_lcm": "wrapped by the benchmark tracer (perfbench/tracer.py)",
    "build_failing_instance": "the character obstruction at the end of the pipeline builds on it",
    "wp_decompose_with_witnesses": "the closed-corner counterexample builds on it",
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def code_names(source: str) -> set[str]:
    """The names and attributes that Python source uses; imports and definitions are not uses."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def library_tour() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return "\n".join(re.findall(r"```python\n(.*?)```", tour, re.S))


def test_every_export_has_a_reference():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    sources.append(library_tour())
    unused = exported_names() - set().union(*(code_names(s) for s in sources))
    assert sorted(unused - EXEMPT.keys()) == []
    # an exemption ends when its name gets a reference or stops being exported
    assert sorted(EXEMPT.keys() - unused) == []
