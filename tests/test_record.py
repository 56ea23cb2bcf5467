"""Value records (diffield.record) against dataclasses.dataclass.

Each test builds the same class bodies under both decorators and compares
what the package relies on: construction, errors, frozen fields, equality,
hashing, repr and ``__match_args__``.  A cold-start check confirms that
importing the CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import dataclasses
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import diffield
import diffield.cli  # noqa: F401  (every module of the package is loaded)
from diffield import record as record_module


def _classes(decorate, field):
    """Twin class bodies; ``decorate`` and ``field`` come from one module."""

    @decorate(frozen=True)
    class Point:
        x: int
        y: int = 0

        @cached_property
        def norm(self):
            return abs(self.x) + abs(self.y)

    @decorate(frozen=True)
    class Other:  # Point's fields, another class
        x: int
        y: int = 0

    @decorate(frozen=True)
    class One:
        value: tuple

    @decorate(frozen=True)
    class Empty:
        pass

    @decorate(frozen=True)
    class Checked:
        n: int

        def __post_init__(self):
            if self.n < 0:
                raise ValueError("negative")

    @decorate(frozen=True)
    class Custom:
        a: int

        def __repr__(self):
            return f"Custom<{self.a}>"

    @decorate(frozen=True)
    class Wide:  # past the four fields that __init__ stores unrolled
        a: int
        b: str
        c: tuple
        d: int
        e: int
        f: int = -1

    @decorate
    class Doc:
        name: str
        items: list = field(default_factory=list)
        note: str = ""

    return {cls.__name__: cls for cls in (Point, Other, One, Empty, Checked, Custom, Wide, Doc)}


REC = _classes(record_module.record, record_module.field)
DC = _classes(dataclasses.dataclass, dataclasses.field)

CALLS = [
    ("Point", (1, 2), {}),
    ("Point", (1,), {}),
    ("Point", (), {"y": 5, "x": -3}),
    ("Point", (4,), {"y": 1}),
    ("One", ((1, 2),), {}),
    ("One", (), {"value": ()}),
    ("Empty", (), {}),
    ("Checked", (3,), {}),
    ("Custom", (8,), {}),
    ("Wide", (1, "b", (), 4, 5, 6), {}),
    ("Wide", (1, "b", (), 4, 5), {}),
    ("Wide", (1,), {"e": 5, "c": (3,), "b": "", "d": 0}),
    ("Doc", ("a",), {}),
    ("Doc", ("a", [1]), {"note": "n"}),
    ("Doc", (), {"name": "b", "items": [2, 3]}),
]


@pytest.mark.parametrize(("name", "args", "kwargs"), CALLS)
def test_construction_repr_and_hash_match_dataclasses(name, args, kwargs):
    rec, dc = REC[name](*args, **kwargs), DC[name](*args, **kwargs)
    assert vars(rec) == vars(dc)
    assert repr(rec) == repr(dc)
    assert rec == REC[name](*args, **kwargs)
    if name == "Doc":
        assert REC[name].__hash__ is None and DC[name].__hash__ is None
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(dc)


def test_match_args_defaults_and_factories_match_dataclasses():
    for name in REC:
        assert REC[name].__match_args__ == DC[name].__match_args__
    assert REC["Point"].y == DC["Point"].y == 0
    assert not hasattr(REC["Doc"], "items") and not hasattr(DC["Doc"], "items")
    first, second = REC["Doc"]("a"), REC["Doc"]("a")
    assert first.items == [] and first.items is not second.items
    assert REC["Point"](3, -4).norm == 7  # cached_property needs a __dict__


@pytest.mark.parametrize(
    ("name", "args", "kwargs"),
    [
        ("Point", (), {}),
        ("Point", (1, 2, 3), {}),
        ("Point", (1,), {"x": 2}),
        ("Point", (1,), {"z": 2}),
        ("Empty", (1,), {}),
        ("Wide", (1, "b", (), 4), {}),
        ("Wide", (1, "b", (), 4, 5, 6, 7), {}),
        ("Doc", (), {"items": []}),
    ],
)
def test_missing_or_extra_arguments_raise_type_error(name, args, kwargs):
    for classes in (REC, DC):
        with pytest.raises(TypeError):
            classes[name](*args, **kwargs)


def test_post_init_errors_propagate():
    for classes in (REC, DC):
        with pytest.raises(ValueError, match="negative"):
            classes["Checked"](-1)


def test_frozen_fields_cannot_be_assigned_or_deleted():
    for classes in (REC, DC):
        point = classes["Point"](1, 2)
        with pytest.raises(AttributeError):
            point.x = 5
        with pytest.raises(AttributeError):
            point.extra = 5
        with pytest.raises(AttributeError):
            del point.y
        assert (point.x, point.y) == (1, 2)
        doc = classes["Doc"]("a")
        doc.name = "b"
        assert doc.name == "b"


def test_equality_holds_within_one_class_only():
    for classes in (REC, DC):
        point = classes["Point"](1, 2)
        assert point == classes["Point"](1, 2)
        assert point != classes["Point"](1, 3)
        assert point != classes["Other"](1, 2)
        assert point != (1, 2) and (1, 2) != point
        assert classes["One"]((1,)) != ((1,),)
        assert classes["Empty"]() == classes["Empty"]() and classes["Empty"]() != ()
        assert classes["Point"].__eq__(point, (1, 2)) is NotImplemented
        assert classes["Doc"]("a", [1]) == classes["Doc"]("a", [1]) != classes["Doc"]("a", [2])


def test_package_records_list_their_annotated_fields():
    found = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("diffield."):
            continue
        for cls in vars(module).values():
            own = vars(cls) if isinstance(cls, type) and cls.__module__ == name else {}
            if "__annotations__" in own or "__match_args__" in own:
                assert cls.__match_args__ == tuple(own.get("__annotations__", ())), cls
                found.append(cls)
    assert {diffield.Presentation, diffield.SearchBounds, diffield.parser.Document} <= set(found)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(diffield.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import diffield.cli; " \
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
