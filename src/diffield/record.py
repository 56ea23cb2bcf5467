"""Value records: the part of ``dataclasses`` the package uses, without it.

``@record`` and ``@record(frozen=True)`` read a class's annotated fields in
order and add what ``dataclasses.dataclass`` adds: ``__init__`` (positional
or keyword, defaults, ``field(default_factory=...)``, ``__post_init__``),
``__eq__`` within the class only, ``__hash__`` over the tuple of fields
(``None`` for a mutable record), the ``Name(field=value, ...)`` repr and
``__match_args__``; a frozen record's ``__setattr__`` and ``__delattr__``
raise.  A method the class body defines is kept.

Every method is a closure over the field names, so no source is generated
at import: ``dataclasses`` execs about six methods per class and imports
``inspect``.  Instances keep a ``__dict__`` for ``functools.cached_property``.
"""

from __future__ import annotations

from operator import attrgetter


_REQUIRED = object()


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory) -> _Factory:
    """A default made by calling ``default_factory()`` for each instance."""
    return _Factory(default_factory)


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    qualname = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    # Each field's default, in order: a value, a _Factory or _REQUIRED.  bind
    # checks the required fields and calls the factories of those not given.
    template = [cls.__dict__.get(name, _REQUIRED) for name in names]
    special = [(i, d) for i, d in enumerate(template) if d is _REQUIRED or isinstance(d, _Factory)]
    for i, default in special:
        if default is not _REQUIRED:  # a factory leaves no class attribute
            delattr(cls, names[i])
    if n == 1:
        get = attrgetter(names[0])
        values = lambda obj: (get(obj),)  # noqa: E731
    else:
        values = attrgetter(*names) if n else lambda obj: ()  # noqa: E731
    store = object.__setattr__ if frozen else setattr
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """The field values, in order, of a call that is not n positional arguments."""
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments but {len(args)} were given")
        out = [*args, *template[len(args):]]
        for name, value in kwargs.items():
            i = index.get(name, -1)
            if i < len(args):
                raise TypeError(f"{qualname}() got an unexpected or repeated keyword argument {name!r}")
            out[i] = value
        for i, default in special:
            if out[i] is default:
                if default is _REQUIRED:
                    raise TypeError(f"{qualname}() missing required argument {names[i]!r}")
                out[i] = default.make()
        return out

    f0, f1, f2, f3, *_ = names + (None,) * 4

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # Unrolled up to four fields, which every often-built record fits in:
        # the loop nearly doubles the cost of building a one-field record.
        if n > 4:
            for name, value in zip(names, args):
                store(self, name, value)
        elif n:
            store(self, f0, args[0])
            if n > 1:
                store(self, f1, args[1])
                if n > 2:
                    store(self, f2, args[2])
                    if n > 3:
                        store(self, f3, args[3])
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__init__, __eq__, __repr__] + ([__setattr__, __delattr__] if frozen else [])
    for method in methods:
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{qualname}.{method.__name__}"
            setattr(cls, method.__name__, method)
    if cls.__dict__.get("__hash__") is None:  # absent, or set to None by a body's __eq__
        cls.__hash__ = __hash__ if frozen else None
    cls.__match_args__ = names
    return cls
