"""Finitely presented difference fields.

A presentation is an ordered list of generators over Q.  Each generator is
either *free* (its shifted copies g[k] are algebraically independent
indeterminates and the automorphism acts by shifting the index) or *affine*,
bound by a rule sigma(a) = alpha*a + beta with alpha != 0 and alpha, beta
built from strictly earlier generators.  Affinity makes the rule invertible
in closed form, so the induced sigma is an automorphism of the generated
field; every rule used downstream (torsor adjunctions sigma(t) = t + f and
multiplicative twists sigma(a) = e*a + e) is of this shape.

Affine generators only ever appear at shift 0: positive and negative images
are expanded eagerly through the rule, keeping the variable set finite and
canonical forms comparable.

Presentations are interned (hash-consed; J.-C. Filliatre and S. Conchon,
"Type-safe modular hash-consing", ML Workshop 2006).  Every presentation a
factory returns is the chain of its generators, each step added to the
previous prefix by ``_extended``, a bounded ``functools.lru_cache`` keyed by
(prefix, generator): ``restrict`` walks the same chain, so a value reached
either way is one object.  A step is validated on a miss only, and one that
fails validation raises and is never kept.  Each presentation then forms
once what it keeps outside its record fields: its hash, the lookups
``_by_name`` and ``_by_index``, ``shape``, ``affine_top`` with its tables of
the powers of alpha, beta and the generator, and the sigma-images of
``_images``.  Each is a pure function of the presentation's value, and
equality and hashing stay by value, so a presentation built directly, or
rebuilt after its entry was evicted, is equal to the interned one and
answers alike: no result depends on which presentations were built before.
The table holds at most ``INTERN_SIZE`` entries, as the tower's denominator
memo does, so a long-lived process keeps a bounded set.
"""

from __future__ import annotations

import functools
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .poly import VarId
from .ratfunc import RatFunc, _coerce, substitute_polys
from .record import record


class PresentationError(ValueError):
    pass


@record(frozen=True)
class FreeSpec:
    """A transformally transcendental generator."""


@record(frozen=True)
class AffineSpec:
    """Rule sigma(a) = linear*a + constant over earlier generators."""

    linear: RatFunc
    constant: RatFunc


@record(frozen=True)
class GeneratorSpec:
    index: int
    name: str
    kind: FreeSpec | AffineSpec

    @property
    def is_free(self) -> bool:
        return isinstance(self.kind, FreeSpec)


@record(frozen=True)
class Presentation:
    """Immutable generator list; the base field is Q.

    Generators are listed in index order.  Sub-presentations keep the
    ambient generator indices so elements stay comparable across restriction
    (the variable order never changes).
    """

    gens: tuple[GeneratorSpec, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The record hash over the fields, formed once and kept outside them."""
        return hash((self.gens,))

    # -- construction (interned: see the module docstring) ---------------------

    @staticmethod
    def empty() -> "Presentation":
        return _EMPTY

    def _next_index(self) -> int:
        return max((g.index for g in self.gens), default=-1) + 1

    def with_free(self, name: str) -> tuple["Presentation", "Element"]:
        p = _extended(self, GeneratorSpec(self._next_index(), name, FreeSpec()))
        return p, p.gen(name)

    def with_affine(self, name: str, linear, constant) -> tuple["Presentation", "Element"]:
        kind = AffineSpec(_as_ratfunc(linear), _as_ratfunc(constant))
        p = _extended(self, GeneratorSpec(self._next_index(), name, kind))
        return p, p.gen(name)

    def restrict(self, names: Iterable[str]) -> "Presentation":
        keep = set(names)
        p = _EMPTY
        for g in self.gens:
            if g.name in keep:
                p = _extended(p, g)
        return p

    # -- lookups -------------------------------------------------------------

    def spec(self, name: str) -> GeneratorSpec:
        g = self._by_name.get(name)
        if g is None:
            raise PresentationError(f"unknown generator {name!r}")
        return g

    def spec_by_index(self, index: int) -> GeneratorSpec:
        g = self._by_index.get(index)
        if g is None:
            raise PresentationError(f"no generator with index {index}")
        return g

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.gens)

    def has_gen(self, name: str) -> bool:
        return name in self._by_name

    def subsumes(self, other: "Presentation") -> bool:
        mine = {g.index: g for g in self.gens}
        return all(mine.get(g.index) == g for g in other.gens)

    @cached_property
    def shape(self) -> tuple[FreeSpec | AffineSpec, ...]:
        """The generator kinds, with every rule variable renamed by position,
        kept outside the record fields.

        A variable of a rule becomes ``VarId(position, "", shift)``, where
        position is its generator's place in ``gens``.  Two presentations have
        the same shape exactly when matching their generators by position
        (Element.renamed) maps the rules onto each other.
        """
        pos = {g.index: (k, "") for k, g in enumerate(self.gens)}
        return tuple(
            g.kind if g.is_free else AffineSpec(g.kind.linear.rename(pos), g.kind.constant.rename(pos))
            for g in self.gens
        )

    @cached_property
    def _by_name(self) -> dict[str, GeneratorSpec]:
        """The first generator of each name, kept outside the record fields."""
        out: dict[str, GeneratorSpec] = {}
        for g in self.gens:
            out.setdefault(g.name, g)
        return out

    @cached_property
    def _by_index(self) -> dict[int, GeneratorSpec]:
        """The first generator of each index, as _by_name keeps the first of each name."""
        out: dict[int, GeneratorSpec] = {}
        for g in self.gens:
            out.setdefault(g.index, g)
        return out

    @cached_property
    def affine_top(self) -> "AffineTop | None":
        """The last affine generator with its rule over the others, kept
        outside the record fields; None when every generator is free."""
        for g in reversed(self.gens):
            if not g.is_free:
                sub = self.restrict([n for n in self.names() if n != g.name])
                vid = self.varid(g.name)
                var = Element._make(self, RatFunc.var(vid))
                return AffineTop(g, sub, Element(sub, g.kind.linear), Element(sub, g.kind.constant), var, vid)
        return None

    @cached_property
    def _images(self) -> dict[tuple[VarId, int], RatFunc]:
        """The affine generators' images under sigma^{+1} and sigma^{-1}, by
        (var, direction), kept outside the record fields; _var_image fills it."""
        return {}

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check name uniqueness, stratification and invertibility of rules."""
        seen: dict[str, int] = {}
        indices: set[int] = set()
        for g in self.gens:
            if g.name in seen:
                raise PresentationError(f"duplicate generator name {g.name!r}")
            if g.index in indices:
                raise PresentationError(f"duplicate generator index for {g.name!r}")
            seen[g.name] = g.index
            indices.add(g.index)
            if g.is_free:
                continue
            kind = g.kind
            if kind.linear.is_zero():
                raise PresentationError(f"generator {g.name!r}: linear part zero")
            for part in (kind.linear, kind.constant):
                for v in part.variables():
                    if v.index >= g.index:
                        raise PresentationError(
                            f"generator {g.name!r}: rule mentions {v.name!r}, "
                            "which is not strictly earlier (stratification)"
                        )
                    if v.index not in indices:
                        raise PresentationError(
                            f"generator {g.name!r}: rule mentions {v.name!r}, "
                            "which is not in this presentation"
                        )
                    earlier = self.spec_by_index(v.index)
                    if not earlier.is_free and v.shift != 0:
                        raise PresentationError(
                            f"generator {g.name!r}: affine generator {v.name!r} "
                            "used at a nonzero shift"
                        )

    # -- element constructors ----------------------------------------------------

    def varid(self, name: str, shift: int = 0) -> VarId:
        g = self.spec(name)
        if not g.is_free and shift != 0:
            raise PresentationError(f"affine generator {name!r} only exists at shift 0")
        return VarId(g.index, g.name, shift)

    def gen(self, name: str, shift: int = 0) -> "Element":
        return Element._make(self, RatFunc.var(self.varid(name, shift)))  # varid checks name and shift

    def const(self, c) -> "Element":
        return Element._make(self, RatFunc.const(c))  # no variables to check

    def zero(self) -> "Element":
        return self.const(0)

    def one(self) -> "Element":
        return self.const(1)

    def element(self, value: RatFunc) -> "Element":
        return Element(self, value)

    def check_value(self, value: RatFunc) -> None:
        by_index = self._by_index
        for v in value.variables():
            g = by_index.get(v.index)
            if g is None or g.name != v.name:
                raise PresentationError(f"value mentions foreign variable {v!r}")
            if not g.is_free and v.shift != 0:
                raise PresentationError(
                    f"affine generator {g.name!r} appears at shift {v.shift}"
                )


_EMPTY = Presentation(())
INTERN_SIZE = 1024


# Working sets: 3 entries for a stream of 504 decide jobs, 49 for 120
# characters jobs, 37 for run_pipeline() at (2, 2), (4, 3) or (8, 4); 1024
# bounds a long-lived process without evicting within any of these.
@functools.lru_cache(maxsize=INTERN_SIZE)
def _extended(parent: Presentation, spec: GeneratorSpec) -> Presentation:
    """The interned presentation of parent's generators followed by spec."""
    p = Presentation(parent.gens + (spec,))
    p.validate()
    return p


@record(frozen=True)
class AffineTop:
    """A presentation's last affine generator gen, with sigma(gen) = alpha*gen
    + beta over sub, the presentation without gen; var is gen as an element
    of the whole presentation, and var_id its variable.

    The powers of alpha, beta and var are kept in tables by exponent, filled
    on demand (``alpha_power``, ``beta_power``, ``var_power``).  Each
    presentation forms its own AffineTop, so two whose alphas compare equal
    keep separate tables, each power over its own presentation.
    """

    gen: GeneratorSpec
    sub: Presentation
    alpha: Element
    beta: Element
    var: Element
    var_id: VarId

    @cached_property
    def _powers(self) -> tuple[dict[int, "Element"], dict[int, "Element"], dict[int, "Element"]]:
        """The tables of alpha, beta and var, kept outside the record fields."""
        return {}, {}, {}

    def alpha_power(self, n: int) -> "Element":
        return _power(self._powers[0], self.alpha, n)

    def beta_power(self, n: int) -> "Element":
        return _power(self._powers[1], self.beta, n)

    def var_power(self, n: int) -> "Element":
        return _power(self._powers[2], self.var, n)


def _power(table: dict[int, "Element"], base: "Element", n: int) -> "Element":
    """base**n, formed on the first request and kept in table by exponent."""
    power = table.get(n)
    if power is None:
        power = table[n] = base**n
    return power


def _as_ratfunc(x) -> RatFunc:
    return x.value if isinstance(x, Element) else _coerce(x)


class Element:
    """A field element: a presentation plus a canonical rational function."""

    __slots__ = ("pres", "value")

    def __init__(self, pres: Presentation, value: RatFunc):
        pres.check_value(value)
        self.pres = pres
        self.value = value

    @staticmethod
    def _make(pres: Presentation, value: RatFunc) -> "Element":
        # internal fast path: arithmetic on validated elements stays valid
        e = Element.__new__(Element)
        e.pres = pres
        e.value = value
        return e

    # -- arithmetic (allowed across compatible presentations) -------------------

    def _join(self, other) -> tuple[Presentation, RatFunc, RatFunc]:
        if not isinstance(other, Element):
            return self.pres, self.value, _as_ratfunc(other)
        if self.pres is other.pres or self.pres == other.pres:
            return self.pres, self.value, other.value
        if self.pres.subsumes(other.pres):
            return self.pres, self.value, other.value
        if other.pres.subsumes(self.pres):
            return other.pres, self.value, other.value
        raise PresentationError("elements of incompatible presentations")

    def __add__(self, other):
        p, a, b = self._join(other)
        return Element._make(p, a + b)

    __radd__ = __add__

    def __neg__(self):
        return Element._make(self.pres, -self.value)

    def __sub__(self, other):
        p, a, b = self._join(other)
        return Element._make(p, a - b)

    def __rsub__(self, other):
        p, a, b = self._join(other)
        return Element._make(p, b - a)

    def __mul__(self, other):
        p, a, b = self._join(other)
        return Element._make(p, a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, a, b = self._join(other)
        return Element._make(p, a / b)

    def __rtruediv__(self, other):
        p, a, b = self._join(other)
        return Element._make(p, b / a)

    def __pow__(self, n: int):
        return Element._make(self.pres, self.value**n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.value == RatFunc.const(other)
        return isinstance(other, Element) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return repr(self.value)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def is_constant(self) -> bool:
        return self.value.is_constant()

    def in_presentation(self, pres: Presentation) -> "Element":
        return Element(pres, self.value)

    def renamed(self, target: Presentation) -> "Element":
        """This element over target, with the generators matched by position.

        The k-th generator of this element's presentation becomes target's
        k-th, at the same shifts.  The two presentations must have the same
        shape (ValueError otherwise; a free generator never goes to an
        affine one), so the renaming maps each rule onto its image's rule: it
        commutes with sigma and takes fixed elements to fixed elements.  It
        must also be strictly increasing in index (RatFunc.rename raises
        ValueError otherwise), so canonical forms go to canonical forms.
        """
        if self.pres.shape != target.shape:
            raise ValueError("presentations of different shapes")
        gens = {s.index: (d.index, d.name) for s, d in zip(self.pres.gens, target.gens)}
        return Element._make(target, self.value.rename(gens))

    def sigma(self, k: int = 1) -> "Element":
        return Element._make(self.pres, sigma_value(self.pres, self.value, k))

    def wp(self) -> "Element":
        """The additive difference operator x -> sigma(x) - x."""
        return self.sigma(1) - self

    def is_fixed(self) -> bool:
        """sigma(x) == x, tested on x = num/den without forming sigma(x).

        substitute_polys gives polynomials num' and den' with
        num'/den' == sigma(x); with rational images of sigma both carry the
        same cleared factor.  Two fractions with nonzero denominators are
        equal exactly when their cross products are, whether or not they are
        in lowest terms, so x is fixed exactly when num'*den == num*den', and
        sigma(x) is never normalized.  den' is sigma(den) times the nonzero
        cleared factor, and sigma(den) is nonzero since sigma is an
        automorphism.
        """
        value = self.value
        if value.is_constant():
            return True
        images = sigma_images(self.pres, value.variables(), 1)
        if images is None:
            return value.shift(1) == value
        num, den = substitute_polys((value.num, value.den), images)
        return num * value.den == value.num * den


# -- the sigma action ----------------------------------------------------------


def _var_image(pres: Presentation, var: VarId, direction: int) -> RatFunc:
    """Image of a single variable under sigma^{+1} or sigma^{-1}.

    A free generator's image is a shift, made on each call.  An affine
    generator's is formed once per presentation and direction and kept in
    ``pres._images``; is_fixed, sigma_value and LinComb.sigma all reach it
    through sigma_images.
    """
    g = pres.spec_by_index(var.index)
    if g.is_free:
        return RatFunc.var(var.shifted(direction))
    key = (var, direction)
    image = pres._images.get(key)
    if image is None:
        kind = g.kind
        a = RatFunc.var(var)
        if direction == 1:
            image = kind.linear * a + kind.constant
        else:
            alpha_inv = sigma_value(pres, kind.linear, -1)
            beta_inv = sigma_value(pres, kind.constant, -1)
            image = (a - beta_inv) / alpha_inv
        pres._images[key] = image
    return image


def sigma_images(pres: Presentation, vars_: set[VarId], direction: int) -> dict[VarId, RatFunc] | None:
    """The images of the variables under sigma^direction.

    None when every variable is free: sigma is then a plain shift.
    """
    if all(pres.spec_by_index(v.index).is_free for v in vars_):
        return None
    return {v: _var_image(pres, v, direction) for v in vars_}


def sigma_value(pres: Presentation, value: RatFunc, k: int) -> RatFunc:
    """Apply sigma^k to a rational function over the presentation."""
    if k == 0 or value.is_constant():
        return value
    direction = 1 if k > 0 else -1
    for _ in range(abs(k)):
        images = sigma_images(pres, value.variables(), direction)
        value = value.shift(direction) if images is None else value.substitute(images)
    return value

