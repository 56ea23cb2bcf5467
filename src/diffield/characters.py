"""Partial additive characters on fixed elements, and amalgamation checks.

A character table assigns circle-group values to fixed elements.  The table
extends to a group homomorphism on the rational span exactly when every
integer relation among the assigned elements has angle sum zero mod 1; the
saturated relation lattice from :func:`linear_relations` makes that check
finite and exact.  Free valuation of an element is possible exactly when it
lies outside the rational span of the assigned ones - the instance form of
the hyperplane-freeness condition, with bounded fixed spanning sets
standing in for the fixed subfield of a sub-presentation.

Everything amalgamation-shaped reduces to this rational-linear angle
arithmetic.  The obstruction instances built on it need certificates and
corner searches, and the hyperplane search needs the fixed-space search, so
they live in :mod:`diffield.counterexample`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .field import Element, Presentation
from .ratfunc import CircleValue, SpanTracker, linear_relations
from .record import record


class CharacterError(ValueError):
    pass


@record(frozen=True)
class Obstruction:
    """An integer relation whose angle sum cannot vanish."""

    elements: tuple[Element, ...]
    relation: tuple[Fraction, ...]
    angle_sum: CircleValue

    def __repr__(self) -> str:
        terms = " + ".join(f"{z}*({e})" for z, e in zip(self.relation, self.elements) if z)
        return f"Obstruction({terms} = 0 but angles sum to {self.angle_sum.angle})"


@record(frozen=True)
class CharacterTable:
    """Circle values assigned to elements of a presentation.

    Invariant: every entry is fixed.  ``empty``, ``extend_character`` and
    ``counterexample.build_failing_instance`` (after ``require_fixed`` and
    ``is_ff``) keep it.  Since sigma is Q-linear, the Q-span of the entries
    is then fixed too, so an element the tracker places in that span needs
    no sigma test of its own.
    """

    pres: Presentation
    entries: tuple[tuple[Element, CircleValue], ...]

    @staticmethod
    def empty(pres: Presentation) -> "CharacterTable":
        return CharacterTable(pres, ())

    def elements(self) -> list[Element]:
        return [e for e, _ in self.entries]

    def angles(self) -> list[CircleValue]:
        return [v for _, v in self.entries]

    @cached_property
    def tracker(self) -> SpanTracker:
        """The relations of the entries' values, kept outside the record fields."""
        return SpanTracker(e.value for e, _ in self.entries)

    def consistency(self) -> Obstruction | None:
        """None when every integer relation has angle sum 0 mod 1."""
        if not self.entries:
            return None
        elems = self.elements()
        angles = self.angles()
        for rel in linear_relations(self.tracker):
            total = Fraction(0)
            for z, v in zip(rel, angles):
                total += z * v.angle
            s = CircleValue(total)
            if not s.is_identity():
                return Obstruction(tuple(elems), rel, s)
        return None


def extend_character(
    table: CharacterTable, assignments: Sequence[tuple[Element, CircleValue]]
) -> CharacterTable | Obstruction:
    """Add desired values; returns the extended table or the obstruction.

    The decision is order-independent: it only looks at the saturated
    integer relation lattice of entries plus queries.  The extended table's
    tracker is a fork of the table's with the new values added.

    Each element is added to the tracker first, and sigma-tested only when
    it opens a new direction: one in the span of the entries and the
    assignments before it is fixed, since they all are.  A non-fixed element
    is never in that span, so it raises CharacterError at the same element
    as a test of every element would.
    """
    tracker = table.tracker.fork()
    for elem, _ in assignments:
        if tracker.add(elem.value) and not elem.is_fixed():
            raise CharacterError(f"element {elem} is not fixed")
    combined = CharacterTable(table.pres, table.entries + tuple(assignments))
    combined.__dict__["tracker"] = tracker
    bad = combined.consistency()
    if bad is not None:
        return bad
    return combined


def value_of(table: CharacterTable, element: Element) -> CircleValue | None:
    """Forced value of an element of the assigned span; None when it is free.

    An element in the span is fixed, since the entries are.  One outside it
    (every element, for the empty table) is free only when it is fixed;
    otherwise CharacterError is raised.
    """
    combo = table.tracker.express(element.value) if table.entries else None
    if combo is None:
        if not element.is_fixed():
            raise CharacterError(f"element {element} is not fixed")
        return None
    total = Fraction(0)
    for q, v in zip(combo, table.angles()):
        total += q * v.angle
    return CircleValue(total)
