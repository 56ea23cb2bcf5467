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
arithmetic: the obstruction instances below demonstrate per-corner
consistent assignments whose joint extension would violate a forced
relation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .certify import AvoidedRegistry, certify_unsolvable
from .equations import SearchBounds, TwistedEquation, Unsolvable
from .field import Element, Presentation
from .ratfunc import CircleValue, SpanTracker, linear_relations
from .record import record
from .systems import AdditiveEquation, SystemModel, pairwise_fixed_polynomials
from .tower import fixed_space


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

    Invariant: every entry is fixed.  ``empty`` and ``extend_character``
    keep it, and so does ``build_failing_instance``, whose span is checked by
    ``require_fixed``.  Since sigma is Q-linear, the Q-span of the entries is
    then fixed too, so an element the tracker places in that span needs no
    sigma test of its own.
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


@record(frozen=True)
class HyperplaneWitness:
    coefficients: tuple[int, ...]
    value: Element  # the subfield element b with sum(z_i x_i) = b
    combination: tuple[Fraction, ...]  # b over the subfield spanning set


def hyperplane_search(
    xs: Sequence[Element],
    height: int,
    subfield: Presentation,
    bounds: SearchBounds = SearchBounds(3, 2),
) -> HyperplaneWitness | None:
    """Smallest-height integer relation sum(z_i x_i) = b with b in the subfield.

    Complete over |z_i| <= height relative to the bounded fixed spanning set
    of the subfield; plain enumeration of the height box, smallest maximum
    coefficient first, first nonzero coefficient positive.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    for x in xs:
        if not x.is_fixed():
            raise CharacterError(f"element {x} is not fixed")
    span = fixed_space(subfield, bounds)
    tracker = SpanTracker(s.value for s in span)
    n = len(xs)
    pres = xs[0].pres
    for h in range(1, height + 1):
        for z in itertools.product(range(-h, h + 1), repeat=n):
            if max(abs(c) for c in z) != h:
                continue
            first = next((c for c in z if c), None)
            if first is None or first < 0:
                continue
            total = pres.zero()
            for c, x in zip(z, xs):
                total = total + pres.const(c) * x
            combo = tracker.express(total.value)
            if combo is not None:
                b = pres.zero()
                for q, s in zip(combo, span):
                    b = b + pres.const(q) * pres.element(s.value)
                if b != total:
                    raise AssertionError("internal error: witness failed verification")
                return HyperplaneWitness(tuple(z), b, tuple(combo))
    return None


def build_3amalg_obstruction(
    pres: Presentation,
    target: Element,
    registry: AvoidedRegistry | None,
    r: tuple[CircleValue, CircleValue, CircleValue],
) -> dict:
    """The classic three-witness instance over an unrealized torsor.

    Adjoins independent witnesses alpha_i for T_target and asks for
    Psi(alpha_i - alpha_j) = r_ij.  The only forced relation is
    (a1-a2) + (a2-a3) = (a1-a3), so the system is solvable exactly when
    r12 + r23 = r13 mod 1; the verdict is cross-checked against the
    character-extension decision.
    """
    cert = certify_unsolvable(pres, TwistedEquation.torsor(target), registry)
    if not isinstance(cert, Unsolvable):
        raise CharacterError(
            "refused: the torsor is not certified unrealized over the base"
        )
    p = pres
    alphas = []
    for i in (1, 2, 3):
        p, alpha = p.with_affine(f"alpha{i}", 1, target)
        alphas.append(alpha)
    a1, a2, a3 = (a.in_presentation(p) for a in alphas)
    d12, d13, d23 = a1 - a2, a1 - a3, a2 - a3
    for d in (d12, d13, d23):
        if not d.is_fixed():
            raise AssertionError("internal error: witness differences must be fixed")
    r12, r13, r23 = r
    attempt = extend_character(
        CharacterTable.empty(p), [(d12, r12), (d13, r13), (d23, r23)]
    )
    forced_ok = (r12.angle + r23.angle - r13.angle) % 1 == 0
    solvable = isinstance(attempt, CharacterTable)
    if solvable != forced_ok:
        raise AssertionError("internal error: extension decision disagrees with the forced relation")
    return {
        "verdict": "solvable" if solvable else "obstruction",
        "forced_relation": "r12 + r23 = r13 (mod 1)",
        "result": attempt,
        "certificate": cert.certificate,
    }


def build_failing_instance(
    model: SystemModel,
    eq: AdditiveEquation,
    k: int,
    bounds: SearchBounds = SearchBounds(4, 3),
) -> dict:
    """Character tables on the pairwise corners that no solution can join.

    Requires (and re-checks) that the distinguished summand is outside the
    rational span of the polynomial fixed elements of the pairwise corners
    within bounds (pairwise_fixed_polynomials); if a combination exists the
    instance is refused and the combination returned.
    Otherwise the summand can be valued freely, and choosing its angle to
    break the zero-sum relation exhibits the obstruction.
    """
    smap = eq.summand_map()
    if not eq.is_ff():
        raise CharacterError("equation is not fixed-field")
    if k not in smap:
        raise CharacterError(f"no summand {k}")
    idx = sorted(smap)
    pres = model.pres
    pairs = pairwise_fixed_polynomials(model, idx, bounds)
    span = [s for members in pairs.values() for s in members]
    # the shared pairwise data: angle 0 on the whole span, one tracker over it
    table = CharacterTable(pres, tuple((s, CircleValue(0)) for s in span))
    combo = table.tracker.express(smap[k].value)
    if combo is not None:
        return {
            "verdict": "refused: summand lies in the pairwise fixed span",
            "combination": tuple(combo),
            "span": tuple(span),
        }
    # each corner type extends the shared pairwise data *separately*: the
    # whole point of the obstruction is that these one-at-a-time extensions
    # are consistent while a joint one would violate the zero-sum relation.
    values: dict[int, CircleValue] = {}
    for i in idx:
        if i == k:
            continue
        forced = value_of(table, smap[i])
        if forced is None:
            solo = extend_character(table, [(smap[i], CircleValue(0))])
            if not isinstance(solo, CharacterTable):
                raise AssertionError("internal error: free summand failed to extend")
            forced = CircleValue(0)
        values[i] = forced
    others = sum((values[i].angle for i in values), Fraction(0))
    vk = CircleValue(Fraction(1, 2) - others)
    solo = extend_character(table, [(smap[k], vk)])
    if not isinstance(solo, CharacterTable):
        raise AssertionError("internal error: distinguished summand was not free")
    values[k] = vk
    total = CircleValue(sum((v.angle for v in values.values()), Fraction(0)))
    if total.is_identity():
        raise AssertionError("internal error: obstruction angle sum vanished")
    return {
        "verdict": "obstruction",
        "summand_angles": values,
        "angle_sum": total,
        "forced_relation": "summands sum to zero, so their angles must too",
        # extend_character returns a table only when it is consistent
        "per_corner_tables_consistent": True,
    }


def check_n_sas_witness(
    model: SystemModel,
    btilde: Element,
    summands: Mapping[int, Element],
    rewrite: Mapping[int, Element],
    witnesses: Mapping[int, Element],
) -> tuple[bool, list[str]]:
    """Exact verification of a higher torsor-splitting witness set.

    Checks that every index lies in 1..n, btilde = sum(summands) =
    sum(rewrite), the corner membership of every summand, and that each
    witness realizes the torsor of its rewritten summand inside the right
    corner.
    """
    problems: list[str] = []
    for kind, family in (("summand", summands), ("rewrite", rewrite), ("witness", witnesses)):
        for i in sorted(family):
            if not 1 <= i <= model.size:
                problems.append(f"index: {kind} {i} outside 1..{model.size}")
    total = model.pres.zero()
    for i in sorted(summands):
        total = total + summands[i]
    if total != btilde:
        problems.append("summands do not sum to the target")
    total = model.pres.zero()
    for i in sorted(rewrite):
        total = total + rewrite[i]
    if total != btilde:
        problems.append("rewritten summands do not sum to the target")
    for i in sorted(summands):
        if not model.member_of(summands[i], model.complement(i)):
            problems.append(f"membership: summand {i} escapes its corner")
    for i in sorted(rewrite):
        w = model.complement(i)
        if not model.member_of(rewrite[i], w):
            problems.append(f"membership: rewritten summand {i} escapes its corner")
        x = witnesses.get(i)
        if x is None:
            problems.append(f"missing witness for summand {i}")
            continue
        if not model.member_of(x, w):
            problems.append(f"membership: witness {i} escapes its corner")
        if x.wp() != rewrite[i]:
            problems.append(f"witness {i} does not realize its torsor")
    return (not problems), problems
