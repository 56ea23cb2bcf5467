"""Unsolvability certificates over affine extension stacks.

A bounded search can only report exhaustion; certificates refute equations
outright.  The engine works by leading-coefficient reduction
(``leading_cases``, the one place the degree cases are written): writing a
hypothetical solution over the top affine generator a (rule sigma(a) =
alpha*a + beta) as N(a)/D(a) in normal position forces, per degree case, a
twisted or multiplicative equation on the leading coefficient ratio one
level down.  Composing the case analyses down the extension stack, every
branch must end in a registered avoided family, a free-base refutation, or
a degree obstruction; the assembled tree replays mechanically.

The verdict is deliberately three-valued: certificates refute, solutions
are found elsewhere, and anything the case analysis cannot close is an
honest Unknown (general unsolvability over non-free bases is only
semi-decided; only specific families refute unboundedly).

The certifier imports no search module (``tower``, ``systems``), so a
checker built on it stays a small trusted core.
"""

from __future__ import annotations

from typing import Optional, Union

from .equations import (
    MultiplicativeEquation,
    TwistedEquation,
    Unknown,
    Unsolvable,
    UnsupportedCoefficientShape,
)
from .field import Element, GeneratorSpec, Presentation
from .freebase import FreeRefutation, decide_free_base, multiplicative_kernel
from .params import LinComb, _lincomb_coefficients, require_level_free
from .record import record


# -- query forms ----------------------------------------------------------------


@record(frozen=True)
class RatioQuery:
    """sigma(y)/y = ratio, y != 0."""

    ratio: Element

    def __repr__(self) -> str:
        return f"sigma(y)/y = {self.ratio}"


@record(frozen=True)
class IntSet:
    """Symbolic set of integer exponents."""

    kind: str  # "all" | "nonzero" | "le"
    bound: int = 0

    def excludes_zero(self) -> bool:
        if self.kind == "nonzero":
            return True
        if self.kind == "le":
            return self.bound <= -1
        return False

    def samples(self) -> tuple[int, ...]:
        if self.kind == "nonzero":
            return (1, 2, 3, -1, -2, -3)
        if self.kind == "le":
            return (self.bound, self.bound - 1, self.bound - 2)
        return (0, 1, -1, 2, -2)

    def __repr__(self) -> str:
        if self.kind == "le":
            return f"z <= {self.bound}"
        return {"all": "z in Z", "nonzero": "z != 0"}[self.kind]


@record(frozen=True)
class MultFamilyQuery:
    """sigma(y)/y = twist * base^z for every z in the exponent set."""

    twist: Element
    base: Element
    exponents: IntSet

    def __repr__(self) -> str:
        return f"sigma(y)/y = ({self.twist})*({self.base})^z, {self.exponents}"


@record(frozen=True)
class TwistedShiftFamily:
    """sigma(x) - e1*x = e2 + c for every c in the level below the top generator.

    This is the parametric form needed by refutation chains: the additive
    shift c is arbitrary but cannot reach the top coefficient of e2.
    """

    e1: Element
    e2: Element

    def __repr__(self) -> str:
        return f"sigma(x) - ({self.e1})*x = {self.e2} + c (c arbitrary one level down)"


Query = Union[TwistedEquation, MultiplicativeEquation, RatioQuery, MultFamilyQuery, TwistedShiftFamily]


# -- certificate nodes -------------------------------------------------------------


@record(frozen=True)
class RegistryHit:
    index: int
    description: str


@record(frozen=True)
class BaseRefutation:
    refutation: FreeRefutation


@record(frozen=True)
class FamilyBaseRefutation:
    """Uniform free-base argument for a whole exponent family.

    For nonzero exponents the reduced ratio has exactly the base's variables,
    so the shift window is empty independently of z; constants would need the
    ratio to equal 1, which a nonconstant base never allows.
    """

    description: str
    spot_checks: tuple[int, ...]


@record(frozen=True)
class DegreeObstruction:
    """A coefficient position the ansatz cannot reach is forced nonzero.

    ``position`` counts above the denominator degree m: the coefficient of
    a^(m + position) is ``coefficient`` times alpha^m, but the numerator
    stops below that degree.  Offsets stay uniform in m, so one
    obstruction covers every (n, m) of its case.
    """

    position: int
    coefficient: Element


@record(frozen=True)
class Case:
    label: str
    derived: Optional[Query]
    node: "CertNode"


@record(frozen=True)
class ExtensionSplit:
    generator: str
    rule: str
    query: str
    cases: tuple[Case, ...]


CertNode = Union[RegistryHit, BaseRefutation, FamilyBaseRefutation, DegreeObstruction, ExtensionSplit]


@record(frozen=True)
class Certificate:
    presentation: tuple[str, ...]
    query: str
    node: CertNode


# -- the avoided-family registry ------------------------------------------------------


@record(frozen=True)
class RegistryEntry:
    query: Query
    certificate: Certificate


@record(frozen=True)
class AvoidedRegistry:
    pres: Presentation
    entries: tuple[RegistryEntry, ...]

    def match(self, pres: Presentation, query: Query) -> RegistryHit | None:
        if pres != self.pres:
            return None
        for i, entry in enumerate(self.entries):
            if _query_subsumed(query, entry.query):
                return RegistryHit(i, repr(entry.query))
        return None


def _query_subsumed(query: Query, registered: Query) -> bool:
    if isinstance(registered, TwistedEquation):
        return (
            isinstance(query, TwistedEquation)
            and query.e1 == registered.e1
            and query.e2 == registered.e2
        )
    if isinstance(registered, MultFamilyQuery):
        if isinstance(query, MultFamilyQuery):
            return (
                query.twist == registered.twist
                and query.base == registered.base
                and _exp_subset(query.exponents, registered.exponents)
            )
        if isinstance(query, RatioQuery) and registered.twist == 1:
            z = _power_of(query.ratio, registered.base)
            return z is not None and z != 0 and registered.exponents.kind in ("all", "nonzero")
        if isinstance(query, MultiplicativeEquation) and registered.twist == 1:
            return query.e == registered.base and registered.exponents.kind in ("all", "nonzero")
    return False


def _exp_subset(a: IntSet, b: IntSet) -> bool:
    if b.kind == "all":
        return True
    if b.kind == "nonzero":
        return a.excludes_zero()
    return b.kind == a.kind and a.bound <= b.bound


def _power_of(u: Element, base: Element, limit: int = 8) -> int | None:
    if u == 1:
        return 0
    acc = base.pres.one()
    for z in range(1, limit + 1):
        acc = acc * base
        if u == acc:
            return z
    acc = base.pres.one()
    for z in range(1, limit + 1):
        acc = acc / base
        if u == acc:
            return -z
    return None


# -- certification ----------------------------------------------------------------------


def certify_unsolvable(pres: Presentation, query: Query, registry: AvoidedRegistry | None = None):
    """Certificate of unsolvability, or Unknown.

    The certifier never contradicts a solver: a query it cannot close (in
    particular, a solvable one) comes back Unknown, not refuted.
    """
    query = _normalize_query(query)
    try:
        node = _certify(pres, query, registry)
    except UnsupportedCoefficientShape as exc:
        return Unknown(str(exc))
    if node is None:
        return Unknown(f"no closing case analysis for {query!r}")
    return Unsolvable(Certificate(pres.names(), repr(query), node))


def replay_certificate(pres: Presentation, query: Query, cert: Certificate, registry: AvoidedRegistry | None = None) -> bool:
    """Re-derive the case analysis from the inputs and compare, bit-exactly."""
    again = certify_unsolvable(pres, query, registry)
    return isinstance(again, Unsolvable) and again.certificate == cert


def _normalize_query(query: Query) -> Query:
    if isinstance(query, MultiplicativeEquation):
        return RatioQuery(query.ratio())
    return query


def _certify(pres: Presentation, query: Query, registry: AvoidedRegistry | None) -> CertNode | None:
    if registry is not None:
        hit = registry.match(pres, query)
        if hit is not None:
            return hit
    affine = pres.affine_top
    if affine is None:
        return _certify_free(pres, query)
    gen, sub, alpha, beta = affine.gen, affine.sub, affine.alpha, affine.beta
    cases = leading_cases(pres, sub, gen, alpha, query)
    if cases is None:
        return None
    rule = f"sigma({gen.name}) = ({alpha})*{gen.name} + ({beta})"
    return _close_case(sub, gen, rule, query, cases, registry)


def leading_cases(
    pres: Presentation, sub: Presentation, gen: GeneratorSpec, alpha: Element, query: Query
) -> list[tuple[str, Query | DegreeObstruction]] | None:
    """Labelled degree cases of one leading-coefficient reduction, or None.

    A solution x = N(a)/D(a) over the top generator a (sigma(a) = alpha*a +
    beta over sub), with deg N = n, deg D = m in normal position, forces a
    condition on the leading coefficient ratio one level down (Karr 1981,
    "Summation in finite terms", JACM 28(2)).

    - A twisted equation or shift family with e2 of degree d2 in a splits
      by comparing n with m + d2: below is a DegreeObstruction (labelled
      ``n < m`` when d2 = 0), equal is a twisted equation, and above is a
      ratio query when alpha = 1, else the family alpha^z, z <= -(d2 + 1).
    - A ratio or multiplicative family has the single case ``any degrees
      n, m``: the ratio picks up alpha^(m - n) with m - n arbitrary.

    None when e1 or a ratio mentions a, and on the three refusals of the
    twisted split: d2 = 0 with e2 = 0 (x = 0 solves it), d2 = 0 for a shift
    family (the arbitrary shift swallows the only coefficient), and alpha =
    1 with e1 = 1 (the leading coefficients may be constant).  A family with
    a base over alpha != 1 is refused too: its exponents would smear over Z.
    """
    if isinstance(query, (TwistedEquation, TwistedShiftFamily)):
        e1 = _level_free(query.e1, pres, sub, gen)
        if e1 is None:
            return None
        coeffs = _lincomb_coefficients(LinComb.constant(pres, query.e2), pres, gen, sub)
        d2 = max(coeffs.keys(), default=0)
        top = coeffs[d2].evaluate({}) if coeffs else sub.zero()
        if d2 == 0 and (isinstance(query, TwistedShiftFamily) or top.is_zero()):
            return None
        if alpha == 1 and e1 == 1:
            return None
        if alpha == 1:
            high: Query = RatioQuery(e1)
        else:
            high = MultFamilyQuery(e1, alpha, IntSet("le", -(d2 + 1)))
        shift = alpha ** (-d2)
        return [
            (f"n < m + {d2}" if d2 else "n < m", DegreeObstruction(d2, top)),
            (f"n = m + {d2}", TwistedEquation(e1 * shift, top * shift)),
            (f"n > m + {d2}", high),
        ]
    if isinstance(query, RatioQuery):
        twist = _level_free(query.ratio, pres, sub, gen)
        base, exponents = sub.one(), IntSet("all")
    elif isinstance(query, MultFamilyQuery):
        twist = _level_free(query.twist, pres, sub, gen)
        base = _level_free(query.base, pres, sub, gen)
        exponents = query.exponents
    else:
        return None
    if twist is None or base is None:
        return None
    if alpha == 1:
        derived: Query = RatioQuery(twist) if base == 1 else MultFamilyQuery(twist, base, exponents)
    elif base == 1:
        derived = MultFamilyQuery(twist, alpha, IntSet("all"))
    else:
        return None
    return [("any degrees n, m", derived)]


def _close_case(sub, gen, rule, query, cases: list[tuple[str, Query | DegreeObstruction]], registry) -> CertNode | None:
    out: list[Case] = []
    for label, derived in cases:
        if isinstance(derived, DegreeObstruction):
            out.append(Case(label, None, derived))
            continue
        node = _certify(sub, derived, registry)
        if node is None:
            return None
        out.append(Case(label, derived, node))
    return ExtensionSplit(gen.name, rule, repr(query), tuple(out))


def _level_free(elem: Element, pres: Presentation, sub: Presentation, gen) -> Element | None:
    try:
        return require_level_free(elem, pres, sub, gen)
    except UnsupportedCoefficientShape:
        return None


def _certify_free(pres: Presentation, query: Query) -> CertNode | None:
    if isinstance(query, TwistedEquation):
        res = decide_free_base(pres, query)
        return BaseRefutation(res.certificate) if isinstance(res, Unsolvable) else None
    if isinstance(query, TwistedShiftFamily):
        return None  # an arbitrary rational shift can always be matched here
    if isinstance(query, RatioQuery):
        basis, cert = multiplicative_kernel(pres, query.ratio)
        return BaseRefutation(cert) if not basis else None
    if isinstance(query, MultFamilyQuery):
        return _certify_free_family(pres, query)
    return None


def _certify_free_family(pres: Presentation, fam: MultFamilyQuery) -> CertNode | None:
    """Uniform-in-z refutation of sigma(y)/y = twist * base^z over a free base."""
    if not fam.twist.is_constant():
        return None
    if fam.base.is_constant():
        return None
    shifts = fam.base.value.shifts()
    if max(shifts) - 1 >= min(shifts):
        return None  # nonempty window: no uniform argument available
    if not fam.exponents.excludes_zero() and fam.twist == 1:
        return None  # z = 0 gives sigma(y) = y, solved by constants
    checks = []
    for z in fam.exponents.samples():
        if z == 0:
            ok = fam.twist != 1
        else:
            basis, _ = multiplicative_kernel(pres, fam.twist * fam.base**z)
            ok = not basis
        if not ok:
            return None
        checks.append(z)
    description = (
        f"for every admissible z the reduced ratio ({fam.twist})*({fam.base})^z has the "
        "variables of the base, so the shift window is empty and nonconstant solutions "
        "are impossible; constants would need the ratio to equal 1, which a nonconstant "
        "base never allows"
    )
    return FamilyBaseRefutation(description, tuple(checks))
