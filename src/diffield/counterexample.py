"""End-to-end machine check that torsor-closure does not force pair-closure.

Pipeline: start from the rational function field with one free generator g
and certify three avoided equation families (the multiplicative family
sigma(x)/x = g^z and the two twists by g and 1/g); close under the torsors
the construction needs (each closure step re-certifies the registry);
adjoin the twisted pair sigma(a1) = g*a1 + g, sigma(a2) = (1/g)*a2 + (1/g);
verify the product identity wp(a1*a2) = a1 + a2 + 1; certify that neither
T_{a1} nor T_{a2} is realized over its own side; assemble the height-4
fixed-field equation from pairwise torsor witnesses; and refute its
fixed-field decomposability twice - by bounded search and by a parametric
chain that pushes any putative decomposition down to the registered
families.

A control variant adjoins per-corner witnesses for T_{a_i}, after which the
bounded search finds a decomposition and the chain honestly refuses: the
two variants give opposite verdicts, so the refutation is not vacuous.

The character obstructions, build_3amalg_obstruction and
build_failing_instance, build on the registry and the corner searches here;
hyperplane_search reads the bounded fixed space of a subfield.

The module keeps one cached value: build_base's base and registry, formed
and guarded on the first call and shared by every later one (run_pipeline,
and the CLI's amalg-check and closure-step jobs).  It is a pure function of
the code, so no result depends on which calls came before.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Any, Sequence

from .certify import (
    AvoidedRegistry,
    Certificate,
    ExtensionSplit,
    IntSet,
    MultFamilyQuery,
    RegistryEntry,
    TwistedShiftFamily,
    certify_unsolvable,
    replay_certificate,
)
from .characters import CharacterError, CharacterTable, extend_character, value_of
from .equations import (
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unsolvable,
)
from .field import Element, Presentation
from .freebase import decide_free_base
from .ratfunc import CircleValue, SpanTracker
from .record import record
from .systems import (
    AdditiveEquation,
    NotFoundWithinBounds,
    SystemModel,
    build_system,
    ff_decompose_bounded,
    generic_evaluation,
    pairwise_fixed_polynomials,
)
from .tower import fixed_space, solve_twisted_bounded


class ReconstructionError(RuntimeError):
    """A check that the construction requires came out false."""


def pair_rules(pres: Presentation) -> tuple[tuple[Element, Element], tuple[Element, Element]]:
    """The (linear, constant) rules sigma(a1) = g*a1 + g, sigma(a2) = a2/g + 1/g
    over pres: the one place the twist g is written (registry, pair, perturbed
    copy and height-4 blocks all read it here)."""
    g = pres.gen("g")
    inv = pres.one() / g
    return (g, g), (inv, inv)


def registry_queries(pres: Presentation) -> tuple:
    rule1, rule2 = pair_rules(pres)
    return (
        MultFamilyQuery(pres.one(), rule1[0], IntSet("nonzero")),
        TwistedEquation(*rule2),
        TwistedEquation(*rule1),
    )


@functools.cache
def build_base() -> tuple[Presentation, AvoidedRegistry]:
    """The free base E0 = Q(g) with its certified avoided families.

    The multiplicative family is certified uniformly in the exponent (the
    argument never looks at z) and spot-checked at small exponents by the
    genuine decision procedure.  A telescoping sanity guard confirms the
    certifier is not vacuous: sigma(x) - x = g[1] - g is solvable and must
    not certify.

    One value per process: the function takes no argument and returns frozen
    records (an interned presentation and a frozen registry), so
    ``functools.cache`` keeps the first result and every later call returns
    that same object.  The certification and the guard run on the first call
    only; a call that raises caches nothing, so a failed guard fails again on
    the next call.  The value is a pure function of the code, not of which
    jobs ran before, so no result depends on the call history.
    """
    pres, g = Presentation.empty().with_free("g")
    registry = certify_registry(pres, None)
    guard = decide_free_base(pres, TwistedEquation(pres.one(), pres.gen("g", 1) - g))
    if not (isinstance(guard, Solution) and guard.witness == g):
        raise ReconstructionError("sanity guard failed: telescoping torsor must solve to g")
    return pres, registry


def certify_registry(pres: Presentation, parent: AvoidedRegistry | None) -> AvoidedRegistry:
    """The families of registry_queries over pres, each certified with the parent's hits."""
    entries = []
    for q in registry_queries(pres):
        res = certify_unsolvable(pres, q, parent)
        if not isinstance(res, Unsolvable):
            raise ReconstructionError(f"family {q!r} does not certify over {pres.names()}: {res!r}")
        entries.append(RegistryEntry(q, res.certificate))
    return AvoidedRegistry(pres, tuple(entries))


def replay_registry(registry: AvoidedRegistry, parent: AvoidedRegistry | None) -> bool:
    """Re-derive every registry certificate in its original context."""
    return all(
        replay_certificate(registry.pres, entry.query, entry.certificate, parent)
        for entry in registry.entries
    )


@record(frozen=True)
class ClosureStep:
    generator: str
    target: str


def closure_step(
    pres: Presentation, registry: AvoidedRegistry, target: Element, name: str | None = None
) -> tuple[Presentation, AvoidedRegistry, ClosureStep]:
    """Adjoin a witness for T_target and re-certify every avoided family.

    The new presentation realizes the torsor by construction; the step is
    accepted only if each registered family stays certified over it.
    """
    if name is None:
        k = 1
        while pres.has_gen(f"t{k}"):
            k += 1
        name = f"t{k}"
    new_pres, gen = pres.with_affine(name, 1, target)
    check = gen.wp()
    if check != target.in_presentation(new_pres):
        raise ReconstructionError("closure witness does not solve its torsor")
    return new_pres, certify_registry(new_pres, registry), ClosureStep(name, repr(target))


def adjoin_twisted_pair(pres: Presentation) -> tuple[Presentation, Element, Element]:
    """Adjoin a1 and a2 with the rules of pair_rules, independently."""
    rule1, rule2 = pair_rules(pres)
    p1, a1 = pres.with_affine("a1", *rule1)
    p2, a2 = p1.with_affine("a2", *rule2)
    return p2, a1.in_presentation(p2), a2


def verify_product_identity(pres: Presentation) -> dict:
    """wp(a1*a2) = a1 + a2 + 1, exactly, plus the perturbation control.

    Also checks the torsor consequence: with the closure witness t for
    T_1 present, wp(a1*a2 - t) = a1 + a2.
    """
    a1, a2 = pres.gen("a1"), pres.gen("a2")
    identity = (a1 * a2).wp() == a1 + a2 + 1
    perturbed_pres, _ = Presentation.empty().with_free("g")
    rule1, (inv, _) = pair_rules(perturbed_pres)
    perturbed_pres, b1 = perturbed_pres.with_affine("a1", *rule1)
    perturbed_pres, b2 = perturbed_pres.with_affine("a2", inv, 0)  # constant term dropped
    perturbed = (b1.in_presentation(perturbed_pres) * b2).wp() == b1 + b2 + 1
    out = {"identity": identity, "perturbed_identity_fails": not perturbed}
    t_name = closure_witness(pres)
    if t_name is not None:
        t = pres.gen(t_name)
        out["torsor_of_pair_sum_realized"] = (a1 * a2 - t).wp() == a1 + a2
    return out


def closure_witness(pres: Presentation) -> str | None:
    """Name of the first affine generator t with wp(t) = 1 (a witness for T_1), if any."""
    return next(
        (n for n in pres.names() if not pres.spec(n).is_free and pres.gen(n).wp() == 1),
        None,
    )


@record
class Height4Instance:
    model: SystemModel
    equation: AdditiveEquation
    c_elements: dict[str, Element]
    f_elements: dict[str, Element]
    control: bool


def build_height4_instance(base: Presentation, control: bool = False) -> Height4Instance:
    """Blocks a1..a4 with the twisted rules, pairwise torsor witnesses, and
    the height-4 fixed-field equation f123 + f124 + f134 + f234 = 0.

    c_1j = a1*a_j - t realizes T_{a1 + a_j} in the generated field; c_23,
    c_24, c_34 are adjoined as fresh torsor generators over their two-block
    corners (they need not exist in the generated corners, and adjunction
    preserves block independence by freshness).  The control variant also
    adjoins h_i with sigma(h_i) = h_i + a_i, making every T_{a_i} realized
    per corner.
    """
    t_name = closure_witness(base)
    if t_name is None:
        raise ReconstructionError("the base must contain a closure witness for T_1")
    rule1, rule2 = pair_rules(base)
    model = build_system(base, [[("a1", rule1)], [("a2", rule2)], [("a3", rule2)], [("a4", rule2)]])
    a = {j: model.pres.gen(f"a{j}") for j in range(1, 5)}
    for (i, j) in ((2, 3), (2, 4), (3, 4)):
        model, _ = model.adjoin({i, j}, f"c{i}{j}", 1, a[i] - a[j])
    t = model.pres.gen(t_name)
    a = {j: model.pres.gen(f"a{j}") for j in range(1, 5)}
    c = {
        "c12": a[1] * a[2] - t,
        "c13": a[1] * a[3] - t,
        "c14": a[1] * a[4] - t,
        "c23": model.pres.gen("c23"),
        "c24": model.pres.gen("c24"),
        "c34": model.pres.gen("c34"),
    }
    for (i, j) in ((2, 3), (2, 4), (3, 4)):
        if c[f"c{i}{j}"].wp() != a[i] - a[j]:
            raise ReconstructionError("adjoined pairwise witness fails its torsor")
    for j in (2, 3, 4):
        if c[f"c1{j}"].wp() != a[1] + a[j]:
            raise ReconstructionError("product witness fails its torsor")
    if control:
        for i in range(1, 5):
            model, _ = model.adjoin({i}, f"h{i}", 1, a[i])
        c = {k: model.pres.element(v.value) for k, v in c.items()}
    f = {
        "f123": c["c12"] - c["c13"] - c["c23"],
        "f124": -c["c12"] + c["c24"] + c["c14"],
        "f134": c["c13"] - c["c34"] - c["c14"],
        "f234": c["c23"] - c["c24"] + c["c34"],
    }
    for name, val in f.items():
        if not val.is_fixed():
            raise ReconstructionError(f"{name} is not fixed")
    total = f["f123"] + f["f124"] + f["f134"] + f["f234"]
    if not total.is_zero():
        raise ReconstructionError("the four fixed elements do not sum to zero")
    eq = AdditiveEquation.of(
        model, {1: f["f234"], 2: f["f134"], 3: f["f124"], 4: f["f123"]}
    )
    problems = eq.validate()
    if problems:
        raise ReconstructionError("; ".join(problems))
    return Height4Instance(model, eq, c, f, control)


def verify_no_torsor_over_twisted(
    pres: Presentation, registry: AvoidedRegistry, which: str, bounds: SearchBounds = SearchBounds(6, 4)
) -> dict:
    """Certificate + independent bounded confirmation for T_{a} over E(a)."""
    sub = pres.restrict(tuple(registry.pres.names()) + (which,))
    target = sub.gen(which)
    eq = TwistedEquation(sub.one(), target)
    cert_res = certify_unsolvable(sub, eq, registry)
    if not isinstance(cert_res, Unsolvable):
        raise ReconstructionError(f"T_{{{which}}} did not certify: {cert_res!r}")
    if not replay_certificate(sub, eq, cert_res.certificate, registry):
        raise ReconstructionError("certificate replay mismatch")
    bounded = solve_twisted_bounded(sub, eq, bounds)
    if not isinstance(bounded, NoSolutionWithinBounds):
        raise ReconstructionError(f"bounded search disagrees with the certificate: {bounded!r}")
    return {
        "which": which,
        "certificate": cert_res.certificate,
        "derived_equations": derived_equations(cert_res.certificate),
        "bounded": bounded,
    }


def derived_equations(cert: Certificate) -> list[str]:
    """The case-derived equations recorded in a certificate, top level first."""
    out: list[str] = []

    def walk(node):
        if isinstance(node, ExtensionSplit):
            for case in node.cases:
                if case.derived is not None:
                    out.append(repr(case.derived))
                walk(case.node)

    walk(cert.node)
    return out


# -- the parametric refutation chain ---------------------------------------------------


@record
class ChainStep:
    title: str
    detail: str


@record
class RefutationReport:
    bounded: Any
    steps: list[ChainStep]
    side_certificates: dict[str, Certificate]
    verdict: str

    def completed(self) -> bool:
        return self.verdict == "refuted"


def refute_ff_decomposition(
    instance: Height4Instance,
    registry: AvoidedRegistry,
    bounds: SearchBounds = SearchBounds(4, 3),
    seed: int = 0,
) -> RefutationReport:
    """Refute fixed-field decomposability of the height-4 instance.

    (a) the bounded direct search must come back empty; (b) a parametric
    chain shows any putative fixed decomposition would realize a shifted
    torsor T_{a1 + c} over E(a1) (and T_{a2 - c} over E(a2)), families the
    registry refutes outright.  On the control instance the chain finds the
    blocking step unsupported and refuses, and the bounded search succeeds.
    """
    model = instance.model
    steps: list[ChainStep] = []
    bounded = ff_decompose_bounded(model, instance.equation, bounds)
    found = not isinstance(bounded, NotFoundWithinBounds)
    steps.append(
        ChainStep(
            "bounded search",
            "a fixed-field decomposition was found within bounds"
            if found
            else f"no fixed-field decomposition within degree {bounds.degree}, window {bounds.window}",
        )
    )
    if found:
        return RefutationReport(bounded, steps, {}, "refused: instance is ff-decomposable within bounds")

    c12, c13, c23 = instance.c_elements["c12"], instance.c_elements["c13"], instance.c_elements["c23"]
    f123 = instance.f_elements["f123"]
    if c12 - c13 - c23 != f123:
        raise ReconstructionError("d-equation precheck failed")
    steps.append(
        ChainStep(
            "putative decomposition",
            "suppose f123 = e12 - e13 - e23 with fixed e_ij in the pairwise corners; "
            "set d_ij = c_ij - e_ij, so d12 - d13 - d23 = (c12 - c13 - c23) - f123 = 0",
        )
    )
    # specialise block 3: the identity d12 = d13 + d23 evaluated at a generic
    # rational point for block 3 leaves d12 unchanged and splits it as
    # g1 + g2 with g1 in corner({1}), g2 in corner({2}).
    point, (g1_known, g2_known) = generic_evaluation(model, 3, [c13, c23], seed)
    if not (model.member_of(g1_known, model.complement(2, 3, 4)) and model.member_of(g2_known, model.complement(1, 3, 4))):
        raise ReconstructionError("specialised known parts escaped their corners")
    steps.append(
        ChainStep(
            "specialisation",
            f"evaluating block 3 at {sorted((repr(k), str(v)) for k, v in point.items())}: "
            f"d12 = g1 + g2 with g1 = ({g1_known}) - e13|eval in corner(1), "
            f"g2 = ({g2_known}) - e23|eval in corner(2)",
        )
    )
    wp_d12 = c12.wp()
    a1 = model.pres.gen("a1")
    a2 = model.pres.gen("a2")
    if wp_d12 != a1 + a2:
        raise ReconstructionError("wp(c12) != a1 + a2")
    steps.append(
        ChainStep(
            "wp step",
            "wp(d12) = wp(c12) = a1 + a2 since e12 is fixed; additivity gives "
            "wp(g1) + wp(g2) = a1 + a2",
        )
    )
    steps.append(
        ChainStep(
            "support split",
            "gamma := wp(g1) - a1 = -(wp(g2) - a2) lies in corner(1) and corner(2) "
            "simultaneously, hence in the base E (the blocks share no variables)",
        )
    )
    side_certs: dict[str, Certificate] = {}
    for which in ("a1", "a2"):
        corner_pres = model.corner({int(which[1])})
        target = corner_pres.gen(which)
        query = TwistedShiftFamily(corner_pres.one(), target)
        res = certify_unsolvable(corner_pres, query, registry)
        if not isinstance(res, Unsolvable):
            steps.append(
                ChainStep(
                    "blocked step",
                    f"the shifted torsor family T_{{{which} + c}} over E({which}) "
                    f"could not be refuted ({res!r}); the chain refuses",
                )
            )
            return RefutationReport(bounded, steps, side_certs, "refused: chain step unsupported")
        side_certs[which] = res.certificate
        steps.append(
            ChainStep(
                f"torsor refutation over E({which})",
                f"wp(g) = {which} + gamma would realize T_{{{which} + gamma}} in E({which}); "
                f"certified impossible uniformly in gamma; derived base equations: "
                + "; ".join(derived_equations(res.certificate)),
            )
        )
    return RefutationReport(bounded, steps, side_certs, "refuted")


@record
class CounterexampleReport:
    """Everything the pipeline established, in verifiable form."""

    base_names: tuple[str, ...]
    closure_steps: list[ClosureStep]
    registry_replayed: bool
    product_identity: dict
    torsor_refutations: dict[str, dict]
    instance_checks: dict
    refutation: RefutationReport
    control: RefutationReport
    verdict: str

    def to_dict(self) -> dict:
        return {
            "base": list(self.base_names),
            "closure_steps": [
                {"generator": s.generator, "target": s.target} for s in self.closure_steps
            ],
            "registry_replayed": self.registry_replayed,
            "product_identity": self.product_identity,
            "torsor_refutations": {
                k: {
                    "derived_equations": v["derived_equations"],
                    "bounded": repr(v["bounded"]),
                }
                for k, v in self.torsor_refutations.items()
            },
            "instance_checks": self.instance_checks,
            "refutation": {
                "verdict": self.refutation.verdict,
                "bounded": repr(self.refutation.bounded),
                "steps": [
                    {"title": s.title, "detail": s.detail} for s in self.refutation.steps
                ],
            },
            "control": {
                "verdict": self.control.verdict,
                "bounded_found": not isinstance(self.control.bounded, NotFoundWithinBounds),
            },
            "verdict": self.verdict,
        }


def run_pipeline(
    bounds: SearchBounds = SearchBounds(4, 3),
    torsor_bounds: SearchBounds = SearchBounds(6, 4),
    control_bounds: SearchBounds = SearchBounds(2, 1),
    seed: int = 0,
) -> CounterexampleReport:
    """The whole reconstruction, machine-checked end to end.

    The control variant searches at small bounds: its planted decomposition
    has degree one, and the point is only that the verdicts flip.
    """
    base0, registry0 = build_base()
    base, registry, step = closure_step(base0, registry0, base0.one(), name="t1")
    closure_steps = [step]
    replayed = replay_registry(registry0, None) and replay_registry(registry, registry0)
    pair_pres, a1, a2 = adjoin_twisted_pair(base)
    product = verify_product_identity(pair_pres)
    if not product["identity"]:
        raise ReconstructionError("product identity failed")
    torsor_refs = {
        which: verify_no_torsor_over_twisted(pair_pres, registry, which, torsor_bounds)
        for which in ("a1", "a2")
    }
    instance = build_height4_instance(base, control=False)
    instance_checks = {
        "all_fixed": all(v.is_fixed() for v in instance.f_elements.values()),
        "zero_sum": sum(instance.f_elements.values(), instance.model.pres.zero()).is_zero(),
        "memberships": instance.equation.validate() == [],
    }
    refutation = refute_ff_decomposition(instance, registry, bounds, seed)
    control_instance = build_height4_instance(base, control=True)
    control_report = refute_ff_decomposition(control_instance, registry, control_bounds, seed)
    if not (refutation.completed() and not control_report.completed()):
        raise ReconstructionError(
            "control variant did not produce the opposite verdict: "
            f"{refutation.verdict!r} vs {control_report.verdict!r}"
        )
    return CounterexampleReport(
        base.names(),
        closure_steps,
        replayed,
        product,
        torsor_refs,
        instance_checks,
        refutation,
        control_report,
        "refuted with certificate chain",
    )


# -- character obstructions ------------------------------------------------------------


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
        raise CharacterError("refused: the torsor is not certified unrealized over the base")
    p = pres
    for i in (1, 2, 3):
        p, _ = p.with_affine(f"alpha{i}", 1, target)
    a1, a2, a3 = (p.gen(f"alpha{i}") for i in (1, 2, 3))
    r12, r13, r23 = r
    # extend_character sigma-tests d12 and d13, the directions they open;
    # d23 = d13 - d12 lies in their span, so it is fixed when they are
    try:
        attempt = extend_character(
            CharacterTable.empty(p), [(a1 - a2, r12), (a1 - a3, r13), (a2 - a3, r23)]
        )
    except CharacterError:
        raise AssertionError("internal error: witness differences must be fixed") from None
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
    # is_ff has sigma-tested every summand, so one outside the span joins a
    # table built directly: extend_character would sigma-test it again.
    def extends(i: int, angle: CircleValue) -> CircleValue:
        if CharacterTable(pres, table.entries + ((smap[i], angle),)).consistency() is not None:
            raise AssertionError(f"internal error: summand {i} failed to extend")
        return angle

    values: dict[int, CircleValue] = {}
    for i in idx:
        if i == k:
            continue
        in_span = table.tracker.express(smap[i].value) is not None  # then value_of runs no sigma test
        values[i] = value_of(table, smap[i]) if in_span else extends(i, CircleValue(0))
    others = sum((values[i].angle for i in values), Fraction(0))
    values[k] = extends(k, CircleValue(Fraction(1, 2) - others))
    total = CircleValue(sum((v.angle for v in values.values()), Fraction(0)))
    if total.is_identity():
        raise AssertionError("internal error: obstruction angle sum vanished")
    return {
        "verdict": "obstruction",
        "summand_angles": values,
        "angle_sum": total,
        "forced_relation": "summands sum to zero, so their angles must too",
        # extends checked each free summand's table; a forced value is consistent
        "per_corner_tables_consistent": True,
    }


# -- hyperplane relations over a subfield ----------------------------------------------


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
