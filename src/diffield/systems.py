"""Independent n-systems, additive equations, and their decompositions.

An independent n-system is realized concretely: a base presentation (the
parameter set) extended by generator blocks, one per corner index, with
every block generator free or affine over the base.  Algebraic independence
of the blocks is then true by construction, and corner membership is exact
variable-support inspection.  Later constructions adjoin torsor witnesses
that belong to a *subset* of indices (pairwise corners), so the block map
assigns each non-base generator the set of indices it involves; corner(w)
is the sub-presentation of the base plus every generator assigned inside w.

The decomposition algorithm follows the two-step induction: step 1 realizes
the specialisation of the defining linear identity by generic rational
evaluation of one block's variables (over algebraically independent blocks,
generic evaluation is the co-heir at instance level), and step 2 peels the
last corner until the height-2 remainder telescopes: each peel writes one
row of the antisymmetric family and adds it to the remaining summands.  The
witness-driven decompositions peel the same way, one oracle query per torsor
target of a peeled row.
Generic points come from a seeded sequence over growing integer boxes, so
runs are reproducible bit-exactly.
"""

from __future__ import annotations

import random
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .equations import SearchBounds, Solution, TwistedEquation
from .field import Element, Presentation
from .linalg import Infeasible
from .params import LinComb, ParamContext
from .poly import MPoly, VarId
from .ratfunc import PoleError
from .record import record
from .tower import fixed_candidates, require_fixed, solve_twisted_bounded, span_basis


class SystemModelError(ValueError):
    pass


class NoGenericPoint(RuntimeError):
    """All attempted evaluation points hit poles."""


class WitnessUnavailable(RuntimeError):
    """The torsor oracle has no witness for a required query."""

    def __init__(self, target: Element, corner: frozenset[int]):
        self.target = target
        self.corner = corner
        names = "{" + ",".join(str(i) for i in sorted(corner)) + "}"
        super().__init__(f"witness unavailable at T_{{{target}}} in corner {names}")


@record(frozen=True)
class SystemModel:
    """Corner fields realized by generator blocks over a base presentation."""

    pres: Presentation
    size: int
    base_names: tuple[str, ...]
    assignment: tuple[tuple[str, frozenset[int]], ...]  # non-base generator -> indices

    def assignment_map(self) -> dict[str, frozenset[int]]:
        return dict(self.assignment)

    def indices(self) -> frozenset[int]:
        return frozenset(range(1, self.size + 1))

    def complement(self, *drop: int) -> frozenset[int]:
        return self.indices() - set(drop)

    def corner_names(self, w: Iterable[int]) -> tuple[str, ...]:
        wset = frozenset(w)
        names = list(self.base_names)
        for name, subset in self.assignment:
            if subset <= wset:
                names.append(name)
        return tuple(names)

    def corner(self, w: Iterable[int]) -> Presentation:
        return self.pres.restrict(self.corner_names(w))

    @cached_property
    def _index_sets(self) -> dict[int, frozenset[int]]:
        """Generator index -> assigned index set, empty for the base (a memo
        outside the record fields, unseen by equality, hashing and repr)."""
        amap = self.assignment_map()
        return {g.index: amap.get(g.name, frozenset()) for g in self.pres.gens}

    def _indices_of(self, v: VarId) -> frozenset[int] | None:
        """Index set of v's generator: empty for the base, None if foreign."""
        return self._index_sets.get(v.index)

    def member_of(self, elem: Element, w: Iterable[int]) -> bool:
        wset = frozenset(w)
        for v in elem.value.variables():
            subset = self._indices_of(v)
            if subset is None or not subset <= wset:
                return False
        return True

    def block_vars(self, i: int, elems: Sequence[Element]) -> list[VarId]:
        """Materialized variables of generators involving index i."""
        return sorted(
            {v for e in elems for v in e.value.variables() if i in (self._indices_of(v) or ())}
        )

    def adjoin(self, w: Iterable[int], name: str, linear, constant) -> tuple["SystemModel", Element]:
        """Adjoin a fresh affine generator assigned to the index set w.

        An empty index set extends the base instead (a closure step over the
        parameter field).
        """
        wset = frozenset(w)
        if not wset <= self.indices():
            raise SystemModelError(f"index set {set(w)} outside the system")
        pres, gen = self.pres.with_affine(name, linear, constant)
        if wset:
            model = SystemModel(pres, self.size, self.base_names, self.assignment + ((name, wset),))
        else:
            model = SystemModel(pres, self.size, self.base_names + (name,), self.assignment)
        model.validate()
        return model, gen

    def validate(self) -> None:
        if self.size < 1:
            raise SystemModelError("system size must be at least 1")
        names = set(self.pres.names())
        for b in self.base_names:
            if b not in names:
                raise SystemModelError(f"base generator {b!r} missing from the presentation")
        if len({name for name, _ in self.assignment}) != len(self.assignment):
            raise SystemModelError("a generator is assigned to two blocks")
        for name, subset in self.assignment:
            if name in self.base_names:
                raise SystemModelError(f"generator {name!r} is both base and block")
            if not subset or not subset <= self.indices():
                raise SystemModelError(f"generator {name!r} has an invalid index set")
            spec = self.pres.spec(name)
            if not spec.is_free:
                for part in (spec.kind.linear, spec.kind.constant):
                    for v in part.variables():
                        vsub = self._indices_of(v)
                        if vsub is None or not vsub <= subset:
                            raise SystemModelError(
                                f"rule of {name!r} mentions {v.name!r} outside its corner"
                            )


def build_system(base: Presentation, blocks: Sequence[Sequence[tuple]]) -> SystemModel:
    """Construct a system from per-index block specs.

    Each block is a list of (name, kind) where kind is "free" or a pair
    (linear, constant) of base elements; block generators may only reference
    the base, which is what makes the blocks independent by construction.
    """
    pres = base
    assignment: list[tuple[str, frozenset[int]]] = []
    base_names = base.names()
    base_indices = {g.index for g in base.gens}
    for i, block in enumerate(blocks, start=1):
        if not block:
            raise SystemModelError(f"block {i} is empty")
        for name, kind in block:
            if pres.has_gen(name):
                raise SystemModelError(f"duplicate generator {name!r} across blocks")
            if kind == "free":
                pres, _ = pres.with_free(name)
            else:
                linear, constant = kind
                for part in (linear, constant):
                    if isinstance(part, Element):
                        for v in part.value.variables():
                            if v.index not in base_indices:
                                raise SystemModelError(
                                    f"rule of {name!r} must mention base generators only"
                                )
                pres, _ = pres.with_affine(name, linear, constant)
            assignment.append((name, frozenset({i})))
    model = SystemModel(pres, len(blocks), base_names, tuple(assignment))
    model.validate()
    return model


@record(frozen=True)
class AdditiveEquation:
    """Zero-sum family b_i, the i-th summand avoiding block i."""

    model: SystemModel
    summands: tuple[tuple[int, Element], ...]

    @staticmethod
    def of(model: SystemModel, summands: Mapping[int, Element]) -> "AdditiveEquation":
        return AdditiveEquation(model, tuple(sorted(summands.items())))

    def summand_map(self) -> dict[int, Element]:
        return dict(self.summands)

    @property
    def height(self) -> int:
        return len(self.summands)

    def validate(self) -> list[str]:
        problems = []
        m = self.model
        smap = self.summand_map()
        if set(smap) != set(range(1, m.size + 1)):
            problems.append("summand indices must be exactly 1..n")
            return problems
        total = m.pres.zero()
        for i, b in smap.items():
            total = total + b
            if not m.member_of(b, m.complement(i)):
                problems.append(f"summand {i} mentions block {i}")
        if not total.is_zero():
            problems.append("summands do not sum to zero")
        return problems

    def is_ff(self) -> bool:
        return all(b.is_fixed() for _, b in self.summands)

    def require_valid(self, *, ff: bool) -> None:
        """Raise SystemModelError unless valid and, with ff, fixed-field."""
        problems = self.validate()
        if problems:
            raise SystemModelError("; ".join(problems))
        if ff and not self.is_ff():
            raise SystemModelError("equation is not fixed-field")


Decomposition = dict[tuple[int, int], Element]


GENERIC_ATTEMPTS = 32


def generic_points(seed: int, variables: Sequence[VarId]):
    """GENERIC_ATTEMPTS deterministic evaluation points from growing integer boxes."""
    rng = random.Random(seed)
    for attempt in range(GENERIC_ATTEMPTS):
        box = 2 + attempt
        yield {v: Fraction(rng.randint(-box, box)) for v in variables}


def generic_evaluation(
    model: SystemModel, i: int, elems: Sequence[Element], seed: int
) -> tuple[dict[VarId, Fraction], list[Element]]:
    """The first point of generic_points for block i's variables at which no
    element of elems has a pole, and the elements of model.pres they become
    there: the one specialisation loop (step 1 and the refutation chain)."""
    last_error: Exception | None = None
    for point in generic_points(seed, model.block_vars(i, elems)):
        try:
            values = [e.value.evaluate(point) for e in elems]
        except PoleError as exc:
            last_error = exc
            continue
        return point, [model.pres.element(v) for v in values]
    raise NoGenericPoint(f"no generic point found after {GENERIC_ATTEMPTS} attempts ({last_error})")


def specialise_step1(
    model: SystemModel, summands: Mapping[int, Element], i: int, seed: int = 0
) -> dict[int, Element]:
    """Split b_i into per-pair summands by evaluating block i generically.

    Substituting a generic rational point for block i's variables in the
    identity b_i = -sum(b_j) leaves b_i untouched and pushes each -b_j into
    the corner missing both i and j; membership and the exact sum are then
    true by construction and are still verified.
    """
    others = [j for j in summands if j != i]
    _, values = generic_evaluation(model, i, [summands[j] for j in others], seed)
    result = {j: -v for j, v in zip(others, values)}
    total = model.pres.zero()
    for j, d in result.items():
        if not model.member_of(d, model.complement(i, j)):
            raise SystemModelError("specialised summand escaped its corner")
        total = total + d
    if total != summands[i]:
        raise SystemModelError("specialised summands do not recover b_i")
    return result


def decompose(model: SystemModel, eq: AdditiveEquation, seed: int = 0) -> Decomposition:
    """Antisymmetric pairwise decomposition of an additive equation (height >= 3).

    Peel the last index until the height-2 remainder telescopes: one
    specialise_step1 at block `last` (seed + 17*last, then seed += 1) gives
    row `last`, which the remaining summands absorb; n - 2 specialisations.
    """
    eq.require_valid(ff=False)
    if eq.height < 3:
        raise SystemModelError("decomposition requires height at least 3")
    b = eq.summand_map()
    dec: Decomposition = {}
    while len(b) > 2:
        last = max(b)
        row = specialise_step1(model, b, last, seed=seed + 17 * last)
        del b[last]
        for j in b:
            dec[(last, j)], dec[(j, last)] = row[j], -row[j]
            b[j] = b[j] + row[j]
        seed += 1
    dec.update(_telescope(b, *sorted(b)))
    return dec


def _telescope(b: Mapping[int, Element], i: int, j: int) -> Decomposition:
    """The height-2 step: b_i + b_j = 0 is the decomposition (i,j) = b_i."""
    if b[i] != -b[j]:
        raise SystemModelError("height-2 equation does not telescope")
    return {(i, j): b[i], (j, i): b[j]}


def validate_decomposition(
    model: SystemModel, eq: AdditiveEquation, dec: Decomposition
) -> tuple[bool, list[str]]:
    """Exact membership, antisymmetry and recovery checks."""
    problems = []
    smap = eq.summand_map()
    idx = sorted(smap)
    for i in idx:
        for j in idx:
            if i == j:
                continue
            if (i, j) not in dec:
                problems.append(f"missing entry ({i},{j})")
                continue
            if not model.member_of(dec[(i, j)], model.complement(i, j)):
                problems.append(f"entry ({i},{j}) escapes its corner")
            if dec[(i, j)] != -dec[(j, i)]:
                problems.append(f"antisymmetry fails at ({i},{j})")
    if problems:
        return False, problems
    for i in idx:
        total = model.pres.zero()
        for j in idx:
            if j != i:
                total = total + dec[(i, j)]
        if total != smap[i]:
            problems.append(f"recovery fails at summand {i}")
    return (not problems), problems


# -- torsor witness oracles ---------------------------------------------------------


class TorsorWitnessOracle:
    """Answers: a witness x in corner(w) with sigma(x) - x = target, or None."""

    def find(self, model: SystemModel, target: Element, w: frozenset[int]):
        raise NotImplementedError


class SolverOracle(TorsorWitnessOracle):
    """Bounded search in the corner presentation; never extends the model."""

    def __init__(self, bounds: SearchBounds = SearchBounds(4, 2)):
        self.bounds = bounds

    def find(self, model, target, w):
        if not model.member_of(target, w):
            return None
        corner = model.corner(w)
        local = corner.element(target.value)
        res = solve_twisted_bounded(corner, TwistedEquation(corner.one(), local), self.bounds)
        if isinstance(res, Solution):
            return model.pres.element(res.witness.value), model
        return None


class ClosureOracle(SolverOracle):
    """Solver-backed oracle that adjoins a fresh torsor witness on a miss.

    This is how a base "extended by closure steps for all torsors the
    induction queries" is realized: every miss becomes an explicit closure
    step, recorded in ``closures``.
    """

    def __init__(self, bounds: SearchBounds = SearchBounds(4, 2)):
        super().__init__(bounds)
        self.counter = 0
        self.closures: list[tuple[str, frozenset[int], Element]] = []

    def find(self, model, target, w):
        got = super().find(model, target, w)
        if got is not None:
            return got
        if not model.member_of(target, w):
            return None
        self.counter += 1
        name = f"w{self.counter}"
        model2, gen = model.adjoin(w, name, model.pres.one(), target)
        self.closures.append((name, w, target))
        return gen, model2


# -- witness-driven decompositions ----------------------------------------------------


def wp_decompose_with_witnesses(
    model: SystemModel,
    d: Mapping[int, Element],
    oracle: TorsorWitnessOracle,
    seed: int = 0,
):
    """Split wp(d_i) into an antisymmetric family of realized torsor targets.

    Requires sum(d_i) fixed.  Returns (model, e, wit) with
    wp(d_i) = sum_k e[(i,k)], e[(i,k)] = -e[(k,i)], and wp(wit[(i,k)]) =
    e[(i,k)] with wit[(i,k)] in corner(complement(i,k)).  The oracle
    supplies the torsor realizations the induction needs; a miss raises
    WitnessUnavailable naming the blocked query.  An empty d gives empty
    families.
    """
    active = sorted(d)
    if not sum(d.values(), model.pres.zero()).is_fixed():
        raise SystemModelError("wp-decomposition requires the summand total to be fixed")
    model, e, wit = _wp_split(model, d, model.indices(), oracle, seed)
    for i in active:
        recovered = model.pres.zero()
        for k in active:
            if k != i:
                recovered = recovered + e[(i, k)]
                if e[(i, k)] != -e[(k, i)]:
                    raise SystemModelError("internal error: wp-system not antisymmetric")
                if wit[(i, k)].wp() != e[(i, k)]:
                    raise SystemModelError("internal error: wp witness fails its torsor")
        if recovered != d[i].wp():
            raise SystemModelError("internal error: wp-system does not recover wp(d_i)")
    return model, e, wit


def _witness(model: SystemModel, target: Element, corner: frozenset[int], oracle: TorsorWitnessOracle):
    """The oracle's (x, model) with x in corner and wp(x) = target; a miss
    raises WitnessUnavailable naming the query."""
    found = oracle.find(model, target, corner)
    if found is None:
        raise WitnessUnavailable(target, corner)
    return found


def _wp_split(model, d, universe, oracle, seed):
    """Peel the last index of the wp(d_i) until two summands are left.

    One specialise_step1 at block `last` (seed + 17*last, then seed += 1)
    gives the targets e[(last,i)]; in ascending i, _witness realizes each
    over universe - {i, last} and d_i absorbs its witness, so wp(d_i) gains
    e[(last,i)].  The last pair asks about wp(d_i) for its smaller index; a
    single summand must be fixed.
    """
    w = {i: x.wp() for i, x in sorted(d.items())}
    e: Decomposition = {}
    wit: Decomposition = {}
    while len(w) > 2:
        last = max(w)
        f = specialise_step1(model, w, last, seed=seed + 17 * last)
        del w[last]
        for i in w:
            h, model = _witness(model, f[i], universe - {i, last}, oracle)
            e[(last, i)], e[(i, last)] = f[i], -f[i]
            wit[(last, i)], wit[(i, last)] = h, -h
            w[i] = w[i] + f[i]
        seed += 1
    if len(w) == 2:
        i, j = w
        target = w[i]
        if not model.member_of(target, universe - {i, j}):
            raise SystemModelError("wp difference escapes the pair corner")
        e[(i, j)], e[(j, i)] = target, -target
        h, model = _witness(model, target, universe - {i, j}, oracle)
        wit[(i, j)], wit[(j, i)] = h, -h
    elif len(w) == 1:
        (x,) = w.values()
        if not x.is_zero():
            raise SystemModelError("single-summand wp-decomposition needs a fixed summand")
    return model, e, wit


def ff_decompose_with_witnesses(
    model: SystemModel,
    eq: AdditiveEquation,
    oracle: TorsorWitnessOracle,
    seed: int = 0,
):
    """Fixed-field decomposition via the wp-correction pipeline.

    Peel the last index as decompose does: specialise at block `last` (seed
    + 17*last), wp-split that row with oracle witnesses over the corner
    without `last` (_wp_split at seed + 3), subtract the witnesses so every
    entry is fixed, and add the row to the remaining summands; seed += 5.
    The result is a valid decomposition into fixed entries, empty at height
    1; a blocked torsor query raises WitnessUnavailable naming its target.
    """
    eq.require_valid(ff=True)
    b = eq.summand_map()
    dec: Decomposition = {}
    while len(b) > 2:
        last = max(b)
        d_last = specialise_step1(model, b, last, seed=seed + 17 * last)
        del b[last]
        model, _, wit = _wp_split(model, d_last, model.indices() - {last}, oracle, seed + 3)
        for i in b:
            entry = d_last[i] - sum((wit[(i, k)] for k in b if k != i), model.pres.zero())
            if not entry.is_fixed():
                raise SystemModelError("corrected row entry is not fixed")
            dec[(last, i)], dec[(i, last)] = entry, -entry
            b[i] = b[i] + entry
        seed += 5
    if len(b) == 2:
        dec.update(_telescope(b, *sorted(b)))
    return model, dec


@record(frozen=True)
class NotFoundWithinBounds:
    bounds: SearchBounds


def pairwise_fixed_polynomials(
    model: SystemModel, idx: Sequence[int], bounds: SearchBounds
) -> dict[tuple[int, int], list[Element]]:
    """Polynomial fixed elements of each pairwise corner, over model.pres.

    A polynomial has no affine generator in any denominator, so the
    polynomial-only search fixed_space(corner, bounds, polynomial=True)
    reaches every polynomial fixed element of the corner within the bounds
    (see fixed_space); its members with free-base denominators are dropped.

    The search runs once per corner shape (Presentation.shape: the generator
    kinds in index order, with rules renamed by position).  It reads
    generators by index and rule only, so a later corner of a known shape
    gets the first one's candidates renamed into its own generators
    (Element.renamed), each checked fixed again.  Every corner then takes its
    own span_basis, whose order reads the corner's own names, so each list
    is the one fixed_space gives for that corner.

    Pairs (i, j) with i before j in idx come in idx order, and members in
    fixed_space order; callers number their parameters by that order.
    """
    out: dict[tuple[int, int], list[Element]] = {}
    searched: dict[tuple, list[Element]] = {}  # shape -> candidates of its first corner
    for pos, i in enumerate(idx):
        for j in idx[pos + 1 :]:
            corner = model.corner(model.complement(i, j))
            shape = corner.shape()
            if shape in searched:
                candidates = require_fixed(x.renamed(corner) for x in searched[shape])
            else:
                candidates = searched[shape] = fixed_candidates(corner, bounds, polynomial=True)
            out[(i, j)] = [
                model.pres.element(s.value)
                for s in span_basis(candidates, first=corner.one())
                if s.value.is_polynomial()
            ]
    return out


def ff_decompose_bounded(
    model: SystemModel, eq: AdditiveEquation, bounds: SearchBounds = SearchBounds(4, 3)
) -> Decomposition | NotFoundWithinBounds:
    """Direct search for a fixed-field decomposition.

    Candidates for each pairwise entry are Q-combinations of the polynomial
    fixed elements of the corresponding corner found within the bounds by
    pairwise_fixed_polynomials; the recovery constraints are one exact
    linear system.  Complete for entries that are polynomial fixed elements
    within the bounds, the bounded proxy for the corner fixed fields; a
    NotFoundWithinBounds says nothing beyond them.
    """
    eq.require_valid(ff=True)
    smap = eq.summand_map()
    idx = sorted(smap)
    ctx = ParamContext()
    entries: dict[tuple[int, int], LinComb] = {}
    pres = model.pres
    for (i, j), span in pairwise_fixed_polynomials(model, idx, bounds).items():
        comb = LinComb(pres, MPoly(), {ctx.new_param(): e.value.num for e in span})  # members are polynomials
        entries[(i, j)], entries[(j, i)] = comb, -comb
    try:
        for i in idx:
            total = LinComb.zero(pres)
            for j in idx:
                if j != i:
                    total = total + entries[(i, j)]
            ctx.add_zero(total - LinComb.constant(pres, smap[i]))
    except Infeasible:
        return NotFoundWithinBounds(bounds)
    particular = ctx.solve()
    dec = {key: lc.evaluate(particular) for key, lc in entries.items()}
    ok, problems = validate_decomposition(model, eq, dec)
    if not ok:
        raise SystemModelError("internal error: bounded ff-decomposition invalid: " + "; ".join(problems))
    return dec

