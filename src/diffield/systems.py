"""Independent n-systems, additive equations, and their decompositions.

An independent n-system is realized concretely: a base presentation (the
parameter set) extended by generator blocks, one per corner index, with
every block generator free or affine over the base.  Algebraic independence
of the blocks is then true by construction, and corner membership is exact
variable-support inspection.  Later constructions adjoin torsor witnesses
that belong to a *subset* of indices (pairwise corners), so each generator
carries the set of indices it involves, empty for the base; corner(w) is the
sub-presentation of the generators whose index sets lie inside w.

The decompositions follow the two-step induction, written once as _peel:
step 1 realizes the specialisation of the defining linear identity by
generic rational evaluation of one block's variables (over algebraically
independent blocks, generic evaluation is the co-heir at instance level),
and step 2 peels the last corner until the height-2 remainder telescopes.
Each peel specialises at block `last` with seed + 17*last, writes one row of
the antisymmetric family, and adds it to the remaining summands; the seed
then steps by 1 (decompose, and the wp split of the witness-driven
decompositions) or by 5 (ff_decompose_with_witnesses, whose rows are
wp-split at seed + 3, one oracle witness per pair, and corrected by
those witnesses).
Generic points come from a seeded sequence over growing integer boxes, so
runs are reproducible bit-exactly.

validate_decomposition and check_n_sas_witness check decompositions and
higher torsor-splitting witness sets exactly, without search.
"""

from __future__ import annotations

import random
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .certify import certify_constants
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
    """Corner fields realized by generators, each carrying its index set.

    ``blocks`` holds one index set per generator of ``pres``, in order: empty
    for the base, and inside 1..size for the rest.  A rule mentions only
    generators whose index sets lie inside its own, so corner(w), the
    generators with index sets inside w, is closed under sigma.
    """

    pres: Presentation
    size: int
    blocks: tuple[frozenset[int], ...]  # one index set per generator of pres

    @staticmethod
    def of(pres: Presentation, block_names: Sequence[Sequence[str]]) -> "SystemModel":
        """The system whose block i holds the generators named in block_names[i - 1];
        every other generator of pres is base."""
        index_sets: dict[str, frozenset[int]] = {}
        for i, block in enumerate(block_names, start=1):
            for name in block:
                if not pres.has_gen(name):
                    raise SystemModelError(f"unknown block generator {name!r}")
                if name in index_sets:
                    raise SystemModelError("a generator is assigned to two blocks")
                index_sets[name] = frozenset({i})
        blocks = tuple(index_sets.get(g.name, frozenset()) for g in pres.gens)
        model = SystemModel(pres, len(block_names), blocks)
        model.validate()
        return model

    def indices(self) -> frozenset[int]:
        return frozenset(range(1, self.size + 1))

    def complement(self, *drop: int) -> frozenset[int]:
        return self.indices() - set(drop)

    def corner(self, w: Iterable[int]) -> Presentation:
        wset = frozenset(w)
        return self.pres.restrict(g.name for g, s in zip(self.pres.gens, self.blocks) if s <= wset)

    @cached_property
    def _index_sets(self) -> dict[int, frozenset[int]]:
        """Generator index -> index set (a memo outside the record fields,
        unseen by equality, hashing and repr)."""
        return {g.index: s for g, s in zip(self.pres.gens, self.blocks)}

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
        """Adjoin a fresh affine generator with the index set w; an empty w
        extends the base (a closure step over the parameter field)."""
        pres, gen = self.pres.with_affine(name, linear, constant)
        model = SystemModel(pres, self.size, self.blocks + (frozenset(w),))
        model.validate()
        return model, gen

    def validate(self) -> None:
        if self.size < 1:
            raise SystemModelError("system size must be at least 1")
        if len(self.blocks) != len(self.pres.gens):
            raise SystemModelError("a system needs one index set per generator")
        indices = self.indices()
        for g, subset in zip(self.pres.gens, self.blocks):
            if not subset <= indices:
                raise SystemModelError(f"index set {set(subset)} of {g.name!r} outside the system")
            if g.is_free:
                continue
            for part in (g.kind.linear, g.kind.constant):
                for v in part.variables():
                    vsub = self._indices_of(v)
                    if vsub is None or not vsub <= subset:
                        raise SystemModelError(f"rule of {g.name!r} mentions {v.name!r} outside its corner")


def build_system(base: Presentation, blocks: Sequence[Sequence[tuple]]) -> SystemModel:
    """Construct a system from per-index block specs.

    Each block is a list of (name, kind) where kind is "free" or a pair
    (linear, constant) of base elements; block generators may only reference
    the base, which is what makes the blocks independent by construction.
    """
    pres = base
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
    return SystemModel.of(pres, [[name for name, _ in block] for block in blocks])


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
    """Antisymmetric pairwise decomposition of an additive equation (height >= 3):
    the peel (_peel) with step 1, n - 2 specialisations."""
    eq.require_valid(ff=False)
    if eq.height < 3:
        raise SystemModelError("decomposition requires height at least 3")
    return _peel(model, eq.summand_map(), seed, 1)[1]


def _peel(model: SystemModel, b: Mapping[int, Element], seed: int, step: int, correct=None):
    """The two-step induction: peel the last index until two summands telescope.

    Each round specialises b at block `last` = max(b) with seed + 17*last
    (specialise_step1), which gives row `last`; correct(model, last, row,
    seed), when given, returns the model and the row to use instead; the
    remaining summands absorb the row, and seed += step.  Returns (model,
    dec, rest): dec holds the rows and, when two summands are left, their
    telescoped pair; rest is the summands left (two, one or none).
    """
    b = dict(b)
    dec: Decomposition = {}
    while len(b) > 2:
        last = max(b)
        row = specialise_step1(model, b, last, seed=seed + 17 * last)
        del b[last]
        if correct is not None:
            model, row = correct(model, last, row, seed)
        for j in b:
            dec[(last, j)], dec[(j, last)] = row[j], -row[j]
            b[j] = b[j] + row[j]
        seed += step
    if len(b) == 2:  # the height-2 step: b_i + b_j = 0 is the decomposition (i,j) = b_i
        i, j = sorted(b)
        if b[i] != -b[j]:
            raise SystemModelError("height-2 equation does not telescope")
        dec[(i, j)], dec[(j, i)] = b[i], b[j]
    return model, dec, b


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
    for kind, family in (("summands", summands), ("rewritten summands", rewrite)):
        if sum((family[i] for i in sorted(family)), model.pres.zero()) != btilde:
            problems.append(f"{kind} do not sum to the target")
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


# -- torsor witness oracles ---------------------------------------------------------


class SolverOracle:
    """find(model, target, w): a witness x in corner(w) with sigma(x) - x =
    target and its model, or None, by bounded search in the corner; never
    extends the model."""

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
    oracle: SolverOracle,
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
    if not sum(d.values(), model.pres.zero()).is_fixed():
        raise SystemModelError("wp-decomposition requires the summand total to be fixed")
    family = AdditiveEquation.of(model, {i: x.wp() for i, x in d.items()})
    model, e, wit = _wp_split(model, family.summand_map(), model.indices(), oracle, seed)
    ok, problems = validate_decomposition(model, family, e)
    if not ok:
        raise SystemModelError("internal error: wp-system invalid: " + "; ".join(problems))
    if any(wit[k].wp() != e[k] for k in e):
        raise SystemModelError("internal error: wp witness fails its torsor")
    return model, e, wit


def _wp_split(model, w, universe, oracle, seed):
    """The peel of the family w = {i: wp(d_i)}, in ascending i, with step 1,
    plus one oracle witness per pair.

    Each peeled row's targets e[(last,i)] are realized in ascending i over
    universe - {i, last} before the next specialisation; the last pair's
    target must lie in its corner, and a single summand must be fixed.  A
    miss raises WitnessUnavailable naming the query.
    """
    wit: Decomposition = {}

    def realize(model, i, k, target):
        corner = universe - {i, k}
        found = oracle.find(model, target, corner)
        if found is None:
            raise WitnessUnavailable(target, corner)
        wit[(i, k)], wit[(k, i)] = found[0], -found[0]
        return found[1]

    def witnesses(model, last, row, seed):
        for i, target in row.items():
            model = realize(model, last, i, target)
        return model, row

    model, e, rest = _peel(model, w, seed, 1, witnesses)
    if len(rest) == 2:
        i, j = rest
        if not model.member_of(rest[i], universe - {i, j}):
            raise SystemModelError("wp difference escapes the pair corner")
        model = realize(model, i, j, rest[i])
    elif not all(x.is_zero() for x in rest.values()):
        raise SystemModelError("single-summand wp-decomposition needs a fixed summand")
    return model, e, wit


def ff_decompose_with_witnesses(
    model: SystemModel,
    eq: AdditiveEquation,
    oracle: SolverOracle,
    seed: int = 0,
):
    """Fixed-field decomposition via the wp-correction pipeline: the peel
    (_peel) with step 5, each row wp-split with oracle witnesses over the
    corner without `last` (_wp_split at seed + 3) and corrected by them so
    every entry is fixed.

    The result is a valid decomposition into fixed entries, empty at height
    1; a blocked torsor query raises WitnessUnavailable naming its target.
    """
    eq.require_valid(ff=True)

    def fix(model, last, row, seed):
        wp_row = {i: x.wp() for i, x in row.items()}
        model, _, wit = _wp_split(model, wp_row, model.indices() - {last}, oracle, seed + 3)
        fixed = {}
        for i in row:
            fixed[i] = row[i] - sum((wit[(i, k)] for k in row if k != i), model.pres.zero())
            if not fixed[i].is_fixed():
                raise SystemModelError("corrected row entry is not fixed")
        return model, fixed

    model, dec, _ = _peel(model, eq.summand_map(), seed, 5, fix)
    return model, dec


@record(frozen=True)
class NotFoundWithinBounds:
    bounds: SearchBounds


def pairwise_fixed_polynomials(
    model: SystemModel, idx: Sequence[int], bounds: SearchBounds
) -> dict[tuple[int, int], list[Element]]:
    """Polynomial fixed elements of each pairwise corner, over model.pres.

    A corner whose polynomial fixed elements certify_constants proves to be
    Q gets [1], at every bound, with no search: the search below finds only
    members of Q there, whose span_basis is [1].

    Another corner is searched.  A polynomial has no affine generator in
    any denominator, so the polynomial-only search fixed_space(corner,
    bounds, polynomial=True) reaches every polynomial fixed element of the
    corner within the bounds (see fixed_space); its members with free-base
    denominators are dropped.

    The certificate and the search run once per corner shape
    (Presentation.shape: the generator kinds in index order, with rules
    renamed by position).  Both read generators by index and rule only, so
    a later corner of a known shape is certified with the first one, or gets
    its candidates renamed into its own generators (Element.renamed), each
    checked fixed again.  Every corner then takes its own span_basis, whose
    order reads the corner's own names, so each list is the one fixed_space
    gives for that corner.

    Pairs (i, j) with i before j in idx come in idx order, and members in
    fixed_space order; callers number their parameters by that order.
    """
    out: dict[tuple[int, int], list[Element]] = {}
    searched: dict[tuple, list[Element]] = {}  # shape -> candidates of its first corner, none when certified
    for pos, i in enumerate(idx):
        for j in idx[pos + 1 :]:
            corner = model.corner(model.complement(i, j))
            shape = corner.shape
            if shape in searched:
                candidates = require_fixed(x.renamed(corner) for x in searched[shape])
            elif isinstance(certify_constants(corner), tuple):
                candidates = searched[shape] = []
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

