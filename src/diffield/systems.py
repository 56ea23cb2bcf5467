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
generic evaluation is the co-heir at instance level), and step 2 corrects
the resulting one-sided splittings into an antisymmetric family, peeling
the last corner and recursing.  Generic points come from a seeded sequence
over growing integer boxes, so runs are reproducible bit-exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .equations import SearchBounds, Solution, TwistedEquation
from .field import Element, Presentation
from .linalg import Infeasible
from .params import LinComb, ParamContext
from .poly import VarId
from .ratfunc import PoleError
from .tower import fixed_space, solve_twisted_bounded


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


@dataclass(frozen=True)
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

    def member_of(self, elem: Element, w: Iterable[int]) -> bool:
        wset = frozenset(w)
        amap = self.assignment_map()
        by_index = {g.index: g.name for g in self.pres.gens}
        for v in elem.value.variables():
            name = by_index.get(v.index)
            if name is None:
                return False
            subset = amap.get(name)
            if subset is not None and not subset <= wset:
                return False
        return True

    def block_vars(self, i: int, elems: Sequence[Element]) -> list[VarId]:
        """Materialized variables of generators involving index i."""
        amap = self.assignment_map()
        by_index = {g.index: g.name for g in self.pres.gens}
        out = set()
        for e in elems:
            for v in e.value.variables():
                subset = amap.get(by_index[v.index])
                if subset is not None and i in subset:
                    out.add(v)
        return sorted(out, key=VarId.key)

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
        amap = self.assignment_map()
        if len(amap) != len(self.assignment):
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
                        vname = self.pres.spec_by_index(v.index).name
                        vsub = amap.get(vname)
                        if vsub is not None and not vsub <= subset:
                            raise SystemModelError(
                                f"rule of {name!r} mentions {vname!r} outside its corner"
                            )

    def diagnostics(self) -> list[str]:
        try:
            self.validate()
        except SystemModelError as exc:
            return [str(exc)]
        return []


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


@dataclass(frozen=True)
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
    """Antisymmetric pairwise decomposition of an additive equation (height >= 3)."""
    eq.require_valid(ff=False)
    if eq.height < 3:
        raise SystemModelError("decomposition requires height at least 3")
    active = sorted(eq.summand_map())
    return _decompose_rec(model, eq.summand_map(), active, seed)


def _decompose_rec(
    model: SystemModel, summands: dict[int, Element], active: list[int], seed: int
) -> Decomposition:
    n = len(active)
    if n == 3:
        i1, i2, i3 = active
        d = {i: specialise_step1(model, summands, i, seed=seed + 17 * i) for i in active}
        # delta_i = d[j][k] + d[k][j] for (i, j, k) a cyclic labelling
        delta = {
            i1: d[i2][i3] + d[i3][i2],
            i2: d[i1][i3] + d[i3][i1],
            i3: d[i1][i2] + d[i2][i1],
        }
        if not (delta[i1] + delta[i2] + delta[i3]).is_zero():
            raise SystemModelError("internal invariant violation: deltas do not sum to zero")
        for i in active:
            if not model.member_of(delta[i], model.complement(*active)):
                raise SystemModelError("internal invariant violation: delta escapes the base")
        c: Decomposition = {
            (i3, i1): d[i3][i1],
            (i3, i2): d[i3][i2],
            (i2, i3): d[i2][i3] - delta[i1],
            (i2, i1): d[i2][i1] + delta[i1],
            (i1, i3): d[i1][i3] - delta[i2],
            (i1, i2): d[i1][i2] + delta[i2],
        }
        return c
    last = active[-1]
    rest = active[:-1]
    d_last = specialise_step1(model, summands, last, seed=seed + 17 * last)
    c: Decomposition = {}
    reduced: dict[int, Element] = {}
    for j in rest:
        c[(last, j)] = d_last[j]
        c[(j, last)] = -d_last[j]
        reduced[j] = summands[j] + d_last[j]
    c.update(_decompose_rec(model, reduced, rest, seed + 1))
    return c


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
        corner = model.corner(w)
        if not model.member_of(target, w):
            return None
        local = corner.element(target.value)
        res = solve_twisted_bounded(corner, TwistedEquation(corner.one(), local), self.bounds)
        if isinstance(res, Solution):
            return model.pres.element(res.witness.value), model
        return None


class ClosureOracle(SolverOracle):
    """Solver-backed oracle that adjoins a fresh torsor witness on a miss.

    This is how a base "extended by closure steps for all torsors the
    recursion queries" is realized: every miss becomes an explicit closure
    step, recorded in ``closures``.
    """

    def __init__(self, bounds: SearchBounds = SearchBounds(4, 2), prefix: str = "w"):
        super().__init__(bounds)
        self.prefix = prefix
        self.counter = 0
        self.closures: list[tuple[str, frozenset[int], Element]] = []

    def find(self, model, target, w):
        got = super().find(model, target, w)
        if got is not None:
            return got
        if not model.member_of(target, w):
            return None
        self.counter += 1
        name = f"{self.prefix}{self.counter}"
        model2, gen = model.adjoin(w, name, model.pres.one(), target)
        self.closures.append((name, w, target))
        return gen, model2


# -- witness-driven decompositions ----------------------------------------------------


def wp_decompose_with_witnesses(
    model: SystemModel,
    d: Mapping[int, Element],
    oracle: TorsorWitnessOracle,
    seed: int = 0,
    universe: frozenset[int] | None = None,
):
    """Split wp(d_i) into an antisymmetric family of realized torsor targets.

    Requires sum(d_i) fixed.  Returns (model, e, wit) with
    wp(d_i) = sum_k e[(i,k)], e[(i,k)] = -e[(k,i)], and wp(wit[(i,k)]) =
    e[(i,k)] with wit[(i,k)] in corner(universe - {i,k}).  The oracle
    supplies the torsor realizations the induction needs; a miss raises
    WitnessUnavailable naming the blocked query.
    """
    active = sorted(d)
    if universe is None:
        universe = model.indices()
    total = model.pres.zero()
    for i in active:
        total = total + d[i]
    if not total.is_fixed():
        raise SystemModelError("wp-decomposition requires the summand total to be fixed")
    model, e, wit = _wp_rec(model, dict(d), active, frozenset(universe), oracle, seed)
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


def _wp_rec(model, d, active, universe, oracle, seed):
    """Realize row `last` of a wp-split with oracle witnesses, then recurse.

    Only row `last` of a decomposition of the wp(d_i) is read, and
    _decompose_rec fills that row from one specialise_step1 at block `last`;
    so that specialisation is all that is computed."""
    e: dict[tuple[int, int], Element] = {}
    wit: dict[tuple[int, int], Element] = {}
    if len(active) == 1:
        (i,) = active
        if not d[i].wp().is_zero():
            raise SystemModelError("single-summand wp-decomposition needs a fixed summand")
        return model, e, wit
    if len(active) == 2:
        i, j = active
        target = d[i].wp()
        if not model.member_of(target, universe - {i, j}):
            raise SystemModelError("wp difference escapes the pair corner")
        e[(i, j)], e[(j, i)] = target, -target
        found = oracle.find(model, target, universe - {i, j})
        if found is None:
            raise WitnessUnavailable(target, universe - {i, j})
        witness, model = found
        wit[(i, j)], wit[(j, i)] = witness, -witness
        return model, e, wit
    last = active[-1]
    rest = active[:-1]
    f = specialise_step1(model, {i: d[i].wp() for i in active}, last, seed=seed + 17 * last)
    shifted: dict[int, Element] = {}
    for i in rest:
        target = f[i]
        corner = universe - {i, last}
        found = oracle.find(model, target, corner)
        if found is None:
            raise WitnessUnavailable(target, corner)
        h, model = found
        e[(last, i)], e[(i, last)] = target, -target
        wit[(last, i)], wit[(i, last)] = h, -h
        shifted[i] = d[i] + h
    model, e_rest, wit_rest = _wp_rec(model, shifted, rest, universe, oracle, seed + 1)
    e.update(e_rest)
    wit.update(wit_rest)
    return model, e, wit


def ff_decompose_with_witnesses(
    model: SystemModel,
    eq: AdditiveEquation,
    oracle: TorsorWitnessOracle,
    seed: int = 0,
):
    """Fixed-field decomposition via the wp-correction pipeline.

    Decompose, wp-split the last row with oracle-backed torsor witnesses,
    correct that row into fixed entries, recurse on the corrected equation
    over the peeled corner, and assemble.  Output entries are fixed and the
    whole map is a valid decomposition; a blocked torsor query raises
    WitnessUnavailable with the offending target.
    """
    eq.require_valid(ff=True)
    active = sorted(eq.summand_map())
    model, dec = _ff_rec(model, eq.summand_map(), active, model.indices(), oracle, seed)
    return model, dec


def _ff_rec(model, b, active, universe, oracle, seed):
    dec: Decomposition = {}
    if len(active) == 2:
        i, j = active
        if b[i] != -b[j]:
            raise SystemModelError("height-2 equation does not telescope")
        dec[(i, j)], dec[(j, i)] = b[i], b[j]
        return model, dec
    last = active[-1]
    rest = active[:-1]
    d_last = specialise_step1(model, b, last, seed=seed + 17 * last)
    model, e, wit = _wp_rec(
        model, d_last, rest, frozenset(universe) - {last}, oracle, seed + 3
    )
    row_total = model.pres.zero()
    for i in rest:
        correction = model.pres.zero()
        for k in rest:
            if k != i:
                correction = correction + wit[(i, k)]
        entry = d_last[i] - correction
        if not entry.is_fixed():
            raise SystemModelError("corrected row entry is not fixed")
        dec[(last, i)], dec[(i, last)] = entry, -entry
        row_total = row_total + entry
    if row_total != b[last]:
        raise SystemModelError("corrected row does not recover the last summand")
    reduced = {i: b[i] + dec[(last, i)] for i in rest}
    total = model.pres.zero()
    for i in rest:
        if not reduced[i].is_fixed():
            raise SystemModelError("reduced equation entry is not fixed")
        total = total + reduced[i]
    if not total.is_zero():
        raise SystemModelError("reduced equation does not sum to zero")
    model, inner = _ff_rec(model, reduced, rest, universe, oracle, seed + 5)
    dec.update(inner)
    return model, dec


@dataclass(frozen=True)
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

    Pairs (i, j) with i before j in idx come in idx order, and members in
    fixed_space order; callers number their parameters by that order.
    """
    out: dict[tuple[int, int], list[Element]] = {}
    for pos, i in enumerate(idx):
        for j in idx[pos + 1 :]:
            corner = model.corner(model.complement(i, j))
            out[(i, j)] = [
                model.pres.element(s.value)
                for s in fixed_space(corner, bounds, polynomial=True)
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
        comb = LinComb.zero(pres)
        for basis_elem in span:
            p = ctx.new_param()
            comb = comb + LinComb(pres, pres.zero(), {p: basis_elem})
        entries[(i, j)] = comb
        entries[(j, i)] = -comb
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


def restrict_over_corner(model: SystemModel, i: int) -> tuple[SystemModel, dict[int, int]]:
    """Absorb corner i into the base; remaining indices are re-labelled 1..n-1.

    Returns the smaller system and the old->new index map; corner(w) of the
    restriction equals corner(w + {i}) of the original.
    """
    if not 1 <= i <= model.size:
        raise SystemModelError(f"no corner {i}")
    if model.size < 2:
        raise SystemModelError("cannot restrict a 1-system")
    mapping = {}
    new = 0
    for old in range(1, model.size + 1):
        if old == i:
            continue
        new += 1
        mapping[old] = new
    base_names = list(model.base_names)
    assignment = []
    for name, subset in model.assignment:
        reduced = frozenset(mapping[x] for x in subset if x != i)
        if reduced:
            assignment.append((name, reduced))
        else:
            base_names.append(name)
    restricted = SystemModel(model.pres, model.size - 1, tuple(base_names), tuple(assignment))
    restricted.validate()
    return restricted, mapping
