"""The mutation catalogue: deliberate faults that named tests must catch.

Each entry replaces one exact snippet of a source file, which must occur
there exactly once, and names the test node ids of which at least one must
fail under the mutant.  ``tools/mutation/run.py`` applies the entries one at
a time to a copy of the checkout; ``tests/test_mutation_catalogue.py``
checks in Tier-1 that every snippet still occurs exactly once, so a change
to the code under a snippet has to update its entry.

A mutant that survives is a finding about the tests: record it, and do not
drop or weaken its entry to make the run pass.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    tests: tuple[str, ...]


POLY = "src/diffield/poly.py"
RATFUNC = "src/diffield/ratfunc.py"
TEST_PARAMS = "tests/test_params.py"
TEST_POLY_RATFUNC = "tests/test_poly_ratfunc.py"
TEST_SOLVER = "tests/test_solver.py"
TEST_PARSER_CLI = "tests/test_parser_cli.py"
FREEBASE = "src/diffield/freebase.py"
PARSER = "src/diffield/parser.py"
RECORD = "src/diffield/record.py"
TEST_RECORD = "tests/test_record.py"
CHARACTERS = "src/diffield/characters.py"
TOWER = "src/diffield/tower.py"
CERTIFY = "src/diffield/certify.py"
TEST_CERTIFY = "tests/test_certify.py"
TEST_CHARACTERS = "tests/test_characters.py"
COUNTEREXAMPLE = "src/diffield/counterexample.py"
CLI = "src/diffield/cli.py"

CATALOGUE: tuple[Mutant, ...] = (
    # -- the polynomial substrate: the integer gcd kernel and the order key
    Mutant(
        "gcd kernel without the integer-content strip of its remainders",
        POLY,
        "if k != 1:  # the integer-content strip",
        "if False:",
        (f"{TEST_POLY_RATFUNC}::test_gcd_of_recorded_shapes", f"{TEST_POLY_RATFUNC}::test_differential_gcd"),
    ),
    Mutant(
        "gcd exit taken when the variable sets differ, not when they are disjoint",
        POLY,
        "if da.keys().isdisjoint(db):",
        "if da.keys() != db.keys():",
        (
            f"{TEST_POLY_RATFUNC}::test_gcd_of_sides_in_disjoint_or_one_shared_variable",
            f"{TEST_POLY_RATFUNC}::test_differential_gcd",
        ),
    ),
    Mutant(
        "primitive gcd normalised to a negative leading coefficient",
        POLY,
        "if g[max(g, key=MONO_KEY)] < 0:",
        "if g[max(g, key=MONO_KEY)] > 0:",
        (f"{TEST_POLY_RATFUNC}::test_gcd_of_recorded_shapes", f"{TEST_POLY_RATFUNC}::test_differential_gcd"),
    ),
    Mutant(
        "order key with the shifts in increasing order",
        POLY,
        "out.append((-i, -s, e))",
        "out.append((-i, s, e))",
        (f"{TEST_POLY_RATFUNC}::test_order_key_agrees_with_the_comparison", f"{TEST_POLY_RATFUNC}::test_differential_gcd"),
    ),
    # -- the exact substrate: Henrici's forms and the substitution
    Mutant(
        "product without the g1 cancellation",
        RATFUNC,
        "a, d = _cancel(a, d)",
        "a, d = a, d",
        (f"{TEST_POLY_RATFUNC}::test_differential_canonical_products",),
    ),
    Mutant(
        "product without the g2 cancellation",
        RATFUNC,
        "c, b = _cancel(c, b)",
        "c, b = c, b",
        (f"{TEST_POLY_RATFUNC}::test_differential_canonical_products",),
    ),
    Mutant(
        "inverse that never rescales",
        RATFUNC,
        "s = Q1 / self.num.leading_coefficient()",
        "s = Q1",
        (
            f"{TEST_POLY_RATFUNC}::test_differential_canonical_products",
            f"{TEST_POLY_RATFUNC}::test_products_powers_and_inverses_take_no_gcd",
        ),
    ),
    Mutant(
        "sum without gcd(t, g)",
        RATFUNC,
        "g2 = poly_gcd(t, g)",
        "g2 = MPoly.const(1)",
        (f"{TEST_POLY_RATFUNC}::test_differential_henrici_sum",),
    ),
    Mutant(
        "sum keeping d where d/g2 belongs",
        RATFUNC,
        "return _canonical(divexact(t, g2), b1 * divexact(d, g2))",
        "return _canonical(divexact(t, g2), b1 * d)",
        (f"{TEST_POLY_RATFUNC}::test_differential_henrici_sum",),
    ),
    Mutant(
        "substitution without the clearing powers Q^(d - e)",
        RATFUNC,
        "k = d - exps.get(v, 0)",
        "k = 0",
        (
            f"{TEST_POLY_RATFUNC}::test_differential_is_fixed",
            f"{TEST_PARAMS}::test_family_operations_agree_with_the_reference",
        ),
    ),
    Mutant(
        "clearing degree d_v read off the first polynomial only",
        RATFUNC,
        "d = max(p.degree_in(v) for p in polys)",
        "d = polys[0].degree_in(v)",
        (
            f"{TEST_POLY_RATFUNC}::test_differential_is_fixed",
            f"{TEST_PARAMS}::test_family_operations_agree_with_the_reference",
        ),
    ),
    Mutant(
        "is_fixed comparing numerators only",
        "src/diffield/field.py",
        "return num * value.den == value.num * den",
        "return num == value.num",
        (f"{TEST_POLY_RATFUNC}::test_differential_is_fixed",),
    ),
    # -- fixedness proven once: span-first character checks, sigma images per presentation
    Mutant(
        "span-first extension that never sigma-tests a new direction",
        CHARACTERS,
        "and not elem.is_fixed()",
        "and False",
        (
            f"{TEST_CHARACTERS}::test_non_fixed_rejected",
            f"{TEST_CHARACTERS}::test_span_first_checks_agree_with_testing_every_element",
        ),
    ),
    Mutant(
        "value_of without the sigma test outside the span",
        CHARACTERS,
        "if not element.is_fixed():",
        "if False:",
        (
            f"{TEST_CHARACTERS}::test_value_of_refuses_an_element_that_is_not_fixed",
            f"{TEST_CHARACTERS}::test_span_first_checks_agree_with_testing_every_element",
            f"{TEST_PARSER_CLI}::test_cli_character_refuses_a_query_that_is_not_fixed",
        ),
    ),
    Mutant(
        "sigma-image cache keyed by the variable without the direction",
        "src/diffield/field.py",
        "key = (var, direction)",
        "key = var",
        (
            "tests/test_field.py::test_sigma_images_are_kept_per_direction",
            "tests/test_field.py::test_sigma_inverse_affine",
        ),
    ),
    Mutant(
        "relation tracker without the exact check of a dependent element",
        RATFUNC,
        "if _vanishes((elems[j - m], t) for j, t in row.items()):",
        "if True:",
        (f"{TEST_POLY_RATFUNC}::test_relations_check_elements_that_vanish_at_the_first_points",),
    ),
    Mutant(
        "relation tracker fork that shares the parent's element list",
        RATFUNC,
        "t.elems, t.kept, t.coords = list(self.elems), list(self.kept), dict(self.coords)",
        "t.elems, t.kept, t.coords = self.elems, list(self.kept), dict(self.coords)",
        (
            f"{TEST_POLY_RATFUNC}::test_tracker_answers_do_not_depend_on_its_history",
            "tests/test_characters.py::test_table_answers_do_not_depend_on_its_history",
        ),
    ),
    Mutant(
        "relation read-off taken for two dependent elements",
        RATFUNC,
        "if len(tracker.coords) <= 1:",
        "if len(tracker.coords) <= 2:",
        (
            f"{TEST_POLY_RATFUNC}::test_two_dependent_elements_are_not_scaled_one_by_one",
            f"{TEST_POLY_RATFUNC}::test_relations_read_off_the_tracker_agree_with_the_integer_kernel",
        ),
    ),
    Mutant(
        "relation read-off without its sign rule",
        RATFUNC,
        "if next(z for z in vec if z) < 0:",
        "if False:",
        (
            f"{TEST_POLY_RATFUNC}::test_relations_read_off_keep_the_kernel_sign",
            f"{TEST_POLY_RATFUNC}::test_relations_read_off_the_tracker_agree_with_the_integer_kernel",
        ),
    ),
    Mutant(
        "relation tracker storing a dependent row as a pivot",
        RATFUNC,
        "if min(row) < m:",
        "if min(row) < m + i:",
        (
            f"{TEST_POLY_RATFUNC}::test_tracker_agrees_with_the_evaluation_it_replaced",
            f"{TEST_POLY_RATFUNC}::test_span_tracker_agrees_with_cleared_monomial_tracker",
        ),
    ),
    # -- interned presentations and their power tables
    Mutant(
        "intern key without the affine rule's constant",
        "src/diffield/field.py",
        "p = _extended(self, GeneratorSpec(self._next_index(), name, kind))",
        'p = globals().setdefault("_keyed_without_constant", {}).setdefault('
        "(self, name, kind.linear), _extended(self, GeneratorSpec(self._next_index(), name, kind)))",
        ("tests/test_field.py::test_presentations_are_interned",),
    ),
    Mutant(
        "power tables shared by every presentation",
        "src/diffield/field.py",
        "return {}, {}, {}",
        'return globals().setdefault("_shared_powers", ({}, {}, {}))',
        ("tests/test_field.py::test_power_tables_are_kept_per_presentation",),
    ),
    Mutant(
        "power table answering base^(-n) with base^n",
        "src/diffield/field.py",
        "power = table.get(n)",
        "power = table.get(abs(n))",
        ("tests/test_field.py::test_power_tables_are_kept_per_presentation",),
    ),
    # -- lookups, the echelon, the free-base bound, the peel and its seed schedule
    Mutant(
        "spec keeps the last generator of a name",
        "src/diffield/field.py",
        "out.setdefault(g.name, g)",
        "out[g.name] = g",
        ("tests/test_field.py::test_lookups_and_value_checks",),
    ),
    Mutant(
        "spec_by_index keeps the last generator of an index",
        "src/diffield/field.py",
        "out.setdefault(g.index, g)",
        "out[g.index] = g",
        ("tests/test_field.py::test_lookups_and_value_checks",),
    ),
    Mutant(
        "echelon pivot at the greatest column",
        "src/diffield/linalg.py",
        "col = min(row)",
        "col = max(row)",
        (f"{TEST_POLY_RATFUNC}::test_solve_affine_matches_dense_rref",),
    ),
    Mutant(
        "denominator bound that never divides out a gcd",
        FREEBASE,
        "rest = divexact(rest, g)",
        "rest = rest",
        ("tests/test_solver.py::test_denominator_bound_divides_out_repeated_factors",),
    ),
    Mutant(
        "peel whose remaining summands do not absorb the peeled row",
        "src/diffield/systems.py",
        "b[j] = b[j] + row[j]",
        "b[j] = b[j]",
        (
            "tests/test_systems.py::test_decompose_matches_the_recursive_reference",
            "tests/test_systems.py::test_witness_decompositions_match_the_recursive_reference",
            "tests/test_systems.py::test_wp_decompose_with_witnesses_pinned_height4",
        ),
    ),
    Mutant(
        "ff peel stepping its seed by 1 where the schedule steps by 5",
        "src/diffield/systems.py",
        "_peel(model, eq.summand_map(), seed, 5, fix)",
        "_peel(model, eq.summand_map(), seed, 1, fix)",
        ("tests/test_systems.py::test_witness_decompositions_match_the_recursive_reference",),
    ),
    Mutant(
        "ff row wp-split at the peel's seed instead of seed + 3",
        "src/diffield/systems.py",
        "oracle, seed + 3)",
        "oracle, seed)",
        ("tests/test_systems.py::test_witness_decompositions_match_the_recursive_reference",),
    ),
    # -- n-systems: one index set per generator, the base's empty
    Mutant(
        "system check that skips the rules of base generators",
        "src/diffield/systems.py",
        "            if g.is_free:\n                continue",
        "            if g.is_free or not subset:\n                continue",
        ("tests/test_systems.py::test_a_base_rule_that_mentions_a_block_is_refused",),
    ),
    Mutant(
        "block names where the later block wins for a name listed twice",
        "src/diffield/systems.py",
        "if name in index_sets:",
        "if False:",
        ("tests/test_systems.py::test_block_names_are_generators_listed_once",),
    ),
    # -- the free-base ansatz: its cleared identity, degree clip and record
    Mutant(
        "cleared identity with sigma(Y) unshifted",
        FREEBASE,
        "mono.shift(1) * lhs_pos - mono * lhs_neg",
        "mono * lhs_pos - mono * lhs_neg",
        (
            f"{TEST_SOLVER}::test_twisted_decisions_agree_with_the_reference",
            f"{TEST_SOLVER}::test_free_base_planted_with_denominators",
        ),
    ),
    Mutant(
        "ansatz without the deg_cap clip",
        FREEBASE,
        "cap = min(cap, deg_cap + denominator.total_degree())",
        "cap = cap",
        (f"{TEST_SOLVER}::test_twisted_family_agrees_with_the_reference",),
    ),
    Mutant(
        "refutation record with ansatz_size 0",
        FREEBASE,
        "self.degree_cap, len(self.monomials)",
        "self.degree_cap, 0",
        (
            f"{TEST_SOLVER}::test_twisted_decisions_agree_with_the_reference",
            "tests/test_golden.py::test_golden_report[twisted_avoided]",
        ),
    ),
    # -- parameter families over one shared denominator
    Mutant(
        "family reducer that skips its gcd",
        "src/diffield/params.py",
        "g = den if shared is None else shared",
        "g = P1",
        (f"{TEST_PARAMS}::test_family_operations_agree_with_the_reference",),
    ),
    Mutant(
        "family product without cancelling n against den",
        "src/diffield/params.py",
        "n, den = _cancel(n, self.den)",
        "den = self.den",
        (f"{TEST_PARAMS}::test_family_operations_agree_with_the_reference",),
    ),
    Mutant(
        "family evaluated without normalizing",
        "src/diffield/params.py",
        "return self.pres.element(RatFunc(total, self.den))",
        'return self.pres.element(__import__("diffield.ratfunc", fromlist=["_canonical"])._canonical(total, self.den))',
        (
            f"{TEST_PARAMS}::test_evaluate_reduces_the_shared_denominator",
            f"{TEST_PARAMS}::test_family_operations_agree_with_the_reference",
        ),
    ),
    Mutant(
        "unit-denominator family that keeps a zero coefficient",
        "src/diffield/params.py",
        "if v.terms} if coeffs else {}",
        "if v.terms or den is P1} if coeffs else {}",
        (f"{TEST_PARAMS}::test_family_operations_agree_with_the_reference",),
    ),
    Mutant(
        "degree split without the generator check on the denominator",
        "src/diffield/params.py",
        "if var in lc.den.variables():",
        "if False:",
        (f"{TEST_PARAMS}::test_degree_split_agrees_with_the_reference",),
    ),
    # -- the tower's special denominators: no m >= 2 tower when m = 1 has none
    Mutant(
        "special-denominator prune that ignores the m = 1 entry",
        TOWER,
        "if m > 1 and not _denominator_candidates(sub, alpha, beta, 1, deg_budget, window):",
        "if m > 1:",
        (
            f"{TEST_SOLVER}::test_special_denominators_agree_with_every_degree_solved",
            "tests/test_counterexample.py::test_pipeline_search_counts_are_pinned",
        ),
    ),
    Mutant(
        "special-denominator prune that also empties m = 1",
        TOWER,
        "if m > 1 and not _denominator_candidates(sub, alpha, beta, 1, deg_budget, window):",
        "if m == 1 or m > 1 and not _denominator_candidates(sub, alpha, beta, 1, deg_budget, window):",
        (
            f"{TEST_SOLVER}::test_special_denominators_agree_with_every_degree_solved",
            "tests/test_counterexample.py::test_pipeline_search_counts_are_pinned",
        ),
    ),
    # -- tower families over the free parameters only, zero families skipped
    Mutant(
        "free-parameter reduction walking the pivots in reverse order",
        "src/diffield/params.py",
        "for col in self.order:",
        "for col in reversed(self.order):",
        (f"{TEST_PARAMS}::test_reduced_families_keep_only_free_parameters",),
    ),
    Mutant(
        "free-parameter reduction dropping the row constant",
        "src/diffield/params.py",
        "const = const - v.scale(Fraction(pconst, lead))",
        "const = const",
        (
            f"{TEST_PARAMS}::test_reduced_families_keep_only_free_parameters",
            f"{TEST_SOLVER}::test_tower_search_agrees_with_the_reference",
        ),
    ),
    Mutant(
        "coefficient tower skipping the nonzero images instead of the zero ones",
        TOWER,
        "if not images[i].is_zero():",
        "if images[i].is_zero():",
        (
            f"{TEST_SOLVER}::test_tower_search_agrees_with_the_reference",
            "tests/test_counterexample.py::test_pipeline_search_counts_are_pinned",
        ),
    ),
    # -- a budget-0 query is a free-base query
    Mutant(
        "free-base step that skips the rows of nonconstant affine monomials",
        TOWER,
        "for row in pieces.values():",
        "for row in ():",
        (f"{TEST_SOLVER}::test_budget_zero_queries_agree_with_the_reference",),
    ),
    # -- the free-base rows read off the identity divided by Q2
    Mutant(
        "free-base rows with only the right-hand side divided by Q2",
        FREEBASE,
        "rhs_scale, q2 = divexact(rhs_scale, q2), P1",
        "rhs_scale = divexact(rhs_scale, q2)",
        (
            f"{TEST_SOLVER}::test_planted_solution_over_a_divided_identity",
            f"{TEST_SOLVER}::test_parametric_family_with_and_without_the_division",
        ),
    ),
    # -- certified corners: Karr's criterion in the polynomial mode
    Mutant(
        "constants query without its second-coefficient case",
        CERTIFY,
        'return [("n >= 1: y_n in Q, coefficient of a^(n-1)", TwistedEquation(sub.one(), affine.beta))]',
        "return None",
        (
            f"{TEST_CERTIFY}::test_main_corners_certify_and_search_only_constants",
            f"{TEST_CERTIFY}::test_a_corner_of_three_rule2_blocks_certifies",
        ),
    ),
    Mutant(
        "family split without its second-coefficient case",
        CERTIFY,
        '        ("exponent of alpha zero, n >= 1: y_n in Q, coefficient of a^(n-1)", TwistedEquation(alpha, affine.beta)),\n',
        "",
        (f"{TEST_CERTIFY}::test_a_pi_pair_does_not_certify",),
    ),
    Mutant(
        "constants query with the exponent set flipped to z >= 1",
        CERTIFY,
        'return [("n >= 1", MultFamilyQuery(sub.one(), alpha, IntSet("le", -1)))]',
        'return [("n >= 1", MultFamilyQuery(sub.one(), sub.one() / alpha, IntSet("le", -1)))]',
        (f"{TEST_CERTIFY}::test_a_pi_pair_does_not_certify",),
    ),
    # -- one definition each: the avoided-family registry loop and the certificate record
    Mutant(
        "registry loop certifying without the parent registry",
        COUNTEREXAMPLE,
        "res = certify_unsolvable(pres, q, parent)",
        "res = certify_unsolvable(pres, q, None)",
        ("tests/test_golden.py::test_golden_verify_counterexample",),
    ),
    Mutant(
        "certificate record without its equation kind",
        CLI,
        '        "equation_kind": cert.kind,\n',
        "",
        (
            "tests/test_golden.py::test_golden_report[twisted_avoided]",
            "tests/test_golden.py::test_golden_report[multiplicative_family]",
        ),
    ),
    # -- layers: the certifier imports no search
    Mutant(
        "certifier importing the tower search again",
        "src/diffield/certify.py",
        "from .record import record\n",
        "from .record import record\nfrom .tower import fixed_space\n",
        ("tests/test_layers.py::test_every_module_imports_only_lower_layers",),
    ),
    # -- the parser's cursor and atom table; a quick failure goes first, since
    #    pytest -x stops there before a cursor that never advances can loop
    Mutant(
        "atom table keyed by name only",
        PARSER,
        "key = (text, shift)",
        "key = text",
        (
            f"{TEST_PARSER_CLI}::test_each_atom_is_its_own_shift_over_the_current_presentation",
            f"{TEST_PARSER_CLI}::test_drawn_documents_parse_like_the_reference",
        ),
    ),
    Mutant(
        "atom table not reset when a gen statement adds a generator",
        PARSER,
        "if cur.atoms_pres is not pres:",
        "if cur.atoms_pres is None:",
        (
            f"{TEST_PARSER_CLI}::test_each_atom_is_its_own_shift_over_the_current_presentation",
            f"{TEST_PARSER_CLI}::test_drawn_documents_parse_like_the_reference",
        ),
    ),
    Mutant(
        "accept that never advances",
        PARSER,
        "if self.texts[self.pos] == text:\n            self.pos += 1\n            return True",
        "if self.texts[self.pos] == text:\n            return True",
        (
            f"{TEST_PARSER_CLI}::test_shift_sugar_and_sigma_powers",
            f"{TEST_PARSER_CLI}::test_job_documents_parse_like_the_reference",
        ),
    ),
    Mutant(
        "statement table sending rewrite into witnesses",
        PARSER,
        '"rewrite": "rewrites"',
        '"rewrite": "witnesses"',
        (
            f"{TEST_PARSER_CLI}::test_statements_of_one_shape_fill_their_own_fields",
            f"{TEST_PARSER_CLI}::test_cli_nsas_check",
        ),
    ),
    # -- value records against dataclasses.dataclass
    Mutant(
        "record equality without its class check",
        RECORD,
        "if other.__class__ is self.__class__:",
        "if True:",
        (f"{TEST_RECORD}::test_equality_holds_within_one_class_only",),
    ),
    Mutant(
        "record hash over the first field only",
        RECORD,
        "return hash(values(self))",
        "return hash(values(self)[:1])",
        (f"{TEST_RECORD}::test_construction_repr_and_hash_match_dataclasses",),
    ),
)
