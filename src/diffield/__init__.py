"""Exact symbolic engine for finitely presented difference fields.

The package decides and certifies first-order twisted and multiplicative
difference equations over towers of affine extensions of a free base,
decomposes additive equations over independent n-systems, checks
character-extension conditions on fixed elements, and reconstructs,
machine-checked, a torsor-closed base over which the height-4 fixed-field
equation built from a multiplicatively twisted pair is not fixed-field
decomposable.
"""

from .certify import (
    AvoidedRegistry,
    Certificate,
    IntSet,
    MultFamilyQuery,
    RatioQuery,
    RegistryEntry,
    TwistedShiftFamily,
    certify_unsolvable,
    replay_certificate,
)
from .characters import CharacterTable, Obstruction, extend_character, value_of
from .counterexample import (
    CounterexampleReport,
    Height4Instance,
    HyperplaneWitness,
    adjoin_twisted_pair,
    build_3amalg_obstruction,
    build_base,
    build_failing_instance,
    build_height4_instance,
    closure_step,
    hyperplane_search,
    refute_ff_decomposition,
    run_pipeline,
    verify_no_torsor_over_twisted,
    verify_product_identity,
)
from .descent import DescentHypothesisViolated, descent_linear, descent_multiplicative
from .equations import (
    MultiplicativeEquation,
    NoSolutionWithinBounds,
    SearchBounds,
    Solution,
    TwistedEquation,
    Unknown,
    Unsolvable,
    UnsupportedCoefficientShape,
)
from .field import Element, Presentation, PresentationError
from .freebase import decide_free_base
from .parser import ParseError, SemanticError, parse_document, print_element
from .poly import MPoly, VarId, poly_gcd, poly_lcm
from .ratfunc import CircleValue, PoleError, RatFunc, linear_relations
from .systems import (
    AdditiveEquation,
    ClosureOracle,
    NoGenericPoint,
    NotFoundWithinBounds,
    SolverOracle,
    SystemModel,
    SystemModelError,
    WitnessUnavailable,
    build_system,
    check_n_sas_witness,
    decompose,
    ff_decompose_bounded,
    ff_decompose_with_witnesses,
    specialise_step1,
    validate_decomposition,
    wp_decompose_with_witnesses,
)
from .tower import fixed_space, solve_multiplicative_bounded, solve_twisted_bounded

__version__ = "0.1.0"
