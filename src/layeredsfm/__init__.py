"""Layered hard-to-minimize submodular functions, exactly.

Construction, sampling, and exact rational evaluation of a layered family
of submodular set functions whose minimizer must be uncovered one layer
at a time; honest and adversarial query oracles with query/round
accounting; reference solvers; structure checkers; and a reproducible
experiment harness.
"""

from .family import (
    INNER_BOUND,
    LayeredInstance,
    block_value,
    canonical_instance,
    containment_score,
    evaluate_closed_form,
    evaluate_recursive,
    first_divergent_layer,
    sample_instance,
    submodularizer,
    true_minimizer,
)
from .harness import (
    ExperimentConfig,
    Report,
    run_bench,
    run_duel,
    run_experiment,
    run_hiding,
    run_parallel,
    run_verify,
)
from .oracles import (
    HalvingAdversary,
    HonestOracle,
    LayerCommit,
    QueryRecord,
    ReplayMismatchError,
    Transcript,
)
from .rationals import format_value, parse_value
from .rng import SplitMix64
from .sets import (
    EXHAUSTIVE_CAP,
    GroundConfig,
    Relation,
    Subset,
    enumerate_subsets,
    relate,
)
from .solvers import (
    SOLVERS,
    CorruptedOracleError,
    LayerAnswer,
    SolverResult,
    brute_force_minimize,
    decode_layer_answer,
    family_aware_minimize,
    singleton_parallel_minimize,
)
from .verify import (
    PropertyReport,
    ViolationWitness,
    check_block_properties,
    check_function_properties,
    check_instance_properties,
    check_marginal_submodular,
    check_submodular_pairs,
    find_submodularizer_violation,
)

__version__ = "0.1.0"

__all__ = [
    "EXHAUSTIVE_CAP",
    "ExperimentConfig",
    "GroundConfig",
    "HalvingAdversary",
    "HonestOracle",
    "INNER_BOUND",
    "LayerAnswer",
    "LayerCommit",
    "LayeredInstance",
    "PropertyReport",
    "QueryRecord",
    "Relation",
    "Report",
    "ReplayMismatchError",
    "SOLVERS",
    "SolverResult",
    "SplitMix64",
    "Subset",
    "Transcript",
    "ViolationWitness",
    "CorruptedOracleError",
    "block_value",
    "brute_force_minimize",
    "canonical_instance",
    "check_block_properties",
    "check_function_properties",
    "check_instance_properties",
    "check_marginal_submodular",
    "check_submodular_pairs",
    "containment_score",
    "decode_layer_answer",
    "enumerate_subsets",
    "evaluate_closed_form",
    "evaluate_recursive",
    "family_aware_minimize",
    "find_submodularizer_violation",
    "first_divergent_layer",
    "format_value",
    "parse_value",
    "relate",
    "run_bench",
    "run_duel",
    "run_experiment",
    "run_hiding",
    "run_parallel",
    "run_verify",
    "sample_instance",
    "singleton_parallel_minimize",
    "submodularizer",
    "true_minimizer",
]
