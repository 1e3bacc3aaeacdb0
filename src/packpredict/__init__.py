"""Prediction with expert advice over pack-structured streams.

Public surface: the square-loss game and substitution machinery (games), the
weight engine (aggregator), the pack protocols and the parallel-copies
construction (algorithms, parallel), guarantee formulas and run audits
(bounds), the mix-loss adversary (mixloss), and the data/experiment harness
(harness).
"""

from .aggregator import (
    AggregatorState,
    DivisorPolicy,
    init_state,
    normalized_weights,
    observe_pack,
    predict_item,
    predict_pack,
    uniform_prior,
)
from .algorithms import (
    Pack,
    PackStream,
    RunRecords,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
)
from .bounds import (
    ALGORITHMS,
    SLACK_TOL,
    BoundReport,
    audit_run,
    theoretical_bound,
)
from .games import (
    GameSpec,
    check_substitution_validity,
    generalized_prediction,
    max_mixable_eta,
    substitute,
    substitute_pack,
)
from .harness import (
    AlgorithmResult,
    DatasetSpec,
    ExperimentResult,
    SyntheticConfig,
    emit_report,
    generate_synthetic_stream,
    load_pack_csv,
    rescale_stream,
    result_from_json,
    run_experiment,
    write_pack_csv,
)
from .mixloss import (
    AdversaryNature,
    ExponentialWeightsLearner,
    MixLossTrial,
    UniformLearner,
    ZeroNature,
    find_low_product_expert,
    mix_loss,
    regret_lower_bound,
    run_mixloss_game,
)
from .parallel import (
    ShuffleSummary,
    run_parallel,
    shuffle_experiment,
    shuffle_within_packs,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatorState",
    "DivisorPolicy",
    "init_state",
    "normalized_weights",
    "observe_pack",
    "predict_item",
    "predict_pack",
    "uniform_prior",
    "Pack",
    "PackStream",
    "RunRecords",
    "run_aa",
    "run_aap_current",
    "run_aap_equal",
    "run_aap_incremental",
    "run_aap_max",
    "ALGORITHMS",
    "SLACK_TOL",
    "BoundReport",
    "audit_run",
    "theoretical_bound",
    "GameSpec",
    "check_substitution_validity",
    "generalized_prediction",
    "max_mixable_eta",
    "substitute",
    "substitute_pack",
    "AlgorithmResult",
    "DatasetSpec",
    "ExperimentResult",
    "SyntheticConfig",
    "emit_report",
    "generate_synthetic_stream",
    "load_pack_csv",
    "rescale_stream",
    "result_from_json",
    "run_experiment",
    "write_pack_csv",
    "AdversaryNature",
    "ExponentialWeightsLearner",
    "MixLossTrial",
    "UniformLearner",
    "ZeroNature",
    "find_low_product_expert",
    "mix_loss",
    "regret_lower_bound",
    "run_mixloss_game",
    "ShuffleSummary",
    "run_parallel",
    "shuffle_experiment",
    "shuffle_within_packs",
]
