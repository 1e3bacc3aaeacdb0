"""Prediction with expert advice over pack-structured streams.

Public surface: the square-loss game and substitution machinery (games), the
weight engine (aggregator), the pack protocols and the parallel-copies
construction (algorithms, parallel), guarantee formulas and run audits
(bounds), the mix-loss adversary (mixloss), and the data/experiment harness
(harness).
"""

import types as _types

from .aggregator import (
    AggregatorState,
    DivisorPolicy,
    init_state,
    observe_pack,
    predict_item,
    predict_pack,
    uniform_prior,
)
from .algorithms import (
    PackStream,
    RunRecords,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
)
from .bounds import SLACK_TOL, BoundReport, audit_run
from .games import (
    GameSpec,
    check_substitution_validity,
    max_mixable_eta,
    substitute_pack,
)
from .harness import (
    AlgorithmResult,
    DatasetSpec,
    ExperimentResult,
    SyntheticConfig,
    emit_adversary_report,
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
    MixLossRun,
    UniformLearner,
    ZeroNature,
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

# Every name imported above is public; the submodules are not listed.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
