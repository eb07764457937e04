"""Zero-determinant strategies in iterated two-player games.

Build bimatrix games with any finite strategy counts, derive the Markov
chain of memory-one play, synthesize strategies that force linear relations
between the long-run scores (score pinning, extortion), and check
everything against exact stationary solves and seeded simulation.
"""

from types import ModuleType as _ModuleType

from .chain import (
    CofactorVector,
    FeasibilityReport,
    ScorePair,
    StationaryDistribution,
    TransitionMatrix,
    cofactor_row,
    expected_scores,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)
from .documents import load_game, load_strategy, save_game, save_strategy
from .errors import (
    DegenerateDenominator,
    DegenerateRatio,
    InaccurateStationary,
    NoFeasiblePin,
    NonUniqueStationary,
    SchemaError,
    ZDGamesError,
)
from .extortion import (
    ConditionReport,
    ExtortionParams,
    FactorBounds,
    check_extortion_factor,
    chicken_extortion,
    extortion_factor_bounds,
    extortion_strategy,
    theta_max,
)
from .model import (
    FILL_RULES,
    BimatrixGame,
    MemoryOneStrategy,
    StateIndex,
    chicken_family,
    complete_from_first_component,
    make_game,
    make_strategy,
    make_symmetric,
    own_move_one_indicator,
    payoff_vectors,
)
from .simulate import (
    ComparisonReport,
    ExtortionEstimate,
    SimulationConfig,
    SimulationReport,
    compare_to_stationary,
    play,
    verify_extortion_empirically,
)
from .zd import (
    RelationCheck,
    SynthesisResult,
    ZDCoefficients,
    extortion_coefficients,
    pin_opponent_score,
    press_dyson_determinant,
    score_combination,
    synthesize_zd_alpha,
    synthesize_zd_beta,
    verify_linear_relation,
)

__version__ = "0.1.0"

# the public names are the ones imported above: not private and not submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
