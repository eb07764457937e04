"""The public surface of ``zdgames``, pinned name by name.

Adding or removing a public name is an edit to ``PUBLIC_NAMES`` below, so
it shows in review and must be recorded in CHANGES.md.
"""

import zdgames

PUBLIC_NAMES = [
    "BimatrixGame",
    "CofactorVector",
    "ComparisonReport",
    "ConditionReport",
    "DegenerateDenominator",
    "DegenerateRatio",
    "ExtortionEstimate",
    "ExtortionParams",
    "FILL_RULES",
    "FactorBounds",
    "FeasibilityReport",
    "InaccurateStationary",
    "MemoryOneStrategy",
    "NoFeasiblePin",
    "NonUniqueStationary",
    "RelationCheck",
    "SchemaError",
    "ScorePair",
    "SimulationConfig",
    "SimulationReport",
    "StateIndex",
    "StationaryDistribution",
    "SynthesisResult",
    "TransitionMatrix",
    "ZDCoefficients",
    "ZDGamesError",
    "check_extortion_factor",
    "chicken_extortion",
    "chicken_family",
    "cofactor_row",
    "compare_to_stationary",
    "complete_from_first_component",
    "expected_scores",
    "extortion_coefficients",
    "extortion_factor_bounds",
    "extortion_strategy",
    "load_game",
    "load_strategy",
    "make_game",
    "make_strategy",
    "make_symmetric",
    "own_move_one_indicator",
    "payoff_vectors",
    "pin_opponent_score",
    "play",
    "press_dyson_determinant",
    "save_game",
    "save_strategy",
    "score_combination",
    "stationary",
    "synthesize_zd_alpha",
    "synthesize_zd_beta",
    "theta_max",
    "transition_matrix",
    "verify_extortion_empirically",
    "verify_linear_relation",
    "zd_feasibility_condition",
]


def test_all_matches_the_pinned_list():
    assert sorted(zdgames.__all__) == PUBLIC_NAMES


def test_no_name_appears_twice():
    assert len(set(zdgames.__all__)) == len(zdgames.__all__)


def test_every_name_resolves():
    missing = [name for name in zdgames.__all__ if not hasattr(zdgames, name)]
    assert not missing
