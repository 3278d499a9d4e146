"""Exact desk-scale toolkit for delegated stochastic probing mechanisms."""

from .errors import CapacityError, Caps, UnsupportedError
from .set_systems import (
    ExplicitSystem,
    FreeSystem,
    IntersectionSystem,
    PartitionSystem,
    SetSystem,
    UniformSystem,
    explicit_system,
)
from .instances import (
    Instance,
    Outcome,
    UtilityAtom,
    builtin_instance,
    coins2,
    instance_to_json,
    is_inner_feasible_outcome_set,
    load_instance,
    make_instance,
    table1,
    table2,
)
from .probing import (
    AdaptiveValueReport,
    NonAdaptiveReport,
    best_nonadaptive_set,
    optimal_adaptive_value,
)
from .prophet import (
    ProphetReport,
    best_greedy_family,
    evaluate_vs_almighty,
    greedy_family,
    samuel_cahn_threshold,
    threshold_family,
)
from .delegation import (
    ExplicitPolicy,
    GreedyFamilyPolicy,
    Policy,
    PolicyEvaluation,
    ThresholdPolicy,
    TieBreak,
    build_threshold_policy,
    compose_outer,
    evaluate_policy,
    materialize_policy,
    policy_from_greedy,
    policy_from_json,
    policy_to_json,
    restrict_instance,
    validate_policy,
)
from .lottery import (
    Lottery,
    LotteryMenu,
    evaluate_lottery_menu,
    lottery_menu,
    menu_from_json,
    menu_to_json,
    search_two_lottery_menus,
)
from .oracle import GapReport, exact_delegation_gap

__all__ = [name for name in dir() if not name.startswith("_")]
