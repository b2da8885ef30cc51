"""Minimal balanced collections and core stability of TU cooperative games.

The library generates the complete set of minimal balanced collections on a
player set, stores it in a reusable database, and uses it to decide core
nonemptiness, coalition properties (exactness, effectiveness, strict
vital-exactness, extendability), feasibility of collections, and core
stability, all in exact rational arithmetic.
"""

from .generate import (
    BALANCED_NOT_MINIMAL,
    MINIMAL,
    NOT_BALANCED,
    MbcDatabase,
    add_new_player,
    check_minimal_balanced,
    is_balanced_collection,
    peleg,
    peleg_stream,
    to_regular_hypergraph,
)
from .model import (
    Game,
    GameFormatError,
    WeightedCollection,
    coalition_key,
    coalition_mask,
    complement,
    full_mask,
    members,
    parse_coalition_key,
    parse_game,
)
from .polytope import (
    LinearSystem,
    enumerate_vertices,
    min_over,
    weight_polytope_vertices,
)
from .props import (
    BalancedIndex,
    DerivedGame,
    FeasibilityOracle,
    derived_vS,
    derived_vSS,
    effective_set,
    feasible_collections,
    is_balanced_game,
    is_core_describing,
    is_exact,
    is_extendable,
    is_feasible,
    is_strictly_vital_exact,
    reduced_game,
    sve_family,
)
from .stability import (
    NOT_STABLE,
    STABLE,
    UNKNOWN,
    StabilityCaps,
    StabilityReport,
    admissible_collections,
    associated_mbcs,
    is_core_stable,
    minimal_balanced_sets,
    nested_balancedness_ok,
)

__version__ = "0.1.0"
