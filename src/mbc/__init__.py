"""Minimal balanced collections and core stability of TU cooperative games.

The library generates the complete set of minimal balanced collections on a
player set, stores it in a reusable database, and uses it to decide core
nonemptiness, coalition properties (exactness, effectiveness, strict
vital-exactness, extendability), feasibility of collections, and core
stability, all in exact rational arithmetic.

The package exports the names of the README's examples; everything else is
imported from its module (`mbc.generate`, `mbc.props`, `mbc.stability`, ...).
"""

from .generate import (
    MbcDatabase,
    check_minimal_balanced,
    is_balanced_collection,
    peleg,
)
from .model import (
    Game,
    GameFormatError,
    WeightedCollection,
    coalition_mask,
    parse_game,
)
from .props import (
    BalancedIndex,
    effective_set,
    is_balanced_game,
    sve_family,
)
from .stability import (
    StabilityCaps,
    StabilityReport,
    is_core_stable,
)
from .linalg import minimal_balanced_sets

__version__ = "0.1.0"
