"""Core stability decided through nested balancedness.

The decision procedure discretizes the preimputation space into regions
(feasible collections over the strictly-vital-exact family), then for each
surviving region checks a second-level balancedness condition over a finite
vector set Omega built from admissible collection systems.  Cheap necessary
and sufficient conditions run first: game balancedness, exactness of the
singletons, the family being core-describing, blocking pairs, and the
weak-extendability sufficient condition.  The core-describing gate is
decided by balanced-collection programs (`props.is_core_describing`) and
weak extendability lists the vertices of subgame cores of at most
`model.MAX_PLAYERS` - 1 players.

The second level generalizes balanced collections to balanced sets: finite
sets of nonnegative vectors whose positive combinations reach the all-ones
vector.  The minimal balanced subsets of Omega are the vertex supports of
the bounded polytope P = {w >= 0 : Σ w_v·v = 1_N}, so the condition of a
system (some minimal balanced subset with ψ = Σ w_v·a_v above v(N), or at
v(N) with a vector of B0 in its support) is decided by linear programs over
P, with no listing of subsets: maximise ψ, and when the maximum is exactly
v(N), maximise the B0 weight over the optimal face (`linalg.vertex_clause`).
The programs run in integers at the game's one scale, with no pass over
Omega to clear denominators: V = v·D and G = v(N)·D come from the game's
one integer form (`model.Game.scaled`), shared with `props`, and the
association pool, the associated and the admissible collections are
database rows.  The pool is the one the feasibility oracle keeps from its
walk of the database (`props.association_pool`), so `is_core_stable`
reads the rows once.  An
Omega vector u/s with a-value a (u an integer vector, s > 0) is the entry
(u, s, k): the column u with the cost k = a·D·s, since its weight on u is
w/s.  A complement vector is (1_{S^c}, 1, G − V[S]), a family vector
(1_T, 1, V[T]), and the pattern z^S of a row (masks, nums, den) holds S's
singleton numerators over den, with k = den·G − Σ x_T·V^S[T] over the
other members.  Two entries are the same vector when their (u, s) agree
over the gcd, and a₁ > a₂ exactly when k₁·s₂ > k₂·s₁.  A
`WeightedCollection` is built only for the witness of a failing system.

The search that lists the minimal balanced subsets themselves
(`minimal_balanced_sets`) lives in `linalg`, next to the programs over the
same polytope; this module imports `is_minimal_balanced_set` from there,
where the acceptance tests look for it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from math import gcd

from . import linalg, props
from .generate import MbcDatabase
from .linalg import is_minimal_balanced_set
from .model import (
    Game,
    WeightedCollection,
    coalition_key,
    complement,
    full_mask,
    members,
)
from .props import association_pool

STABLE = "Stable"
NOT_STABLE = "NotStable"
UNKNOWN = "Unknown"


@dataclass
class StabilityCaps:
    """Resource limits for the nested stage.  Exceeding them yields an
    Unknown verdict rather than silent truncation.  None switches a cap
    off; a negative cap or a NaN time limit raises ValueError.  The
    Unknown witness names the first surviving collection left undecided:
    one over `max_systems`, or the one the deadline cut short, before or
    during its systems; never one whose systems all passed."""

    max_systems: int | None = 20_000
    time_limit: float | None = 600.0

    def __post_init__(self):
        if self.max_systems is not None and self.max_systems < 0:
            raise ValueError(f"max_systems must be at least 0, not {self.max_systems}")
        # `not t >= 0` also holds for NaN, which no deadline comparison passes
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be at least 0, not {self.time_limit}")


@dataclass
class StabilityReport:
    verdict: str
    stage: str
    witness: dict | None
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_payload(self, with_timings: bool = False) -> dict:
        payload = {
            "verdict": self.verdict,
            "stage": self.stage,
            "witness": self.witness,
            "diagnostics": self.diagnostics,
        }
        if with_timings:
            payload["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return payload


def _singletons_of(S: int) -> frozenset[int]:
    return frozenset(1 << (p - 1) for p in members(S))


def _render_masks(masks) -> list[str]:
    return [coalition_key(m) for m in masks]


# ---------------------------------------------------------------------------
# association and admissibility


def associated_collections(S: int, n: int, family, pool) -> list:
    """Rows of the pool (an `association_pool`) associated with S: they
    contain a singleton of S and live inside {singletons of S} + {S^c} +
    {family members not inside S}."""
    singles = _singletons_of(S)
    allowed = set(singles)
    allowed.add(complement(S, n))
    allowed.update(T for T in family if T & ~S)
    allowed.discard(0)
    out = []
    for row in pool:
        if allowed.issuperset(row[0]) and not singles.isdisjoint(row[0]):
            out.append(row)
    return out


def admissible_collections(S: int, collection, n: int, family, pool) -> list:
    """Associated rows that are admissible for the feasible collection:
    after dropping S's singletons, they either meet the collection or avoid
    its complements entirely."""
    s_set = set(collection)
    comp_set = {complement(T, n) for T in collection}
    singles = _singletons_of(S)
    out = []
    for row in associated_collections(S, n, family, pool):
        star = [T for T in row[0] if T not in singles]
        if any(T in s_set for T in star) or not any(T in comp_set for T in star):
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# Omega and the a-values


def _vector_key(column, s: int):
    """The vector column/s in lowest terms."""
    g = gcd(s, *column)
    return tuple(x // g for x in column), s // g


def _keep_largest(table: dict, key, entry) -> None:
    """Store the entry (u, s, k) under the vector key unless the stored one
    has an a-value at least as large."""
    old = table.get(key)
    if old is None or entry[2] * old[1] > old[2] * entry[1]:
        table[key] = entry


def omega_pattern(S: int, row, V, G: int, n: int):
    """The pattern z^S of an associated row (masks, nums, den) and its
    a-value c, as the entry (u, den, k): u holds the numerators of S's
    singletons, and k = den·G − Σ x_T·V^S[T] over the other members, where
    v^S is v with v^S(S^c) = v(N) − v(S)."""
    comp = complement(S, n)
    u = [0] * n
    k = row[2] * G
    for T, x in zip(row[0], row[1]):
        if T & S and T & (T - 1) == 0:
            u[T.bit_length() - 1] = x
        else:
            k -= x * (G - V[S] if T == comp else V[T])
    return tuple(u), row[2], k


def omega_base(collection, family, V, G: int, n: int):
    """The part of Omega that every admissible system of a feasible
    collection shares, as {vector key: (u, s, k)}: the complement of each
    member S, with a = v(N) − v(S), and each family member T outside the
    collection, with a = v(T).  A vector generated more than once keeps its
    largest a-value; a system's patterns merge in the same way.  Also
    returns the k at which each complement vector is in B0: its largest
    v(N) − v(S)."""
    table: dict = {}
    b0: dict = {}
    for S in collection:
        u = tuple((complement(S, n) >> i) & 1 for i in range(n))
        k = G - V[S]
        _keep_largest(table, (u, 1), (u, 1, k))
        b0[u, 1] = max(k, b0.get((u, 1), k))
    s_set = set(collection)
    for T in family:
        if T not in s_set:
            u = tuple((T >> i) & 1 for i in range(n))
            _keep_largest(table, (u, 1), (u, 1, V[T]))
    return table, b0


# ---------------------------------------------------------------------------
# the nested condition


def _nested_for_system(base, b0, bound: int, combo, diagnostics) -> bool:
    """The two existential clauses of the stability theorem for one system:
    some minimal balanced subset of Omega with ψ above v(N), or one meeting
    B0 with ψ = v(N), decided by `linalg.vertex_clause`.  Omega is the
    shared vectors plus the system's patterns (key, u, s, k, row).  A
    complement vector is in B0 when its a-value is v(N) − v(S) for a member
    S it comes from; the diagnostic counts the vectors where the shortcut
    (a complement vector that is no pattern) disagrees with that
    definition."""
    table = dict(base)
    patterns = set()
    for key, u, s, k, _ in combo:
        patterns.add(key)
        _keep_largest(table, key, (u, s, k))
    marked = []
    for key, (_, s, k) in table.items():
        in_b0 = key in b0 and k == b0[key] * s
        if in_b0 != (key in b0 and key not in patterns):
            diagnostics["b0_definition_disagreements"] = (
                diagnostics.get("b0_definition_disagreements", 0) + 1
            )
        marked.append(in_b0)
    entries = table.values()
    return linalg.vertex_clause([u for u, _, _ in entries],
                                [k for _, _, k in entries], bound, marked)


def nested_balancedness_ok(collection, family, db, game: Game,
                           caps: StabilityCaps | None = None,
                           pool=None, diagnostics=None, deadline=None):
    """Checks the stability theorem's condition for one feasible collection.

    Returns ("ok", None), ("fail", witness) with the first failing system in
    enumeration order, or ("capped", info) when resource caps were hit.
    Systems agreeing on every pattern z^S and its a-value c are checked
    once: the condition only depends on those.  The time cap ends at
    `deadline` (a `time.monotonic()` value) when one is given, else
    caps.time_limit seconds after the call.
    """
    props._require_database(game, db)
    if caps is None:
        caps = StabilityCaps()
    if deadline is None and caps.time_limit is not None:
        deadline = time.monotonic() + caps.time_limit
    n = game.n
    if pool is None:
        pool = association_pool(db, family, n)
    if diagnostics is None:
        diagnostics = {}

    V, _ = game.scaled
    G = V[full_mask(n)]
    choice_lists = []
    for S in collection:
        seen = set()
        order = []
        for row in admissible_collections(S, collection, n, family, pool):
            u, s, k = omega_pattern(S, row, V, G, n)
            key = _vector_key(u, s)
            h = gcd(k, s)
            z_and_c = (key, k // h, s // h)  # z^S and c·D in lowest terms
            if z_and_c not in seen:
                seen.add(z_and_c)
                order.append((key, u, s, k, row))
        if not order:
            return "ok", None  # empty product: vacuously satisfied
        choice_lists.append(order)

    total = 1
    for order in choice_lists:
        total *= len(order)
    if caps.max_systems is not None and total > caps.max_systems:
        return "capped", {"reason": "system-cap", "systems": total}

    base, b0 = omega_base(collection, family, V, G, n)
    checked = 0
    for combo in product(*choice_lists):
        if deadline is not None and checked % 32 == 0 and time.monotonic() > deadline:
            return "capped", {"reason": "time-cap", "systems": total}
        checked += 1
        if not _nested_for_system(base, b0, G, combo, diagnostics):
            witness = {
                "collection": _render_masks(collection),
                "system": [
                    {
                        "coalition": coalition_key(S),
                        "collection": WeightedCollection.from_row(*row).to_payload(),
                    }
                    for S, (*_, row) in zip(collection, combo)
                ],
            }
            return "fail", witness
    return "ok", None


# ---------------------------------------------------------------------------
# the complete decision procedure


def is_core_stable(game: Game, db: MbcDatabase,
                   caps: StabilityCaps | None = None) -> StabilityReport:
    """Decide core stability, with every early exit of the staged procedure:
    balancedness, singleton exactness, the vital-exact family being
    core-describing, blocking pairs, weak extendability, then the nested
    balancedness condition region by region.  The database must be the
    unrestricted one on the game's players (ValueError otherwise, from
    `props.index_for`)."""
    if caps is None:
        caps = StabilityCaps()
    timings: dict[str, float] = {}
    diagnostics: dict = {}
    t0 = time.monotonic()

    def mark(stage):
        nonlocal t0
        now = time.monotonic()
        timings[stage] = now - t0
        t0 = now

    index = props.index_for(game, db)
    violated = index.witness()
    mark("balancedness")
    if violated is not None:
        return StabilityReport(
            NOT_STABLE, "balancedness",
            {"violated_collection": violated.to_payload(),
             "note": "empty core"},
            diagnostics, timings)

    for i in range(game.n):
        if not props.is_exact(1 << i, game, index):
            mark("singleton-exactness")
            return StabilityReport(
                NOT_STABLE, "singleton-exactness",
                {"non_exact_singleton": coalition_key(1 << i)},
                diagnostics, timings)
    mark("singleton-exactness")

    family = props.sve_family(game, db, index)
    diagnostics["vital_exact_count"] = len(family)
    mark("vital-exactness")

    describing = props.is_core_describing(family, game)
    mark("core-describing")
    if not describing:
        return StabilityReport(
            NOT_STABLE, "core-describing",
            {"family": _render_masks(family)},
            diagnostics, timings)

    oracle = props.FeasibilityOracle(game, db, family)
    feasible = list(props.feasible_collections(oracle))
    diagnostics["feasible_count"] = len(feasible)
    mark("feasibility")

    blocking = [c for c in feasible if props.is_blocking(c, game.n)]
    mark("blocking")
    if blocking:
        return StabilityReport(
            NOT_STABLE, "blocking",
            {"blocking_pair": _render_masks(blocking[0]),
             "all_blocking_pairs": [_render_masks(c) for c in blocking]},
            diagnostics, timings)

    extendable_cache: dict[int, bool] = {}
    survivors = [c for c in feasible
                 if not props.has_min_extendable(c, game, extendable_cache)]
    diagnostics["surviving_count"] = len(survivors)
    mark("weak-extendability")
    if not survivors:
        return StabilityReport(
            STABLE, "weak-extendability",
            {"note": "every feasible collection has a minimal extendable member"},
            diagnostics, timings)

    pool = oracle.pool
    deadline = None
    if caps.time_limit is not None:
        deadline = time.monotonic() + caps.time_limit
    capped_info = None
    for collection in survivors:
        status, detail = nested_balancedness_ok(
            collection, family, db, game, caps,
            pool=pool, diagnostics=diagnostics,
            deadline=deadline)
        if status == "fail":
            mark("nested-balancedness")
            return StabilityReport(
                NOT_STABLE, "nested-balancedness", detail, diagnostics, timings)
        if status == "capped":
            if capped_info is None:
                capped_info = {"collection": _render_masks(collection), **detail}
            if detail["reason"] == "time-cap":
                break
    mark("nested-balancedness")
    if capped_info is not None:
        return StabilityReport(UNKNOWN, "nested-balancedness", capped_info,
                               diagnostics, timings)
    return StabilityReport(
        STABLE, "nested-balancedness",
        {"note": "every feasible collection satisfies the nested condition"},
        diagnostics, timings)
