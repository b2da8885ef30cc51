"""Core stability decided through nested balancedness.

The decision procedure discretizes the preimputation space into regions
(feasible collections over the strictly-vital-exact family), then for each
surviving region checks a second-level balancedness condition over a finite
vector set Omega built from admissible collection systems.  Cheap necessary
and sufficient conditions run first: game balancedness, exactness of the
singletons, the family being core-describing, blocking pairs, and the
weak-extendability sufficient condition.

The second level generalizes balanced collections to balanced sets: finite
sets of nonnegative vectors whose positive combinations reach the all-ones
vector.  The minimal balanced subsets of Omega are the vertex supports of
the bounded polytope P = {w >= 0 : Σ w_v·v = 1_N}, so the condition of a
system (some minimal balanced subset with ψ = Σ w_v·a_v above v(N), or at
v(N) with a vector of B0 in its support) is decided by linear programs over
P, with no listing of subsets: maximise ψ, and when the maximum is exactly
v(N), maximise the B0 weight over the optimal face (`linalg.vertex_clause`).
The programs run in integers: each vector is scaled once per feasible
collection by the positive factor s that makes it a primitive integer
vector, which divides its weight by s, so its a-value is multiplied by s
(and every a-value by one common denominator).

The search that lists the minimal balanced subsets themselves
(`minimal_balanced_sets`) lives in `linalg`, next to the programs over the
same polytope; this module imports `is_minimal_balanced_set` from there,
where the acceptance tests look for it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm

from . import linalg, props
from .generate import MbcDatabase
from .linalg import is_minimal_balanced_set
from .model import (
    Game,
    WeightedCollection,
    coalition_key,
    complement,
    members,
)
from .polytope import DimensionCapError

STABLE = "Stable"
NOT_STABLE = "NotStable"
UNKNOWN = "Unknown"


@dataclass
class StabilityCaps:
    """Resource limits for the nested stage.  Exceeding them yields an
    Unknown verdict rather than silent truncation."""

    max_systems: int | None = 20_000
    time_limit: float | None = 600.0


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


def _char_vector(mask: int, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction((mask >> i) & 1) for i in range(n))


def _singletons_of(S: int) -> frozenset[int]:
    return frozenset(1 << (p - 1) for p in members(S))


def _render_masks(masks) -> list[str]:
    return [coalition_key(m) for m in masks]


# ---------------------------------------------------------------------------
# association and admissibility


def associated_collections(S: int, n: int, family, pool) -> list[WeightedCollection]:
    """Collections of the pool associated with S: they contain a singleton
    of S and live inside {singletons of S} + {S^c} + {family members not
    inside S}."""
    singles = _singletons_of(S)
    comp = complement(S, n)
    allowed = set(singles)
    allowed.add(comp)
    allowed.update(T for T in family if T & ~S)
    allowed.discard(0)
    out = []
    for wc in pool:
        has_single = False
        ok = True
        for T in wc.coalitions:
            if T not in allowed:
                ok = False
                break
            if T in singles:
                has_single = True
        if ok and has_single:
            out.append(wc)
    return out


def admissible_collections(S: int, collection, n: int, family, pool):
    """Associated collections that are admissible for the feasible collection:
    after dropping S's singletons, they either meet the collection or avoid
    its complements entirely."""
    s_set = set(collection)
    comp_set = {complement(T, n) for T in collection}
    singles = _singletons_of(S)
    out = []
    for wc in associated_collections(S, n, family, pool):
        star = [T for T in wc.coalitions if T not in singles]
        if any(T in s_set for T in star) or not any(T in comp_set for T in star):
            out.append(wc)
    return out


def association_pool(db: MbcDatabase, family, n: int) -> list[WeightedCollection]:
    """Database entries that can ever be associated with a member of the
    family: all members must be singletons, family members, or complements
    of family members."""
    universe = {1 << i for i in range(n)}
    universe.update(family)
    universe.update(complement(T, n) for T in family)
    universe.discard(0)
    return [WeightedCollection.from_row(*row) for row in db.rows
            if universe.issuperset(row[0])]


# ---------------------------------------------------------------------------
# Omega and the a-values


def z_vector(S: int, wc: WeightedCollection, n: int) -> tuple[Fraction, ...]:
    """The singleton-weight pattern of an associated collection: coordinate
    j carries the weight of {j} when j is in S and {j} is a member, else 0."""
    coords = [Fraction(0)] * n
    for mask, w in wc.items():
        if mask & S and mask.bit_count() == 1:
            coords[mask.bit_length() - 1] = w
    return tuple(coords)


def c_value(S: int, wc: WeightedCollection, game: Game) -> Fraction:
    """v(N) minus the non-singleton part of the association inequality,
    evaluated on the derived game v^S: v^S(T) is v(N) - v(S) when T = S^c
    and v(T) otherwise."""
    grand = game.grand_value()
    comp = complement(S, game.n)
    singles = _singletons_of(S)
    total = Fraction(0)
    for T, w in wc.items():
        if T not in singles:
            total += w * (grand - game.value(S) if T == comp else game.value(T))
    return grand - total


def omega_base(collection, family, game: Game):
    """The part of Omega that every admissible system of a feasible
    collection shares, with its a-values: the complement of each member S,
    with a = v(N) - v(S), and each family member T outside the collection,
    with a = v(T).  A vector generated more than once keeps its largest
    a-value; a system's patterns z^S, with a = c_value, merge in the same
    way.  Returns (a-value table, the members each complement vector comes
    from)."""
    n = game.n
    grand = game.grand_value()
    complement_sources: dict = {}
    table: dict = {}
    for S in collection:
        vec = _char_vector(complement(S, n), n)
        complement_sources.setdefault(vec, []).append(S)
        val = grand - game.value(S)
        if vec not in table or val > table[vec]:
            table[vec] = val
    s_set = set(collection)
    for T in family:
        if T in s_set:
            continue
        vec = _char_vector(T, n)
        val = game.value(T)
        if vec not in table or val > table[vec]:
            table[vec] = val
    return table, complement_sources


# ---------------------------------------------------------------------------
# the nested condition


def _lp_data(vectors, terms, grand):
    """Integer LP data for rational Omega vectors: (columns, costs, bound).
    Vector j becomes the primitive integer vector s_j·vector, s_j > 0; each
    (j, a-value) term becomes the integer D·s_j·a for one common D; the
    bound is D·v(N).  Scaling a column by s_j divides its weight by s_j, so
    its a-value is multiplied by s_j: ψ over the columns is D·ψ."""
    scaled = [linalg.primitive(vec) for vec in vectors]
    weighted = [a * scaled[j][1] for j, a in terms]
    den = lcm(grand.denominator, *(x.denominator for x in weighted))
    return ([ints for ints, _ in scaled],
            [x.numerator * (den // x.denominator) for x in weighted],
            grand.numerator * (den // grand.denominator))


def _omega_lp(collection, family, game: Game, choice_lists):
    """Omega of one feasible collection as integer LP data, scaled once for
    all its systems: (omega, choice lists), each choice (z, c, wc) extended
    by its column and its cost.  omega holds the columns, the costs of the
    shared vectors, the cost at which each complement vector is in B0 (its
    largest v(N) - v(S)), and the bound."""
    base_table, sources = omega_base(collection, family, game)
    grand = game.grand_value()
    vectors = list(base_table)
    ids = {vec: j for j, vec in enumerate(vectors)}
    terms = list(enumerate(base_table.values()))
    for order in choice_lists:
        for z, c, _ in order:
            if z not in ids:
                ids[z] = len(vectors)
                vectors.append(z)
            terms.append((ids[z], c))
    b0_values = {ids[vec]: max(grand - game.value(S) for S in members_of)
                 for vec, members_of in sources.items()}
    terms.extend(b0_values.items())
    columns, costs, bound = _lp_data(vectors, terms, grand)
    costs = iter(costs)
    base_costs = {j: next(costs) for j in range(len(base_table))}
    choice_lists = [[(z, c, wc, ids[z], next(costs)) for z, c, wc in order]
                    for order in choice_lists]
    b0_costs = {j: next(costs) for j in b0_values}
    return (columns, base_costs, b0_costs, bound), choice_lists


def _nested_for_system(omega, combo, diagnostics) -> bool:
    """The two existential clauses of the stability theorem for one system:
    some minimal balanced subset of Omega with ψ above v(N), or one meeting
    B0 with ψ = v(N), decided by `linalg.vertex_clause`.  Omega is the
    shared vectors plus the system's patterns z^S, a vector generated more
    than once keeping its largest cost.  A complement vector is in B0 when
    its a-value is v(N) - v(S) for a member S it comes from; the diagnostic
    counts the vectors where the shortcut (a complement vector that is no
    pattern) disagrees with that definition."""
    columns, base_costs, b0_costs, bound = omega
    costs = dict(base_costs)
    patterns = set()
    for _, _, _, j, cost in combo:
        patterns.add(j)
        if j not in costs or cost > costs[j]:
            costs[j] = cost
    marked = []
    for j, cost in costs.items():
        in_b0 = b0_costs.get(j) == cost
        if in_b0 != (j in b0_costs and j not in patterns):
            diagnostics["b0_definition_disagreements"] = (
                diagnostics.get("b0_definition_disagreements", 0) + 1
            )
        marked.append(in_b0)
    return linalg.vertex_clause([columns[j] for j in costs],
                                list(costs.values()), bound, marked)


def nested_balancedness_ok(collection, family, db, game: Game,
                           caps: StabilityCaps | None = None,
                           pool=None, diagnostics=None, deadline=None):
    """Checks the stability theorem's condition for one feasible collection.

    Returns ("ok", None), ("fail", witness) with the first failing system in
    enumeration order, or ("capped", info) when resource caps were hit.
    Systems agreeing on every singleton pattern and association bound are
    checked once: the condition only depends on those.
    """
    if caps is None:
        caps = StabilityCaps()
    n = game.n
    if pool is None:
        pool = association_pool(db, family, n)
    if diagnostics is None:
        diagnostics = {}

    choice_lists = []
    for S in collection:
        admissible = admissible_collections(S, collection, n, family, pool)
        seen = {}
        order = []
        for wc in admissible:
            z = z_vector(S, wc, n)
            c = c_value(S, wc, game)
            if (z, c) not in seen:
                seen[(z, c)] = wc
                order.append((z, c, wc))
        if not order:
            return "ok", None  # empty product: vacuously satisfied
        choice_lists.append(order)

    total = 1
    for order in choice_lists:
        total *= len(order)
    if caps.max_systems is not None and total > caps.max_systems:
        return "capped", {"reason": "system-cap", "systems": total}

    omega, choice_lists = _omega_lp(collection, family, game, choice_lists)

    checked = 0
    for combo in product(*choice_lists):
        if deadline is not None and checked % 32 == 0 and time.monotonic() > deadline:
            return "capped", {"reason": "time-cap", "systems": total}
        checked += 1
        if not _nested_for_system(omega, combo, diagnostics):
            witness = {
                "collection": _render_masks(collection),
                "system": [
                    {
                        "coalition": coalition_key(S),
                        "collection": wc.to_payload(),
                    }
                    for S, (_, _, wc, _, _) in zip(collection, combo)
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
    balancedness condition region by region."""
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

    index = props.BalancedIndex(game, db)
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

    try:
        describing = props.is_core_describing(family, game)
    except DimensionCapError:
        mark("core-describing")
        return StabilityReport(
            UNKNOWN, "core-describing",
            {"reason": "dimension-cap"}, diagnostics, timings)
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
    try:
        survivors = [c for c in feasible
                     if not props.has_min_extendable(c, game, extendable_cache)]
    except DimensionCapError:
        mark("weak-extendability")
        return StabilityReport(
            UNKNOWN, "weak-extendability",
            {"reason": "dimension-cap"}, diagnostics, timings)
    diagnostics["surviving_count"] = len(survivors)
    mark("weak-extendability")
    if not survivors:
        return StabilityReport(
            STABLE, "weak-extendability",
            {"note": "every feasible collection has a minimal extendable member"},
            diagnostics, timings)

    pool = association_pool(db, family, game.n)
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
        if status == "capped" and capped_info is None:
            capped_info = {"collection": _render_masks(collection), **detail}
        if deadline is not None and time.monotonic() > deadline:
            if capped_info is None:
                capped_info = {"collection": _render_masks(collection),
                               "reason": "time-cap"}
            break
    mark("nested-balancedness")
    if capped_info is not None:
        return StabilityReport(UNKNOWN, "nested-balancedness", capped_info,
                               diagnostics, timings)
    return StabilityReport(
        STABLE, "nested-balancedness",
        {"note": "every feasible collection satisfies the nested condition"},
        diagnostics, timings)
