"""Coalition and game predicates driven by the collection database.

Everything here reduces to weighted-sum tests over the minimal balanced
collections of the player set: core nonemptiness, exactness, effectiveness,
strict vital-exactness, feasibility of collections, extendability via
reduced games.  Since the database does not depend on the game, it is built
once and scanned with per-game indexes; derived games only ever move one
value (the complement of the studied coalition), so the index adjusts sums
incrementally instead of rescanning.

The scans are integer arithmetic: a game is scaled once to a common
denominator D, and for a database row (masks, nums, den) the inequality
Σ λ_S v(S) <= v(N) becomes Σ nums·V <= den·G with V = v·D and G = v(N)·D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from . import polytope
from .generate import MbcDatabase, peleg
from .model import Game, WeightedCollection, complement, full_mask, members
from .polytope import LinearSystem, enumerate_vertices


class UnbalancedGameError(ValueError):
    """Raised when an operation requiring a nonempty core meets a game
    without one."""


# ---------------------------------------------------------------------------
# derived games


@dataclass(frozen=True)
class DerivedGame:
    """A game that differs from its base only on an explicit override set."""

    base: Game
    overrides: dict  # mask -> Fraction

    @property
    def n(self) -> int:
        return self.base.n

    def value(self, mask: int) -> Fraction:
        if mask in self.overrides:
            return self.overrides[mask]
        return self.base.value(mask)

    def grand_value(self) -> Fraction:
        return self.value(full_mask(self.n))

    def to_game(self) -> Game:
        values = {
            mask: self.value(mask)
            for mask in range(1, full_mask(self.n) + 1)
            if self.value(mask) != 0
        }
        return Game(self.n, values)


def derived_vS(game: Game, S: int) -> DerivedGame:
    """The game differing from `game` only at S^c, where it takes v(N)-v(S)."""
    if S == 0:
        raise ValueError("empty coalition")
    comp = complement(S, game.n)
    if comp == 0:
        return DerivedGame(game, {})
    return DerivedGame(game, {comp: game.grand_value() - game.value(S)})


def derived_vSS(game: Game, collection) -> DerivedGame:
    """v^S applied for every S of a collection; the overrides win over any
    base values carried by the complements."""
    overrides = {}
    for S in collection:
        if S == 0:
            raise ValueError("empty coalition")
        comp = complement(S, game.n)
        if comp:
            overrides[comp] = game.grand_value() - game.value(S)
    return DerivedGame(game, overrides)


# ---------------------------------------------------------------------------
# integer scans


def _scale(values) -> tuple[list[int], int]:
    """Rationals over their least common denominator D: ([v·D, ...], D)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _scaled_game(game) -> tuple[list[int], int]:
    """V[mask] = v(mask)·D for every mask of the game (V[0] = 0), and D."""
    return _scale([game.value(mask) for mask in range(1 << game.n)])


def _first_violated(rows, V, G):
    """Index of the first row with Σ nums·V > den·G, or None."""
    for i, (masks, nums, den) in enumerate(rows):
        total = 0
        for m, x in zip(masks, nums):
            total += x * V[m]
        if total > den * G:
            return i
    return None


def _require_same_n(game, db: MbcDatabase) -> None:
    if game.n != db.n:
        raise ValueError(f"game has n={game.n}, database has n={db.n}")


# ---------------------------------------------------------------------------
# balancedness index


class BalancedIndex:
    """Per-(game, database) slacks of the core-nonemptiness inequalities,
    with a per-coalition index so that games differing from the base at a
    single coalition are evaluated by adjusting only the affected rows.

    slack[i] = den·G - Σ nums·V for row i: the row is violated when it is
    negative and tight when it is zero."""

    def __init__(self, game: Game, db: MbcDatabase):
        _require_same_n(game, db)
        self.game = game
        self.db = db
        V, self.scale = _scaled_game(game)
        G = V[full_mask(game.n)]
        slack = []
        per: list[list[tuple[int, int]]] = [[] for _ in V]
        for idx, (masks, nums, den) in enumerate(db.rows):
            total = 0
            for m, x in zip(masks, nums):
                total += x * V[m]
                per[m].append((idx, x))
            slack.append(den * G - total)
        self.slack = slack
        self.per = per
        self.base_tight = [i for i, s in enumerate(slack) if s == 0]
        self.balanced = all(s >= 0 for s in slack)

    def witness(self):
        """The first collection violating the core-nonemptiness inequality,
        the one `balancedness_witness` returns, or None when balanced."""
        for i, s in enumerate(self.slack):
            if s < 0:
                return WeightedCollection.from_row(*self.db.rows[i])
        return None

    def require_balanced(self):
        if not self.balanced:
            raise UnbalancedGameError("the game has an empty core")

    def _scaled_delta(self, mask: int, new_value: Fraction) -> tuple[int, int]:
        """(p, q) with p/q = (new_value - v(mask))·D, q > 0."""
        delta = (new_value - self.game.value(mask)) * self.scale
        return delta.numerator, delta.denominator

    def tight_with_single_override(self, mask: int, new_value: Fraction):
        """Indices of collections whose sum equals v(N) for the game with
        v(mask) replaced by new_value, assuming the base game is balanced."""
        p, q = self._scaled_delta(mask, new_value)
        if p == 0:
            return list(self.base_tight)
        affected = self.per[mask]
        affected_ids = {i for i, _ in affected}
        out = [i for i in self.base_tight if i not in affected_ids]
        slack = self.slack
        out.extend(i for i, x in affected if x * p == q * slack[i])
        out.sort()
        return out

    def balanced_with_single_override(self, mask: int, new_value: Fraction) -> bool:
        self.require_balanced()
        p, q = self._scaled_delta(mask, new_value)
        if p <= 0:
            return True
        slack = self.slack
        return all(x * p <= q * slack[i] for i, x in self.per[mask])


def is_balanced_game(game, db: MbcDatabase) -> bool:
    """Bondareva-Shapley: the core is nonempty iff no minimal balanced
    collection pushes the weighted value sum above v(N).  Stops at the first
    violation."""
    return balancedness_witness(game, db) is None


def balancedness_witness(game, db: MbcDatabase):
    """The first collection violating the core-nonemptiness inequality, or
    None when the game is balanced."""
    _require_same_n(game, db)
    V, _ = _scaled_game(game)
    i = _first_violated(db.rows, V, V[full_mask(game.n)])
    return None if i is None else WeightedCollection.from_row(*db.rows[i])


def is_exact(S: int, game: Game, index: BalancedIndex) -> bool:
    """S is exact iff the derived game v^S keeps a nonempty core."""
    if S == 0:
        raise ValueError("empty coalition")
    index.require_balanced()
    comp = complement(S, game.n)
    if comp == 0:
        return True  # N is exact: any core element is efficient
    return index.balanced_with_single_override(
        comp, game.grand_value() - game.value(S)
    )


def effective_set(game: Game, db: MbcDatabase, index: BalancedIndex | None = None):
    """Coalitions tight at every core element: the union of the minimal
    balanced collections whose weighted sum meets v(N) exactly."""
    if index is None:
        index = BalancedIndex(game, db)
    index.require_balanced()
    out: set[int] = set()
    for i in index.base_tight:
        out.update(db.rows[i][0])
    return frozenset(out)


def is_strictly_vital_exact(S: int, game: Game, index: BalancedIndex) -> bool:
    """S admits a core element tight on S and strictly slack on every proper
    nonempty subset of S.  Checked through the effective set of v^S: no tight
    collection of v^S may contain a proper subset of S (S itself excluded)."""
    if S == 0:
        raise ValueError("empty coalition")
    index.require_balanced()
    n = index.game.n
    comp = complement(S, n)
    if not is_exact(S, game, index):
        return False
    if comp == 0:
        tight = index.base_tight
    else:
        tight = index.tight_with_single_override(
            comp, game.grand_value() - game.value(S)
        )
    for i in tight:
        for T in index.db.rows[i][0]:
            if T != S and T & ~S == 0:
                return False
    return True


def sve_family(game: Game, db: MbcDatabase, index: BalancedIndex | None = None):
    """The strictly vital-exact proper coalitions, ascending by mask.  This
    is the core-describing family the stability pipeline works over."""
    if index is None:
        index = BalancedIndex(game, db)
    return tuple(
        S
        for S in range(1, full_mask(game.n))
        if is_strictly_vital_exact(S, game, index)
    )


def exact_coalitions(game: Game, db: MbcDatabase, index: BalancedIndex | None = None):
    if index is None:
        index = BalancedIndex(game, db)
    return tuple(
        S for S in range(1, full_mask(game.n) + 1) if is_exact(S, game, index)
    )


# ---------------------------------------------------------------------------
# reduced games and extendability


def reduced_game(game: Game, keep: int, fixed: dict[int, Fraction]) -> Game:
    """Davis-Maschler reduced game on the players of `keep`, with the payoff
    of every outside player pinned by `fixed`.  Players are relabelled
    1..|keep| in ascending order."""
    if keep == 0:
        raise ValueError("empty coalition")
    n = game.n
    outside = complement(keep, n)
    if set(fixed) != set(members(outside)):
        raise ValueError("fixed payoffs must cover exactly the outside players")
    keep_players = members(keep)
    relabel = {p: i for i, p in enumerate(keep_players)}

    # z(Q) for all submasks of the outside set, in increasing mask order
    zsum: dict[int, Fraction] = {0: Fraction(0)}
    q = 0
    while True:
        if q:
            low = q & -q
            zsum[q] = zsum[q ^ low] + fixed[low.bit_length()]
        q = (q - outside) & outside
        if q == 0:
            break

    m = len(keep_players)
    values: dict[int, Fraction] = {}
    grand = game.grand_value()
    total_fixed = zsum[outside]

    t = 0
    while True:
        t = (t - keep) & keep
        if t == 0:
            break
        new_mask = 0
        tm = t
        while tm:
            low = tm & -tm
            new_mask |= 1 << relabel[low.bit_length()]
            tm ^= low
        if t == keep:
            val = grand - total_fixed
        else:
            best = None
            q = 0
            while True:
                cand = game.value(t | q) - zsum[q]
                if best is None or cand > best:
                    best = cand
                q = (q - outside) & outside
                if q == 0:
                    break
            val = best
        if val != 0:
            values[new_mask] = val
    return Game(m, values)


@lru_cache(maxsize=None)
def _small_db(m: int) -> MbcDatabase:
    return peleg(m)


def is_extendable(S: int, game: Game) -> bool:
    """Every subgame-core allocation on S extends to a full core element iff
    every vertex of C(S,v) induces a balanced reduced game on S^c.  An empty
    subgame core extends vacuously.

    In the balancedness test every coalition of S^c carries its recruitment
    value max over Q of v(T u Q) - x(Q), S^c itself included, and the sums
    compare against the fixed level v(N) - x(S); using the plain reduced-game
    value of S^c on both sides would make its collection vacuous and lose the
    constraint the extension must respect.
    """
    if S == 0:
        raise ValueError("empty coalition")
    n = game.n
    if S == full_mask(n):
        return True
    vertices = enumerate_vertices(LinearSystem.subgame_core(game, S))
    if not vertices:
        return True
    outside = complement(S, n)
    m = len(members(outside))
    db_small = _small_db(m)
    keep_players = members(S)
    for vertex in vertices:
        fixed = {p: vertex[i] for i, p in enumerate(keep_players)}
        level = game.grand_value() - sum(fixed.values())
        reduced = reduced_game(game, outside, fixed)
        top = _recruitment_value(game, outside, S, fixed)
        values = reduced.with_value(full_mask(m), top)
        scaled, _ = _scale([values.value(mask) for mask in range(1 << m)] + [level])
        if _first_violated(db_small.rows, scaled[:-1], scaled[-1]) is not None:
            return False
    return True


def _recruitment_value(game: Game, T: int, inside: int, fixed: dict) -> Fraction:
    """max over Q inside of v(T u Q) - x(Q) for the pinned payoffs."""
    best = None
    q = 0
    while True:
        cost = sum(
            (fixed[p] for p in members(q)), Fraction(0)
        )
        candidate = game.value(T | q) - cost
        if best is None or candidate > best:
            best = candidate
        q = (q - inside) & inside
        if q == 0:
            break
    return best


# ---------------------------------------------------------------------------
# core-describing families


def is_core_describing(family, game: Game) -> bool:
    """True iff the family's constraints alone already cut out the core:
    every missing coalition's constraint is implied."""
    family = set(family)
    n = game.n
    singles = all((1 << i) in family for i in range(n))
    system = LinearSystem.family_polytope(game, sorted(family))
    if not singles and _family_unbounded(system):
        raise polytope.UnboundedPolytopeError(
            "family polytope is unbounded; singletons are missing"
        )
    vertices = enumerate_vertices(system)
    if not vertices:
        # the family polytope contains the core, which is nonempty for the
        # intended (balanced) callers, so this means an empty core
        return False
    for T in range(1, full_mask(n)):
        if T in family:
            continue
        indicator = [(T >> i) & 1 for i in range(n)]
        lowest = min(
            sum(x for x, bit in zip(vertex, indicator) if bit)
            for vertex in vertices
        )
        if lowest < game.value(T):
            return False
    return True


def _family_unbounded(system: LinearSystem) -> bool:
    hull = system.affine_hull()
    if hull is None:
        return False
    x0, basis = hull
    rows = []
    for coeffs, _ in system.ineqs:
        rows.append(
            (tuple(sum(c * w for c, w in zip(coeffs, vec)) for vec in basis), Fraction(0), False)
        )
    d = len(basis)
    for i in range(d):
        unit = tuple(Fraction(1) if j == i else Fraction(0) for j in range(d))
        for direction in (unit, tuple(-u for u in unit)):
            probe = rows + [(direction, Fraction(1), False)]
            if polytope._fm_feasible(probe, d):
                return True
    return False


# ---------------------------------------------------------------------------
# feasible collections


@dataclass
class FeasibleCollectionReport:
    collection: tuple[int, ...]
    blocking: bool
    has_min_extendable: bool


class FeasibilityOracle:
    """Feasibility of subcollections of a fixed core-describing family.

    A collection of strict violations is feasible iff no minimal balanced
    collection drawn from (family minus the collection) plus the violated
    complements pushes the adjusted weighted sum to v(N) (or beyond).  Only
    database entries living inside family-union-complements can ever matter,
    so they are extracted once and annotated with the family-index bitmasks
    that decide their eligibility per query.
    """

    def __init__(self, game: Game, db: MbcDatabase, family):
        self.game = game
        self.db = db
        self.family = tuple(sorted(family))
        self.n = game.n
        self.findex = {mask: i for i, mask in enumerate(self.family)}
        universe = set(self.family) | {
            complement(S, self.n) for S in self.family
        }
        universe.discard(0)
        V, _ = _scaled_game(game)
        G = V[full_mask(self.n)]
        self.entries = []
        for idx, (masks, nums, den) in enumerate(db.rows):
            if not universe.issuperset(masks):
                continue
            need = 0       # family bits that must be inside the queried collection
            pure = 0       # family bits that must stay outside it
            duals = []     # members present in the family together with their complement
            terms = []     # (numerator, scaled delta, trigger_bit) per member
            base = 0
            for T, x in zip(masks, nums):
                fbit = self.findex.get(T)
                comp = complement(T, self.n)
                cbit = self.findex.get(comp)
                fmask = 0 if fbit is None else 1 << fbit
                cmask = 0 if cbit is None else 1 << cbit
                if fmask and cmask:
                    duals.append((fmask, cmask))
                elif fmask:
                    pure |= fmask
                else:
                    need |= cmask
                terms.append((x, (G - V[comp]) - V[T], cmask))
                base += x * V[T]
            self.entries.append(
                (need, pure, tuple(duals), base, den * G, tuple(terms), idx))

    def collection_mask(self, masks) -> int:
        bits = 0
        for S in masks:
            if S not in self.findex:
                raise ValueError("collection must be drawn from the family")
            bits |= 1 << self.findex[S]
        return bits

    def feasible(self, masks) -> bool:
        return self.defeating_row(self.collection_mask(masks)) is None

    def defeating_row(self, smask: int):
        """Index in `db.rows` of the first collection defeating feasibility
        of the collection with family bitmask `smask`, or None."""
        for need, pure, duals, base, level, terms, idx in self.entries:
            if need & ~smask or pure & smask:
                continue
            if duals and any(
                fmask & smask and not (cmask & smask) for fmask, cmask in duals
            ):
                continue
            total = base
            touches = False
            for x, delta, cmask in terms:
                if cmask & smask:
                    touches = True
                    total += x * delta
            if total > level or (touches and total == level):
                return idx
        return None


def is_feasible(collection, family, game: Game, db: MbcDatabase,
                oracle: FeasibilityOracle | None = None) -> bool:
    """Is the region where exactly these family constraints are violated
    nonempty?  The empty collection is feasible precisely for balanced games
    (its region is the core)."""
    family_set = set(family)
    if any(S not in family_set for S in collection):
        raise ValueError("collection must be a subset of the family")
    if oracle is None:
        oracle = FeasibilityOracle(game, db, family)
    return oracle.feasible(collection)


def is_blocking(collection, n: int) -> bool:
    return len(collection) == 2 and (collection[0] | collection[1]) == full_mask(n)


def minimal_members(collection):
    """Members with no proper subset inside the collection."""
    out = []
    for S in collection:
        if not any(T != S and T & ~S == 0 for T in collection):
            out.append(S)
    return out


def has_min_extendable(collection, game: Game, cache: dict) -> bool:
    """Is some minimal member of the collection extendable?  `cache` holds
    the extendability of every coalition tested so far, and grows."""
    for S in minimal_members(collection):
        if S not in cache:
            cache[S] = is_extendable(S, game)
        if cache[S]:
            return True
    return False


def feasible_collections(oracle: FeasibilityOracle):
    """All feasible nonempty subcollections of the oracle's family, by
    increasing size and lexicographic member order."""
    for size in range(1, len(oracle.family) + 1):
        for combo in combinations(oracle.family, size):
            if oracle.feasible(combo):
                yield combo


def feasibility_survey(game: Game, db: MbcDatabase, family,
                       extendable_cache: dict | None = None):
    """Feasible collections with blocking and minimal-extendable-member
    annotations (the analyze payload)."""
    oracle = FeasibilityOracle(game, db, family)
    if extendable_cache is None:
        extendable_cache = {}
    reports = []
    for combo in feasible_collections(oracle):
        reports.append(
            FeasibleCollectionReport(
                collection=combo,
                blocking=is_blocking(combo, game.n),
                has_min_extendable=has_min_extendable(combo, game, extendable_cache),
            )
        )
    return reports
