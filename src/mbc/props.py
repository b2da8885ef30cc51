"""Coalition and game predicates driven by the collection database.

Everything here reduces to weighted-sum tests over the minimal balanced
collections of the player set: core nonemptiness, exactness, effectiveness,
strict vital-exactness, feasibility of collections.  Extendability asks the
same question of reduced games on fewer players, and the core-describing
gate of the balanced collections of a family plus one complement, both by
linear programs over a weight polytope instead of a database.  Since the database does not
depend on the game, it is built once and scanned with per-game indexes;
derived games only ever move one value (the complement of the studied
coalition), so the index keeps per coalition how far that value may rise
(its headroom) and decides a derived game without rescanning.

The scans are integer arithmetic: a game is scaled once to a common
denominator D, and for a database row (masks, nums, den) the inequality
Σ λ_S v(S) <= v(N) becomes Σ nums·V <= den·G with V = v·D and G = v(N)·D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import mul

from . import linalg
from .generate import MbcDatabase
from .model import (
    Game,
    WeightedCollection,
    check_coalition,
    complement,
    full_mask,
    members,
    scaled,
)
from .polytope import LinearSystem, enumerate_vertices


class UnbalancedGameError(ValueError):
    """Raised when an operation requiring a nonempty core meets a game
    without one."""


# ---------------------------------------------------------------------------
# integer scans


def _scaled_game(game) -> tuple[list[int], int]:
    """V[mask] = v(mask)·D for every mask of the game (V[0] = 0), and D."""
    return scaled([game.value(mask) for mask in range(1 << game.n)])


def _first_violated(rows, V, G):
    """Index of the first row with Σ nums·V > den·G, or None."""
    for i, (masks, nums, den) in enumerate(rows):
        total = 0
        for m, x in zip(masks, nums):
            total += x * V[m]
        if total > den * G:
            return i
    return None


def _require_database(game, db: MbcDatabase) -> None:
    """Raise ValueError unless db holds every minimal balanced collection on
    the game's players: Bondareva-Shapley and the stability theorem range
    over all of them, so a restricted database gives no verdict."""
    if game.n != db.n:
        raise ValueError(f"game has n={game.n}, database has n={db.n}")
    if db.restricted:
        raise ValueError("analysis needs an unrestricted database")


# ---------------------------------------------------------------------------
# balancedness index


class BalancedIndex:
    """Per-(game, database) slacks of the core-nonemptiness inequalities,
    with one headroom per coalition, so that a game differing from the base
    at a single coalition is decided without a row scan.

    slack[i] = den·G - Σ nums·V for row i: the row is violated when it is
    negative and tight when it is zero.  The headroom of coalition m is the
    least slack[i]/x over the rows i holding m with weight numerator x, kept
    as the integer pair (hs[m], hx[m]); the empty mask, in no row, keeps 1/0
    for +∞.  argmin[m] lists, ascending, the rows attaining it.  Raising
    V[m] by p > 0 keeps every row satisfied iff p·hx[m] <= hs[m], and then
    the rows it makes tight are exactly argmin[m] when equality holds."""

    def __init__(self, game: Game, db: MbcDatabase):
        _require_database(game, db)
        self.game = game
        self.db = db
        V, _ = _scaled_game(game)
        G = V[-1]
        hs = [1] * len(V)
        hx = [0] * len(V)
        argmin: list[list[int]] = [[] for _ in V]
        slack = []
        for i, (masks, nums, den) in enumerate(db.rows):
            s = den * G - sum(map(mul, nums, map(V.__getitem__, masks)))
            slack.append(s)
            for m, x in zip(masks, nums):
                # compare s/x with hs[m]/hx[m] by cross-multiplying
                lhs = s * hx[m]
                rhs = hs[m] * x
                if lhs < rhs:
                    hs[m] = s
                    hx[m] = x
                    argmin[m] = [i]
                elif lhs == rhs:
                    argmin[m].append(i)
        self.V = V
        self.full = full_mask(game.n)
        self.slack = slack
        self.hs = hs
        self.hx = hx
        self.argmin = argmin
        self.base_tight = [i for i, s in enumerate(slack) if s == 0]
        self.balanced = all(s >= 0 for s in slack)

    def witness(self):
        """The first collection violating the core-nonemptiness inequality,
        or None when balanced."""
        for i, s in enumerate(self.slack):
            if s < 0:
                return WeightedCollection.from_row(*self.db.rows[i])
        return None

    def require_balanced(self):
        if not self.balanced:
            raise UnbalancedGameError("the game has an empty core")

    def _require_for(self, game: Game, db: MbcDatabase | None = None) -> None:
        """Raise ValueError unless the index was built for this game (and
        this database, when given); then require a balanced base game."""
        if (self.game is not game and self.game != game) or (
                db is not None and self.db is not db):
            raise ValueError("the index was built for another game or database")
        self.require_balanced()

    def _rise(self, S: int) -> int:
        """(v(N) - v(S) - v(S^c))·D: how far the derived game v^S raises
        the scaled value of the complement of S.  Zero for S = N."""
        V = self.V
        return V[self.full] - V[S] - V[self.full ^ S]


def is_balanced_game(game, db: MbcDatabase) -> bool:
    """Bondareva-Shapley: the core is nonempty iff no minimal balanced
    collection pushes the weighted value sum above v(N).  Stops at the first
    violation."""
    _require_database(game, db)
    V, _ = _scaled_game(game)
    return _first_violated(db.rows, V, V[full_mask(game.n)]) is None


def is_exact(S: int, game: Game, index: BalancedIndex) -> bool:
    """S is exact iff the derived game v^S, which sets the complement of S
    to v(N) - v(S), keeps a nonempty core: its rise p is at most the
    complement's headroom.  The rise p is never negative in a balanced
    game: for a proper S it is the slack of the database row {S, S^c}.  N
    is exact (p = 0, and the empty mask's headroom is +∞): any core
    element is efficient."""
    check_coalition(S, game.n)
    index._require_for(game)
    p = index._rise(S)
    comp = index.full ^ S
    return p * index.hx[comp] <= index.hs[comp]


def effective_set(game: Game, db: MbcDatabase, index: BalancedIndex | None = None):
    """Coalitions tight at every core element: the union of the minimal
    balanced collections whose weighted sum meets v(N) exactly."""
    if index is None:
        index = BalancedIndex(game, db)
    index._require_for(game, db)
    out: set[int] = set()
    for i in index.base_tight:
        out.update(db.rows[i][0])
    return frozenset(out)


def is_strictly_vital_exact(S: int, game: Game, index: BalancedIndex) -> bool:
    """S admits a core element tight on S and strictly slack on every proper
    nonempty subset of S.  Checked through the effective set of v^S: no tight
    collection of v^S may contain a proper subset of S (S itself excluded).

    When v^S is balanced, its tight rows are the base-tight rows plus the
    argmin rows of S^c when v^S raises that value by exactly its headroom
    (p >= 0, see `is_exact`).  A base-tight row cannot hold S^c when
    p > 0: that headroom is zero."""
    if not is_exact(S, game, index):
        return False
    p = index._rise(S)
    comp = index.full ^ S
    rows = index.db.rows
    tight = index.base_tight
    if p > 0 and p * index.hx[comp] == index.hs[comp]:
        tight = chain(tight, index.argmin[comp])
    for i in tight:
        for T in rows[i][0]:
            if T != S and T & ~S == 0:
                return False
    return True


def sve_family(game: Game, db: MbcDatabase, index: BalancedIndex | None = None):
    """The strictly vital-exact proper coalitions, ascending by mask.  This
    is the core-describing family the stability pipeline works over."""
    if index is None:
        index = BalancedIndex(game, db)
    index._require_for(game, db)
    return tuple(
        S
        for S in range(1, full_mask(game.n))
        if is_strictly_vital_exact(S, game, index)
    )


def exact_coalitions(game: Game, db: MbcDatabase, index: BalancedIndex | None = None):
    if index is None:
        index = BalancedIndex(game, db)
    index._require_for(game, db)
    return tuple(
        S for S in range(1, full_mask(game.n) + 1) if is_exact(S, game, index)
    )


# ---------------------------------------------------------------------------
# extendability


def _payoff_sums(S: int, fixed: dict[int, Fraction]) -> dict[int, Fraction]:
    """x(Q) for every submask Q of S under the pinned payoffs, in increasing
    mask order."""
    zsum: dict[int, Fraction] = {0: Fraction(0)}
    q = 0
    while True:
        q = (q - S) & S
        if q == 0:
            return zsum
        low = q & -q
        zsum[q] = zsum[q ^ low] + fixed[low.bit_length()]


def _max_excess(game: Game, t: int, zsum: dict[int, Fraction]) -> Fraction:
    """The reduced-game excess of T: max over the Q of `zsum` of
    v(T u Q) - x(Q)."""
    return max(game.value(t | q) - z for q, z in zsum.items())


def is_extendable(S: int, game: Game) -> bool:
    """Every subgame-core allocation on S extends to a full core element iff
    every vertex of C(S,v) induces a balanced reduced game on S^c.  An empty
    subgame core extends vacuously.

    In the balancedness test every coalition of S^c carries its recruitment
    value max over Q of v(T u Q) - x(Q), S^c itself included, and the sums
    compare against the fixed level v(N) - x(S); using the plain reduced-game
    value of S^c on both sides would make its collection vacuous and lose the
    constraint the extension must respect.  The minimal balanced
    collections on S^c are the vertices of the weight polytope of all its
    coalitions, so one `linalg.vertex_clause` program per subgame-core
    vertex decides whether some collection sums above the level, with no
    database.
    """
    n = game.n
    check_coalition(S, n)
    if S == full_mask(n):
        return True
    vertices = enumerate_vertices(LinearSystem.subgame_core(game, S))
    if not vertices:
        return True
    outside = complement(S, n)
    players = members(outside)
    coalitions = [t for t in range(1, outside + 1) if t & ~outside == 0]
    columns = [[(t >> (p - 1)) & 1 for p in players] for t in coalitions]
    keep_players = members(S)
    for vertex in vertices:
        zsum = _payoff_sums(S, dict(zip(keep_players, vertex)))
        costs = [_max_excess(game, t, zsum) for t in coalitions]
        (*ints, level), _ = scaled([*costs, game.grand_value() - zsum[S]])
        if linalg.vertex_clause(columns, ints, level, [False] * len(columns)):
            return False
    return True


# ---------------------------------------------------------------------------
# core-describing families


def is_core_describing(family, game: Game) -> bool:
    """True iff the family's constraints alone already cut out the core:
    the family polytope is nonempty and every missing coalition's
    constraint is implied.  Decided by balanced collections of the family,
    one `linalg.vertex_clause` program each, for any family: the polytope
    is empty iff one sums above v(N), and a missing x(T) >= v(T) is implied
    iff one holding T^c, valued v(N) - v(T), reaches v(N) (LP duality over
    T^c's positive weight).  An unbounded family polytope answers False:
    some x_i is unbounded below on it, so the row x_i >= v(i) is missing
    and no program implies it."""
    family = set(family)
    n = game.n
    for S in family:
        check_coalition(S, n)
    V, _ = _scaled_game(game)
    full = full_mask(n)
    G = V[full]
    order = sorted(family)
    columns = [[(S >> i) & 1 for i in range(n)] for S in order]
    costs = [V[S] for S in order]
    if linalg.vertex_clause(columns, costs, G, [False] * len(columns)):
        # the family polytope contains the core, which is nonempty for the
        # intended (balanced) callers, so this means an empty core
        return False
    marks = [False] * len(columns) + [True]
    return all(
        linalg.vertex_clause(columns + [[(full ^ T) >> i & 1 for i in range(n)]],
                             costs + [G - V[T]], G, marks)
        for T in range(1, full) if T not in family)


# ---------------------------------------------------------------------------
# feasible collections


def association_pool(db: MbcDatabase, family, n: int) -> list:
    """The database rows, in database order, that can ever be associated
    with a member of the family or defeat the feasibility of one of its
    subcollections: all their members are singletons, family members, or
    complements of family members."""
    universe = {1 << i for i in range(n)}
    universe.update(family)
    universe.update(complement(T, n) for T in family)
    universe.discard(0)
    return [row for row in db.rows if universe.issuperset(row[0])]


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
        _require_database(game, db)
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
        # the one scan of the database; the nested stage reuses the pool
        self.pool = association_pool(db, self.family, self.n)
        self.entries = []
        for masks, nums, den in self.pool:
            if not universe.issuperset(masks):
                continue
            need = 0       # family bits that must be inside the queried collection
            pure = 0       # family bits that must stay outside it
            duals = []     # members present in the family together with their complement
            terms = []     # (numerator, scaled delta, trigger_bit) per family complement
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
                if cmask:
                    terms.append((x, (G - V[comp]) - V[T], cmask))
                base += x * V[T]
            level = den * G
            if base + sum(max(0, x * delta) for x, delta, _ in terms) < level:
                continue  # no collection can lift this entry to the level
            self.entries.append(
                (need, pure, tuple(duals), base, level, tuple(terms)))

    def feasible(self, masks) -> bool:
        """No entry defeats the collection: none has an adjusted weighted
        sum above v(N), or at v(N) with a violated complement in it."""
        smask = 0
        for S in masks:
            if S not in self.findex:
                raise ValueError("collection must be drawn from the family")
            smask |= 1 << self.findex[S]
        for need, pure, duals, base, level, terms in self.entries:
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
                return False
        return True


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
