"""Coalition and game predicates over the minimal balanced collections.

Everything here reduces to weighted-sum tests over the minimal balanced
collections of the player set: core nonemptiness, exactness, effectiveness,
strict vital-exactness, feasibility of collections.  Extendability asks the
same question of reduced games on fewer players, and the core-describing
gate of the balanced collections of a family plus one complement, both by
linear programs over a weight polytope instead of a database.

The four coalition checks (balancedness, exactness, the effective set and
strict vital-exactness) have two paths with equal answers, chosen by
`index_for` from the number of players.  Below `PROGRAM_PLAYERS` (6) a
`BalancedIndex` scans the database once per game: derived games only ever
move one value (the complement of the studied coalition), so the index
keeps per coalition how far that value may rise (its headroom) and
decides a derived game without rescanning.  From 6 players on, where the
scan is 200,214 rows, a `ProgramIndex` asks `linalg.vertex_clause`
programs over all 2^n - 1 characteristic vectors instead, and reads a
row only to name the first one an unbalanced game violates.  So the row
checks are faster than linear programs here up to 5
players, and slower from 6 on (the measurements are at
`PROGRAM_PLAYERS`).

Everything here is integer arithmetic at the game's one integer form
`model.Game.scaled`, V = v·D, and G = v(N)·D: for a database row
(masks, nums, den), masks being a byte string of coalitions, the
inequality Σ λ_S v(S) <= v(N) becomes Σ nums·V <= den·G.  The row index of
a game keeps the headrooms, the first violated row and sets of
coalitions, at most 4^n entries in all, and nothing per row.
Extendability reads subgame cores off V.

Feasibility reads only the association pool, the rows whose coalitions
all lie among the singletons, the family and its complements.  It is
found by a walk of the database's sorted keys (`generate.Rows.within`)
that bisects once or twice per prefix of such coalitions, with no scan of
the rows (3.2 against 27 ms for the 483-row pool of the 6-player
fixture, Python 3.11 on 2 CPUs).
Feasible collections are decided as sets rather than one by one: a set of
subcollections of the family is one integer with bit s for subcollection
s, each oracle entry removes the subsets it defeats with a few integer
operations, and the work runs in blocks of 2**BLOCK_BITS subcollections
sharing their higher family bits.  `feasible_collections` then reads the
set bits back in (size, lexicographic) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
    subset_sums,
)
from .polytope import LinearSystem, enumerate_vertices


class UnbalancedGameError(ValueError):
    """Raised when an operation requiring a nonempty core meets a game
    without one."""


# ---------------------------------------------------------------------------
# integer scans


def _first_violated(rows, V, G):
    """Index of the first row with Σ nums·V > den·G, or None.  The sum is
    the one `BalancedIndex` takes."""
    for i, (masks, nums, den) in enumerate(rows):
        if sum(map(mul, nums, map(V.__getitem__, masks))) > den * G:
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
# coalition indexes

# Players from which `index_for` and `is_balanced_game` decide by programs
# instead of a row scan.  The scan is one Python step per database row, the
# programs up to a few hundred `linalg.vertex_clause` calls over the 2^n - 1
# characteristic vectors.  All four checks of one game, the database loaded
# beforehand, best of 3 (2 CPUs, Python 3.11): at n = 5 (1,292 rows) the
# scan took 2.3 ms and the programs 17.8 ms on the Biswas fixture, 3.5 and
# 7.3 ms over 20 seeded games; at n = 6 (200,214 rows) 0.41 s and 0.059 s
# on the 6-player fixture, 0.43 s and 0.018 s over 20 seeded games, and
# 0.38 s and 0.15 s on v(S) = |S|^2.
PROGRAM_PLAYERS = 6


@cache
def _coalition_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """The characteristic vectors of the coalitions 1..2^n - 1, in mask
    order: column T - 1 is coalition T."""
    return tuple(tuple((T >> i) & 1 for i in range(n)) for T in range(1, 1 << n))


def _beats(n: int, costs, bound: int, marked=()) -> bool:
    """Whether some minimal balanced collection on n players sums the
    costs (costs[T - 1] for coalition T) above the bound, or to it with
    positive weight on a marked coalition: one `linalg.vertex_clause`
    program, since the minimal balanced collections are the vertices of
    the weight polytope of every coalition."""
    marks = [False] * len(costs)
    for T in marked:
        marks[T - 1] = True
    return linalg.vertex_clause(_coalition_columns(n), costs, bound, marks)


class CoalitionIndex:
    """What the coalition checks of one (game, database) pair share: the
    game's integer form V, G = V[N], whether the game is balanced, and the
    first database row it violates.  `BalancedIndex` decides the checks by
    one scan of the rows, `ProgramIndex` by programs; `index_for` picks
    one by the number of players.  Both give the same answers."""

    def __init__(self, game: Game, db: MbcDatabase):
        _require_database(game, db)
        self.game = game
        self.db = db
        self.V, _ = game.scaled
        self.full = full_mask(game.n)
        self.G = self.V[self.full]

    def witness(self):
        """The first collection violating the core-nonemptiness inequality,
        or None when balanced."""
        if self.balanced:
            return None
        return WeightedCollection.from_row(*self.db.rows[self._violated()])

    def _violated(self) -> int:
        return _first_violated(self.db.rows, self.V, self.G)

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


class BalancedIndex(CoalitionIndex):
    """Per-(game, database) summary of the core-nonemptiness inequalities,
    with one headroom per coalition, so that a game differing from the base
    at a single coalition is decided without a row scan.

    The slack of row i is den·G - Σ nums·V: the row is violated when it is
    negative and tight when it is zero.  The index keeps the first violated
    row (`violated`, None when the game is balanced) and `tight`, the
    coalitions of the tight rows, not the slacks themselves.  The headroom
    of coalition m is the least slack/x over the rows holding m with weight
    numerator x, kept as the integer pair (hs[m], hx[m]); the empty mask,
    in no row, keeps 1/0 for +∞.  When that headroom is positive,
    at_headroom[m] is the set of coalitions of the rows attaining it.
    Raising V[m] by p > 0 keeps every row satisfied iff p·hx[m] <= hs[m],
    and when equality holds the rows it makes tight are exactly those.  A
    headroom of zero or less keeps None: a positive rise never equals it,
    and the queries refuse an unbalanced game.  The readers need only the
    union of the rows' coalitions, so the index holds at most 4^n of them
    however many rows are tight or tied."""

    def __init__(self, game: Game, db: MbcDatabase):
        super().__init__(game, db)
        V, G = self.V, self.G
        hs = [1] * len(V)
        hx = [0] * len(V)
        at_headroom: list[set[int] | None] = [None] * len(V)
        violated = None
        tight = set()
        for i, (masks, nums, den) in enumerate(db.rows):
            s = den * G - sum(map(mul, nums, map(V.__getitem__, masks)))
            if s <= 0:
                if s == 0:
                    tight.update(masks)
                elif violated is None:
                    violated = i
            for m, x in zip(masks, nums):
                # compare s/x with hs[m]/hx[m] by cross-multiplying
                lhs = s * hx[m]
                rhs = hs[m] * x
                if lhs < rhs:
                    hs[m] = s
                    hx[m] = x
                    at_headroom[m] = set(masks) if s > 0 else None
                elif lhs == rhs and s > 0:
                    at_headroom[m].update(masks)
        self.hs = hs
        self.hx = hx
        self.at_headroom = at_headroom
        self.violated = violated
        self.tight = frozenset(tight)
        self.balanced = violated is None

    def _violated(self) -> int:
        return self.violated

    def _rise(self, S: int) -> int:
        """(v(N) - v(S) - v(S^c))·D: how far the derived game v^S raises
        the scaled value of the complement of S.  Zero for S = N."""
        return self.G - self.V[S] - self.V[self.full ^ S]

    def _exact(self, S: int) -> bool:
        """v^S keeps a nonempty core iff its rise p is at most the
        complement's headroom.  The rise p is never negative in a balanced
        game: for a proper S it is the slack of the database row {S, S^c}.
        For N, p = 0 and the empty mask's headroom is +∞."""
        comp = self.full ^ S
        return self._rise(S) * self.hx[comp] <= self.hs[comp]

    def _strict(self, S: int) -> bool:
        """For an exact S: the effective set of v^S holds no proper subset
        of S.  That set is `tight` plus at_headroom[S^c] when v^S raises
        S^c by exactly its headroom (p >= 0, see `_exact`).  A base-tight
        row cannot hold S^c when p > 0: that headroom is zero."""
        p = self._rise(S)
        comp = self.full ^ S
        tight = self.tight
        if p > 0 and p * self.hx[comp] == self.hs[comp]:
            tight = tight | self.at_headroom[comp]
        return not any(T != S and T & ~S == 0 for T in tight)

    def _effective(self) -> frozenset:
        return self.tight


class ProgramIndex(CoalitionIndex):
    """The coalition checks as `linalg.vertex_clause` programs over every
    characteristic vector, costs V and bound G, with no row read:

    - balanced: no minimal balanced collection beats G (one program, made
      here);
    - S exact: the same for v^S, whose cost of S^c is G - V[S]; made once
      per coalition and kept;
    - T effective: some collection reaches G with weight on T;
    - an exact S strictly vital-exact: no collection of v^S reaches G with
      weight on a proper subset of S.

    Only the witness of an unbalanced game reads the database: the first
    violated row, as `BalancedIndex` reports it."""

    def __init__(self, game: Game, db: MbcDatabase):
        super().__init__(game, db)
        self.balanced = not _beats(game.n, self.V[1:], self.G)
        self._exact_of: dict[int, bool] = {}

    def _derived(self, S: int) -> list[int]:
        """The costs of v^S."""
        costs = list(self.V[1:])
        if S != self.full:
            costs[(self.full ^ S) - 1] = self.G - self.V[S]
        return costs

    def _exact(self, S: int) -> bool:
        if S not in self._exact_of:
            self._exact_of[S] = S == self.full or not _beats(
                self.game.n, self._derived(S), self.G)
        return self._exact_of[S]

    def _strict(self, S: int) -> bool:
        below = [T for T in range(1, S) if T & ~S == 0]
        return not below or not _beats(self.game.n, self._derived(S), self.G, below)

    def _effective(self) -> frozenset:
        """N, which the partition {N} makes tight, and every proper T some
        program finds tight.  One program with all of them marked first
        answers the common case where none is."""
        n, costs, G, full = self.game.n, self.V[1:], self.G, self.full
        if not _beats(n, costs, G, range(1, full)):
            return frozenset((full,))
        return frozenset(T for T in range(1, full + 1)
                         if T == full or _beats(n, costs, G, (T,)))


def index_for(game: Game, db: MbcDatabase) -> CoalitionIndex:
    """The coalition index of the game: `BalancedIndex` below
    `PROGRAM_PLAYERS` players, `ProgramIndex` from there on."""
    if game.n < PROGRAM_PLAYERS:
        return BalancedIndex(game, db)
    return ProgramIndex(game, db)


def is_balanced_game(game, db: MbcDatabase) -> bool:
    """Bondareva-Shapley: the core is nonempty iff no minimal balanced
    collection pushes the weighted value sum above v(N).  A row scan that
    stops at the first violation below `PROGRAM_PLAYERS` players, one
    program from there on."""
    _require_database(game, db)
    V, _ = game.scaled
    if game.n >= PROGRAM_PLAYERS:
        return not _beats(game.n, V[1:], V[-1])
    return _first_violated(db.rows, V, V[-1]) is None


def is_exact(S: int, game: Game, index: CoalitionIndex) -> bool:
    """S is exact iff the derived game v^S, which sets the complement of S
    to v(N) - v(S), keeps a nonempty core.  N is exact: any core element
    is efficient."""
    check_coalition(S, game.n)
    index._require_for(game)
    return index._exact(S)


def effective_set(game: Game, db: MbcDatabase, index: CoalitionIndex | None = None):
    """Coalitions tight at every core element: the union of the minimal
    balanced collections whose weighted sum meets v(N) exactly."""
    if index is None:
        index = index_for(game, db)
    index._require_for(game, db)
    return index._effective()


def is_strictly_vital_exact(S: int, game: Game, index: CoalitionIndex) -> bool:
    """S admits a core element tight on S and strictly slack on every proper
    nonempty subset of S.  Checked through the effective set of v^S: no tight
    collection of v^S may contain a proper subset of S (S itself excluded)."""
    if not is_exact(S, game, index):
        return False
    return index._strict(S)


def sve_family(game: Game, db: MbcDatabase, index: CoalitionIndex | None = None):
    """The strictly vital-exact proper coalitions, ascending by mask.  This
    is the core-describing family the stability pipeline works over."""
    if index is None:
        index = index_for(game, db)
    index._require_for(game, db)
    return tuple(
        S
        for S in range(1, full_mask(game.n))
        if is_strictly_vital_exact(S, game, index)
    )


def exact_coalitions(game: Game, db: MbcDatabase, index: CoalitionIndex | None = None):
    if index is None:
        index = index_for(game, db)
    index._require_for(game, db)
    return tuple(
        S for S in range(1, full_mask(game.n) + 1) if is_exact(S, game, index)
    )


# ---------------------------------------------------------------------------
# extendability


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

    At the integer form V = v·D: the c-th submask of S is coalition c in
    S's own coordinates, so D·C(S,v) is read off V.  A vertex D·x is the
    row (nums, den) with payoff sums X = subset_sums(nums), and the costs
    V[T u Q]·den - X(Q) and the level are the above times D·den > 0.
    """
    n = game.n
    check_coalition(S, n)
    V, _ = game.scaled
    full = full_mask(n)
    if S == full:
        return True
    subs = [0]   # every submask of S, increasing
    while subs[-1] != S:
        subs.append((subs[-1] - S) & S)
    vertices = enumerate_vertices(LinearSystem(
        S.bit_count(), V[S],
        tuple((c, V[q]) for c, q in enumerate(subs[1:-1], 1))))
    if not vertices:
        return True
    outside = full ^ S
    players = members(outside)
    coalitions = [t for t in range(1, outside + 1) if t & ~outside == 0]
    columns = [[(t >> (p - 1)) & 1 for p in players] for t in coalitions]
    values = [[V[t | q] for q in subs] for t in coalitions]
    marks = [False] * len(columns)
    for vertex in vertices:
        nums, den = scaled(vertex)
        X = subset_sums(nums)
        costs = [max(v * den - x for v, x in zip(row, X)) for row in values]
        if linalg.vertex_clause(columns, costs, V[full] * den - X[-1], marks):
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
    V, _ = game.scaled
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
    complements of family members.  `generate.Rows.within` finds them by
    bisecting the sorted rows, one key range per prefix of coalitions in
    that universe, without reading the other rows."""
    universe = {1 << i for i in range(n)}
    universe.update(family)
    universe.update(complement(T, n) for T in family)
    universe.discard(0)
    return db.rows.within(universe)


@dataclass
class FeasibleCollectionReport:
    collection: tuple[int, ...]
    blocking: bool
    has_min_extendable: bool


# Family bits left free in one block of the feasibility pass: a block is the
# 2**BLOCK_BITS subcollections that agree on every higher family bit, held
# as one integer of that many bits (8 KiB at 16).
BLOCK_BITS = 16


def _subset_patterns(free: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(IN, OUT, every) for sets of subsets of `free` bits held as one
    integer, bit s for subset s: IN[i] is the set of subsets holding bit i,
    OUT[i] the set of those without it, and `every` the set of all.  Made
    once per pass and shared by its blocks."""
    size = 1 << free
    every = (1 << size) - 1
    ins = []
    for i in range(free):
        half = 1 << i
        # runs of `half` zeros then `half` ones, repeated across the block
        ins.append(every // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
    return tuple(ins), tuple(every ^ p for p in ins), every


def _reaching(hit: int, total: int, touched: bool, level: int, terms,
              up: int, down: int) -> int:
    """The subsets of `hit` on which an entry's adjusted sum passes the
    level: above it, or at it with a violated complement in the subset.
    `terms` are the entry's complements still undecided, as (weight, IN,
    OUT), with `up` and `down` the sums of their positive and of their
    negative weights; `total` and `touched` already count the decided ones.
    A branch stops as soon as the remaining weights cannot change its
    outcome."""
    if total + up < level:
        return 0
    if total + down > level or (touched and total + down >= level):
        return hit
    if not terms:
        return 0   # exactly at the level with no violated complement
    (w, inside, outside), *rest = terms
    up -= max(w, 0)
    down -= min(w, 0)
    out = 0
    part = hit & inside
    if part:
        out = _reaching(part, total + w, True, level, rest, up, down)
    part = hit & outside
    if part:
        out |= _reaching(part, total, touched, level, rest, up, down)
    return out


class FeasibilityOracle:
    """Feasibility of subcollections of a fixed core-describing family.

    A collection of strict violations is feasible iff no minimal balanced
    collection drawn from (family minus the collection) plus the violated
    complements pushes the adjusted weighted sum to v(N) (or beyond).  Only
    database entries living inside family-union-complements can ever matter,
    so they are extracted once and annotated with the family-index bitmasks
    that decide their eligibility per query.

    Subcollections are answered a block at a time (`_feasible_block`): the
    subcollections sharing the family bits above the block's free bits, as
    one integer with bit s for the subcollection whose free bits are s.
    Each entry takes the subsets it defeats out of that set in a few
    integer operations, so an entry costs the same for one subcollection as
    for 2**BLOCK_BITS of them.  `feasible` asks a block with no free bits.
    """

    def __init__(self, game: Game, db: MbcDatabase, family):
        _require_database(game, db)
        self.family = tuple(sorted(family))
        self.n = game.n
        self.findex = {mask: i for i, mask in enumerate(self.family)}
        universe = set(self.family) | {
            complement(S, self.n) for S in self.family
        }
        universe.discard(0)
        V, _ = game.scaled
        G = V[full_mask(self.n)]
        # the one walk of the database; the nested stage reuses the pool
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
        return self._feasible_block(_subset_patterns(0), smask) == 1

    def _feasible_block(self, patterns, high: int) -> int:
        """The feasible subcollections among those whose family bits from
        free = len(IN) up are the bits of `high` (its lower bits clear), as
        a set: bit s is set when the subcollection with family bits high | s
        is feasible.  `patterns` is `_subset_patterns(free)`.  The empty
        subcollection counts like any other."""
        IN, OUT, alive = patterns
        low = (1 << len(IN)) - 1
        fixed = ~(high | low)   # family bits that are outside every subset
        for need, pure, duals, base, level, terms in self.entries:
            if need & fixed or pure & high:
                continue
            hit = alive
            bits = need & low
            while bits:
                bit = bits & -bits
                hit &= IN[bit.bit_length() - 1]
                bits ^= bit
            bits = pure & low
            while bits:
                bit = bits & -bits
                hit &= OUT[bit.bit_length() - 1]
                bits ^= bit
            # a member of the subset whose complement is in the family
            # and outside the subset keeps the entry out
            for fmask, cmask in duals:
                if cmask & high or fmask & fixed:
                    continue
                if fmask & high:
                    hit = hit & IN[cmask.bit_length() - 1] if cmask & low else 0
                elif cmask & low:
                    hit &= OUT[fmask.bit_length() - 1] | IN[cmask.bit_length() - 1]
                else:
                    hit &= OUT[fmask.bit_length() - 1]
                if not hit:
                    break
            if not hit:
                continue
            total = base
            touched = False
            open_terms = []
            # complements of weight zero only decide whether one is
            # violated, so they branch as one term: any of them inside
            some, none = 0, alive
            for x, delta, cmask in terms:
                if cmask & high:
                    total += x * delta
                    touched = True
                elif cmask & low:
                    i = cmask.bit_length() - 1
                    if x * delta:
                        open_terms.append((x * delta, IN[i], OUT[i]))
                    else:
                        some |= IN[i]
                        none &= OUT[i]
            if some:
                open_terms.append((0, some, none))
            up = sum(w for w, _, _ in open_terms if w > 0)
            down = sum(w for w, _, _ in open_terms if w < 0)
            alive &= ~_reaching(hit, total, touched, level, open_terms, up, down)
            if not alive:
                return 0
        return alive


def is_blocking(collection, n: int) -> bool:
    return len(collection) == 2 and (collection[0] | collection[1]) == full_mask(n)


def has_min_extendable(collection, game: Game, cache: dict) -> bool:
    """Is some minimal member of the collection (one with no proper subset
    inside it) extendable?  `cache` holds the extendability of every
    coalition tested so far, and grows; a member it holds as not
    extendable is passed over before its minimality is tested."""
    for S in collection:
        if cache.get(S, True) and not any(T != S and T & ~S == 0 for T in collection):
            if S not in cache:
                cache[S] = is_extendable(S, game)
            if cache[S]:
                return True
    return False


def feasible_collections(oracle: FeasibilityOracle):
    """All feasible nonempty subcollections of the oracle's family, by
    increasing size and lexicographic member order (the order of
    `itertools.combinations` over the sorted family).

    One pass of the oracle's entries per block of 2**BLOCK_BITS
    subcollections (a single block when the family has at most BLOCK_BITS
    members); a block stops once nothing in it is left feasible.  The set
    bits of every block are gathered by size and each size sorted, so the
    order does not depend on the block size."""
    for combos in _feasible_by_size(oracle):
        combos.sort()
        yield from combos


def _feasible_by_size(oracle: FeasibilityOracle) -> list[list[tuple[int, ...]]]:
    """The feasible nonempty subcollections, unsorted, in one list per
    size: the set bits of every block, as tuples of family members."""
    family = oracle.family
    free = min(len(family), BLOCK_BITS)
    patterns = _subset_patterns(free)
    member = {1 << i: S for i, S in enumerate(family)}
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(len(family) + 1)]
    for high in range(0, 1 << len(family), 1 << free):
        alive = oracle._feasible_block(patterns, high)
        if high == 0:
            alive &= ~1   # the empty subcollection
        digits = bin(alive)[:1:-1]   # digits[s] is bit s
        s = digits.find("1")
        while s >= 0:
            mask = high | s
            combo = []
            while mask:
                bit = mask & -mask
                combo.append(member[bit])
                mask ^= bit
            by_size[len(combo)].append(tuple(combo))
            s = digits.find("1", s + 1)
    return by_size


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
