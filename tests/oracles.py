"""Independent oracles used to verify the library's fast paths.

These deliberately avoid the code paths they check: feasibility goes through
a strict-inequality Fourier-Motzkin probe on the region itself
(`region_nonempty`), and `feasible_collections_reference` is the library's
earlier walk of the oracle's entries, one subcollection at a time; extendability
through exact feasibility of the pinned core system, the boundedness of a
family polytope through Fourier-Motzkin probes of its recession cone
(`family_unbounded_reference`, the library's test before it decided
boundedness by balancedness), and the nested stability condition through
plain combinations plus a direct solve per subset.  The Fourier-Motzkin
eliminator (`system_feasible`) lives only here; the library does not use it.
These probes take a `LinearSystem` {x(N) = c, x(S) >= b} and substitute
x_1 = c - Σ_{j>1} x_j themselves.  `vertices_reference` is the vertex loop
in Fractions, one `solve_reference` per candidate set of tight rows, kept
as the reference for the library's integer loop.  `solve_reference` is a
textbook three-way Gauss-Jordan solve in Fractions, sharing no code with
the library's one elimination, so it is the reference for `solve_int` and
`solve_unique` and the solve of every reference below.
`core_describing_reference` is the library's earlier core-describing test,
the least x(T) over those vertices for each missing T, and `core_describing_definition` decides the
same question by Fourier-Motzkin; both check the library's balanced
collection programs.
`minimal_balanced_sets_reference` is the library's earlier Fraction search
for minimal balanced sets (with a `solve_reference` per leaf), kept as
the reference for the integer one, and
`nested_system_reference` is the earlier nested-stage decision (list the
minimal balanced subsets of Omega, then test ψ and B0 set by set), kept as
the reference for the linear programs that replace it; it and
`brute_nested_system_satisfied` build Omega, its a-values and B0 in
Fractions from their definitions (`omega_reference`), not with the
library's integer entries.  The generator is
checked against `brute_force_mbcs` (every subcollection classified on its
own) and `mbc_via_vertices` (the vertices of the full weight polytope).
Both stay independent of the library's search for minimal balanced sets:
`weight_polytope_vertices` solves every subcollection of at most n
coalitions with `solve_reference`, and `check_minimal_balanced_reference`,
the earlier classification of one collection (`solve_reference`, then
those vertices), classifies each subcollection for `brute_force_mbcs` and
`is_minimal_balanced` and is the reference for `check_minimal_balanced`.
`balanced_union_reference`, the library's earlier balancedness test, decides
whether a collection is balanced from the database alone.
`merged_pair_reference` and `children_4_reference` are the generator's
earlier case-4 steps: a rank test on every size-filtered pair, and the a/b
sign test per subset with the child's entries sorted afterwards.
`exact_reference`, `sve_reference` and `effective_reference` are the
library's earlier per-row override scan, in Fractions: every row holding
the complement of S is re-summed for the derived game v^S, where the
library compares one headroom per coalition.
`load_line_by_line` is an MBCDB reader that checks each line on its own,
in Fractions, in the documented order; it is the reference for the bulk
pass of `MbcDatabase.load`, for the rows it accepts and the message it
refuses a file with.
"""

import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from mbc import Game, WeightedCollection, linalg
from mbc.generate import (
    BALANCED_NOT_MINIMAL,
    MINIMAL,
    NOT_BALANCED,
    MbcDatabase,
)
from mbc.linalg import minimal_balanced_sets
from mbc.model import complement, full_mask, members
from mbc.polytope import LinearSystem, enumerate_vertices
from mbc.stability import admissible_collections, association_pool


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility (with strict-inequality tracking)


def _normalize_row(coeffs, rhs, strict):
    scale = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        return None  # constant row, handled by caller
    return tuple(c / scale for c in coeffs), rhs / scale, strict


def _fm_feasible(rows, n_vars: int) -> bool:
    """rows: (coeffs, rhs, strict) meaning a.y >= b, or a.y > b when strict."""
    work = []
    for coeffs, rhs, strict in rows:
        if all(c == 0 for c in coeffs):
            if rhs > 0 or (strict and rhs == 0):
                return False
            continue
        work.append((tuple(coeffs), rhs, strict))
    for var in range(n_vars):
        lowers, uppers, rest = [], [], []
        for coeffs, rhs, strict in work:
            c = coeffs[var]
            if c > 0:
                lowers.append((coeffs, rhs, strict, c))
            elif c < 0:
                uppers.append((coeffs, rhs, strict, c))
            else:
                rest.append((coeffs, rhs, strict))
        new_rows = {}
        for lc, lb, ls, la in lowers:
            for uc, ub, us, ua in uppers:
                # y_var >= (lb - l.y')/la and y_var <= (ub - u.y')/ua combine
                coeffs = tuple(
                    lci * (-ua) + uci * la if i != var else Fraction(0)
                    for i, (lci, uci) in enumerate(zip(lc, uc))
                )
                rhs = lb * (-ua) + ub * la
                strict = ls or us
                if all(c == 0 for c in coeffs):
                    if rhs > 0 or (strict and rhs == 0):
                        return False
                    continue
                norm = _normalize_row(coeffs, rhs, strict)
                key = norm[:2]
                if key in new_rows:
                    new_rows[key] = new_rows[key] or norm[2]
                else:
                    new_rows[key] = norm[2]
        work = rest + [(c, r, s) for (c, r), s in new_rows.items()]
    return True


def _substituted_rows(system: LinearSystem, strict_ineqs=()):
    """The system's rows x(S) >= b, and the strict rows a.x > b, over
    x_2..x_n after substituting x_1 = c - Σ_{j>1} x_j: (coeffs, rhs, strict)
    with a.x >= b becoming Σ_{j>1} (a_j - a_1)·x_j >= b - a_1·c."""
    n = system.n
    rows = [([(S >> i) & 1 for i in range(n)], b, False) for S, b in system.rows]
    rows += [(coeffs, rhs, True) for coeffs, rhs in strict_ineqs]
    out = []
    for coeffs, rhs, strict in rows:
        a1 = Fraction(coeffs[0])
        out.append((tuple(Fraction(a) - a1 for a in coeffs[1:]),
                    Fraction(rhs) - a1 * Fraction(system.grand), strict))
    return out


def system_feasible(system: LinearSystem, strict_ineqs=()) -> bool:
    """Exact feasibility of the system together with strict inequalities
    a.x > b, given as (a, b) over all n coordinates."""
    return _fm_feasible(_substituted_rows(system, strict_ineqs), system.n - 1)


def family_unbounded_reference(system: LinearSystem) -> bool:
    """Does the recession cone of the system's polyhedron hold a nonzero
    direction?  Probes y_i >= 1 and y_i <= -1 for each of x_2..x_n after
    the substitution, each by Fourier-Motzkin over the homogeneous rows."""
    d = system.n - 1
    cone = [(c, Fraction(0), False) for c, _, _ in _substituted_rows(system)]
    for i in range(d):
        unit = tuple(Fraction(int(j == i)) for j in range(d))
        for direction in (unit, tuple(-u for u in unit)):
            if _fm_feasible(cone + [(direction, Fraction(1), False)], d):
                return True
    return False


# ---------------------------------------------------------------------------
# linear systems and the vertex loop in Fractions


def solve_reference(matrix, b):
    """A x = b by Gauss-Jordan elimination in Fractions, every pivot row
    scaled to 1: (UNIQUE, x), (NO_SOLUTION, None) when the b column holds a
    pivot, or (NON_UNIQUE, None) when some column of A holds none.  A must
    have at least one row."""
    n_cols = len(matrix[0])
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(matrix, b)]
    pivots = []
    for c in range(n_cols + 1):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if n_cols in pivots:
        return linalg.NO_SOLUTION, None
    if len(pivots) < n_cols:
        return linalg.NON_UNIQUE, None
    return linalg.UNIQUE, tuple(row[n_cols] for row in rows[:n_cols])


def vertices_reference(system: LinearSystem):
    """The vertex loop in Fractions: every (n-1)-subset of rows, with the
    efficiency row, solved by `solve_reference`, keeping the points that
    satisfy every row; deduplicated and sorted."""
    n = system.n
    points = set()
    for tight in combinations(system.rows, n - 1):
        matrix = [[1] * n] + [[(S >> i) & 1 for i in range(n)] for S, _ in tight]
        rhs = [system.grand] + [b for _, b in tight]
        status, x = solve_reference(matrix, rhs)
        if status == linalg.UNIQUE and all(
            sum(xi for i, xi in enumerate(x) if S >> i & 1) >= b
            for S, b in system.rows
        ):
            points.add(x)
    return sorted(points)


def core_describing_reference(family, game: Game) -> bool:
    """The library's earlier core-describing test for a bounded family
    polytope: list its vertices with `enumerate_vertices` and compare each
    missing coalition's least x(T) over them with v(T).  No vertex means
    an empty polytope, which answers False."""
    n = game.n
    vertices = enumerate_vertices(LinearSystem.family_polytope(game, sorted(family)))
    if not vertices:
        return False
    for T in range(1, full_mask(n)):
        if T in family:
            continue
        lowest = min(sum(x for i, x in enumerate(v) if T >> i & 1) for v in vertices)
        if lowest < game.value(T):
            return False
    return True


def core_describing_definition(family, game: Game) -> bool:
    """The definition, by Fourier-Motzkin: the family polytope is nonempty
    and no missing coalition T has a point of it with x(T) < v(T)."""
    n = game.n
    system = LinearSystem.family_polytope(game, sorted(family))
    if not system_feasible(system):
        return False
    return not any(
        system_feasible(system, [([-(T >> i & 1) for i in range(n)], -game.value(T))])
        for T in range(1, full_mask(n)) if T not in family)


# ---------------------------------------------------------------------------
# regions, extendability and the nested condition


def region_nonempty(collection, family, game: Game) -> bool:
    """Is there a preimputation strictly violating exactly the collection's
    constraints within the family?"""
    n = game.n
    s_set = set(collection)
    system = LinearSystem.family_polytope(
        game, [T for T in family if T not in s_set])
    strict = [([-((T >> i) & 1) for i in range(n)], -game.value(T))
              for T in family if T in s_set]
    return system_feasible(system, strict)


def feasible_reference(oracle, masks) -> bool:
    """`FeasibilityOracle.feasible` as the library had it before the
    subset-set pass: build the collection's family-bit mask, then walk the
    oracle's entries until one defeats it."""
    smask = 0
    for S in masks:
        if S not in oracle.findex:
            raise ValueError("collection must be drawn from the family")
        smask |= 1 << oracle.findex[S]
    for need, pure, duals, base, level, terms in oracle.entries:
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


def feasible_collections_reference(oracle):
    """Every nonempty subcollection of the oracle's family, by size and then
    in `combinations` order, walked one at a time through
    `feasible_reference`."""
    for size in range(1, len(oracle.family) + 1):
        for combo in combinations(oracle.family, size):
            if feasible_reference(oracle, combo):
                yield combo


def extendable_direct(S: int, game: Game) -> bool:
    """Every vertex of the subgame core extends to a full core element,
    checked by exact feasibility of the pinned core system, written over
    the players of S^c: x(S^c) = v(N) - x(S) and x(T minus S) >= v(T) -
    x(T and S) for every proper coalition T not inside S.  The subgame core
    is built here in the coordinates of S's players taken in ascending
    order, each player relabelled by its place in `members(S)`."""
    n = game.n
    if S == full_mask(n):
        return True
    inside, outside = members(S), members(complement(S, n))

    def relabel(T, players):
        return sum(1 << i for i, p in enumerate(players) if T >> (p - 1) & 1)

    subgame_core = LinearSystem(
        len(inside), game.value(S),
        tuple((relabel(T, inside), game.value(T))
              for T in range(1, S) if T & ~S == 0))
    for vertex in enumerate_vertices(subgame_core):
        def x_of(T):
            return sum(x for p, x in zip(inside, vertex) if T >> (p - 1) & 1)

        # a T inside S pins nothing outside: 0 >= v(T) - x(T) holds at
        # every subgame-core vertex
        pinned = LinearSystem(
            len(outside), game.grand_value() - x_of(S),
            tuple((relabel(T, outside), game.value(T) - x_of(T))
                  for T in range(1, full_mask(n)) if T & ~S))
        if not system_feasible(pinned):
            return False
    return True


def omega_reference(game: Game, family, collection, system):
    """Omega of one admissible system, from the definitions in Fractions:
    {vector: largest a-value} and the set B0.  `system` maps each member S
    of the collection to its admissible database row.  The vectors are the
    complement of each S (a = v(N) - v(S)), each family member T outside
    the collection (a = v(T)) and each pattern z^S, the weights of S's
    singletons (a = v(N) minus the other members' weighted values under
    v^S, which is v(N) - v(S) on S^c and v elsewhere).  A complement vector
    is in B0 when its a-value is v(N) - v(S) for a member S it comes from."""
    n = game.n
    grand = game.grand_value()
    a_values: dict = {}
    b0_values: dict = {}

    def char(mask):
        return tuple(Fraction((mask >> i) & 1) for i in range(n))

    def add(vec, a):
        a_values[vec] = max(a, a_values.get(vec, a))

    for S in collection:
        vec, a = char(complement(S, n)), grand - game.value(S)
        add(vec, a)
        b0_values.setdefault(vec, []).append(a)
    for T in family:
        if T not in collection:
            add(char(T), game.value(T))
    for S in collection:
        comp = complement(S, n)
        z = [Fraction(0)] * n
        c = grand
        wc = WeightedCollection.from_row(*system[S])
        for mask, w in zip(wc.coalitions, wc.weights):
            if mask.bit_count() == 1 and mask & S:
                z[mask.bit_length() - 1] = w
            else:
                c -= w * (grand - game.value(S) if mask == comp else game.value(mask))
        add(tuple(z), c)
    b0 = {vec for vec, values in b0_values.items() if a_values[vec] in values}
    return a_values, b0


def brute_nested_system_satisfied(game: Game, family, collection, system) -> bool:
    """The stability theorem's condition for one admissible system, computed
    from the definitions with exhaustive subset enumeration."""
    n = game.n
    grand = game.grand_value()
    a_table, b0 = omega_reference(game, family, collection, system)
    vectors = sorted(a_table)
    for r in range(1, n + 1):
        for Z in combinations(vectors, r):
            cols = [[vec[i] for vec in Z] for i in range(n)]
            status, weights = solve_reference(cols, [Fraction(1)] * n)
            if status != linalg.UNIQUE or any(w <= 0 for w in weights):
                continue
            psi = sum(
                (w * a_table[vec] for w, vec in zip(weights, Z)), Fraction(0)
            )
            in_b0 = any(vec in b0 for vec in Z)
            if (in_b0 and psi >= grand) or (not in_b0 and psi > grand):
                return True
    return False


def minimal_balanced_sets_reference(vectors, n: int):
    """Minimal balanced subsets by the same depth-first search as the
    library, with Fraction residuals and a `solve_reference` call per leaf."""
    vectors = [tuple(Fraction(x) for x in vec) for vec in vectors]
    for vec in vectors:
        if len(vec) != n:
            raise ValueError("vector dimension mismatch")
        if all(x == 0 for x in vec):
            raise ValueError("zero vector in a balanced-set universe")
        if any(x < 0 for x in vec):
            raise ValueError("balanced-set vectors must be nonnegative")
    m = len(vectors)
    results = []
    ones = [Fraction(1)] * n

    def reduce(vec, basis):
        v = list(vec)
        for piv, row in basis:
            x = v[piv]
            if x:
                f = x / row[piv]
                for j in range(n):
                    if row[j]:
                        v[j] -= f * row[j]
        return v

    def dfs(start, chosen, basis, target):
        if all(x == 0 for x in target):
            cols = [[vectors[j][i] for j in chosen] for i in range(n)]
            status, weights = solve_reference(cols, ones)
            if status == linalg.UNIQUE and all(w > 0 for w in weights):
                results.append((tuple(chosen), weights))
            return
        if len(chosen) == n:
            return
        for j in range(start, m):
            residual = reduce(vectors[j], basis)
            piv = next((i for i, x in enumerate(residual) if x), None)
            if piv is None:
                continue
            x = target[piv]
            if x:
                f = x / residual[piv]
                new_target = [
                    t - f * r if r else t for t, r in zip(target, residual)
                ]
            else:
                new_target = target
            chosen.append(j)
            basis.append((piv, residual))
            dfs(j + 1, chosen, basis, new_target)
            basis.pop()
            chosen.pop()

    dfs(0, [], [], list(ones))
    return results


def nested_clause_reference(vectors, a_values, b0, grand) -> bool:
    """The nested clause by enumeration: some minimal balanced subset of the
    vectors has ψ = Σ w·a above v(N), or ψ >= v(N) and an index in B0."""
    n = len(vectors[0])
    for indices, weights in minimal_balanced_sets(vectors, n):
        psi = sum((w * a_values[i] for i, w in zip(indices, weights)),
                  Fraction(0))
        if psi > grand or (psi == grand and any(b0[i] for i in indices)):
            return True
    return False


def nested_system_reference(collection, family, game: Game, system) -> bool:
    """One admissible system decided in Fractions: Omega, its a-values and
    B0 from `omega_reference`, then the enumeration of `minimal_balanced_sets`."""
    a_table, b0 = omega_reference(game, family, collection, system)
    vectors = sorted(a_table)
    return nested_clause_reference(
        vectors, [a_table[vec] for vec in vectors],
        [vec in b0 for vec in vectors], game.grand_value())


# ---------------------------------------------------------------------------
# minimal balanced collections without the generator


def is_minimal_balanced(wc: WeightedCollection, n: int) -> bool:
    status, weights = check_minimal_balanced_reference(wc.coalitions, n)
    return status == MINIMAL and weights == wc.weights


def brute_force_mbcs(n: int) -> list[WeightedCollection]:
    """Test every subcollection of 2^N of size <= n.

    Exponential in 2^n; intended for n <= 4 cross-checks.
    """
    all_masks = list(range(1, full_mask(n) + 1))
    found = []
    for size in range(1, n + 1):
        for combo in combinations(all_masks, size):
            status, weights = check_minimal_balanced_reference(combo, n)
            if status == MINIMAL:
                found.append(WeightedCollection(combo, weights))
    found.sort(key=lambda wc: wc.coalitions)
    return found


def weight_polytope_vertices(masks, n: int):
    """Vertices of {w >= 0 : sum_S w_S 1^S = 1^N} over the given coalitions.

    Returns (support, weights) pairs; each support is a minimal balanced
    collection contained in `masks` and the weights are its unique balancing
    system.  Basic solutions with non-positive entries are not vertices and
    are skipped; duplicate supports cannot occur.
    """
    masks = tuple(sorted(masks))
    ones = [1] * n
    out = []
    for size in range(1, min(n, len(masks)) + 1):
        for combo in combinations(masks, size):
            matrix = [
                [(m >> i) & 1 for m in combo] for i in range(n)
            ]
            status, solution = solve_reference(matrix, ones)
            if status == linalg.UNIQUE and all(x > 0 for x in solution):
                out.append((combo, tuple(solution)))
    out.sort()
    return out


def mbc_via_vertices(n: int, cap: int = 4) -> list[WeightedCollection]:
    """Minimal balanced collections as supports of the vertices of the full
    weight polytope over all 2^n - 1 coalitions.  Oracle scale: n <= cap."""
    if n > cap:
        raise ValueError(f"vertex-oracle generation capped at n={cap}")
    all_masks = range(1, full_mask(n) + 1)
    return [
        WeightedCollection(support, weights)
        for support, weights in weight_polytope_vertices(all_masks, n)
    ]


def check_minimal_balanced_reference(masks, n: int):
    """The earlier classification of a valid collection: one `solve_reference`
    on the whole collection, and only when its solutions form an affine
    family, the vertices of its weight polytope, which must jointly cover
    every member."""
    masks = tuple(sorted(masks))
    matrix = [[(m >> i) & 1 for m in masks] for i in range(n)]
    status, solution = solve_reference(matrix, [1] * n)
    if status == linalg.UNIQUE:
        if all(x > 0 for x in solution):
            return MINIMAL, tuple(solution)
        return NOT_BALANCED, None
    if status == linalg.NO_SOLUTION:
        return NOT_BALANCED, None
    covered = set()
    for support, _ in weight_polytope_vertices(masks, n):
        covered.update(support)
    if covered == set(masks):
        return BALANCED_NOT_MINIMAL, None
    return NOT_BALANCED, None


def balanced_union_reference(masks, db: MbcDatabase) -> bool:
    """A collection is balanced iff it equals the union of the minimal
    balanced collections of the database that it contains."""
    target = frozenset(masks)
    covered: set[int] = set()
    for row_masks, _, _ in db.rows:
        if target.issuperset(row_masks):
            covered.update(row_masks)
    return covered == target


def admissible_systems(collection, family, db: MbcDatabase, pool=None):
    """Lazily yields every admissible system: one admissible collection per
    member, in lexicographic product order over the per-member lists."""
    n = db.n
    if pool is None:
        pool = association_pool(db, family, n)
    lists = [
        admissible_collections(S, collection, n, family, pool) for S in collection
    ]
    for combo in product(*lists):
        yield dict(zip(collection, combo))


# ---------------------------------------------------------------------------
# the generator's earlier case-4 steps


def merged_pair_reference(a, b, n_old: int):
    """`generate._merged_pair` with a rank test on every pair: the sorted
    union of two parents in `_pair_form` and both weight systems over the
    common denominator L, or None when the union's rank is not one below
    its size."""
    (_, weights_a, den_a), (_, weights_b, den_b) = a, b
    union = sorted(set(weights_a) | set(weights_b))
    if linalg.rank(linalg.RatMatrix.from_collection(union, n_old)) != len(union) - 1:
        return None
    L = lcm(den_a, den_b)
    mu = [weights_a.get(m, 0) * (L // den_a) for m in union]
    nu = [weights_b.get(m, 0) * (L // den_b) for m in union]
    return union, mu, nu, L


def children_4_reference(masks, mu, nu, L, p_bit):
    """The case-4 children of one merged pair as canonical rows, in subset
    order: with a = L - mu(I) and b = nu(I) - mu(I), the subset I gives a
    child when 0 < a < b or b < a < 0, with weights b*mu + a*(nu - mu)
    over L*b, signs flipped when b < 0."""
    children = []
    for I in range(1, 1 << len(masks)):
        picked = [i for i in range(len(masks)) if (I >> i) & 1]
        a = L - sum(mu[i] for i in picked)
        b = sum(nu[i] for i in picked) - sum(mu[i] for i in picked)
        if not (0 < a < b or b < a < 0):
            continue
        entries = [((m | p_bit) if i in picked else m, b * mu[i] + a * (nu[i] - mu[i]))
                   for i, m in enumerate(masks)]
        den = L * b
        if den < 0:
            den = -den
            entries = [(m, -x) for m, x in entries]
        entries.sort()
        child_masks, nums = zip(*entries)
        g = gcd(den, *nums)
        children.append((child_masks, tuple(x // g for x in nums), den // g))
    return children


# ---------------------------------------------------------------------------
# the earlier per-row override scan


def row_slacks(game: Game, db: MbcDatabase):
    """v(N) - Σ λ_T v(T) for every row of the database, in Fractions."""
    grand = game.grand_value()
    return [grand - sum(x * game.value(m) for m, x in zip(masks, nums)) / den
            for masks, nums, den in db.rows]


def override_tight_rows(game: Game, db: MbcDatabase, S: int, slacks):
    """Indices of the rows tight for the derived game v^S (the complement
    of S set to v(N) - v(S); v^N is v itself), ascending, or None when v^S
    is unbalanced.  `slacks` are the `row_slacks` of v; every row holding
    the complement is re-summed."""
    comp = complement(S, game.n)
    rise = game.grand_value() - game.value(S) - game.value(comp)
    tight = []
    for i, (masks, nums, den) in enumerate(db.rows):
        slack = slacks[i]
        if comp in masks:
            slack -= Fraction(nums[masks.index(comp)], den) * rise
        if slack < 0:
            return None
        if not slack:
            tight.append(i)
    return tight


def exact_reference(game: Game, db: MbcDatabase):
    """The coalitions S whose derived game v^S is balanced, ascending."""
    slacks = row_slacks(game, db)
    return tuple(S for S in range(1, full_mask(game.n) + 1)
                 if override_tight_rows(game, db, S, slacks) is not None)


def sve_reference(game: Game, db: MbcDatabase):
    """The proper coalitions S with v^S balanced and no tight row of v^S
    holding a proper subset of S, ascending."""
    slacks = row_slacks(game, db)
    out = []
    for S in range(1, full_mask(game.n)):
        tight = override_tight_rows(game, db, S, slacks)
        if tight is not None and not any(
                T != S and T & ~S == 0 for i in tight for T in db.rows[i][0]):
            out.append(S)
    return tuple(out)


def effective_reference(game: Game, db: MbcDatabase):
    """The union of the rows tight for v, or None when v is unbalanced."""
    tight = override_tight_rows(game, db, full_mask(game.n), row_slacks(game, db))
    if tight is None:
        return None
    return frozenset(T for i in tight for T in db.rows[i][0])


# ---------------------------------------------------------------------------
# MBCDB files, one line at a time

_HEADER = re.compile(r"MBCDB 1 n=([0-9]+) count=([0-9]+)( restricted)?")
_ITEM = re.compile(r"([0-9a-fA-F]+):([0-9]+)/([0-9]+)")
# the minimal balanced collections on n = 1..6 players (acceptance criterion 1)
_COUNTS = {1: 1, 2: 2, 3: 6, 4: 42, 5: 1292, 6: 200214}


def _reference_row(line: str, n: int):
    """The canonical row of one MBCDB line, or ValueError for its first
    fault: syntax, zero denominator, increasing masks, mask range, positive
    weights, player sums, more than n coalitions (n + 1 vectors in R^n are
    dependent, so such a row is never minimal)."""
    items = [_ITEM.fullmatch(field) for field in line.split()]
    if not all(items):
        raise ValueError("malformed MBCDB line")
    masks = [int(item[1], 16) for item in items]
    if any(int(item[3]) == 0 for item in items):
        raise ValueError("zero denominator")
    weights = [Fraction(int(item[2]), int(item[3])) for item in items]
    if any(a >= b for a, b in zip(masks, masks[1:])):
        raise ValueError("coalitions are not strictly increasing")
    if not all(0 < m < 1 << n for m in masks):
        raise ValueError(f"coalition out of range for n={n}")
    if min(weights) <= 0:
        raise ValueError("weights must be positive")
    for p in range(n):
        if sum(w for m, w in zip(masks, weights) if m >> p & 1) != 1:
            raise ValueError("player weight sums are not all 1")
    if len(masks) > n:
        raise ValueError(f"more than n={n} coalitions")
    den = lcm(*(w.denominator for w in weights))
    return bytes(masks), tuple(int(w * den) for w in weights), den


def load_line_by_line(path):
    """(n, rows sorted, restricted) of the MBCDB file at `path`, whose
    header must be well formed, or ValueError with the message
    `MbcDatabase.load` gives: the first faulty line, then a count other
    than the header's, then a collection listed twice, then an
    unrestricted count other than the known one for n <= 6."""
    with open(path) as fh:
        header = _HEADER.fullmatch(fh.readline().rstrip("\n"))
        n, count, restricted = int(header[1]), int(header[2]), bool(header[3])
        rows = []
        for lineno, line in enumerate(fh, 2):
            if line.isspace():
                continue
            try:
                rows.append(_reference_row(line, n))
            except ValueError as exc:
                raise ValueError(f"MBCDB line {lineno} {line.strip()!r}: {exc}") from None
    if len(rows) != count:
        raise ValueError(f"MBCDB count mismatch: header says {count}, file has {len(rows)}")
    rows.sort()
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            masks, nums, den = b
            line = " ".join(f"{m:x}:{Fraction(x, den).numerator}/{Fraction(x, den).denominator}"
                            for m, x in zip(masks, nums))
            raise ValueError(f"MBCDB lists a collection twice: {line!r}")
    if not restricted and _COUNTS.get(n, count) != count:
        raise ValueError(f"MBCDB holds {count} collections, but there are "
                         f"{_COUNTS[n]} minimal balanced collections on {n} players")
    return n, tuple(rows), restricted
