"""Independent oracles used to verify the library's fast paths.

These deliberately avoid the code paths they check: feasibility goes through
a strict-inequality Fourier-Motzkin probe on the region itself, extendability
through exact feasibility of the pinned core system, and the nested stability
condition through plain combinations plus a direct solve per subset.
`minimal_balanced_sets_reference` is the library's earlier Fraction search
for minimal balanced sets, kept as the reference for the integer one, and
`nested_system_reference` is the earlier nested-stage decision (list the
minimal balanced subsets of Omega, then test ψ and B0 set by set), kept as
the reference for the linear programs that replace it.  The generator is
checked against `brute_force_mbcs` (every subcollection classified on its
own) and `mbc_via_vertices` (the vertices of the full weight polytope).
Both stay independent of the library's search for minimal balanced sets:
`weight_polytope_vertices` solves every subcollection of at most n
coalitions with `solve_unique`, and `check_minimal_balanced_reference`, the
earlier classification of one collection (`solve_unique`, then those
vertices), classifies each subcollection for `brute_force_mbcs` and
`is_minimal_balanced` and is the reference for `check_minimal_balanced`.
"""

from fractions import Fraction
from itertools import combinations, product

from mbc import Game, WeightedCollection, linalg
from mbc.generate import (
    BALANCED_NOT_MINIMAL,
    MINIMAL,
    NOT_BALANCED,
    MbcDatabase,
)
from mbc.linalg import minimal_balanced_sets
from mbc.model import complement, full_mask, members
from mbc.polytope import LinearSystem, enumerate_vertices, system_feasible
from mbc.props import derived_vS
from mbc.stability import admissible_collections, association_pool, omega_base


def region_nonempty(collection, family, game: Game) -> bool:
    """Is there a preimputation strictly violating exactly the collection's
    constraints within the family?"""
    n = game.n
    system = LinearSystem(n)
    system.add_eq([1] * n, game.grand_value())
    strict = []
    s_set = set(collection)
    for T in family:
        coeffs = [(T >> i) & 1 for i in range(n)]
        if T in s_set:
            strict.append(([-c for c in coeffs], -game.value(T)))
        else:
            system.add_ineq(coeffs, game.value(T))
    return system_feasible(system, strict)


def extendable_direct(S: int, game: Game) -> bool:
    """Every vertex of the subgame core extends to a full core element,
    checked by exact feasibility of the pinned system."""
    if S == full_mask(game.n):
        return True
    vertices = enumerate_vertices(LinearSystem.subgame_core(game, S))
    core = LinearSystem.core(game)
    players = members(S)
    for vertex in vertices:
        pinned = LinearSystem(game.n, list(core.eqs), list(core.ineqs))
        for i, p in enumerate(players):
            coeffs = [Fraction(0)] * game.n
            coeffs[p - 1] = Fraction(1)
            pinned.add_eq(coeffs, vertex[i])
        if not system_feasible(pinned):
            return False
    return True


def brute_nested_system_satisfied(game: Game, family, collection, system) -> bool:
    """The stability theorem's condition for one admissible system, computed
    from the definitions with exhaustive subset enumeration."""
    n = game.n
    grand = game.grand_value()
    provenance: dict = {}

    def add(vec, kind, src):
        provenance.setdefault(vec, []).append((kind, src))

    for S in collection:
        comp = complement(S, n)
        add(tuple(Fraction((comp >> i) & 1) for i in range(n)), "A", S)
    for T in family:
        if T not in collection:
            add(tuple(Fraction((T >> i) & 1) for i in range(n)), "B", T)
    for S in collection:
        z = [Fraction(0)] * n
        for mask, w in system[S].items():
            if mask.bit_count() == 1 and mask & S:
                z[mask.bit_length() - 1] = w
        add(tuple(z), "C", S)

    a_table = {}
    for vec, sources in provenance.items():
        vals = []
        for kind, src in sources:
            if kind == "A":
                vals.append(grand - game.value(src))
            elif kind == "B":
                vals.append(game.value(src))
            else:
                vs = derived_vS(game, src)
                total = Fraction(0)
                for mask, w in system[src].items():
                    if not (mask.bit_count() == 1 and mask & src):
                        total += w * vs.value(mask)
                vals.append(grand - total)
        a_table[vec] = max(vals)

    vectors = sorted(a_table)
    omega_a = {
        vec for vec in vectors if any(k == "A" for k, _ in provenance[vec])
    }
    for r in range(1, n + 1):
        for Z in combinations(vectors, r):
            cols = [[vec[i] for vec in Z] for i in range(n)]
            status, weights = linalg.solve_unique(cols, [Fraction(1)] * n)
            if status != linalg.UNIQUE or any(w <= 0 for w in weights):
                continue
            psi = sum(
                (w * a_table[vec] for w, vec in zip(weights, Z)), Fraction(0)
            )
            in_b0 = any(
                vec in omega_a
                and any(
                    k == "A" and a_table[vec] == grand - game.value(src)
                    for k, src in provenance[vec]
                )
                for vec in Z
            )
            if (in_b0 and psi >= grand) or (not in_b0 and psi > grand):
                return True
    return False


def minimal_balanced_sets_reference(vectors, n: int):
    """Minimal balanced subsets by the same depth-first search as the
    library, with Fraction residuals and a `solve_unique` call per leaf."""
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
            status, weights = linalg.solve_unique(cols, ones)
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


def tight_points_reference(reduced, d):
    """The vertex loop over reduced inequalities a.y >= b in Fractions: one
    `solve_unique` per d-subset, then every inequality checked."""
    points = []
    for tight in combinations(range(len(reduced)), d):
        rows = [reduced[i][0] for i in tight]
        rhs = [reduced[i][1] for i in tight]
        status, y = linalg.solve_unique(rows, rhs)
        if status != linalg.UNIQUE:
            continue
        if all(
            sum(c * yj for c, yj in zip(coeffs, y)) >= b for coeffs, b in reduced
        ):
            points.append(y)
    return points


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


def nested_system_reference(collection, family, game: Game, patterns) -> bool:
    """One admissible system, given by its (z^S, c) patterns, decided in
    Fractions: Omega merged as a dict of vectors keeping each one's largest
    a-value, B0 by its definition (a complement vector whose a-value is
    v(N) - v(S) for a member S it comes from), then the enumeration."""
    grand = game.grand_value()
    a_table, sources = omega_base(collection, family, game)
    for z, c in patterns:
        if z not in a_table or c > a_table[z]:
            a_table[z] = c
    vectors = sorted(a_table)
    b0 = [any(a_table[vec] == grand - game.value(S)
              for S in sources.get(vec, ())) for vec in vectors]
    return nested_clause_reference(
        vectors, [a_table[vec] for vec in vectors], b0, grand)


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
            status, solution = linalg.solve_unique(matrix, ones)
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
    """The earlier classification of a valid collection: one `solve_unique`
    on the whole collection, and only when its solutions form an affine
    family, the vertices of its weight polytope, which must jointly cover
    every member."""
    masks = tuple(sorted(masks))
    matrix = linalg.RatMatrix.from_collection(masks, n)
    status, solution = linalg.solve_unique(matrix, [1] * n)
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
