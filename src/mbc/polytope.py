"""Exact vertex enumeration for the one polytope form of the library.

Every polytope here is {x in Q^n : x(N) = c, x(S) >= b_S for each (S, b_S)
in a row list}: a core, a subgame core or a family polytope.
`enumerate_vertices` lists its vertices by solving every candidate set of
tight rows in integers, and every vertex it returns satisfies each row.
Its one library caller is `props.is_extendable`, on subgame cores at the
game's integer scale, which are small enough that the enumeration beats
any clever pivoting.  Family polytopes, bounded or not, are decided by
balanced collections in `props`, with no vertex list: `is_core_describing`
runs `linalg.vertex_clause` programs.  A system has at most
`model.MAX_PLAYERS` players, as a game does.  The loop makes C(rows, n - 1)
solves, so that limit does not keep it short: the core of an 8-player game
has C(254, 7) ≈ 1.2e13 row subsets to solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .model import MAX_PLAYERS, check_coalition, full_mask, scaled


@dataclass(frozen=True)
class LinearSystem:
    """{x in Q^n : x(N) = grand, x(S) >= b for each (S, b) in rows}, with
    n in 1..MAX_PLAYERS and S a coalition mask in 1..2^n - 1 (ValueError
    otherwise)."""

    n: int
    grand: Fraction
    rows: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"n must be in 1..{MAX_PLAYERS}, not {self.n}")
        for mask, _ in self.rows:
            check_coalition(mask, self.n)

    @classmethod
    def core(cls, game) -> "LinearSystem":
        """C(N,v): x(S) >= v(S) for every proper nonempty S, x(N) = v(N)."""
        return cls.family_polytope(game, range(1, full_mask(game.n)))

    @classmethod
    def family_polytope(cls, game, family) -> "LinearSystem":
        """{x in X(N,v) : x(S) >= v(S) for S in family}."""
        return cls(game.n, game.grand_value(),
                   tuple((mask, game.value(mask)) for mask in family))


def enumerate_vertices(system: LinearSystem):
    """All vertices, exactly, deduplicated and sorted.  Every returned point
    satisfies each row and makes n - 1 rows with independent coefficients
    tight.  Empty output means no vertex (for a bounded polytope: empty
    polytope).

    The right-hand sides are scaled once to integers by their common
    denominator D, and x_1 = G - Σ_{j>1} x_j is substituted (G = D·c), so
    row S reads Σ_{j>1} (s_j - s_1)·x_j >= D·b_S - s_1·G with integer
    coefficients; the solves and the checks are integer."""
    n, d = system.n, system.n - 1
    (G, *bounds), scale = scaled([system.grand, *(b for _, b in system.rows)])
    rows = []
    for (mask, _), b in zip(system.rows, bounds):
        s1 = mask & 1
        coeffs = [(mask >> j & 1) - s1 for j in range(1, n)]
        rhs = b - s1 * G
        if any(coeffs):
            rows.append((coeffs, rhs))
        elif rhs > 0:
            return []
    if d == 0:
        return [(Fraction(system.grand),)]
    seen = set()
    vertices = []
    for tight in combinations(rows, d):
        status, solution = linalg.solve_int([[*a, b] for a, b in tight], d)
        if status != linalg.UNIQUE:
            continue
        nums, den = solution
        g = gcd(den, *nums)
        key = (den // g, *(x // g for x in nums))
        if key in seen:
            continue
        seen.add(key)
        if all(sum(c * x for c, x in zip(a, nums)) >= b * den for a, b in rows):
            vertices.append(tuple(Fraction(x, den * scale)
                                  for x in (G * den - sum(nums), *nums)))
    return sorted(vertices)
