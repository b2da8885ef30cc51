"""Exact vertex enumeration for small polyhedra.

`enumerate_vertices` lists the vertices of a `LinearSystem` by solving every
candidate set of tight inequalities exactly.  The library calls it on
subgame cores (`props.is_extendable`) and on family polytopes
(`props.is_core_describing`); both are small enough that the enumeration
beats any clever pivoting, and every vertex it returns can be re-substituted
into each constraint.  Whether a family polytope is bounded is decided by
balancedness in `props`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .model import full_mask, members

DIM_CAP = 8


class DimensionCapError(ValueError):
    """The number of free variables exceeds `DIM_CAP`."""


class UnboundedPolytopeError(ValueError):
    """An operation that needs a bounded polytope met an unbounded one."""


@dataclass
class LinearSystem:
    """Equalities a.x = b and inequalities a.x >= b over n_vars variables."""

    n_vars: int
    eqs: list[tuple[tuple[Fraction, ...], Fraction]] = field(default_factory=list)
    ineqs: list[tuple[tuple[Fraction, ...], Fraction]] = field(default_factory=list)

    def add_eq(self, coeffs, rhs):
        self.eqs.append((tuple(Fraction(c) for c in coeffs), Fraction(rhs)))

    def add_ineq(self, coeffs, rhs):
        self.ineqs.append((tuple(Fraction(c) for c in coeffs), Fraction(rhs)))

    def affine_hull(self):
        """The solutions of the equalities as x0 + span(basis), or None when
        they are inconsistent (see `linalg.solve_affine`)."""
        return linalg.solve_affine([a for a, _ in self.eqs],
                                   [b for _, b in self.eqs], self.n_vars)

    @classmethod
    def core(cls, game) -> "LinearSystem":
        """C(N,v): x(S) >= v(S) for every proper nonempty S, x(N) = v(N)."""
        n = game.n
        ls = cls(n)
        ls.add_eq([1] * n, game.grand_value())
        for mask in range(1, full_mask(n)):
            ls.add_ineq([(mask >> i) & 1 for i in range(n)], game.value(mask))
        return ls

    @classmethod
    def subgame_core(cls, game, keep_mask: int) -> "LinearSystem":
        """C(S,v) in the coordinates of S's players taken in ascending order."""
        players = members(keep_mask)
        m = len(players)
        sub = game.subgame(keep_mask)
        ls = cls(m)
        ls.add_eq([1] * m, sub.grand_value())
        for mask in range(1, full_mask(m)):
            ls.add_ineq([(mask >> i) & 1 for i in range(m)], sub.value(mask))
        return ls

    @classmethod
    def family_polytope(cls, game, family) -> "LinearSystem":
        """{x in X(N,v) : x(S) >= v(S) for S in family}."""
        n = game.n
        ls = cls(n)
        ls.add_eq([1] * n, game.grand_value())
        for mask in family:
            ls.add_ineq([(mask >> i) & 1 for i in range(n)], game.value(mask))
        return ls


def _reduce_ineqs(ineqs, x0, basis):
    """Rewrite a.x >= b in the free coordinates.  Returns None when some
    inequality is violated identically on the affine hull."""
    reduced = []
    for coeffs, rhs in ineqs:
        shifted = rhs - sum(c * x for c, x in zip(coeffs, x0))
        projected = tuple(
            sum(c * w for c, w in zip(coeffs, vec)) for vec in basis
        )
        if all(p == 0 for p in projected):
            if shifted > 0:
                return None
            continue
        reduced.append((projected, shifted))
    return reduced


def enumerate_vertices(system: LinearSystem):
    """All vertices, exactly.  Every returned point satisfies each constraint
    and makes some maximal independent subset of them tight; the list is
    deduplicated and sorted.  Empty output means no vertex (for a bounded
    polytope: empty polytope).  Raises DimensionCapError when the equalities
    leave more than DIM_CAP free coordinates."""
    hull = system.affine_hull()
    if hull is None:
        return []
    x0, basis = hull
    d = len(basis)
    if d > DIM_CAP:
        raise DimensionCapError(f"{d} free variables exceed the cap {DIM_CAP}")
    reduced = _reduce_ineqs(system.ineqs, x0, basis)
    if reduced is None:
        return []

    def lift(y):
        return tuple(
            x0[i] + sum(vec[i] * yj for vec, yj in zip(basis, y))
            for i in range(system.n_vars)
        )

    if d == 0:
        return [lift(())]

    return sorted({lift(y) for y in _tight_points(reduced, d)})


def _tight_points(reduced, d):
    """Every point where d independent reduced inequalities a.y >= b are
    tight and all of them hold, each once, in the order first found.  Each
    inequality is scaled once by a positive factor to integers, which keeps
    >=; the d-by-d solves and the checks are integer."""
    rows = []
    for coeffs, rhs in reduced:
        ints, _ = linalg.primitive((*coeffs, rhs))
        rows.append((ints[:-1], ints[-1]))
    seen = set()
    points = []
    for tight in combinations(rows, d):
        solution = linalg.solve_int([a for a, _ in tight], [b for _, b in tight], d)
        if solution is None:
            continue
        nums, den = solution
        g = gcd(den, *nums)
        key = (den // g, *(x // g for x in nums))
        if key in seen:
            continue
        seen.add(key)
        if all(sum(c * x for c, x in zip(a, nums)) >= b * den for a, b in rows):
            points.append(tuple(Fraction(x, den) for x in nums))
    return points
