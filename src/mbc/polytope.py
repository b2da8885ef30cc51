"""Brute-force exact vertex enumeration for small polyhedra.

This is the independent oracle side of the library: cores, subgame cores and
weight polytopes are small enough that enumerating candidate tight subsets
and solving exactly beats any clever pivoting, and it produces certificates
that can be re-substituted into every constraint.  Feasibility questions
(including strict inequalities, needed for region nonemptiness) go through a
small Fourier-Motzkin eliminator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .model import full_mask, members

DEFAULT_DIM_CAP = 8
_FM_ROW_LIMIT = 200_000


class DimensionCapError(ValueError):
    """The number of free variables exceeds the configured cap."""


class UnboundedPolytopeError(ValueError):
    """An operation that needs a bounded polytope met an unbounded one."""


VALUE = "value"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


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


def _dedup_sorted(points):
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    out.sort()
    return out


def enumerate_vertices(system: LinearSystem, dim_cap: int = DEFAULT_DIM_CAP):
    """All vertices, exactly.  Every returned point satisfies each constraint
    and makes some maximal independent subset of them tight; the list is
    deduplicated and sorted.  Empty output means no vertex (for a bounded
    polytope: empty polytope)."""
    hull = system.affine_hull()
    if hull is None:
        return []
    x0, basis = hull
    d = len(basis)
    if d > dim_cap:
        raise DimensionCapError(f"{d} free variables exceed the cap {dim_cap}")
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
        if len(work) > _FM_ROW_LIMIT:
            raise DimensionCapError("Fourier-Motzkin row blow-up")
    return True


def system_feasible(system: LinearSystem, strict_ineqs=()) -> bool:
    """Exact feasibility of eqs + ineqs + strict inequalities a.x > b."""
    hull = system.affine_hull()
    if hull is None:
        return False
    x0, basis = hull
    rows = []
    for coeffs, rhs in system.ineqs:
        shifted = rhs - sum(c * x for c, x in zip(coeffs, x0))
        projected = tuple(sum(c * w for c, w in zip(coeffs, vec)) for vec in basis)
        rows.append((projected, shifted, False))
    for coeffs, rhs in strict_ineqs:
        coeffs = tuple(Fraction(c) for c in coeffs)
        rhs = Fraction(rhs)
        shifted = rhs - sum(c * x for c, x in zip(coeffs, x0))
        projected = tuple(sum(c * w for c, w in zip(coeffs, vec)) for vec in basis)
        rows.append((projected, shifted, True))
    return _fm_feasible(rows, len(basis))


def min_over(system: LinearSystem, objective, dim_cap: int = DEFAULT_DIM_CAP):
    """Exact minimum of objective.x over the system.

    Returns (VALUE, minimum), (UNBOUNDED, None) or (INFEASIBLE, None).
    Recession directions are detected exactly from the constraint matrix.
    """
    objective = tuple(Fraction(c) for c in objective)
    hull = system.affine_hull()
    if hull is None:
        return INFEASIBLE, None
    x0, basis = hull
    if len(basis) > dim_cap:
        raise DimensionCapError(f"{len(basis)} free variables exceed the cap {dim_cap}")
    reduced = _reduce_ineqs(system.ineqs, x0, basis)
    if reduced is None:
        return INFEASIBLE, None
    base_value = sum(c * x for c, x in zip(objective, x0))
    proj_obj = tuple(
        sum(c * w for c, w in zip(objective, vec)) for vec in basis
    )
    return _min_reduced(reduced, proj_obj, base_value, len(basis))


def _min_reduced(reduced, objective, base_value, d):
    if d == 0:
        return VALUE, base_value
    if not _fm_feasible([(c, r, False) for c, r in reduced], d):
        return INFEASIBLE, None
    if any(objective):
        cone = [(c, Fraction(0), False) for c, _ in reduced]
        cone.append((tuple(-c for c in objective), Fraction(1), False))
        if _fm_feasible(cone, d):
            return UNBOUNDED, None
    else:
        return VALUE, base_value

    points = _tight_points(reduced, d)
    if points:
        best = min(sum(c * yj for c, yj in zip(objective, y)) for y in points)
        return VALUE, base_value + best
    # no vertex: quotient out the lineality space and retry in lower dimension
    normals = [c for c, _ in reduced]
    lineality = linalg.null_space(normals)
    if not lineality:
        return INFEASIBLE, None  # pointed and feasible would have a vertex
    rows = linalg._int_rows(normals)
    rows, pivots = linalg._echelon(rows)
    span_basis = [tuple(Fraction(x) for x in rows[r]) for r in range(len(pivots))]
    new_reduced = [
        (tuple(sum(c * w for c, w in zip(coeffs, vec)) for vec in span_basis), rhs)
        for coeffs, rhs in reduced
    ]
    new_obj = tuple(
        sum(c * w for c, w in zip(objective, vec)) for vec in span_basis
    )
    return _min_reduced(new_reduced, new_obj, base_value, len(span_basis))


# ---------------------------------------------------------------------------
# weight polytopes: vertices correspond to minimal balanced (sub)collections


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
