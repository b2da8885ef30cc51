"""Exact dense linear algebra over the rationals.

Everything here is small (a handful of rows and columns) but must be exact:
rank decisions and unique-solution tests feed equality-sensitive
combinatorics, so no floating point appears anywhere.  No kernel or affine
hull is built: a solve returns the one solution or none.  Rows are integer
rows with their denominators cleared, and every combination of two rows is
one step, `_eliminate`: it clears one column fraction-free and divides the
result by its gcd, so each row stays a nonzero multiple of its rational
counterpart at its own scale, with no common denominator.

`_echelon` runs that step for every rank and unique solve: `rank` counts
its pivots, and `solve_int` decides an integer system [A | b] three ways
from one echelon form and back-substitutes the unique solution with the
same step; `solve_unique` is its Fraction wrapper.  The depth-first search
reduces each candidate vector against the chosen ones with it, and the
simplex pivots with it.

Two decisions over the weight polytope P = {w >= 0 : Σ_j w_j·v_j = 1} of
finitely many nonnegative vectors v_j live here.  `vertex_clause` decides
a linear program over P by a fraction-free simplex.
`minimal_balanced_sets` lists the vertex supports of P, the minimal
balanced subsets, by a depth-first search over linearly independent
subsets in integers; on characteristic vectors these are the minimal
balanced collections.  The whole set is one of them exactly when the
system Σ_j w_j·v_j = 1 has a unique, strictly positive solution, which
`is_minimal_balanced_set` and `generate.check_minimal_balanced` decide
with one solve; the latter classifies dependent characteristic vectors
with one `vertex_clause` program per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .model import scaled

UNIQUE = "unique"
NO_SOLUTION = "no_solution"
NON_UNIQUE = "non_unique"


@dataclass(frozen=True)
class RatMatrix:
    """Row-major exact matrix; entries are Fractions (ints accepted on input)."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def from_columns(cls, columns) -> "RatMatrix":
        cols = [tuple(Fraction(x) for x in col) for col in columns]
        return cls(tuple(zip(*cols)))

    @classmethod
    def from_collection(cls, masks, n: int) -> "RatMatrix":
        """The n-by-k 0/1 matrix whose columns are the characteristic vectors
        of the given coalitions, in collection order."""
        return cls.from_columns(
            [[1 if mask >> i & 1 else 0 for i in range(n)] for mask in masks]
        )


def _as_rows(matrix) -> list[list[Fraction]]:
    rows = matrix.rows if isinstance(matrix, RatMatrix) else matrix
    return [[Fraction(x) for x in row] for row in rows]


def _int_rows(matrix) -> list[list[int]]:
    """Clear denominators row by row (rank and solutions are unaffected)."""
    return [scaled(row)[0] for row in _as_rows(matrix)]


def primitive(values) -> tuple[list[int], Fraction]:
    """(r, s): the rationals `values` times the positive scale s, where r is
    an integer vector with gcd 1 (all zeros, with s = 1, for a zero vector).
    A positive scale keeps every sign, so it keeps inequalities a.x >= b."""
    ints, den = scaled(values)
    g = gcd(*ints) or 1
    return [x // g for x in ints], Fraction(den, g)


def _eliminate(row: list[int], prow: list[int], s: int) -> list[int]:
    """p·row − row[s]·prow over its gcd, where p = prow[s] ≠ 0: row with
    column s cleared.  The result is a nonzero multiple of the rational row
    combination, and a positive multiple when p > 0, so signs, zeros and
    ratios within a row are those of exact rational elimination."""
    p, x = prow[s], row[s]
    out = [p * u - x * v for u, v in zip(row, prow)]
    g = gcd(*out)
    return [u // g for u in out] if g > 1 else out


def vertex_clause(columns, costs, bound: int, marked) -> bool:
    """Whether some vertex w of P = {w >= 0 : Σ_j w_j·columns[j] = 1} has
    Σ_j costs[j]·w_j > bound, or = bound with w_j > 0 for a marked j.

    The columns are nonnegative, nonzero integer vectors of one length n,
    so P is bounded, and its vertices are the weights of the minimal
    balanced subsets of the columns.  Decided by a fraction-free simplex
    (Bland's rule) in up to three phases: find a vertex (P empty: False),
    maximise the costs, and only when the maximum equals the bound,
    maximise the marked weight over the optimal face (the columns of zero
    reduced cost).  The first phase starts from the columns with a single
    nonzero entry, one per row that has one, and covers only the other
    rows, so it is skipped when every row has one (a singleton coalition's
    characteristic vector is such a column).  Each tableau row is an
    integer row, a positive multiple of its rational counterpart, so every
    exit is the sign of one entry.  Costs and bound are integers; no
    Fraction is built."""
    if not columns:
        return False
    m, n = len(columns), len(columns[0])
    if any(len(col) != n or min(col) < 0 or not any(col) for col in columns):
        raise ValueError("columns must be nonnegative, nonzero and of one length")
    real = range(m)
    # a column with one nonzero entry starts as the basic column of that
    # row, at weight 1/entry; every other row gets an artificial column
    start: dict[int, int] = {}
    for j, col in enumerate(columns):
        support = [i for i, x in enumerate(col) if x]
        if len(support) == 1:
            start.setdefault(support[0], j)
    bare = [i for i in range(n) if i not in start]
    tab = [[col[i] for col in columns] + [int(i == k) for k in bare] + [1]
           for i in range(n)]
    artificial = iter(range(m, m + len(bare)))
    basis = [start[i] if i in start else next(artificial) for i in range(n)]
    if bare:
        # phase 1: maximise minus the sum of the artificials
        tab.append(_objective_row(tab, basis, [0] * m + [-1] * len(bare), 0))
        _simplex(tab, basis, real)
        if tab.pop()[-1] < 0:
            return False
        # pivot out the artificials left at level zero; a row with no real
        # entry is a dependent equation and is dropped with its artificial
        for r, b in enumerate(basis):
            if b >= m:
                s = next((j for j in real if tab[r][j]), None)
                if s is not None:
                    _pivot(tab, basis, r, s)
        keep = [r for r, b in enumerate(basis) if b < m]
        tab = [tab[r][:m] + tab[r][-1:] for r in keep]
        basis = [basis[r] for r in keep]
    # phase 2: maximise the costs; the last entry of the objective row is
    # a positive multiple of the current value minus the bound
    tab.append(_objective_row(tab, basis, costs, bound))
    _simplex(tab, basis, real)
    if tab[-1][-1]:
        return tab[-1][-1] > 0
    # phase 3: maximise the marked weight over the optimal face
    face = [j for j in real if not tab[-1][j]]
    tab[-1] = _objective_row(tab[:-1], basis, [int(x) for x in marked], 0)
    _simplex(tab, basis, face)
    return tab[-1][-1] > 0


def _objective_row(rows, basis, costs, bound: int) -> list[int]:
    """The objective row for maximising costs·w against the bound: the row
    [−costs | −bound] with every basic column eliminated.  It is one
    positive multiple of the reduced costs followed by value − bound."""
    obj = [-c for c in costs] + [-bound]
    for row, b in zip(rows, basis):
        if obj[b]:
            obj = _eliminate(obj, row, b)
    return obj


def _simplex(tab, basis, allowed) -> None:
    """Maximise the objective in the last row of tab, entering only the
    allowed columns (ascending), by Bland's rule: the first column of
    negative reduced cost enters, and the ratio-test tie with the smallest
    basic column leaves."""
    rows = range(len(basis))
    while True:
        obj = tab[-1]
        s = next((j for j in allowed if obj[j] < 0), None)
        if s is None:
            return
        r = None
        for i in rows:
            x = tab[i][s]
            if x <= 0:
                continue
            if r is not None:
                t = tab[i][-1] * tab[r][s] - tab[r][-1] * x
                if t > 0 or (t == 0 and basis[i] > basis[r]):
                    continue
            r = i
        if r is None:
            raise ValueError("unbounded linear program")
        _pivot(tab, basis, r, s)


def _pivot(tab, basis, r: int, s: int) -> None:
    """Pivot on tab[r][s]: column s enters the basis in row r, and every
    other row with an entry in column s has it eliminated (`_eliminate`).
    A negative pivot, from an artificial leaving at level zero, negates the
    pivot row first; that row's right-hand side is 0, so the equation and
    the vertex stay, and the other rows keep their positive scale."""
    prow = tab[r]
    if prow[s] < 0:
        prow = tab[r] = [-x for x in prow]
    for i, row in enumerate(tab):
        if i != r and row[s]:
            tab[i] = _eliminate(row, prow, s)
    basis[r] = s


def minimal_balanced_sets(vectors, n: int):
    """All minimal balanced subsets of a finite vector set.

    Returns (indices, weights) pairs, indices referring to the input order.
    Depth-first growth of linearly independent subsets; as soon as a subset
    spans the all-ones vector it is tested and the branch is cut, because a
    strict superset would force zero weights and cannot be minimal.

    The search runs in integers: every vector is scaled once by a positive
    factor to a primitive integer vector (rescaling keeps minimal
    balancedness, and the weights rescale with it), residuals and the
    all-ones target are kept fraction-free, and Fraction weights are built
    only for accepted subsets.
    """
    vectors = _checked_vectors(vectors, n)
    rows, scales = _integer_rows(vectors, n)
    m = len(rows)
    results = []

    def dfs(start, chosen, basis, target):
        depth = len(chosen)
        if not any(target[:n]):
            weights = _positive_weights(target, n, depth)
            if weights is not None:
                results.append((tuple(chosen), tuple(
                    w * scales[j] for w, j in zip(weights, chosen))))
            return
        for j in range(start, m):
            step = _extend(basis, target, rows[j][depth], n)
            if step is None:
                continue
            piv, residual, new_target = step
            chosen.append(j)
            basis.append((piv, residual))
            dfs(j + 1, chosen, basis, new_target)
            basis.pop()
            chosen.pop()

    dfs(0, [], [], _ones_row(n))
    return results


def _checked_vectors(vectors, n: int):
    """The vectors as Fraction tuples, after the input checks of
    `minimal_balanced_sets`."""
    vectors = [tuple(Fraction(x) for x in vec) for vec in vectors]
    for vec in vectors:
        if len(vec) != n:
            raise ValueError("vector dimension mismatch")
        if all(x == 0 for x in vec):
            raise ValueError("zero vector in a balanced-set universe")
        if any(x < 0 for x in vec):
            raise ValueError("balanced-set vectors must be nonnegative")
    return vectors


# The integer rows of the search have width 2n + 1: [vector (n) |
# coefficients on the chosen vectors, by depth (n) | multiple of the all-ones
# vector (1)].  Every row thus records how it is combined from the chosen
# vectors and the all-ones vector, and eliminating the target down to zero
# leaves the weights in its coefficient slots: no solve at the leaves.


def _integer_rows(vectors, n: int):
    """rows[j][d] is vector j, scaled to a primitive integer vector, entering
    at depth d; scales[j] is its positive scale factor."""
    rows, scales = [], []
    for vec in vectors:
        ints, scale = primitive(vec)
        rows.append([ints + [0] * d + [1] + [0] * (n - d) for d in range(n)])
        scales.append(scale)
    return rows, scales


def _ones_row(n: int) -> list[int]:
    return [1] * n + [0] * n + [1]


def _extend(basis, target, row, n: int):
    """Reduce a row against the basis of (pivot, row) pairs.  None when it
    depends on the basis, else (pivot, residual, target reduced by the
    residual).  Each row is a nonzero multiple of its Fraction counterpart,
    so pivots and zero tests are those of exact rational elimination."""
    for piv, b in basis:
        if row[piv]:
            row = _eliminate(row, b, piv)
    for piv in range(n):
        if row[piv]:
            break
    else:
        return None
    if target[piv]:
        target = _eliminate(target, row, piv)
    return piv, row, target


def _positive_weights(target, n: int, depth: int):
    """Weights of the chosen vectors in the all-ones vector, read from a
    target reduced to zero (alpha·1 + Σ coef·vector = 0), as Fractions;
    None when some weight is not positive."""
    alpha = target[-1]
    coefs = target[n:n + depth]
    if all(c * alpha < 0 for c in coefs):
        return [Fraction(-c, alpha) for c in coefs]
    return None


def is_minimal_balanced_set(vectors, n: int) -> bool:
    """Whether the whole vector set is one of its own minimal balanced
    subsets: Σ_j w_j·v_j = 1 has one solution, and it is strictly positive.
    Raises ValueError on the inputs `minimal_balanced_sets` rejects."""
    vectors = _checked_vectors(vectors, n)
    if not vectors:
        return False
    status, weights = solve_unique(list(zip(*vectors)), [1] * n)
    return status == UNIQUE and min(weights) > 0


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form of the list of rows, in place (reduced rows
    replace their entries); returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                rows[i] = _eliminate(rows[i], rows[r], c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    rows = _int_rows(matrix)
    _, pivots = _echelon(rows)
    return len(pivots)


def solve_int(aug: list[list[int]], n_cols: int):
    """Solve the integer system [A | b], each row n_cols coefficients and a
    right-hand side, demanding uniqueness; the rows are reduced in place.

    One echelon form gives both ranks: a pivot in the b column means
    (NO_SOLUTION, None), fewer than n_cols pivots (NON_UNIQUE, None).
    Otherwise each column is cleared above its pivot, fraction-free, and
    the result is (UNIQUE, (nums, den)) with den > 0 and x[j] = nums[j]/den.
    No Fraction is built."""
    rows, pivots = _echelon(aug)
    if n_cols in pivots:
        return NO_SOLUTION, None
    if len(pivots) < n_cols:
        return NON_UNIQUE, None
    # pivots are 0..n_cols-1: row c has its pivot in column c
    for c in range(n_cols - 1, 0, -1):
        for i in range(c):
            if rows[i][c]:
                rows[i] = _eliminate(rows[i], rows[c], c)
    den = lcm(*(rows[c][c] for c in range(n_cols)))
    return UNIQUE, ([rows[c][n_cols] * (den // rows[c][c]) for c in range(n_cols)], den)


def solve_unique(matrix, b) -> tuple[str, tuple[Fraction, ...] | None]:
    """Solve A x = b demanding uniqueness, in Fractions.

    Returns (UNIQUE, x) iff rank(A) = #cols = rank([A b]); (NO_SOLUTION, None)
    when the system is inconsistent; (NON_UNIQUE, None) when solutions form an
    affine family.  `solve_int` on [A b] with its denominators cleared row
    by row.
    """
    rows = _as_rows(matrix)
    if len(b) != len(rows):
        raise ValueError("right-hand side has wrong length")
    n_cols = len(rows[0]) if rows else 0
    status, solution = solve_int(_int_rows([[*row, x] for row, x in zip(rows, b)]), n_cols)
    if status != UNIQUE:
        return status, None
    nums, den = solution
    return UNIQUE, tuple(Fraction(x, den) for x in nums)
