import fractions
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from mbc import linalg
from mbc.linalg import (
    NO_SOLUTION,
    NON_UNIQUE,
    UNIQUE,
    RatMatrix,
    primitive,
    rank,
    solve_int,
    solve_unique,
    vertex_clause,
)

from oracles import solve_reference

F = Fraction


def test_rank_examples():
    # the two singletons and the pair on two players span the plane
    two = RatMatrix.from_collection([0b01, 0b10, 0b11], 2)
    assert rank(two) == 2
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0, 0], [0, 0]]) == 0


def test_rank_equals_transpose_rank_random():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
        assert rank(m) == rank([list(col) for col in zip(*m)])


def test_solve_unique_balanced_set_rejection():
    # four nonnegative vectors whose unique combination has a negative weight
    columns = [
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (1, 0, F(1, 10), 1),
        (0, F(1, 5), F(1, 10), F(1, 2)),
    ]
    matrix = RatMatrix.from_columns(columns)
    status, solution = solve_unique(matrix, [1, 1, 1, 1])
    assert status == UNIQUE
    assert solution == (F(25, 31), F(-4, 31), F(10, 31), F(50, 31))


def test_solve_unique_trivial_and_antipartition():
    status, solution = solve_unique(RatMatrix.from_columns([(1, 1, 1)]), [1, 1, 1])
    assert (status, solution) == (UNIQUE, (F(1),))
    pairs = RatMatrix.from_collection([0b011, 0b101, 0b110], 3)
    status, solution = solve_unique(pairs, [1, 1, 1])
    assert status == UNIQUE
    assert solution == (F(1, 2), F(1, 2), F(1, 2))


def test_solve_unique_three_way_contract():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-2, 2) for _ in range(rows)]
        status, solution = solve_unique(m, b)
        r = rank(m)
        r_aug = rank([row + [bb] for row, bb in zip(m, b)])
        if status == UNIQUE:
            assert r == cols == r_aug
            assert [
                sum(c * x for c, x in zip(row, solution)) for row in m
            ] == [F(bb) for bb in b]
        elif status == NO_SOLUTION:
            assert r_aug > r
        else:
            assert status == NON_UNIQUE
            assert r < cols and r_aug == r


def test_primitive_scales_positively():
    assert primitive([F(1, 2), F(3, 4), 0]) == ([2, 3, 0], F(4))
    assert primitive([-2, 4]) == ([-1, 2], F(1, 2))
    assert primitive([0, 0]) == ([0, 0], F(1))


def test_solve_int_matches_solve_unique(monkeypatch):
    # both solves against the textbook Gauss-Jordan reference, on square,
    # tall and wide systems, consistent or not, with negative pivots
    pivots_seen = []
    echelon = linalg._echelon

    def recording(rows):
        rows, pivots = echelon(rows)
        pivots_seen.extend(rows[r][c] for r, c in enumerate(pivots))
        return rows, pivots

    monkeypatch.setattr(linalg, "_echelon", recording)
    rng = random.Random(17)
    statuses = {UNIQUE: 0, NO_SOLUTION: 0, NON_UNIQUE: 0}
    tall_unique = 0
    for _ in range(600):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows > 1 and rng.random() < 0.2:  # a repeated equation
            rows[-1] = [2 * a for a in rows[0]]
        rhs = [rng.randint(-3, 3) for _ in range(n_rows)]
        if rng.random() < 0.4:  # a consistent system
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n_cols)]
            rhs = [sum(a * xj for a, xj in zip(row, x)) for row in rows]
            scale = lcm(*(b.denominator for b in rhs))
            rows = [[a * scale for a in row] for row in rows]
            rhs = [int(b * scale) for b in rhs]
        status, expected = solve_reference(rows, rhs)
        statuses[status] += 1
        tall_unique += status == UNIQUE and n_rows > n_cols
        assert solve_unique(rows, rhs) == (status, expected)
        assert solve_unique([[F(a, 3) for a in row] for row in rows],
                            [F(b, 3) for b in rhs]) == (status, expected)
        got_status, got = solve_int([[*row, b] for row, b in zip(rows, rhs)], n_cols)
        assert got_status == status
        if status == UNIQUE:
            nums, den = got
            assert den > 0
            assert tuple(F(x, den) for x in nums) == expected
        else:
            assert got is None
    assert min(statuses.values()) > 60 and tall_unique > 20
    assert any(p < 0 for p in pivots_seen)


def test_solve_int_edge_shapes():
    # no unknowns: consistent exactly when every right-hand side is 0
    assert solve_int([[0], [0]], 0) == (UNIQUE, ([], 1))
    assert solve_int([[0], [2]], 0) == (NO_SOLUTION, None)
    # a zero column leaves that unknown free; a lone negative pivot
    assert solve_int([[0, 1, 3]], 2) == (NON_UNIQUE, None)
    status, (nums, den) = solve_int([[-2, 3]], 1)
    assert status == UNIQUE and den > 0 and F(nums[0], den) == F(-3, 2)
    assert solve_unique([[0, 0], [0, 0]], [0, 1]) == (NO_SOLUTION, None)


def test_eliminate_clears_the_column_at_a_positive_scale():
    # against the rational step row − (row[s]/p)·prow, on random rows and
    # pivots of either sign
    rng = random.Random(5)
    for _ in range(400):
        width = rng.randint(1, 6)
        prow = [rng.randint(-6, 6) for _ in range(width)]
        s = rng.randrange(width)
        prow[s] = prow[s] or rng.choice([-3, 2])
        row = [rng.randint(-6, 6) * rng.choice([1, 4]) for _ in range(width)]
        got = linalg._eliminate(row, prow, s)
        assert got[s] == 0
        assert gcd(*got) in (0, 1)
        rational = [F(u) - F(row[s], prow[s]) * v for u, v in zip(row, prow)]
        if not any(rational):
            assert not any(got)
            continue
        k = next(j for j, x in enumerate(rational) if x)
        factor = F(got[k]) / rational[k]
        assert [factor * x for x in rational] == got
        if prow[s] > 0:
            assert factor > 0


def test_pivot_leaves_rows_without_the_pivot_column():
    tab = [[2, 0, 1, 4], [0, 3, 0, 6], [1, 1, 0, 2], [-1, -2, 0, 0]]
    untouched = tab[1]
    basis = [2, 4, 5]
    linalg._pivot(tab, basis, 0, 0)
    assert tab[1] is untouched
    assert basis == [0, 4, 5]
    assert [row[0] for row in tab] == [2, 0, 0, 0]
    # an artificial leaving on a negative entry: its row is negated, the
    # others stay positive multiples
    tab = [[-2, 1, 0], [1, 0, 3]]
    basis = [5, 1]
    linalg._pivot(tab, basis, 0, 0)
    assert tab == [[2, -1, 0], [0, 1, 6]] and basis == [0, 1]


# ---------------------------------------------------------------------------
# the fraction-free simplex behind the nested stage


def _vertex_clause_by_subsets(columns, costs, bound, marked):
    """vertex_clause from its definition: every vertex of P is the unique,
    positive solution on some independent column subset."""
    n = len(columns[0])
    for r in range(1, n + 1):
        for subset in combinations(range(len(columns)), r):
            rows = [[columns[j][i] for j in subset] for i in range(n)]
            status, w = solve_reference(rows, [1] * n)
            if status != UNIQUE or any(x <= 0 for x in w):
                continue
            psi = sum(costs[j] * x for j, x in zip(subset, w))
            if psi > bound or (psi == bound and any(marked[j] for j in subset)):
                return True
    return False


def test_vertex_clause_empty_polytope():
    # no nonnegative combination of (1, 0) reaches (1, 1)
    assert not vertex_clause([(1, 0)], [5], 0, [True])
    assert not vertex_clause([(1, 0), (3, 0)], [5, 1], -10, [True, True])
    assert not vertex_clause([], [], 0, [])
    with pytest.raises(ValueError):
        vertex_clause([(1, -1), (0, 1)], [0, 0], 0, [False, False])
    with pytest.raises(ValueError):
        vertex_clause([(1, 1), (0, 0)], [0, 0], 0, [False, False])


def test_vertex_clause_degenerate_repeated_columns():
    # A = A' = (1,1,0), C = (0,0,1), U = U' = (1,1,1): every ratio test of
    # the first pivots ties, and the vertices are {A,C}, {A',C}, {U}, {U'}
    # with ψ = 2, 3, 2, 3
    columns = [(1, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1)]
    costs = [1, 2, 1, 2, 3]
    none = [False] * 5

    def mark(*indices):
        return [j in indices for j in range(5)]

    assert vertex_clause(columns, costs, 2, none)
    assert not vertex_clause(columns, costs, 4, mark(0, 1, 2, 3, 4))
    assert not vertex_clause(columns, costs, 3, none)
    assert vertex_clause(columns, costs, 3, mark(4))
    assert vertex_clause(columns, costs, 3, mark(2))
    assert not vertex_clause(columns, costs, 3, mark(0, 3))
    # dependent equations: both rows of (1,1) and (2,2) are one equation;
    # the vertices w = 1 and w = 1/2 have ψ = 3 and 5/2
    assert vertex_clause([(1, 1), (2, 2)], [3, 5], 3, [True, False])
    assert not vertex_clause([(1, 1), (2, 2)], [3, 5], 3, [False, True])


def test_vertex_clause_maximum_at_bound():
    columns = [(1, 0), (0, 1), (1, 1)]
    # ψ = 2 on both vertices {(1,0),(0,1)} and {(1,1)}: the optimal face is
    # all of P, and one marked column anywhere on it decides
    assert vertex_clause(columns, [1, 1, 2], 2, [False, False, True])
    assert vertex_clause(columns, [1, 1, 2], 2, [True, False, False])
    assert not vertex_clause(columns, [1, 1, 2], 2, [False, False, False])
    # ψ({(1,1)}) = 1 < 2: its marked weight is off the optimal face
    assert not vertex_clause(columns, [1, 1, 1], 2, [False, False, True])
    assert vertex_clause(columns, [1, 1, 1], 2, [False, True, False])


def test_vertex_clause_matches_vertex_definition(monkeypatch):
    pivots = []
    pivot = linalg._pivot

    def recording(tab, basis, r, s):
        pivots.append(tab[r][s])
        pivot(tab, basis, r, s)

    monkeypatch.setattr(linalg, "_pivot", recording)
    rng = random.Random(17)
    at_max = {True: 0, False: 0}
    for n in range(1, 5):
        for _ in range(120):
            columns = []
            for _ in range(rng.randint(1, n + 4)):
                if columns and rng.random() < 0.3:
                    k = rng.randint(1, 3)
                    columns.append(tuple(k * x for x in rng.choice(columns)))
                else:
                    col = tuple(rng.choice([0, 0, 1, 1, 2, 5]) for _ in range(n))
                    columns.append(col if any(col) else (1,) * n)
            costs = [rng.randint(-4, 12) for _ in columns]
            marked = [rng.random() < 0.3 for _ in columns]
            bound = rng.randint(-4, 12)
            assert vertex_clause(columns, costs, bound, marked) == \
                _vertex_clause_by_subsets(columns, costs, bound, marked)
            # the largest ψ, scaled to an integer bound
            psis = []
            for r in range(1, n + 1):
                for subset in combinations(range(len(columns)), r):
                    rows = [[columns[j][i] for j in subset] for i in range(n)]
                    status, w = solve_reference(rows, [1] * n)
                    if status == UNIQUE and all(x > 0 for x in w):
                        psis.append(sum(costs[j] * x for j, x in zip(subset, w)))
            if psis:
                top = max(psis)
                scaled = [c * top.denominator for c in costs]
                got = vertex_clause(columns, scaled, top.numerator, marked)
                assert got == _vertex_clause_by_subsets(
                    columns, scaled, top.numerator, marked)
                at_max[got] += 1
    assert at_max[True] > 30 and at_max[False] > 30
    # artificials left at level zero were pivoted out on negative entries
    assert any(p < 0 for p in pivots)


def test_vertex_clause_starts_from_unit_columns(monkeypatch):
    # a column with one nonzero entry starts as the basic column of its
    # row, and phase 1 (the only objective with artificial costs) runs
    # exactly when some row has no such column
    widths = []
    objective_row = linalg._objective_row

    def recording(rows, basis, costs, bound):
        widths.append(len(costs))
        return objective_row(rows, basis, costs, bound)

    monkeypatch.setattr(linalg, "_objective_row", recording)
    rng = random.Random(23)
    seen = {(every, verdict): 0 for every in (True, False) for verdict in (True, False)}
    for n in range(2, 5):
        for _ in range(150):
            columns = []
            for _ in range(rng.randint(1, n + 3)):
                col = tuple(rng.choice([0, 0, 1, 1, 2, 5]) for _ in range(n))
                columns.append(col if any(col) else (1,) * n)
            # unit columns, scaled, for every row or for a few rows only
            rows = range(n) if rng.random() < 0.5 else rng.sample(range(n), rng.randint(0, n - 1))
            for i in rows:
                columns.insert(rng.randint(0, len(columns)),
                               tuple(rng.choice([1, 2, 3]) * (k == i) for k in range(n)))
            every = all(any(sum(map(bool, col)) == 1 and col[i] for col in columns)
                        for i in range(n))
            costs = [rng.randint(-4, 12) for _ in columns]
            marked = [rng.random() < 0.3 for _ in columns]
            bound = rng.randint(-2, 8)
            widths.clear()
            verdict = vertex_clause(columns, costs, bound, marked)
            assert verdict == _vertex_clause_by_subsets(columns, costs, bound, marked)
            assert (max(widths) > len(columns)) == (not every)
            seen[every, verdict] += 1
    assert min(seen.values()) > 20, seen


def test_vertex_clause_builds_no_fraction():
    # a run through all three phases, with ties and a redundant equation
    columns = [(1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (2, 2, 2, 2),
               (1, 1, 1, 1), (0, 0, 2, 2)]
    costs, marked = [1, 2, 1, 6, 3, 1], [False, False, False, True, False, False]
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        verdict = vertex_clause(columns, costs, 3, marked)
    finally:
        sys.setprofile(None)
    assert verdict
    assert calls == []
