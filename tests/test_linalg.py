import random
from fractions import Fraction
from math import lcm

from mbc.linalg import (
    NO_SOLUTION,
    NON_UNIQUE,
    UNIQUE,
    RatMatrix,
    null_space,
    primitive,
    rank,
    solve_affine,
    solve_int,
    solve_unique,
)

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
        affine = solve_affine(m, b, cols)
        assert (affine is None) == (r_aug > r)
        if affine is not None:
            x0, basis = affine
            assert len(basis) == cols - r
            assert [sum(c * x for c, x in zip(row, x0)) for row in m] == b
            assert all(
                sum(c * x for c, x in zip(row, vec)) == 0
                for vec in basis for row in m
            )
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


def test_kernel_left_orientation_fixture():
    # remove {1,2,4,5} from {{3,4,5},{1,2,4,5},{2,3},{1,3}} on five players:
    # the complement of the remaining column span is two-dimensional
    remaining = RatMatrix.from_collection([0b11100, 0b00110, 0b00101], 5)
    basis = null_space(list(zip(*remaining.rows)))
    assert len(basis) == 2
    for y in basis:
        for j in range(remaining.n_cols):
            assert sum(a * b for a, b in zip(y, remaining.column(j))) == 0
    # the span is exactly {(-t, -t, t, s, -t-s)}
    expected = [(-1, -1, 1, 0, -1), (0, 0, 0, 1, -1)]
    stacked = [list(map(F, v)) for v in expected]
    for y in basis:
        assert rank(stacked + [list(y)]) == 2
    for v in expected:
        assert rank([list(y) for y in basis] + [list(map(F, v))]) == 2


def test_kernel_full_rank_empty_and_duplicate_column():
    square = RatMatrix.from_rows([[1, 0], [0, 1]])
    assert null_space(square) == []
    duplicated = RatMatrix.from_columns([(1,), (1,)])
    basis = null_space(duplicated)
    assert len(basis) == 1
    y = basis[0]
    assert y[0] * 1 + y[1] * 1 == 0 and y != (0, 0)


def test_null_space_satisfies_equations_random():
    rng = random.Random(5)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        basis = null_space(m)
        assert len(basis) == cols - rank(m)
        for vec in basis:
            assert all(
                sum(c * x for c, x in zip(row, vec)) == 0 for row in m
            )


def test_primitive_scales_positively():
    assert primitive([F(1, 2), F(3, 4), 0]) == ([2, 3, 0], F(4))
    assert primitive([-2, 4]) == ([-1, 2], F(1, 2))
    assert primitive([0, 0]) == ([0, 0], F(1))


def test_solve_int_matches_solve_unique():
    rng = random.Random(17)
    for _ in range(300):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        rhs = [rng.randint(-2, 2) for _ in range(n_rows)]
        if rng.random() < 0.3:  # a consistent system
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n_cols)]
            rhs = [sum(a * xj for a, xj in zip(row, x)) for row in rows]
            scale = lcm(*(b.denominator for b in rhs))
            rows = [[a * scale for a in row] for row in rows]
            rhs = [int(b * scale) for b in rhs]
        status, expected = solve_unique(rows, rhs)
        got = solve_int(rows, rhs, n_cols)
        if status == UNIQUE:
            nums, den = got
            assert den > 0
            assert tuple(F(x, den) for x in nums) == expected
        else:
            assert got is None
