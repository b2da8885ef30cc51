"""Property tests of the one-collection classification in `mbc.generate`,
on collections that hypothesis draws for n <= 4, and of the vertex loop in
`mbc.polytope`, on systems x(N) = c, x(S) >= b drawn for n <= 4.  The
draws are derandomized, so every run checks the same examples, and no
example database is kept (see `conftest.pytest_configure` for the rest of
`.hypothesis/`)."""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from mbc import linalg
from mbc.generate import MINIMAL, check_minimal_balanced, is_balanced_collection, peleg
from mbc.model import full_mask
from mbc.polytope import LinearSystem, enumerate_vertices
from oracles import balanced_union_reference, system_feasible, vertices_reference

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@lru_cache(maxsize=None)
def _db(n: int):
    return peleg(n)


def _collections(n: int):
    """Nonempty sorted collections on n players: arbitrary ones, and minimal
    balanced ones with at most two coalitions added or dropped, which reach
    all three classes often."""
    coalitions = st.integers(1, full_mask(n))
    near = st.tuples(st.sampled_from(_db(n).rows), st.sets(coalitions, max_size=2))
    return st.one_of(
        st.sets(coalitions, min_size=1),
        near.map(lambda pair: set(pair[0][0]) ^ pair[1]),
    ).filter(bool).map(sorted)


drawn = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _collections(n)))


@DRAWS
@given(drawn)
def test_balanced_iff_union_of_minimal_balanced(case):
    n, masks = case
    assert is_balanced_collection(masks, _db(n)) == balanced_union_reference(masks, _db(n))


@DRAWS
@given(drawn)
def test_minimal_iff_in_generated_database(case):
    n, masks = case
    assert (check_minimal_balanced(masks, n)[0] == MINIMAL) == _db(n).contains(masks)


def _systems(n: int):
    """Systems x(N) = c, x(S) >= b on n players over a random row list."""
    values = st.fractions(-6, 6, max_denominator=4)
    rows = st.lists(st.tuples(st.integers(1, full_mask(n)), values), max_size=8)
    return st.builds(LinearSystem, st.just(n), values, rows.map(tuple))


@DRAWS
@given(st.integers(1, 4).flatmap(_systems))
def test_vertex_loop_matches_fraction_loop_and_fourier_motzkin(system):
    n = system.n
    vertices = enumerate_vertices(system)
    assert vertices == vertices_reference(system)
    # a nonempty polyhedron has a vertex iff its rows span R^n with 1_N
    masks = [full_mask(n), *(S for S, _ in system.rows)]
    pointed = linalg.rank([[(S >> i) & 1 for i in range(n)] for S in masks]) == n
    assert bool(vertices) == (pointed and system_feasible(system))
