import random
from fractions import Fraction

import pytest

from mbc import Game, peleg
from mbc.polytope import (
    DimensionCapError,
    LinearSystem,
    _tight_points,
    enumerate_vertices,
)
from conftest import make_additive, make_three_player_tight
from oracles import (
    mbc_via_vertices,
    system_feasible,
    tight_points_reference,
    weight_polytope_vertices,
)

F = Fraction


def test_core_vertices_tight_three_player():
    vertices = enumerate_vertices(LinearSystem.core(make_three_player_tight()))
    assert vertices == [(F(1, 2), F(1, 2), F(1, 2))]


def test_core_vertices_additive_game():
    game = make_additive([F(1), F(2, 3), F(0), F(3)])
    vertices = enumerate_vertices(LinearSystem.core(game))
    assert vertices == [(F(1), F(2, 3), F(0), F(3))]


def test_vertices_satisfy_constraints_resubstitution():
    game = Game(3, {0b011: F(1), 0b111: F(2)})
    system = LinearSystem.core(game)
    vertices = enumerate_vertices(system)
    assert vertices
    for x in vertices:
        for coeffs, rhs in system.eqs:
            assert sum(c * v for c, v in zip(coeffs, x)) == rhs
        for coeffs, rhs in system.ineqs:
            assert sum(c * v for c, v in zip(coeffs, x)) >= rhs


def test_weight_polytope_for_two_players_has_two_vertices():
    # the full weight polytope on two players: its vertices are the grand
    # coalition alone and the partition into singletons
    system = LinearSystem(3)
    system.add_eq([1, 0, 1], 1)  # player 1 in {1} and {1,2}
    system.add_eq([0, 1, 1], 1)  # player 2 in {2} and {1,2}
    for i in range(3):
        coeffs = [0, 0, 0]
        coeffs[i] = 1
        system.add_ineq(coeffs, 0)
    vertices = enumerate_vertices(system)
    assert vertices == [(F(0), F(0), F(1)), (F(1), F(1), F(0))]


def test_empty_polytope_has_no_vertices():
    system = LinearSystem(2)
    system.add_eq([1, 1], 1)
    system.add_ineq([1, 0], 1)
    system.add_ineq([0, 1], 1)  # x+y=1 with x,y >= 1 is empty
    assert enumerate_vertices(system) == []
    assert not system_feasible(system)


def test_dimension_cap():
    system = LinearSystem(9)
    for i in range(9):
        coeffs = [0] * 9
        coeffs[i] = 1
        system.add_ineq(coeffs, 0)
    with pytest.raises(DimensionCapError):
        enumerate_vertices(system)


def test_feasibility_with_strict_rows():
    system = LinearSystem(2)
    system.add_eq([1, 1], 1)
    system.add_ineq([1, 0], 0)
    # x >= 0, x+y = 1, and strictly y > 1 forces x < 0: infeasible
    assert not system_feasible(system, [((0, 1), 1)])
    # non-strict version is feasible at the single point (0, 1)
    system2 = LinearSystem(2, list(system.eqs), list(system.ineqs))
    system2.add_ineq([0, 1], 1)
    assert system_feasible(system2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertex_oracle_matches_peleg(n):
    via_vertices = [(w.coalitions, w.weights) for w in mbc_via_vertices(n)]
    via_peleg = [(w.coalitions, w.weights) for w in peleg(n)]
    assert via_vertices == via_peleg


def test_vertex_oracle_cap():
    with pytest.raises(ValueError):
        mbc_via_vertices(5)


def test_weight_polytope_vertices_restricted():
    supports = weight_polytope_vertices([0b011, 0b101, 0b110, 0b111], 3)
    assert [(s, w) for s, w in supports] == [
        ((0b011, 0b101, 0b110), (F(1, 2), F(1, 2), F(1, 2))),
        ((0b111,), (F(1),)),
    ]


def test_bondareva_shapley_vs_vertex_oracle_random():
    # random 4-player games, some balanced and some not; the collection scan
    # and the vertex oracle must agree on core nonemptiness
    from mbc.props import is_balanced_game

    rng = random.Random(41)
    db = peleg(4)
    for _ in range(60):
        values = {
            mask: F(rng.randint(0, 40), 8) for mask in range(1, 15)
        }
        values[15] = F(rng.randint(20, 45), 8)
        game = Game(4, values)
        bs = is_balanced_game(game, db)
        vertices = enumerate_vertices(LinearSystem.core(game))
        assert bs == bool(vertices)
        # Fourier-Motzkin elimination of the core system agrees as well
        assert bs == system_feasible(LinearSystem.core(game))


def test_tight_points_match_fraction_loop():
    rng = random.Random(29)
    found = 0
    for _ in range(200):
        d = rng.randint(1, 3)
        reduced = [
            (tuple(F(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(d)),
             F(rng.randint(-5, 5), rng.randint(1, 9)))
            for _ in range(rng.randint(d, d + 4))
        ]
        got = _tight_points(reduced, d)
        assert got == list(dict.fromkeys(tight_points_reference(reduced, d)))
        found += len(got)
    assert found > 50
