import random
from fractions import Fraction

import pytest

from mbc import Game, peleg
from mbc.model import MAX_PLAYERS
from mbc.polytope import LinearSystem, enumerate_vertices
from conftest import make_additive, make_three_player_tight
from oracles import (
    mbc_via_vertices,
    system_feasible,
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
        assert sum(x) == system.grand
        for S, b in system.rows:
            assert sum(xi for i, xi in enumerate(x) if S >> i & 1) >= b


def test_empty_polytope_has_no_vertices():
    # x1 + x2 = 1 with x1, x2 >= 1 is empty
    system = LinearSystem(2, F(1), ((0b01, F(1)), (0b10, F(1))))
    assert enumerate_vertices(system) == []
    assert not system_feasible(system)


@pytest.mark.parametrize("n,rows", [
    (2, ((0b100, F(1)),)),    # a third player
    (2, ((0b101, F(1)),)),    # a third player beside player 1
    (2, ((-1, F(1)),)),       # every player there is
    (2, ((0, F(1)),)),        # no player
    (0, ()),
    (-1, ()),
])
def test_linear_system_rejects_n_and_rows_outside_its_players(n, rows):
    # such a row used to read as another row, or make the polytope empty
    with pytest.raises(ValueError):
        LinearSystem(n, F(1), rows)


def test_linear_system_player_limit():
    # a system has at most as many players as a game
    with pytest.raises(ValueError, match=f"n must be in 1..{MAX_PLAYERS}"):
        LinearSystem(MAX_PLAYERS + 1, F(1), ())
    # x_i >= 0 for every player but the first: the one vertex (1, 0, ..., 0)
    rows = tuple((1 << i, F(0)) for i in range(1, MAX_PLAYERS))
    assert enumerate_vertices(LinearSystem(MAX_PLAYERS, F(1), rows)) == [
        (F(1),) + (F(0),) * (MAX_PLAYERS - 1)]


def test_feasibility_with_strict_rows():
    system = LinearSystem(2, F(1), ((0b01, F(0)),))
    # x1 >= 0, x1 + x2 = 1, and strictly x2 > 1 forces x1 < 0: infeasible
    assert not system_feasible(system, [((0, 1), 1)])
    # non-strict version is feasible at the single point (0, 1)
    system2 = LinearSystem(2, F(1), (*system.rows, (0b10, F(1))))
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
