import random
from fractions import Fraction
from itertools import permutations

import pytest

from mbc import (
    Game,
    MbcDatabase,
    WeightedCollection,
    coalition_mask,
    parse_game,
    peleg,
    props,
    stability,
)
from mbc.generate import peleg_stream
from mbc.model import MAX_PLAYERS, full_mask
from mbc.polytope import LinearSystem, enumerate_vertices
from mbc.props import (
    BalancedIndex,
    FeasibilityOracle,
    ProgramIndex,
    UnbalancedGameError,
    effective_set,
    exact_coalitions,
    feasibility_survey,
    feasible_collections,
    index_for,
    is_balanced_game,
    is_blocking,
    is_core_describing,
    is_exact,
    is_extendable,
    is_strictly_vital_exact,
    sve_family,
)
from conftest import make_additive, make_convex, make_three_player_tight
from oracles import (
    core_describing_definition,
    core_describing_reference,
    effective_reference,
    exact_reference,
    extendable_direct,
    family_unbounded_reference,
    feasible_collections_reference,
    region_nonempty,
    sve_reference,
)

F = Fraction


# ---------------------------------------------------------------------------
# balancedness


def test_four_player_fixture_balanced(db4, game4):
    assert is_balanced_game(game4, db4)


def test_three_player_overdemanding_unbalanced(db3):
    game = Game(3, {0b011: F(1), 0b101: F(1), 0b110: F(1), 0b111: F(1)})
    assert not is_balanced_game(game, db3)
    witness = BalancedIndex(game, db3).witness()
    assert witness.coalitions == (0b011, 0b101, 0b110)


def test_additive_game_balanced(db4):
    game = make_additive([1, 2, 3, 4])
    assert is_balanced_game(game, db4)


def test_index_witness_is_the_first_violated_collection(db4):
    rng = random.Random(23)
    unbalanced = 0
    for _ in range(60):
        values = {m: F(rng.randint(0, 4), rng.randint(1, 3))
                  for m in range(1, full_mask(4))}
        values[full_mask(4)] = F(rng.randint(1, 8))
        game = Game(4, values)
        witness = BalancedIndex(game, db4).witness()
        first = None
        for wc in db4:
            total = sum(w * game.value(m) for m, w in zip(wc.coalitions, wc.weights))
            if total > game.grand_value():
                first = wc
                break
        assert witness == first
        assert is_balanced_game(game, db4) == (first is None)
        unbalanced += witness is not None
    assert 0 < unbalanced < 60


@pytest.mark.parametrize("n", [4, 5])
def test_index_keeps_the_first_violated_row_and_the_tight_rows(n):
    # the index keeps no slack per row; its witness and its tight rows are
    # checked against a scan of the rows in Fractions.  v(N) is the weighted
    # sum of some row: the largest one (balanced) or a random one, which
    # leaves the rows above it violated
    db = peleg(n)
    rng = random.Random(80 + n)
    full = full_mask(n)
    violations = []
    for k in range(12):
        values = {m: F(rng.randint(0, 20), 10) for m in range(1, full)
                  if rng.random() < 0.7}
        sums = [sum((F(x, den) * values.get(m, 0) for m, x in zip(masks, nums)), F(0))
                for masks, nums, den in db.rows if full not in masks]
        values[full] = max(sums) if k % 3 == 0 else rng.choice(sums)
        game = Game(n, values)
        violated, tight = [], []
        for i, (masks, nums, den) in enumerate(db.rows):
            total = sum(F(x, den) * game.value(m) for m, x in zip(masks, nums))
            if total > game.grand_value():
                violated.append(i)
            elif total == game.grand_value():
                tight.append(i)
        index = BalancedIndex(game, db)
        assert index.tight == {m for i in tight for m in db.rows[i][0]}
        assert index.balanced == is_balanced_game(game, db) == (not violated)
        if violated:
            assert index.witness() == WeightedCollection.from_row(*db.rows[violated[0]])
        else:
            assert index.witness() is None
        violations.append(len(violated))
    assert 0 in violations and max(violations) > 1


def test_index_of_a_game_with_every_row_tight(db6):
    # the unique core point of an additive game is tight on every
    # coalition, so all 200,214 rows are tight and every headroom is zero;
    # the row index still holds at most one set of coalitions per coalition
    game = make_additive([1, 2, 3, 4, 5, 6])
    full = full_mask(6)
    everything = frozenset(range(1, full + 1))
    rows = BalancedIndex(game, db6)
    for index in (rows, ProgramIndex(game, db6)):
        assert index.balanced
        assert effective_set(game, db6, index) == everything
        assert exact_coalitions(game, db6, index) == tuple(range(1, full + 1))
        assert sve_family(game, db6, index) == tuple(1 << i for i in range(6))
    assert rows.tight == everything
    held = len(rows.tight) + sum(len(s) for s in rows.at_headroom if s)
    assert held <= 4 ** 6


@pytest.mark.parametrize("path", [BalancedIndex, ProgramIndex])
def test_every_coalition_of_a_convex_game_is_exact(db6, path):
    # the marginal vector of an order listing S first lies in the core of
    # a convex game and has x(S) = v(S) (Shapley 1971)
    game = make_convex(6, random.Random(61))
    index = path(game, db6)
    assert index.balanced
    assert exact_coalitions(game, db6, index) == tuple(range(1, full_mask(6) + 1))


def _index_answers(index, game, db):
    """Everything a coalition index answers for the game: balancedness, the
    witness and, for a balanced game, the three coalition lists."""
    answers = [index.balanced, index.witness()]
    if index.balanced:
        answers += [exact_coalitions(game, db, index),
                    effective_set(game, db, index),
                    sve_family(game, db, index)]
    return answers


def _index_cases(rng, n, db, count):
    """Games for the two index paths: `_balanced_games`, every third one
    with v(N) lowered by 1/2 (unbalanced where it sat at the tightest
    level, at that level where it sat 1/2 above it), and every tenth an
    additive game, where every row is tight."""
    full = full_mask(n)
    for k, game in enumerate(_balanced_games(rng, n, db, count)):
        if k % 10 == 9:
            game = make_additive([rng.randint(-2, 3) for _ in range(n)])
        elif k % 3 == 1:
            game = Game(n, {**game.values, full: game.grand_value() - F(1, 2)})
        yield game


@pytest.mark.parametrize("n, count", [(3, 120), (4, 140), (5, 40)])
def test_index_paths_agree_on_seeded_games(n, count, monkeypatch):
    db = peleg(n)
    kinds = set()
    for game in _index_cases(random.Random(3200 + n), n, db, count):
        answers = _index_answers(BalancedIndex(game, db), game, db)
        assert _index_answers(ProgramIndex(game, db), game, db) == answers
        assert is_balanced_game(game, db) == answers[0]
        monkeypatch.setattr(props, "PROGRAM_PLAYERS", n)
        assert is_balanced_game(game, db) == answers[0]
        monkeypatch.undo()
        kinds.add((answers[0], len(answers) > 2 and len(answers[3]) == full_mask(n)))
    # unbalanced games, balanced ones, and balanced ones with every
    # coalition effective
    assert kinds == {(False, False), (True, False), (True, True)}


def test_index_paths_agree_on_fixtures(db3, db4, db5, db6, game4, biswas,
                                       biswas_mod, sk_game):
    # the 3-player games of `test_override_above_headroom_is_not_exact`,
    # one with a rise exactly at a headroom; the 6-player fixture with v(N)
    # lowered from 10 to 7, which leaves it unbalanced; a seeded 6-player
    # game with values in {0, 1, 2}, so with ties at its headrooms
    values = {0b101: F(3, 4), 0b110: F(3, 4), 0b111: F(1)}
    rng = random.Random(66)
    seeded = Game(6, {**{m: F(rng.randint(0, 2)) for m in range(1, 63)}, 63: F(9)})
    cases = [(Game(3, values), db3), (Game(3, {**values, 0b100: F(1, 2)}), db3),
             (game4, db4), (biswas, db5), (biswas_mod, db5), (sk_game, db6),
             (Game(6, {**sk_game.values, 63: F(7)}), db6), (seeded, db6)]
    balanced = []
    for game, db in cases:
        answers = _index_answers(BalancedIndex(game, db), game, db)
        index = index_for(game, db)
        assert type(index) is (ProgramIndex if game.n >= 6 else BalancedIndex)
        assert _index_answers(ProgramIndex(game, db), game, db) == answers
        assert is_balanced_game(game, db) == answers[0]
        balanced.append(answers[0])
    assert balanced == [True] * 6 + [False, True]


def test_balancedness_needs_matching_n(db3, game4):
    for check in (is_balanced_game, BalancedIndex, ProgramIndex):
        with pytest.raises(ValueError, match="n=4.*n=3"):
            check(game4, db3)


# Read from the database restricted to its set system, each game would get
# a verdict that the complete database contradicts: the first is Stable at
# weak-extendability but would be NotStable at blocking, the second has an
# empty core but would pass balancedness and stop at core-describing.
RESTRICTED_CASES = [
    ([0b011, 0b110], Game(3, {0b001: F(1), 0b011: F(5, 2), 0b100: F(3, 2),
                              0b101: F(3), 0b110: F(3, 2), 0b111: F(6)}),
     "weak-extendability"),
    ([0b011, 0b100], Game(3, {0b011: F(1), 0b101: F(1), 0b110: F(1), 0b111: F(1)}),
     "balancedness"),
]


@pytest.mark.parametrize("loaded", [False, True], ids=["peleg", "loaded"])
@pytest.mark.parametrize("system, game, stage", RESTRICTED_CASES, ids=["stable", "empty-core"])
def test_analysis_refuses_a_restricted_database(system, game, stage, loaded, tmp_path):
    db = peleg(3, set_system=system)
    if loaded:
        path = tmp_path / "r.db"
        with open(path, "w") as out:
            peleg_stream(3, out, set_system=system)
        db = MbcDatabase.load(path)
    assert db.restricted
    family = (0b011,)
    for call in (lambda: BalancedIndex(game, db),
                 lambda: ProgramIndex(game, db),
                 lambda: is_balanced_game(game, db),
                 lambda: effective_set(game, db),
                 lambda: sve_family(game, db),
                 lambda: exact_coalitions(game, db),
                 lambda: FeasibilityOracle(game, db, family),
                 lambda: feasibility_survey(game, db, family),
                 lambda: stability.nested_balancedness_ok(family, family, db, game),
                 lambda: stability.is_core_stable(game, db)):
        with pytest.raises(ValueError, match="analysis needs an unrestricted database"):
            call()
    assert stability.is_core_stable(game, peleg(3)).stage == stage


# ---------------------------------------------------------------------------
# exactness / effectiveness / strict vital-exactness


def test_exactness_examples(db4, game4):
    index = BalancedIndex(game4, db4)
    assert is_exact(coalition_mask([1]), game4, index)
    assert is_exact(full_mask(4), game4, index)


def test_biswas_pair_exact(db5, biswas):
    index = BalancedIndex(biswas, db5)
    assert is_exact(coalition_mask([2, 3]), biswas, index)


def test_three_player_singleton_not_exact(db3):
    game = make_three_player_tight()
    index = BalancedIndex(game, db3)
    assert not is_exact(0b001, game, index)


def test_exactness_requires_balanced(db3):
    game = Game(3, {0b011: F(1), 0b101: F(1), 0b110: F(1), 0b111: F(1)})
    index = BalancedIndex(game, db3)
    with pytest.raises(UnbalancedGameError):
        is_exact(0b001, game, index)


def test_effective_sets(db4, db5, game4, biswas):
    assert effective_set(game4, db4) == {full_mask(4)}
    expected = {full_mask(5)} | {
        coalition_mask(c)
        for c in ([2, 3], [2, 4], [2, 5], [1, 3, 4], [1, 3, 5], [1, 4, 5])
    }
    assert effective_set(biswas, db5) == expected


def test_effective_set_additive_game(db4):
    game = make_additive([1, 2, 3, 4])
    assert effective_set(game, db4) == set(range(1, 16))


def test_sve_families(db4, db5, game4, biswas):
    expected4 = {m for m in range(1, 15) if m.bit_count() in (1, 3)}
    assert set(sve_family(game4, db4)) == expected4
    eff = effective_set(biswas, db5) - {full_mask(5)}
    singles = {1 << i for i in range(5)}
    assert set(sve_family(biswas, db5)) == eff | singles


def test_exact_singleton_is_strictly_vital_exact(db5, biswas):
    index = BalancedIndex(biswas, db5)
    for i in range(5):
        assert is_exact(1 << i, biswas, index)
        assert is_strictly_vital_exact(1 << i, biswas, index)


def test_minimal_effective_members_are_sve(db5, biswas):
    index = BalancedIndex(biswas, db5)
    effective = effective_set(biswas, db5)
    for S in effective:
        if S != full_mask(5) and not any(T != S and T & ~S == 0 for T in effective):
            assert is_strictly_vital_exact(S, biswas, index)


def test_sve_implies_exact_and_exact_implies_derived_balanced(db4, game4):
    index = BalancedIndex(game4, db4)
    for S in range(1, 16):
        exact = is_exact(S, game4, index)
        if S != full_mask(4) and is_strictly_vital_exact(S, game4, index):
            assert exact
        if exact and S != full_mask(4):
            # v^S: v(N) - v(S) on the complement of S
            derived = Game(4, {**game4.values, full_mask(4) ^ S:
                                   game4.grand_value() - game4.value(S)})
            assert is_balanced_game(derived, db4)


def test_exactness_matches_vertex_oracle_random(db4):
    # exactly-balanced games: the grand value is pushed to the tightest
    # collection level, so several coalitions end up tight on the core
    rng = random.Random(97)
    checked = 0
    for _ in range(12):
        values = {mask: F(rng.randint(0, 30), 10) for mask in range(1, 15)}
        probe = Game(4, values)
        level = max(
            sum((w * probe.value(m) for m, w in zip(wc.coalitions, wc.weights)), F(0))
            for wc in db4
            if wc.coalitions != (15,)
        )
        game = Game(4, {**values, 15: level})
        assert is_balanced_game(game, db4)
        index = BalancedIndex(game, db4)
        # the core is bounded and nonempty, so min x(S) over it is attained
        # at a vertex
        vertices = enumerate_vertices(LinearSystem.core(game))
        exact = set(exact_coalitions(game, db4, index))
        for S in range(1, 16):
            lowest = min(sum(x for i, x in enumerate(v) if S >> i & 1) for v in vertices)
            assert (S in exact) == (lowest == game.value(S))
            assert (S in exact) == is_exact(S, game, index)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("S", [-1, 0, 8])
def test_coalition_predicates_reject_masks_out_of_range(S):
    game = Game(3, {7: F(1)})
    index = BalancedIndex(game, peleg(3))
    for predicate in (lambda: is_exact(S, game, index),
                      lambda: is_strictly_vital_exact(S, game, index),
                      lambda: is_extendable(S, game),
                      lambda: is_core_describing([0b001, 0b010, 0b100, S], game),
                      lambda: is_core_describing([0b011, S], game)):
        with pytest.raises(ValueError, match="out of range"):
            predicate()


def _balanced_games(rng, n, db, count):
    """Balanced games on n players, v(N) at the level of the tightest
    minimal balanced collection or above it.  Most take values in {0, 1, 2},
    so that several rows share a coalition's headroom; the rest take tenths
    from -0.5 to 2, with some coalitions left at 0."""
    full = full_mask(n)
    for _ in range(count):
        if rng.random() < 0.6:
            values = {m: F(rng.randint(0, 2)) for m in range(1, full)}
        else:
            values = {m: F(rng.randint(-5, 20), 10) for m in range(1, full)
                      if rng.random() < 0.7}
        level = max(sum((F(x, den) * values.get(m, 0) for m, x in zip(masks, nums)), F(0))
                    for masks, nums, den in db.rows if masks != bytes([full]))
        values[full] = level + rng.choice([F(0), F(0), F(0), F(1), F(1, 2)])
        yield Game(n, values)


@pytest.mark.parametrize("n, set_system, count", [
    (2, None, 60),
    (3, None, 80),
    (4, None, 140),
    (5, None, 20),
])
def test_headroom_matches_override_scan_on_seeded_games(n, set_system, count):
    db = peleg(n, set_system=set_system)
    rng = random.Random(1600 + n + len(set_system or ()))
    for game in _balanced_games(rng, n, db, count):
        index = BalancedIndex(game, db)
        assert index.balanced
        assert exact_coalitions(game, db, index) == exact_reference(game, db)
        assert sve_family(game, db, index) == sve_reference(game, db)
        assert effective_set(game, db, index) == effective_reference(game, db)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_singletons_are_strictly_vital_exact(n):
    # a singleton has no proper nonempty subset, so it is strictly
    # vital-exact exactly when it is exact; once every singleton is exact,
    # as `is_core_stable` checks before its core-describing gate, the
    # family holds every singleton and its polytope is bounded
    db = peleg(n)
    singles = {1 << i for i in range(n)}
    reached = 0
    for game in _balanced_games(random.Random(2000 + n), n, db, 60):
        index = BalancedIndex(game, db)
        family = set(sve_family(game, db, index))
        for S in singles:
            assert (S in family) == is_exact(S, game, index)
        if all(is_exact(S, game, index) for S in singles):
            reached += 1
            assert singles <= family
    assert 0 < reached < 60


def test_override_above_headroom_is_not_exact(db3):
    # {1,2} lies in {3},{1,2} with slack 1 and in {1,2},{1,3},{2,3} (weights
    # 1/2) with slack 1/4: its headroom is 1/2
    values = {0b101: F(3, 4), 0b110: F(3, 4), 0b111: F(1)}
    game = Game(3, values)
    index = BalancedIndex(game, db3)
    # v^{3} raises v(1,2) by 1 > 1/2: no core element has x3 = 0
    assert not is_exact(0b100, game, index)
    assert not is_strictly_vital_exact(0b100, game, index)
    assert not is_balanced_game(Game(3, {**values, 0b011: F(1)}), db3)
    assert 0b100 not in exact_reference(game, db3)
    # with v(3) = 1/2 the rise is exactly 1/2: both rows become tight
    tied = Game(3, {**values, 0b100: F(1, 2)})
    index = BalancedIndex(tied, db3)
    assert is_exact(0b100, tied, index)
    assert is_strictly_vital_exact(0b100, tied, index)
    assert index.at_headroom[0b011] == {0b011, 0b100, 0b101, 0b110}
    derived = Game(3, {**tied.values, 0b011: F(1, 2)})
    assert effective_set(derived, db3) == {0b011, 0b100, 0b101, 0b110, 0b111}
    assert exact_coalitions(tied, db3, index) == exact_reference(tied, db3)
    assert sve_family(tied, db3, index) == sve_reference(tied, db3)


def test_index_for_another_game_or_database_is_rejected(db3):
    g1 = Game(3, {0b111: F(1)})
    g2 = Game(3, {0b011: F(1), 0b111: F(1)})
    assert effective_set(g2, db3) == {0b011, 0b100, 0b111}
    other_game = BalancedIndex(g1, db3)
    other_db = BalancedIndex(g2, peleg(3))
    for index in (other_game, other_db):
        for call in (lambda: effective_set(g2, db3, index),
                     lambda: sve_family(g2, db3, index),
                     lambda: exact_coalitions(g2, db3, index)):
            with pytest.raises(ValueError, match="another game or database"):
                call()
    for predicate in (is_exact, is_strictly_vital_exact):
        with pytest.raises(ValueError, match="another game or database"):
            predicate(0b100, g2, other_game)
    # an equal game built separately is the same game
    same = BalancedIndex(Game(3, dict(g2.values)), db3)
    assert effective_set(g2, db3, same) == {0b011, 0b100, 0b111}


# ---------------------------------------------------------------------------
# extendability


def test_extendability_examples():
    tight = make_three_player_tight()
    assert is_extendable(full_mask(3), tight)
    assert not is_extendable(coalition_mask([1, 2]), tight)
    additive = make_additive([1, 2, 3])
    for S in range(1, 8):
        assert is_extendable(S, additive)


def test_extendability_matches_direct_oracle(db5, biswas_mod):
    family = sve_family(biswas_mod, peleg(5))
    for S in family:
        assert is_extendable(S, biswas_mod) == extendable_direct(S, biswas_mod)


def _seeded_games(rng, n, db, count):
    """Games on n players: random values in tenths, with v(N) at the level
    of the tightest minimal balanced collection, above it or below it."""
    for _ in range(count):
        values = {m: F(rng.randint(0, 20), 10) for m in range(1, full_mask(n))
                  if rng.random() < 0.7}
        level = max(sum((F(x, den) * values.get(m, 0) for m, x in zip(masks, nums)), F(0))
                    for masks, nums, den in db.rows if masks != bytes([full_mask(n)]))
        values[full_mask(n)] = level + rng.choice([F(0), F(0), F(1, 10), F(-1, 10)])
        yield Game(n, values)


@pytest.mark.parametrize("n,count", [(3, 30), (4, 30), (5, 5)], ids=["3", "4", "5"])
def test_extendability_matches_direct_oracle_on_seeded_games(n, count):
    # every proper coalition, so S^c carries its own excess max over Q of
    # v(S^c u Q) - x(Q) against the level v(N) - x(S) in every game
    rng = random.Random(40 + n)
    seen = {True: 0, False: 0}
    for game in _seeded_games(rng, n, peleg(n), count):
        for S in range(1, full_mask(n)):
            verdict = is_extendable(S, game)
            assert verdict == extendable_direct(S, game)
            seen[verdict] += 1
    assert seen[True] > 30 and seen[False] > 30


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_coalition_of_a_convex_game_is_extendable(n):
    # a positive sum of unanimity games is convex, and in a convex game
    # every core element of a subgame extends to a core element
    rng = random.Random(60 + n)
    for _ in range(25):
        game = make_convex(n, rng)
        for S in range(1, full_mask(n) + 1):
            assert is_extendable(S, game)


def test_integer_form_refuses_more_than_max_players():
    # neither is_extendable nor is_core_describing takes a database, so a
    # game of too many players must be refused before its integer form
    # allocates 2^n values: `Game` itself refuses it
    with pytest.raises(ValueError, match=f"n must be in 1..{MAX_PLAYERS}"):
        Game(MAX_PLAYERS + 1, {full_mask(MAX_PLAYERS + 1): F(1)})
    assert len(Game(MAX_PLAYERS, {}).scaled[0]) == 1 << MAX_PLAYERS


def test_four_player_triples_not_extendable(game4):
    assert not is_extendable(coalition_mask([1, 2, 3]), game4)
    assert is_extendable(coalition_mask([1]), game4)


# ---------------------------------------------------------------------------
# core-describing families


def test_core_describing_full_family():
    game = make_three_player_tight()
    assert is_core_describing(range(1, 8), game)


def test_core_describing_fails_for_singletons_only():
    game = make_three_player_tight()
    assert not is_core_describing([0b001, 0b010, 0b100], game)


def test_core_describing_four_player_sve(db4, game4):
    assert is_core_describing(sve_family(game4, db4), game4)


def test_core_describing_unbounded_family_is_false():
    # x(N) = v(N) and x_1 + x_2 >= v(12) leave x_1 - x_2 free
    game = make_three_player_tight()
    assert not is_core_describing([0b011], game)


def _all_families(n):
    coalitions = range(1, full_mask(n) + 1)
    for bits in range(1 << len(coalitions)):
        yield tuple(S for i, S in enumerate(coalitions) if bits >> i & 1)


def test_core_describing_matches_definition_on_every_three_player_family():
    # the empty family and families holding N among them; every unbounded
    # family polytope answers False
    game = make_three_player_tight()
    unbounded = 0
    for family in _all_families(3):
        verdict = is_core_describing(family, game)
        assert verdict == core_describing_definition(family, game), family
        if family_unbounded_reference(LinearSystem.family_polytope(game, family)):
            unbounded += 1
            assert not verdict, family
    assert 0 < unbounded < 128


def _core_describing_cases(n, rng, db, count):
    """Seeded (game, family) pairs on n players.  With a database: the sve
    family of a balanced game, that family with N added, and a random
    family of the same game.  Without one: random families of
    near-additive games.  Half the random families hold every singleton;
    the rest are often unbounded.  Each game also meets its singletons
    plus a few random coalitions at v(N) one below the singletons' sum,
    an empty polytope."""
    full = full_mask(n)
    if db is not None:
        games = list(_balanced_games(rng, n, db, count))
    else:
        # near-additive games: a few coalitions rise above the additive
        # value, so that a family misses a binding row only sometimes
        games = []
        for _ in range(count):
            a = [F(rng.randint(-2, 6), rng.choice((1, 2))) for _ in range(n)]
            values = {m: sum(a[i] for i in range(n) if m >> i & 1)
                      + (1 if rng.random() < 0.02 else -rng.randint(0, 2))
                      for m in range(1, full + 1)}
            values.update({1 << i: a[i] for i in range(n)})
            values[full] = sum(a) + rng.randint(0, 3)
            games.append(Game(n, values))
    singles = [1 << i for i in range(n)]
    for game in games:
        picks = rng.sample(range(1, full + 1), rng.randint(0, min(full, 9)))
        if rng.random() < 0.5:
            picks += singles
        families = [sorted(set(picks))]
        if db is not None:
            sve = sve_family(game, db)
            families += [sve, sorted({*sve, full})]
        for family in families:
            yield game, family
        low = Game(n, {**game.values,
                       full: sum(game.value(m) for m in singles) - 1})
        yield low, sorted({*singles, *rng.sample(range(1, full), min(full - 1, 4))})


@pytest.mark.parametrize("n, count", [(2, 15), (3, 20), (4, 20), (5, 12), (6, 40)])
def test_core_describing_matches_definition_on_seeded_pairs(n, count):
    # for n <= 5 against the definition by Fourier-Motzkin, unbounded family
    # polytopes included; for n = 6 against the earlier loop over the
    # vertices of the family polytope, which needs a bounded one, and an
    # unbounded one (as the recession-cone probe says) must answer False
    db = peleg(n) if n <= 5 else None
    outcomes = []  # 348 pairs over the five values of n
    for game, family in _core_describing_cases(n, random.Random(1800 + n), db, count):
        verdict = is_core_describing(family, game)
        unbounded = family_unbounded_reference(LinearSystem.family_polytope(game, family))
        if unbounded:
            assert not verdict, (n, game, family)
        if n <= 5:
            assert verdict == core_describing_definition(family, game), (n, game, family)
        elif not unbounded:
            assert verdict == core_describing_reference(family, game), (n, game, family)
        outcomes.append("unbounded" if unbounded else verdict)
    assert {True, False, "unbounded"} <= set(outcomes)


# ---------------------------------------------------------------------------
# feasibility


def test_association_pool_is_the_row_filter(db3, db4, db5, db6, game4, biswas,
                                            biswas_mod, sk_game):
    # the walk over the sorted keys keeps what a filter of every row keeps,
    # in row order: the fixtures' pools, and seeded universes with the
    # singletons alone and with every coalition among them
    dbs = {2: peleg(2), 3: db3, 4: db4, 5: db5, 6: db6}
    rows = {n: tuple(db.rows) for n, db in dbs.items()}

    def filtered(n, universe):
        return [row for row in rows[n] if universe.issuperset(row[0])]

    for game, db in [(game4, db4), (biswas, db5), (biswas_mod, db5), (sk_game, db6)]:
        family = sve_family(game, db)
        universe = {1 << i for i in range(game.n)} | set(family)
        universe |= {full_mask(game.n) ^ T for T in family}
        pool = props.association_pool(db, family, game.n)
        assert pool == filtered(game.n, universe) and pool
    rng = random.Random(35)
    sizes = set()
    for n, count in [(2, 45), (3, 45), (4, 45), (5, 45), (6, 20)]:
        full = full_mask(n)
        universes = [{1 << i for i in range(n)}, set(range(1, full + 1))]
        for _ in range(count):
            p = rng.random()
            universes.append({m for m in range(1, full + 1) if rng.random() < p})
        for universe in universes:
            within = dbs[n].rows.within(universe)
            assert within == filtered(n, universe)
            sizes.add(len(within) / len(rows[n]))
    assert {0, 1} < sizes and len(sizes) > 50


def test_empty_collection_feasible(db4, game4):
    family = sve_family(game4, db4)
    assert FeasibilityOracle(game4, db4, family).feasible(())


def test_blocking_pair_feasible(db4, game4):
    family = sve_family(game4, db4)
    pair = (coalition_mask([1, 2, 3]), coalition_mask([1, 3, 4]))
    assert FeasibilityOracle(game4, db4, family).feasible(pair)
    assert is_blocking(pair, 4)


def test_collection_outside_family_rejected(db4, game4):
    family = sve_family(game4, db4)
    with pytest.raises(ValueError):
        FeasibilityOracle(game4, db4, family).feasible((coalition_mask([1, 2]),))


def test_feasible_collections_contain_no_balanced_subcollection(db4, game4):
    family = sve_family(game4, db4)
    oracle = FeasibilityOracle(game4, db4, family)
    found = list(feasible_collections(oracle))
    assert found
    for collection in found:
        member_set = set(collection)
        for wc in db4:
            assert not set(wc.coalitions) <= member_set


def test_feasibility_matches_region_probe_random(db4):
    # every proper nonempty coalition; then all but {1} and its complement
    # {2,3,4}, so that the rows holding either of them lie outside the
    # family and its complements and the oracle must drop them
    for family in (tuple(range(1, 15)),
                   tuple(m for m in range(1, 15) if m not in (0b0001, 0b1110))):
        rng = random.Random(13)
        games = 0
        while games < 8:
            values = {mask: F(rng.randint(0, 25), 10) for mask in range(1, 15)}
            values[15] = F(rng.randint(22, 35), 10)
            game = Game(4, values)
            if not is_balanced_game(game, db4):
                continue
            games += 1
            oracle = FeasibilityOracle(game, db4, family)
            for _ in range(40):
                size = rng.randint(1, 3)
                collection = tuple(sorted(rng.sample(family, size)))
                assert oracle.feasible(collection) == region_nonempty(
                    collection, family, game
                )


def _assert_walk_agrees(game, db, family=None):
    """The subset-set pass lists the same feasible collections, in the same
    order, as one walk of the entries per subcollection."""
    if family is None:
        family = sve_family(game, db)
    oracle = FeasibilityOracle(game, db, family)
    found = list(feasible_collections(oracle))
    assert found == list(feasible_collections_reference(oracle))
    return found


def _relabelled(game, perm):
    """The game with player p renamed perm[p - 1]."""
    def moved(mask):
        return sum(1 << (perm[i] - 1) for i in range(game.n) if mask >> i & 1)
    return Game(game.n, {moved(m): v for m, v in game.values.items()})


def test_feasible_collections_match_entry_walk_on_fixtures(
        db4, game4, db5, biswas, biswas_mod, db6, sk_game):
    counts = [len(_assert_walk_agrees(game, db)) for game, db in (
        (game4, db4), (biswas, db5), (biswas_mod, db5), (sk_game, db6))]
    assert counts == [64, 300, 760, 1545]
    # every distinct relabelling of the Biswas game (the stable5 inputs)
    games = {}
    for perm in permutations(range(1, 6)):
        game = _relabelled(biswas, perm)
        games[tuple(sorted(game.values.items()))] = game
    assert len(games) == 20
    for game in games.values():
        assert len(_assert_walk_agrees(game, db5)) == 300


def test_feasible_collections_match_entry_walk_on_seeded_games(db3, db4, db5):
    dbs = {3: db3, 4: db4, 5: db5}
    rng = random.Random(24)
    sizes = set()
    games = 0
    while games < 300:
        n = rng.randint(3, 5)
        full = full_mask(n)
        values = {m: F(rng.randint(0, 9)) for m in range(1, full)
                  if rng.random() < 0.7}
        # v(N) at or just above the largest weighted sum of a collection,
        # so the game is balanced and some collections are tight
        db = dbs[n]
        values[full] = max(
            F(sum(x * values.get(m, 0) for m, x in zip(masks, nums)), den)
            for masks, nums, den in db.rows) + F(rng.randint(0, 3), rng.randint(1, 4))
        game = Game(n, values)
        family = sve_family(game, db)
        if len(family) > 14:
            continue
        games += 1
        sizes.add(len(family))
        _assert_walk_agrees(game, db, family)
    assert len(sizes) >= 8


# a nonnegative sum of unanimity games (so convex) whose strictly vital-exact
# family has 16 members: 65,535 subcollections, 1,371 of them feasible
CONVEX5 = (
    '{"n":5,"values":{"1":"4","1,2":"4","3":"2","1,3":"6","2,3":"2",'
    '"1,2,3":"6","1,4":"5","1,2,4":"9","3,4":"2","1,3,4":"7","2,3,4":"3",'
    '"1,2,3,4":"12","1,5":"4","1,2,5":"6","3,5":"2","1,3,5":"6","2,3,5":"4",'
    '"1,2,3,5":"10","1,4,5":"5","1,2,4,5":"11","3,4,5":"5","1,3,4,5":"10",'
    '"2,3,4,5":"8","1,2,3,4,5":"19"}}')


def test_feasible_collections_match_entry_walk_on_convex_game(db5):
    game = parse_game(CONVEX5)
    assert len(sve_family(game, db5)) == 16
    assert len(_assert_walk_agrees(game, db5)) == 1371


@pytest.mark.parametrize("bits", [0, 3])
def test_feasible_collections_across_block_boundaries(db5, biswas_mod, bits,
                                                      monkeypatch):
    # a 14-member family over blocks of 2**bits subcollections: 16,384 blocks
    # of one subcollection each, or 2,048 of eight
    monkeypatch.setattr(props, "BLOCK_BITS", bits)
    assert len(_assert_walk_agrees(biswas_mod, db5)) == 760


def test_feasibility_survey_four_player(db4, game4):
    family = sve_family(game4, db4)
    survey = feasibility_survey(game4, db4, family)
    assert len(survey) == 64
    blocking = [r.collection for r in survey if r.blocking]
    assert len(blocking) == 6
    # every singleton region is feasible and escapes through extendability
    singles = [r for r in survey if len(r.collection) == 1
               and r.collection[0].bit_count() == 1]
    assert len(singles) == 4 and all(r.has_min_extendable for r in singles)
