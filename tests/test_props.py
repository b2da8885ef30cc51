import random
from fractions import Fraction

import pytest

from mbc import Game, MbcDatabase, coalition_mask, peleg, stability
from mbc.generate import peleg_stream
from mbc.model import full_mask
from mbc.polytope import LinearSystem, enumerate_vertices
from mbc.props import (
    BalancedIndex,
    FeasibilityOracle,
    UnbalancedGameError,
    effective_set,
    exact_coalitions,
    feasibility_survey,
    feasible_collections,
    is_balanced_game,
    is_blocking,
    is_core_describing,
    is_exact,
    is_extendable,
    is_strictly_vital_exact,
    minimal_members,
    sve_family,
)
from conftest import make_additive, make_three_player_tight
from oracles import (
    core_describing_definition,
    core_describing_reference,
    effective_reference,
    exact_reference,
    extendable_direct,
    family_unbounded_reference,
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
        for wc in db4.collections:
            if sum(w * game.value(m) for m, w in wc.items()) > game.grand_value():
                first = wc
                break
        assert witness == first
        assert is_balanced_game(game, db4) == (first is None)
        unbalanced += witness is not None
    assert 0 < unbalanced < 60


def test_balancedness_needs_matching_n(db3, game4):
    for check in (is_balanced_game, BalancedIndex):
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
    for S in minimal_members(sorted(effective)):
        if S != full_mask(5):
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
            sum((w * probe.value(m) for m, w in wc.items()), F(0))
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
                    for masks, nums, den in db.rows if masks != (full,))
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
    assert len(index.argmin[0b011]) == 2
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
                    for masks, nums, den in db.rows if masks != (full_mask(n),))
        values[full_mask(n)] = level + rng.choice([F(0), F(0), F(1, 10), F(-1, 10)])
        yield Game(n, values)


@pytest.mark.parametrize("n", [3, 4])
def test_extendability_matches_direct_oracle_on_seeded_games(n):
    # every proper coalition, so S^c carries its own excess max over Q of
    # v(S^c u Q) - x(Q) against the level v(N) - x(S) in every game
    rng = random.Random(40 + n)
    seen = {True: 0, False: 0}
    for game in _seeded_games(rng, n, peleg(n), 30):
        for S in range(1, full_mask(n)):
            verdict = is_extendable(S, game)
            assert verdict == extendable_direct(S, game)
            seen[verdict] += 1
    assert seen[True] > 30 and seen[False] > 30


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


def test_minimal_members():
    a, b, c = 0b001, 0b011, 0b110
    assert minimal_members((a, b, c)) == [a, c]
    assert minimal_members((b,)) == [b]
