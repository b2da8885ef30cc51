"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-8 pin recorded end-to-end fixture runs.  Where a recorded
witness is one of several symmetric, equally valid certificates, the tests
assert both our deterministic witness and that the recorded one is
independently confirmed (it appears among the reported certificates, or its
collection fails the nested condition).  Two recorded values of the
modified five-player fixture contradict what two independent exact methods
compute here; those two tests assert the recorded values and fail, rather
than encode numbers this implementation cannot honestly produce.  The
README covers the analysis.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from random import Random

from mbc import (
    Game,
    MbcDatabase,
    WeightedCollection,
    coalition_mask,
    is_balanced_collection,
    peleg,
)
from mbc.generate import (
    apply_case1,
    apply_case2,
    apply_case3,
    apply_case4,
    peleg_stream,
)
from mbc.linalg import RatMatrix, UNIQUE, rank, solve_unique
from mbc.model import full_mask, members
from mbc.polytope import LinearSystem, enumerate_vertices
from mbc.props import (
    BalancedIndex,
    FeasibilityOracle,
    effective_set,
    feasibility_survey,
    is_balanced_game,
    sve_family,
)
from mbc.stability import (
    NOT_STABLE,
    UNKNOWN,
    StabilityCaps,
    is_core_stable,
    is_minimal_balanced_set,
    nested_balancedness_ok,
)
from conftest import (
    ACCEPTANCE_RESULTS,
    make_biswas,
    make_four_player,
    make_studeny_kratochvil,
)
from oracles import brute_force_mbcs, mbc_via_vertices

F = Fraction

MASK = coalition_mask


@contextmanager
def criterion(num, label):
    """Prints one PASS/FAIL line per criterion (shown in the run summary)."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((num, label, False))
        print(f"\nACCEPTANCE criterion {num}: FAIL - {label}")
        raise
    ACCEPTANCE_RESULTS.append((num, label, True))
    print(f"\nACCEPTANCE criterion {num}: PASS - {label}")


def keyset(masks):
    return {frozenset(members(m)) for m in masks}


# ---------------------------------------------------------------------------


def test_criterion_1_generation_counts(tmp_path):
    with criterion(1, "collection counts 1,2,6,42,1292,200214 within budget; "
                      "saved file = streamed file, loaded back"):
        start = time.monotonic()
        for n, expected in ((1, 1), (2, 2), (3, 6), (4, 42), (5, 1292)):
            assert len(peleg(n)) == expected
        small = time.monotonic() - start
        assert small < 5.0, f"n<=5 took {small:.2f}s"
        start = time.monotonic()
        assert len(peleg(6)) == 200214
        big = time.monotonic() - start
        assert big < 300.0, f"n=6 took {big:.1f}s"
        saved, streamed = tmp_path / "saved.db", tmp_path / "streamed.db"
        for n in (1, 2, 3, 4, 5):
            db = peleg(n)
            db.save(saved)
            with open(streamed, "w") as fh:
                assert peleg_stream(n, fh) == len(db)
            assert saved.read_bytes() == streamed.read_bytes()
            assert MbcDatabase.load(saved).rows == db.rows


def test_criterion_2_oracle_equivalence():
    with criterion(2, "peleg = vertex oracle = brute force for n <= 4, exact"):
        for n in (1, 2, 3, 4):
            via_peleg = [(w.coalitions, w.weights) for w in peleg(n)]
            via_vertices = [(w.coalitions, w.weights) for w in mbc_via_vertices(n)]
            via_brute = [(w.coalitions, w.weights) for w in brute_force_mbcs(n)]
            assert via_peleg == via_vertices == via_brute


def test_criterion_3_single_step_regressions(db5, db3):
    with criterion(3, "the four worked single-step constructions, exact"):
        base = WeightedCollection(
            (MASK([1, 2]), MASK([1, 3]), MASK([1, 4]), MASK([2, 3, 4])),
            (F(1, 3), F(1, 3), F(1, 3), F(2, 3)),
        )
        first = apply_case1(base, [0, 3], 5)
        assert first.coalitions == (
            MASK([1, 3]), MASK([1, 4]), MASK([1, 2, 5]), MASK([2, 3, 4, 5])
        )
        assert first.weights == (F(1, 3), F(1, 3), F(1, 3), F(2, 3))

        second = apply_case2(base, [3], 5)
        assert second.coalitions == (
            MASK([1, 2]), MASK([1, 3]), MASK([1, 4]), MASK([5]), MASK([2, 3, 4, 5])
        )
        assert second.weights == (F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(2, 3))

        third = apply_case3(base, [0, 1], 3, 5)
        assert third.coalitions == (
            MASK([1, 4]), MASK([2, 3, 4]), MASK([1, 2, 5]),
            MASK([1, 3, 5]), MASK([2, 3, 4, 5]),
        )
        assert third.weights == (F(1, 3),) * 5

        last = apply_case4(
            WeightedCollection((0b01, 0b10), (F(1), F(1))),
            WeightedCollection((0b11,), (F(1),)),
            [0, 1],
            3,
        )
        assert last.coalitions == (MASK([1, 2]), MASK([1, 3]), MASK([2, 3]))
        assert last.weights == (F(1, 2), F(1, 2), F(1, 2))

        for case in (first, second, third):
            assert db5.contains(case.coalitions)
        assert db3.contains(last.coalitions)


def test_criterion_4_balancedness_vs_vertex_oracle(db4):
    with criterion(4, "500 random games: collection test = vertex oracle, 100%"):
        rng = Random(2024)
        start = time.monotonic()
        for _ in range(500):
            values = {
                mask: F(rng.randint(0, 500), 100) for mask in range(1, 15)
            }
            values[15] = F(50)
            game = Game(4, values)
            balanced = is_balanced_game(game, db4)
            vertices = enumerate_vertices(LinearSystem.core(game))
            assert balanced == bool(vertices)
            assert balanced, "every generated game must have a nonempty core"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_four_player_fixture(db4):
    with criterion(5, "4-player fixture: effective set, vital-exact family, blocking"):
        game = make_four_player()
        start = time.monotonic()
        index = BalancedIndex(game, db4)
        assert effective_set(game, db4, index) == {full_mask(4)}
        family = sve_family(game, db4, index)
        assert keyset(family) == keyset(
            [m for m in range(1, 15) if m.bit_count() in (1, 3)]
        )
        report = is_core_stable(game, db4)
        assert report.verdict == NOT_STABLE
        assert report.stage == "blocking"
        pairs = [
            {frozenset(int(p) for p in key.split(",")) for key in pair}
            for pair in report.witness["all_blocking_pairs"]
        ]
        recorded = {frozenset({1, 3, 4}), frozenset({1, 2, 3})}
        assert recorded in pairs  # the recorded certificate is reported
        # and a direct query of its region confirms it feasible
        assert FeasibilityOracle(game, db4, family).feasible(
            (MASK([1, 2, 3]), MASK([1, 3, 4])))
        # deterministic first witness under canonical enumeration
        assert report.witness["blocking_pair"] == ["1,2,3", "1,2,4"]
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_6_biswas_fixture(db5):
    with criterion(6, "5-player fixture: effective six, family of 11, unstable"):
        game = make_biswas()
        start = time.monotonic()
        index = BalancedIndex(game, db5)
        effective = effective_set(game, db5, index)
        assert keyset(effective - {full_mask(5)}) == {
            frozenset(c)
            for c in ({2, 3}, {2, 4}, {2, 5}, {1, 3, 4}, {1, 3, 5}, {1, 4, 5})
        }
        family = sve_family(game, db5, index)
        assert len(family) == 11
        assert set(family) == (effective - {full_mask(5)}) | {
            1 << i for i in range(5)
        }
        survey = feasibility_survey(game, db5, family)
        surviving = [r.collection for r in survey if not r.has_min_extendable]
        triples = (MASK([1, 3, 4]), MASK([1, 3, 5]), MASK([1, 4, 5]))
        expected = [
            tuple(sorted(c))
            for r in (1, 2, 3)
            for c in combinations(triples, r)
        ]
        assert sorted(surviving) == sorted(expected)
        report = is_core_stable(game, db5)
        assert report.verdict == NOT_STABLE
        assert report.stage == "nested-balancedness"
        # deterministic first failure, and the recorded failing collection
        # is confirmed to fail the nested condition as well
        assert report.witness["collection"] == ["1,3,4", "1,3,5"]
        status, _ = nested_balancedness_ok(
            (MASK([1, 3, 5]), MASK([1, 4, 5])), family, db5, game,
            StabilityCaps(max_systems=None, time_limit=None),
        )
        assert status == "fail"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _modified_biswas_survey(db5):
    game = make_biswas(F(31, 10))
    index = BalancedIndex(game, db5)
    family = sve_family(game, db5, index)
    survey = feasibility_survey(game, db5, family)
    surviving = [r.collection for r in survey if not r.has_min_extendable]
    return game, index, family, survey, surviving


def test_criterion_7_fixture_values(db5):
    with criterion(7, "modified 5-player fixture: family of 14, no blocking"):
        game, index, family, survey, surviving = _modified_biswas_survey(db5)
        assert effective_set(game, db5, index) == {full_mask(5)}
        assert len(family) == 14
        base_family = sve_family(make_biswas(), db5)
        assert set(family) - set(base_family) == {
            MASK([1, 3]), MASK([1, 4]), MASK([1, 5])
        }
        assert max(len(c) for c in surviving) == 6
        assert not any(r.blocking for r in survey)


def test_criterion_7_recorded_survivor_count(db5):
    """The recorded reference run reports 51 feasible collections without a
    minimal extendable member for this fixture.  Two independent exact
    methods here (the collection-sum test and a strict-inequality
    feasibility probe of the regions themselves) agree on 35, and the
    extendability classification is confirmed by a second exact method as
    well.  The recorded value is asserted and expected to fail."""
    with criterion(7, "modified fixture: recorded surviving-collection count"):
        _, _, _, _, surviving = _modified_biswas_survey(db5)
        assert len(surviving) == 51, (
            f"recorded count 51; two independent methods compute {len(surviving)}"
        )


def test_criterion_7_recorded_capped_verdict(db5):
    """The recorded reference run estimated the largest surviving collection
    alone as intractable, leading to an expected Unknown verdict under a
    10-minute cap.  This implementation finds a small failing collection
    first and decides NotStable in well under a minute; the failing system
    is re-verified by exhaustive enumeration in the stability tests.  The
    recorded expectation is asserted and expected to fail."""
    with criterion(7, "modified fixture: recorded Unknown verdict under caps"):
        game, _, _, _, _ = _modified_biswas_survey(db5)
        report = is_core_stable(game, db5, StabilityCaps(max_systems=20_000,
                                                         time_limit=600.0))
        assert report.verdict == UNKNOWN, (
            f"recorded verdict Unknown; the implementation decides "
            f"{report.verdict} at stage {report.stage}"
        )


def test_criterion_7_run_behavior(db5):
    with criterion(7, "modified fixture: capped runs record stage; full run decides"):
        game = make_biswas(F(31, 10))
        # under a tight deterministic cap the verdict degrades to Unknown
        # with the stage and first capped collection recorded (every
        # surviving collection here admits at least 6 system classes)
        capped = is_core_stable(game, db5, StabilityCaps(max_systems=1))
        assert capped.verdict == UNKNOWN
        assert capped.stage == "nested-balancedness"
        assert capped.witness["reason"] == "system-cap"
        assert capped.witness["collection"]
        # the 10-minute budget is respected with room to spare, with a
        # definitive (brute-force verified) verdict instead of a timeout
        start = time.monotonic()
        full = is_core_stable(game, db5, StabilityCaps(max_systems=20_000,
                                                       time_limit=600.0))
        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        assert full.verdict == NOT_STABLE
        assert full.stage == "nested-balancedness"
        assert full.witness["collection"] == ["1,3,4", "1,3,5"]


def test_criterion_8_studeny_kratochvil_fixture(db6):
    with criterion(8, "6-player fixture: family of 13, survivors, unstable"):
        game = make_studeny_kratochvil()
        start = time.monotonic()
        index = BalancedIndex(game, db6)
        family = sve_family(game, db6, index)
        listed = [{1}, {2}, {3}, {4}, {5}, {6}, {2, 5}, {3, 6}, {1, 3, 5},
                  {2, 3, 6}, {1, 2, 4, 6}, {2, 3, 4, 5}, {3, 4, 5, 6}]
        assert keyset(family) == {frozenset(c) for c in listed}
        survey = feasibility_survey(game, db6, family)
        surviving = [r.collection for r in survey if not r.has_min_extendable]
        pool = (MASK([1, 3, 5]), MASK([2, 3, 4, 5]), MASK([3, 4, 5, 6]))
        expected = [
            tuple(sorted(c))
            for r in (1, 2, 3)
            for c in combinations(sorted(pool), r)
        ]
        assert sorted(surviving) == sorted(expected)
        report = is_core_stable(game, db6)
        assert report.verdict == NOT_STABLE
        assert report.stage == "nested-balancedness"
        assert report.witness["collection"] == ["1,3,5", "2,3,4,5"]
        # the recorded failing collection fails here too
        status, _ = nested_balancedness_ok(
            (MASK([1, 3, 5]), MASK([3, 4, 5, 6])), family, db6, game,
            StabilityCaps(max_systems=None, time_limit=None),
        )
        assert status == "fail"
        elapsed = time.monotonic() - start
        assert elapsed < 1140.0, f"took {elapsed:.0f}s"  # 20 min minus db time


def test_criterion_9_property_suites(db5, db6):
    with criterion(9, "soundness, anti-partitions, balanced-set fixtures, witnesses"):
        # soundness of every stored collection, n <= 5 fully
        for n in (1, 2, 3, 4, 5):
            db = peleg(n) if n < 5 else db5
            for wc in db:
                assert len(wc) <= n
                assert all(w > 0 for w in wc.weights)
                assert wc.player_sums(n) == [F(1)] * n
                assert rank(RatMatrix.from_collection(wc.coalitions, n)) == len(wc)
        # and the n=6 database: exact per-player sums and positivity for all,
        # linear independence on a deterministic slice
        for i, wc in enumerate(db6):
            assert all(w > 0 for w in wc.weights)
            assert wc.player_sums(6) == [F(1)] * 6
            if i % 101 == 0:
                assert rank(RatMatrix.from_collection(wc.coalitions, 6)) == len(wc)

        # anti-partitions with weights 1/(s-1) are present for n <= 5
        def partitions(elements):
            if not elements:
                yield []
                return
            head, *rest = elements
            for smaller in partitions(rest):
                for i in range(len(smaller)):
                    yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1:]
                yield [[head]] + smaller

        for n in (2, 3, 4, 5):
            db = peleg(n) if n < 5 else db5
            for blocks in partitions(list(range(1, n + 1))):
                s = len(blocks)
                if s < 2:
                    continue
                anti = tuple(sorted(
                    full_mask(n) ^ coalition_mask(block) for block in blocks
                ))
                expected = WeightedCollection(anti, (F(1, s - 1),) * len(anti))
                assert db.contains(anti)
                assert next(w for w in db if w.coalitions == anti) == expected

        # balanced-set fixtures: the negative-weight rejection and the
        # two-vector acceptance
        status, delta = solve_unique(
            RatMatrix.from_columns(
                [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, F(1, 10), 1),
                 (0, F(1, 5), F(1, 10), F(1, 2))]
            ),
            [1, 1, 1, 1],
        )
        assert status == UNIQUE
        assert delta == (F(25, 31), F(-4, 31), F(10, 31), F(50, 31))
        assert not is_minimal_balanced_set(
            [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, F(1, 10), 1),
             (0, F(1, 5), F(1, 10), F(1, 2))], 4
        )
        assert is_minimal_balanced_set([(1, F(2, 5), 0), (0, F(3, 5), 1)], 3)

        # unbalanced-collection witnesses
        db3 = peleg(3)
        db4 = peleg(4)
        for n, collection, y, db in (
            (3, [MASK([1, 2]), MASK([1, 3]), MASK([1])], (2, -1, -1), db3),
            (4, [MASK([1]), MASK([1, 2]), MASK([1, 3]), MASK([1, 4]),
                 MASK([1, 2, 3]), MASK([1, 2, 4]), MASK([1, 3, 4])],
             (3, -1, -1, -1), db4),
        ):
            assert sum(y) == 0
            for mask in collection:
                assert sum(y[p - 1] for p in members(mask)) > 0
            assert not is_balanced_collection(collection, db)
