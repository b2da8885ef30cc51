import json
import random
from fractions import Fraction
from itertools import combinations, count
from math import lcm

import pytest

from mbc import Game, WeightedCollection, coalition_mask, linalg, stability
from mbc.generate import MINIMAL, NOT_BALANCED, check_minimal_balanced
from mbc.linalg import is_minimal_balanced_set, minimal_balanced_sets
from mbc.model import full_mask
from mbc.props import (
    FeasibilityOracle,
    feasibility_survey,
    feasible_collections,
    sve_family,
)
from mbc.stability import (
    NOT_STABLE,
    STABLE,
    UNKNOWN,
    StabilityCaps,
    admissible_collections,
    associated_collections,
    association_pool,
    is_core_stable,
    nested_balancedness_ok,
    omega_base,
    omega_pattern,
)
from conftest import (
    db_row,
    make_additive,
    make_biswas,
    make_not_core_describing,
    make_three_player_tight,
)
from oracles import (
    admissible_systems,
    brute_nested_system_satisfied,
    check_minimal_balanced_reference,
    core_describing_definition,
    minimal_balanced_sets_reference,
    nested_clause_reference,
    nested_system_reference,
)

F = Fraction


def wc(pairs):
    pairs = sorted(pairs)
    return WeightedCollection(
        tuple(m for m, _ in pairs), tuple(F(w) for _, w in pairs)
    )


# ---------------------------------------------------------------------------
# association and admissibility


def associated(S, family, db):
    return associated_collections(
        S, db.n, family, association_pool(db, (*family, S), db.n))


def test_association_example(db4):
    family = tuple(range(1, 16))
    collection = wc([(0b0001, 1), (0b0010, 1), (0b1100, 1)])
    S = coalition_mask([1, 2])
    assert db_row(collection) in associated(S, family, db4)
    # the same collection is associated with {1,2,3} as well
    assert db_row(collection) in associated(coalition_mask([1, 2, 3]), family, db4)
    # {N} is never associated: it contains no singleton
    grand = wc([(0b1111, 1)])
    for S in family:
        assert db_row(grand) not in associated(S, family, db4)


def test_admissibility_example(db4):
    family = tuple(range(1, 16))
    S = coalition_mask([1, 4])
    collection = (coalition_mask([2, 3]), S)
    candidate = wc([(0b0011, F(1, 2)), (0b0101, F(1, 2)), (0b0110, F(1, 2)), (0b1000, 1)])
    admissible = admissible_collections(S, collection, 4, family, db4.rows)
    assert db_row(candidate) in admissible
    # second clause: dropping S's singletons leaves nothing touching the
    # collection or its complements
    partition = wc([(0b0001, 1), (0b1000, 1), (0b0110, 1)])
    assert db_row(partition) in associated(S, family, db4)
    assert db_row(partition) in admissible


def test_admissible_systems_product(db4):
    family = tuple(range(1, 16))
    collection = (coalition_mask([1, 2, 3]), coalition_mask([1, 2, 4]))
    lists = [
        admissible_collections(S, collection, 4, family, db4.rows)
        for S in collection
    ]
    systems = list(admissible_systems(collection, family, db4))
    assert len(systems) == len(lists[0]) * len(lists[1])
    assert all(set(system) == set(collection) for system in systems)


# ---------------------------------------------------------------------------
# Omega and the a-values


def _a_value(entry, scale):
    """The a-value of an Omega entry (u, s, k): k over D·s."""
    _, s, k = entry
    return F(k, scale * s)


def test_shared_pattern_vector(db3, monkeypatch):
    # z^S of the collection {1},{2,3} is (1,0,0), the family vector of the
    # singleton {1}: Omega holds it once, with the larger of the two a-values
    S = coalition_mask([1, 2])
    shared = wc([(0b001, 1), (0b110, 1)]).to_row()
    pattern = (1, 0, 0)
    family = tuple(range(1, 7))
    systems = []
    nested, decide = stability._nested_for_system, linalg.vertex_clause

    def record_system(base, b0, bound, combo, diagnostics):
        systems.append([u for _, u, *_ in combo])
        nested(base, b0, bound, combo, diagnostics)
        return True

    def record_lp(columns, costs, bound, marked):
        systems[-1] = (systems[-1], columns, costs, bound)
        return decide(columns, costs, bound, marked)

    monkeypatch.setattr(stability, "_nested_for_system", record_system)
    monkeypatch.setattr(linalg, "vertex_clause", record_lp)
    for v1 in (F(1, 2), F(3, 2)):
        game = Game(3, {0b001: v1, 0b110: F(1), 0b111: F(2)})
        V, scale = game.scaled
        entry = omega_pattern(S, shared, V, V[0b111], 3)
        assert entry[:2] == (pattern, 1)
        assert _a_value(entry, scale) == F(1)
        systems.clear()
        assert nested_balancedness_ok((S,), family, db3, game) == ("ok", None)
        merged = [s for s in systems if pattern in s[0]]
        assert merged
        for _, columns, costs, bound in merged:
            assert columns.count(pattern) == 1
            cost = costs[columns.index(pattern)]
            # costs are a-values times the game's scale D, bound = v(N)·D
            assert F(cost, bound) * game.grand_value() == max(v1, F(1))


def test_a_value_cases():
    game = Game(3, {0b011: F(1), 0b111: F(2), 0b100: F(1, 4), 0b101: F(1, 2)})
    V, scale = game.scaled
    S = 0b011
    family = (S, 0b100, 0b101)
    table, b0 = omega_base((S,), family, V, V[0b111], 3)
    assert {key: _a_value(entry, scale) for key, entry in table.items()} == {
        # the complement of S is also the family vector of {3}: the larger
        # of v(N) - v(S) and v({3})
        ((0, 0, 1), 1): max(game.grand_value() - game.value(S), F(1, 4)),
        # a family vector alone: a = v(T); S itself is in the collection
        ((1, 0, 1), 1): F(1, 2),
    }
    assert all(u == key[0] and s == 1 for key, (u, s, _) in table.items())
    # the complement vector is in B0 at a = v(N) - v(S)
    assert {key: F(k, scale) for key, k in b0.items()} == {((0, 0, 1), 1): F(1)}
    # pattern vector (1,1,0): v(N) minus the non-singleton part of the
    # sum, evaluated on the derived game, where {3} carries v(N) - v(S)
    partition = wc([(0b001, 1), (0b010, 1), (0b100, 1)]).to_row()
    entry = omega_pattern(S, partition, V, V[0b111], 3)
    assert entry[:2] == ((1, 1, 0), 1)
    assert _a_value(entry, scale) == F(2) - (F(2) - F(1))
    # a pattern over den = 6 whose numerators share the factor 2 is the
    # vector (1,2,0)/3, and its a-value is k over D·6
    row = ((0b001, 0b010, 0b011, 0b100, 0b101, 0b110), (2, 4, 1, 2, 3, 1), 6)
    u, s, k = omega_pattern(S, row, V, V[0b111], 3)
    assert (u, s) == ((2, 4, 0), 6)
    assert stability._vector_key(u, s) == ((1, 2, 0), 3)
    assert F(k, scale * s) == F(2) - (F(1, 6) * 1 + F(2, 6) * (F(2) - F(1))
                                      + F(3, 6) * F(1, 2))


def test_b0_definition_per_vector():
    # Omega = {(1,0), (0,1), (1,1)} with bound 2; (1,0) is a complement
    # vector, in B0 while its a-value stays at 1 (its largest v(N) - v(S))
    key = stability._vector_key
    base = {key((1, 0), 1): ((1, 0), 1, 1), key((0, 1), 1): ((0, 1), 1, 1)}
    b0 = {key((1, 0), 1): 1}

    def pattern_of(u, s, k):
        return (key(u, s), u, s, k, None)

    diagnostics = {}
    # a pattern z^S equal to (1,0) with c = 1: by the definition (1,0) is
    # still in B0, so the vertex {(1,0), (0,1)} with ψ = 2 satisfies the
    # clause; the shortcut (a complement vector that is no pattern) would
    # leave B0 empty, and the disagreement is counted
    assert stability._nested_for_system(
        base, b0, 2, [pattern_of((1, 0), 1, 1)], diagnostics)
    assert diagnostics == {"b0_definition_disagreements": 1}
    # a larger c takes (1,0) out of B0 by both rules, and ψ = 4 > 2
    assert stability._nested_for_system(
        base, b0, 2, [pattern_of((1, 0), 1, 3)], diagnostics)
    # the same two patterns written as (2,0)/2: a-values compare as k·s
    # across the two forms, so c = 1 ties with the complement vector and
    # c = 3 wins, with its own column (2,0) and cost 6
    assert stability._nested_for_system(
        base, b0, 2, [pattern_of((2, 0), 2, 2)], diagnostics)
    assert diagnostics == {"b0_definition_disagreements": 2}
    assert stability._nested_for_system(
        base, b0, 2, [pattern_of((2, 0), 2, 6)], diagnostics)
    # a pattern (1,1) of cost 1: ψ <= 2 everywhere, and (1,0) in B0 by both
    assert stability._nested_for_system(
        base, b0, 2, [pattern_of((1, 1), 1, 1)], diagnostics)
    assert not stability._nested_for_system(
        base, {}, 2, [pattern_of((1, 1), 1, 1)], diagnostics)
    assert diagnostics == {"b0_definition_disagreements": 2}


# ---------------------------------------------------------------------------
# minimal balanced sets


def test_minimal_balanced_sets_fixtures():
    ones = tuple(F(1) for _ in range(3))
    assert minimal_balanced_sets([ones], 3) == [((0,), (F(1),))]

    accepted = [(1, F(2, 5), 0), (0, F(3, 5), 1)]
    result = minimal_balanced_sets(accepted, 3)
    assert result == [((0, 1), (F(1), F(1)))]
    assert is_minimal_balanced_set(accepted, 3)

    rejected = [
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (1, 0, F(1, 10), 1),
        (0, F(1, 5), F(1, 10), F(1, 2)),
    ]
    assert not is_minimal_balanced_set(rejected, 4)
    # the unique solution zeroes the weight of {3,4,5}
    zero_weight = [
        tuple(F((m >> i) & 1) for i in range(5))
        for m in (coalition_mask([3, 4, 5]), coalition_mask([2, 3]),
                  coalition_mask([1, 3]))
    ] + [(1, 1, 0, 2, 2)]
    assert not is_minimal_balanced_set(zero_weight, 5)
    full = minimal_balanced_sets(rejected, 4)
    assert all(set(indices) != {0, 1, 2, 3} for indices, _ in full)


def test_minimal_balanced_sets_match_collections():
    # on 0/1 vectors the balanced-set enumeration must coincide with the
    # minimal-balanced-collection test over the same universe
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        top = full_mask(n)
        universe = rng.sample(range(1, top + 1), rng.randint(2, min(6, top)))
        universe.sort()
        vectors = [
            tuple(F((mask >> i) & 1) for i in range(n)) for mask in universe
        ]
        got = {
            tuple(universe[i] for i in indices)
            for indices, _ in minimal_balanced_sets(vectors, n)
        }
        expected = set()
        for r in range(1, n + 1):
            for combo in combinations(universe, r):
                if check_minimal_balanced_reference(combo, n)[0] == MINIMAL:
                    expected.add(combo)
        assert got == expected


def test_minimal_balanced_sets_weights_exact():
    vectors = [
        tuple(F((mask >> i) & 1) for i in range(4))
        for mask in (0b0011, 0b0101, 0b1001, 0b1110)
    ]
    result = minimal_balanced_sets(vectors, 4)
    indices, weights = next(r for r in result if len(r[0]) == 4)
    assert weights == (F(1, 3), F(1, 3), F(1, 3), F(2, 3))
    for i in range(4):
        assert sum(w * vectors[j][i] for j, w in zip(indices, weights)) == 1


def test_minimal_balanced_sets_input_validation():
    with pytest.raises(ValueError):
        minimal_balanced_sets([(F(0), F(0))], 2)
    with pytest.raises(ValueError):
        minimal_balanced_sets([(F(1), F(-1))], 2)
    with pytest.raises(ValueError):
        minimal_balanced_sets([(F(1),)], 2)
    for vectors in ([(1, 1, 5)], [(1,)]):
        with pytest.raises(ValueError, match="dimension"):
            is_minimal_balanced_set(vectors, 2)


def test_is_minimal_balanced_set_input_checks():
    # the checks of minimal_balanced_sets: the unique solution (1, 1) of
    # this set is positive, but its vectors are not nonnegative
    with pytest.raises(ValueError, match="nonnegative"):
        is_minimal_balanced_set([(2, -1), (-1, 2)], 2)
    with pytest.raises(ValueError, match="zero vector"):
        is_minimal_balanced_set([(1, 1), (0, 0)], 2)


def _random_vector_set(rng, n):
    """Nonnegative rational vectors: characteristic vectors, positive
    multiples of vectors already drawn, and sparse vectors whose entries have
    large or pairwise coprime denominators."""
    dens = [1, 2, 3, 7, 11, 13, 97, 10007, 2**40 + 15]
    out = []
    for _ in range(rng.randint(1, n + 4)):
        kind = rng.random()
        if kind < 0.4 or not out:
            mask = rng.randint(1, full_mask(n))
            vec = tuple(F((mask >> i) & 1) for i in range(n))
        elif kind < 0.6:
            scale = F(rng.randint(1, 50), rng.choice(dens))
            vec = tuple(scale * x for x in rng.choice(out))
        else:
            vec = tuple(
                F(rng.randint(1, 9), rng.choice(dens)) if rng.random() < 0.5
                else F(0)
                for _ in range(n)
            )
            if not any(vec):
                vec = (F(1, rng.choice(dens)),) + vec[1:]
        out.append(vec)
    return out


def _assert_same_results(got, expected):
    assert got == expected
    assert all(type(w) is Fraction for _, weights in got for w in weights)


def test_minimal_balanced_sets_match_fraction_reference():
    rng = random.Random(41)
    found = 0
    for n in range(2, 7):
        for _ in range(40 if n < 6 else 15):
            vectors = _random_vector_set(rng, n)
            got = minimal_balanced_sets(vectors, n)
            _assert_same_results(got, minimal_balanced_sets_reference(vectors, n))
            for indices, _ in got:
                assert is_minimal_balanced_set([vectors[i] for i in indices], n)
            found += len(got)
    assert found > 100


def test_minimal_balanced_sets_match_reference_on_fixture_omegas(
        db5, biswas, monkeypatch):
    # the Omega sets the nested stage decides, as the integer columns it
    # hands to the linear programs
    calls = []
    decide = linalg.vertex_clause

    def recording(columns, costs, bound, marked):
        calls.append(columns)
        return decide(columns, costs, bound, marked)

    monkeypatch.setattr(linalg, "vertex_clause", recording)
    assert is_core_stable(biswas, db5).stage == "nested-balancedness"
    assert calls
    for columns in calls:
        n = len(columns[0])
        _assert_same_results(minimal_balanced_sets(columns, n),
                             minimal_balanced_sets_reference(columns, n))


def test_is_minimal_balanced_set_matches_fraction_solve():
    # the depth-first search is the reference: the whole set is minimal
    # balanced exactly when the search returns it
    rng = random.Random(43)
    answers = {True: 0, False: 0}
    for n in range(1, 6):
        for _ in range(60):
            vectors = [
                tuple(rng.choice([0, 1, 2, F(1, 3), F(5, 7)]) for _ in range(n))
                for _ in range(rng.randint(0, n + 1))
            ]
            vectors = [vec for vec in vectors if any(vec)]
            whole = tuple(range(len(vectors)))
            expected = any(indices == whole
                           for indices, _ in minimal_balanced_sets(vectors, n))
            assert is_minimal_balanced_set(vectors, n) == expected
            answers[expected] += 1
    assert min(answers.values()) > 30


def test_whole_set_answers_without_search(monkeypatch):
    # more vectors than their dimension, or independent ones, are decided by
    # one solve: the search (here made to fail) is never run
    def no_search(vectors, n):
        raise AssertionError("searched")

    monkeypatch.setattr(linalg, "minimal_balanced_sets", no_search)
    # the six unit vectors first, so that no prefix of 6 is dependent
    masks = [1 << i for i in range(6)]
    masks += [m for m in range(1, 64) if m not in masks][:34]
    vectors = [tuple((m >> i) & 1 for i in range(6)) for m in masks]
    assert not is_minimal_balanced_set(vectors, 6)
    assert check_minimal_balanced([0b011, 0b101, 0b110], 3) == (
        MINIMAL, (F(1, 2),) * 3)
    assert check_minimal_balanced([0b001, 0b011], 3) == (NOT_BALANCED, None)


# ---------------------------------------------------------------------------
# the nested condition and the decision procedure


def test_nested_biswas_pair_fails_and_singletons_pass(db5, biswas):
    family = sve_family(biswas, db5)
    caps = StabilityCaps(max_systems=None, time_limit=None)
    ok_status, _ = nested_balancedness_ok(
        (coalition_mask([1, 3, 4]),), family, db5, biswas, caps
    )
    assert ok_status == "ok"
    status, witness = nested_balancedness_ok(
        (coalition_mask([1, 3, 5]), coalition_mask([1, 4, 5])),
        family, db5, biswas, caps,
    )
    assert status == "fail"
    assert witness["collection"] == ["1,3,5", "1,4,5"]


def test_nested_failure_verified_by_brute_force(db5, biswas):
    family = sve_family(biswas, db5)
    caps = StabilityCaps(max_systems=None, time_limit=None)
    collection = (coalition_mask([1, 3, 5]), coalition_mask([1, 4, 5]))
    status, witness = nested_balancedness_ok(collection, family, db5, biswas, caps)
    assert status == "fail"
    pool = association_pool(db5, family, 5)
    system = {}
    for entry in witness["system"]:
        S = coalition_mask(int(p) for p in entry["coalition"].split(","))
        masks = bytes(
            sorted(
                coalition_mask(int(p) for p in key.split(","))
                for key in entry["collection"]["coalitions"]
            )
        )
        system[S] = next(
            row
            for row in admissible_collections(S, collection, 5, family, pool)
            if row[0] == masks
        )
    assert not brute_nested_system_satisfied(biswas, family, collection, system)


def _record_systems(monkeypatch):
    """Every system the nested stage decides, as (collection, family, game,
    its rows by member, the stage's verdict)."""
    systems, context = [], []
    ok, nested = stability.nested_balancedness_ok, stability._nested_for_system

    def ok_recording(collection, family, db, game, *args, **kwargs):
        context[:] = [(collection, family, game)]
        return ok(collection, family, db, game, *args, **kwargs)

    def nested_recording(base, b0, bound, combo, diagnostics):
        verdict = nested(base, b0, bound, combo, diagnostics)
        collection = context[0][0]
        system = {S: row for S, (*_, row) in zip(collection, combo)}
        systems.append((*context[0], system, verdict))
        return verdict

    monkeypatch.setattr(stability, "nested_balancedness_ok", ok_recording)
    monkeypatch.setattr(stability, "_nested_for_system", nested_recording)
    return systems


def test_lp_matches_enumeration_on_fixture_systems(db4, game4, db5,
                                                   monkeypatch):
    systems = _record_systems(monkeypatch)
    # the 4-player fixture stops at its blocking pairs, so every feasible
    # collection of it goes to the nested stage directly
    family = sve_family(game4, db4)
    caps = StabilityCaps(max_systems=None, time_limit=None)
    for collection in feasible_collections(
            FeasibilityOracle(game4, db4, family)):
        stability.nested_balancedness_ok(collection, family, db4, game4, caps)
    for grand in (F(3), F(31, 10)):
        report = is_core_stable(make_biswas(grand), db5)
        assert report.stage == "nested-balancedness"
    verdicts = {True: 0, False: 0}
    for collection, family, game, system, verdict in systems:
        assert verdict == nested_system_reference(
            collection, family, game, system)
        verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] >= 2


def _lp_decides(vectors, a_values, b0, grand):
    # vector j as the primitive integer column s_j·vector, whose weight is
    # the vector's weight over s_j, so its cost is s_j·a_j; then every cost
    # and v(N) over one common denominator
    scaled = [linalg.primitive(vec) for vec in vectors]
    costs = [s * a for (_, s), a in zip(scaled, a_values)]
    den = lcm(grand.denominator, *(c.denominator for c in costs))
    return linalg.vertex_clause([u for u, _ in scaled],
                                [int(c * den) for c in costs],
                                int(grand * den), b0)


def test_lp_matches_enumeration_on_random_omegas():
    # fractional vectors (positive multiples among them) and a-values; v(N)
    # drawn at random and, for the equality case, set to the largest ψ
    rng = random.Random(47)
    dens = [1, 2, 3, 7, 10, 97]
    at_max = {True: 0, False: 0}
    for n in range(2, 6):
        for _ in range(80):
            vectors = _random_vector_set(rng, n)
            a_values = [F(rng.randint(-5, 40), rng.choice(dens))
                        for _ in vectors]
            b0 = [rng.random() < 0.3 for _ in vectors]
            psis = [
                sum((w * a_values[i] for i, w in zip(indices, weights)), F(0))
                for indices, weights in minimal_balanced_sets(vectors, n)
            ]
            grands = [F(rng.randint(0, 40), rng.choice(dens))]
            if psis:
                grands.append(max(psis))
            for grand in grands:
                got = _lp_decides(vectors, a_values, b0, grand)
                assert got == nested_clause_reference(
                    vectors, a_values, b0, grand)
            if psis:
                at_max[got] += 1
    assert at_max[True] > 20 and at_max[False] > 20


def test_nested_caps_yield_capped(db5, biswas):
    family = sve_family(biswas, db5)
    collection = (coalition_mask([1, 3, 5]), coalition_mask([1, 4, 5]))
    status, info = nested_balancedness_ok(
        collection, family, db5, biswas, StabilityCaps(max_systems=1)
    )
    assert status == "capped"
    assert info["reason"] == "system-cap" and info["systems"] > 1


def test_nested_time_limit_holds_without_deadline(db5, biswas_mod, monkeypatch):
    # a direct call gets its time cap from caps.time_limit; the clock moves
    # one second per reading, so the first check is past a zero limit
    family = sve_family(biswas_mod, db5)
    collection = (0b01101,)
    assert nested_balancedness_ok(collection, family, db5, biswas_mod, StabilityCaps(
        max_systems=None, time_limit=None)) == ("ok", None)
    clock = count()
    monkeypatch.setattr(stability.time, "monotonic", lambda: next(clock))
    status, info = nested_balancedness_ok(collection, family, db5, biswas_mod, StabilityCaps(
        max_systems=None, time_limit=0.0))
    assert status == "capped"
    assert info["reason"] == "time-cap" and info["systems"] >= 1


def test_time_cap_names_the_first_survivor_left_unchecked(db5, biswas, monkeypatch):
    # the clock jumps past the deadline each time a survivor's nested check
    # returns: the survivor that returned "ok" is decided, and the next one
    # is cut short before its first system
    clock = [0.0]
    monkeypatch.setattr(stability.time, "monotonic", lambda: clock[0])
    checked = []
    nested = stability.nested_balancedness_ok

    def then_jump(collection, *args, **kwargs):
        result = nested(collection, *args, **kwargs)
        checked.append((collection, result[0]))
        clock[0] += 1000.0
        return result

    monkeypatch.setattr(stability, "nested_balancedness_ok", then_jump)
    report = is_core_stable(biswas, db5, StabilityCaps(max_systems=None, time_limit=10.0))
    assert checked == [((0b01101,), "ok"), ((0b10101,), "capped")]
    assert (report.verdict, report.stage) == (UNKNOWN, "nested-balancedness")
    assert report.witness == {"collection": ["1,3,5"], "reason": "time-cap", "systems": 5}

    # every survivor decided before its own deadline check: the verdict
    # stands however late the last one returns
    def ok_then_jump(*args, **kwargs):
        clock[0] += 1000.0
        return "ok", None

    monkeypatch.setattr(stability, "nested_balancedness_ok", ok_then_jump)
    report = is_core_stable(biswas, db5, StabilityCaps(max_systems=None, time_limit=10.0))
    assert (report.verdict, report.stage) == (STABLE, "nested-balancedness")


def test_database_on_other_players_is_rejected(db4, db5, biswas):
    # the rows of a 4-player database say nothing about a 5-player game,
    # yet scanning them gives an answer; both entry points must refuse
    family = sve_family(biswas, db5)
    with pytest.raises(ValueError, match="database has n=4"):
        feasibility_survey(biswas, db4, family)
    with pytest.raises(ValueError, match="database has n=4"):
        nested_balancedness_ok((coalition_mask([1, 3, 4]),), family, db4, biswas)


def test_core_stable_additive(db3):
    report = is_core_stable(make_additive([1, 2, 3]), db3)
    assert report.verdict == STABLE
    assert report.stage == "weak-extendability"


def test_core_stable_empty_core(db3):
    game = Game(3, {0b011: F(1), 0b101: F(1), 0b110: F(1), 0b111: F(1)})
    report = is_core_stable(game, db3)
    assert report.verdict == NOT_STABLE
    assert report.stage == "balancedness"
    assert report.witness["violated_collection"]["coalitions"] == ["1,2", "1,3", "2,3"]


def test_core_stable_non_exact_singleton(db3):
    report = is_core_stable(make_three_player_tight(), db3)
    assert report.verdict == NOT_STABLE
    assert report.stage == "singleton-exactness"
    assert report.witness["non_exact_singleton"] == "1"


def test_core_stable_family_not_core_describing(db4):
    # balanced, every singleton exact, and yet the strictly vital-exact
    # family leaves out a constraint of the core
    game = make_not_core_describing()
    report = is_core_stable(game, db4)
    assert report.verdict == NOT_STABLE
    assert report.stage == "core-describing"
    family = ["1", "2", "3", "1,3", "1,2,3", "4"]
    assert report.witness == {"family": family}
    assert report.diagnostics == {"vital_exact_count": 6}
    masks = [coalition_mask(int(p) for p in key.split(",")) for key in family]
    assert not core_describing_definition(masks, game)


def test_core_stable_unknown_under_tight_caps(db5, biswas):
    report = is_core_stable(biswas, db5, StabilityCaps(max_systems=1))
    assert report.verdict == UNKNOWN
    assert report.stage == "nested-balancedness"
    assert report.witness["reason"] == "system-cap"
    assert report.witness["collection"]


def test_core_stable_deterministic_payload(db5, biswas):
    runs = [
        json.dumps(is_core_stable(biswas, db5).to_payload(), sort_keys=True)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_nested_vacuous_on_empty_admissible_product(db3):
    # family containing only S itself: the lone associated collection is
    # inadmissible, the product is empty, and the condition holds vacuously
    game = Game(3, {0b011: F(1), 0b111: F(2)})
    S = coalition_mask([1, 2])
    family = (S,)
    assert admissible_collections(S, (S,), 3, family, db3.rows) == []
    status, witness = nested_balancedness_ok(
        (S,), family, db3, game, StabilityCaps()
    )
    assert (status, witness) == ("ok", None)
