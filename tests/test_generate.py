import gc
import io
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from mbc import Game, generate, is_balanced_game
from mbc.generate import (
    BALANCED_NOT_MINIMAL,
    MINIMAL,
    NOT_BALANCED,
    MbcDatabase,
    _add_player_raw,
    _case4_pairs,
    _children_4,
    _merged_pair,
    _pair_form,
    _rank01,
    _rank2,
    _rows_on,
    apply_case1,
    apply_case2,
    apply_case3,
    apply_case4,
    check_minimal_balanced,
    is_balanced_collection,
    peleg,
    peleg_stream,
    restriction,
)
from mbc.linalg import RatMatrix, rank
from mbc.model import (
    MAX_PLAYERS,
    LineCodec,
    WeightedCollection,
    coalition_mask,
    full_mask,
    members,
)
from conftest import db_row
from oracles import (
    balanced_union_reference,
    brute_force_mbcs,
    check_minimal_balanced_reference,
    children_4_reference,
    is_minimal_balanced,
    load_line_by_line,
    merged_pair_reference,
)

F = Fraction


def wc(pairs):
    pairs = sorted(pairs)
    return WeightedCollection(
        tuple(m for m, _ in pairs), tuple(F(w) for _, w in pairs)
    )


# ---------------------------------------------------------------------------
# the worked single-step examples (players a..d = 1..4, new player e = 5)

AB = coalition_mask([1, 2])
AC = coalition_mask([1, 3])
AD = coalition_mask([1, 4])
BCD = coalition_mask([2, 3, 4])
BASE = wc([(AB, F(1, 3)), (AC, F(1, 3)), (AD, F(1, 3)), (BCD, F(2, 3))])


def test_case1_worked_example():
    # picking {a,b} and {b,c,d}, whose weights sum to 1
    got = apply_case1(BASE, [0, 3], 5)
    assert got == wc(
        [
            (coalition_mask([1, 2, 5]), F(1, 3)),
            (AC, F(1, 3)),
            (AD, F(1, 3)),
            (coalition_mask([2, 3, 4, 5]), F(2, 3)),
        ]
    )


def test_case2_worked_example():
    got = apply_case2(BASE, [3], 5)
    assert got == wc(
        [
            (AB, F(1, 3)),
            (AC, F(1, 3)),
            (AD, F(1, 3)),
            (coalition_mask([2, 3, 4, 5]), F(2, 3)),
            (coalition_mask([5]), F(1, 3)),
        ]
    )


def test_case3_worked_example():
    got = apply_case3(BASE, [0, 1], 3, 5)
    third = F(1, 3)
    assert got == wc(
        [
            (coalition_mask([1, 2, 5]), third),
            (coalition_mask([1, 3, 5]), third),
            (AD, third),
            (BCD, third),
            (coalition_mask([2, 3, 4, 5]), third),
        ]
    )


def test_case4_worked_example():
    singles = wc([(0b01, F(1)), (0b10, F(1))])
    pair = wc([(0b11, F(1))])
    got = apply_case4(singles, pair, [0, 1], 3)
    assert got == wc(
        [
            (coalition_mask([1, 3]), F(1, 2)),
            (coalition_mask([2, 3]), F(1, 2)),
            (coalition_mask([1, 2]), F(1, 2)),
        ]
    )


def test_case_preconditions():
    with pytest.raises(ValueError):
        apply_case1(BASE, [0], 5)  # weights sum to 1/3, not 1
    with pytest.raises(ValueError):
        apply_case2(BASE, [0, 3], 5)  # sums to exactly 1
    with pytest.raises(ValueError):
        apply_case3(BASE, [0], 1, 5)  # 1 - lambda_I = 2/3 >= weight 1/3
    with pytest.raises(ValueError):
        apply_case4(BASE, BASE, [0], 5)
    with pytest.raises(ValueError):
        apply_case1(BASE, [0, 3], 4)  # player already present


def test_worked_examples_land_in_the_databases(db3, db5):
    for case in (
        apply_case1(BASE, [0, 3], 5),
        apply_case2(BASE, [3], 5),
        apply_case3(BASE, [0, 1], 3, 5),
    ):
        assert db5.contains(case.coalitions)
        assert case in list(db5)
    last = apply_case4(wc([(1, 1), (2, 1)]), wc([(3, 1)]), [0, 1], 3)
    assert db3.contains(last.coalitions)


def test_case_positions_checked():
    # a negative position would wrap in the weight sums but match no member
    singles = wc([(0b01, F(1)), (0b10, F(1))])
    pair = wc([(0b11, F(1))])
    for call in (
        lambda: apply_case1(BASE, [-4, 3], 5),
        lambda: apply_case1(BASE, [0, 4], 5),
        lambda: apply_case2(BASE, [-1], 5),
        lambda: apply_case2(BASE, [4], 5),
        lambda: apply_case3(BASE, [-4], 1, 5),
        lambda: apply_case3(BASE, [0, 1], -1, 5),
        lambda: apply_case3(BASE, [0, 1], 4, 5),
        lambda: apply_case4(singles, pair, [-1, 0], 3),
        lambda: apply_case4(singles, pair, [0, 3], 3),
    ):
        with pytest.raises(ValueError, match="positions"):
            call()


def _helper_children(parents, p):
    """Every collection the single-step helpers return for one step."""
    found = set()

    def keep(helper, *args):
        try:
            found.add(helper(*args))
        except ValueError:
            pass

    for parent in parents:
        k = len(parent.coalitions)
        for r in range(k + 1):
            for picked in combinations(range(k), r):
                keep(apply_case1, parent, picked, p)
                keep(apply_case2, parent, picked, p)
                for split in range(k):
                    keep(apply_case3, parent, picked, split, p)
    for first, second in combinations(parents, 2):
        union = set(first.coalitions) | set(second.coalitions)
        if len(union) > p:
            continue
        for r in range(len(union) + 1):
            for picked in combinations(range(len(union)), r):
                keep(apply_case4, first, second, picked, p)
    return found


@pytest.mark.parametrize("n_old", [1, 2, 3, 4])
def test_single_step_helpers_reproduce_the_induction_step(n_old):
    got = _helper_children(list(peleg(n_old)), n_old + 1)
    assert got == set(peleg(n_old + 1))


# ---------------------------------------------------------------------------
# case 4 pair by pair


def _size_filtered_pairs(n_old, rows=None):
    """The parent pairs the induction step from n_old players passes to
    `_merged_pair`, found by a pass over all pairs: their union has at most
    n_old + 1 coalitions.  The parents are `rows`, or by default every
    collection on n_old players."""
    forms = [_pair_form(row) for row in (peleg(n_old).rows if rows is None else rows)]
    return [(a, b) for a, b in combinations(forms, 2)
            if (a[0] | b[0]).bit_count() <= n_old + 1]


def _joined_pairs_match_the_pass_over_all_pairs(rows, n_old) -> int:
    """Asserts that `_case4_pairs` yields the pairs of `_size_filtered_pairs`
    on these parents, each in parent order and none twice, and returns how
    many.  Distinct parents have distinct coalitions, so a pair is named by
    its two covers."""
    forms = [_pair_form(row) for row in rows]
    joined = [(forms[i][0], forms[j][0]) for i, j in _case4_pairs(forms, n_old + 1)]
    assert len(joined) == len(set(joined))
    assert set(joined) == {(a[0], b[0]) for a, b in _size_filtered_pairs(n_old, rows)}
    return len(joined)


@pytest.mark.parametrize("n_old", [1, 2, 3, 4, 5])
def test_case4_join_yields_the_size_filtered_pairs_once(n_old):
    count = _joined_pairs_match_the_pass_over_all_pairs(peleg(n_old).rows, n_old)
    assert count == FILTERED_PAIRS[n_old][0]


def test_case4_join_matches_on_a_sample_of_six_player_parents(db6):
    # a seeded sample holds parents of several sizes and keeps the reference
    # pass over all its pairs short; the join pairs them as the 6 -> 7 step
    # would
    rows = db6.rows
    sample = [rows[i] for i in sorted(random.Random(35).sample(range(len(rows)), 2000))]
    assert len({len(masks) for masks, _, _ in sample}) >= 4
    assert _joined_pairs_match_the_pass_over_all_pairs(sample, 6) > 0


# size-filtered pairs, and those whose union has one coalition more than the
# larger parent, by n_old
FILTERED_PAIRS = {1: (0, 0), 2: (1, 1), 3: (14, 11), 4: (372, 273), 5: (34871, 24271)}
# the other size-filtered pairs, which need a rank test, and those of them
# whose union has GF(2) rank |union| - 1, by n_old
RANK_TESTS = {1: (0, 0), 2: (0, 0), 3: (3, 3), 4: (99, 87), 5: (10600, 5780)}


@pytest.mark.parametrize("n_old", [1, 2, 3, 4, 5])
def test_rank_shortcut_holds_on_size_filtered_pairs(n_old):
    # independent parents with mu - nu in the kernel of the union give
    # rank |union| - 1 whenever the union has one coalition more than the
    # larger parent, without a rank test; the other unions try the GF(2)
    # rank first, which is never above the rank over the rationals
    pairs = _size_filtered_pairs(n_old)
    shortcut = tests = settled = 0
    for a, b in pairs:
        union = sorted(a[1].keys() | b[1].keys())
        if len(union) == max(len(a[1]), len(b[1])) + 1:
            assert _rank01(union, n_old) == len(union) - 1
            shortcut += 1
        else:
            tests += 1
            assert _rank2(union) <= _rank01(union, n_old)
            settled += _rank2(union) == len(union) - 1
        assert _merged_pair(a, b, n_old) == merged_pair_reference(a, b, n_old)
    assert (len(pairs), shortcut) == FILTERED_PAIRS[n_old]
    assert (tests, settled) == RANK_TESTS[n_old]


def test_rank_falls_back_when_the_gf2_rank_is_short():
    # {1,2}, {1,3}, {2,3} are independent over the rationals but sum to
    # zero mod 2, so this union's GF(2) rank is below |union| - 1 while its
    # rational rank is |union| - 1: the rational test accepts the pair
    a = _pair_form(((0b00011, 0b00101, 0b00110, 0b11000), (1, 1, 1, 2), 2))
    b = _pair_form(((0b01111, 0b10111, 0b11000), (1, 1, 1), 2))
    union = sorted(a[1].keys() | b[1].keys())
    assert len(union) > max(len(a[1]), len(b[1])) + 1
    assert _rank2(union) < _rank01(union, 5) == len(union) - 1
    assert _merged_pair(a, b, 5) == merged_pair_reference(a, b, 5) is not None


def _children_4_rows(masks, mu, nu, L, p_bit):
    got = []
    _children_4(masks, mu, nu, L, p_bit, lambda *row: got.append(row))
    return got


def test_case4_ties_give_no_child():
    # the singletons against the pair: mu(I) = L when I holds one
    # singleton and nu(I) = L when I holds the pair, so only I = both
    # singletons puts L strictly between mu(I) and nu(I)
    masks, mu, nu = [0b01, 0b10, 0b11], [1, 1, 0], [0, 0, 1]
    assert (_children_4_rows(masks, mu, nu, 1, 0b100)
            == children_4_reference(masks, mu, nu, 1, 0b100)
            == [((0b011, 0b101, 0b110), (1, 1, 1), 2)])


@pytest.mark.parametrize("k", range(1, 8))
def test_case4_lanes_match_reference_on_hand_made_pairs(k):
    # small weights tie mu(I) or nu(I) with L often; scaled by 2^70 the
    # same pairs need lanes wider than 64 bits and give the same children
    rng = random.Random(k)
    ties = emitted = 0
    for _ in range(30):
        masks = sorted(rng.sample(range(1, 128), k))
        mu = [rng.randrange(4) for _ in masks]
        nu = [rng.randrange(4) for _ in masks]
        L = rng.randrange(1, 6)
        for I in range(1 << k):
            picked = [i for i in range(k) if I >> i & 1]
            ties += L in (sum(mu[i] for i in picked), sum(nu[i] for i in picked))
        got = _children_4_rows(masks, mu, nu, L, 128)
        assert got == children_4_reference(masks, mu, nu, L, 128)
        big = 1 << 70
        assert _children_4_rows(masks, [x * big for x in mu], [y * big for y in nu],
                                L * big, 128) == got
        emitted += len(got)
    assert ties > 0 and emitted > 0


@pytest.mark.parametrize("n_old", [2, 3, 4, 5])
def test_case4_children_match_sign_test_reference(n_old):
    merged = [pair for pair in (_merged_pair(a, b, n_old)
                                for a, b in _size_filtered_pairs(n_old))
              if pair is not None]
    if n_old == 5:
        merged = random.Random(14).sample(merged, 2000)
    p_bit = 1 << n_old
    emitted = 0
    for union, mu, nu, L in merged:
        got = []

        def emit(masks, nums, den):
            assert all(x < y for x, y in zip(masks, masks[1:]))
            g = gcd(den, *nums)
            got.append((masks, tuple(x // g for x in nums), den // g))

        _children_4(union, mu, nu, L, p_bit, emit)
        assert got == children_4_reference(union, mu, nu, L, p_bit)
        emitted += len(got)
    assert emitted >= len(merged) > 0


def _pairs_sharing_a_weight_structure(n_old):
    """The first two merged pairs of the step from n_old players, in
    generation order, with equal (mu, nu, L) and different unions."""
    forms = [_pair_form(row) for row in peleg(n_old).rows]
    first = {}
    for a, b in combinations(forms, 2):
        if (a[0] | b[0]).bit_count() > n_old + 1:
            continue
        pair = _merged_pair(a, b, n_old)
        if pair is None:
            continue
        union, mu, nu, L = pair
        key = (tuple(mu), tuple(nu), L)
        if key in first and first[key][0] != union:
            return first[key], pair
        first.setdefault(key, pair)
    raise AssertionError("no two pairs share a weight structure")


def test_case4_cache_keys_on_the_weights_not_the_masks():
    # the cached half of case 4 never reads the masks: two unions with one
    # weight structure give the reference children, whichever comes first
    one, other = _pairs_sharing_a_weight_structure(5)
    p_bit = 1 << 5
    for first, second in ((one, other), (other, one)):
        generate._case4_weights.cache_clear()
        for warm, (union, mu, nu, L) in enumerate((first, second, first)):
            hits = generate._case4_weights.cache_info().hits
            assert _children_4_rows(union, mu, nu, L, p_bit) \
                == children_4_reference(union, mu, nu, L, p_bit) != []
            assert generate._case4_weights.cache_info().hits == hits + (warm > 0)


def test_restricted_run_after_an_unrestricted_one_matches_a_cold_cache(monkeypatch):
    system = [0b00111, 0b01110, 0b11100, 0b11001, 0b10011]
    allowed = restriction(5, system)
    generate._case4_weights.cache_clear()
    cold = peleg(5, set_system=system).rows
    full = peleg(5).rows
    assert peleg(5, set_system=system).rows == cold
    assert cold == tuple(row for row in full if allowed.issuperset(row[0]))
    # the restricted step to 5 again, with the cache warm from every
    # unrestricted pair of that step: each of its pairs is a hit
    parents = generate._rows_on(4, allowed)
    for a, b in combinations([_pair_form(row) for row in peleg(4).rows], 2):
        pair = _merged_pair(a, b, 4)
        if pair is not None:
            _children_4(*pair, 1 << 4, lambda *row: None)
    misses = generate._case4_weights.cache_info().misses
    seen = []

    def children_4(*args):
        _children_4(*args)
        seen.append(generate._case4_weights.cache_info().misses)

    monkeypatch.setattr(generate, "_children_4", children_4)
    children = []
    _add_player_raw(parents, 4, allowed, lambda masks, nums, den:
                    children.append((bytes(masks), nums, den)))
    assert seen and set(seen) == {misses}
    assert tuple(sorted(children)) == cold


def test_case4_cache_is_bounded_and_released(tmp_path, monkeypatch, db5):
    # the step to 6 fills the cache to its bound; no generation leaves an
    # entry behind, and a second run in the same process writes the same
    # bytes as the first
    caches = (generate._case4_weights, generate._shared_nums)
    sizes = []

    def children_4(*args):
        sizes.append([cache.cache_info().currsize for cache in caches])
        _children_4(*args)

    with monkeypatch.context() as patched:
        patched.setattr(generate, "_children_4", children_4)
        emitted = []
        _add_player_raw(list(db5.rows), 5, None, lambda *row: emitted.append(1))
    assert len(emitted) == 200214
    bound, nums_bound = [cache.cache_info().maxsize for cache in caches]
    assert max(size for size, _ in sizes) == bound
    assert all(size <= nums_bound for _, size in sizes)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    paths = [tmp_path / "first.db", tmp_path / "second.db"]
    for path in paths:
        assert _stream(path, 5) == 1292
        assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# generation

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 6, 4: 42, 5: 1292}

RESTRICTED_SYSTEMS = [
    (3, [0b011, 0b110]),
    (3, [0b111]),
    (4, [0b0111, 0b1100, 0b1010]),
    (4, [0b1111]),
    (4, [0b0011, 0b1100]),
]


@pytest.mark.parametrize("n,count", sorted(EXPECTED_COUNTS.items()))
def test_counts(n, count):
    assert len(peleg(n)) == count


def test_peleg_three_lists_all_six():
    got = {tuple(wc.coalitions) for wc in peleg(3)}
    assert got == {
        (0b111,),
        (0b001, 0b010, 0b100),
        (0b001, 0b110),
        (0b010, 0b101),
        (0b011, 0b100),
        (0b011, 0b101, 0b110),
    }


def _stream(path, n, set_system=None) -> int:
    """Write the database on n players to path with `peleg_stream`."""
    with open(path, "w") as out:
        return peleg_stream(n, out, set_system=set_system)


def test_generation_deterministic_bytes(tmp_path):
    paths = []
    for run in (1, 2):
        path = tmp_path / f"run{run}.db"
        _stream(path, 4)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_database_save_load_roundtrip(tmp_path, db4):
    path = tmp_path / "mbc4.db"
    db4.save(path)
    text = path.read_text().splitlines()
    assert text[0] == "MBCDB 1 n=4 count=42"
    assert text[1:] == sorted(text[1:])
    streamed = tmp_path / "streamed4.db"
    _stream(streamed, 4)
    assert path.read_bytes() == streamed.read_bytes()
    loaded = MbcDatabase.load(path)
    assert loaded.n == 4 and list(loaded) == list(db4)
    assert loaded == db4


@pytest.mark.parametrize("n,system", [*((n, None) for n in range(1, 6)), *RESTRICTED_SYSTEMS])
def test_save_with_every_line_spilled_matches_the_stream(tmp_path, monkeypatch, n, system):
    streamed = tmp_path / "streamed.db"
    count = _stream(streamed, n, system)
    monkeypatch.setattr(generate, "SPILL_BYTES", 1)
    saved = tmp_path / "saved.db"
    db = peleg(n, set_system=system)
    db.save(saved)
    assert len(db) == count
    assert saved.read_bytes() == streamed.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_database_rows_roundtrip(tmp_path, n):
    path = tmp_path / f"mbc{n}.db"
    assert _stream(path, n) == len(peleg(n))
    assert MbcDatabase.load(path).rows == peleg(n).rows


def test_database_rows_keep_their_masks_as_bytes(tmp_path):
    # a row holds its masks as one byte string, a byte per coalition, so
    # every mask of the largest database must fit in a byte: raising
    # MAX_PLAYERS past 8 fails here, not inside `bytes()`
    assert full_mask(MAX_PLAYERS) < 256
    path = tmp_path / "mbc4.db"
    _stream(path, 4)
    for db in (peleg(4), MbcDatabase.load(path), peleg(4, set_system=[0b0111, 0b1100])):
        assert db.rows
        for masks, nums, den in db.rows:
            assert type(masks) is bytes and type(nums) is tuple and type(den) is int


def _probe(tmp_path, db, old, new):
    """Write the generated database on db.n players with the row `old`
    replaced by `new`; returns the path and the probed row's file line
    number."""
    path = tmp_path / "probe.db"
    _stream(path, db.n)
    lines = path.read_text().splitlines()
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    path.write_text("\n".join(lines) + "\n")
    return path, lineno


@pytest.mark.parametrize(
    "new,problem",
    [
        ("1:1/1 2:1/1 4:1/1 8:1/7", "sums"),        # no longer balanced
        ("1:1/1 2:1/1 4:1/1 ff:1/1", "range"),      # mask outside 1..15
        ("1:1/1 2:1/1 8:1/1 4:1/1", "increasing"),
        ("1:1/1 2:1/1 4:1/1 8:0/1", "positive"),
        ("1:1/1 2:1/1 4:1/1 8:1/0", "denominator"),
        ("1:1/1 2:1/1 4:1/1 8 1/1", "malformed"),
        ("1:1/1 2:1/1 4:1/1 8:-1/1", "malformed"),
    ],
)
def test_database_load_rejects_bad_rows(tmp_path, db4, new, problem):
    path, lineno = _probe(tmp_path, db4, "1:1/1 2:1/1 4:1/1 8:1/1", new)
    with pytest.raises(ValueError, match=problem) as info:
        MbcDatabase.load(path)
    assert f"line {lineno} {new!r}" in str(info.value)


def test_database_refuses_a_row_of_more_than_n_coalitions(tmp_path):
    # balanced with positive weights, but n + 1 vectors in R^n are dependent
    path = tmp_path / "three.db"
    path.write_text("MBCDB 1 n=2 count=1 restricted\n1:1/2 2:1/2 3:1/2\n")
    with pytest.raises(ValueError) as info:
        MbcDatabase.load(path)
    assert str(info.value) == "MBCDB line 2 '1:1/2 2:1/2 3:1/2': more than n=2 coalitions"
    with pytest.raises(ValueError, match="more than n=2 coalitions"):
        MbcDatabase(2, [(b"\x01\x02\x03", (1, 1, 1), 2)], restricted=True)


@pytest.mark.parametrize("n,system", [*((n, None) for n in range(1, 7)), *RESTRICTED_SYSTEMS])
def test_rows_read_as_the_generated_tuples(request, tmp_path, n, system):
    # one integer per row, read back as the (masks, nums, den) tuples the
    # generator makes, generated or loaded
    expected = tuple(_rows_on(n, restriction(n, system)))
    path = tmp_path / "rows.db"
    _stream(path, n, system)
    generated = request.getfixturevalue("db6") if n == 6 else peleg(n, set_system=system)
    loaded = MbcDatabase.load(path)
    assert loaded == generated
    rng = random.Random(n)
    for rows in (generated.rows, loaded.rows):
        assert rows == expected and expected == rows and not rows != expected
        assert rows != expected[:-1] and rows != list(expected)
        assert len(rows) == len(expected) and list(rows) == list(expected)
        count = len(expected)
        for i in [0, -1, count - 1, *rng.sample(range(count), min(50, count))]:
            assert rows[i] == expected[i]
        assert rows[1:4] == expected[1:4]
        with pytest.raises(IndexError):
            rows[len(expected)]
    full = full_mask(n)
    present = {row[0] for row in expected}
    probes = [list(row[0]) for row in rng.sample(expected, min(40, len(expected)))]
    probes += [masks[::-1] for masks in probes]                   # present, any order
    probes += [masks[:-1] for masks in probes if len(masks) > 1]  # absent
    probes += [[*masks, masks[0]] for masks in probes if masks]   # repeated
    probes += [[0, *masks] for masks in probes[:10]]              # out of range
    probes += [[*masks, full + 1] for masks in probes[:10]]
    probes += [[1 << i for i in range(n)] + [full], list(range(1, full + 1)), [], [full]]
    for masks in probes:
        key = sorted(masks)
        in_range = len(set(key)) == len(key) and all(0 < m <= full for m in key)
        assert loaded.contains(masks) == (in_range and bytes(key) in present), masks


def test_loaded_database_holds_at_most_64_bytes_per_row(tmp_path):
    # one integer and its list slot per row, and a table of the 105
    # distinct weight rows; rows as (masks, nums, den) tuples took 112
    path = tmp_path / "mbc5.db"
    _stream(path, 5)
    tracemalloc.start()
    try:
        db = MbcDatabase.load(path)
        # freed tuples wait on free lists, whose blocks tracemalloc counts
        # as held until a collection empties them
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == 1292
    assert held <= 64 * len(db)


def test_load_widens_the_weight_ids_of_many_weight_rows(tmp_path, monkeypatch):
    # a key starts with the id bits left in the last 30-bit digit of its
    # masks, 4 at n = 7, and widens when more weight rows come: here 21
    # balanced rows {p}, {q}, {p,q} and the rest, weighted a, a, 1 - a, 1
    # with a different a each (never minimal)
    lines = []
    for k, (p, q) in enumerate(combinations(range(7), 2), 2):
        a = F(1, k)
        pair = 1 << p | 1 << q
        items = {1 << p: a, 1 << q: a, pair: 1 - a, 0x7F ^ pair: F(1)}
        lines.append(" ".join(f"{m:x}:{w.numerator}/{w.denominator}"
                              for m, w in sorted(items.items())))
    path = tmp_path / "wide.db"
    path.write_text(f"MBCDB 1 n=7 count={len(lines)} restricted\n" + "\n".join(lines) + "\n")
    monkeypatch.setattr(generate, "LOAD_CHUNK", 64)
    db = MbcDatabase.load(path)
    assert (db.n, db.rows, db.restricted) == load_line_by_line(path)
    assert db.rows._width == 34
    assert MbcDatabase(7, tuple(db.rows), True) == db


def test_database_load_parses_each_distinct_item_once(tmp_path, monkeypatch):
    # one parse of a token gives both its mask and its weight text
    path = tmp_path / "mbc5.db"
    _stream(path, 5)
    parsed = []
    parse = generate._parse_item
    monkeypatch.setattr(generate, "_parse_item",
                        lambda token: parsed.append(token) or parse(token))
    MbcDatabase.load(path)
    assert len(parsed) == len(set(parsed)) == 221


def test_database_load_rejects_repeated_collection(tmp_path, db4):
    # the same collection written with unreduced weights parses to the same row
    path, _ = _probe(tmp_path, db4, "1:1/1 e:1/1", "1:1/1 2:1/1 4:1/1 8:2/2")
    with pytest.raises(ValueError, match="twice"):
        MbcDatabase.load(path)


def test_database_load_reduces_rows(tmp_path, db4):
    path, _ = _probe(tmp_path, db4, "1:1/1 e:1/1", "1:2/2 e:3/3")
    assert MbcDatabase.load(path).rows == db4.rows


LOAD_ERRORS = {
    "malformed": "malformed MBCDB line",
    "denominator": "zero denominator",
    "increasing": "coalitions are not strictly increasing",
    "range": "coalition out of range for n=4",
    "positive": "weights must be positive",
    "sums": "player weight sums are not all 1",
    "count": "more than n=4 coalitions",
}


@pytest.mark.parametrize(
    "new,first",
    [
        ("1:1/1 2:1/0 4:1/1 8 1/1", "malformed"),
        ("2:1/1 1:1/0 4:1/1 8:1/1", "denominator"),
        ("1:1/1 2:1/1 ff:1/1 4:1/1", "increasing"),
        ("1:1/1 2:1/1 8:0/1 4:1/1", "increasing"),
        ("1:1/1 2:1/1 4:1/1 ff:0/1", "range"),
        ("1:1/1 2:1/1 4:0/1 8:1/1", "positive"),
        ("1:1/1 2:1/1 4:1/1 8:1/1 f:0/1", "positive"),
        ("1:1/1 2:1/1 4:1/1 8:1/1 f:1/1", "sums"),
        ("1:1/2 2:1/2 4:1/2 8:1/2 f:1/2", "count"),
    ],
)
def test_database_load_reports_first_fault(tmp_path, db4, new, first):
    # check order: syntax, zero denominator, increasing, range, positive,
    # sums, and last more than n coalitions
    path, lineno = _probe(tmp_path, db4, "1:1/1 2:1/1 4:1/1 8:1/1", new)
    with pytest.raises(ValueError) as info:
        MbcDatabase.load(path)
    assert str(info.value) == f"MBCDB line {lineno} {new!r}: {LOAD_ERRORS[first]}"


def _hybrid_line(db):
    """A line made of the first item of one row and the other items of a
    second row with the same weights: every item and the weight row are
    read on earlier lines, the masks increase, and the row is unbalanced."""
    by_weights = {}
    for masks, nums, den in db.rows:
        by_weights.setdefault((nums, den), []).append(masks)
    for (nums, den), group in by_weights.items():
        for first, rest in combinations(group, 2):
            masks = (first[0], *rest[1:])
            if masks[0] < masks[1] and not is_balanced_collection(masks, db):
                return LineCodec().write(masks, nums, den)
    raise AssertionError("no hybrid row")


@pytest.mark.parametrize(
    "fault,problem",
    [
        (lambda db, items: " ".join(items[::-1]), "increasing"),
        (lambda db, items: " ".join(items[:-1]), "sums"),
        (lambda db, items: _hybrid_line(db), "sums"),
    ],
    ids=["reversed", "dropped", "hybrid"],
)
def test_database_load_rejects_bad_row_of_known_items(tmp_path, db4, fault, problem):
    # every item and weight text of the bad line was read on earlier lines
    _stream(tmp_path / "db", 4)
    lines = (tmp_path / "db").read_text().splitlines()
    source = next(line for line in lines[1:] if line.count(" ") >= 2)
    new = fault(db4, source.split())
    path, lineno = _probe(tmp_path, db4, lines[-1], new)
    known = {item for line in lines[1:lineno - 1] for item in line.split()}
    assert known.issuperset(new.split())
    with pytest.raises(ValueError) as info:
        MbcDatabase.load(path)
    assert str(info.value) == f"MBCDB line {lineno} {new!r}: {LOAD_ERRORS[problem]}"


def test_database_load_reduces_weights_on_any_line(tmp_path, db4):
    # every other line is written unreduced (2/4 for 1/2, 3/3 for 1/1), so
    # each weight row is read both in its canonical and a scaled form
    path = tmp_path / "scaled.db"
    _stream(path, 4)
    lines = path.read_text().splitlines()
    for i in range(1, len(lines), 2):
        k = 2 if i % 4 == 1 else 3
        lines[i] = " ".join(
            f"{mask}:{k * int(num)}/{k * int(den)}"
            for mask, num, den in (item.replace("/", ":").split(":")
                                   for item in lines[i].split())
        )
    assert any("2/4" in line for line in lines) and any("3/3" in line for line in lines)
    path.write_text("\n".join(lines) + "\n")
    assert MbcDatabase.load(path).rows == db4.rows


def test_database_load_accepts_uppercase_hex_and_tabs(tmp_path, db4):
    path = tmp_path / "upper.db"
    _stream(path, 4)
    lines = path.read_text().splitlines()
    lines[1:] = [line.upper().replace(" ", "\t") for line in lines[1:]]
    assert any(c in "ABCDEF" for c in "".join(lines[1:]))
    path.write_text("\n".join(lines) + "\n")
    assert MbcDatabase.load(path).rows == db4.rows


def test_database_load_rejects_bad_headers(tmp_path):
    bad = tmp_path / "bad.db"
    bad.write_text("MBCDB 2 n=3 count=0\n")
    with pytest.raises(ValueError):
        MbcDatabase.load(bad)
    bad.write_text("MBCDB 1 n=3 count=5\n7:1/1\n")
    with pytest.raises(ValueError):
        MbcDatabase.load(bad)
    # no generator writes more than MAX_PLAYERS players, and every analysis
    # allocates 2^n values
    bad.write_text("MBCDB 1 n=9 count=1\n1ff:1/1\n")
    with pytest.raises(ValueError, match="bad MBCDB header: n=9"):
        MbcDatabase.load(bad)
    bad.write_text("MBCDB 1 n=8 count=1\nff:1/1\n")
    assert MbcDatabase.load(bad).n == 8


@pytest.mark.parametrize("header", [
    "MBCDB 1 4 2",
    "MBCDB 1 n=2 count=2 foo",
    "MBCDB 1 n=2 count=2 extra restricted",
    "MBCDB 1 n=2 count=2 restricted restricted",
])
def test_database_load_accepts_only_written_headers(tmp_path, header):
    # each of these once loaded; only "MBCDB 1 n=<n> count=<k>" and an
    # optional " restricted" are ever written
    path = tmp_path / "mbc2.db"
    _stream(path, 2)
    body = path.read_text().split("\n", 1)[1]
    for good in ("MBCDB 1 n=2 count=2", "MBCDB 1 n=2 count=2 restricted"):
        path.write_text(f"{good}\n{body}")
        assert MbcDatabase.load(path).restricted == good.endswith("restricted")
    path.write_text(f"{header}\n{body}")
    with pytest.raises(ValueError, match="bad MBCDB header"):
        MbcDatabase.load(path)


def test_database_load_refuses_an_unrestricted_file_with_rows_dropped(tmp_path, db5):
    # the one row this game violates, dropped with the header count edited,
    # would make the game look balanced; an unrestricted file on n <= 6
    # players must hold every minimal balanced collection, as many as known
    v = {0b00011: F(3, 5), 0b11100: F(3, 5), 0b11111: F(1)}
    game = Game(5, v)
    violated = [row for row in db5.rows
                if sum(F(x, row[2]) * v.get(m, 0) for m, x in zip(*row[:2])) > 1]
    kept = tuple(row for row in db5.rows if row not in violated)
    assert len(violated) == 1 and not is_balanced_game(game, db5)
    assert is_balanced_game(game, MbcDatabase(5, kept))
    write = LineCodec().write
    path = tmp_path / "tampered5.db"
    path.write_text(f"MBCDB 1 n=5 count={len(kept)}\n"
                    + "".join(sorted(write(*row) + "\n" for row in kept)))
    with pytest.raises(ValueError) as info:
        MbcDatabase.load(path)
    assert str(info.value) == ("MBCDB holds 1291 collections, but there are "
                               "1292 minimal balanced collections on 5 players")
    # a restricted file holds only some of the collections, so any count goes
    path.write_text(path.read_text().replace("count=1291", "count=1291 restricted", 1))
    assert MbcDatabase.load(path).rows == kept


def _respelled(line, k):
    """The line with every weight num/den written k*num/k*den."""
    items = (item.replace("/", ":").split(":") for item in line.split())
    return " ".join(f"{m}:{k * int(x)}/{k * int(d)}" for m, x, d in items)


def _with_a_zero_weight(items):
    """The items plus one more coalition, weighted 0, in mask order: only
    the positivity check fails."""
    masks = {int(item.split(":")[0], 16): item for item in items}
    new = min(set(range(1, max(masks) + 2)) - set(masks))
    masks[new] = f"{new:x}:0/1"
    return [masks[m] for m in sorted(masks)]


def _with_every_singleton(items):
    """The row with a third of its weights, plus every singleton and the
    grand coalition at a third each: balanced with positive weights, and
    more than n coalitions for n >= 2."""
    weights = {}
    for item in items:
        mask, weight = item.split(":")
        weights[int(mask, 16)] = Fraction(weight) / 3
    full = 0
    for mask in weights:
        full |= mask
    for mask in [1 << i for i in range(full.bit_length())] + [full]:
        weights[mask] = weights.get(mask, 0) + Fraction(1, 3)
    return [f"{m:x}:{w.numerator}/{w.denominator}" for m, w in sorted(weights.items())]


# one fault per check, made from a line's items: only that check fails, or
# it is the first in the per-line order that does
LINE_FAULTS = {
    "malformed": lambda items: [items[0].replace(":", "-"), *items[1:]],
    "denominator": lambda items: [items[0].split("/")[0] + "/0", *items[1:]],
    "increasing": lambda items: [*items, items[0]],
    "range": lambda items: [*items[:-1], "100:" + items[-1].split(":")[1]],
    "positive": _with_a_zero_weight,
    "sums": lambda items: [_respelled(items[0], 2).replace("/", "1/", 1), *items[1:]],
    "count": _with_every_singleton,
}


def _load_corpus(tmp_path):
    """(name, MBCDB file text) pairs: generated files, the same files with
    each line fault at the first, a middle and the last line, and with
    faults and spellings no single line shows."""
    bodies = {}
    for name, n, system in [("n3", 3, None), ("n4", 4, None), ("n5", 5, None),
                            ("r4", 4, [0b0111, 0b1100, 0b1010])]:
        _stream(tmp_path / "base.db", n, system)
        header, *lines = (tmp_path / "base.db").read_text().splitlines()
        bodies[name] = header, lines
    corpus = []

    def add(name, header, lines, end="\n"):
        corpus.append((name, header + end + "".join(line + end for line in lines)))

    for name, (header, lines) in bodies.items():
        add(name, header, lines)
        for fault, make in LINE_FAULTS.items():
            for i in (0, len(lines) // 2, len(lines) - 1):
                faulty = list(lines)
                faulty[i] = " ".join(make(lines[i].split()))
                add(f"{name} {fault} at {i}", header, faulty)
    header, lines = bodies["n4"]
    add("crlf", header, lines, "\r\n")
    add("cr", header, lines, "\r")
    add("upper hex, tabs", header, [line.upper().replace(" ", "\t") for line in lines])
    add("whitespace-only lines", header,
        ["", "  ", *lines[:20], "\t \f", *["   "] * 50, *lines[20:], " "])
    corpus.append(("no final newline", "\n".join([header, *lines])))
    add("line-end token", header, [*lines[:-1], lines[-1].replace(" ", " ; ", 1)])
    add("line-end glued", header, [*lines[:-1], lines[-1] + ";"])
    # two valid rows on one line, the count still that of the rows
    add("line-end token between rows", header,
        [*lines[:-2], f"{lines[-2]} ; {lines[-1]}"])
    add("two spellings", header.replace("42", "43"), [*lines, _respelled(lines[7], 3)])
    add("count", header.replace("42", "43"), lines)
    # one collection twice, with two weight systems, the later one in row
    # order first in the file
    add("twice, two weight systems", "MBCDB 1 n=4 count=2 restricted",
        ["1:1/3 2:1/3 3:2/3 c:1/1", "1:1/2 2:1/2 3:1/2 c:1/1"])
    add("known count", header.replace("42", "41"), lines[1:])
    add("known count, and twice", header.replace("42", "41"),
        [*lines[2:], _respelled(lines[5], 2)])
    header, lines = bodies["r4"]
    count = f"count={len(lines)}"
    add("restricted, one row dropped", header.replace(count, f"count={len(lines) - 1}"),
        lines[1:])
    add("restricted, empty", header.replace(count, "count=0"), [])
    header, lines = bodies["n5"]
    # every line spelled its own way: 1,292 weight spellings
    scaled = [_respelled(line, k) for k, line in enumerate(lines, 2)]
    add("n5 spelled per line", header, scaled)
    add("n5 spelled per line, sums", header, [*scaled[:-1], _respelled(lines[-1], 1) + " 1f:1/1"])
    add("n5 spelled per line, upper hex", header, [line.upper() for line in scaled])
    return corpus


@pytest.fixture(scope="module")
def load_corpus(tmp_path_factory):
    """The corpus, each file with the reference reader's outcome: its
    (n, rows, restricted), or the message it refuses the file with."""
    tmp_path = tmp_path_factory.mktemp("corpus")
    path = tmp_path / "variant.db"
    cases = []
    for name, text in _load_corpus(tmp_path):
        path.write_bytes(text.encode())
        try:
            expected = load_line_by_line(path)
        except ValueError as exc:
            expected = str(exc)
        cases.append((name, text, expected))
    return cases


def test_load_corpus_covers_every_outcome(load_corpus):
    messages = [expected for _, _, expected in load_corpus if isinstance(expected, str)]
    for problem in LOAD_ERRORS.values():
        assert sum(message.endswith(problem) for message in messages) >= 3
    for start in ("MBCDB count mismatch", "MBCDB lists a collection twice", "MBCDB holds"):
        assert any(message.startswith(start) for message in messages)
    spellings = {line.split(":", 1)[1] for name, text, _ in load_corpus
                 if name == "n5 spelled per line" for line in text.splitlines()[1:]}
    assert len(spellings) > 255


@pytest.mark.parametrize("chunk", [16, 100, generate.LOAD_CHUNK])
def test_database_load_matches_line_by_line_reader(tmp_path, monkeypatch, load_corpus, chunk):
    # small pieces make every file span several of them, and cut most lines
    monkeypatch.setattr(generate, "LOAD_CHUNK", chunk)
    first_fault = generate._first_fault
    reread = []

    def recorded(*args):
        reread.append(args)
        return first_fault(*args)

    monkeypatch.setattr(generate, "_first_fault", recorded)
    path = tmp_path / "variant.db"
    for name, text, expected in load_corpus:
        path.write_bytes(text.encode())
        reread.clear()
        try:
            db = MbcDatabase.load(path)
            got = db.n, db.rows, db.restricted
        except ValueError as exc:
            got = str(exc)
        assert got == expected, name
        # the file is read line by line only to name a faulty line
        assert bool(reread) == str(got).startswith("MBCDB line"), name


def test_database_load_matches_line_by_line_reader_on_edited_files(tmp_path, monkeypatch):
    # seeded character edits of a generated file, among them the line-end
    # token, CR, NUL, and \x1c and \x85, which split as whitespace but end
    # no line
    monkeypatch.setattr(generate, "LOAD_CHUNK", 16)
    _stream(tmp_path / "base.db", 4)
    header, body = (tmp_path / "base.db").read_text().split("\n", 1)
    pieces = [";", "\r", "\x00", "\x1c", "\x85", " ", "\t", "\n", "0", "f", ":", "/",
              ":1/1", "2/2", "100"]
    rng = random.Random(31)
    path = tmp_path / "edited.db"
    loaded = 0
    for _ in range(300):
        chars = list(body)
        for _ in range(rng.randint(1, 3)):
            at, edit = rng.randrange(len(chars)), rng.random()
            if edit < 0.5:
                chars[at:at] = rng.choice(pieces)
            elif edit < 0.8:
                del chars[at]
            else:
                chars[at] = rng.choice(pieces)
        path.write_bytes(f"{header}\n{''.join(chars)}".encode())
        try:
            expected = load_line_by_line(path)
        except ValueError as exc:
            expected = str(exc)
        try:
            db = MbcDatabase.load(path)
            got = db.n, db.rows, db.restricted
        except ValueError as exc:
            got = str(exc)
        assert got == expected, "".join(chars)
        loaded += not isinstance(got, str)
    assert 0 < loaded < 300


def test_streaming_generation_matches_in_memory(tmp_path, monkeypatch, db5):
    # groups spilled to the temporary file several times give the bytes of
    # one in-memory pass
    direct = tmp_path / "direct5.db"
    count = _stream(direct, 5)
    monkeypatch.setattr(generate, "SPILL_BYTES", 8_000)
    out = tmp_path / "mbc5.db"
    assert _stream(out, 5) == count == 1292
    assert list(MbcDatabase.load(out)) == list(db5)
    assert MbcDatabase.load(out) == db5
    assert out.read_bytes() == direct.read_bytes()


def test_streaming_in_small_chunks_matches_one_chunk(tmp_path, monkeypatch):
    # every line spilled on its own, a few spills, and none give the same
    # bytes, with groups split across spills and held in memory alike, and
    # each group written 7 lines at a time with a short last write
    direct = tmp_path / "direct5.db"
    _stream(direct, 5)
    monkeypatch.setattr(generate, "WRITE_LINES", 7)
    for spill_bytes in (1, 8_000, generate.SPILL_BYTES):
        monkeypatch.setattr(generate, "SPILL_BYTES", spill_bytes)
        out = tmp_path / f"chunked{spill_bytes}.db"
        assert _stream(out, 5) == 1292
        assert out.read_bytes() == direct.read_bytes()


def test_restricted_streaming_matches_in_memory_bytes(tmp_path, monkeypatch):
    system = [0b01111, 0b11110]
    direct = tmp_path / "direct.db"
    count = _stream(direct, 5, system)
    monkeypatch.setattr(generate, "SPILL_BYTES", 1_000)
    out = tmp_path / "stream.db"
    assert _stream(out, 5, system) == count
    assert count == len(direct.read_text().splitlines()) - 1 > 50
    assert out.read_bytes() == direct.read_bytes()
    assert MbcDatabase.load(out).rows == peleg(5, set_system=system).rows


def test_generation_is_limited_to_max_players(tmp_path):
    # a database holds at most MAX_PLAYERS players
    with pytest.raises(ValueError, match="exceeds the 8 players"):
        peleg(9)
    out = tmp_path / "mbc9.db"
    with pytest.raises(ValueError, match="exceeds the 8 players"):
        _stream(out, 9)
    assert out.read_text() == ""


@pytest.mark.parametrize("n,system", [(5, None), *RESTRICTED_SYSTEMS])
def test_each_collection_is_emitted_once(n, system):
    # the contract the writer relies on: at every step up to 4 -> 5, and
    # under restrictions, the emitted children are as many as the distinct ones
    allowed = restriction(n, system)
    rows = list(peleg(1).rows)
    for n_old in range(1, n):
        emitted = []
        _add_player_raw(rows, n_old, allowed, lambda masks, nums, den:
                        emitted.append((bytes(masks), nums, den)))
        assert len(emitted) == len({masks for masks, _, _ in emitted})
        rows = sorted(emitted)
    assert rows == list(peleg(n, set_system=system).rows)


@pytest.mark.parametrize("n,system", RESTRICTED_SYSTEMS)
def test_case4_join_matches_on_every_restricted_step(n, system):
    allowed = restriction(n, system)
    counts = [_joined_pairs_match_the_pass_over_all_pairs(_rows_on(n_old, allowed), n_old)
              for n_old in range(1, n)]
    assert sum(counts) > 0


def _emit_cases_123_twice_on_the_step_to_3(monkeypatch):
    children_123 = generate._children_123

    def twice(masks, nums, den, p_bit, emit):
        def emit_twice(*row):
            emit(*row)
            emit(*row)
        children_123(masks, nums, den, p_bit, emit_twice if p_bit == 4 else emit)

    monkeypatch.setattr(generate, "_children_123", twice)


@pytest.mark.parametrize("spill_bytes", [1, generate.SPILL_BYTES])
def test_streaming_refuses_a_collection_emitted_twice(tmp_path, monkeypatch, spill_bytes):
    _emit_cases_123_twice_on_the_step_to_3(monkeypatch)
    monkeypatch.setattr(generate, "SPILL_BYTES", spill_bytes)
    with pytest.raises(ValueError, match=r"MBCDB line '1:1/1 2:1/1 4:1/1' written twice"):
        _stream(tmp_path / "mbc3.db", 3)


def test_peleg_refuses_a_collection_emitted_twice(monkeypatch):
    # the in-memory rows feed `mbc analyze` without a file, and
    # `MbcDatabase.contains` assumes their masks are distinct
    _emit_cases_123_twice_on_the_step_to_3(monkeypatch)
    with pytest.raises(ValueError, match=r"emitted twice: '1:1/1 2:1/1 4:1/1'"):
        peleg(3)
    # and the steps before the last one of a streamed run
    with pytest.raises(ValueError, match=r"emitted twice: '1:1/1 2:1/1 4:1/1'"):
        peleg_stream(4, io.StringIO())


def test_peleg_argument_errors():
    with pytest.raises(ValueError):
        peleg(0)
    with pytest.raises(ValueError):
        peleg(3, set_system=[0b011])  # does not cover player 3
    for element in (0, 0b1000):
        with pytest.raises(ValueError, match=f"coalition {element:#x} out of range for n=3"):
            peleg(3, set_system=[0b111, element])


# ---------------------------------------------------------------------------
# restricted generation


def restricted_reference(n, system):
    keep = []
    for collection in brute_force_mbcs(n):
        if all(any(m & ~f == 0 for f in system) for m in collection.coalitions):
            keep.append(collection)
    return keep


@pytest.mark.parametrize("n,system", RESTRICTED_SYSTEMS)
def test_restricted_generation_matches_brute_force(n, system):
    got = list(peleg(n, set_system=system))
    assert got == restricted_reference(n, system)
    for collection in got:
        for mask in collection.coalitions:
            assert any(mask & ~f == 0 for f in system)


def test_restricted_database_header(tmp_path):
    assert peleg(3, set_system=[0b111]).restricted
    path = tmp_path / "r.db"
    _stream(path, 3, [0b111])
    assert path.read_text().startswith("MBCDB 1 n=3 count=")
    assert "restricted" in path.read_text().splitlines()[0]
    assert MbcDatabase.load(path).restricted


# ---------------------------------------------------------------------------
# classification


def test_check_minimal_balanced_examples():
    status, weights = check_minimal_balanced([AB, AC, AD, BCD], 4)
    assert status == MINIMAL
    assert weights == (F(1, 3), F(1, 3), F(1, 3), F(2, 3))

    status, _ = check_minimal_balanced([0b001, 0b010, 0b100, 0b111], 3)
    assert status == BALANCED_NOT_MINIMAL

    status, _ = check_minimal_balanced([0b011, 0b101], 3)
    assert status == NOT_BALANCED

    # any partition is minimal balanced with unit weights
    status, weights = check_minimal_balanced([0b0011, 0b1100], 4)
    assert status == MINIMAL and weights == (F(1), F(1))


def test_check_minimal_balanced_zero_weight_subcase():
    # {1} u {1,2}: the unique solution puts weight 0 on {1}
    assert check_minimal_balanced([0b01, 0b11], 2)[0] == NOT_BALANCED


def test_check_minimal_balanced_errors():
    with pytest.raises(ValueError):
        check_minimal_balanced([], 3)
    with pytest.raises(ValueError):
        check_minimal_balanced([0], 3)
    with pytest.raises(ValueError):
        check_minimal_balanced([1, 1], 3)


def _assert_classified_as_reference(masks, n):
    got = check_minimal_balanced(masks, n)
    assert got == check_minimal_balanced_reference(masks, n), (masks, n)
    if got[1] is not None:
        assert all(type(w) is Fraction for w in got[1])


def test_check_minimal_balanced_matches_reference_small():
    # every subcollection of at most 4 coalitions, n <= 4
    for n in range(1, 5):
        all_masks = range(1, full_mask(n) + 1)
        for size in range(1, 5):
            for combo in combinations(all_masks, size):
                _assert_classified_as_reference(combo, n)


def test_check_minimal_balanced_matches_reference_random():
    # seeded random collections of 1..9 coalitions, in random order
    rng = random.Random(8)
    statuses = set()
    for n in (5, 6):
        for _ in range(150):
            masks = rng.sample(range(1, full_mask(n) + 1), rng.randint(1, 9))
            _assert_classified_as_reference(masks, n)
            statuses.add(check_minimal_balanced(masks, n)[0])
    assert statuses == {MINIMAL, BALANCED_NOT_MINIMAL, NOT_BALANCED}


def test_check_against_brute_force_families():
    # every subcollection of the 3-player power set is classified correctly:
    # balanced iff it is a union of the minimal balanced collections inside
    db = peleg(3)
    for r in range(1, 8):
        for combo in combinations(range(1, 8), r):
            status, _ = check_minimal_balanced(combo, 3)
            balanced = balanced_union_reference(combo, db)
            assert (status != NOT_BALANCED) == balanced
            minimal = db.contains(combo)
            assert (status == MINIMAL) == minimal
    # a collection with a coalition outside 1..2^n-1 or a repeated one is
    # not in the database, and asking does not raise: a row's masks are
    # bytes, which hold 0..255 only
    assert db.contains([0b001, 0b010, 0b100])
    for masks in ([0, 0b111], [0b001, 0b010, 0b100, 0b1000], [0b111, 256],
                  [-1, 0b111], [0b001, 0b001, 0b010, 0b100], [0b111, 0b111], []):
        assert not db.contains(masks)


def test_is_balanced_collection_examples(db3):
    assert is_balanced_collection([0b001, 0b010, 0b100, 0b111], db3)
    assert not is_balanced_collection([0b011, 0b101, 0b001], db3)
    assert is_balanced_collection([0b111], db3)


def test_is_balanced_collection_checks_input(db3):
    # the checks of check_minimal_balanced: a repeated coalition, coalitions
    # outside 1..2^n-1, and the empty collection
    for masks in ([7, 7], [0b1000], [0, 7], []):
        with pytest.raises(ValueError):
            check_minimal_balanced(masks, 3)
        with pytest.raises(ValueError):
            is_balanced_collection(masks, db3)


def test_unbalanced_witness_vectors(db3, db4):
    # the witness y certifies unbalancedness: y(N)=0 yet y(S)>0 on members
    for n, collection, y, db in (
        (3, [0b011, 0b101, 0b001], (2, -1, -1), db3),
        (
            4,
            [0b0001, 0b0011, 0b0101, 0b1001, 0b0111, 0b1011, 0b1101],
            (3, -1, -1, -1),
            db4,
        ),
    ):
        assert sum(y) == 0
        for mask in collection:
            assert sum(y[p - 1] for p in members(mask)) > 0
        assert not is_balanced_collection(collection, db)


# ---------------------------------------------------------------------------
# soundness of the generated databases


def assert_sound(db, n):
    for collection in db:
        assert len(collection) <= n
        assert all(w > 0 for w in collection.weights)
        assert collection.player_sums(n) == [F(1)] * n
        matrix = RatMatrix.from_collection(collection.coalitions, n)
        assert rank(matrix) == len(collection)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_databases_sound(n):
    assert_sound(peleg(n), n)


def test_collections_verify_individually(db4):
    for collection in db4:
        assert is_minimal_balanced(collection, 4)


def test_iteration_keeps_no_collections():
    # iterating builds each row's collection as it goes: the rows stay the
    # database's only per-row storage
    db = peleg(4)
    first = list(db)
    assert set(vars(db)) == {"n", "rows", "restricted"}
    assert list(db) == first
    assert first == [WeightedCollection.from_row(*row) for row in db.rows]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rows_are_canonical_and_match_solved_weights(n):
    # the collection view of every row carries the Fraction weights that
    # linear algebra solves for its coalitions, independently of the generator
    db = peleg(n)
    collections = list(db)
    assert len(collections) == len(db.rows)
    assert [masks for masks, _, _ in db.rows] == sorted({m for m, _, _ in db.rows})
    for row, collection in zip(db.rows, collections):
        masks, nums, den = row
        assert gcd(den, *nums) == 1
        assert db_row(collection) == row
        status, weights = check_minimal_balanced(masks, n)
        assert status == MINIMAL and collection.weights == weights


def test_anti_partitions_present():
    # every anti-partition with s >= 2 blocks appears with weights 1/(s-1)
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
        db = peleg(n)
        for blocks in partitions(list(range(1, n + 1))):
            s = len(blocks)
            if s < 2:
                continue
            anti = sorted(
                complementary
                for block in blocks
                for complementary in [full_mask(n) ^ coalition_mask(block)]
            )
            expected = WeightedCollection(
                tuple(anti), tuple(F(1, s - 1) for _ in anti)
            )
            assert db.contains(expected.coalitions)
            stored = next(w for w in db if w.coalitions == expected.coalitions)
            assert stored == expected
