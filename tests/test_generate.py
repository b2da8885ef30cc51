import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from mbc.generate import (
    BALANCED_NOT_MINIMAL,
    MINIMAL,
    NOT_BALANCED,
    MbcDatabase,
    add_new_player,
    apply_case1,
    apply_case2,
    apply_case3,
    apply_case4,
    check_minimal_balanced,
    is_balanced_collection,
    peleg,
    peleg_stream,
    to_regular_hypergraph,
)
from mbc.linalg import RatMatrix, rank
from mbc.model import WeightedCollection, coalition_mask, full_mask, members
from oracles import (
    brute_force_mbcs,
    check_minimal_balanced_reference,
    is_minimal_balanced,
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


# ---------------------------------------------------------------------------
# generation

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 6, 4: 42, 5: 1292}


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


def test_add_new_player_matches_peleg(db4, db5):
    assert [w for w in add_new_player(peleg(3), 4)] == list(db4)
    assert add_new_player(db4, 5).rows == db5.rows
    with pytest.raises(ValueError):
        add_new_player(db4, 3)
    with pytest.raises(ValueError):
        add_new_player(db4, 6)


def test_generation_deterministic_bytes(tmp_path):
    paths = []
    for run in (1, 2):
        path = tmp_path / f"run{run}.db"
        peleg(4).save(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_database_save_load_roundtrip(tmp_path, db4):
    path = tmp_path / "mbc4.db"
    db4.save(path)
    text = path.read_text().splitlines()
    assert text[0] == "MBCDB 1 n=4 count=42"
    assert text[1:] == sorted(text[1:])
    loaded = MbcDatabase.load(path)
    assert loaded.n == 4 and list(loaded) == list(db4)
    assert loaded == db4


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_database_rows_roundtrip(tmp_path, n):
    db = peleg(n)
    path = tmp_path / f"mbc{n}.db"
    db.save(path)
    assert MbcDatabase.load(path).rows == db.rows


def _probe(tmp_path, db, old, new):
    """Save db with the row `old` replaced by `new`; returns the path and
    the probed row's file line number."""
    path = tmp_path / "probe.db"
    db.save(path)
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
    ],
)
def test_database_load_reports_first_fault(tmp_path, db4, new, first):
    # check order: syntax, zero denominator, increasing, range, positive, sums
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
            masks = (first[0],) + rest[1:]
            if masks[0] < masks[1] and not is_balanced_collection(masks, db):
                return WeightedCollection.from_row(masks, nums, den).format_line()
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
    db4.save(tmp_path / "db")
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
    db4.save(path)
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
    db4.save(path)
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


def test_streaming_generation_matches_in_memory(tmp_path, db5):
    out = tmp_path / "mbc5.db"
    count = peleg_stream(5, out, shard_lines=200)  # force several shards
    assert count == 1292
    assert list(MbcDatabase.load(out)) == list(db5)
    assert MbcDatabase.load(out) == db5
    direct = tmp_path / "direct5.db"
    db5.save(direct)
    assert out.read_bytes() == direct.read_bytes()


def test_restricted_streaming_matches_in_memory_bytes(tmp_path):
    system = [0b01111, 0b11110]
    out = tmp_path / "stream.db"
    count = peleg_stream(5, out, set_system=system, shard_lines=50)
    direct = tmp_path / "direct.db"
    peleg(5, set_system=system).save(direct)
    assert count == len(direct.read_text().splitlines()) - 1 > 50
    assert out.read_bytes() == direct.read_bytes()


def test_peleg_argument_errors():
    with pytest.raises(ValueError):
        peleg(0)
    with pytest.raises(ValueError):
        peleg(8)  # above the default limit
    with pytest.raises(ValueError):
        peleg(3, set_system=[0b011])  # does not cover player 3


# ---------------------------------------------------------------------------
# restricted generation


def restricted_reference(n, system):
    keep = []
    for collection in brute_force_mbcs(n):
        if all(any(m & ~f == 0 for f in system) for m in collection.coalitions):
            keep.append(collection)
    return keep


@pytest.mark.parametrize(
    "n,system",
    [
        (3, [0b011, 0b110]),
        (3, [0b111]),
        (4, [0b0111, 0b1100, 0b1010]),
        (4, [0b1111]),
        (4, [0b0011, 0b1100]),
    ],
)
def test_restricted_generation_matches_brute_force(n, system):
    got = list(peleg(n, set_system=system))
    assert got == restricted_reference(n, system)
    for collection in got:
        for mask in collection.coalitions:
            assert any(mask & ~f == 0 for f in system)


def test_restricted_database_header(tmp_path):
    db = peleg(3, set_system=[0b111])
    assert db.restricted
    path = tmp_path / "r.db"
    db.save(path)
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
            balanced = is_balanced_collection(combo, db)
            if status == NOT_BALANCED:
                assert not balanced
            else:
                assert balanced
            minimal = db.contains(combo)
            assert (status == MINIMAL) == minimal


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
# hypergraph view


def test_hypergraph_examples():
    anti = wc([(0b011, F(1, 2)), (0b101, F(1, 2)), (0b110, F(1, 2))])
    assert to_regular_hypergraph(anti) == (2, (1, 1, 1))
    partition = wc([(0b0011, F(1)), (0b1100, F(1))])
    assert to_regular_hypergraph(partition) == (1, (1, 1))
    assert to_regular_hypergraph(BASE) == (3, (1, 1, 1, 2))


def test_hypergraph_degree_invariant(db4):
    for collection in db4:
        depth, mult = to_regular_hypergraph(collection)
        degrees = [0] * 4
        for mask, m in zip(collection.coalitions, mult):
            for p in members(mask):
                degrees[p - 1] += m
        assert all(d == depth for d in degrees)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rows_are_canonical_and_match_solved_weights(n):
    # the collection view of every row carries the Fraction weights that
    # linear algebra solves for its coalitions, independently of the generator
    db = peleg(n)
    assert len(db.collections) == len(db.rows)
    assert [masks for masks, _, _ in db.rows] == sorted({m for m, _, _ in db.rows})
    for row, collection in zip(db.rows, db.collections):
        masks, nums, den = row
        assert gcd(den, *nums) == 1
        assert collection.to_row() == row
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
