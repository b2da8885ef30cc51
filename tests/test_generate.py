import io
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from mbc import generate
from mbc.generate import (
    BALANCED_NOT_MINIMAL,
    MINIMAL,
    NOT_BALANCED,
    MbcDatabase,
    _add_player_raw,
    _children_4,
    _merged_pair,
    _orders,
    _pair_form,
    _rank01,
    _rank2,
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
from mbc.model import LineCodec, WeightedCollection, coalition_mask, full_mask, members
from oracles import (
    balanced_union_reference,
    brute_force_mbcs,
    check_minimal_balanced_reference,
    children_4_reference,
    is_minimal_balanced,
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


def _size_filtered_pairs(n_old):
    """The parent pairs the induction step from n_old players passes to
    `_merged_pair`: their union has at most n_old + 1 coalitions."""
    forms = [_pair_form(row) for row in peleg(n_old).rows]
    return [(a, b) for a, b in combinations(forms, 2)
            if (a[0] | b[0]).bit_count() <= n_old + 1]


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
    _children_4(masks, mu, nu, L, p_bit, _orders(len(masks)),
                lambda *row: got.append(row))
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

        _children_4(union, mu, nu, L, p_bit, _orders(len(union)), emit)
        assert got == children_4_reference(union, mu, nu, L, p_bit)
        emitted += len(got)
    assert emitted >= len(merged) > 0


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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_database_rows_roundtrip(tmp_path, n):
    path = tmp_path / f"mbc{n}.db"
    assert _stream(path, n) == len(peleg(n))
    assert MbcDatabase.load(path).rows == peleg(n).rows


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


def test_streaming_generation_matches_in_memory(tmp_path, monkeypatch, db5):
    # several shards merged give the bytes of one in-memory pass
    direct = tmp_path / "direct5.db"
    count = _stream(direct, 5)
    monkeypatch.setattr(generate, "SHARD_LINES", 200)
    out = tmp_path / "mbc5.db"
    assert _stream(out, 5) == count == 1292
    assert list(MbcDatabase.load(out)) == list(db5)
    assert MbcDatabase.load(out) == db5
    assert out.read_bytes() == direct.read_bytes()


def test_restricted_streaming_matches_in_memory_bytes(tmp_path, monkeypatch):
    system = [0b01111, 0b11110]
    direct = tmp_path / "direct.db"
    count = _stream(direct, 5, system)
    monkeypatch.setattr(generate, "SHARD_LINES", 50)
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
        _add_player_raw(rows, n_old, allowed, lambda *row: emitted.append(row))
        assert len(emitted) == len({masks for masks, _, _ in emitted})
        rows = sorted(emitted)
    assert rows == list(peleg(n, set_system=system).rows)


def _emit_cases_123_twice_on_the_step_to_3(monkeypatch):
    children_123 = generate._children_123

    def twice(masks, nums, den, p_bit, orders, emit):
        def emit_twice(*row):
            emit(*row)
            emit(*row)
        children_123(masks, nums, den, p_bit, orders, emit_twice if p_bit == 4 else emit)

    monkeypatch.setattr(generate, "_children_123", twice)


@pytest.mark.parametrize("shard_lines", [1, 1_000_000])
def test_streaming_refuses_a_collection_emitted_twice(tmp_path, monkeypatch, shard_lines):
    _emit_cases_123_twice_on_the_step_to_3(monkeypatch)
    monkeypatch.setattr(generate, "SHARD_LINES", shard_lines)
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
