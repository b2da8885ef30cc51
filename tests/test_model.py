import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mbc
from mbc.model import (
    MAX_PLAYERS,
    Game,
    GameFormatError,
    LineCodec,
    WeightedCollection,
    coalition_key,
    coalition_mask,
    complement,
    format_value,
    full_mask,
    members,
    parse_coalition_key,
    parse_game,
    parse_number,
    scaled,
    scaled_ratios,
)


def test_members_and_mask_roundtrip():
    assert members(0b10101) == [1, 3, 5]
    assert coalition_mask([1, 3, 5]) == 0b10101
    assert coalition_key(0b1011) == "1,2,4"


@pytest.mark.parametrize(
    "n, mask, expected",
    [
        (4, coalition_mask([1, 2]), coalition_mask([3, 4])),
        (3, 0b111, 0),
        (5, coalition_mask([2, 5]), coalition_mask([1, 3, 4])),
    ],
)
def test_complement_examples(n, mask, expected):
    assert complement(mask, n) == expected


def test_complement_involution():
    for n in (1, 2, 3, 4, 5):
        for mask in range(1, full_mask(n)):
            assert complement(complement(mask, n), n) == mask


@pytest.mark.parametrize(
    "text, value",
    [
        ("0.6", Fraction(3, 5)),
        ("-2.25", Fraction(-9, 4)),
        ("7", Fraction(7)),
        ("3/5", Fraction(3, 5)),
        ("-31/10", Fraction(-31, 10)),
        ("+0.1", Fraction(1, 10)),
    ],
)
def test_parse_number_exact(text, value):
    assert parse_number(text) == value


@pytest.mark.parametrize("text", ["", "1.2.3", "1/0", "0x5", "two", "1e3"])
def test_parse_number_rejects(text):
    with pytest.raises(GameFormatError):
        parse_number(text)


def test_rational_arithmetic_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-2**63, 2**63), rng.randint(1, 2**63))
        b = Fraction(rng.randint(-2**63, 2**63), rng.randint(1, 2**63))
        assert (a + b) - b == a
        assert (a * b) / b == a if b else True


def test_parse_game_four_player_fixture():
    text = (
        '{"n":4,"values":{"1,2,3":"0.6","1,2,4":"0.6","1,3,4":"0.6",'
        '"2,3,4":"0.6","1,2,3,4":"1"}}'
    )
    game = parse_game(text)
    assert game.n == 4
    assert game.value(coalition_mask([1, 2, 3])) == Fraction(3, 5)
    assert game.value(coalition_mask([1, 2])) == 0
    assert game.grand_value() == 1


def test_parse_game_zero_game():
    game = parse_game('{"n":2,"values":{}}')
    assert game.n == 2
    assert game.value(1) == 0 and game.value(3) == 0


def test_parse_game_accepts_integers_and_rationals():
    game = parse_game('{"n":3,"values":{"1":2,"2,3":"3/2"}}')
    assert game.value(1) == 2
    assert game.value(6) == Fraction(3, 2)


@pytest.mark.parametrize(
    "text",
    [
        '{"n":3,"values":{"3,1":"1"}}',       # not strictly increasing
        '{"n":3,"values":{"0":"1"}}',         # player index 0
        '{"n":3,"values":{"4":"1"}}',         # player out of range
        '{"n":3,"values":{"1,1":"1"}}',       # repeated player
        '{"n":2,"values":{"1,2\\n":"1"}}',    # trailing newline in a key
        '{"n":3,"values":{"1":"1x"}}',        # unparsable number
        '{"n":3,"values":{"1":"1","1":"2"}}', # duplicate key
        '{"n":3,"values":{"1":0.5}}',         # bare float
        '{"n":3,"values":{},"extra":1}',      # unknown field
        '{"values":{}}',                      # missing n
        '{"n":true,"values":{"1":"1"}}',      # boolean n
        '{"n":3,"values":{"1":true}}',        # boolean value
        '{"n":3,"values":{"1":false}}',       # boolean zero value
        '[1,2]',                              # not an object
        'nonsense',
    ],
)
def test_parse_game_rejects(text):
    with pytest.raises(GameFormatError):
        parse_game(text)


@pytest.mark.parametrize("n", [0, MAX_PLAYERS + 1])
def test_game_player_limit(n):
    message = f"n must be in 1..{MAX_PLAYERS}"
    with pytest.raises(ValueError, match=message):
        Game(n, {})
    with pytest.raises(GameFormatError, match=message):
        parse_game(f'{{"n":{n},"values":{{}}}}')


def test_game_accepts_max_players():
    grand = full_mask(MAX_PLAYERS)
    game = parse_game(f'{{"n":{MAX_PLAYERS},"values":{{"{coalition_key(grand)}":"1"}}}}')
    assert game == Game(MAX_PLAYERS, {grand: Fraction(1)})


def test_serialization_idempotent_after_canonicalization():
    text = '{"n":3,"values":{"2,3":"0.50","1":"0","1,2":"2/4"}}'
    once = parse_game(text).to_text()
    twice = parse_game(once).to_text()
    assert once == twice
    assert '"1,2":"1/2"' in once and '"1":' not in once  # zeros dropped


def test_game_digest_stable_under_formatting():
    a = parse_game('{"n":3,"values":{"1,2":"0.5"}}')
    b = parse_game('{"n": 3, "values": {"1,2": "2/4"}}')
    assert a.digest() == b.digest()


def test_value_rejects_masks_outside_the_game():
    game = Game(2, {3: 1})
    assert game.value(0) == 0
    assert game.value(3) == 1
    assert game.value(0b10) == 0
    # a mask naming a third player, or a negative one, is no coalition of
    # the game, not a coalition of value 0
    for mask in (0b100, 0b101, -1):
        with pytest.raises(ValueError, match="out of range"):
            game.value(mask)


def test_scaled_is_the_values_over_their_common_denominator():
    game = Game(3, {0b001: Fraction(1, 2), 0b110: 2, 0b111: Fraction(3, 4)})
    V, D = game.scaled
    assert D == 4
    assert V == (0, 2, 0, 0, 0, 0, 8, 3)
    assert all(Fraction(V[m], D) == game.value(m) for m in range(8))
    assert game.scaled is game.scaled   # made once and kept
    assert Game(2, {}).scaled == ((0, 0, 0, 0), 1)


def test_weighted_collection_validation():
    with pytest.raises(ValueError):
        WeightedCollection((3, 3), (Fraction(1), Fraction(1)))  # duplicate
    with pytest.raises(ValueError):
        WeightedCollection((3, 1), (Fraction(1), Fraction(1)))  # unsorted
    with pytest.raises(ValueError):
        WeightedCollection((1,), (Fraction(0),))  # nonpositive weight
    with pytest.raises(ValueError):
        WeightedCollection((), ())


def test_weighted_collection_line_roundtrip():
    wc = WeightedCollection(
        (3, 5, 9, 14),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)),
    )
    codec = LineCodec()
    line = codec.write(*wc.to_row())
    assert line == "3:1/3 5:1/3 9:1/3 e:2/3"
    masks, nums, den, _ = codec.read(line)
    assert WeightedCollection.from_row(masks, nums, den) == wc
    assert wc.player_sums(4) == [Fraction(1)] * 4


def test_player_sums_rejects_a_player_above_n():
    wc = WeightedCollection((0b001, 0b110), (Fraction(1), Fraction(1)))
    assert wc.player_sums(3) == [Fraction(1)] * 3
    with pytest.raises(ValueError, match="out of range for n=2"):
        wc.player_sums(2)


@pytest.mark.parametrize(
    "masks,nums,den,line,row",
    [
        # weights not in lowest terms are written reduced, each on its own
        ((3, 5), (2, 4), 6, "3:1/3 5:2/3", ((3, 5), (1, 2), 3)),
        ((1, 2, 4), (3, 3, 6), 6, "1:1/2 2:1/2 4:1/1", ((1, 2, 4), (1, 1, 2), 2)),
        # masks above one byte: the codec reads and writes any mask
        ((0xFF, 0x100, 0xFFFFFFFF), (1, 1, 2), 4, "ff:1/4 100:1/4 ffffffff:1/2",
         ((0xFF, 0x100, 0xFFFFFFFF), (1, 1, 2), 4)),
        # masks given as a list
        ([0x1, 0x1FE], (5, 5), 5, "1:1/1 1fe:1/1", ((0x1, 0x1FE), (1, 1), 1)),
    ],
)
def test_line_writer_round_trips(masks, nums, den, line, row):
    codec = LineCodec()
    for _ in range(2):  # the second write uses the stored template
        assert codec.write(masks, nums, den) == line
    assert codec.read(line) == (*row, sum(row[1]))
    assert LineCodec().read(codec.write(*row)) == (*row, sum(row[1]))


def test_parse_coalition_key_errors():
    with pytest.raises(GameFormatError):
        parse_coalition_key("", 3)
    with pytest.raises(GameFormatError):
        parse_coalition_key("1,,2", 3)
    with pytest.raises(GameFormatError):
        parse_coalition_key("1,2\n", 3)  # `$` would match before the newline
    assert parse_coalition_key("1,3", 3) == 0b101


def test_scaled_ratios_reduce_each_pair_like_fractions():
    # unreduced pairs, zero numerators and whole numbers, against the
    # Fraction path: equal integers over the same least common denominator
    rng = random.Random(5)
    for _ in range(200):
        pairs = [(rng.randint(0, 12) * k, rng.randint(1, 12) * k)
                 for k in (rng.randint(1, 4) for _ in range(rng.randint(1, 6)))]
        ints, den = scaled_ratios(pairs)
        assert (ints, den) == scaled([Fraction(x, d) for x, d in pairs])
        assert [Fraction(x, den) for x in ints] == [Fraction(x, d) for x, d in pairs]
    assert scaled_ratios([(2, 4), (0, 6), (3, 3)]) == ([1, 0, 2], 2)
    assert scaled_ratios([]) == ([], 1)


def test_format_value():
    assert format_value(Fraction(3, 5)) == "3/5"
    assert format_value(Fraction(4)) == "4"


NEGATIVE_MASK_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from mbc.model import coalition_key
try:
    coalition_key(-1)
except ValueError as exc:
    print("ValueError", exc)
"""


def test_negative_masks_rejected_before_looping():
    # members(-1) would shift forever (-1 >> 1 == -1) and fill memory, so the
    # entry point runs in a child process with a memory limit and a timeout:
    # a regression fails here instead of hanging the suite
    src = Path(mbc.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", NEGATIVE_MASK_PROBE],
                            capture_output=True, text=True, timeout=60,
                            env={"PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ValueError coalition mask -1 is negative\n"
