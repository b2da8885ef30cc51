import random
from fractions import Fraction

import pytest

from mbc.model import (
    Game,
    GameFormatError,
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
        '{"n":3,"values":{"1":"1x"}}',        # unparsable number
        '{"n":3,"values":{"1":"1","1":"2"}}', # duplicate key
        '{"n":3,"values":{"1":0.5}}',         # bare float
        '{"n":3,"values":{},"extra":1}',      # unknown field
        '{"values":{}}',                      # missing n
        '[1,2]',                              # not an object
        'nonsense',
    ],
)
def test_parse_game_rejects(text):
    with pytest.raises(GameFormatError):
        parse_game(text)


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


def test_subgame_relabels():
    game = Game(4, {coalition_mask([2, 4]): Fraction(5), coalition_mask([2]): Fraction(1)})
    sub = game.subgame(coalition_mask([2, 4]))
    assert sub.n == 2
    assert sub.value(0b11) == 5
    assert sub.value(0b01) == 1


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
    line = wc.format_line()
    assert line == "3:1/3 5:1/3 9:1/3 e:2/3"
    assert WeightedCollection.parse_line(line) == wc
    assert wc.player_sums(4) == [Fraction(1)] * 4


def test_parse_coalition_key_errors():
    with pytest.raises(GameFormatError):
        parse_coalition_key("", 3)
    with pytest.raises(GameFormatError):
        parse_coalition_key("1,,2", 3)
    assert parse_coalition_key("1,3", 3) == 0b101


def test_format_value():
    assert format_value(Fraction(3, 5)) == "3/5"
    assert format_value(Fraction(4)) == "4"


def test_coalition_payoff():
    from mbc.model import coalition_payoff
    x = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert coalition_payoff(x, 0b101) == Fraction(2, 3)
    assert coalition_payoff(x, 0b111) == 1
    assert coalition_payoff(x, 0) == 0
