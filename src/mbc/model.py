"""Value types shared by the whole library.

Coalitions are plain integer bitmasks: bit (i-1) set means player i is in
the coalition, players are numbered 1..n.  Game values and weights are
`fractions.Fraction` at the API and integers over a common denominator
inside (`Game.scaled`, `WeightedCollection.to_row`), so every comparison
made anywhere in the library is exact.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

# The most players a game, a database or a linear system has: a game's
# integer form and a database take 2^n values, no count is known beyond
# n = 7, and an n = 8 run is out of reach.  A database row also keeps its
# masks as one byte string (`generate.Row`), which holds masks up to
# 2^8 - 1 only.
MAX_PLAYERS = 8


class GameFormatError(ValueError):
    """Raised when a game file or coalition key cannot be parsed."""


# ---------------------------------------------------------------------------
# coalition bitmask helpers


def full_mask(n: int) -> int:
    return (1 << n) - 1


def members(mask: int) -> list[int]:
    """Players of a coalition, ascending, 1-based.  A negative mask raises
    ValueError: it has infinitely many bits set."""
    if mask < 0:
        raise ValueError(f"coalition mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def coalition_mask(players) -> int:
    mask = 0
    for p in players:
        mask |= 1 << (p - 1)
    return mask


def check_coalition(mask: int, n: int) -> None:
    """Raise ValueError unless mask is a coalition of n players, 1..2^n - 1."""
    if not 0 < mask <= full_mask(n):
        raise ValueError(f"coalition {mask:#x} out of range for n={n}")


def complement(mask: int, n: int) -> int:
    """Bit complement inside 1..n; the full coalition maps to 0 (empty)."""
    return full_mask(n) ^ mask


def coalition_key(mask: int) -> str:
    """Render a coalition in game-file syntax, e.g. ``"1,3,5"``."""
    return ",".join(str(p) for p in members(mask))


_KEY_RE = re.compile(r"[1-9][0-9]*(,[1-9][0-9]*)*")


def parse_coalition_key(key: str, n: int) -> int:
    """Parse ``"1,3,5"`` into a bitmask, enforcing the file-format rules:
    strictly increasing player indices within 1..n."""
    if not _KEY_RE.fullmatch(key):
        raise GameFormatError(f"malformed coalition key {key!r}")
    players = [int(p) for p in key.split(",")]
    prev = 0
    for p in players:
        if p <= prev:
            raise GameFormatError(f"coalition key {key!r} is not strictly increasing")
        if p > n:
            raise GameFormatError(f"player {p} out of range 1..{n} in key {key!r}")
        prev = p
    return coalition_mask(players)


# ---------------------------------------------------------------------------
# exact number parsing

_DECIMAL_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?$")
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+/[1-9][0-9]*$")


def parse_number(text: str) -> Fraction:
    """Parse a number-string: optional sign, digits, optional decimal part,
    or a ``p/q`` rational literal.  Decimals are read exactly ("0.6" -> 3/5)."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if _DECIMAL_RE.match(text):
        return Fraction(text)
    raise GameFormatError(f"unparsable number {text!r}")


def scaled_ratios(pairs) -> tuple[list[int], int]:
    """Integer ratios (num, den), den > 0, over their least common
    denominator D: ([num·D/den, ...], D).  Each ratio is first reduced to
    lowest terms, so gcd(D, *ints) is 1.  The library's one step from
    rationals to integers: `scaled` feeds it Fractions, and a database
    file's weight rows come here as the integer pairs they are written as."""
    reduced = []
    for x, d in pairs:
        g = gcd(x, d)
        reduced.append((x // g, d // g))
    den = lcm(*(d for _, d in reduced))
    return [x * (den // d) for x, d in reduced], den


def scaled(values) -> tuple[list[int], int]:
    """A sequence of rationals (or ints) over their least common denominator
    D: ([v·D, ...], D), with gcd(D, *ints) = 1 (see `scaled_ratios`)."""
    return scaled_ratios([v.as_integer_ratio() for v in values])


def subset_sums(nums) -> list[int]:
    """sums[I] = the sum of nums[i] over the set bits of I, for all I < 2^k."""
    sums = [0]
    for w in nums:
        sums += [s + w for s in sums]
    return sums


def format_value(value: Fraction) -> str:
    """Canonical rendering used in reports: integer, or ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# weighted collections


@dataclass(frozen=True)
class WeightedCollection:
    """A collection of coalitions with its balancing weight system.

    Coalitions are kept strictly increasing by bitmask; weights are parallel
    and strictly positive.  For a minimal balanced collection the weight
    system is the unique one.
    """

    coalitions: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coalitions) != len(self.weights):
            raise ValueError("coalitions and weights must be parallel")
        if not self.coalitions:
            raise ValueError("empty collection")
        prev = 0
        for mask in self.coalitions:
            if mask <= prev:
                raise ValueError("coalitions must be strictly increasing bitmasks")
            prev = mask
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")

    def __len__(self) -> int:
        return len(self.coalitions)

    def player_sums(self, n: int) -> list[Fraction]:
        """Per-player weight totals; all equal 1 iff the collection is balanced
        with these weights.  Summed as the integer numerators of `to_row`,
        with one Fraction per player.  ValueError when a coalition names a
        player above n."""
        masks, nums, den = self.to_row()
        if masks[-1] > full_mask(n):
            raise ValueError(f"coalition {masks[-1]:#x} out of range for n={n}")
        sums = [0] * n
        for mask, x in zip(masks, nums):
            for p in members(mask):
                sums[p - 1] += x
        return [Fraction(x, den) for x in sums]

    @classmethod
    def from_row(cls, masks, nums, den) -> "WeightedCollection":
        """The collection of an integer row: weight i is nums[i]/den."""
        return cls(tuple(masks), tuple(Fraction(x, den) for x in nums))

    def to_row(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The integer row (masks, nums, den): den is the least common
        denominator of the weights and weight i is nums[i]/den."""
        nums, den = scaled(self.weights)
        return self.coalitions, tuple(nums), den

    def to_payload(self) -> dict:
        """The report form: coalition keys and canonical weights."""
        return {
            "coalitions": [coalition_key(m) for m in self.coalitions],
            "weights": [format_value(w) for w in self.weights],
        }


# ---------------------------------------------------------------------------
# MBCDB lines


class _Memo(dict):
    """A table whose misses are computed by `compute`.  A miss that raises
    stores nothing, so the table holds only keys that passed their checks."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


_ITEM_RE = re.compile(r"([0-9a-fA-F]+):([0-9]+/[0-9]+)")


def _parse_item(text: str) -> tuple[int, str]:
    """``<hex-mask>:<num>/<den>`` -> (mask, weight text)."""
    match = _ITEM_RE.fullmatch(text)
    if match is None:
        raise ValueError("malformed MBCDB line")
    return int(match[1], 16), match[2]


def _canonical_weights(texts) -> tuple[tuple[int, ...], int, int]:
    """Weight texts ``num/den`` -> (nums, den, sum(nums)) over the least
    common denominator, in lowest terms."""
    pairs = [tuple(map(int, text.split("/"))) for text in texts]
    if not all(d for _, d in pairs):
        raise ValueError("zero denominator")
    nums, den = scaled_ratios(pairs)
    return tuple(nums), den, sum(nums)


def _line_template(nums: tuple[int, ...], den: int) -> str:
    """The printf format of a line with these weights: one ``%x:num/den``
    item per weight, each weight in lowest terms."""
    items = []
    for x in nums:
        g = gcd(x, den)
        items.append(f"%x:{x // g}/{den // g}")
    return " ".join(items)


class LineCodec:
    """Reads and writes MBCDB lines: space-separated ``<hex-mask>:<num>/<den>``
    items.  A database file repeats few distinct items and weight rows, so
    the codec parses each item and weight row once and looks it up after
    that; it writes a line by filling the masks into the printf template of
    its weight row (`_line_template`), made once per row.  Use one codec
    per file: its tables live as long as it does."""

    def __init__(self):
        self._items = _Memo(_parse_item)
        self._weight_rows = _Memo(_canonical_weights)
        self._templates = _Memo(lambda key: _line_template(*key))

    def read(self, line: str) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """One line -> (masks, nums, den, sum(nums)): the integer row over
        the least common denominator of its weights, in lowest terms.  Only
        the syntax is checked here, plus that no denominator is zero."""
        fields = line.split()
        if not fields:
            raise ValueError("malformed MBCDB line")
        masks, texts = zip(*map(self._items.__getitem__, fields))
        return (masks, *self._weight_rows[texts])

    def write(self, masks, nums: tuple[int, ...], den: int) -> str:
        """The line of an integer row, each weight in lowest terms, without
        a newline."""
        return self._templates[nums, den] % tuple(masks)


# ---------------------------------------------------------------------------
# games


@dataclass(frozen=True)
class Game:
    """A TU game: player count n in 1..MAX_PLAYERS (ValueError otherwise)
    and a map coalition-mask -> exact value.

    Absent coalitions have value 0; the empty coalition is never stored.
    """

    n: int
    values: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"n must be in 1..{MAX_PLAYERS}")
        for mask in self.values:
            check_coalition(mask, self.n)

    def value(self, mask: int) -> Fraction:
        """v(mask); 0 for the empty mask.  ValueError for a mask outside
        0..2^n - 1, which names a player the game does not have."""
        if mask == 0:
            return Fraction(0)
        check_coalition(mask, self.n)
        return self.values.get(mask, Fraction(0))

    def grand_value(self) -> Fraction:
        return self.value(full_mask(self.n))

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """The game's one integer form (V, D): V[mask] = v(mask)·D for every
        mask 0..2^n - 1, over the values' least common denominator D.  Made
        on first use."""
        V = [0] * (1 << self.n)
        nums, D = scaled(self.values.values())
        for mask, x in zip(self.values, nums):
            V[mask] = x
        return tuple(V), D

    def to_text(self) -> str:
        """Canonical game-file serialization: keys sorted by mask, zero values
        dropped, values as p/q or integer strings."""
        items = sorted((mask, v) for mask, v in self.values.items() if v != 0)
        payload = {
            "n": self.n,
            "values": {coalition_key(mask): format_value(v) for mask, v in items},
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def parse_game(text: str | bytes) -> Game:
    """Parse the game file format (see README): a single JSON object with
    fields `n` and `values`.  Values are exact; unknown fields are rejected."""
    if isinstance(text, bytes):
        text = text.decode()

    def reject_duplicates(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise GameFormatError(f"duplicate key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        payload = json.loads(text, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"invalid game file: {exc}") from exc
    if not isinstance(payload, dict):
        raise GameFormatError("game file must be a single object")
    unknown = set(payload) - {"n", "values"}
    if unknown:
        raise GameFormatError(f"unknown fields {sorted(unknown)}")
    if not isinstance(payload.get("n"), int) or isinstance(payload["n"], bool):
        raise GameFormatError("missing or non-integer field 'n'")
    n = payload["n"]
    if not 1 <= n <= MAX_PLAYERS:
        raise GameFormatError(f"n must be in 1..{MAX_PLAYERS}")
    raw_values = payload.get("values", {})
    if not isinstance(raw_values, dict):
        raise GameFormatError("'values' must be an object")
    values: dict[int, Fraction] = {}
    for key, raw in raw_values.items():
        mask = parse_coalition_key(key, n)
        if isinstance(raw, int) and not isinstance(raw, bool):
            value = Fraction(raw)
        elif isinstance(raw, str):
            value = parse_number(raw)
        elif isinstance(raw, float):
            raise GameFormatError(
                f"value for {key!r} is a float; quote it to keep the game exact"
            )
        else:
            raise GameFormatError(f"value for {key!r} must be a number-string")
        if value != 0:
            values[mask] = value
    return Game(n, values)
