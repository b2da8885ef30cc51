"""Generation, storage and querying of minimal balanced collections.

The generator grows the player set one element at a time.  Given every
minimal balanced collection on 1..n-1, four construction rules produce the
collections on 1..n:

  case 1: pick members whose weights sum to exactly 1 and put the new player
          into each of them;
  case 2: pick members whose weights sum to s < 1, put the new player into
          them, and add the singleton {p} with weight 1-s;
  case 3: as case 2, but instead of {p} add S u {p} for some non-picked
          member S with weight above 1-s, splitting S's weight;
  case 4: take the union U of two distinct collections A, B whose
          characteristic matrix has rank |U|-1, with weights mu, nu
          extended by zeros to U over a common denominator L, and put the
          new player into the members of some I.  That gives a child
          exactly when L lies strictly between mu(I) and nu(I), one test
          per subset; its weights are alpha*mu + beta*nu over
          L*(alpha+beta), with alpha = |nu(I) - L| and beta = |L - mu(I)|.

Case 4 makes all 2^|U| sign tests of a pair in a few whole-integer
operations.  Lane I (w bits wide) of one integer X holds
mu(I) + 2^(w-1) - L, built as the sum of mu_i times the lane mask of member
i plus a constant per lane; Y holds nu the same way.  w leaves room for
every lane value, so no lane borrows from or carries into the next: the
top bit of lane I of X is set iff mu(I) >= L, and in X - ONE (ONE has a 1
at the bottom of every lane) iff mu(I) > L.  So

    ((X - ONE) & ~Y | (Y - ONE) & ~X) & TOP

has the top bit of lane I set exactly when L lies strictly between mu(I)
and nu(I), and its set bits, lowest first, are the children in subset
order; alpha and beta are read back from the two lanes.

Only some unions need a rank test.  A minimal balanced collection has
independent characteristic vectors and mu - nu is a nonzero vector in the
kernel of U's, so max(|A|, |B|) <= rank <= |U|-1: a union one larger than
the larger parent passes untested.  Otherwise the rank over GF(2), from an
xor basis of the masks, comes first: the rank over the rationals is at
least the rank mod 2 (a minor that is odd is not zero), so a GF(2) rank of
|U|-1 settles the test, and only a smaller one needs the rational rank.

Every rule emits only minimal balanced collections and together they are
exhaustive, and each collection is emitted exactly once, because the child
names the rule, the parent or pair and the choice that made it.  Let p be
the new player and remove p from a child's members to get its projection.
A case-2 child holds {p}; a case-3 child holds both S and S u {p}, for its
split member S and no other; case-1 and case-4 children hold neither.  A
case-1 child projects onto its parent, which is minimal balanced, and a
case-4 child onto the union U, whose characteristic vectors are dependent.
So the child gives the rule, and then its parent (the projection, with {p}
dropped or S u {p} folded into S), or its pair: the weight systems on U
form a segment, whose two endpoints are the only minimal balanced
collections inside U.  The picked members are those holding p.  The
generator visits each parent, unordered pair, subset and split member once,
so no child is emitted twice (the generation raises if one is).  A
restriction only filters the children: the allowed masks are closed under
taking subsets, so a kept child's parent or pair was kept the step before.

Each rule is coded once: the single-step helpers `apply_case1..4` run the
generator's own rule code on one parent or pair and return the child it
emits with the requested coalitions.  The new player's bit lies above every
old mask, so each rule emits its children with their masks already in
increasing order.  The generator and the database work on integer rows
(masks, numerators, denominator); fractions only materialize at the API
boundary.  The rules emit canonical rows (see `Row`): a case 1-3 child of
a canonical parent keeps every parent numerator or splits one into two
parts, so no common factor appears, and case 4 divides out its own.
"""

from __future__ import annotations

import heapq
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, lcm
from operator import itemgetter, lt, mul

from .model import (
    LineCodec,
    WeightedCollection,
    _Memo,
    check_coalition,
    full_mask,
    members,
)
from . import linalg
from .linalg import _echelon

# The most players a database holds: every analysis allocates 2^n values,
# no count is known beyond n = 7, and an n = 8 run is out of reach.
MAX_PLAYERS = 8

MINIMAL = "minimal"
BALANCED_NOT_MINIMAL = "balanced_not_minimal"
NOT_BALANCED = "not_balanced"

# One collection as an integer row: (masks strictly increasing, weight
# numerators, denominator), weight i being nums[i]/den.  Rows held by an
# MbcDatabase are canonical: gcd(den, *nums) == 1, so equal collections give
# equal rows whether generated or loaded.
Row = tuple[tuple[int, ...], tuple[int, ...], int]


def _subset_sums(nums) -> list[int]:
    """sums[I] = the sum of nums[i] over the set bits of I, for all I < 2^k."""
    sums = [0]
    for w in nums:
        sums += [s + w for s in sums]
    return sums


def _rank01(masks, n: int) -> int:
    """Rank over the rationals of the n-by-k matrix of characteristic columns."""
    rows = [[(m >> i) & 1 for m in masks] for i in range(n)]
    _, pivots = _echelon(rows)
    return len(pivots)


def _rank2(masks) -> int:
    """Rank over GF(2) of the characteristic columns, by an xor basis: each
    mask is reduced by the basis so far, and joins it when something is
    left.  A basis entry has the top bits of all earlier entries clear, so
    m ^ b < m exactly when m holds b's top bit, xoring b clears it, and no
    later step sets it again."""
    basis = []
    for m in masks:
        for b in basis:
            if m ^ b < m:
                m ^= b
        if m:
            basis.append(m)
    return len(basis)


def _getter(indices):
    """itemgetter(*indices), returning a tuple for any number of indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple([seq[i] for i in indices])


def _orders(k: int) -> list[tuple]:
    """For each subset I of k members (a bitmask), the getters that put a
    child's entries in increasing mask order.  The new player's bit is above
    every old mask, so a child lists the unpicked members in parent order,
    then {p} when present, then the picked members with p added.  `order`
    and `one` give all k members of a k-sequence and of the 2k-sequence
    (*masks, *masks with p); `low` and `high` give the unpicked and the
    picked members of a k-sequence."""
    tables = []
    for I in range(1 << k):
        low = [i for i in range(k) if not (I >> i) & 1]
        high = [i for i in range(k) if (I >> i) & 1]
        tables.append((_getter(low + high), _getter(low + [k + i for i in high]),
                       _getter(low), _getter(high)))
    return tables


# ---------------------------------------------------------------------------
# the four construction rules: `_children_123` and `_children_4` emit every
# child of one parent or pair as emit(masks, nums, den), a canonical row with
# masks strictly increasing; the public single-step helpers pick one of
# those children by its coalitions


def apply_case1(wc: WeightedCollection, picked, p: int) -> WeightedCollection:
    """Case 1: the picked members' weights sum to 1; the new player joins
    them and the weight system is unchanged.  `picked` holds 0-based member
    positions."""
    masks, nums, den = wc.to_row()
    p_bit, targets = _moved(masks, picked, p)
    return _emitted(partial(_children_123, masks, nums, den, p_bit, _orders(len(masks))),
                    targets, "case 1 needs the picked weights to sum to exactly 1")


def apply_case2(wc: WeightedCollection, picked, p: int) -> WeightedCollection:
    """Case 2: the picked weights sum to s < 1; the new player joins them and
    the singleton {p} enters with weight 1-s."""
    masks, nums, den = wc.to_row()
    p_bit, targets = _moved(masks, picked, p)
    return _emitted(partial(_children_123, masks, nums, den, p_bit, _orders(len(masks))),
                    targets + [p_bit], "case 2 needs the picked weights to sum below 1")


def apply_case3(wc: WeightedCollection, picked, split, p: int) -> WeightedCollection:
    """Case 3: besides moving the new player into the picked members, the
    non-picked member at position `split` is duplicated into S u {p} with
    weight 1-s, keeping S with the weight remainder."""
    masks, nums, den = wc.to_row()
    picked = set(picked)
    if split in picked:
        raise ValueError("the split member must not be picked")
    p_bit, targets = _moved(masks, picked | {split}, p)
    return _emitted(partial(_children_123, masks, nums, den, p_bit, _orders(len(masks))),
                    targets + [masks[split]],
                    "case 3 needs 1 > sum of picked weights > 1 - split weight")


def apply_case4(first: WeightedCollection, second: WeightedCollection, picked,
                p: int) -> WeightedCollection:
    """Case 4: the union of two distinct minimal balanced collections with
    characteristic rank one below its size; the new player joins the picked
    union members and the weights interpolate the two systems at the unique
    point giving the new player total weight 1.  `picked` indexes the sorted
    union."""
    if first.coalitions == second.coalitions:
        raise ValueError("case 4 needs two distinct collections")
    n_old = max(first.coalitions + second.coalitions).bit_length()
    pair = _merged_pair(_pair_form(first.to_row()), _pair_form(second.to_row()), n_old)
    if pair is None:
        raise ValueError("case 4 needs characteristic rank exactly |union| - 1")
    union_masks, mu, nu, L = pair
    p_bit, targets = _moved(union_masks, picked, p)
    return _emitted(partial(_children_4, union_masks, mu, nu, L, p_bit,
                            _orders(len(union_masks))),
                    targets, "case 4 needs the interpolation parameter inside ]0,1[")


def _moved(masks, picked, p: int) -> tuple[int, list[int]]:
    """The new player's bit, and the masks with the new player added at the
    picked positions; raises ValueError for a position outside the
    collection or a new player already in it."""
    picked = set(picked)
    if not picked <= set(range(len(masks))):
        raise ValueError(f"member positions must lie in 0..{len(masks) - 1}")
    p_bit = 1 << p - 1
    if any(m & p_bit for m in masks):
        raise ValueError("the new player already appears in the collection")
    return p_bit, [(m | p_bit) if i in picked else m for i, m in enumerate(masks)]


def _emitted(children, targets, message: str) -> WeightedCollection:
    """The child with coalitions `targets` among those `children(emit)`
    emits; raises ValueError(message) when there is none.  Different rules
    and subsets give children with different coalitions, so the coalitions
    name one child."""
    targets = tuple(sorted(targets))
    found = []

    def emit(masks, nums, den):
        if masks == targets:
            found.append(WeightedCollection.from_row(masks, nums, den))

    children(emit)
    if not found:
        raise ValueError(message)
    return found[0]


def _children_123(masks, nums, den, p_bit, orders, emit):
    """Cases 1-3 for one parent; `orders` is `_orders(len(masks))`."""
    with_p = [m | p_bit for m in masks]
    ext = (*masks, *with_p)
    for I, s in enumerate(_subset_sums(nums)):
        if s > den:
            continue
        order, one, low, high = orders[I]
        if s == den:
            emit(one(ext), order(nums), den)
            continue
        rem = den - s
        emit(low(masks) + (p_bit,) + high(with_p), low(nums) + (rem,) + high(nums), den)
        for d, x in enumerate(nums):
            if not (I >> d) & 1 and x > rem:
                # S stays unpicked with weight x - rem and S u {p} joins
                # the picked members with weight rem
                _, _, _, high_d = orders[I | 1 << d]
                kept, moved = list(nums), list(nums)
                kept[d] = x - rem
                moved[d] = rem
                emit(low(masks) + high_d(with_p), low(kept) + high_d(moved), den)


@lru_cache(maxsize=256)
def _lane_tables(k: int, w: int) -> tuple[int, int, tuple[int, ...]]:
    """(ONE, TOP, member lane masks) for 2^k lanes of w bits: ONE has bit 0
    of every lane set, TOP bit w-1, and the mask of member i the bottom bit
    of each lane I that holds i."""
    lanes = range(1 << k)
    one = sum(1 << I * w for I in lanes)
    return one, one << w - 1, tuple(sum(1 << I * w for I in lanes if I >> i & 1)
                                    for i in range(k))


def _children_4(masks, mu, nu, L, p_bit, orders, emit):
    """Case 4 for one merged pair: mu, nu are the two weight systems extended
    by zeros to the union, as nonnegative integers over the common
    denominator L, and `orders` is `_orders(len(masks))`.  The subset I
    gives a child when mu(I) - L and nu(I) - L have opposite signs, with
    weights alpha*mu + beta*nu over L*(alpha+beta), alpha = |nu(I) - L| and
    beta = |mu(I) - L|, emitted in lowest terms.  All subsets are tested at
    once in w-bit lanes (see the module docstring): 2^(w-1) exceeds L and
    every mu(I) and nu(I)."""
    w = max(sum(mu), sum(nu), L).bit_length() + 2
    one, top, lane_masks = _lane_tables(len(masks), w)
    half = 1 << w - 1
    lifted = (half - L) * one
    X = sum(map(mul, mu, lane_masks)) + lifted
    Y = sum(map(mul, nu, lane_masks)) + lifted
    R = ((X - one) & ~Y | (Y - one) & ~X) & top
    lane = (1 << w) - 1
    ext = (*masks, *[m | p_bit for m in masks])
    while R:
        low = R & -R
        R ^= low
        at = low.bit_length() - w  # I*w
        alpha = abs(((Y >> at) & lane) - half)
        beta = abs(((X >> at) & lane) - half)
        nums = [alpha * x + beta * y for x, y in zip(mu, nu)]
        den = L * (alpha + beta)
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [x // g for x in nums]
        order, one_of, _, _ = orders[at // w]
        emit(one_of(ext), order(nums), den)


def _pair_form(row: Row):
    """A parent as case 4 reads it: its coalitions as the bits m-1 of one
    integer, its weight numerators by coalition, and its denominator."""
    masks, nums, den = row
    cover = 0
    for m in masks:
        cover |= 1 << (m - 1)
    return cover, dict(zip(masks, nums)), den


def _merged_pair(a, b, n_old: int):
    """The arguments of `_children_4` before the new player's bit for two
    parents in `_pair_form`: the sorted union of their coalitions and both
    weight systems extended by zeros to it over the common denominator L.
    None when the union's characteristic rank on n_old players is not one
    below its size."""
    (cover_a, weights_a, den_a), (cover_b, weights_b, den_b) = a, b
    union_masks = members(cover_a | cover_b)
    # max(|A|, |B|) <= rank <= |union| - 1 and rank >= the GF(2) rank (see
    # the module docstring)
    size = len(union_masks)
    if (size > max(len(weights_a), len(weights_b)) + 1 and _rank2(union_masks) != size - 1
            and _rank01(union_masks, n_old) != size - 1):
        return None
    L = lcm(den_a, den_b)
    fa = L // den_a
    fb = L // den_b
    mu = [weights_a.get(m, 0) * fa for m in union_masks]
    nu = [weights_b.get(m, 0) * fb for m in union_masks]
    return union_masks, mu, nu, L


def _add_player_raw(parents: list[Row], n_old: int, allowed: set[int] | None,
                    emit) -> None:
    """One induction step: calls emit(masks, nums, den) once for each minimal
    balanced collection on n_old+1 players, from the canonical rows of those
    on n_old, in no particular order (see the module docstring for why no
    collection comes twice).  With `allowed`, only collections whose masks
    all lie in it are emitted."""
    p_bit = 1 << n_old
    orders = _Memo(_orders)
    if allowed is not None:
        emit_any = emit

        def emit(masks, nums, den):
            if allowed.issuperset(masks):
                emit_any(masks, nums, den)

    for masks, nums, den in parents:
        _children_123(masks, nums, den, p_bit, orders[len(masks)], emit)

    # case 4 over unordered pairs; the two orderings of a pair generate the
    # same children, so one suffices
    forms = [_pair_form(row) for row in parents]
    covers = [cover for cover, _, _ in forms]
    size_limit = n_old + 1
    for ia, a in enumerate(forms):
        ca = a[0]
        for ib in range(ia + 1, len(forms)):
            if (ca | covers[ib]).bit_count() > size_limit:
                continue
            pair = _merged_pair(a, forms[ib], n_old)
            if pair is not None:
                _children_4(*pair, p_bit, orders[len(pair[0])], emit)


# ---------------------------------------------------------------------------
# database


@dataclass(frozen=True)
class MbcDatabase:
    """All minimal balanced collections for a fixed n, as canonical rows
    sorted by masks; optionally generated under a set-system restriction (in
    which case only collections whose coalitions fit inside some set-system
    element are present).  `collections` is the `WeightedCollection` view of
    the rows, built on first use."""

    n: int
    rows: tuple[Row, ...]
    restricted: bool = False

    @cached_property
    def collections(self) -> tuple[WeightedCollection, ...]:
        return tuple(WeightedCollection.from_row(*row) for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.collections)

    def contains(self, masks) -> bool:
        key = tuple(sorted(masks))
        i = bisect_left(self.rows, key, key=lambda row: row[0])
        return i < len(self.rows) and self.rows[i][0] == key

    def save(self, path) -> None:
        """Write the rows as an MBCDB file, byte for byte what `peleg_stream`
        writes for the same collections."""
        write = LineCodec().write
        with open(path, "w") as fh:
            _write_db(fh, _header(self.n, len(self.rows), self.restricted),
                      sorted(write(*row) + "\n" for row in self.rows))

    @classmethod
    def load(cls, path) -> "MbcDatabase":
        """Read an MBCDB file, rejecting a header other than the one
        `_header` writes or with n outside 1..MAX_PLAYERS, a row whose masks
        are not strictly increasing inside 1..2^n-1, whose weights are not
        positive, or in which some player's weights do not sum to exactly 1,
        and a collection listed twice.  Minimality is not checked."""
        with open(path) as fh:
            header = fh.readline().strip()
            fields = header.split()
            if len(fields) < 4 or fields[0] != "MBCDB" or fields[1] != "1":
                raise ValueError(f"not an MBCDB file: {header!r}")
            try:
                n = int(fields[2].removeprefix("n="))
                count = int(fields[3].removeprefix("count="))
            except ValueError as exc:
                raise ValueError(f"bad MBCDB header: {header!r}") from exc
            restricted = fields[4:] == ["restricted"]
            if header != _header(n, count, restricted):
                raise ValueError(f"bad MBCDB header: {header!r}")
            if not 1 <= n <= MAX_PLAYERS:
                raise ValueError(f"bad MBCDB header: n={n} out of range")
            top = full_mask(n)
            width = 0
            read = LineCodec().read
            rows = []
            for lineno, line in enumerate(fh, 2):
                if line.isspace():
                    continue
                try:
                    masks, nums, den, total = read(line)
                    if not all(map(lt, masks, masks[1:])):
                        raise ValueError("coalitions are not strictly increasing")
                    if not 0 < masks[0] <= masks[-1] <= top:
                        raise ValueError(f"coalition out of range for n={n}")
                    if min(nums) <= 0:
                        raise ValueError("weights must be positive")
                    if total >> width:
                        width = total.bit_length()
                        lanes = _Memo(partial(_lanes, width))
                    if sum(map(mul, nums, map(lanes.__getitem__, masks))) != den * lanes[top]:
                        raise ValueError("player weight sums are not all 1")
                except ValueError as exc:
                    raise ValueError(
                        f"MBCDB line {lineno} {line.strip()!r}: {exc}") from exc
                rows.append((masks, nums, den))
        if len(rows) != count:
            raise ValueError(
                f"MBCDB count mismatch: header says {count}, file has {len(rows)}"
            )
        rows.sort()
        _check_once(rows, "MBCDB lists a collection twice")
        return cls(n, tuple(rows), restricted)


def _check_once(rows: list[Row], message: str) -> None:
    """Raises ValueError with the message and the first of the sorted rows
    whose masks equal those of the row before it."""
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise ValueError(f"{message}: {LineCodec().write(*b)!r}")


def _header(n: int, count: int, restricted: bool) -> str:
    """The first line of an MBCDB file, without its newline."""
    tail = " restricted" if restricted else ""
    return f"MBCDB 1 n={n} count={count}{tail}"


def _write_db(out, header: str, lines) -> None:
    """Write the header and the lines, sorted and each ending in a newline;
    raises ValueError, naming the line, when a line comes twice."""
    out.write(header + "\n")
    previous = None
    for line in lines:
        if line == previous:
            raise ValueError(f"MBCDB line {line.rstrip()!r} written twice")
        out.write(line)
        previous = line


def _lanes(width: int, mask: int) -> int:
    """The integer with a 1 at bit (p-1)*width for each player p of the mask.
    A weighted sum of these holds every player's total in its own width-bit
    lane; while the weights sum below 2^width no lane carries into the next,
    so one comparison checks all the totals."""
    return sum(1 << (p - 1) * width for p in members(mask))


def restriction(n: int, set_system=None) -> set[int] | None:
    """Checks n (1..MAX_PLAYERS) and the set system of a generation on 1..n,
    raising ValueError; returns the masks a restricted run may keep (every
    nonempty subset of an element), or None when it is unrestricted."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_PLAYERS:
        raise ValueError(f"n={n} exceeds the {MAX_PLAYERS} players a database holds")
    if set_system is None:
        return None
    if not set_system:
        raise ValueError("empty set system")
    cover = 0
    allowed: set[int] = set()
    for f in set_system:
        check_coalition(f, n)
        cover |= f
        sub = f
        while sub:
            allowed.add(sub)
            sub = (sub - 1) & f
    if cover != full_mask(n):
        raise ValueError("set system does not cover the player set")
    return allowed


def _rows_on(players: int, allowed: set[int] | None) -> list[Row]:
    """The canonical rows on 1..players, sorted by masks, by induction from
    the empty collection on no players (case 2 turns it into {{1}})."""
    rows: list[Row] = [((), (), 1)]
    for n_old in range(players):
        children: list[Row] = []
        _add_player_raw(rows, n_old, allowed, lambda *row: children.append(row))
        children.sort()
        _check_once(children, "a collection is emitted twice")
        rows = children
    return rows


def peleg(n: int, set_system=None) -> MbcDatabase:
    """All minimal balanced collections on 1..n, by induction on the players.

    With `set_system`, collections whose coalitions do not all fit inside
    some element of the system are discarded as soon as they appear.
    """
    allowed = restriction(n, set_system)
    return MbcDatabase(n, tuple(_rows_on(n, allowed)), allowed is not None)


# lines `peleg_stream` holds in memory before it sorts them into a shard
SHARD_LINES = 1_000_000


def peleg_stream(n: int, out, set_system=None) -> int:
    """Like `peleg`, but writes the MBCDB file to the open text file `out`
    and returns the collection count.  The last step's children become
    lines as they are emitted, each once, so the header comes first; every
    `SHARD_LINES` lines are sorted into a temporary file (under `TMPDIR`)
    and the shards are merged with the lines left in memory.  A collection
    emitted twice, at any step, raises ValueError."""
    allowed = restriction(n, set_system)
    write = LineCodec().write
    shards = []
    lines: list[str] = []

    def emit(masks, nums, den):
        lines.append(write(masks, nums, den) + "\n")
        if len(lines) == SHARD_LINES:
            lines.sort()
            shard = tempfile.TemporaryFile("w+", prefix="mbcshard")
            shards.append(shard)
            shard.writelines(lines)
            shard.seek(0)
            lines.clear()

    try:
        _add_player_raw(_rows_on(n - 1, allowed), n - 1, allowed, emit)
        count = SHARD_LINES * len(shards) + len(lines)
        lines.sort()
        _write_db(out, _header(n, count, allowed is not None),
                  heapq.merge(*shards, lines))
    finally:
        for shard in shards:
            shard.close()
    return count


# ---------------------------------------------------------------------------
# classifying one collection


def _checked_masks(masks, n: int) -> tuple[int, ...]:
    """The coalitions of a nonempty collection on n players, sorted; raises
    ValueError for an empty collection, a coalition outside 1..2^n-1 or a
    repeated coalition."""
    masks = tuple(masks)
    if not masks:
        raise ValueError("empty collection")
    for m in masks:
        check_coalition(m, n)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate coalitions")
    return tuple(sorted(masks))


def check_minimal_balanced(masks, n: int):
    """Classify a collection of coalitions.

    Returns (MINIMAL, weights) when the balancing weight system exists, is
    unique and strictly positive; (BALANCED_NOT_MINIMAL, None) when positive
    weight systems exist but are not unique; (NOT_BALANCED, None) otherwise.
    One integer solve of Σ_S w_S·1_S = 1_N (`linalg.solve_int`) decides
    every case but one: a unique solution is the weight system, minimal
    when it is strictly positive and not balanced otherwise, and no solution
    means not balanced.  When the characteristic vectors are dependent, the
    collection is balanced iff its minimal balanced subcollections cover
    every member, and that needs no search: a member lies in one iff some
    vertex of the weight polytope gives it positive weight, one
    `linalg.vertex_clause` program per member.
    """
    masks = _checked_masks(masks, n)
    status, solution = linalg.solve_int(
        [[(m >> i) & 1 for m in masks] + [1] for i in range(n)], len(masks))
    if status == linalg.UNIQUE:
        nums, den = solution
        if min(nums) > 0:
            return MINIMAL, tuple(Fraction(x, den) for x in nums)
        return NOT_BALANCED, None
    if status == linalg.NO_SOLUTION:
        return NOT_BALANCED, None
    vectors = [[(m >> i) & 1 for i in range(n)] for m in masks]
    zeros = [0] * len(vectors)
    if all(linalg.vertex_clause(vectors, zeros, 0, [k == j for k in range(len(vectors))])
           for j in range(len(vectors))):
        return BALANCED_NOT_MINIMAL, None
    return NOT_BALANCED, None


def is_balanced_collection(masks, db: MbcDatabase) -> bool:
    """Is the collection balanced?  Only `db.n` is read: the collection is
    classified by `check_minimal_balanced`, which raises ValueError on an
    empty collection, a repeated coalition or one outside 1..2^n-1."""
    return check_minimal_balanced(masks, db.n)[0] != NOT_BALANCED
