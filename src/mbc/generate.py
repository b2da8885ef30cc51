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

Everything in that but the masks depends on (mu, nu, L) alone: which
subsets give children, their reduced weights and the order of their
entries.  Pairs repeat it often (the 32,986 merged pairs at 5 -> 6 have
4,414 distinct (mu, nu, L)), so that half is cached, bounded and emptied
when the step ends, and each pair only puts its own masks in the cached
order.

A child has |U| coalitions and a minimal balanced collection on
n_old + 1 players at most n_old + 1, so only pairs with |U| <= n_old + 1
count.  Parents of sizes a and b have such a union exactly when they share
at least r = a + b - n_old - 1 coalitions, so the pairs come from a join
rather than a pass over all pairs (see `_case4_pairs`): for each pair of
sizes with r > 0 the smaller parents are indexed by their r-subsets of
coalitions and the larger ones look theirs up, and with r <= 0 every pair
of those sizes counts.  A pair sharing more than r coalitions meets in
several buckets and is kept in the one of its r lowest shared coalitions
only, so each pair comes once.  At 5 -> 6 that yields 34,871 of the
C(1292, 2) = 833,986 pairs, and at 6 -> 7 12,834,560 of about 2.0e10.

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
generator visits each parent, unordered pair, subset and split member once
(the pairs the join leaves out have too large a union to give a child),
so no child is emitted twice (the generation raises if one is).  A
restriction only filters the children: the allowed masks are closed under
taking subsets, so a kept child's parent or pair was kept the step before.

Each rule is coded once: the single-step helpers `apply_case1..4` run the
generator's own rule code on one parent or pair and return the child it
emits with the requested coalitions.  The new player's bit lies above every
old mask, so each rule emits its children with their masks already in
increasing order.  The generator and the database work on integer rows
(masks, numerators, denominator); fractions only materialize at the API
boundary.  A parent of the next step holds its masks as one byte string
(see `Row`), which the rules read as they read a tuple; a database keeps
each row as one integer (see `Rows`).  The rules emit canonical rows: a
case 1-3 child of a canonical parent keeps every parent numerator or
splits one into two parts, so no common factor appears, and case 4
divides out its own.

The MBCDB writer (`_write_db`, behind `peleg_stream` and
`MbcDatabase.save`) sorts the lines by distribution on their first item:
each line is appended to the bytes of its group as it is emitted, the
groups move to one temporary file past `SPILL_BYTES`, and each group is
sorted on its own as text when it is written, in the order of the first
items.  At n = 7 the 132,422,036 lines fall into 3,805 groups of at most
1,172,604 lines each.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, compress, islice, repeat
from math import gcd, lcm
from operator import and_, eq, itemgetter, lshift, lt, mul, or_, rshift

from .model import (
    MAX_PLAYERS,
    LineCodec,
    WeightedCollection,
    _Memo,
    _canonical_weights,
    _line_template,
    _parse_item,
    check_coalition,
    full_mask,
    members,
    subset_sums,
)
from . import linalg
from .linalg import _echelon

MINIMAL = "minimal"
BALANCED_NOT_MINIMAL = "balanced_not_minimal"
NOT_BALANCED = "not_balanced"

# One collection as an integer row: (masks strictly increasing, weight
# numerators, denominator), weight i being nums[i]/den.  Rows held by an
# MbcDatabase are canonical: gcd(den, *nums) == 1, so equal collections give
# equal rows whether generated or loaded.  Their masks are one byte string,
# a byte per coalition (MAX_PLAYERS keeps every mask below 256): it iterates,
# indexes and orders as the tuple of its masks does, in a fraction of the
# memory.  The rules themselves emit tuple masks.  A database holds no row
# in this form: it keeps one integer per row and builds the row when it is
# read (see `Rows`).
Row = tuple[bytes, tuple[int, ...], int]


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


@lru_cache(maxsize=16)
def _orders(k: int) -> tuple[tuple, ...]:
    """For each subset I of k members (a bitmask), the getters that put a
    child's entries in increasing mask order.  The new player's bit is above
    every old mask, so a child lists the unpicked members in parent order,
    then {p} when present, then the picked members with p added.  `order`
    and `one` give all k members of a k-sequence and of the 2k-sequence
    (*masks, *masks with p); `low` and `high` give the unpicked and the
    picked members of a k-sequence.  Built once per k; the bound keeps the
    2^k-entry tables of the large k an `apply_case1` collection may have
    from piling up."""
    tables = []
    for I in range(1 << k):
        low = [i for i in range(k) if not (I >> i) & 1]
        high = [i for i in range(k) if (I >> i) & 1]
        tables.append((_getter(low + high), _getter(low + [k + i for i in high]),
                       _getter(low), _getter(high)))
    return tuple(tables)


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
    return _emitted(partial(_children_123, masks, nums, den, p_bit),
                    targets, "case 1 needs the picked weights to sum to exactly 1")


def apply_case2(wc: WeightedCollection, picked, p: int) -> WeightedCollection:
    """Case 2: the picked weights sum to s < 1; the new player joins them and
    the singleton {p} enters with weight 1-s."""
    masks, nums, den = wc.to_row()
    p_bit, targets = _moved(masks, picked, p)
    return _emitted(partial(_children_123, masks, nums, den, p_bit),
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
    return _emitted(partial(_children_123, masks, nums, den, p_bit),
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
    return _emitted(partial(_children_4, union_masks, mu, nu, L, p_bit),
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


def _children_123(masks, nums, den, p_bit, emit):
    """Cases 1-3 for one parent."""
    orders = _orders(len(masks))
    with_p = [m | p_bit for m in masks]
    ext = (*masks, *with_p)
    for I, s in enumerate(subset_sums(nums)):
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


def _children_4(masks, mu, nu, L, p_bit, emit):
    """Case 4 for one merged pair: mu, nu are the two weight systems extended
    by zeros to the union, as nonnegative integers over the common
    denominator L.  Which subsets give children, and their weights, depend
    on (mu, nu, L) alone (see `_case4_weights`); only the masks are this
    pair's own."""
    ext = (*masks, *[m | p_bit for m in masks])
    children = iter(_case4_weights(L, *mu, *nu))
    for one_of, nums, den in zip(children, children, children):
        emit(one_of(ext), nums, den)


@lru_cache(maxsize=2048)
def _case4_weights(L: int, *weights: int) -> tuple:
    """The case-4 children of every pair with weight structure (mu, nu, L),
    weights being (*mu, *nu): lowest subset first, (one, nums, den) for
    each child, all in one flat tuple so that an entry is one object.
    `one` is the getter that puts the 2k masks (*masks, *masks with p) in
    the child's order, and nums/den are its weights in that order and in
    lowest terms.  The subset I gives a child when
    mu(I) - L and nu(I) - L have opposite signs, with weights
    alpha*mu + beta*nu over L*(alpha+beta), alpha = |nu(I) - L| and
    beta = |mu(I) - L|.  All subsets are tested at once in w-bit lanes (see
    the module docstring): 2^(w-1) exceeds L and every mu(I) and nu(I).

    Many pairs share one structure (4,414 of the 32,986 merged pairs at
    5 -> 6), so the results are cached for the pairs still to come; in the
    order `_case4_pairs` yields the pairs, 2,048 entries keep all 28,572
    possible hits there.
    `_add_player_raw` empties the cache when its step ends.  The children
    of different structures have few distinct weights (2,267 distinct
    (nums, den) among the 172,776 at 5 -> 6), so equal numerator tuples are
    shared through `_shared_nums`."""
    k = len(weights) // 2
    mu, nu = weights[:k], weights[k:]
    w = max(sum(mu), sum(nu), L).bit_length() + 2
    one, top, lane_masks = _lane_tables(k, w)
    half = 1 << w - 1
    lifted = (half - L) * one
    X = sum(map(mul, mu, lane_masks)) + lifted
    Y = sum(map(mul, nu, lane_masks)) + lifted
    R = ((X - one) & ~Y | (Y - one) & ~X) & top
    lane = (1 << w) - 1
    orders = _orders(k)
    children = []
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
        children += one_of, _shared_nums(*order(nums)), den
    return tuple(children)


@lru_cache(maxsize=4096)
def _shared_nums(*nums: int) -> tuple[int, ...]:
    """The first cached tuple of these numerators (the cache keeps the
    argument tuple itself as its key); 1,603 distinct tuples at 5 -> 6."""
    return nums


def _pair_form(row: Row):
    """A parent as case 4 reads it: its coalitions as the bits m-1 of one
    integer, its weight numerators by coalition, and its denominator."""
    masks, nums, den = row
    cover = 0
    for m in masks:
        cover |= 1 << (m - 1)
    return cover, dict(zip(masks, nums)), den


def _case4_pairs(forms: list, limit: int):
    """The pairs (i, j), i < j, of parents in `_pair_form` whose union has
    at most `limit` coalitions, each once, grouped by the parents' sizes.

    Parents of sizes a and b pass exactly when they share at least
    r = a + b - limit coalitions, and every pair of them when r <= 0.  The
    parents of the smaller size are indexed by their r-subsets of
    coalitions (taking r = 0 when r <= 0, whose one subset is empty),
    each keyed as the bits of a cover, and a pair is looked up in the
    buckets of the larger parent's r-subsets (of the same bucket's parents
    when a = b).  A pair sharing t >= r coalitions meets in C(t, r)
    buckets and is yielded from one only: the bucket keyed by the r lowest
    coalitions of the two covers' AND."""
    covers = [cover for cover, _, _ in forms]
    by_size: dict[int, list[int]] = {}
    for i, (_, weights, _) in enumerate(forms):
        by_size.setdefault(len(weights), []).append(i)
    sizes = sorted(by_size)
    for s, a in enumerate(sizes):
        for b in sizes[s:]:
            r = max(a + b - limit, 0)
            index: dict[int, list[int]] = {}
            for i in by_size[a]:
                for key in _subset_keys(forms[i], r):
                    index.setdefault(key, []).append(i)
            if a == b:
                for key, bucket in index.items():
                    below = (1 << key.bit_length()) - 1
                    for i, j in combinations(bucket, 2):
                        if covers[i] & covers[j] & below == key:
                            yield i, j
                continue
            for j in by_size[b]:
                cover = covers[j]
                for key in filter(index.__contains__, _subset_keys(forms[j], r)):
                    below = (1 << key.bit_length()) - 1
                    for i in index[key]:
                        if covers[i] & cover & below == key:
                            yield (i, j) if i < j else (j, i)


def _subset_keys(form, r: int):
    """The r-subsets of a parent's coalitions in `_pair_form`, each as the
    bits m-1 of its coalitions m."""
    return map(sum, combinations([1 << m - 1 for m in form[1]], r))


def _merged_pair(a, b, n_old: int):
    """The arguments of `_children_4` before the new player's bit for two
    parents in `_pair_form`: the sorted union of their coalitions and both
    weight systems extended by zeros to it over the common denominator L.
    None when the union's characteristic rank on n_old players is not one
    below its size."""
    (_, weights_a, den_a), (_, weights_b, den_b) = a, b
    union_masks = sorted(weights_a.keys() | weights_b.keys())
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
    if allowed is not None:
        emit_any = emit

        def emit(masks, nums, den):
            if allowed.issuperset(masks):
                emit_any(masks, nums, den)

    for masks, nums, den in parents:
        _children_123(masks, nums, den, p_bit, emit)

    # case 4 over the unordered pairs whose union has at most n_old + 1
    # coalitions, the most a child on n_old + 1 players holds; the join
    # finds them without a pass over all pairs and yields each once (see
    # `_case4_pairs`).  The two orderings of a pair generate the same
    # children, so one suffices.
    forms = [_pair_form(row) for row in parents]
    try:
        for i, j in _case4_pairs(forms, n_old + 1):
            pair = _merged_pair(forms[i], forms[j], n_old)
            if pair is not None:
                _children_4(*pair, p_bit, emit)
    finally:
        _case4_weights.cache_clear()
        _shared_nums.cache_clear()


# ---------------------------------------------------------------------------
# database


def _id_width(n: int, ids: int) -> int:
    """The bits a key keeps below its n mask bytes for `ids` weight-row
    ids: those that 8n bits leave free in the last 30-bit digit of a
    CPython int, plus 30 while that is too few.  At n = 6 that is 12 bits
    for 2,373 ids, and a key of 60 bits takes 32 bytes; one of 61 bits
    would take 40."""
    width = -8 * n % 30
    while ids > 1 << width:
        width += 30
    return width


def _keys(masks, n: int, width: int, ids):
    """The keys of rows given by their masks (byte strings of at most n
    coalitions) and their weight-row ids."""
    padded = map(bytes.ljust, masks, repeat(n), repeat(b"\0"))
    return map(or_, map(lshift, map(int.from_bytes, padded, repeat("big")),
                        repeat(width)), ids)


def _weight_tables(ids) -> tuple[tuple, tuple]:
    """(nums, dens) by id, from a table of (nums, den) -> id built in id
    order."""
    return tuple(nums for nums, _ in ids), tuple(den for _, den in ids)


class Rows(Sequence):
    """The rows of a database on n players, sorted, one integer (key) each.

    A key holds the row's masks as n bytes, padded with zero bytes and read
    big-endian, above the `width`-bit id of its weight row (nums, den) in a
    table of the distinct weight rows (2,373 at n = 6).  No mask is zero,
    so masks that begin longer ones pad below them: keys order as the rows
    do.  A row (masks, nums, den) is built when it is read, by index or in
    iteration, and the rows compare equal to a tuple of the same rows or to
    other `Rows`."""

    def __init__(self, n: int, keys: list[int], width: int, nums, dens):
        self.n = n
        self._keys = keys
        self._width = width
        self._nums = nums
        self._dens = dens

    @classmethod
    def pack(cls, n: int, rows: Sequence[Row]) -> "Rows":
        """A sequence of canonical rows on n players, packed and sorted.
        Raises ValueError for a row with more than n coalitions: n + 1
        vectors in R^n are dependent, so it is never minimal, and a key
        holds n."""
        masks, weights = itemgetter(0), itemgetter(1, 2)
        if max(map(len, map(masks, rows)), default=0) > n:
            raise ValueError(f"a row holds more than n={n} coalitions")
        ids = dict.fromkeys(map(weights, rows))
        for i, key in enumerate(ids):
            ids[key] = i
        width = _id_width(n, len(ids))
        keys = list(_keys(map(bytes, map(masks, rows)), n, width,
                          map(ids.__getitem__, map(weights, rows))))
        keys.sort()
        return cls(n, keys, width, *_weight_tables(ids))

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._decoded(self._keys[i]))
        return next(self._decoded((self._keys[i],)))

    def __iter__(self):
        return self._decoded(self._keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rows, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"Rows(n={self.n}, count={len(self)})"

    def _decoded(self, keys):
        """The rows of these keys, in their order."""
        width = self._width
        low = (1 << width) - 1
        padded = map(int.to_bytes, map(rshift, keys, repeat(width)),
                     repeat(self.n), repeat("big"))
        return zip(map(bytes.rstrip, padded, repeat(b"\0")),
                   map(self._nums.__getitem__, map(and_, keys, repeat(low))),
                   map(self._dens.__getitem__, map(and_, keys, repeat(low))))

    def holds(self, masks: bytes) -> bool:
        """Whether a row has exactly these masks, at most n of them."""
        head = int.from_bytes(masks.ljust(self.n, b"\0"), "big")
        i = bisect_left(self._keys, head << self._width)
        return i < len(self._keys) and self._keys[i] >> self._width == head

    def within(self, universe: set[int]) -> list[Row]:
        """The rows whose masks all lie in the universe, in row order.

        The rows whose first d masks are one prefix are one range of keys.
        The walk reads the next mask of the first key of a range: a zero
        byte is a row that ends there, a mask in the universe is the range
        of a longer prefix, walked in turn and then skipped by one bisect,
        and any other mask is skipped by one bisect to the next mask in the
        universe.  So it bisects once or twice per prefix it meets instead
        of reading every row."""
        keys, width, n = self._keys, self._width, self.n
        inside = sorted(universe)
        found: list[int] = []

        def walk(prefix: int, depth: int, lo: int, hi: int) -> None:
            if depth == n:
                found.extend(keys[lo:hi])
                return
            shift = width + 8 * (n - 1 - depth)
            i = lo
            while i < hi:
                m = keys[i] >> shift & 0xFF
                if not m:
                    found.append(keys[i])
                    i += 1
                elif m in universe:
                    end = bisect_left(keys, ((prefix << 8 | m) + 1) << shift, i, hi)
                    walk(prefix << 8 | m, depth + 1, i, end)
                    i = end
                else:
                    j = bisect_right(inside, m)
                    if j == len(inside):
                        return
                    i = bisect_left(keys, (prefix << 8 | inside[j]) << shift, i, hi)

        walk(0, 0, 0, len(keys))
        return list(self._decoded(found))

    def _refuse_repeats(self, message: str) -> None:
        """`_check_once` on the rows, reading keys: the first rows whose
        masks agree are found by comparing neighbours' masks, and only they
        are built and sorted, to name the row `_check_once` names."""
        keys, width = self._keys, self._width
        heads = map(rshift, keys, repeat(width))
        repeats = map(eq, heads, map(rshift, islice(keys, 1, None), repeat(width)))
        for i in compress(range(len(keys)), repeats):
            end = bisect_left(keys, ((keys[i] >> width) + 1) << width, i)
            _check_once(sorted(self[i:end]), message)


@dataclass(frozen=True)
class MbcDatabase:
    """All minimal balanced collections for a fixed n, as canonical rows
    sorted by masks; optionally generated under a set-system restriction (in
    which case only collections whose coalitions fit inside some set-system
    element are present).  The rows are `Rows`, one integer per row; given
    as a sequence of rows they are packed into that form, which refuses a
    row with more than n coalitions.  Iterating builds each row's
    `WeightedCollection` as it goes and keeps none."""

    n: int
    rows: Rows
    restricted: bool = False

    def __post_init__(self):
        if not isinstance(self.rows, Rows):
            object.__setattr__(self, "rows", Rows.pack(self.n, self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return (WeightedCollection.from_row(*row) for row in self.rows)

    def contains(self, masks) -> bool:
        """Is this collection of coalitions in the database?  False for a
        coalition outside 1..2^n-1, a repeated one or more than n."""
        key = sorted(masks)
        if not key or len(key) > self.n or not 0 < key[0] <= key[-1] <= full_mask(self.n):
            return False
        return self.rows.holds(bytes(key))

    def save(self, path) -> None:
        """Write the rows as an MBCDB file, byte for byte what `peleg_stream`
        writes for the same collections."""
        def fill(emit):
            for masks, nums, den in self.rows:
                emit(tuple(masks), nums, den)

        with open(path, "w") as fh:
            _write_db(fh, self.n, self.restricted, fill)

    @classmethod
    def load(cls, path) -> "MbcDatabase":
        """Read an MBCDB file, rejecting a header other than the one
        `_header` writes or with n outside 1..MAX_PLAYERS, a row whose masks
        are not strictly increasing inside 1..2^n-1, that has more than n
        coalitions, whose weights are not positive, or in which some
        player's weights do not sum to exactly 1, a collection listed twice,
        and an unrestricted file on n <= 6 players that does not hold as
        many collections as there are minimal balanced collections on n
        players.  Minimality is not checked.

        The rows come from one bulk pass over the file (`_bulk_rows`) as
        keys of `Rows`, sorted in place.  Only when that pass meets a fault
        is the file read again from the start, line by line
        (`_first_fault`), to name the first faulty line; a file that cannot
        seek back, such as a pipe, then fails with the error of its seek."""
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
            try:
                keys, width, ids = _bulk_rows(fh, n)
            except ValueError:
                keys = None
            if keys is None:
                fh.seek(0)
                fh.readline()
                _first_fault(fh, n)
                raise RuntimeError("MBCDB: the bulk pass found a fault that "
                                   "the line checks do not")
        if len(keys) != count:
            raise ValueError(
                f"MBCDB count mismatch: header says {count}, file has {len(keys)}"
            )
        keys.sort()
        rows = Rows(n, keys, width, *_weight_tables(ids))
        rows._refuse_repeats("MBCDB lists a collection twice")
        if not restricted and n <= len(_KNOWN_COUNTS) and count != _KNOWN_COUNTS[n - 1]:
            raise ValueError(
                f"MBCDB holds {count} collections, but there are "
                f"{_KNOWN_COUNTS[n - 1]} minimal balanced collections on {n} players")
        return cls(n, rows, restricted)


# the number of minimal balanced collections on n = 1..6 players; an
# unrestricted database with another count misses rows or holds extra ones
_KNOWN_COUNTS = (1, 2, 6, 42, 1292, 200214)

# characters `_bulk_rows` reads at a time, before it completes the last
# line.  A piece's tokens and lists die with it; small pieces keep them from
# leaving freed memory scattered among the rows, which outlive the load.
LOAD_CHUNK = 1 << 13

# the token that stands for a line end in the token stream of a piece of a
# file: no item holds it, so a file in which it appears is malformed
_LINE_END = ";"


def _bulk_rows(fh, n: int) -> tuple[list[int], int, dict]:
    """The rows of the lines of `fh`, an MBCDB file on n players after its
    header, each checked as `_first_fault` checks a line, as `Rows` keys
    in file order: (keys, width, the table of (nums, den) -> id).  Raises
    ValueError, naming no line, when some row fails.

    The file is read `LOAD_CHUNK` characters at a time, completed to the
    end of a line, and a piece is split once into tokens, with `_LINE_END`
    for each line end.  Each distinct item is parsed, and its mask checked
    to lie in 1..2^n-1, once; each distinct weight row, the weight texts of
    a line, is reduced and checked for a zero denominator and for positive
    weights once, and given the id of its reduced form.  After that a piece
    is checked with C-level maps only: a token is two table lookups, its
    mask byte and its weight text, the piece's masks are one byte string,
    each line's player sums are one sum of `_lanes` integers, compared with
    its weight row's, and its key is built from its masks and id.  When the
    ids outgrow the key's width, the keys so far are widened."""
    top = full_mask(n)

    def mask_of_item(token: str) -> int:
        # the one parse of a token fills both tables; `text_of` is read
        # only after every token of the piece has its mask
        mask, text = _parse_item(token)
        if not 0 < mask <= top:
            raise ValueError("coalition out of range")
        text_of[token] = text + " "
        return mask

    def weight_row(texts: str):
        nums, den, total = _canonical_weights(texts.split())
        if min(nums) <= 0:
            raise ValueError("weights must be positive")
        lanes = lane_tables[total.bit_length()]
        weight_id = ids.setdefault((nums, den), len(ids))
        return weight_id, nums, lanes.__getitem__, den * lanes[top]

    lane_tables = _Memo(lambda width: tuple(_lanes(width, m) for m in range(top + 1)))
    mask_of = _Memo(mask_of_item)
    text_of = {_LINE_END: "\n"}
    mask_of[_LINE_END] = 0
    weight_rows = _Memo(weight_row)
    ids: dict[tuple, int] = {}
    width = _id_width(n, 1)
    keys: list[int] = []
    while text := fh.read(LOAD_CHUNK):
        text += fh.readline()
        if _LINE_END in text:
            raise ValueError("malformed MBCDB line")
        tokens = text.replace("\n", f" {_LINE_END} ").split()
        masks = b"\0" + bytes(map(mask_of.__getitem__, tokens))
        # a line end (0) lies below every mask, so each mask follows a line
        # end or a smaller mask exactly when every line's masks increase
        if sum(map(lt, masks, masks[1:])) != len(masks) - masks.count(0):
            raise ValueError("coalitions are not strictly increasing")
        lines = list(filter(None, masks.split(b"\0")))
        if not lines:
            continue
        if max(map(len, lines)) > n:
            raise ValueError(f"more than n={n} coalitions")
        texts = filter(None, "".join(map(text_of.__getitem__, tokens)).split("\n"))
        row_ids, nums, lanes, targets = zip(*map(weight_rows.__getitem__, texts))
        sums = map(sum, map(map, repeat(mul), nums, map(map, lanes, lines)))
        if not all(map(eq, sums, targets)):
            raise ValueError("player weight sums are not all 1")
        if len(ids) > 1 << width:
            wider = _id_width(n, len(ids))
            low = (1 << width) - 1
            keys[:] = [key >> width << wider | key & low for key in keys]
            width = wider
        keys += _keys(lines, n, width, row_ids)
    return keys, width, ids


def _first_fault(fh, n: int) -> None:
    """Raises ValueError naming the first faulty line of `fh`, an MBCDB
    file on n players after its header, and returns when no line is
    faulty.  A line's checks run in one fixed order: syntax, zero
    denominator, increasing masks, mask range, positive weights, sums, and
    last at most n coalitions."""
    top = full_mask(n)
    width = 0
    read = LineCodec().read
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
            if len(masks) > n:
                raise ValueError(f"more than n={n} coalitions")
        except ValueError as exc:
            raise ValueError(
                f"MBCDB line {lineno} {line.strip()!r}: {exc}") from exc


def _check_once(rows: Sequence[Row], message: str) -> None:
    """Raises ValueError with the message and the first of the sorted rows
    whose masks equal those of the row before it."""
    masks = itemgetter(0)
    repeats = map(eq, map(masks, rows), map(masks, islice(rows, 1, None)))
    for row in compress(islice(rows, 1, None), repeats):
        raise ValueError(f"{message}: {LineCodec().write(*row)!r}")


def _header(n: int, count: int, restricted: bool) -> str:
    """The first line of an MBCDB file, without its newline."""
    tail = " restricted" if restricted else ""
    return f"MBCDB 1 n={n} count={count}{tail}"


# bytes of line text `_write_db` holds in its groups before it appends them
# all to its temporary file: above the about 8 MB of the n = 6 file, so
# n <= 6 writes no file but the output
SPILL_BYTES = 1 << 26

# lines of a sorted group `_write_db` joins into one text write: the n = 6
# groups go out whole, and the largest n = 7 group in 18 pieces
WRITE_LINES = 1 << 16


def _write_db(out, n: int, restricted: bool, fill) -> int:
    """Write the MBCDB file of the rows that fill(emit) passes, each once,
    to emit(masks, nums, den) (masks a tuple) to the text file `out`, and
    return their count.  Raises ValueError, naming the line, when a line
    comes twice.

    The lines are sorted by distribution on their first item, a group per
    first coalition and weight.  `emit` fills the row's masks into the
    bytes template of its weight row and appends the line to its group's
    bytearray, found through the first mask in a table the weight row
    shares with every row of the same first weight.  Past `SPILL_BYTES` of
    text in all groups, every group is appended to one temporary binary
    file (under `TMPDIR`), its (offset, length) recorded and its lines
    counted, and the groups start empty.  Once every row is in (and, after
    a spill, every group spilled too), the header goes out, then each group
    in the text order of its first item: read back a spill at a time,
    decoded and split, sorted and checked for a line twice as text, and
    written `WRITE_LINES` lines at a time.  An item ends at a space or a
    newline, both below every item character, so the groups' order is the
    lines' order."""
    firsts: dict[str, _Memo] = {}  # first weight text -> first mask -> group

    def table(key):
        nums, den = key
        g = gcd(nums[0], den)
        weight = f"{nums[0] // g}/{den // g}"
        if weight not in firsts:
            firsts[weight] = _Memo(lambda mask: bytearray())
        return (_line_template(nums, den) + "\n").encode(), firsts[weight]

    tables = _Memo(table)
    # first item -> the offset and length of each of its spills, in turn
    spans: dict[str, array] = {}
    spill = None
    held = flushed = 0

    def emit(masks, nums, den):
        nonlocal held
        template, groups = tables[nums, den]
        line = template % masks
        groups[masks[0]] += line
        held += len(line)
        if held > SPILL_BYTES:
            flush()

    def taken():
        # (first item, group) for every group, leaving the groups empty
        for weight, groups in firsts.items():
            yield from ((f"{mask:x}:{weight}", group) for mask, group in groups.items())
            groups.clear()

    def flush():
        nonlocal spill, held, flushed
        if spill is None:
            import tempfile
            spill = tempfile.TemporaryFile(prefix="mbcspill")
        offset = spill.tell()
        for item, group in taken():
            spans.setdefault(item, array("q")).extend((offset, len(group)))
            offset += len(group)
            flushed += group.count(b"\n")
            spill.write(group)
        held = 0

    def spilled(item: str):
        places = iter(spans.get(item, ()))
        for offset, length in zip(places, places):
            spill.seek(offset)
            yield spill.read(length)

    try:
        fill(emit)
        if spill is not None:
            # then no group but the one being sorted is held
            flush()
        kept = dict(taken())
        count = flushed + sum(group.count(b"\n") for group in kept.values())
        out.write(_header(n, count, restricted) + "\n")
        for item in sorted(spans.keys() | kept.keys()):
            lines = []
            for text in chain(spilled(item), [kept.pop(item, b"")]):
                lines += text.decode().splitlines(True)
            lines.sort()
            for line in compress(islice(lines, 1, None), map(eq, lines, islice(lines, 1, None))):
                raise ValueError(f"MBCDB line {line.rstrip()!r} written twice")
            for at in range(0, len(lines), WRITE_LINES):
                out.write("".join(lines[at:at + WRITE_LINES]))
    finally:
        if spill is not None:
            spill.close()
    return count


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


def _children(parents: list[Row], n_old: int, allowed: set[int] | None) -> list[Row]:
    """The rows one induction step emits from the parents, unsorted."""
    children: list[Row] = []
    _add_player_raw(parents, n_old, allowed, lambda masks, nums, den:
                    children.append((bytes(masks), nums, den)))
    return children


def _rows_on(players: int, allowed: set[int] | None) -> list[Row]:
    """The canonical rows on 1..players, sorted by masks, by induction from
    the empty collection on no players (case 2 turns it into {{1}})."""
    rows: list[Row] = [(b"", (), 1)]
    for n_old in range(players):
        rows = _children(rows, n_old, allowed)
        rows.sort()
        _check_once(rows, "a collection is emitted twice")
    return rows


def peleg(n: int, set_system=None) -> MbcDatabase:
    """All minimal balanced collections on 1..n, by induction on the players.

    With `set_system`, collections whose coalitions do not all fit inside
    some element of the system are discarded as soon as they appear.  The
    last step's rows are packed as they come and sorted as keys.
    """
    allowed = restriction(n, set_system)
    rows = Rows.pack(n, _children(_rows_on(n - 1, allowed), n - 1, allowed))
    rows._refuse_repeats("a collection is emitted twice")
    return MbcDatabase(n, rows, allowed is not None)


def peleg_stream(n: int, out, set_system=None) -> int:
    """Like `peleg`, but writes the MBCDB file to the open text file `out`
    and returns the collection count.  The last step's children become
    lines as they are emitted, each held once as bytes in the group of its
    first item, and go out sorted after the header (see `_write_db`); past
    `SPILL_BYTES` of lines the groups move to a temporary file.  A
    collection emitted twice, at any step, raises ValueError."""
    allowed = restriction(n, set_system)
    # the rules emit tuple masks, so the templates take them as they are
    return _write_db(out, n, allowed is not None, lambda emit: _add_player_raw(
        _rows_on(n - 1, allowed), n - 1, allowed, emit))


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
