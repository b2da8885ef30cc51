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
  case 4: take the union of two distinct collections whose combined
          characteristic matrix has rank k-1, and transfer the new player
          into the unique convex combination of the two weight systems that
          gives it total weight 1.

Every rule emits only minimal balanced collections and together they are
exhaustive, so after deduplication the output is the complete set.  The
generator and the database work on integer rows (masks, numerators,
denominator); fractions only materialize at the API boundary.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd, lcm
from operator import lt, mul

from .model import (
    PLAYER_CAP,
    LineCodec,
    WeightedCollection,
    _Memo,
    full_mask,
    members,
)
from . import linalg
from .linalg import _echelon

DEFAULT_PLAYER_LIMIT = 7

MINIMAL = "minimal"
BALANCED_NOT_MINIMAL = "balanced_not_minimal"
NOT_BALANCED = "not_balanced"

# One collection as an integer row: (masks strictly increasing, weight
# numerators, denominator), weight i being nums[i]/den.  Rows held by an
# MbcDatabase are canonical: gcd(den, *nums) == 1, so equal collections give
# equal rows whether generated or loaded.
Row = tuple[tuple[int, ...], tuple[int, ...], int]


def _subset_sums(nums) -> list[int]:
    """sums[I] = sum of nums[i] over the set bits of I, for all I < 2^k."""
    sums = [0]
    for w in nums:
        sums += [s + w for s in sums]
    return sums


def _rank01(masks, n: int) -> int:
    """Rank over the rationals of the n-by-k matrix of characteristic columns."""
    rows = [[(m >> i) & 1 for m in masks] for i in range(n)]
    _, pivots = _echelon(rows)
    return len(pivots)


# ---------------------------------------------------------------------------
# the four construction rules, shared by the bulk generator and the public
# single-step helpers


def apply_case1(wc: WeightedCollection, picked, p: int) -> WeightedCollection:
    """Case 1: the picked members' weights sum to 1; the new player joins
    them and the weight system is unchanged.  `picked` holds 0-based member
    positions."""
    masks, nums, den = wc.to_row()
    picked = sorted(set(picked))
    if sum(nums[i] for i in picked) != den:
        raise ValueError("case 1 needs the picked weights to sum to exactly 1")
    p_bit = 1 << (p - 1)
    _require_new_player(masks, p_bit)
    entries = [
        ((m | p_bit) if i in picked else m, nums[i]) for i, m in enumerate(masks)
    ]
    entries.sort()
    return WeightedCollection.from_row([m for m, _ in entries], [x for _, x in entries], den)


def apply_case2(wc: WeightedCollection, picked, p: int) -> WeightedCollection:
    """Case 2: the picked weights sum to s < 1; the new player joins them and
    the singleton {p} enters with weight 1-s."""
    masks, nums, den = wc.to_row()
    picked = sorted(set(picked))
    s = sum(nums[i] for i in picked)
    if s >= den:
        raise ValueError("case 2 needs the picked weights to sum below 1")
    p_bit = 1 << (p - 1)
    _require_new_player(masks, p_bit)
    entries = [
        ((m | p_bit) if i in picked else m, nums[i]) for i, m in enumerate(masks)
    ]
    entries.append((p_bit, den - s))
    entries.sort()
    return WeightedCollection.from_row([m for m, _ in entries], [x for _, x in entries], den)


def apply_case3(wc: WeightedCollection, picked, split, p: int) -> WeightedCollection:
    """Case 3: besides moving the new player into the picked members, the
    non-picked member at position `split` is duplicated into S u {p} with
    weight 1-s, keeping S with the weight remainder."""
    masks, nums, den = wc.to_row()
    picked = sorted(set(picked))
    if split in picked:
        raise ValueError("the split member must not be picked")
    s = sum(nums[i] for i in picked)
    rem = den - s
    if not 0 < rem < nums[split]:
        raise ValueError("case 3 needs 1 > sum of picked weights > 1 - split weight")
    p_bit = 1 << (p - 1)
    _require_new_player(masks, p_bit)
    entries = [
        ((m | p_bit) if i in picked else m, nums[i])
        for i, m in enumerate(masks)
        if i != split
    ]
    entries.append((masks[split] | p_bit, rem))
    entries.append((masks[split], nums[split] - rem))
    entries.sort()
    return WeightedCollection.from_row([m for m, _ in entries], [x for _, x in entries], den)


def apply_case4(first: WeightedCollection, second: WeightedCollection, picked,
                p: int) -> WeightedCollection:
    """Case 4: the union of two distinct minimal balanced collections with
    characteristic rank one below its size; the new player joins the picked
    union members and the weights interpolate the two systems at the unique
    point giving the new player total weight 1.  `picked` indexes the sorted
    union."""
    masks_a, nums_a, den_a = first.to_row()
    masks_b, nums_b, den_b = second.to_row()
    union_masks = sorted(set(masks_a) | set(masks_b))
    k = len(union_masks)
    n_old = max(union_masks).bit_length()
    if first.coalitions == second.coalitions:
        raise ValueError("case 4 needs two distinct collections")
    if _rank01(union_masks, n_old) != k - 1:
        raise ValueError("case 4 needs characteristic rank exactly |union| - 1")
    L = lcm(den_a, den_b)
    pos_a = {m: i for i, m in enumerate(masks_a)}
    pos_b = {m: i for i, m in enumerate(masks_b)}
    mu = [nums_a[pos_a[m]] * (L // den_a) if m in pos_a else 0 for m in union_masks]
    nu = [nums_b[pos_b[m]] * (L // den_b) if m in pos_b else 0 for m in union_masks]
    picked = sorted(set(picked))
    a = L - sum(mu[i] for i in picked)
    b = sum(nu[i] for i in picked) - sum(mu[i] for i in picked)
    if not (0 < a < b or b < a < 0):
        raise ValueError("case 4 needs the interpolation parameter inside ]0,1[")
    p_bit = 1 << p - 1
    _require_new_player(union_masks, p_bit)
    entries = []
    for i, m in enumerate(union_masks):
        num = b * mu[i] + a * (nu[i] - mu[i])
        entries.append(((m | p_bit) if i in picked else m, num))
    den = L * b
    if den < 0:
        den = -den
        entries = [(m, -x) for m, x in entries]
    entries.sort()
    return WeightedCollection.from_row([m for m, _ in entries], [x for _, x in entries], den)


def _require_new_player(masks, p_bit: int) -> None:
    if any(m & p_bit for m in masks):
        raise ValueError("the new player already appears in the collection")


def _children_123(masks, nums, den, p_bit, emit):
    k = len(masks)
    sums = _subset_sums(nums)
    for I in range(1 << k):
        s = sums[I]
        if s > den:
            continue
        base = [
            ((m | p_bit) if (I >> i) & 1 else m, nums[i])
            for i, m in enumerate(masks)
        ]
        if s == den:
            emit(base, den)
            continue
        rem = den - s
        emit(base + [(p_bit, rem)], den)
        for d in range(k):
            if not (I >> d) & 1 and nums[d] > rem:
                child = [pair for i, pair in enumerate(base) if i != d]
                child.append((masks[d] | p_bit, rem))
                child.append((masks[d], nums[d] - rem))
                emit(child, den)


def _children_4(masks, mu, nu, L, p_bit, emit):
    """Case 4 for one merged pair: mu, nu are the two weight systems extended
    by zeros to the union, as integers over the common denominator L."""
    k = len(masks)
    smu = _subset_sums(mu)
    snu = _subset_sums(nu)
    for I in range(1, 1 << k):
        a = L - smu[I]
        b = snu[I] - smu[I]
        if b > 0:
            if not 0 < a < b:
                continue
        elif b < 0:
            if not b < a < 0:
                continue
        else:
            continue
        child = []
        for i, m in enumerate(masks):
            num = b * mu[i] + a * (nu[i] - mu[i])
            child.append(((m | p_bit) if (I >> i) & 1 else m, num))
        den = L * b
        if den < 0:
            den = -den
            child = [(m, -x) for m, x in child]
        emit(child, den)


def _add_player_raw(parents: list[Row], n_old: int, allowed: set[int] | None,
                    sink=None) -> list[Row]:
    """One induction step: all minimal balanced collections on n_old+1 players
    from those on n_old, as canonical rows sorted by masks (the weights of a
    minimal balanced collection are determined by its coalitions, so rows
    are deduplicated on the masks).  When `sink` is given, MBCDB lines are
    pushed there instead (streaming mode) and the returned list is empty.
    """
    p_bit = 1 << n_old
    out: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

    if sink is None:
        def emit(entries, den):
            entries.sort()
            masks = tuple(m for m, _ in entries)
            if masks in out:
                return
            if allowed is not None and not all(m in allowed for m in masks):
                return
            nums = tuple(x for _, x in entries)
            g = gcd(den, *nums)
            if g > 1:
                den //= g
                nums = tuple(x // g for x in nums)
            out[masks] = (nums, den)
    else:
        write = LineCodec().write

        def emit(entries, den):
            entries.sort()
            if allowed is not None and not all(m in allowed for m, _ in entries):
                return
            masks, nums = zip(*entries)
            sink(write(masks, nums, den))

    for masks, nums, den in parents:
        _children_123(masks, nums, den, p_bit, emit)

    # case 4 over unordered pairs; the two orderings of a pair generate the
    # same children, so one suffices
    n_parents = len(parents)
    cmasks = [0] * n_parents
    for idx, (masks, _, _) in enumerate(parents):
        cm = 0
        for m in masks:
            cm |= 1 << (m - 1)
        cmasks[idx] = cm
    pos = [{m: i for i, m in enumerate(masks)} for masks, _, _ in parents]
    size_limit = n_old + 1
    for ia in range(n_parents):
        ca = cmasks[ia]
        masks_a, nums_a, den_a = parents[ia]
        pos_a = pos[ia]
        for ib in range(ia + 1, n_parents):
            union = ca | cmasks[ib]
            k = union.bit_count()
            if k > size_limit:
                continue
            union_masks = []
            u = union
            while u:
                low = u & -u
                union_masks.append(low.bit_length())
                u ^= low
            if _rank01(union_masks, n_old) != k - 1:
                continue
            masks_b, nums_b, den_b = parents[ib]
            pos_b = pos[ib]
            L = lcm(den_a, den_b)
            fa = L // den_a
            fb = L // den_b
            mu = [nums_a[pos_a[m]] * fa if m in pos_a else 0 for m in union_masks]
            nu = [nums_b[pos_b[m]] * fb if m in pos_b else 0 for m in union_masks]
            _children_4(union_masks, mu, nu, L, p_bit, emit)
    return [(masks, nums, den) for masks, (nums, den) in sorted(out.items())]


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

    def header(self) -> str:
        tail = " restricted" if self.restricted else ""
        return f"MBCDB 1 n={self.n} count={len(self.rows)}{tail}"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            self.dump(fh)

    def dump(self, fh) -> None:
        write = LineCodec().write
        fh.write(self.header() + "\n")
        for line in sorted(write(*row) for row in self.rows):
            fh.write(line + "\n")

    @classmethod
    def load(cls, path) -> "MbcDatabase":
        """Read an MBCDB file, rejecting a row whose masks are not strictly
        increasing inside 1..2^n-1, whose weights are not positive, or in
        which some player's weights do not sum to exactly 1, and a
        collection listed twice.  Minimality is not checked."""
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
            if not 1 <= n <= PLAYER_CAP:
                raise ValueError(f"bad MBCDB header: n={n} out of range")
            restricted = "restricted" in fields[4:]
            top = full_mask(n)
            width = 0
            codec = LineCodec()
            read = codec.read
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
        for a, b in zip(rows, rows[1:]):
            if a[0] == b[0]:
                raise ValueError(f"MBCDB lists a collection twice: {codec.write(*b)!r}")
        return cls(n, tuple(rows), restricted)


def _lanes(width: int, mask: int) -> int:
    """The integer with a 1 at bit (p-1)*width for each player p of the mask.
    A weighted sum of these holds every player's total in its own width-bit
    lane; while the weights sum below 2^width no lane carries into the next,
    so one comparison checks all the totals."""
    return sum(1 << (p - 1) * width for p in members(mask))


def _allowed_masks(set_system, n: int) -> set[int]:
    top = full_mask(n)
    allowed: set[int] = set()
    for f in set_system:
        f &= top
        sub = f
        while sub:
            allowed.add(sub)
            sub = (sub - 1) & f
    return allowed


def _validate_set_system(set_system, n: int) -> tuple[int, ...]:
    masks = tuple(sorted(set(set_system)))
    if not masks:
        raise ValueError("empty set system")
    cover = 0
    for m in masks:
        if not 0 < m < (1 << n):
            raise ValueError(f"set-system element {m:#x} out of range for n={n}")
        cover |= m
    if cover != full_mask(n):
        raise ValueError("set system does not cover the player set")
    return masks


def _restriction(n: int, set_system, player_limit: int) -> set[int] | None:
    """Checks the arguments of a generation on 1..n; returns the masks a
    restricted run may keep, or None when it is unrestricted."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > player_limit:
        raise ValueError(f"n={n} exceeds the configured limit {player_limit}")
    if set_system is None:
        return None
    _validate_set_system(set_system, n)
    return _allowed_masks(set_system, n)


def _rows_on(players: int, allowed: set[int] | None) -> list[Row]:
    rows: list[Row] = [((1,), (1,), 1)]
    if allowed is not None:
        rows = [row for row in rows if all(m in allowed for m in row[0])]
    for i in range(1, players):
        rows = _add_player_raw(rows, i, allowed)
    return rows


def peleg(n: int, set_system=None, player_limit: int = DEFAULT_PLAYER_LIMIT) -> MbcDatabase:
    """All minimal balanced collections on 1..n, by induction from n=1.

    With `set_system`, collections whose coalitions do not all fit inside
    some element of the system are discarded as soon as they appear.
    """
    allowed = _restriction(n, set_system, player_limit)
    return MbcDatabase(n, tuple(_rows_on(n, allowed)), allowed is not None)


def add_new_player(db: MbcDatabase, p: int) -> MbcDatabase:
    """One induction step on an existing database; p must be the next player."""
    if 1 <= p <= db.n:
        raise ValueError(f"player {p} is already in the set")
    if p != db.n + 1:
        raise ValueError(f"players must stay contiguous; expected p={db.n + 1}")
    if p > PLAYER_CAP:
        raise ValueError(f"player cap {PLAYER_CAP} exceeded")
    rows = _add_player_raw(list(db.rows), db.n, None)
    return MbcDatabase(db.n + 1, tuple(rows), db.restricted)


def peleg_stream(n: int, out_path, set_system=None, shard_lines: int = 1_000_000,
                 tmp_dir=None, player_limit: int = DEFAULT_PLAYER_LIMIT) -> int:
    """Like `peleg`, but the final induction step streams to disk.

    Collections on n-1 players are generated in memory; the children are
    written to sorted shard files which are then merged with deduplication
    into the MBCDB file.  Returns the collection count.  This is the n=7
    path: the output does not fit comfortably in RAM as structured values.
    """
    if n < 2:
        raise ValueError("streaming generation needs n >= 2")
    allowed = _restriction(n, set_system, player_limit)
    base = _rows_on(n - 1, allowed)

    shards: list[str] = []
    buffer: set[str] = set()

    def flush():
        if not buffer:
            return
        fd, path = tempfile.mkstemp(prefix="mbcshard", dir=tmp_dir)
        with os.fdopen(fd, "w") as fh:
            for line in sorted(buffer):
                fh.write(line + "\n")
        shards.append(path)
        buffer.clear()

    def sink(line: str):
        buffer.add(line)
        if len(buffer) >= shard_lines:
            flush()

    try:
        _add_player_raw(base, n - 1, allowed, sink=sink)
        flush()
        count = 0
        body_fd, body_path = tempfile.mkstemp(prefix="mbcbody", dir=tmp_dir)
        try:
            files = [open(path) for path in shards]
            with os.fdopen(body_fd, "w") as body:
                previous = None
                for line in heapq.merge(*files):
                    if line != previous:
                        body.write(line)
                        count += 1
                        previous = line
            for fh in files:
                fh.close()
            tail = " restricted" if set_system is not None else ""
            with open(out_path, "w") as out:
                out.write(f"MBCDB 1 n={n} count={count}{tail}\n")
                with open(body_path) as body:
                    for line in body:
                        out.write(line)
        finally:
            os.unlink(body_path)
    finally:
        for path in shards:
            if os.path.exists(path):
                os.unlink(path)
    return count


# ---------------------------------------------------------------------------
# checks and conversions


def _checked_masks(masks, n: int) -> tuple[int, ...]:
    """The coalitions of a nonempty collection on n players, sorted; raises
    ValueError for an empty collection, a coalition outside 1..2^n-1 or a
    repeated coalition."""
    masks = tuple(masks)
    if not masks:
        raise ValueError("empty collection")
    top = full_mask(n)
    for m in masks:
        if not 0 < m <= top:
            raise ValueError(f"coalition {m:#x} out of range for n={n}")
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate coalitions")
    return tuple(sorted(masks))


def check_minimal_balanced(masks, n: int):
    """Classify a collection of coalitions.

    Returns (MINIMAL, weights) when the balancing weight system exists, is
    unique and strictly positive; (BALANCED_NOT_MINIMAL, None) when positive
    weight systems exist but are not unique; (NOT_BALANCED, None) otherwise.
    The minimal balanced subcollections are the minimal balanced subsets of
    the characteristic vectors (`linalg.minimal_balanced_sets`): the
    collection is minimal when it is one of them, which one pass along the
    search's path through all of them decides (`linalg.whole_set_weights`),
    and balanced when they cover every member, which needs the whole search
    only when the characteristic vectors are dependent.
    """
    masks = _checked_masks(masks, n)
    vectors = [[(m >> i) & 1 for i in range(n)] for m in masks]
    independent, weights = linalg.whole_set_weights(vectors, n)
    if weights is not None:
        return MINIMAL, weights
    if independent:
        # the unique solution is not positive, or there is none
        return NOT_BALANCED, None
    covered = set()
    for indices, _ in linalg.minimal_balanced_sets(vectors, n):
        covered.update(indices)
    if covered == set(range(len(masks))):
        return BALANCED_NOT_MINIMAL, None
    return NOT_BALANCED, None


def is_balanced_collection(masks, db: MbcDatabase) -> bool:
    """A collection is balanced iff it equals the union of the minimal
    balanced collections it contains.  Raises ValueError on the inputs
    `check_minimal_balanced` rejects."""
    target = frozenset(_checked_masks(masks, db.n))
    covered: set[int] = set()
    for row_masks, _, _ in db.rows:
        if covered >= target:
            break
        if target.issuperset(row_masks):
            covered.update(row_masks)
    return covered == target


def to_regular_hypergraph(wc: WeightedCollection) -> tuple[int, tuple[int, ...]]:
    """Depth and integer multiplicities of a minimal balanced collection seen
    as a regular hypergraph: the depth is the common per-vertex degree."""
    _, multiplicities, depth = wc.to_row()
    return depth, multiplicities
