import tempfile
from fractions import Fraction

import pytest

ACCEPTANCE_RESULTS = []


def pytest_configure(config):
    """Hypothesis caches the constants of the source files under
    ./.hypothesis while it collects the property tests; point it at a
    directory that is removed when the session ends, so a run leaves
    nothing in the tree."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.TemporaryDirectory(prefix="mbc-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for num, label, ok in ACCEPTANCE_RESULTS:
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {num}: {status} - {label}")

from mbc import Game, coalition_mask, parse_game, peleg
from mbc.model import full_mask, members


def popcount(mask: int) -> int:
    return mask.bit_count()


def db_row(collection):
    """The collection's integer row in the form a database holds it, with
    its masks as one byte string (`generate.Row`)."""
    masks, nums, den = collection.to_row()
    return bytes(masks), nums, den


def make_three_player_tight() -> Game:
    """v({i,j}) = 1, v(N) = 3/2: the core is the single point (1/2,1/2,1/2)."""
    return Game(3, {3: Fraction(1), 5: Fraction(1), 6: Fraction(1), 7: Fraction(3, 2)})


def make_four_player() -> Game:
    """v(S) = 0.6 on the triples, v(N) = 1, zero elsewhere."""
    values = {m: Fraction(3, 5) for m in range(1, 16) if popcount(m) == 3}
    values[15] = Fraction(1)
    return Game(4, values)


def make_biswas(grand=Fraction(3)) -> Game:
    """The five-player game given by the coordinatewise floor of two additive
    games x = (2,1,0,0,0) and y = (0,0,1,1,1)."""
    x = (2, 1, 0, 0, 0)
    y = (0, 0, 1, 1, 1)
    values = {}
    for mask in range(1, 32):
        v = min(
            sum(x[p - 1] for p in members(mask)),
            sum(y[p - 1] for p in members(mask)),
        )
        if v:
            values[mask] = Fraction(v)
    values[31] = grand
    return Game(5, values)


def make_studeny_kratochvil() -> Game:
    spec = {
        2: ["2,5", "3,5", "1,2,5", "2,3,5", "2,4,5", "2,5,6", "1,2,4,5",
            "1,2,4,6", "1,2,5,6", "2,4,5,6", "1,2,4,5,6"],
        3: ["3,4,5"],
        4: ["3,6", "1,3,5", "1,3,6", "3,4,6", "3,5,6", "1,2,3,5", "1,3,4,5",
            "1,3,4,6", "1,3,5,6", "2,3,4,5", "1,2,3,4,5"],
        6: ["2,3,6", "1,2,3,6", "2,3,4,6", "2,3,5,6", "1,2,3,4,6", "1,2,3,5,6"],
        8: ["3,4,5,6", "1,3,4,5,6", "2,3,4,5,6"],
        10: ["1,2,3,4,5,6"],
    }
    values = {}
    for v, keys in spec.items():
        for key in keys:
            values[coalition_mask(int(p) for p in key.split(","))] = Fraction(v)
    return Game(6, values)


def make_not_core_describing() -> Game:
    """A balanced four-player game whose singletons are exact but whose
    strictly vital-exact family does not describe the core."""
    return parse_game('{"n":4,"values":{"1,3":"4","1,2,3":"17","4":"3",'
                      '"1,2,4":"4","1,2,3,4":"20"}}')


def make_additive(weights) -> Game:
    n = len(weights)
    values = {}
    for mask in range(1, full_mask(n) + 1):
        total = sum(Fraction(weights[p - 1]) for p in members(mask))
        if total:
            values[mask] = total
    return Game(n, values)


def make_convex(n: int, rng) -> Game:
    """A seeded positive sum of unanimity games on 1 to 2n carriers: a
    convex game."""
    full = full_mask(n)
    values = {}
    for T in rng.sample(range(1, full + 1), rng.randint(1, 2 * n)):
        c = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        for S in range(T, full + 1):
            if S & T == T:
                values[S] = values.get(S, 0) + c
    return Game(n, values)


@pytest.fixture(scope="session")
def db3():
    return peleg(3)


@pytest.fixture(scope="session")
def db4():
    return peleg(4)


@pytest.fixture(scope="session")
def db5():
    return peleg(5)


@pytest.fixture(scope="session")
def db6():
    return peleg(6)


@pytest.fixture(scope="session")
def game4():
    return make_four_player()


@pytest.fixture(scope="session")
def biswas():
    return make_biswas()


@pytest.fixture(scope="session")
def biswas_mod():
    return make_biswas(Fraction(31, 10))


@pytest.fixture(scope="session")
def sk_game():
    return make_studeny_kratochvil()
