"""Workload definitions: fixture games, seeded relabelling, inputs and gates.

Each workload is one user-facing `mbc` command.  Its inputs come from the
seed alone: seed 0 is the fixture as printed, any other seed relabels the
players by a seeded permutation (a workload with `orbit` runs every distinct
relabelling, in an order the seed shuffles).  Relabelling keeps every
label-invariant fact of a report (verdict, stage, counts) and moves masks
and enumeration order, so a change cannot be tuned to one labelling.

The fixture values are kept here rather than imported from the test suite,
and the game files are written by this module, so the inputs do not depend
on the serializer of the program under test.

Run as a script, this module writes one workload's input files; `run.py`
does that in a fresh interpreter, so set-up time includes interpreter start
and `import mbc`, and set-up memory stays out of the measured process:

    python3 perfbench/workloads.py <workload> <seed> <directory>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Minimal balanced collection counts as stated in the paper.  The gate uses
# these, not the program's own table.
PAPER_COUNTS = {4: 42, 5: 1292, 6: 200214}

ANALYZE_CHECKS = "core,exact,effective,sve,extendable,feasible"

# Rows of a generated database re-checked by the gen gate.
SAMPLE_ROWS = 64


# ---------------------------------------------------------------------------
# fixtures (players 1..n, coalition masks with bit p-1 for player p)


def _mask(players) -> int:
    out = 0
    for p in players:
        out |= 1 << (p - 1)
    return out


def _members(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def four_player() -> tuple[int, dict[int, Fraction]]:
    """v(S) = 3/5 on the triples, v(N) = 1, zero elsewhere."""
    values = {m: Fraction(3, 5) for m in range(1, 16) if m.bit_count() == 3}
    values[15] = Fraction(1)
    return 4, values


def biswas(grand: Fraction) -> tuple[int, dict[int, Fraction]]:
    """Five players: the coordinatewise floor of the additive games
    x = (2,1,0,0,0) and y = (0,0,1,1,1), with v(N) = grand."""
    x = (2, 1, 0, 0, 0)
    y = (0, 0, 1, 1, 1)
    values = {}
    for mask in range(1, 32):
        v = min(sum(x[p - 1] for p in _members(mask)),
                sum(y[p - 1] for p in _members(mask)))
        if v:
            values[mask] = Fraction(v)
    values[31] = grand
    return 5, values


def studeny_kratochvil() -> tuple[int, dict[int, Fraction]]:
    """The six-player fixture with a family of 13 strictly vital-exact
    coalitions."""
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
            values[_mask(int(p) for p in key.split(","))] = Fraction(v)
    return 6, values


def permutation(n: int, seed: int) -> list[int]:
    """perm[i] is the new 0-based index of player i+1; identity for seed 0."""
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def relabel(values: dict[int, Fraction], perm) -> dict[int, Fraction]:
    out = {}
    for mask, v in values.items():
        new = 0
        for p in _members(mask):
            new |= 1 << perm[p - 1]
        out[new] = v
    return out


def game_text(n: int, values: dict[int, Fraction]) -> str:
    """The game file format: keys sorted by mask, values as p/q strings."""
    items = {
        ",".join(str(p) for p in _members(m)): f"{v.numerator}/{v.denominator}"
        for m, v in sorted(values.items())
    }
    return json.dumps({"n": n, "values": items}, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "gen", "analyze" or "stable"
    n: int
    fixture: object = None
    orbit: bool = False   # every distinct relabelling, in seeded order

    def games(self, seed: int) -> list[tuple[tuple[int, ...], dict]]:
        """(permutation, values) of each game file, in call order.  With
        `orbit`, a run calls every distinct relabelling of the fixture, so
        its total work does not depend on the seed; seed 0 keeps the
        canonical order, which starts with the fixture as printed."""
        if self.fixture is None:
            return []
        n, values = self.fixture()
        if not self.orbit:
            perm = tuple(permutation(n, seed))
            return [(perm, relabel(values, perm))]
        games, seen = [], set()
        for perm in itertools.permutations(range(n)):
            game = relabel(values, perm)
            key = tuple(sorted(game.items()))
            if key not in seen:
                seen.add(key)
                games.append((perm, game))
        if seed:
            random.Random(seed).shuffle(games)
        return games

    def game_path(self, workdir: Path, i: int) -> Path:
        return workdir / f"game{self.n}-{i}.json"

    def db_path(self, workdir: Path) -> Path:
        return workdir / f"mbc{self.n}.db"

    def output_path(self, workdir: Path) -> Path:
        return workdir / f"out{self.n}.db"

    def argv(self, workdir: Path, i: int) -> list[str]:
        if self.command == "gen":
            return ["gen", "-n", str(self.n), "-o", str(self.output_path(workdir))]
        game, db = str(self.game_path(workdir, i)), str(self.db_path(workdir))
        if self.command == "analyze":
            return ["analyze", game, "-d", db, "-c", ANALYZE_CHECKS]
        return ["stable", game, "-d", db]

    def write_inputs(self, workdir: Path, seed: int) -> None:
        """Game files and the database file; needs `mbc` importable, since
        the database is written by `mbc gen`."""
        workdir.mkdir(parents=True, exist_ok=True)
        if self.command == "gen":
            return
        for i, (_, values) in enumerate(self.games(seed)):
            self.game_path(workdir, i).write_text(game_text(self.n, values))
        from mbc import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen", "-n", str(self.n), "-o", str(self.db_path(workdir))])
        if code != 0:
            raise RuntimeError(f"mbc gen -n {self.n} exited with {code}")

    def facts(self, stdout: str) -> dict:
        """The label-invariant facts of a report."""
        report = json.loads(stdout)
        if self.command == "stable":
            diag = report["diagnostics"]
            return {
                "verdict": report["verdict"],
                "stage": report["stage"],
                **{k: diag.get(k) for k in
                   ("vital_exact_count", "feasible_count", "surviving_count")},
            }
        res = report["results"]
        return {
            "balanced": res["core"]["balanced"],
            "exact_count": len(res["exact"]["coalitions"]),
            "effective_count": len(res["effective"]["coalitions"]),
            "sve_count": len(res["sve"]["coalitions"]),
            "extendable_count": len(res["extendable"]["coalitions"]),
            "feasible_count": res["feasible"]["count"],
            "without_min_extendable": res["feasible"]["without_min_extendable"],
        }

    def gate(self, stdout: str, workdir: Path, seed: int, as_printed: bool,
             expected: dict) -> list[str]:
        """Problems with one call's output; empty when it is correct.
        `expected` holds the values recorded for this workload; the report
        digest is compared only for the fixture as printed."""
        if self.command == "gen":
            return self._gate_gen(stdout, workdir, seed, expected)
        problems = []
        if as_printed:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digest != expected["stdout_sha256"]:
                problems.append(f"stdout sha256 {digest} != recorded")
        try:
            facts = self.facts(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable report: {exc!r}"]
        if facts != expected["facts"]:
            problems.append(f"facts {facts} != recorded {expected['facts']}")
        return problems

    def _gate_gen(self, stdout, workdir, seed, expected) -> list[str]:
        count = PAPER_COUNTS[self.n]
        problems = []
        if stdout != f"n={self.n} count={count}\n":
            problems.append(f"stdout {stdout!r}")
        # streamed, so that the checking process stays small between calls
        wanted = set(random.Random(seed).sample(range(1, count + 1),
                                                min(SAMPLE_ROWS, count)))
        sampled = {}
        digest = hashlib.sha256()
        try:
            with open(self.output_path(workdir), "rb") as fh:
                header = fh.readline()
                digest.update(header)
                rows = 0
                for rows, line in enumerate(fh, 1):
                    digest.update(line)
                    if rows in wanted:
                        sampled[rows] = line.decode()
        except OSError as exc:
            return problems + [f"no output file: {exc}"]
        if digest.hexdigest() != expected["file_sha256"]:
            problems.append(f"file sha256 {digest.hexdigest()} != recorded")
        if header.decode() != f"MBCDB 1 n={self.n} count={count}\n" or rows != count:
            return problems + [f"header {header!r} with {rows} rows"]
        from mbc.generate import MINIMAL, check_minimal_balanced

        for row, line in sorted(sampled.items()):
            masks, weights = [], []
            for item in line.split():
                mask, weight = item.split(":")
                masks.append(int(mask, 16))
                weights.append(Fraction(weight))
            status, solved = check_minimal_balanced(masks, self.n)
            if status != MINIMAL or list(solved) != weights:
                problems.append(f"row {row} is not a minimal balanced collection")
        return problems


# Why each workload is there is recorded in BENCHMARK.json.  stable5 uses
# v(N) = 3, where a call takes under 2 s; with v(N) = 31/10 a call takes
# about 26 s, too long to repeat within a run.  It runs the whole relabelling
# orbit because the work of one relabelling moves with it (3,684 to 5,825
# solve_unique calls), so the total work of a run does not depend on the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen6", "gen", 6),
        Workload("analyze6", "analyze", 6, studeny_kratochvil),
        Workload("stable5", "stable", 5, lambda: biswas(Fraction(3)), orbit=True),
    )
}

# Small versions of the three commands for the harness self-check.
SELFCHECK_WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen4", "gen", 4),
        Workload("analyze4", "analyze", 4, four_player),
        Workload("stable4", "stable", 4, four_player),
    )
}


def find(name: str) -> Workload:
    return WORKLOADS.get(name) or SELFCHECK_WORKLOADS[name]


def use_source_tree() -> None:
    """Import `mbc` from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mbc

    if Path(mbc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"mbc imported from {mbc.__file__}, not from {SRC}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(f"usage: {sys.argv[0]} <workload> <seed> <directory>")
    use_source_tree()
    find(sys.argv[1]).write_inputs(Path(sys.argv[3]), int(sys.argv[2]))
