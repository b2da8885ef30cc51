"""Command-line surface: generate databases, analyze games, decide stability.

Reports are single JSON objects on standard output, built deterministically
so identical inputs give byte-identical output; wall-clock timings are only
attached under --timings since they break that contract.  Exit codes signal
operational problems only: a game with an empty or unstable core still
exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import props, stability
from .generate import MbcDatabase, peleg, peleg_stream, restriction
from .model import (
    Game,
    GameFormatError,
    coalition_key,
    parse_coalition_key,
    parse_game,
)

DB_DIR_ENV = "MBC_DB_DIR"

ANALYZE_CHECKS = ("core", "exact", "effective", "sve", "extendable", "feasible")


class CliError(Exception):
    pass


def _parse_set_system(text: str, n: int):
    """The coalitions of a semicolon-separated list; `restriction` refuses
    an empty one."""
    masks = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            masks.append(parse_coalition_key(part, n))
    return masks


def cmd_generate(args) -> int:
    n = args.players
    if n >= 7 and not args.allow_long:
        raise CliError(
            f"n={n} is a long-running generation; pass --allow-long to confirm"
        )
    set_system = None
    if args.restrict is not None:
        set_system = _parse_set_system(args.restrict, n)
    # checked before -o is opened, so a refusal leaves an existing file as it
    # was; -o is opened before the generation, so a bad path fails at once
    restriction(n, set_system)
    started = time.monotonic()
    if args.output == "-":
        count = peleg_stream(n, sys.stdout, set_system=set_system)
        report = sys.stderr
    else:
        try:
            out = open(args.output, "w")
        except OSError as exc:
            raise CliError(f"cannot write database: {exc}") from exc
        with out:
            count = peleg_stream(n, out, set_system=set_system)
        report = sys.stdout
    elapsed = time.monotonic() - started
    print(f"n={n} count={count}", file=report)
    if args.timings:
        print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return 0


def _load_game(path) -> Game:
    try:
        if path == "-":
            return parse_game(sys.stdin.read())
        with open(path, "rb") as fh:
            return parse_game(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read game file: {exc}") from exc
    except GameFormatError as exc:
        raise CliError(f"bad game file: {exc}") from exc


def _load_db(args, game: Game) -> MbcDatabase:
    path = args.db
    if path is None:
        db_dir = os.environ.get(DB_DIR_ENV)
        if db_dir:
            candidate = os.path.join(db_dir, f"mbc{game.n}.db")
            if os.path.exists(candidate):
                path = candidate
    if path is not None:
        try:
            return MbcDatabase.load(path)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load database: {exc}") from exc
    if game.n > 6:
        raise CliError("no database given and in-memory generation is capped at n=6")
    return peleg(game.n)


def _mask_list(masks):
    return [coalition_key(m) for m in sorted(masks)]


def cmd_analyze(args) -> int:
    game = _load_game(args.game)
    checks = []
    for name in (args.checks or "core").split(","):
        name = name.strip()
        if not name:
            continue
        if name not in ANALYZE_CHECKS:
            raise CliError(f"unknown check {name!r}; pick from {','.join(ANALYZE_CHECKS)}")
        if name not in checks:
            checks.append(name)
    db = _load_db(args, game)
    index = props.BalancedIndex(game, db)
    report = {
        "game": game.digest(),
        "n": game.n,
        "database": {"n": db.n, "count": len(db)},
        "checks": checks,
        "results": {},
    }
    timings = {}
    balanced = index.balanced
    extendable_cache: dict[int, bool] = {}
    # a check's time runs from the end of the one before, so the first
    # check also carries the family that sve, extendable and feasible share
    started = time.monotonic()
    family = None
    if balanced and not {"sve", "extendable", "feasible"}.isdisjoint(checks):
        family = props.sve_family(game, db, index)

    for check in checks:
        if check == "core":
            witness = None if balanced else index.witness().to_payload()
            report["results"]["core"] = {
                "balanced": balanced,
                "violated_collection": witness,
            }
        elif not balanced:
            report["results"][check] = {"error": "game is not balanced"}
        elif check == "exact":
            report["results"]["exact"] = {
                "coalitions": _mask_list(props.exact_coalitions(game, db, index))
            }
        elif check == "effective":
            report["results"]["effective"] = {
                "coalitions": _mask_list(props.effective_set(game, db, index))
            }
        elif check == "sve":
            report["results"]["sve"] = {"coalitions": _mask_list(family)}
        elif check == "extendable":
            for S in family:
                if S not in extendable_cache:
                    extendable_cache[S] = props.is_extendable(S, game)
            report["results"]["extendable"] = {
                "family": _mask_list(family),
                "coalitions": _mask_list(
                    [S for S in family if extendable_cache[S]]
                ),
            }
        elif check == "feasible":
            survey = props.feasibility_survey(game, db, family, extendable_cache)
            report["results"]["feasible"] = {
                "family": _mask_list(family),
                "collections": [
                    {
                        "collection": [coalition_key(m) for m in r.collection],
                        "blocking": r.blocking,
                        "has_min_extendable": r.has_min_extendable,
                    }
                    for r in survey
                ],
                "count": len(survey),
                "without_min_extendable": sum(
                    1 for r in survey if not r.has_min_extendable
                ),
            }
        now = time.monotonic()
        timings[check] = round(now - started, 6)
        started = now
    if args.timings:
        report["timings"] = timings
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_stable(args) -> int:
    caps = stability.StabilityCaps(
        max_systems=args.max_systems,
        time_limit=args.time_limit,
    )
    game = _load_game(args.game)
    db = _load_db(args, game)
    report = stability.is_core_stable(game, db, caps)
    payload = {"game": game.digest(), "n": game.n}
    payload.update(report.to_payload(with_timings=args.timings))
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbc",
        description="Minimal balanced collections and core stability of TU games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a minimal-balanced-collection database")
    gen.add_argument("-n", "--players", type=int, required=True)
    gen.add_argument("-o", "--output", required=True, help="output path, or - for stdout")
    gen.add_argument("--restrict", help="set system: semicolon-separated coalitions, e.g. '1,2;2,3'")
    gen.add_argument("--allow-long", action="store_true",
                     help="confirm a long-running generation (n >= 7)")
    gen.add_argument("--timings", action="store_true")
    gen.set_defaults(func=cmd_generate)

    analyze = sub.add_parser("analyze", help="check properties of a game")
    analyze.add_argument("game", help="game file path, or - for stdin")
    analyze.add_argument("-d", "--db", help=f"database path (default: ${DB_DIR_ENV}/mbc<n>.db)")
    analyze.add_argument("-c", "--checks", help="comma list: " + ",".join(ANALYZE_CHECKS))
    analyze.add_argument("--timings", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    stable = sub.add_parser("stable", help="decide core stability")
    stable.add_argument("game", help="game file path, or - for stdin")
    stable.add_argument("-d", "--db", help=f"database path (default: ${DB_DIR_ENV}/mbc<n>.db)")
    stable.add_argument("--max-systems", type=int, default=20_000,
                        help="cap on admissible systems per feasible collection")
    stable.add_argument("--time-limit", type=float, default=600.0,
                        help="wall-clock cap for the nested stage, seconds")
    stable.add_argument("--timings", action="store_true")
    stable.set_defaults(func=cmd_stable)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
