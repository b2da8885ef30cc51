import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_biswas, make_not_core_describing
import mbc
from mbc import MbcDatabase, WeightedCollection, cli, generate, stability
from mbc.cli import main

FOUR_PLAYER = (
    '{"n":4,"values":{"1,2,3":"0.6","1,2,4":"0.6","1,3,4":"0.6",'
    '"2,3,4":"0.6","1,2,3,4":"1"}}'
)

ADDITIVE3 = '{"n":3,"values":{"1":"1","2":"2","3":"3","1,2":"3","1,3":"4","2,3":"5","1,2,3":"6"}}'

EMPTY_CORE3 = '{"n":3,"values":{"1,2":"1","1,3":"1","2,3":"1","1,2,3":"1"}}'


@pytest.fixture()
def game_file(tmp_path):
    path = tmp_path / "four.game"
    path.write_text(FOUR_PLAYER)
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_database(tmp_path, capsys):
    out = tmp_path / "mbc4.db"
    code, stdout, _ = run_main(capsys, ["gen", "-n", "4", "-o", str(out)])
    assert code == 0
    assert stdout.strip() == "n=4 count=42"
    lines = out.read_text().splitlines()
    assert lines[0] == "MBCDB 1 n=4 count=42"
    assert len(lines) == 43


def test_gen_stdout_two_lines(capsys):
    code, stdout, stderr = run_main(capsys, ["gen", "-n", "2", "-o", "-"])
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "MBCDB 1 n=2 count=2"
    assert lines[1:] == ["1:1/1 2:1/1", "3:1/1"]
    assert "n=2 count=2" in stderr


def test_gen_restricted(tmp_path, capsys):
    out = tmp_path / "r.db"
    code, stdout, _ = run_main(
        capsys, ["gen", "-n", "3", "-o", str(out), "--restrict", "1,2;2,3;1,3"]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith("restricted")


def test_gen_refuses_long_without_flag(capsys):
    code, _, stderr = run_main(capsys, ["gen", "-n", "7", "-o", "x.db"])
    assert code == 1
    assert "allow-long" in stderr


def test_gen_one_player(tmp_path, capsys):
    out = tmp_path / "mbc1.db"
    code, stdout, _ = run_main(capsys, ["gen", "-n", "1", "-o", str(out)])
    assert code == 0 and stdout == "n=1 count=1\n"
    assert out.read_text() == "MBCDB 1 n=1 count=1\n1:1/1\n"
    code, stdout, stderr = run_main(capsys, ["gen", "-n", "1", "-o", "-"])
    assert code == 0 and stderr == "n=1 count=1\n"
    assert stdout == "MBCDB 1 n=1 count=1\n1:1/1\n"


@pytest.mark.parametrize("argv", [["-n", "5"], ["-n", "3", "--restrict", "1,2;2,3;1,3"]])
def test_gen_stdout_matches_file(tmp_path, capsys, argv):
    out = tmp_path / "out.db"
    assert run_main(capsys, ["gen", *argv, "-o", str(out)])[0] == 0
    code, stdout, _ = run_main(capsys, ["gen", *argv, "-o", "-"])
    assert code == 0 and stdout == out.read_text()


def test_gen_streams_to_stdout_for_every_n(capsys, monkeypatch):
    # n >= 7 takes the one writer too, so "-o -" is no longer refused there
    calls = []

    def fake(n, out, set_system=None):
        calls.append((n, out))
        return 0

    monkeypatch.setattr(cli, "peleg_stream", fake)
    code, _, stderr = run_main(capsys, ["gen", "-n", "7", "--allow-long", "-o", "-"])
    assert code == 0 and stderr == "n=7 count=0\n"
    assert calls == [(7, sys.stdout)]


def test_gen_fails_on_unwritable_output_before_generating(tmp_path, capsys, monkeypatch):
    def no_generation(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(generate, "_rows_on", no_generation)
    target = tmp_path / "missing" / "x.db"
    code, _, stderr = run_main(capsys, ["gen", "-n", "7", "--allow-long", "-o", str(target)])
    assert code == 1
    assert "cannot write database" in stderr and not target.exists()


@pytest.mark.parametrize("argv,message", [
    (["-n", "0"], "n must be at least 1"),
    (["-n", "9", "--allow-long"], "n=9 exceeds"),
    (["-n", "3", "--restrict", "1,2"], "set system does not cover"),
    (["-n", "3", "--restrict", ""], "empty set system"),
    (["-n", "3", "--restrict", ";"], "empty set system"),
])
def test_gen_refusal_leaves_an_existing_output_as_it_was(tmp_path, capsys, argv, message):
    out = tmp_path / "mbc.db"
    out.write_text("MBCDB 1 n=1 count=1\n1:1/1\n")
    code, stdout, stderr = run_main(capsys, ["gen", *argv, "-o", str(out)])
    assert code == 1 and stdout == "" and message in stderr
    assert out.read_text() == "MBCDB 1 n=1 count=1\n1:1/1\n"


def test_analyze_core_and_sve(game_file, tmp_path, capsys):
    db = tmp_path / "mbc4.db"
    run_main(capsys, ["gen", "-n", "4", "-o", str(db)])
    code, stdout, _ = run_main(
        capsys, ["analyze", game_file, "-d", str(db), "-c", "core,effective,sve"]
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["n"] == 4
    assert report["results"]["core"]["balanced"] is True
    assert report["results"]["effective"]["coalitions"] == ["1,2,3,4"]
    assert len(report["results"]["sve"]["coalitions"]) == 8


def test_analyze_rejects_unknown_check(game_file, capsys):
    code, _, stderr = run_main(capsys, ["analyze", game_file, "-c", "nope"])
    assert code == 1
    assert "unknown check" in stderr


def test_analyze_rejects_mismatched_db(game_file, tmp_path, capsys):
    db = tmp_path / "mbc3.db"
    run_main(capsys, ["gen", "-n", "3", "-o", str(db)])
    code, _, stderr = run_main(capsys, ["analyze", game_file, "-d", str(db)])
    assert code == 1
    assert "database has n=3" in stderr


def test_stable_rejects_mismatched_db(game_file, tmp_path, capsys):
    db = tmp_path / "mbc3.db"
    run_main(capsys, ["gen", "-n", "3", "-o", str(db)])
    code, stdout, stderr = run_main(capsys, ["stable", game_file, "-d", str(db)])
    assert (code, stdout) == (1, "")
    assert "database has n=3" in stderr


@pytest.mark.parametrize("command", ["analyze", "stable"])
def test_analysis_rejects_restricted_db(command, tmp_path, capsys):
    game = tmp_path / "additive.game"
    game.write_text(ADDITIVE3)
    db = tmp_path / "r.db"
    run_main(capsys, ["gen", "-n", "3", "-o", str(db), "--restrict", "1,2;2,3"])
    code, stdout, stderr = run_main(capsys, [command, str(game), "-d", str(db)])
    assert (code, stdout) == (1, "")
    assert stderr == "error: analysis needs an unrestricted database\n"


def test_analyze_missing_game_file(capsys, tmp_path):
    code, _, stderr = run_main(capsys, ["analyze", str(tmp_path / "none.game")])
    assert code == 1
    assert "cannot read game file" in stderr


def test_analyze_reads_the_game_from_stdin(game_file, capsys, monkeypatch):
    code, from_file, _ = run_main(capsys, ["analyze", game_file, "-c", "core,sve"])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(FOUR_PLAYER))
    code, from_stdin, _ = run_main(capsys, ["analyze", "-", "-c", "core,sve"])
    assert (code, from_stdin) == (0, from_file)


def test_malformed_game_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.game"
    path.write_text('{"n":3,"values":{"1,1":"1"}}')
    code, stdout, stderr = run_main(capsys, ["analyze", str(path)])
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: bad game file: ")


def test_malformed_database_file_exits_one(game_file, tmp_path, capsys):
    db = tmp_path / "mbc4.db"
    db.write_text("MBCDB 1 n=4 count=1\n1:1/1 2:1/1\n")
    code, stdout, stderr = run_main(capsys, ["stable", game_file, "-d", str(db)])
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: cannot load database: ")


def test_seven_players_without_database_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MBC_DB_DIR", raising=False)
    path = tmp_path / "seven.game"
    path.write_text('{"n":7,"values":{"1,2,3,4,5,6,7":"1"}}')
    code, stdout, stderr = run_main(capsys, ["analyze", str(path)])
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: no database given and in-memory generation is capped at n=6\n")


@pytest.mark.parametrize("command", ["analyze", "stable"])
def test_more_than_max_players_is_a_bad_game_file(command, tmp_path, capsys):
    # refused when the file is read, before any database is looked for
    path = tmp_path / "nine.game"
    path.write_text('{"n":9,"values":{"1,2,3,4,5,6,7,8,9":"1"}}')
    db = tmp_path / "mbc3.db"
    run_main(capsys, ["gen", "-n", "3", "-o", str(db)])
    for argv in ([command, str(path)], [command, str(path), "-d", str(db)]):
        code, stdout, stderr = run_main(capsys, argv)
        assert (code, stdout) == (1, "")
        assert stderr == "error: bad game file: n must be in 1..8\n"


def test_stable_defaults_are_the_library_caps():
    args = cli.build_parser().parse_args(["stable", "game.json"])
    caps = stability.StabilityCaps()
    assert (args.max_systems, args.time_limit) == (caps.max_systems, caps.time_limit)


def test_analyze_unbalanced_game_reports_each_check(tmp_path, capsys):
    path = tmp_path / "empty-core.game"
    path.write_text(EMPTY_CORE3)
    code, stdout, _ = run_main(capsys, ["analyze", str(path), "-c", "core,sve,feasible"])
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["core"] == {
        "balanced": False,
        "violated_collection": {"coalitions": ["1,2", "1,3", "2,3"],
                                "weights": ["1/2", "1/2", "1/2"]},
    }
    assert results["sve"] == results["feasible"] == {"error": "game is not balanced"}


def _without_timings(stdout: str) -> tuple[str, list[str]]:
    """The report printed without its timings, and the timing keys."""
    report = json.loads(stdout)
    timings = report.pop("timings")
    return json.dumps(report) + "\n", list(timings)


@pytest.mark.parametrize("argv,keys", [
    (["stable"], ["database", "balancedness", "singleton-exactness",
                  "vital-exactness", "core-describing", "feasibility", "blocking"]),
    (["analyze", "-c", "core,sve,extendable,feasible"],
     ["database", "index", "core", "sve", "extendable", "feasible"]),
])
def test_timings_add_only_a_timings_key(game_file, capsys, argv, keys):
    code, plain, _ = run_main(capsys, [*argv, game_file])
    assert code == 0
    code, timed, _ = run_main(capsys, [*argv, game_file, "--timings"])
    assert code == 0
    assert _without_timings(timed) == (plain, keys)


def test_gen_timings_go_to_stderr(tmp_path, capsys):
    plain, timed = tmp_path / "plain.db", tmp_path / "timed.db"
    code, stdout, stderr = run_main(capsys, ["gen", "-n", "3", "-o", str(plain)])
    assert (code, stdout, stderr) == (0, "n=3 count=6\n", "")
    code, stdout, stderr = run_main(capsys, ["gen", "-n", "3", "-o", str(timed), "--timings"])
    assert (code, stdout) == (0, "n=3 count=6\n")
    assert re.fullmatch(r"elapsed=[0-9]+\.[0-9]{3}s\n", stderr)
    assert timed.read_bytes() == plain.read_bytes()


def test_analyze_env_db_dir(game_file, tmp_path, capsys, monkeypatch):
    db_dir = tmp_path / "dbs"
    db_dir.mkdir()
    run_main(capsys, ["gen", "-n", "4", "-o", str(db_dir / "mbc4.db")])
    monkeypatch.setenv("MBC_DB_DIR", str(db_dir))
    code, stdout, _ = run_main(capsys, ["analyze", game_file, "-c", "core"])
    assert code == 0
    assert json.loads(stdout)["database"]["count"] == 42


def test_analyze_deterministic_bytes(game_file, capsys):
    outputs = []
    for _ in range(2):
        code, stdout, _ = run_main(
            capsys, ["analyze", game_file, "-c", "core,sve,feasible"]
        )
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_stable_four_player_not_stable(game_file, capsys):
    code, stdout, _ = run_main(capsys, ["stable", game_file])
    assert code == 0
    report = json.loads(stdout)
    assert report["verdict"] == "NotStable"
    assert report["stage"] == "blocking"
    assert ["1,3,4", "1,2,3"] not in report["witness"]["all_blocking_pairs"]
    assert sorted(["1,2,3", "1,3,4"]) in [
        sorted(p) for p in report["witness"]["all_blocking_pairs"]
    ]


def test_stable_additive_game(tmp_path, capsys):
    path = tmp_path / "additive.game"
    path.write_text(ADDITIVE3)
    code, stdout, _ = run_main(capsys, ["stable", str(path)])
    assert code == 0
    report = json.loads(stdout)
    assert report["verdict"] == "Stable"


@pytest.mark.parametrize("option,value,caps", [
    ("--time-limit", "nan", {"time_limit": float("nan")}),
    ("--time-limit", "-1", {"time_limit": -1.0}),
    ("--max-systems", "-3", {"max_systems": -3}),
])
def test_stable_rejects_bad_caps(tmp_path, capsys, option, value, caps):
    # a NaN time limit once switched the cap off, and a negative cap gave
    # Unknown on every run; zero caps stay allowed
    with pytest.raises(ValueError, match="must be at least 0"):
        stability.StabilityCaps(**caps)
    stability.StabilityCaps(max_systems=0, time_limit=0.0)
    path = tmp_path / "biswas.game"
    path.write_text(make_biswas().to_text())
    code, stdout, stderr = run_main(capsys, ["stable", str(path), option, value])
    assert code == 1 and stdout == ""
    assert "must be at least 0" in stderr


def test_stable_family_not_core_describing_report_bytes(tmp_path, capsys):
    path = tmp_path / "not-describing.game"
    path.write_text(make_not_core_describing().to_text())
    code, stdout, _ = run_main(capsys, ["stable", str(path)])
    assert code == 0
    assert stdout == (
        '{"game": "087c90d0ddb46f1a", "n": 4, "verdict": "NotStable", '
        '"stage": "core-describing", '
        '"witness": {"family": ["1", "2", "3", "1,3", "1,2,3", "4"]}, '
        '"diagnostics": {"vital_exact_count": 6}}\n')


def test_stable_exit_zero_on_unknown(game_file, tmp_path, capsys):
    # an Unknown verdict is a result, not an operational failure
    path = tmp_path / "biswas.game"
    path.write_text(make_biswas().to_text())
    code, stdout, _ = run_main(
        capsys, ["stable", str(path), "--max-systems", "1"]
    )
    assert code == 0
    assert json.loads(stdout)["verdict"] == "Unknown"


# The Biswas report as printed when this test was written: a change to any
# verdict, witness, counter or to the JSON layout shows here.
BISWAS_STABLE_REPORT = (
    '{"game": "c76bc5636beb2e73", "n": 5, "verdict": "NotStable", '
    '"stage": "nested-balancedness", '
    '"witness": {"collection": ["1,3,4", "1,3,5"], '
    '"system": [{"coalition": "1,3,4", '
    '"collection": {"coalitions": ["1", "2,3", "4", "2,5", "1,3,5"], '
    '"weights": ["1/2", "1/2", "1", "1/2", "1/2"]}}, '
    '{"coalition": "1,3,5", "collection": {"coalitions": ["1", "2,3", '
    '"2,4", "1,3,4", "5"], "weights": ["1/2", "1/2", "1/2", "1/2", '
    '"1"]}}]}, "diagnostics": {"vital_exact_count": 11, '
    '"feasible_count": 300, "surviving_count": 7}}'
    "\n"
)


def test_stable_biswas_report_bytes(tmp_path, capsys):
    path = tmp_path / "biswas.game"
    path.write_text(make_biswas().to_text())
    code, stdout, _ = run_main(capsys, ["stable", str(path)])
    assert code == 0
    assert stdout == BISWAS_STABLE_REPORT


# sha256 of the `analyze` report with every check, as printed when this test
# was written: a change to any result or to the JSON layout shows here.
ANALYZE_ALL_CHECKS = "core,exact,effective,sve,extendable,feasible"
ANALYZE_REPORT_SHA256 = {
    "four": "9d7f662b5da061ebc34ceb6adf41165a099e777f99bd6fbeecf2dd816d57882a",
    "biswas": "149a4d72fb2f5a0bc13838842037fff398cf9cd168b21808194287bdbf4fee87",
}


@pytest.mark.parametrize("fixture", sorted(ANALYZE_REPORT_SHA256))
def test_analyze_report_bytes(fixture, tmp_path, capsys):
    path = tmp_path / f"{fixture}.game"
    path.write_text(FOUR_PLAYER if fixture == "four" else make_biswas().to_text())
    code, stdout, _ = run_main(capsys, ["analyze", str(path), "-c", ANALYZE_ALL_CHECKS])
    assert code == 0
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert digest == ANALYZE_REPORT_SHA256[fixture]


def test_stable_builds_collections_only_for_its_witness(tmp_path, capsys,
                                                        monkeypatch):
    # the nested stage works on database rows: the two collections of the
    # failing system are the only ones built
    path = tmp_path / "biswas.game"
    path.write_text(make_biswas().to_text())
    built = []
    post_init = WeightedCollection.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(WeightedCollection, "__post_init__", counting)
    code, stdout, _ = run_main(capsys, ["stable", str(path)])
    assert code == 0
    system = json.loads(stdout)["witness"]["system"]
    assert [wc.to_payload() for wc in built] == [
        entry["collection"] for entry in system]


def test_console_script_entry_point(tmp_path):
    # the child finds the package under test whether or not it is installed
    src = Path(mbc.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "mbc.cli", "gen", "-n", "2", "-o", "-"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.returncode == 0
    assert result.stdout.startswith("MBCDB 1 n=2")


def test_cli_import_leaves_tempfile_unloaded():
    # only a generation that spills its lines needs a temporary file, so
    # starting `mbc` does not pay for `tempfile` and what it imports; -I -S
    # keeps site hooks, which may import it themselves, out of the child
    src = Path(mbc.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); import mbc.cli; "
         "print('tempfile' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_analyze_does_not_build_every_collection(tmp_path, capsys, monkeypatch,
                                                 db6, sk_game):
    # the scans read the integer rows; building the WeightedCollection view
    # of all 200,214 rows would bring back the time and memory it costs
    db_path = tmp_path / "mbc6.db"
    with open(db_path, "w") as out:
        generate.peleg_stream(6, out)
    # the n = 6 file as the benchmark's gen6 workload records it
    assert hashlib.sha256(db_path.read_bytes()).hexdigest() == (
        "d94dd788e7a979495a80f97c275735d2a1bcc8c5804323cde945b5e4abe2aecc")
    assert MbcDatabase.load(db_path).rows == db6.rows
    game_path = tmp_path / "sk.game"
    game_path.write_text(sk_game.to_text())
    built = []
    post_init = WeightedCollection.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(WeightedCollection, "__post_init__", counting)
    code, stdout, _ = run_main(capsys, [
        "analyze", str(game_path), "-d", str(db_path),
        "-c", "core,exact,effective,sve,extendable,feasible",
    ])
    assert code == 0
    report = json.loads(stdout)
    assert report["database"]["count"] == 200214
    assert len(report["results"]["sve"]["coalitions"]) == 13
    assert len(built) < 1000


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--he"], ["bogus"], ["sta"], ["-x", "stable"],
    ["gen", "--help"], ["analyze", "-h"], ["stable", "--help"], ["stable", "-h", "g.json"],
    ["gen"], ["gen", "-n", "3"], ["gen", "-n", "x", "-o", "-"], ["analyze"], ["stable"],
    ["gen", "-n", "3", "-o", "-", "--restrict", "1,2;2,3", "--allow-long", "--timings"],
    ["analyze", "g.json", "-d", "x.db", "-c", "core", "--timings"],
    ["stable", "g.json", "--max-systems", "x"], ["stable", "g.json", "--max-systems"],
    ["stable", "g.json", "--max-systems", "5", "--time-limit", "1.5", "--timings"],
    ["stable", "g.json", "--time-limit", "abc"], ["stable", "g.json", "--bogus"],
    ["stable", "g.json", "extra"], ["--", "stable", "g.json"], ["stable", "--", "g.json"],
])
def test_parse_builds_one_subcommand_as_the_whole_parser_parses(capsys, argv):
    # the same arguments, help, usage errors and exit codes as
    # `build_parser()`, which builds every subcommand's parser
    def outcome(parse):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        return result, *capsys.readouterr()

    assert outcome(cli._parse) == outcome(cli.build_parser().parse_args)
