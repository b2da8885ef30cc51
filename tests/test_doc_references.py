"""Every name the documentation points at exists.

A reference is a backquoted `module.name` or `mbc.module.name` (call
arguments after the name allowed) for one of the library modules below, in
README.md or in a docstring of `src/mbc`.  Any other `mbc.name`, backquoted
or in a code block, must be a module or an attribute of the package, which
exports the names of the README's examples.  A renamed or deleted function
leaves such references behind; this test names each one.  A backquoted
bare name ending in `Error` must be a builtin exception or an attribute of
one of those modules, so a deleted exception type is caught without its
module prefix.  ROADMAP.md and CHANGES.md are left out: they name benchmark
metrics and earlier code.  Every `mbc …` line of the README's CLI block
must parse with the CLI's own parser, so a renamed or dropped flag fails
here too."""

import ast
import builtins
import importlib
import re
import shlex
from pathlib import Path

import pytest

import mbc
from mbc import cli

SRC = Path(mbc.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
MODULES = ("generate", "props", "stability", "linalg", "polytope", "model", "cli")
REFERENCE = re.compile(rf"`(?:mbc\.)?({'|'.join(MODULES)})((?:\.\w+)+)")
PACKAGE_NAME = re.compile(r"\bmbc\.(\w+)")
ERROR_NAME = re.compile(r"`(\w+Error)\b")


def _docstrings(path: Path) -> str:
    tree = ast.parse(path.read_text())
    nodes = [node for node in ast.walk(tree) if isinstance(
        node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return "\n".join(filter(None, map(ast.get_docstring, nodes)))


def _unresolved(text: str) -> list[str]:
    missing = []
    for match in REFERENCE.finditer(text):
        target = importlib.import_module(f"mbc.{match[1]}")
        for attr in match[2].split(".")[1:]:
            if not hasattr(target, attr):
                missing.append(match[0].lstrip("`"))
                break
            target = getattr(target, attr)
    missing += [match[0] for match in PACKAGE_NAME.finditer(text)
                if match[1] not in MODULES and not hasattr(mbc, match[1])]
    return missing


def _unknown_errors(text: str) -> list[str]:
    modules = [importlib.import_module(f"mbc.{name}") for name in MODULES]
    return [name for name in ERROR_NAME.findall(text)
            if not hasattr(builtins, name)
            and not any(hasattr(module, name) for module in modules)]


def test_reference_pattern():
    text = ("`linalg.vertex_clause`, `mbc.model.LineCodec`, "
            "`polytope.LinearSystem(n, grand, rows)`, `generate.MbcDatabase.load`, "
            "`linalg.no_such_name`, `mbc.generate.MbcDatabase.no_such_method`, "
            "`perfbench.run`")
    assert [m[0] for m in REFERENCE.finditer(text)][:4] == [
        "`linalg.vertex_clause", "`mbc.model.LineCodec",
        "`polytope.LinearSystem", "`generate.MbcDatabase.load"]
    assert _unresolved(text) == [
        "linalg.no_such_name", "mbc.generate.MbcDatabase.no_such_method"]
    package = ("`mbc.check_minimal_balanced`, `mbc.is_balanced_collection(masks, db)`, "
               "db = mbc.peleg(4), `mbc.props`, `mbc.no_such_name`, mbc.nosuch(1)")
    assert _unresolved(package) == ["mbc.no_such_name", "mbc.nosuch"]
    errors = ("`ValueError`, `UnbalancedGameError`, `GameFormatError`, "
              "`NoSuchError` and `polytope.NoSuchError(...)`")
    assert ERROR_NAME.findall(errors) == [
        "ValueError", "UnbalancedGameError", "GameFormatError", "NoSuchError"]
    assert _unknown_errors(errors) == ["NoSuchError"]


@pytest.mark.parametrize("name", ["README.md"] + sorted(
    path.name for path in SRC.glob("*.py")))
def test_doc_references_resolve(name):
    text = README.read_text() if name == "README.md" else _docstrings(SRC / name)
    assert _unresolved(text) == []
    assert _unknown_errors(text) == []


def _readme_cli_lines() -> list[str]:
    """The `mbc …` lines of the first sh block after the README's CLI
    heading."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mbc ")]


def test_readme_cli_block_has_commands():
    assert len(_readme_cli_lines()) >= 6


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    try:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit:
        pytest.fail(f"the README's CLI line does not parse: {line}")
