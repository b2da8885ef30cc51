"""The library ships only what callers use.

Every public module-level function and class of `src/mbc` must be referenced
in `src/mbc` outside its own definition (in its module or another one),
exported by `mbc/__init__.py`, or imported by `tests/test_acceptance.py`.
Every public method of a public class must appear as an attribute use in
`src/mbc` outside its own body, or in `tests/test_acceptance.py`.  A name
that only tests call belongs in `tests/oracles.py`, or nowhere.  The
analysis modules `props` and `stability` compute in integers, at the
game's integer form, and import nothing from `fractions`."""

import ast
from collections import Counter
from pathlib import Path

import mbc

SRC = Path(mbc.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _names(nodes) -> set[str]:
    """Every name, attribute and imported name used inside the nodes."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def test_every_public_definition_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text()).body
               for path in sorted(SRC.glob("*.py"))}
    exported = _names(modules.pop("__init__"))
    accepted = _names([ast.parse(ACCEPTANCE.read_text())])
    statements = [node for body in modules.values() for node in body]
    used = {id(node): _names([node]) for node in statements}
    # in how many top-level statements of src/mbc each name appears
    statements_using = Counter(name for names in used.values() for name in names)
    unused = []
    for stem, body in modules.items():
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                elsewhere = statements_using[node.name] - (node.name in used[id(node)])
                if not elsewhere and node.name not in exported | accepted:
                    unused.append(f"{stem}.{node.name}")
    assert unused == []


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_method_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    used = sum((_attributes(tree) for tree in modules.values()), Counter())
    accepted = _attributes(ast.parse(ACCEPTANCE.read_text()))
    unused = []
    for stem, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and used[node.name] == _attributes(node)[node.name]
                        and node.name not in accepted):
                    unused.append(f"{stem}.{cls.name}.{node.name}")
    assert unused == []


def test_analysis_modules_do_not_import_fractions():
    # props and stability work at the game's integer scale; a Fraction
    # there means a second numeric form of the same game
    importers = []
    for stem in ("props", "stability"):
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.append(stem)
    assert importers == []
