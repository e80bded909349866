"""Import hygiene of the package, read from the source with :mod:`ast`: no
module keeps an import it does not use, and the Gauss-code layer,
``diagram.py``, stands on no other vknotoid module but the input reader,
``_reader.py``, which stands on none."""

import ast
from pathlib import Path

import vknotoid

PACKAGE = Path(vknotoid.__file__).parent

# Imported to be read from outside: ``bracket._PLANS`` is the plan cache
# that the benchmark's reset and the plan-cache tests clear.
RE_EXPORTS = {("bracket.py", "_PLANS")}


def modules():
    """Every module of the package but its ``__init__``, which re-exports
    the public names, as (path relative to the package, parsed tree)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path != PACKAGE / "__init__.py":
            yield (path.relative_to(PACKAGE).as_posix(),
                   ast.parse(path.read_text(encoding="utf-8")))


def imported_names(tree):
    """The names that the module's import statements bind, but for
    ``from __future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    trees = dict(modules())
    assert set(trees) >= {"biquandle.py", "bracket.py", "cli.py", "coloring.py",
                          "diagram.py", "ring.py", "search.py",
                          "data/__init__.py"}
    unused = []
    for name, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, imp) for imp in imported_names(tree) if imp not in used]
    # each re-export is still imported, so no stale exception hides a name
    assert sorted(unused) == sorted(RE_EXPORTS)


def test_diagram_imports_no_other_vknotoid_module():
    trees = dict(modules())
    for name, allowed in (("diagram.py", {"_reader"}), ("_reader.py", set())):
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and \
                    not (node.module or "").startswith("vknotoid") \
                    or node.level == 1 and node.module in allowed, node.module
            elif isinstance(node, ast.Import):
                assert not any(alias.name.split(".")[0] == "vknotoid"
                               for alias in node.names)
