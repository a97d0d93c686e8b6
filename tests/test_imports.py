"""Import hygiene: no module of the package, the tests or the benchmark
imports a name it never uses, no private helper of the package is left
without a reader, no public name or method beyond a shrinking list is read
by tests alone, and importing chaoslim loads no heavy scipy subpackage."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that ``source`` never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module, or is listed in ``__all__``; ``__future__`` imports and import
    statements with a ``noqa`` comment are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_unused_imports():
    files = sorted([*(ROOT / "src" / "chaoslim").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                    *(ROOT / "bench").glob("*.py")])
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function, class and variable that ``source``
    defines at module level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def methods(source: str) -> list[tuple[int, str]]:
    """(line, "Class.name") of every method, property and classmethod that a
    module-level class of ``source`` defines."""
    return [(item.lineno, f"{node.name}.{item.name}")
            for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)]


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level ``_name`` that ``source`` defines."""
    return [(line, name) for line, name in definitions(source)
            if name.startswith("_") and not name.startswith("__")]


def attribute_references(source: str) -> set[str]:
    """Every name ``source`` reads as an attribute ``x.name`` or names in a
    string constant (for lookups by name): the ways a method is read.  A bare
    identifier is left out, so a local variable does not hide a method of the
    same name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def references(source: str) -> set[str]:
    """Every name ``source`` reads: identifiers and imported names, besides
    its ``attribute_references``."""
    names = attribute_references(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_private_definitions_are_found():
    source = "_A = 1\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    _x = 2\n"
    assert private_definitions(source) == [(1, "_A"), (3, "_f"), (5, "_C")]
    assert {"_A"} <= references(source) and "_f" not in references(source)


def test_attribute_references_skip_bare_names():
    source = "sites = k.entries\nn = len(sites) + f.n\ngetattr(f, 'lo')\n"
    assert attribute_references(source) == {"entries", "n", "lo"}
    assert "sites" in references(source) and "sites" not in attribute_references(source)


def test_methods_are_found():
    source = "class C:\n    x = 1\n    @property\n    def p(self):\n        return 1\n" \
             "    def _q(self):\n        pass\ndef f():\n    pass\n"
    assert methods(source) == [(4, "C.p"), (6, "C._q")]


def test_no_orphaned_private_names():
    package = sorted((ROOT / "src" / "chaoslim").glob("*.py"))
    readers = sorted({*package, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")})
    read = set().union(*(references(path.read_text(encoding="utf-8")) for path in readers))
    orphans = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path in package
               for line, name in private_definitions(path.read_text(encoding="utf-8"))
               if name not in read]
    assert not orphans, "private names nothing reads:\n" + "\n".join(orphans)


# Public names and methods that only tests other than the acceptance tests
# read.  Each must come to feed a study, move into tests/ as an oracle, or be
# deleted, and then leave this list: the list only shrinks.  A module-level
# name counts as read when its bare name is read anywhere; a method only when
# it is read as an attribute ``x.name`` or named in a string, so a name shared
# with another attribute still hides it.
TEST_ONLY_PUBLIC_NAMES = frozenset({
    "harness.pinning_alpha_reference",
})


def test_public_names_have_readers_outside_tests():
    package = sorted((ROOT / "src" / "chaoslim").glob("*.py"))
    readers = [*package, *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    sources = [path.read_text(encoding="utf-8") for path in readers]
    read = set().union(*map(references, sources))
    read_as_attribute = set().union(*map(attribute_references, sources))
    unread = set()
    for path in package:
        source = path.read_text(encoding="utf-8")
        for names, seen in ((definitions(source), read), (methods(source), read_as_attribute)):
            for _, name in names:
                short = name.rpartition(".")[2]
                if not short.startswith("_") and short not in seen:
                    unread.add(f"{path.stem}.{name}")
    assert not unread - TEST_ONLY_PUBLIC_NAMES, (
        "public names and methods no module, benchmark or acceptance test reads: "
        f"{sorted(unread - TEST_ONLY_PUBLIC_NAMES)}")
    assert not TEST_ONLY_PUBLIC_NAMES - unread, (
        "listed names that now have a reader or are gone; drop them from the list: "
        f"{sorted(TEST_ONLY_PUBLIC_NAMES - unread)}")


def test_import_loads_no_heavy_scipy_subpackage():
    # each of these costs set-up time on every run; chaoslim imports them lazily, if at all
    heavy = ("scipy.signal", "scipy.interpolate", "scipy.integrate", "scipy.stats")
    probe = ("import sys, chaoslim, chaoslim.cli; "
             f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    assert result.stdout.split() == []
