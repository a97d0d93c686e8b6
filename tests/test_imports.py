"""Import hygiene: no module of the package, the tests or the benchmark
imports a name it never uses, no private helper of the package is left
without a reader, no public name, method or field beyond a shrinking list is
read by tests alone, no defaulted parameter beyond another is set by tests
alone, no frozen dataclass sets state it does not declare, no module of the
package reads a private name of another beyond a shrinking list, a study of
any model loads no scipy module, and neither importing the package nor
sampling pinning builds a worker pool."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from chaoslim import harness

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


def undeclared_frozen_state(source: str) -> list[tuple[int, str]]:
    """(line, "Class.name") of every ``object.__setattr__(self, "name", ...)``
    in a ``@dataclass(frozen=True)`` class of ``source`` that sets a name the
    class does not declare as a field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                and any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                        for kw in d.keywords)
                for d in node.decorator_list)):
            continue
        fields = {item.target.id for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__setattr__"
                    and getattr(call.func.value, "id", None) == "object"
                    and len(call.args) > 1 and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value not in fields):
                found.append((call.lineno, f"{node.name}.{call.args[1].value}"))
    return found


def test_undeclared_frozen_state_is_found():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "        object.__setattr__(self, '_c', {})\n"
              "@dataclass\nclass B:\n    def f(self):\n        object.__setattr__(self, '_d', 0)\n")
    assert undeclared_frozen_state(source) == [(6, "A._c")]


def test_frozen_dataclasses_declare_their_state():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "chaoslim").glob("*.py"))
             for line, name in undeclared_frozen_state(path.read_text(encoding="utf-8"))]
    assert not found, "frozen dataclasses setting undeclared state:\n" + "\n".join(found)


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
    """(line, "Class.name") of every method, property, classmethod and
    annotated field that a module-level class of ``source`` defines."""
    found = []
    for node in ast.parse(source).body:
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef):
                found.append((item.lineno, f"{node.name}.{item.name}"))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.append((item.lineno, f"{node.name}.{item.target.id}"))
    return found


def defaulted_parameters(source: str) -> list[tuple[str, list[str], dict]]:
    """(name, positional parameters, {parameter: default}) of every public
    function and public method of a public class that ``source`` defines at
    module level with a defaulted parameter.  A method's positional
    parameters leave out ``self`` or ``cls``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for name, fn in functions:
            if any(part.startswith("_") for part in name.split(".")):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):],
                                args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                            if d is not None)
            if "." in name and positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            if defaults:
                found.append((name, positional, defaults))
    return found


def calls(source: str) -> dict[str, list[ast.Call]]:
    """Every call in ``source``, by the name it calls: ``f`` of ``f(...)``
    and of ``x.f(...)``."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            found.setdefault(name, []).append(node)
    return found


def passes(call: ast.Call, positional: list[str], param: str, default: ast.expr) -> bool:
    """Whether ``call`` gives ``param`` an expression other than ``default``,
    by keyword or by position; unpacked ``*args`` or ``**kwargs`` may."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    given = dict(zip(positional, call.args))
    given.update((kw.arg, kw.value) for kw in call.keywords)
    if None in given:
        return True
    return param in given and ast.dump(given[param]) != ast.dump(default)


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
    source = "class C:\n    x = 1\n    y: int = 2\n    @property\n    def p(self):\n" \
             "        return 1\n    def _q(self):\n        pass\ndef f():\n    pass\n"
    assert methods(source) == [(3, "C.y"), (5, "C.p"), (7, "C._q")]


def test_unpassed_parameters_are_found():
    source = "def f(a, b=1, *, c=-1):\n    pass\nclass C:\n    def m(self, d=None):\n" \
             "        pass\n    def _n(self, e=0):\n        pass\ndef _g(f=2):\n    pass\n"
    found = defaulted_parameters(source)
    assert [(name, positional, sorted(d)) for name, positional, d in found] == [
        ("f", ["a", "b"], ["b", "c"]), ("C.m", ["d"], ["d"])]
    (_, f_pos, f_defaults), (_, m_pos, m_defaults) = found
    f_calls = calls("f(0, 1, c=-1)\nf(0, x)\nf(*a)\n")["f"]
    m_calls = calls("obj.m(d=None)\nobj.m(**kw)\n")["m"]
    assert [passes(c, f_pos, "b", f_defaults["b"]) for c in f_calls] == [False, True, True]
    assert [passes(c, f_pos, "c", f_defaults["c"]) for c in f_calls] == [False, False, True]
    assert [passes(c, m_pos, "d", m_defaults["d"]) for c in m_calls] == [False, True]


def test_no_orphaned_private_names():
    package = sorted((ROOT / "src" / "chaoslim").glob("*.py"))
    readers = sorted({*package, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")})
    read = set().union(*(references(path.read_text(encoding="utf-8")) for path in readers))
    orphans = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path in package
               for line, name in private_definitions(path.read_text(encoding="utf-8"))
               if name not in read]
    assert not orphans, "private names nothing reads:\n" + "\n".join(orphans)


# Public names, methods and fields that only tests read.  Each must come to
# feed a study, move into tests/ as an oracle, or be deleted, and then leave
# this list: the list only shrinks.  A module-level name counts as read when its bare name is read anywhere; a
# method or an annotated class field only when it is read as an attribute
# ``x.name`` or named in a string, so a name shared with another attribute
# still hides it.
TEST_ONLY_PUBLIC_NAMES = frozenset({
    "pinning.pinning_alpha_reference",
})


def test_public_names_have_readers_outside_tests():
    package = sorted((ROOT / "src" / "chaoslim").glob("*.py"))
    readers = [*package, *(ROOT / "bench").glob("*.py")]
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
        "public names and methods no module or benchmark reads: "
        f"{sorted(unread - TEST_ONLY_PUBLIC_NAMES)}")
    assert not TEST_ONLY_PUBLIC_NAMES - unread, (
        "listed names that now have a reader or are gone; drop them from the list: "
        f"{sorted(TEST_ONLY_PUBLIC_NAMES - unread)}")


# Defaulted parameters of public functions and methods that no call in the
# package or the benchmark sets to anything but their default.  Each is a test oracle's switch or waits on a ROADMAP item; the
# list only shrinks.  A call counts by the name it calls, so a function that
# shares its name with another is seen through that one's calls too.
TEST_ONLY_PARAMETERS = frozenset({
    "pinning.pinning_alpha_reference.cells",
    "pinning.pinning_alpha_reference.n_samples",
    "pinning.pinning_alpha_reference.seed",
})


def test_defaulted_parameters_are_set_outside_tests():
    package = sorted((ROOT / "src" / "chaoslim").glob("*.py"))
    readers = [*package, *(ROOT / "bench").glob("*.py")]
    by_name = {}
    for path in readers:
        for name, found in calls(path.read_text(encoding="utf-8")).items():
            by_name.setdefault(name, []).extend(found)
    unset = {f"{path.stem}.{name}.{param}"
             for path in package
             for name, positional, defaults in defaulted_parameters(
                 path.read_text(encoding="utf-8"))
             for param, default in defaults.items()
             if not any(passes(call, positional, param, default)
                        for call in by_name.get(name.rpartition(".")[2], ()))}
    assert not unset - TEST_ONLY_PARAMETERS, (
        "defaulted parameters no module or benchmark sets: "
        f"{sorted(unset - TEST_ONLY_PARAMETERS)}")
    assert not TEST_ONLY_PARAMETERS - unset, (
        "listed parameters that are now set or gone; drop them from the list: "
        f"{sorted(TEST_ONLY_PARAMETERS - unset)}")


def private_reads(source: str) -> set[str]:
    """Every ``module._name`` that ``source`` reads from a module of the
    package: as an attribute of a module it imports by ``from . import
    module``, or by ``from .module import _name``; absolute imports from
    ``chaoslim`` count the same."""
    modules, found = {}, set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").partition(".")[0] == "chaoslim":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if module is None:
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_") and not alias.name.startswith("__"):
                found.add(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_private_reads_are_found():
    source = ("from . import pinning, ising as spins\nfrom .polymer import _a, b\n"
              "from chaoslim.dists import _c\nfrom numpy import _d\n"
              "pinning._e(spins._F, pinning.__name__, pinning.g, np._h)\n")
    assert private_reads(source) == {"polymer._a", "dists._c", "pinning._e", "ising._F"}


# Private names that one module of the package reads from another, as
# "reader:module._name".  Each is a decision that two modules share, kept
# where review can see it: a new read fails the test until it is listed,
# and a listed read that is gone fails it until it leaves; the list only
# shrinks.
CROSS_MODULE_PRIVATE_READS = frozenset({
    "polymer:pinning._chaos_second_moment",
    "polymer:pinning._check_cap",
})


def test_cross_module_private_reads_are_listed():
    found = {f"{path.stem}:{name}"
             for path in sorted((ROOT / "src" / "chaoslim").glob("*.py"))
             for name in private_reads(path.read_text(encoding="utf-8"))
             if name.partition(".")[0] != path.stem}
    assert not found - CROSS_MODULE_PRIVATE_READS, (
        "private names read from another module; make them public, or list them: "
        f"{sorted(found - CROSS_MODULE_PRIVATE_READS)}")
    assert not CROSS_MODULE_PRIVATE_READS - found, (
        "listed private reads that are gone; drop them from the list: "
        f"{sorted(CROSS_MODULE_PRIVATE_READS - found)}")


def test_import_loads_no_heavy_scipy_subpackage():
    # each of these costs set-up time on every run; chaoslim imports none of them
    heavy = ("scipy.signal", "scipy.interpolate", "scipy.integrate", "scipy.stats",
             "scipy.special")
    probe = ("import sys, chaoslim, chaoslim.cli; "
             f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    assert result.stdout.split() == []


def test_import_loads_no_worker_pool_module():
    # the polymer draw pool imports concurrent.futures (13 ms) when first built
    probe = ("import sys, chaoslim, chaoslim.cli; "
             "print(*(m for m in sys.modules if m.startswith('concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    assert result.stdout.split() == []


def test_pinning_sampler_loads_no_worker_pool_module():
    # the pinning sampler draws each block on its own thread; only the
    # polymer sampler builds the pool.  N = 300 reads five blocks
    probe = ("import sys; from chaoslim import pinning; "
             "law = pinning.RenewalLaw.from_probabilities([0.5, 0.5]); "
             "pinning.sample_pinning(law, 1.0, 0.0, 300, 30, 1); "
             "print(*(m for m in sys.modules if m.startswith('concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    assert result.stdout.split() == []


def test_heavy_tail_law_loads_no_scipy_special():
    # the alpha law's set-up sums its Hurwitz zeta itself
    probe = ("import sys; from chaoslim.pinning import RenewalLaw; "
             "RenewalLaw.heavy_tail(0.75, 20000); print('scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    assert result.stdout.split() == ["False"]


# a small study of each model; the finite-mean pinning one has samples, so
# that its lognormal KS row runs
SMALL_STUDIES = (
    ("pinning", {"law": "alpha", "alpha": 0.75}, [50, 100], 0),
    ("pinning", {"law": "finite_mean", "probs": [0.5, 0.5]}, [50, 100], 100),
    ("polymer", {"alpha": 1.5, "beta_hat": 0.5, "mass_tol": 0.5}, [20], 4),
    ("ising", {"lam_hat": 1.0, "h_hat": 0.5}, [0.5], 20),
    ("wiener", {"diagnostic": "cameron_martin", "rho": 0.8, "lam_hat": 1.0, "h_hat": 0.5},
     [8], 50),
    ("lindeberg", {}, [16], 100),
    ("tilt", {"values": [-1.0, 1.0], "probs": [0.499, 0.501]}, [], 0),
)


def test_studies_load_no_scipy():
    # chaoslim sums its own Gamma functions, zeta and normal cdf: scipy is a test oracle only
    assert {model for model, *_ in SMALL_STUDIES} == set(harness._STUDIES)
    probe = ("import json, sys\n"
             "import chaoslim.cli\n"
             "from chaoslim.harness import ExperimentConfig, run_convergence_study\n"
             "rows = [row.quantity for study in json.loads(sys.argv[1])\n"
             "        for row in run_convergence_study(ExperimentConfig(*study, 0)).rows]\n"
             "print(rows.count('ks_lognormal'), *(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(SMALL_STUDIES)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2"]
