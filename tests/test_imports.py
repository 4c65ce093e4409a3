"""Every name a ``veiler`` module imports is used in that module, and every
private name a module defines is used somewhere in the package; importing
the CLI loads no introspection machinery; the search oracle imports
nothing of the construction it is meant to check; and the inline Python of
the CI workflow compiles and imports only names that exist.

No linter ships with the project, so this is its unused-import and
dead-code check.  A name counts as used when a module reads it anywhere,
annotations included, or lists it in ``__all__``.  A private definition is
a module-level function, class or assignment whose name starts with a
single underscore; it is used when its own module reads it, or another
module imports it from that module or reads it as an attribute of it.
"""
from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "veiler").glob("*.py"))
WORKFLOW = SRC.parent / ".github" / "workflows" / "tier1.yml"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _package_module(node: ast.ImportFrom) -> str | None:
    """The ``veiler`` module an import reads from, by its name in the
    package, "" for the package itself; None for a module outside it."""
    if node.level:
        return node.module or ""
    if node.module == "veiler":
        return ""
    if node.module and node.module.startswith("veiler."):
        return node.module[len("veiler."):]
    return None


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Each private definition of ``sources`` (file name -> text) that no
    module uses.  Definitions are keyed by module: one is used when its own
    module reads it, or when another module imports it from that module or
    reads it as an attribute of that module."""
    defined = {}
    used = set()
    for file, source in sources.items():
        module = file.removesuffix(".py")
        tree = ast.parse(source)
        for name, line in _private_definitions(tree).items():
            defined[module, name] = f"{file} line {line}: {name}"
        modules = {}  # the names this module binds to package modules
        attributes = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                attributes.append((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom):
                home = _package_module(node)
                for alias in node.names if home is not None else ():
                    if home:
                        used.add((home, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        used.update((modules[owner], attr) for owner, attr in attributes if owner in modules)
    return sorted(where for key, where in defined.items() if key not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Sequence, Mapping\n"
        "from .fsm import Automaton\n"
        "__all__ = ['Automaton']\n"
        "def f(x: Mapping) -> None:\n"
        "    os.getcwd()\n"
    )
    assert _unused_imports(source) == ["line 2: system", "line 3: Sequence"]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _dead_private_names(sources) == []


def test_the_check_sees_dead_and_live_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 6\n"
            "_unused = 1\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    pass\n"
            "class _Kernel:\n"
            "    pass\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _helper\n"
            "def f():\n"
            "    return _helper(), a._Kernel\n"
        ),
    }
    assert _dead_private_names(sources) == [
        "a.py line 2: _unused", "a.py line 5: _orphan",
    ]
    # A name defined in two modules is used in each only as that module
    # reads it, or as another imports it from or reads it off that module.
    shadowed = {
        "x.py": "_union = 1\n_shared = 2\n_drawn = 3\n",
        "y.py": (
            "def _union():\n"
            "    pass\n"
            "def _shared():\n"
            "    return _union()\n"
            "_drawn = 4\n"
        ),
        "z.py": (
            "from veiler import x\n"
            "from .x import _shared\n"
            "def g():\n"
            "    return _shared, x._drawn\n"
        ),
    }
    assert _dead_private_names(shadowed) == [
        "x.py line 1: _union", "y.py line 3: _shared", "y.py line 5: _drawn",
    ]


def _loaded_by_importing_the_cli(modules: tuple[str, ...]) -> list[str]:
    """Those of ``modules`` that importing the CLI in a fresh interpreter loads."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import veiler, veiler.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(SRC), *modules],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout.split()


def test_importing_the_cli_loads_no_introspection_machinery():
    # dataclasses pulls in inspect, dis, ast and tokenize: most of the time
    # an isolated interpreter spends importing the CLI before they left.
    assert _loaded_by_importing_the_cli(("dataclasses", "inspect")) == []


def test_importing_the_cli_loads_no_json():
    # The report encodes strings with the C function json uses; the json
    # package itself costs every CLI start some 3 ms.
    assert _loaded_by_importing_the_cli(("json", "json.encoder")) == []


# What the search oracle may not import: a mistake it shared with the
# construction would pass the construction-versus-oracle checks.
_NOTHING_FROM = {"veiler.insertion", "veiler.report", "veiler.dot", "veiler.observer"}
_ONLY_FROM = {"veiler.constrained": {"InsertionConstraints"}}
_NOT_FROM = {"veiler.fsm": {"_tarjan", "strongly_connected_components"}}


def _forbidden_to_the_oracle(module: str, name: str | None) -> bool:
    """Whether the oracle may not import ``name`` from ``module``; a name of
    None is the module itself, which gives access to all of its names."""
    if module in _NOTHING_FROM:
        return True
    if name is None:
        return module in _ONLY_FROM or module in _NOT_FROM
    if module in _ONLY_FROM:
        return name not in _ONLY_FROM[module]
    return name in _NOT_FROM.get(module, ())


def _shared_with_the_construction(source: str) -> list[str]:
    """The imports of a ``veiler`` module that the oracle may not make."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("veiler" if node.level else "", node.module)))
            for alias in node.names:
                if module == "veiler":
                    imported.append((f"veiler.{alias.name}", None))
                else:
                    imported.append((module, alias.name))
    return [
        module if name is None else f"{module}.{name}"
        for module, name in imported
        if _forbidden_to_the_oracle(module, name)
    ]


def test_the_oracle_imports_nothing_from_the_construction():
    source = (SRC / "veiler" / "oracle.py").read_text(encoding="utf-8")
    assert _shared_with_the_construction(source) == []


def test_the_independence_check_sees_shared_imports():
    source = (
        "from __future__ import annotations\n"
        "import random\n"
        "import veiler.dot\n"
        "from . import fsm, observer, textio\n"
        "from .constrained import InsertionConstraints, base_of\n"
        "from .fsm import Automaton, _tarjan, strongly_connected_components\n"
        "from veiler.insertion import IndicatorState\n"
        "from .report import _base\n"
    )
    assert _shared_with_the_construction(source) == [
        "veiler.dot",
        "veiler.fsm",
        "veiler.observer",
        "veiler.constrained.base_of",
        "veiler.fsm._tarjan",
        "veiler.fsm.strongly_connected_components",
        "veiler.insertion.IndicatorState",
        "veiler.report._base",
    ]


def _inline_scripts(workflow: str) -> list[tuple[int, str]]:
    """Each ``python - <<'EOF'`` block of ``workflow`` as (the line number of
    its heredoc, its dedented source): the lines up to the one that holds
    only ``EOF``.  Read as text, since no YAML parser ships with the project."""
    lines = workflow.splitlines()
    scripts = []
    for i, line in enumerate(lines):
        if re.search(r"\bpython - .*<<'EOF'$", line):
            end = next(j for j in range(i + 1, len(lines)) if lines[j].strip() == "EOF")
            scripts.append((i + 1, textwrap.dedent("\n".join(lines[i + 1 : end]))))
    return scripts


def _unresolved_imports(source: str, filename: str) -> list[str]:
    """Compile ``source``, and give each ``from X import name`` of it whose
    module does not import or has no such name, as ``X.name``."""
    compile(source, filename, "exec")
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError:
            missing += [f"{node.module}.{alias.name}" for alias in node.names]
            continue
        missing += [
            f"{node.module}.{alias.name}" for alias in node.names if not hasattr(module, alias.name)
        ]
    return missing


def test_every_inline_script_of_the_workflow_compiles_and_imports(monkeypatch):
    # The steps put tests/ on sys.path before importing from the tests.
    monkeypatch.syspath_prepend(str(SRC.parent / "tests"))
    workflow = WORKFLOW.read_text(encoding="utf-8")
    scripts = _inline_scripts(workflow)
    assert len(scripts) == workflow.count("<<'EOF'") > 0
    for line, source in scripts:
        assert _unresolved_imports(source, f"tier1.yml line {line}") == [], line


def test_the_workflow_check_sees_broken_scripts():
    workflow = (
        "      - name: one\n"
        "        run: |\n"
        "          PYTHONPATH=src python - \"$name\" <<'EOF'\n"
        "          from veiler.fsm import Automaton, NoSuchName\n"
        "          from veiler.nowhere import anything\n"
        "\n"
        "          Automaton\n"
        "          EOF\n"
        "          echo done\n"
        "          python - <<'EOF'\n"
        "          return\n"
        "            EOF\n"
    )
    (first, one), (second, two) = _inline_scripts(workflow)
    assert (first, second) == (3, 10)
    assert one == (
        "from veiler.fsm import Automaton, NoSuchName\nfrom veiler.nowhere import anything\n\n"
        "Automaton"
    )
    assert _unresolved_imports(one, "one") == ["veiler.fsm.NoSuchName", "veiler.nowhere.anything"]
    with pytest.raises(SyntaxError):
        _unresolved_imports(two, "two")
