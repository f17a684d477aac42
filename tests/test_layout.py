"""Module boundaries of the package: no fdnet module reaches into another
module's private (`_`-prefixed) names, either by importing them or through
an imported module object, and every fdnet import sits at module level, so
each module's dependencies show in its header.  Every name the package
re-exports has a caller in the program, the benchmark or the acceptance
suite.  Only `parallel` imports a process-pool module, and only `errors`
states the count, list, array-size and rate rules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fdnet"
SOURCES = sorted(PACKAGE.glob("*.py"))
# where a re-exported name must be used: the package's own modules, the
# benchmark and the acceptance suite (the other tests do not count), keyed
# by their path under the repository root
CALLERS = {
    str(p.relative_to(ROOT)): p
    for p in (
        *(p for p in SOURCES if p.name != "__init__.py"),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    )
}


def _is_fdnet(module: str | None, level: int) -> bool:
    # relative imports stay inside the package; absolute ones name it
    return level > 0 or module == "fdnet" or (module or "").startswith("fdnet.")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(tree: ast.Module) -> list:
    """(line, text) of every private fdnet name this module takes from another."""
    found, module_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_fdnet(node.module, node.level):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, ast.unparse(node)))
                else:
                    # the name may be a module (`from . import dataio`); see below
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_fdnet(alias.name, 0):
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in module_aliases:
                found.append((node.lineno, ast.unparse(node)))
    return found


def function_imports(tree: ast.Module) -> list:
    """(line, text) of every fdnet import made inside a function body."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.ImportFrom) and _is_fdnet(node.module, node.level)) or (
                isinstance(node, ast.Import) and any(_is_fdnet(a.name, 0) for a in node.names)
            ):
                found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


def unreferenced_exports(init: ast.Module, callers: dict) -> list:
    """Names `init` re-exports from package modules that no caller tree
    mentions as a name, an attribute or an imported name.  `callers` maps
    a path under the repository root to its tree.  Mentions inside the
    exporting module do not count; string constants in the benchmark do,
    since its tracer hooks functions by name."""
    exported = [
        (alias.asname or alias.name, f"src/fdnet/{node.module}.py")
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    used = {}
    for path, tree in callers.items():
        names = used[path] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
            elif path.startswith("perfbench/") and isinstance(node, ast.Constant):
                names.add(node.value)
    return [
        name
        for name, home in exported
        if not any(name in names for path, names in used.items() if path != home)
    ]


POOL_MODULES = ("multiprocessing", "concurrent")


def pool_imports(tree: ast.Module) -> list:
    """(line, text) of every import of a process-pool module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in POOL_MODULES for name in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_sources_found():
    assert {"network.py", "training.py", "evaluation.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    uses = private_uses(ast.parse(path.read_text(), filename=str(path)))
    assert uses == [], f"{path.name} uses private names of other modules: {uses}"


@pytest.mark.parametrize(
    "source",
    [
        "from .network import _forward_pass",
        "from fdnet.network import forward, _gradient_pass as g",
        "from . import network\nnetwork._forward_pass",
        "import fdnet.network\nfdnet.network._logits",
    ],
)
def test_detects_private_use(source):
    assert private_uses(ast.parse(source))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    imports = function_imports(ast.parse(path.read_text(), filename=str(path)))
    assert imports == [], f"{path.name} imports fdnet modules inside functions: {imports}"


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    from .evaluation import modal_chosen",
        "def f():\n    from . import network",
        "class C:\n    def m(self):\n        import fdnet.network",
        "async def f():\n    from fdnet import train",
    ],
)
def test_detects_function_import(source):
    assert function_imports(ast.parse(source))


def test_allows_module_level_and_foreign_imports():
    source = "from .network import forward\ndef f():\n    import json\n    from os import path"
    assert function_imports(ast.parse(source)) == []


def test_every_export_has_a_caller():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    callers = {path: ast.parse(p.read_text(), filename=str(p)) for path, p in CALLERS.items()}
    dead = unreferenced_exports(init, callers)
    assert dead == [], f"fdnet re-exports names nothing outside the tests uses: {dead}"


def test_detects_unreferenced_export():
    init = ast.parse("from .network import forward, backward, classify, zero_params\nimport numpy")
    callers = {
        "src/fdnet/cli.py": ast.parse("import fdnet\nfdnet.forward(p, x)"),
        "perfbench/child.py": ast.parse("from fdnet import backward as grad"),
        "tests/test_acceptance.py": ast.parse("def f(classify):\n    return classify"),
    }
    assert unreferenced_exports(init, callers) == ["zero_params"]


def test_detects_export_only_its_own_module_mentions():
    init = ast.parse("from .network import forward, softmax\nfrom .training import train, select")
    callers = {
        "src/fdnet/network.py": ast.parse("def forward(x):\n    return softmax(x)"),
        "src/fdnet/training.py": ast.parse("def select():\n    return train()"),
        "src/fdnet/cli.py": ast.parse("forward(x)\nprint('softmax', 'select')"),
        "perfbench/tracer.py": ast.parse("HOOKS = (('fdnet.training', 'train'),)"),
    }
    # a string counts only in the benchmark, a mention only outside the home module
    assert unreferenced_exports(init, callers) == ["softmax", "select"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_parallel_starts_processes(path):
    # `parallel.ordered_map` is the one pool helper, and it holds the pool rule
    imports = pool_imports(ast.parse(path.read_text(), filename=str(path)))
    assert path.name == "parallel.py" or imports == [], f"{path.name} imports pool modules: {imports}"


@pytest.mark.parametrize(
    "source",
    [
        "import multiprocessing",
        "import os, multiprocessing.pool as mp",
        "from concurrent.futures import ProcessPoolExecutor",
        "def f():\n    from multiprocessing import get_context",
    ],
)
def test_detects_pool_import(source):
    assert pool_imports(ast.parse(source))


def test_parallel_imports_pool_modules():
    assert pool_imports(ast.parse((PACKAGE / "parallel.py").read_text()))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_errors_states_the_count_rule(path):
    # `errors.as_count` refuses a count below 1; no caller repeats the check
    assert path.name == "errors.py" or "must be >= 1" not in path.read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_errors_states_the_list_rule(path):
    # `errors.as_list` refuses anything but a list; no caller repeats the check
    assert path.name == "errors.py" or "must be a list" not in path.read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
@pytest.mark.parametrize("text", ["too large for one numpy array", "MAX_ARRAY_FLOATS", "must lie in [0, 1)"])
def test_only_errors_states_the_size_and_rate_rules(path, text):
    # `errors.check_array_size` and `errors.as_rate`; no caller repeats either check
    assert path.name == "errors.py" or text not in path.read_text()
