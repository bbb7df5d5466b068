"""The modules form one import order: each imports only from the modules before it."""

import ast
import pathlib

import pytest

import loopbundle

LAYERS = ["laurent", "rand", "modes", "spectral", "sections", "holonomy", "properties", "cli"]
PACKAGE = pathlib.Path(loopbundle.__file__).parent


def _package_imports(tree):
    """(import node, package modules it names) for each import of the package in a module's syntax tree, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .x import y names module x; from . import x, y names modules x and y
            yield node, [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("loopbundle."):
            yield node, [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("loopbundle.")]
            if names:
                yield node, names


def _imported_modules(path):
    """The package modules that the module at path imports, at any depth of its syntax tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {name for _, names in _package_imports(tree) for name in names}


def _unread_imports(path):
    """Names that module-level imports of the module at path bind and that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def _nested_import_lines(path):
    """Line numbers of the package imports in the module at path that are not module-level statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node, _ in _package_imports(tree) if node not in tree.body]


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_a_module_imports_only_earlier_layers(name):
    earlier = set(LAYERS[: LAYERS.index(name)])
    assert _imported_modules(PACKAGE / f"{name}.py") <= earlier, f"{name} imports a later layer or itself"


def test_the_scan_sees_nested_and_package_imports(tmp_path):
    source = "import numpy\nfrom . import holonomy as geo\n\ndef f():\n    from .rand import x\n    import loopbundle.cli\n"
    (tmp_path / "probe.py").write_text(source, encoding="utf-8")
    assert _imported_modules(tmp_path / "probe.py") == {"holonomy", "rand", "cli"}


@pytest.mark.parametrize("name", LAYERS)
def test_package_imports_sit_at_module_level(name):
    """A function-level import hides a dependency from a reader of the module's header."""
    assert _nested_import_lines(PACKAGE / f"{name}.py") == []


def test_the_level_scan_sees_only_nested_package_imports(tmp_path):
    source = "import numpy\nfrom . import holonomy as geo\n\ndef f():\n    import json\n    from .rand import x\n"
    (tmp_path / "probe.py").write_text(source, encoding="utf-8")
    assert _nested_import_lines(tmp_path / "probe.py") == [6]


@pytest.mark.parametrize("name", LAYERS)
def test_every_module_level_import_is_read(name):
    """An import no line reads is a dependency the module does not have."""
    assert _unread_imports(PACKAGE / f"{name}.py") == set()


def test_the_import_scan_sees_unread_names(tmp_path):
    source = (
        "from __future__ import annotations\nimport os.path\nimport json as js\nimport numpy as np\n"
        "from .laurent import MatrixLoop, relative_tail\n\n"
        "def f(x):\n    import re\n    return np.abs(relative_tail(x))\n"
    )
    (tmp_path / "probe.py").write_text(source, encoding="utf-8")
    assert _unread_imports(tmp_path / "probe.py") == {"os", "js", "MatrixLoop"}
