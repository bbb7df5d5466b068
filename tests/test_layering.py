"""The modules form one import order: each imports only from the modules before it."""

import ast
import pathlib

import pytest

import loopbundle

LAYERS = ["laurent", "rand", "modes", "spectral", "sections", "holonomy", "properties", "cli"]
PACKAGE = pathlib.Path(loopbundle.__file__).parent


def _imported_modules(path):
    """The package modules that the module at path imports, at any depth of its syntax tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .x import y names module x; from . import x, y names modules x and y
            found.update([node.module.split(".")[0]] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("loopbundle."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("loopbundle."))
    return found


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
