"""The demos import only names the package has.

Each demo is parsed, not run: its ``flowcond`` imports are resolved
against the installed modules, so a rename or deletion in the library
that a demo still uses fails here instead of in a demo run.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def flowcond_imports(path):
    """(module, name) for every name the file imports from flowcond."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "flowcond" or node.module.startswith("flowcond.")
        ):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "flowcond":
                    yield alias.name, None


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(demo):
    imports = list(flowcond_imports(demo))
    assert imports, f"{demo.name} imports nothing from flowcond"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module} has no {name}"
