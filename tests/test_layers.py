"""Package structure: the layer boundary and the public names.

The numerical layers (RNG, kernels, fields, lattice, mollifier, fractional
calculus, Burgers proxy) return numbers; only the harness modules build
report rows, parse configs or talk to the command line.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fracstoch

PACKAGE_DIR = Path(fracstoch.__file__).parent
LAYERS = ("rng", "kernels", "fields", "lattice", "mollify", "fractional", "turbulence")
HARNESS = ("report", "experiments", "config", "cli")
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _imported_names(tree: ast.Module) -> set[str]:
    """Every dotted-path part and imported name, so `from .report import x`,
    `from . import report` and `import fracstoch.report` all yield "report"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_numerical_layers_do_not_import_the_harness(layer):
    tree = ast.parse((PACKAGE_DIR / f"{layer}.py").read_text(encoding="utf-8"))
    assert not _imported_names(tree) & set(HARNESS)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"fracstoch.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"fracstoch.{name}.{attr}"
