"""Package structure: the layer boundary, the public names, imports and import cost.

The numerical layers (RNG, kernels, fields, lattice, mollifier, fractional
calculus, Burgers proxy) return numbers; only the harness modules build
report rows, write files, parse configs or talk to the command line, and
each layer imports only the layers listed before it.  The README's library
tour runs as written, so every name it shows stays public.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracstoch
from fracstoch.rng import NoiseModel

PACKAGE_DIR = Path(fracstoch.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


@pytest.mark.parametrize("layer", LAYERS)
def test_numerical_layers_do_no_file_io(layer):
    # file formats belong to the harness: no layer imports one or opens a file
    tree = ast.parse((PACKAGE_DIR / f"{layer}.py").read_text(encoding="utf-8"))
    assert not _imported_names(tree) & {"csv", "struct", "json"}
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert "open" not in called


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_imports_only_the_layers_before_it(layer):
    tree = ast.parse((PACKAGE_DIR / f"{layer}.py").read_text(encoding="utf-8"))
    assert not _imported_names(tree) & set(LAYERS[LAYERS.index(layer) :])


def test_every_import_is_used():
    # an import that nothing reads is a leftover; __init__ imports to re-export
    sources = [p for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"]
    sources += [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused


def test_no_module_uses_numpy_random():
    # one randomness source: every seeded input is a counter-RNG draw, since
    # NEP 19 lets numpy's own streams change between releases
    uses = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if "random" in attrs | _imported_names(tree):  # np.random, numpy.random, import random
            uses.append(path.name)
    assert not uses


def test_sigma_enters_the_layers_through_noise_model_only():
    # one noise level per run: a bare sigma parameter or field would be a second, unchecked copy
    bare = []
    for layer in LAYERS:
        module = importlib.import_module(f"fracstoch.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                params = inspect.signature(obj).parameters
                bare += [f"{layer}.{name}({p})" for p in params if p.startswith("sigma")]
        for name, obj in vars(module).items():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj is not NoiseModel:
                fields = dataclasses.fields(obj)
                bare += [f"{layer}.{name}.{f.name}" for f in fields if f.name.startswith("sigma")]
    assert not bare


@pytest.mark.parametrize("layer", [layer for layer in LAYERS if layer != "rng"])
def test_only_noise_model_does_arithmetic_on_sigma(layer):
    # the Ito increment law sigma sqrt|c| is stated once, in rng.NoiseModel; a
    # comparison such as sigma > 0 is not arithmetic and stays allowed
    tree = ast.parse((PACKAGE_DIR / f"{layer}.py").read_text(encoding="utf-8"))
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and any(isinstance(side, ast.Attribute) and side.attr == "sigma" for side in (node.left, node.right))
    ]
    assert not sites


def test_the_lattice_takes_n_alone():
    # the point fixes N and the derivatives fix the Taylor order, so no lattice
    # entry point restates either, and no grid object wraps the one parameter n
    lattice = fracstoch.lattice
    restated = []
    for name in lattice.__all__:
        obj = getattr(lattice, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            restated += [f"lattice.{name}({p})" for p in params if p in ("grid", "dim", "m")]
    assert not restated
    assert not hasattr(fracstoch, "GridSpec") and not hasattr(lattice, "GridSpec")


# a valid value for every field of each layer's parameter type
PARAMETER_TYPES = {
    "kernels.KernelParams": dict(q=1.0, lam=1.0, trunc_radius=40),
    "mollify.ScaledKernel": dict(n=16, gamma=0.0),
    "fractional.TimeGrid": dict(t0=0.0, t1=1.0, steps=8),
    "fields.PeriodicGrid": dict(length=1.0, points=64),
    "turbulence.FracFlowParams": dict(alpha=0.5, s=1.0, nu=0.1),
    "rng.NoiseModel": dict(sigma=0.1, base_seed=42),
}


def test_parameter_types_reject_nan_and_fractional_integers():
    # the boundary rule: NaN in any numeric field, or 2.5 or True in an integer
    # field, fails at construction instead of surfacing later as a wrong answer
    accepted = []
    for path, valid in PARAMETER_TYPES.items():
        layer, name = path.split(".")
        cls = getattr(importlib.import_module(f"fracstoch.{layer}"), name)
        cls(**valid)
        fields = dataclasses.fields(cls)
        assert {f.name for f in fields} == set(valid), path
        for f in fields:
            for bad in (math.nan, 2.5, True) if f.type == "int" else (math.nan,):
                try:
                    cls(**{**valid, f.name: bad})
                except (ValueError, TypeError):
                    continue
                accepted.append(f"{path}({f.name}={bad})")
    assert not accepted


def _with(path, name, value):
    """The layer type at ``path``, built from its valid fields with ``name`` set to ``value``."""
    layer, cls = path.split(".")
    return getattr(getattr(fracstoch, layer), cls)(**{**PARAMETER_TYPES[path], name: value})


# every real-number field of the layer types, a field's spacing and the order
# the Caputo routines take
REAL_ARGS = {
    f"{path}.{name}": (functools.partial(_with, path, name), value)
    for path, valid in PARAMETER_TYPES.items()
    for name, value in valid.items()
    if isinstance(value, float)
}
REAL_ARGS["fields.Field.spacing"] = (lambda h: fracstoch.Field(np.zeros(8), h), 0.25)
REAL_ARGS["fractional.caputo_l1.alpha"] = (
    lambda a: fracstoch.fractional.caputo_l1(np.zeros(9), fracstoch.TimeGrid(0.0, 1.0, 8), a),
    0.5,
)
# the real arguments of the public functions, on the grid and field below
REAL_ARGS["mollify.c_phi.alpha"] = (fracstoch.mollify.c_phi, 0.5)
REAL_ARGS["fractional.mittag_leffler.z"] = (lambda z: fracstoch.mittag_leffler(0.5, z), -1.0)
REAL_ARGS["fractional.frac_laplacian.s"] = (lambda s: fracstoch.frac_laplacian(FIELD, s), 0.5)
REAL_ARGS["turbulence.synth_velocity.exponent"] = (
    lambda p: fracstoch.turbulence.synth_velocity(GRID, p, 4, 0),
    4.0,
)
REAL_ARGS["fields.kink_field.alpha"] = (fracstoch.fields.kink_field, 0.5)
REAL_ARGS["fields.lacunary_field.alpha"] = (fracstoch.fields.lacunary_field, 0.5)


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
def test_synth_velocity_exponent_is_finite(exponent):
    # inf would keep mode 1 alone and -inf overflow every other mode
    call, _ = REAL_ARGS["turbulence.synth_velocity.exponent"]
    with pytest.raises(ValueError, match="^exponent must be finite"):
        call(exponent)


@pytest.mark.parametrize("bad", [True, "0.5", None], ids=["bool", "str", "none"])
@pytest.mark.parametrize("key", REAL_ARGS)
def test_real_fields_reject_bools_and_strings(key, bad):
    # the real-number counterpart of the count rule: True does not run as 1.0
    # and "0.5" is not parsed, while numpy scalars such as np.float32 pass
    call, valid = REAL_ARGS[key]
    name = key.rsplit(".", 1)[1]
    call(np.float32(valid))
    with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {re.escape(repr(bad))}"):
        call(bad)


GRID = fracstoch.PeriodicGrid(2.0 * math.pi, 256)
FIELD = fracstoch.Field(GRID.coords(), GRID.spacing)
BUMP = fracstoch.mollify.ScaledKernel(16)
NOISE = NoiseModel(sigma=0.1, base_seed=1)
# one layer call per integer count, taking the count as its argument
COUNT_CALLS = {
    "n": lambda n: fracstoch.lattice.apply_expectation(math.sin, 0.3, n, fracstoch.KernelParams()),
    "replicates": lambda r: fracstoch.mollify.stochastic_samples_at(FIELD, [BUMP], NOISE, r, 0),
    "modes": lambda m: fracstoch.turbulence.synth_velocity(GRID, 1.0, m, 0),
    "index": lambda i: fracstoch.mollify.stochastic_samples_at(FIELD, [BUMP], NOISE, 10, i),
    "seed": lambda s: fracstoch.fields.lacunary_field(0.5, seed=s),
}


@pytest.mark.parametrize("bad", [2.5, True, math.nan], ids=["fractional", "bool", "nan"])
@pytest.mark.parametrize("name", COUNT_CALLS)
def test_layer_counts_reject_fractions_bools_and_nan(name, bad):
    # a count must be an integer: 2.5 is not truncated, True does not run as 1
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        COUNT_CALLS[name](bad)


@pytest.mark.parametrize(
    "call",
    [lambda s: fracstoch.turbulence.synth_velocity(GRID, 4.0, 2, s), COUNT_CALLS["seed"]],
    ids=["synth_velocity", "lacunary_field"],
)
def test_layer_seeds_fit_one_counter_word(call):
    # 2^64 is refused by name here, not deep in the RNG as a word of dtype object
    with pytest.raises(ValueError, match=r"^seed must be < 2\*\*64, got 18446744073709551616"):
        call(2**64)
    call(2**64 - 1)


@pytest.mark.parametrize("index", [-1, 256, 300])
def test_monte_carlo_point_lies_on_the_grid(index):
    # a cell past the grid is refused, not wrapped round or read from the far end
    with pytest.raises(ValueError, match="^index must be"):
        COUNT_CALLS["index"](index)
    with pytest.raises(ValueError, match="^index must be"):
        fracstoch.mollify.variance_quadrature(FIELD, BUMP, NOISE, index)
    with pytest.raises(ValueError, match="^index must be"):
        fracstoch.mollify.mse_decomposition(FIELD, [BUMP], [NOISE], 100, index)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"fracstoch.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"fracstoch.{name}.{attr}"


def test_package_attributes_are_the_submodules():
    # a function re-exported under its module's name would hide the module
    for name in MODULES:
        importlib.import_module(f"fracstoch.{name}")
        assert getattr(fracstoch, name) is sys.modules[f"fracstoch.{name}"], name


def _fresh_interpreter(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports this package."""
    env = dict(os.environ)
    paths = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # every CLI call pays the package import: scipy.special loads only for a
    # slope fit over more than 32 points, scipy.stats would be most of the import time,
    # and the mollifier is an rfft multiplier that needs no scipy.ndimage
    unwanted = "{'scipy.special', 'scipy.stats', 'scipy.ndimage'}"
    code = f"import sys, fracstoch; print(sorted({unwanted} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "[]"


def test_default_runs_leave_scipy_special_unloaded():
    # the package imports bare scipy at module level: perfbench/worker.py reads
    # sys.modules["scipy"] for its env record.  The slope fits of the default
    # runs read their t quantile from report's table, so scipy.special stays out
    code = (
        "import sys, fracstoch, fracstoch.experiments as ex\n"
        "for name in ex.RUNNERS:\n"
        "    ex.run(fracstoch.RunConfig(experiment=name))\n"
        "print('scipy' in sys.modules, 'scipy.special' in sys.modules)\n"
    )
    assert _fresh_interpreter(code).split() == ["True", "False"]


def test_c_phi_loads_no_scipy_special():
    # the fractional moment runs on the bump's own Legendre rule
    code = "import sys, fracstoch; fracstoch.c_phi(0.5); print('scipy.special' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_import_and_a_one_block_draw_start_no_thread():
    # the RNG's block pool, and concurrent.futures with it, start on the first
    # draw of two or more row blocks; the import and small draws stay serial
    code = (
        "import sys, threading\n"
        "before = threading.active_count()\n"
        "import numpy as np, fracstoch\n"
        "fracstoch.rng.standard_normals(1, 2, np.arange(8)[:, None], np.arange(4096))\n"
        "print('concurrent.futures' in sys.modules, threading.active_count() - before)\n"
    )
    assert _fresh_interpreter(code).split() == ["False", "0"]


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library quick tour\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert tour is not None, "README has no python block under 'Library quick tour'"
    exec(compile(tour.group(1), "README library tour", "exec"), {})
