import ast
import csv
import dataclasses
import importlib.util
import json
import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fracstoch
from fracstoch import cli, experiments, rng
from fracstoch.cli import build_parser, main
from fracstoch.config import (
    _ALIASES,
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    parse_config,
    parse_n_list,
)
from fracstoch.report import CheckResult


def test_defaults():
    cfg = parse_config(flags={"experiment": "kernel"})
    assert cfg.q == 1.0
    assert cfg.lam == 1.0
    assert cfg.alpha == 0.5
    assert cfg.sigma == 0.1
    assert cfg.seed == 42
    assert cfg.replicates == 1000
    assert cfg.trunc_radius == 40
    assert cfg.n_list == (8, 16, 32, 64)


@pytest.mark.parametrize(
    "key,value",
    [
        ("alpha", 1.5),
        ("alpha", 0.0),
        ("q", -1.0),
        ("lam", 0.0),
        ("sigma", -0.5),
        ("sigma", float("nan")),
        ("points", 100),
        ("replicates", 0),
        ("replicates", 1.5),
        ("s", 2.0),
        ("nu", 0.0),
        ("dim", 3),
        ("kind", "pink"),
        ("experiment", "nonsense"),
        ("workers", 0),
        ("seed", "7"),
        ("trunc_radius", "5"),
        ("nu", float("inf")),
        ("q", float("inf")),
        ("lam", float("inf")),
        ("sigma", float("inf")),
        ("n_list", [8.5, 16]),
        ("svg", "no"),
        ("out_dir", 5),
        ("seed", -1),
        ("seed", 2**64),
    ],
)
def test_out_of_range_values_name_the_key(key, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(flags={"experiment": "kernel", key: value})
    msg = str(exc.value)
    assert key in msg or (key == "lam" and "lambda" in msg)


def test_integral_replicates_accepted_as_int():
    cfg = parse_config(flags={"experiment": "kernel", "replicates": 2000.0, "points": 1024.0})
    assert cfg.replicates == 2000 and isinstance(cfg.replicates, int)
    assert cfg.points == 1024 and isinstance(cfg.points, int)


def test_cli_rejects_nan_sigma_as_config_error(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text('{"sigma": NaN}')  # Python's json reads and writes NaN
    assert main(["mse", "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"seed": "7"}',
        '{"dim": 2}',
        '{"kind": "white_noise_measure"}',
        '{"svg": "no"}',
        '{"out_dir": 5}',
        '{"workers": 1}',
        '{"workers": 2}',
    ],
)
def test_cli_rejects_mistyped_or_removed_keys_as_config_error(tmp_path, text):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(text)
    assert main(["mse", "--config", str(cfg_file)]) == 2


# the layer objects RunConfig keeps from its validation, which the runners read;
# the smoothers too, but a tuple of kernels has no fields to match a config field
KEPT_OBJECTS = ("kernel", "noise", "flow", "grid", "t_grid")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_config_field_is_read_by_the_runners(name):
    # a field that no runner reads is a knob that does nothing; it is read
    # directly, or through a kept object that carries a field of that name
    source = Path(experiments.__file__).read_text(encoding="utf-8")
    config = RunConfig()
    readers = [name] + [
        obj
        for obj in KEPT_OBJECTS
        if name in {f.name for f in dataclasses.fields(getattr(config, obj))}
    ]
    assert any(re.search(rf"\bconfig\.{r}\b", source) for r in readers), (
        f"config.{name} is never read"
    )


def _reads_config(expr, names: set) -> bool:
    """Whether ``expr`` reads a config.<field> or one of ``names``."""
    return any(
        (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config")
        or (isinstance(node, ast.Name) and node.id in names)
        for node in ast.walk(expr)
    )


def _names_from_config(func: ast.FunctionDef) -> set:
    """Names a runner binds from config fields: aliases and loop variables."""
    names: set = set()
    while True:
        grown = set(names)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, (ast.For, ast.comprehension)):
                value, targets = node.iter, [node.target]
            else:
                continue
            if _reads_config(value, names):
                grown |= {t.id for tg in targets for t in ast.walk(tg) if isinstance(t, ast.Name)}
        if grown == names:
            return names
        names = grown


def test_runners_build_no_layer_object_from_config_fields():
    # RunConfig keeps the objects it validates; a runner that built one again
    # from config.<field>, an alias of one or a loop variable over one (as in
    # ScaledKernel(n) for n in config.n_list) would state the same rule twice
    layer_types = {
        "KernelParams",
        "NoiseModel",
        "FracFlowParams",
        "PeriodicGrid",
        "ScaledKernel",
        "TimeGrid",
    }
    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    rebuilt = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        names = _names_from_config(func)
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            args = [*call.args, *(kw.value for kw in call.keywords)]
            if callee in layer_types and any(_reads_config(arg, names) for arg in args):
                rebuilt.append(f"line {call.lineno}: {ast.unparse(call)}")
    assert not rebuilt


def test_n_list_parsing_and_validation():
    assert parse_n_list("8,16,32") == (8, 16, 32)
    assert parse_n_list([4, 8]) == (4, 8)
    with pytest.raises(ConfigError):
        parse_n_list("8,x")
    with pytest.raises(ConfigError):
        parse_config(flags={"experiment": "kernel", "n_list": "16,8"})
    # only the slope-fitting experiments need four entries, and only the noise checks sigma > 0
    assert parse_config(flags={"experiment": "dissipation", "n_list": "8"}).n_list == (8,)
    assert parse_config(flags={"experiment": "dissipation", "sigma": 0.0}).sigma == 0.0
    # the finest n that 4096 points resolve
    assert parse_config(flags={"experiment": "l2", "n_list": "8,16,32,128"}).n_list[-1] == 128


@pytest.mark.parametrize(
    "args,key",
    [
        (["variance_scaling", "--sigma", "0"], "sigma"),
        (["l2", "--n-list", "8"], "n_list"),
        (["mollifier_rates", "--n-list", "8"], "n_list"),
        (["kantorovich_rates", "--n-list", "8,16,32"], "n_list"),
        (["voronovskaya", "--n-list", "8,16,32"], "n_list"),
        (["variance_scaling", "--n-list", "4,8,16"], "n_list"),
        (["mse", "--sigma", "0"], "sigma"),
        (["mse", "--replicates", "50"], "replicates"),
        # every job refuses fewer than one replicate, even one that draws nothing
        (["dissipation", "--replicates", "0"], "replicates"),
        # 4096 points resolve n <= 128, so n = 256 is refused before any work
        *[
            ([name, "--n-list", "8,16,32,256"], "n_list")
            for name in ("l2", "mollifier_rates", "variance_scaling", "dissipation", "mse")
        ],
        # mse's gamma sweep smooths at n = 16 whatever n_list holds
        (["mse", "--points", "256", "--n-list", "1,2,4,8"], "n_list"),
        # a sample variance needs two replicates
        (["variance_scaling", "--replicates", "1"], "replicates"),
        # the seed is one 64-bit counter word, 0 <= seed < 2^64: 2^64 would draw seed 0's streams
        (["mse", "--seed", "-1"], "seed"),
        (["mse", "--seed", str(2**64)], "seed"),
    ],
)
def test_cli_rejects_what_the_slope_fits_cannot_use(capsys, args, key):
    # a config error (exit 2) naming the key, not a failed run (exit 1)
    assert main(args) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


def test_mse_smooths_at_every_n_of_the_list(tmp_path):
    assert main(["mse", "--n-list", "8,16,32,64,128", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "mse.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    # 5 n x 3 sigma x 4 metrics, then 4 gamma rows and the gamma optimum
    assert len(rows) == 65
    params = {r[1] for r in rows}
    assert any(p.startswith("n=64,sigma=") for p in params)
    assert any(p.startswith("n=128,sigma=") for p in params)


def test_file_then_flags_precedence(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"experiment": "mse", "sigma": 0.1, "lambda": 2.0}))
    cfg = parse_config(str(cfg_file), flags={"sigma": 0.2})
    assert cfg.experiment == "mse"
    assert cfg.sigma == 0.2  # flag wins
    assert cfg.lam == 2.0  # alias accepted


def test_unknown_keys_rejected(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"experiment": "kernel", "bogus_key": 1}))
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(str(cfg_file))
    with pytest.raises(ConfigError, match="whatever"):
        parse_config(flags={"experiment": "kernel", "whatever": 3})


def test_malformed_json(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(str(cfg_file))


def test_cli_exit_codes_and_outputs(tmp_path):
    out = tmp_path / "results"
    code = main(["kernel", "--out", str(out), "--svg", "--seed", "7"])
    assert code == 0
    assert (out / "kernel.csv").exists()
    assert (out / "kernel.svg").exists()
    echo = json.loads((out / "kernel_config.json").read_text())
    assert echo["seed"] == 7
    assert echo["experiment"] == "kernel"

    assert main(["kernel", "--alpha", "7"]) == 2  # config error


def test_cli_check_line_shows_value_and_bound(capsys):
    assert main(["caputo"]) == 0
    lines = capsys.readouterr().out.splitlines()
    line = next(ln for ln in lines if "l1_order_alpha=0.3 " in ln)
    assert re.fullmatch(
        r"\[PASS\] caputo:l1_order_alpha=0\.3  \d\.\d{3}e[+-]\d{2} <= 2\.000e-01", line
    ), line


def test_nan_error_fails_its_check(monkeypatch):
    # the builtin max keeps a NaN only when it comes first; np.max always does
    real = experiments.l2_convergence

    def nan_on_constant(u, kernels):
        errs = real(u, kernels)
        if u.values.min() == u.values.max():
            errs[-1] = math.nan
        return errs

    monkeypatch.setattr(experiments, "l2_convergence", nan_on_constant)
    report = experiments.run_l2(parse_config(flags={"experiment": "l2"}))
    passed = {c.name: c.passed for c in report.checks}
    assert passed["constant_reproduced"] is False
    assert passed["smooth_rate"] is True


@pytest.mark.parametrize("experiment", ["variance_scaling", "mse"])
def test_a_wrong_noise_scale_fails_a_check(monkeypatch, experiment):
    # every variate 1.5 times too large is 2.25 times the variance: the run's
    # noise-law checks must see it (one case per experiment that has such a check)
    real = rng.standard_normals
    monkeypatch.setattr(rng, "standard_normals", lambda *args: 1.5 * real(*args))
    report = experiments.run(RunConfig(experiment=experiment))
    assert not all(c.passed for c in report.checks)


def test_cli_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["voronovskaya", "--seed", "11", "--n-list", "8,16,32,64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "voronovskaya.csv").read_bytes() == (b / "voronovskaya.csv").read_bytes()


def test_retired_workers_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["variance_scaling", "--workers", "2"])
    assert exc.value.code == 2
    # the benchmark harness's "workers": 1 is the one value still let through
    with pytest.raises(ConfigError, match="workers"):
        parse_config(flags={"experiment": "mse", "workers": 2})
    assert parse_config(flags={"experiment": "mse", "workers": 1}) == RunConfig(experiment="mse")


def test_benchmark_harness_builds_every_workload_config(monkeypatch, tmp_path):
    # perfbench/worker.py builds its jobs through parse_config; a config
    # change that breaks them breaks the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from worker import Runner
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        jobs = Runner(fracstoch, np, workload, tmp_path).configs(11)
        assert len(jobs) == len(WORKLOADS[workload])
        for job in jobs:
            assert isinstance(job, dict) or job.seed == 11


def test_cli_burgers_writes_snapshots(tmp_path):
    # burgers_final.csv is the one field snapshot beside the report files
    out = tmp_path / "burgers"
    assert main(["burgers", "--out", str(out)]) == 0
    snapshots = {p.name for p in out.iterdir()} - {"burgers.csv", "burgers_config.json"}
    assert snapshots == {"burgers_final.csv"}


def test_cli_burgers_propagates_step_guard(tmp_path):
    # too few steps for the explicit scheme (stiffness 2.0 against the L1
    # bound 1.52 at alpha = 0.5): a module diagnostic, exit 3
    assert main(["burgers", "--steps", "32"]) == 3
    # stiffness 1.42 lies above 1 but inside the bound, and the run finishes
    assert main(["burgers", "--steps", "64", "--out", str(tmp_path)]) == 0


def test_burgers_demo_rows_are_the_solver_snapshots():
    # 200 steps is no multiple of 16: the demo reports steps 0, 16, ..., 192 and 200
    config = parse_config(flags={"experiment": "burgers", "steps": 200})
    report = experiments.run(config)
    for metric in ("energy", "dissipation"):
        ts = [r.n for r in report.rows if r.param == "demo" and r.metric == metric]
        assert ts == [16 * k * config.t_grid.h for k in range(13)] + [0.25], metric


@pytest.mark.parametrize(
    "args,where",
    [
        (["--nu", "0.01", "--steps", "16", "--sigma", "2"], "step 11/16 (sup norm 4.578e+10)"),
        (["--nu", "0.001", "--steps", "16", "--alpha", "0.2"], "step 13/16 (sup norm 3.619e+10)"),
    ],
)
def test_cli_burgers_divergence_is_a_diagnostic(capsys, tmp_path, args, where):
    # accepted configs whose demo run blows up: a diagnostic (exit 3), not a failed check
    assert main(["burgers", "--out", str(tmp_path), *args]) == 3
    err = capsys.readouterr().err
    assert f"burgers failed: trajectory diverged at {where}" in err


def test_run_config_is_frozen_and_replace_checks_again():
    # a field and the layer object built from it cannot part: assignment
    # raises, and replace validates the new value as a fresh config does
    cfg = RunConfig(experiment="mse")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.sigma = -1.0
    with pytest.raises(ConfigError, match="sigma"):
        dataclasses.replace(cfg, sigma=-1.0)
    assert dataclasses.replace(cfg, sigma=0.2).noise.sigma == 0.2


def test_readme_states_the_parser_flags_and_the_config_defaults():
    # the README is the one hand copy of the flags and defaults left
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    flags, defaults = readme.split("\nFlags:", 1)[1].split("Defaults:", 1)
    subparsers = next(a for a in build_parser()._actions if a.choices)
    for parser in subparsers.choices.values():
        options = [a.option_strings[0] for a in parser._actions if a.dest != "help"]
        assert re.findall(r"`(--[a-z-]+)", flags) == options
    items = re.match(r"\n`([^`]*)`", defaults).group(1).replace("\n", " ").split(", ")
    stated = {
        _ALIASES.get(k, k): parse_n_list(v) if k == "n_list" else float(v)
        for k, v in (item.split("=", 1) for item in items)
    }
    numeric = [f for f in dataclasses.fields(RunConfig) if f.type in ("int", "float", "tuple")]
    assert stated == {f.name: f.default for f in numeric}


def test_run_config_echo_roundtrip():
    cfg = RunConfig(experiment="l2", n_list=(4, 8, 16, 32))
    d = cfg.as_dict()
    assert d["n_list"] == [4, 8, 16, 32]
    cfg2 = parse_config(flags=d)
    assert cfg2 == cfg


def _run_all_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return path, script


@pytest.mark.parametrize(
    "raising,failing,code",
    [({"caputo"}, {"l2"}, 3), (set(), {"l2"}, 1), (set(), set(), 0)],
    ids=["diagnostic", "failed_check", "clean"],
)
def test_run_all_experiments_goes_on_after_a_diagnostic(
    monkeypatch, capsys, tmp_path, raising, failing, code
):
    path, script = _run_all_script()
    ran = []

    def fake_run(config):
        ran.append(config.experiment)
        if config.experiment in raising:
            raise ValueError("explicit L1 step restriction violated")
        check = CheckResult("c", 1.0, hi=0.0 if config.experiment in failing else 2.0)
        return types.SimpleNamespace(passed=check.passed, rows=[], checks=[check])

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path)])
    assert script.main() == code
    assert ran == list(EXPERIMENTS)  # a raised diagnostic does not stop the loop
    captured = capsys.readouterr()
    errors = re.findall(r"^(\w+) failed: (.*)$", captured.err, re.M)
    assert errors == [(name, "explicit L1 step restriction violated") for name in raising]
    assert ("[FAIL] l2:c" in captured.out) == bool(failing)


def test_run_all_experiments_rejects_a_negative_seed(monkeypatch, capsys, tmp_path):
    path, script = _run_all_script()
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path / "out"), "--seed", "-1"])
    assert script.main() == 2
    assert "config error: seed:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
