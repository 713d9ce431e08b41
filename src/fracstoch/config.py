"""Run configuration: defaults, JSON file parsing, flag precedence.

Parameter ranges live in the library's own types (``KernelParams``,
``NoiseModel``, ``FracFlowParams``, which checks alpha, ``PeriodicGrid``,
``TimeGrid``); :class:`RunConfig` builds them to validate a run and
re-raises their errors as :class:`ConfigError`.  It keeps the layer
objects it builds, and the runners use those.  The config is frozen, so
a field and the object built from it cannot part; ``dataclasses.replace``
varies a config and runs the checks again.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields as dc_fields

from .experiments import BURGERS_HORIZON, MSE_GAMMA_N, RUNNERS
from .fields import PeriodicGrid
from .fractional import TimeGrid
from .kernels import KernelParams
from .mollify import MSE_MIN_REPLICATES, ScaledKernel, _check_resolution
from .report import FIT_MIN_POINTS
from .rng import NoiseModel, _check_real
from .turbulence import FracFlowParams

__all__ = ["EXPERIMENTS", "RunConfig", "ConfigError", "parse_config", "parse_n_list"]

EXPERIMENTS = tuple(RUNNERS)
# the experiments that fit a log-log slope over n_list
_SLOPE_FITS = ("kantorovich_rates", "variance_scaling", "voronovskaya", "mollifier_rates", "l2")
# the experiments that smooth their points-grid fields at the n of n_list
_SMOOTHS = ("variance_scaling", "mollifier_rates", "mse", "dissipation", "l2")
# the experiments whose checks measure the noise: at sigma = 0 nothing is left to check
_NOISE_CHECKS = ("variance_scaling", "mse")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _number(key: str, value, integral: bool):
    """``value`` if it is a real number (rng's rule); as an int if ``integral``.

    An integral float (JSON may write 1000.0) is accepted as an integer.
    """
    try:
        _check_real(key, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not integral:
        return value
    if not float(value).is_integer():
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration.

    The objects that validate the fields stay as plain attributes, not
    fields, for the runners to use: ``kernel`` (q, lam, trunc_radius),
    ``noise`` (sigma and seed; the burgers forcing draws from it too),
    ``flow`` (alpha, s, nu), ``grid`` (points on [0, 2 pi)), ``t_grid``
    (steps on [0, BURGERS_HORIZON]) and ``smoothers`` (one bump kernel per
    n of n_list).
    """

    experiment: str = "kernel"
    q: float = 1.0
    lam: float = 1.0
    trunc_radius: int = 40
    alpha: float = 0.5
    s: float = 0.8
    nu: float = 0.1
    sigma: float = 0.1
    seed: int = 42
    replicates: int = 1000
    n_list: tuple = (8, 16, 32, 64)
    points: int = 4096
    steps: int = 256
    out_dir: str | None = None
    svg: bool = False

    def __post_init__(self) -> None:
        set_ = functools.partial(object.__setattr__, self)  # writes past the freeze
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown name {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for f in dc_fields(self):  # f.type is the annotation string (PEP 563)
            value = getattr(self, f.name)
            if f.type in ("int", "float"):
                set_(f.name, _number(f.name, value, f.type == "int"))
            elif f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name}: must be true or false, got {value!r}")
            elif f.type == "str | None" and not (value is None or isinstance(value, str)):
                raise ConfigError(f"{f.name}: must be a string, got {value!r}")
        if not 0 <= self.seed < 2**64:  # one 64-bit counter word
            raise ConfigError(f"seed: must lie in [0, 2^64), got {self.seed}")
        try:
            set_("kernel", KernelParams(q=self.q, lam=self.lam, trunc_radius=self.trunc_radius))
            set_("noise", NoiseModel(sigma=self.sigma, base_seed=self.seed))
            set_("flow", FracFlowParams(self.alpha, s=self.s, nu=self.nu))
            set_("grid", PeriodicGrid(2.0 * math.pi, self.points))
            set_("t_grid", TimeGrid(0.0, BURGERS_HORIZON, self.steps))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.replicates < 1:
            raise ConfigError(f"replicates: must be >= 1, got {self.replicates}")
        if self.experiment == "variance_scaling" and self.replicates < 2:
            raise ConfigError(
                f"replicates: variance_scaling takes a sample variance and needs at least 2, "
                f"got {self.replicates}"
            )
        if self.experiment == "mse" and self.replicates < MSE_MIN_REPLICATES:
            raise ConfigError(
                f"replicates: mse needs at least {MSE_MIN_REPLICATES}, got {self.replicates}"
            )
        n_list = tuple(_number("n_list", n, True) for n in self.n_list)
        if not n_list or min(n_list) < 1:
            raise ConfigError(f"n_list: needs positive integers, got {self.n_list}")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError(f"n_list: must be strictly increasing, got {self.n_list}")
        if self.experiment in _SLOPE_FITS and len(n_list) < FIT_MIN_POINTS:
            raise ConfigError(
                f"n_list: {self.experiment} fits a slope over n_list and needs at least "
                f"{FIT_MIN_POINTS} entries, got {self.n_list}"
            )
        if self.experiment in _SMOOTHS:
            ns = n_list + (MSE_GAMMA_N,) if self.experiment == "mse" else n_list
            try:
                _check_resolution(self.grid.spacing, max(ns))
            except ValueError as exc:
                raise ConfigError(f"n_list: {self.experiment} smooths at n in {ns}; {exc}") from exc
        if self.experiment in _NOISE_CHECKS and self.sigma == 0:
            raise ConfigError(f"sigma: {self.experiment} checks the noise it draws; need > 0")
        set_("n_list", n_list)
        set_("smoothers", tuple(ScaledKernel(n) for n in n_list))

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out["n_list"] = list(self.n_list)
        return out


def parse_n_list(text) -> tuple:
    """A tuple from a list or a comma separated string; RunConfig checks the values."""
    if isinstance(text, (list, tuple)):
        return tuple(text)
    try:
        return tuple(int(part) for part in str(text).split(",") if part != "")
    except ValueError:
        raise ConfigError(f"n_list: cannot parse {text!r}; expected e.g. 8,16,32,64")


_ALIASES = {"lambda": "lam", "K": "trunc_radius"}
_FIELD_NAMES = {f.name for f in dc_fields(RunConfig)}


def parse_config(path: str | None = None, flags: dict | None = None) -> RunConfig:
    """Merge defaults <- JSON file <- flags (flags win) into a RunConfig.

    The file must be a flat JSON object; unknown keys are rejected with
    the key named in the message.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: malformed JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected a flat JSON object")
    # an unset flag is None; perfbench/worker.py still sends the retired "workers": 1
    flags = {
        k: v for k, v in (flags or {}).items() if not (v is None or (k == "workers" and v == 1))
    }
    merged: dict = {}
    for key, value in [*data.items(), *flags.items()]:
        name = _ALIASES.get(key, key)
        if name not in _FIELD_NAMES:
            raise ConfigError(f"{key}: unknown configuration key")
        merged[name] = value
    if "n_list" in merged:
        merged["n_list"] = parse_n_list(merged["n_list"])
    return RunConfig(**merged)
