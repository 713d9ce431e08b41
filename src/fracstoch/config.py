"""Run configuration: defaults, JSON file parsing, flag precedence.

Parameter ranges live in the library's own types (``KernelParams``,
``NoiseModel``, ``FracFlowParams``, which checks alpha, ``PeriodicGrid``,
``TimeGrid``); :class:`RunConfig` builds them to validate a run and
re-raises their errors as :class:`ConfigError`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields as dc_fields

from .fields import PeriodicGrid
from .fractional import TimeGrid
from .kernels import KernelParams
from .mollify import MSE_MIN_REPLICATES, _check_resolution
from .report import FIT_MIN_POINTS
from .rng import NoiseModel
from .turbulence import FracFlowParams

__all__ = ["EXPERIMENTS", "RunConfig", "ConfigError", "parse_config", "parse_n_list"]

EXPERIMENTS = (
    "kernel",
    "caputo",
    "kantorovich_rates",
    "variance_scaling",
    "voronovskaya",
    "mollifier_rates",
    "mse",
    "burgers",
    "dissipation",
    "l2",
)
# the experiments that fit a log-log slope over n_list
_SLOPE_FITS = ("kantorovich_rates", "variance_scaling", "voronovskaya", "mollifier_rates", "l2")
# the experiments that smooth their points-grid fields at the n of n_list
_SMOOTHS = ("variance_scaling", "mollifier_rates", "mse", "dissipation", "l2")
# mse smooths at every n of n_list and sweeps gamma at n = MSE_GAMMA_N
MSE_GAMMA_N = 16
# the experiments whose checks measure the noise: at sigma = 0 nothing is left to check
_NOISE_CHECKS = ("variance_scaling", "mse")
# dissipation's Monte-Carlo leg draws replicates x points cell variates; beyond
# this bound the run is a config error, not a silent cap
DISSIPATION_MAX_REPLICATES = 10_000


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _number(key: str, value, integral: bool):
    """``value`` if it is a real number (not a bool); as an int if ``integral``.

    An integral float (JSON may write 1000.0) is accepted as an integer.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    if not integral:
        return value
    if not float(value).is_integer():
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return int(value)


@dataclass
class RunConfig:
    """Validated experiment configuration.

    Defaults: q=1, lam=1, alpha=0.5, sigma=0.1, seed=42, replicates=1000,
    trunc_radius=40.  ``sigma`` and ``seed`` make a run's
    :class:`NoiseModel`; the burgers forcing draws from it too.
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
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown name {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for f in dc_fields(self):  # f.type is the annotation string (PEP 563)
            value = getattr(self, f.name)
            if f.type in ("int", "float"):
                setattr(self, f.name, _number(f.name, value, f.type == "int"))
            elif f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name}: must be true or false, got {value!r}")
            elif f.type == "str | None" and not (value is None or isinstance(value, str)):
                raise ConfigError(f"{f.name}: must be a string, got {value!r}")
        try:
            KernelParams(q=self.q, lam=self.lam, trunc_radius=self.trunc_radius)
            NoiseModel(sigma=self.sigma)
            FracFlowParams(self.alpha, s=self.s, nu=self.nu)
            grid = PeriodicGrid(2.0 * math.pi, self.points)
            TimeGrid(0.0, 1.0, self.steps)
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
        if self.experiment == "dissipation" and self.replicates > DISSIPATION_MAX_REPLICATES:
            raise ConfigError(
                f"replicates: dissipation runs at most {DISSIPATION_MAX_REPLICATES}, "
                f"got {self.replicates}"
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
                _check_resolution(grid.spacing, max(ns))
            except ValueError as exc:
                raise ConfigError(f"n_list: {self.experiment} smooths at n in {ns}; {exc}") from exc
        if self.experiment in _NOISE_CHECKS and self.sigma == 0:
            raise ConfigError(f"sigma: {self.experiment} checks the noise it draws; need > 0")
        self.n_list = n_list

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
    merged: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: malformed JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected a flat JSON object")
        for key, value in data.items():
            name = _ALIASES.get(key, key)
            if name not in _FIELD_NAMES:
                raise ConfigError(f"{key}: unknown configuration key")
            merged[name] = value
    for key, value in (flags or {}).items():
        # perfbench/worker.py still sends the retired "workers": 1
        if value is None or (key == "workers" and value == 1):
            continue
        name = _ALIASES.get(key, key)
        if name not in _FIELD_NAMES:
            raise ConfigError(f"{key}: unknown configuration key")
        merged[name] = value
    if "n_list" in merged:
        merged["n_list"] = parse_n_list(merged["n_list"])
    return RunConfig(**merged)
