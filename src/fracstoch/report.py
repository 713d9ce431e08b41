"""Experiment reports: tabular rows, slope fits, CSV and SVG emission.

CSV schema (one metric per row, fixed order, LF endings):

    experiment,param,n,metric,value,stderr

The ``n`` column holds the experiment abscissa (lattice n, step count, or
an evaluation point, depending on the experiment).  Fitted slopes are
appended as ``<metric>_slope`` rows whose stderr column carries the 95%
half-width.  A field that contains a comma (a ``param`` tag such as
``n=8,sigma=0.05``) is double-quoted, so every row parses into six
fields.  Identical configs and seeds reproduce CSV files byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from .fields import Field

__all__ = [
    "ReportRow",
    "CheckResult",
    "ExperimentReport",
    "fit_slope",
    "write_csv",
    "write_svg",
]

CSV_HEADER = "experiment,param,n,metric,value,stderr"
FIT_MIN_POINTS = 4


@dataclass(frozen=True)
class ReportRow:
    param: str
    n: float
    metric: str
    value: float
    stderr: float = 0.0


@dataclass(frozen=True)
class CheckResult:
    """A named tolerance window lo <= value <= hi; failures flip the CLI exit code."""

    name: str
    value: float
    lo: float = -math.inf
    hi: float = math.inf

    @property
    def passed(self) -> bool:
        # a NaN value fails both comparisons
        return self.lo <= self.value <= self.hi

    @property
    def detail(self) -> str:
        text = f"{self.value:.3e}"
        if math.isfinite(self.lo):
            text = f"{self.lo:.3e} <= {text}"
        if math.isfinite(self.hi):
            text = f"{text} <= {self.hi:.3e}"
        return text


@dataclass
class ExperimentReport:
    experiment: str
    rows: list[ReportRow] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    final_field: Field | None = None  # last solver state, saved as a field snapshot

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, param: str, n: float, metric: str, value: float, stderr: float = 0.0) -> None:
        self.rows.append(ReportRow(param, n, metric, value, stderr))

    def check(self, name: str, value: float, lo: float = -math.inf, hi: float = math.inf) -> None:
        self.checks.append(CheckResult(name, float(value), float(lo), float(hi)))


def fit_slope(points) -> tuple[float, float]:
    """OLS slope of log y on log x with a 95% half-width.

    Needs at least ``FIT_MIN_POINTS`` strictly positive points; the
    half-width uses the textbook slope standard error and the Student t
    quantile.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} points for a slope fit, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("slope fits require strictly positive coordinates")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    m = len(pts)
    lxc = lx - lx.mean()
    sxx = float(np.sum(lxc**2))
    slope = float(np.sum(lxc * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    var = float(np.sum(resid**2)) / (m - 2) if m > 2 else 0.0
    se = math.sqrt(var / sxx)
    half = float(scipy.special.stdtrit(m - 2, 0.975)) * se
    return slope, half


def _fmt(v: float) -> str:
    # repr keeps the shortest round-trip form, stable across platforms
    return repr(float(v))


def write_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in report.rows:
            writer.writerow(
                [report.experiment, r.param, _fmt(r.n), r.metric, _fmt(r.value), _fmt(r.stderr)]
            )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_W, _H, _PAD = 640, 440, 56


def _ticks(lo: float, hi: float) -> list[float]:
    lo_d = math.floor(lo)
    hi_d = math.ceil(hi)
    return [float(d) for d in range(int(lo_d), int(hi_d) + 1)]


def write_svg(report: ExperimentReport, path) -> None:
    """Self-contained log-log plot, one polyline per (param, metric) series.

    Only strictly positive values are plottable; series with fewer than
    two such points are skipped, and so are slope rows, which are not
    curves.
    """
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in report.rows:
        if r.metric.endswith("_slope"):
            continue
        if r.n > 0 and r.value > 0:
            groups.setdefault((r.param, r.metric), []).append((r.n, r.value))
    groups = {k: v for k, v in groups.items() if len(v) >= 2}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle">{report.experiment} (log-log)</text>',
    ]
    if groups:
        all_pts = [p for pts in groups.values() for p in pts]
        lx = [math.log10(p[0]) for p in all_pts]
        ly = [math.log10(p[1]) for p in all_pts]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0

        def sx(v: float) -> float:
            return _PAD + (math.log10(v) - x0) / (x1 - x0) * (_W - 2 * _PAD)

        def sy(v: float) -> float:
            return _H - _PAD - (math.log10(v) - y0) / (y1 - y0) * (_H - 2 * _PAD)

        parts.append(
            f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
            'fill="none" stroke="#888"/>'
        )
        for t in _ticks(x0, x1):
            if x0 <= t <= x1:
                px = _PAD + (t - x0) / (x1 - x0) * (_W - 2 * _PAD)
                parts.append(
                    f'<line x1="{px:.1f}" y1="{_H - _PAD}" x2="{px:.1f}" y2="{_H - _PAD + 4}" stroke="#444"/>'
                )
                parts.append(
                    f'<text x="{px:.1f}" y="{_H - _PAD + 16}" text-anchor="middle">1e{int(t)}</text>'
                )
        for t in _ticks(y0, y1):
            if y0 <= t <= y1:
                py = _H - _PAD - (t - y0) / (y1 - y0) * (_H - 2 * _PAD)
                parts.append(
                    f'<line x1="{_PAD - 4}" y1="{py:.1f}" x2="{_PAD}" y2="{py:.1f}" stroke="#444"/>'
                )
                parts.append(
                    f'<text x="{_PAD - 6}" y="{py + 3:.1f}" text-anchor="end">1e{int(t)}</text>'
                )
        for i, (key, pts) in enumerate(sorted(groups.items())):
            color = _PALETTE[i % len(_PALETTE)]
            pts = sorted(pts)
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{_W - _PAD - 4}" y="{_PAD + 14 + 13 * i}" text-anchor="end" '
                f'fill="{color}">{key[0]}:{key[1]}</text>'
            )
    else:
        parts.append(f'<text x="{_W / 2:.0f}" y="{_H / 2:.0f}" text-anchor="middle">no positive series</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
