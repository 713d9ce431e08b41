"""Experiment reports: tabular rows, slope fits, CSV and SVG emission.

CSV schema (one metric per row, fixed order, LF endings):

    experiment,param,n,metric,value,stderr

The ``n`` column holds the experiment abscissa (lattice n, step count, or
an evaluation point, depending on the experiment).  Fitted slopes are
appended as ``<metric>_slope`` rows whose stderr column carries the 95%
half-width.  A field that contains a comma (a ``param`` tag such as
``n=8,sigma=0.05``) is double-quoted, so every row parses into six
fields.  The burgers field snapshot uses the same dialect with header
``x,u``.  Identical configs and seeds reproduce CSV files byte for byte.
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
    "write_field_csv",
    "write_svg",
]

CSV_HEADER = "experiment,param,n,metric,value,stderr"
FIT_MIN_POINTS = 4
# t quantiles of the 95% half-width, stdtrit(df, 0.975) for df = 1 .. 30.  Each
# entry is the repr of scipy's value, so a fit of up to 32 points keeps its bits
# and loads no scipy.special.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


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

    def mc_check(self, name: str, estimate: float, law: float, se: float) -> None:
        """The one Monte-Carlo rule: |estimate - law| within 3 standard errors."""
        self.check(name, abs(estimate - law), hi=3.0 * se)


def fit_slope(points) -> tuple[float, float]:
    """OLS slope of log y on log x with a 95% half-width.

    Needs at least ``FIT_MIN_POINTS`` points with finite positive x, not all
    equal, and positive y other than inf (a NaN y gives a NaN slope).  The
    half-width uses the textbook slope standard error and the 0.975 quantile
    of Student's t with m - 2 degrees of freedom.  For m <= 32 points that
    quantile is read from ``_T975``; a longer fit asks
    ``scipy.special.stdtrit``, which scipy loads on first use.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} points for a slope fit, got {len(pts)}")
    bad = any(not 0 < x < math.inf or y <= 0 or y == math.inf for x, y in pts)
    if bad or len({x for x, _ in pts}) == 1:
        raise ValueError("slope fits need finite positive x, not all equal, and finite positive y")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    m = len(pts)
    lxc = lx - lx.mean()
    sxx = float(np.sum(lxc**2))
    slope = float(np.sum(lxc * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    df = m - 2
    var = float(np.sum(resid**2)) / df
    se = math.sqrt(var / sxx)
    t = _T975[df - 1] if df <= len(_T975) else float(scipy.special.stdtrit(df, 0.975))
    return slope, t * se


def _write_table(path, header: str, rows) -> None:
    """The one CSV dialect: UTF-8, LF endings, csv.writer quoting, and every
    non-string cell as repr(float), the shortest form that round-trips."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


def write_csv(report: ExperimentReport, path) -> None:
    rows = ((report.experiment, r.param, r.n, r.metric, r.value, r.stderr) for r in report.rows)
    _write_table(path, CSV_HEADER, rows)


def write_field_csv(u: Field, path) -> None:
    """Field snapshot, one row x,u per sample; lossless, since repr round-trips float64."""
    _write_table(path, "x,u", zip(u.coords(), u.values))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_W, _H, _PAD = 640, 440, 56


def write_svg(report: ExperimentReport, path) -> None:
    """Self-contained log-log plot, one polyline per (param, metric) series.

    Only points whose n and value are finite and strictly positive are
    plottable; series with fewer than two such points are skipped, and so
    are slope rows, which are not curves.
    """
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in report.rows:
        if 0 < r.n < math.inf and 0 < r.value < math.inf and not r.metric.endswith("_slope"):
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

        # log10 of a value -> pixel, for the ticks and the polylines alike
        def px(lv: float) -> float:
            return _PAD + (lv - x0) / (x1 - x0) * (_W - 2 * _PAD)

        def py(lv: float) -> float:
            return _H - _PAD - (lv - y0) / (y1 - y0) * (_H - 2 * _PAD)

        parts.append(
            f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
            'fill="none" stroke="#888"/>'
        )
        for t in range(math.ceil(x0), math.floor(x1) + 1):  # whole decades
            x = px(t)
            parts.append(f'<line x1="{x:.1f}" y1="{_H - _PAD}" x2="{x:.1f}" y2="{_H - _PAD + 4}" stroke="#444"/>')
            parts.append(f'<text x="{x:.1f}" y="{_H - _PAD + 16}" text-anchor="middle">1e{t}</text>')
        for t in range(math.ceil(y0), math.floor(y1) + 1):
            y = py(t)
            parts.append(f'<line x1="{_PAD - 4}" y1="{y:.1f}" x2="{_PAD}" y2="{y:.1f}" stroke="#444"/>')
            parts.append(f'<text x="{_PAD - 6}" y="{y + 3:.1f}" text-anchor="end">1e{t}</text>')
        for i, (key, pts) in enumerate(sorted(groups.items())):
            color = _PALETTE[i % len(_PALETTE)]
            coords = " ".join(f"{px(math.log10(x)):.2f},{py(math.log10(y)):.2f}" for x, y in sorted(pts))
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
