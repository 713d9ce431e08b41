import csv
import hashlib
import math

import numpy as np
import pytest
from scipy.special import stdtrit

from fracstoch import report
from fracstoch.fields import Field
from fracstoch.report import (
    CSV_HEADER,
    CheckResult,
    ExperimentReport,
    fit_slope,
    write_csv,
    write_field_csv,
    write_svg,
)


def test_fit_slope_exact_power_laws():
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    slope, half = fit_slope([(x, x**2) for x in xs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert half == pytest.approx(0.0, abs=1e-10)
    slope, _ = fit_slope([(x, 3.0 / x) for x in xs])
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_slope_noisy_power_law():
    rng = np.random.default_rng(0)
    xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    ys = xs**-0.5 * (1.0 + 0.01 * rng.standard_normal(xs.size))
    slope, half = fit_slope(list(zip(xs, ys)))
    assert -0.6 <= slope <= -0.4
    assert half < 0.1


def test_t_table_is_scipys_quantile_bit_for_bit():
    # the table keeps every _slope row's bits: df 2 and 3 are the default fits
    assert len(report._T975) == 30
    for df, t in enumerate(report._T975, start=1):
        assert t.hex() == float(stdtrit(df, 0.975)).hex(), df


def test_fit_slope_past_the_table_asks_scipy():
    # 33 points are df 31, one past the table
    xs = np.arange(1.0, 34.0)
    ys = xs**-0.5 * np.exp(0.01 * np.sin(7.0 * xs))
    slope, half = fit_slope(list(zip(xs, ys)))
    lx, ly = np.log(xs), np.log(ys)
    resid = ly - (ly.mean() + slope * (lx - lx.mean()))
    se = math.sqrt(float(np.sum(resid**2)) / 31 / float(np.sum((lx - lx.mean()) ** 2)))
    assert half == pytest.approx(float(stdtrit(31, 0.975)) * se, rel=1e-12)
    assert half != pytest.approx(report._T975[-1] * se, rel=1e-6)


def test_fit_slope_rejections():
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)])
    with pytest.raises(ValueError):
        fit_slope([(0.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
    # no abscissa spread, or one off the finite line: no slope to fit
    for xs in ([1.0] * 4, [1.0, 2.0, 3.0, math.inf], [1.0, 2.0, math.nan, 4.0]):
        with pytest.raises(ValueError, match="finite positive x, not all equal"):
            fit_slope([(x, float(i + 1)) for i, x in enumerate(xs)])
    # log(inf) would leave an inf - inf residual; a NaN y stays a NaN slope
    with pytest.raises(ValueError, match="finite positive y"):
        fit_slope([(1, 1), (2, 2), (3, 3), (4, math.inf)])
    assert math.isnan(fit_slope([(1, 1), (2, 2), (3, 3), (4, math.nan)])[0])


def _small_report():
    rep = ExperimentReport("demo")
    rep.add("a", 8, "err", 0.5, 0.01)
    rep.add("a", 16, "err", 0.25, 0.005)
    rep.add("a", 32, "err", 0.125)
    rep.add("b", 8, "other", 1.0)
    rep.check("ok", 0.5, hi=1.0)
    return rep


def test_report_passed():
    rep = _small_report()
    assert rep.passed
    rep.check("bad", 2.0, hi=1.0)
    assert not rep.passed


def test_check_bounds_are_inclusive():
    assert CheckResult("edge", 1.0, lo=1.0, hi=1.0).passed
    assert CheckResult("low", 0.5, lo=0.5).passed
    assert not CheckResult("below", math.nextafter(0.5, 0.0), lo=0.5).passed
    assert not CheckResult("above", math.nextafter(1.0, 2.0), hi=1.0).passed


def test_check_nan_value_fails():
    assert not CheckResult("nan", math.nan).passed
    assert not CheckResult("nan", math.nan, lo=0.0, hi=1.0).passed
    rep = ExperimentReport("demo")
    rep.check("nan", np.nan, hi=1.0)
    assert not rep.passed


def test_check_detail_shows_only_finite_bounds():
    assert CheckResult("a", 0.0253, hi=0.2).detail == "2.530e-02 <= 2.000e-01"
    assert CheckResult("a", 3.0, lo=1.0).detail == "1.000e+00 <= 3.000e+00"
    assert CheckResult("a", -0.3, -0.5, -0.1).detail == "-5.000e-01 <= -3.000e-01 <= -1.000e-01"
    assert CheckResult("a", 17.0).detail == "1.700e+01"


def test_csv_format_and_determinism(tmp_path):
    rep = _small_report()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rep, p1)
    write_csv(rep, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    text = b1.decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "experiment,param,n,metric,value,stderr"
    assert lines[1] == "demo,a,8.0,err,0.5,0.01"
    assert "\r" not in text
    assert len(lines) == 1 + len(rep.rows)


def test_csv_quotes_a_param_with_a_comma(tmp_path):
    rep = ExperimentReport("demo")
    rep.add("n=8,sigma=0.05", 8, "mse", 0.5, 0.01)
    path = tmp_path / "a.csv"
    write_csv(rep, path)
    assert path.read_text().splitlines()[1] == 'demo,"n=8,sigma=0.05",8.0,mse,0.5,0.01'
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [6, 6]
    assert rows[1] == ["demo", "n=8,sigma=0.05", "8.0", "mse", "0.5", "0.01"]


def test_field_csv_round_trips_bit_for_bit(tmp_path):
    u = Field(np.random.default_rng(1).standard_normal(128), 2 * np.pi / 128)
    path = tmp_path / "field.csv"
    write_field_csv(u, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["x", "u"]
    x, v = np.array(rows, dtype=float).T
    assert np.array_equal(x, u.coords())
    assert np.array_equal(v, u.values)


def test_svg_self_contained(tmp_path):
    rep = _small_report()
    path = tmp_path / "plot.svg"
    write_svg(rep, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")  # no external assets


def test_svg_handles_empty_series(tmp_path):
    rep = ExperimentReport("empty")
    rep.add("a", 8, "err", -1.0)  # nonpositive: not plottable
    path = tmp_path / "plot.svg"
    write_svg(rep, path)
    assert "no positive series" in path.read_text()


@pytest.mark.parametrize("field", ["n", "value"])
def test_svg_leaves_out_infinite_points(tmp_path, field):
    # an infinite point has no decade to tick; the plot is the finite rows' plot
    rep = _small_report()
    write_svg(rep, tmp_path / "finite.svg")
    rep.add(**{"param": "a", "n": 64, "metric": "err", "value": 0.1, field: math.inf})
    write_svg(rep, tmp_path / "inf.svg")
    assert (tmp_path / "inf.svg").read_bytes() == (tmp_path / "finite.svg").read_bytes()


def test_svg_bytes_pinned(tmp_path):
    # three series over 2.8 decades in x and 6.4 in y; the slope row, the
    # non-positive value and the one-point series are all left out
    rep = ExperimentReport("pinned")
    for n, v in [(8, 0.3), (16, 0.11), (32, 0.04), (64, 0.013)]:
        rep.add("n=8,sigma=0.05", n, "err", v)
        rep.add("b", n, "err", v**3)
    rep.add("n=8,sigma=0.05", 0, "err_slope", -1.4, 0.1)
    for n, v in [(10, 5.0), (100, 0.5), (500, 0.0), (1000, 0.07), (5000, 0.02)]:
        rep.add("c", n, "var", v)
    rep.add("lonely", 16, "err", 0.5)
    path = tmp_path / "plot.svg"
    write_svg(rep, path)
    text = path.read_text()
    assert text.count("<polyline") == 3 and "lonely" not in text
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "2e3fb0014818ef2c3a004dfa40f40accffbd23a823ad9feb6dd31a3a4bf540eb"
