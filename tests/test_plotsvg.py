"""SVG history plot tests."""
import pytest

from airfoilrl.plotsvg import plot_history
from airfoilrl.tables import TableError


def write_csv(path, rows):
    lines = ["iteration,mean_cum_reward"]
    lines += [f"{i},{v!r}" for i, v in rows]
    path.write_text("\n".join(lines) + "\n")


def test_plot_produces_svg(tmp_path):
    csv_path = tmp_path / "hist.csv"
    write_csv(csv_path, [(0, -1.0), (1, 0.5), (2, 2.0)])
    out = tmp_path / "hist.svg"
    plot_history(csv_path, out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_plot_byte_deterministic(tmp_path):
    csv_path = tmp_path / "hist.csv"
    write_csv(csv_path, [(i, float(i) ** 1.5 - 2.0) for i in range(20)])
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    plot_history(csv_path, out1)
    plot_history(csv_path, out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_plot_empty_history_axes_only(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("iteration,mean_cum_reward\n")
    out = tmp_path / "empty.svg"
    plot_history(csv_path, out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" not in text


def test_plot_missing_column_raises(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("foo,bar\n1,2\n")
    with pytest.raises(TableError):
        plot_history(csv_path, tmp_path / "bad.svg")


def test_plot_skips_non_finite_points(tmp_path):
    # a PPO history's first row holds NaN losses
    nan, inf = float("nan"), float("inf")
    charts = {}
    for name, rows in (("mixed", [(0, nan), (1, 0.5), (2, 2.0), (3, inf)]),
                       ("finite", [(1, 0.5), (2, 2.0)]),
                       ("all_nan", [(0, nan), (1, nan)]), ("empty", [])):
        write_csv(tmp_path / f"{name}.csv", rows)
        plot_history(tmp_path / f"{name}.csv", tmp_path / f"{name}.svg")
        charts[name] = (tmp_path / f"{name}.svg").read_bytes()
    assert b"nan" not in charts["mixed"] and b"polyline" in charts["mixed"]
    assert charts["mixed"] == charts["finite"]
    assert charts["all_nan"] == charts["empty"]
