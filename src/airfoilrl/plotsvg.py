"""Deterministic SVG line charts for training histories.

Hand-rolled SVG so that identical input bytes always produce identical
output bytes (no library version drift in the artifact).
"""
from __future__ import annotations

import csv
import math

WIDTH, HEIGHT = 640, 400
MARGIN = 50


class PlotError(ValueError):
    pass


def _read_series(path, x_col: str, y_col: str):
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PlotError("empty CSV (no header)")
        if x_col not in reader.fieldnames or y_col not in reader.fieldnames:
            raise PlotError(f"columns {x_col!r}/{y_col!r} not in CSV header")
        for row in reader:
            try:
                x, y = float(row[x_col]), float(row[y_col])
            except (TypeError, ValueError) as exc:
                raise PlotError(f"malformed CSV row: {row}") from exc
            if math.isfinite(x) and math.isfinite(y):
                xs.append(x)
                ys.append(y)
    return xs, ys


def plot_history(history_csv, out_svg, x_col: str = "iteration",
                 y_col: str = "mean_cum_reward") -> None:
    """Render one column of a history CSV as an SVG polyline.

    Points whose x or y is not finite are skipped; an empty (headered)
    CSV, or a column with no finite point, yields an axes-only chart.
    """
    xs, ys = _read_series(history_csv, x_col, y_col)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="14">{x_col}</text>',
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{y_col}</text>',
    ]
    if xs:
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def px(x):
            return MARGIN + (x - x_lo) / x_span * (WIDTH - 2 * MARGIN)

        def py(y):
            return HEIGHT - MARGIN - (y - y_lo) / y_span * (HEIGHT - 2 * MARGIN)

        pts = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in zip(xs, ys))
        if len(xs) == 1:
            lines.append(f'<circle cx="{px(xs[0]):.3f}" cy="{py(ys[0]):.3f}" '
                         'r="3" fill="steelblue"/>')
        else:
            lines.append(f'<polyline points="{pts}" fill="none" '
                         'stroke="steelblue" stroke-width="1.5"/>')
        lines.append(f'<text x="{MARGIN}" y="{MARGIN - 8}" font-size="12">'
                     f'min={y_lo!r} max={y_hi!r}</text>')
    lines.append("</svg>")
    with open(out_svg, "w") as fh:
        fh.write("\n".join(lines) + "\n")
