"""Minimal deterministic SVG line charts (no plotting dependency).

CSV files are the canonical outputs; these charts are a convenience
rendering of the same numbers.
"""

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 720, 480


def _nice_step(span, target=5):
    if span <= 0:
        return 1.0
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo, hi):
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(v)
        v += step
    return ticks


def _fmt(v):
    return f"{v:.6g}"


def line_chart(file, x, series, title="", xlabel="", ylabel=""):
    """Write a line chart to ``file``.

    ``series`` is a list of (label, y-values) drawn in order with a
    fixed palette, so output bytes depend only on the data."""
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 48
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b
    xs = [float(v) for v in x]
    all_y = [float(v) for _, ys in series for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>'
    )
    # axes
    out.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{margin_t + plot_h}" x2="{px(tx):.2f}" '
            f'y2="{margin_t + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{margin_t + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{margin_l - 5}" y1="{py(ty):.2f}" x2="{margin_l}" '
            f'y2="{py(ty):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{margin_l - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{ylabel}</text>'
    )
    # the pixel coordinates of the polylines: px and py over arrays
    x_px = px(np.array(xs)).tolist()
    for idx, (label, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y_px = py(np.asarray(ys, dtype=np.float64)).tolist()
        pts = " ".join(f"{u:.2f},{v:.2f}" for u, v in zip(x_px, y_px))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin_t + 14 + 16 * idx
        lx = margin_l + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    with open(file, "w") as fh:
        fh.write("\n".join(out) + "\n")
