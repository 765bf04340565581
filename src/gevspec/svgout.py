"""Minimal SVG emission for heatmaps; no plotting dependencies.

Heatmaps are drawn as one rect per lattice cell, so resolutions are kept
modest (fields are strided down above a cell budget).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

# viridis-like anchors, dark blue to yellow
_STOPS = np.array([
    [68, 1, 84],
    [59, 82, 139],
    [33, 145, 140],
    [94, 201, 98],
    [253, 231, 37],
], dtype=float)

MAX_CELLS = 40_000
WIDTH_PX = 640


def _color(v: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to RGB triples along the anchor gradient."""
    v = np.clip(v, 0.0, 1.0) * (len(_STOPS) - 1)
    lo = np.floor(v).astype(int)
    hi = np.minimum(lo + 1, len(_STOPS) - 1)
    frac = (v - lo)[..., None]
    return (_STOPS[lo] * (1 - frac) + _STOPS[hi] * frac).astype(int)


def heatmap_svg(values: np.ndarray,
                extent: Tuple[float, float, float, float],
                path: str,
                points: Sequence[complex],
                title: str) -> None:
    """Write log10 of a positive field, colormapped, with a point overlay.

    values has shape (nx, ny) over extent (x_lo, x_hi, y_lo, y_hi) with the
    first axis along x; y increases upward in data coordinates.
    """
    field = np.log10(np.maximum(np.asarray(values, dtype=float), 1e-300))
    stride = 1
    while (field.shape[0] // stride) * (field.shape[1] // stride) > MAX_CELLS:
        stride += 1
    field = field[::stride, ::stride]
    nx, ny = field.shape
    lo, hi = float(field.min()), float(field.max())
    norm = (field - lo) / (hi - lo) if hi > lo else np.zeros_like(field)
    rgb = _color(norm)

    x_lo, x_hi, y_lo, y_hi = extent
    height_px = max(1, int(round(WIDTH_PX * (y_hi - y_lo) / (x_hi - x_lo))))
    cw = WIDTH_PX / nx
    ch = height_px / ny

    def to_px(zx: float, zy: float) -> Tuple[float, float]:
        return ((zx - x_lo) / (x_hi - x_lo) * WIDTH_PX,
                (y_hi - zy) / (y_hi - y_lo) * height_px)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{WIDTH_PX}" height="{height_px + 24}" '
             f'viewBox="0 0 {WIDTH_PX} {height_px + 24}">']
    parts.append(f'<text x="4" y="{height_px + 18}" font-size="13" '
                 f'font-family="monospace">{title} '
                 f'[{lo:.3g}, {hi:.3g}]</text>')
    for i in range(nx):
        for j in range(ny):
            r, g, b = rgb[i, j]
            px, py = to_px(x_lo + (x_hi - x_lo) * i / nx,
                           y_lo + (y_hi - y_lo) * (j + 1) / ny)
            parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" '
                         f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                         f'fill="rgb({r},{g},{b})"/>')
    for z in points:
        if x_lo <= z.real <= x_hi and y_lo <= z.imag <= y_hi:
            px, py = to_px(z.real, z.imag)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                         f'fill="none" stroke="white" stroke-width="1"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
