"""Scalar reference rasterizer: one pixel at a time, the obvious way.

These are the per-pixel loops :class:`repro.render.canvas.Canvas` used
before its primitives became numpy kernels (row-copy fills, glyph-mask and
ring-mask stamps).  They live here only as the oracle for
``test_raster_kernels.py``, which draws the same primitive through both and
requires identical pixel arrays and ``draw_ops``.  Each function paints onto
a ``Canvas`` passed as the first argument.
"""

from __future__ import annotations

from repro.display.drawables import Color
from repro.render.canvas import Canvas
from repro.render.font import CHAR_WIDTH, glyph_rows


def clear(canvas: Canvas) -> None:
    canvas.pixels[:, :] = canvas.background


def _thick_point(canvas: Canvas, x: int, y: int, color: Color, width: int) -> None:
    if width <= 1:
        if canvas.in_bounds(x, y):
            canvas.pixels[y, x] = color
        return
    half = width // 2
    x0 = max(0, x - half)
    y0 = max(0, y - half)
    x1 = min(canvas.width, x + half + 1)
    y1 = min(canvas.height, y + half + 1)
    if x0 < x1 and y0 < y1:
        canvas.pixels[y0:y1, x0:x1] = color


def draw_line(
    canvas: Canvas, x0: float, y0: float, x1: float, y1: float, color: Color,
    width: int = 1,
) -> None:
    """Bresenham line with optional thickness."""
    canvas.draw_ops += 1
    ix0, iy0, ix1, iy1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
    dx = abs(ix1 - ix0)
    dy = -abs(iy1 - iy0)
    sx = 1 if ix0 < ix1 else -1
    sy = 1 if iy0 < iy1 else -1
    err = dx + dy
    x, y = ix0, iy0
    while True:
        _thick_point(canvas, x, y, color, width)
        if x == ix1 and y == iy1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def fill_rect(
    canvas: Canvas, x0: float, y0: float, x1: float, y1: float, color: Color
) -> None:
    canvas.draw_ops += 1
    x0, x1 = min(x0, x1), max(x0, x1)
    y0, y1 = min(y0, y1), max(y0, y1)
    xi0 = max(0, int(round(x0)))
    yi0 = max(0, int(round(y0)))
    xi1 = min(canvas.width, int(round(x1)) + 1)
    yi1 = min(canvas.height, int(round(y1)) + 1)
    if xi0 < xi1 and yi0 < yi1:
        canvas.pixels[yi0:yi1, xi0:xi1] = color


def draw_circle(
    canvas: Canvas, cx: float, cy: float, radius: float, color: Color,
    width: int = 1,
) -> None:
    """Midpoint circle."""
    canvas.draw_ops += 1
    r = int(round(radius))
    if r <= 0:
        _thick_point(canvas, int(round(cx)), int(round(cy)), color, width)
        return
    cxi, cyi = int(round(cx)), int(round(cy))
    x, y = r, 0
    err = 1 - r
    while x >= y:
        for px, py in (
            (cxi + x, cyi + y), (cxi - x, cyi + y),
            (cxi + x, cyi - y), (cxi - x, cyi - y),
            (cxi + y, cyi + x), (cxi - y, cyi + x),
            (cxi + y, cyi - x), (cxi - y, cyi - x),
        ):
            _thick_point(canvas, px, py, color, width)
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1


def draw_text(canvas: Canvas, x: float, y: float, text: str, color: Color) -> None:
    """Paint ``text`` with its top-left corner at (x, y)."""
    canvas.draw_ops += 1
    cursor = int(round(x))
    top = int(round(y))
    for char in text:
        rows = glyph_rows(char)
        for row_index, row_bits in enumerate(rows):
            py = top + row_index
            if not 0 <= py < canvas.height:
                continue
            for col in range(CHAR_WIDTH):
                if row_bits & (1 << (CHAR_WIDTH - 1 - col)):
                    px = cursor + col
                    if 0 <= px < canvas.width:
                        canvas.pixels[py, px] = color
        cursor += CHAR_WIDTH + 1
