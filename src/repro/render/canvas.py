"""The raster canvas: a numpy RGB framebuffer with clipped drawing primitives.

This is the stand-in for the X11/Tk surface the original system painted on.
It offers exactly the primitives the paper's drawables need — lines
(Bresenham with width), rectangles, circles (midpoint), polygons (scanline
fill), bitmap text — plus blitting (for nested wormhole/magnifier viewers),
PPM export, and an ASCII view for terminals and tests.

All coordinates are float pixels (x right, y down) and are clipped to the
canvas bounds; drawing off-canvas is silently partial, never an error.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.display.drawables import Color, resolve_color
from repro.errors import DisplayError
from repro.obs.trace import current_tracer
from repro.render.font import text_mask

__all__ = ["Canvas", "WHITE", "BLACK"]

WHITE: Color = (255, 255, 255)
BLACK: Color = (0, 0, 0)


class Canvas:
    """A width x height RGB framebuffer."""

    def __init__(self, width: int, height: int, background: Color = WHITE):
        if width < 1 or height < 1:
            raise DisplayError(f"canvas size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.background = resolve_color(background)
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.uint8)
        #: Primitive draw calls since creation (lines, fills, text, blits);
        #: surfaced as the ``render.draw_ops`` metric and span attribute.
        self.draw_ops = 0
        self.clear()

    def clear(self) -> None:
        self._fill(self.pixels, self.background)

    @staticmethod
    def _fill(region: np.ndarray, color: Color) -> None:
        """Paint a (rows, columns, 3) view: set its first row, copy it down
        (~60x faster than broadcasting the color over the stride-3 axis)."""
        if region.size:
            region[0] = color
            region[1:] = region[0]

    def _box(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """The pixels of the half-open box [x0, x1) x [y0, y1), clipped."""
        return self.pixels[
            max(0, y0) : max(0, min(self.height, y1)),
            max(0, x0) : max(0, min(self.width, x1)),
        ]

    # ------------------------------------------------------------------
    # Pixel access
    # ------------------------------------------------------------------

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def set_pixel(self, x: float, y: float, color: Color) -> None:
        xi, yi = int(round(x)), int(round(y))
        if self.in_bounds(xi, yi):
            self.pixels[yi, xi] = color

    def pixel(self, x: int, y: int) -> Color:
        if not self.in_bounds(x, y):
            raise DisplayError(f"pixel ({x}, {y}) outside {self.width}x{self.height}")
        r, g, b = self.pixels[y, x]
        return (int(r), int(g), int(b))

    def count_nonbackground(self) -> int:
        """Number of painted pixels — the workhorse assertion in tests."""
        return int((self.pixels != np.array(self.background)).any(axis=2).sum())

    def colors_used(self) -> set[Color]:
        """Distinct non-background colors present on the canvas."""
        flat = self.pixels.reshape(-1, 3)
        unique = np.unique(flat, axis=0)
        return {
            (int(r), int(g), int(b))
            for r, g, b in unique
            if (int(r), int(g), int(b)) != self.background
        }

    def region_nonbackground(self, x0: int, y0: int, x1: int, y1: int) -> int:
        """Painted pixels within a clipped rectangle."""
        x0 = max(0, x0)
        y0 = max(0, y0)
        x1 = min(self.width, x1)
        y1 = min(self.height, y1)
        if x0 >= x1 or y0 >= y1:
            return 0
        region = self.pixels[y0:y1, x0:x1]
        return int((region != np.array(self.background)).any(axis=2).sum())

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def _thick_point(self, x: int, y: int, color: Color, width: int) -> None:
        if width <= 1:
            if self.in_bounds(x, y):
                self.pixels[y, x] = color
            return
        half = width // 2
        self._fill(self._box(x - half, y - half, x + half + 1, y + half + 1), color)

    def draw_line(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        """Bresenham line with optional thickness."""
        self.draw_ops += 1
        ix0, iy0, ix1, iy1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
        if ix0 == ix1 or iy0 == iy1:
            # Axis-aligned: the line's thick points tile one box.
            half = width // 2 if width > 1 else 0
            self._fill(self._box(
                min(ix0, ix1) - half, min(iy0, iy1) - half,
                max(ix0, ix1) + half + 1, max(iy0, iy1) + half + 1,
            ), color)
            return
        dx = abs(ix1 - ix0)
        dy = -abs(iy1 - iy0)
        sx = 1 if ix0 < ix1 else -1
        sy = 1 if iy0 < iy1 else -1
        err = dx + dy
        x, y = ix0, iy0
        while True:
            self._thick_point(x, y, color, width)
            if x == ix1 and y == iy1:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy

    def draw_rect(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        self.draw_line(x0, y0, x1, y0, color, width)
        self.draw_line(x1, y0, x1, y1, color, width)
        self.draw_line(x1, y1, x0, y1, color, width)
        self.draw_line(x0, y1, x0, y0, color, width)

    def fill_rect(self, x0: float, y0: float, x1: float, y1: float, color: Color) -> None:
        self.draw_ops += 1
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        self._fill(self._box(
            int(round(x0)), int(round(y0)), int(round(x1)) + 1, int(round(y1)) + 1
        ), color)

    def draw_circle(
        self, cx: float, cy: float, radius: float, color: Color, width: int = 1
    ) -> None:
        """Midpoint circle, stamped from a cached ring (see :func:`_ring`)."""
        self.draw_ops += 1
        dy, dx = _ring(max(0, int(round(radius))), width // 2 if width > 1 else 0)
        ys = dy + int(round(cy))
        xs = dx + int(round(cx))
        inside = (ys >= 0) & (ys < self.height) & (xs >= 0) & (xs < self.width)
        self.pixels[ys[inside], xs[inside]] = color

    def fill_circle(self, cx: float, cy: float, radius: float, color: Color) -> None:
        self.draw_ops += 1
        r = radius
        if r <= 0:
            self.set_pixel(cx, cy, color)
            return
        y0 = max(0, int(math.floor(cy - r)))
        y1 = min(self.height - 1, int(math.ceil(cy + r)))
        for y in range(y0, y1 + 1):
            dy = y - cy
            span = r * r - dy * dy
            if span < 0:
                continue
            half = math.sqrt(span)
            x0 = max(0, int(round(cx - half)))
            x1 = min(self.width - 1, int(round(cx + half)))
            if x0 <= x1:
                self.pixels[y, x0 : x1 + 1] = color

    def draw_polygon(
        self, points: list[tuple[float, float]], color: Color, width: int = 1
    ) -> None:
        if len(points) < 2:
            return
        for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
            self.draw_line(x0, y0, x1, y1, color, width)

    def fill_polygon(self, points: list[tuple[float, float]], color: Color) -> None:
        """Even-odd scanline fill."""
        self.draw_ops += 1
        if len(points) < 3:
            return
        ys = [p[1] for p in points]
        y0 = max(0, int(math.floor(min(ys))))
        y1 = min(self.height - 1, int(math.ceil(max(ys))))
        n = len(points)
        for y in range(y0, y1 + 1):
            scan = y + 0.5
            crossings: list[float] = []
            for i in range(n):
                ax, ay = points[i]
                bx, by = points[(i + 1) % n]
                if (ay <= scan < by) or (by <= scan < ay):
                    t = (scan - ay) / (by - ay)
                    crossings.append(ax + t * (bx - ax))
            crossings.sort()
            for left, right in zip(crossings[::2], crossings[1::2]):
                xi0 = max(0, int(round(left)))
                xi1 = min(self.width - 1, int(round(right)))
                if xi0 <= xi1:
                    self.pixels[y, xi0 : xi1 + 1] = color

    def draw_text(self, x: float, y: float, text: str, color: Color) -> None:
        """Paint ``text`` with its top-left corner at (x, y): one masked,
        clipped assignment of the string's cached glyph mask."""
        self.draw_ops += 1
        mask = text_mask(text)
        left, top = int(round(x)), int(round(y))
        region = self._box(left, top, left + mask.shape[1], top + mask.shape[0])
        dy, dx = max(0, -top), max(0, -left)
        region[mask[dy : dy + region.shape[0], dx : dx + region.shape[1]]] = color

    # ------------------------------------------------------------------
    # Composition and export
    # ------------------------------------------------------------------

    def blit(self, other: "Canvas", x: float, y: float) -> None:
        """Paint another canvas onto this one with top-left at (x, y)."""
        self.draw_ops += 1
        xi, yi = int(round(x)), int(round(y))
        src_x0 = max(0, -xi)
        src_y0 = max(0, -yi)
        dst_x0 = max(0, xi)
        dst_y0 = max(0, yi)
        copy_w = min(other.width - src_x0, self.width - dst_x0)
        copy_h = min(other.height - src_y0, self.height - dst_y0)
        if copy_w <= 0 or copy_h <= 0:
            return
        self.pixels[dst_y0 : dst_y0 + copy_h, dst_x0 : dst_x0 + copy_w] = other.pixels[
            src_y0 : src_y0 + copy_h, src_x0 : src_x0 + copy_w
        ]

    def ppm_bytes(self) -> bytes:
        """The binary PPM (P6) encoding — the server's raw frame payload."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    def to_ppm(self, path: str | Path) -> Path:
        """Write a binary PPM (P6) image — viewable by any image tool."""
        path = Path(path)
        with current_tracer().span("canvas.export", format="ppm",
                                   px=self.width * self.height):
            path.write_bytes(self.ppm_bytes())
        return path

    def png_bytes(self) -> bytes:
        """The PNG (8-bit RGB, zlib-compressed) encoding, stdlib only."""
        import struct
        import zlib

        def chunk(tag: bytes, payload: bytes) -> bytes:
            return (
                struct.pack(">I", len(payload))
                + tag
                + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
            )

        header = struct.pack(
            ">IIBBBBB", self.width, self.height, 8, 2, 0, 0, 0
        )
        # Each scanline gets filter byte 0 (None).
        raw = np.zeros((self.height, 1 + 3 * self.width), dtype=np.uint8)
        raw[:, 1:] = self.pixels.reshape(self.height, -1)
        return (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw, level=6))
            + chunk(b"IEND", b"")
        )

    def to_png(self, path: str | Path) -> Path:
        """Write a PNG (8-bit RGB, zlib-compressed) using only the stdlib."""
        path = Path(path)
        with current_tracer().span("canvas.export", format="png",
                                   px=self.width * self.height):
            path.write_bytes(self.png_bytes())
        return path

    def to_ascii(self, columns: int = 80) -> str:
        """Downsample to an ASCII view (darker pixels → denser glyphs)."""
        columns = max(1, min(columns, self.width))
        cell_w = self.width / columns
        rows = max(1, int(round(self.height / (cell_w * 2))))
        cell_h = self.height / rows
        ramp = " .:-=+*#%@"
        lines = []
        luminance = self.pixels.astype(np.float64).mean(axis=2)
        for row in range(rows):
            y0 = int(row * cell_h)
            y1 = max(y0 + 1, int((row + 1) * cell_h))
            line_chars = []
            for col in range(columns):
                x0 = int(col * cell_w)
                x1 = max(x0 + 1, int((col + 1) * cell_w))
                mean = luminance[y0:y1, x0:x1].mean()
                darkness = 1.0 - mean / 255.0
                index = min(len(ramp) - 1, int(darkness * (len(ramp) - 1) + 0.5))
                line_chars.append(ramp[index])
            lines.append("".join(line_chars).rstrip())
        return "\n".join(lines)

    def copy(self) -> "Canvas":
        clone = Canvas.__new__(Canvas)
        clone.__dict__.update(self.__dict__, pixels=self.pixels.copy(), draw_ops=0)
        return clone

    def __repr__(self) -> str:
        return f"Canvas({self.width}x{self.height})"


@lru_cache(maxsize=64)
def _ring(radius: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel offsets (dy, dx) of a midpoint circle whose points are squares
    reaching ``half`` pixels each way.  Sparse, not a dense mask: world-unit
    circles can outgrow the canvas, and a mask costs radius squared."""
    points = []
    x, y = radius, 0
    err = 1 - radius
    while x >= y:
        points += [(y, x), (y, -x), (-y, x), (-y, -x),
                   (x, y), (x, -y), (-x, y), (-x, -y)]
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1
    centres = np.array(points)
    square = np.arange(-half, half + 1)
    dy, dx = np.broadcast_arrays(centres[:, 0, None, None] + square[:, None],
                                 centres[:, 1, None, None] + square[None, :])
    offsets = np.unique(np.stack([dy.ravel(), dx.ravel()]), axis=1)
    offsets.setflags(write=False)
    return offsets[0], offsets[1]
