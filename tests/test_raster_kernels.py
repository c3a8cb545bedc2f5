"""Differential tests: the numpy raster kernels against the scalar reference.

Each example draws one random primitive — or a random sequence of them —
through :class:`~repro.render.canvas.Canvas` and through the per-pixel
loops in ``raster_reference.py``, on two canvases of the same random size
and background, and requires identical pixel arrays and ``draw_ops``.
Positions range well past every edge of the canvas, so clipping on all
four sides and wholly off-canvas primitives are covered; widths cover
0, 1 and even and odd thick lines; radii reach 0; text mixes lowercase,
glyphs missing from the font and the empty string.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raster_reference as ref
from repro.render.canvas import Canvas
from repro.render.font import CHAR_HEIGHT, CHAR_WIDTH, glyph_rows, text_mask

SIZE = st.integers(min_value=1, max_value=24)
COORD = (st.integers(min_value=-30, max_value=60).map(float)
         | st.floats(min_value=-30.0, max_value=60.0, allow_nan=False))
WIDTH = st.integers(min_value=-1, max_value=6)
COLOR = st.tuples(*[st.integers(0, 255)] * 3)
BACKGROUND = st.sampled_from([(255, 255, 255), (10, 20, 30), (0, 0, 0)]) | COLOR
TEXT = st.text(alphabet="AZaz09 .:-%@é☃\tq~", max_size=6)

#: Any line, plus vertical and horizontal ones (the row-copy fill path).
LINE = (
    st.tuples(COORD, COORD, COORD, COORD, COLOR, WIDTH)
    | st.builds(lambda x, y0, y1, c, w: (x, y0, x, y1, c, w),
                COORD, COORD, COORD, COLOR, WIDTH)
    | st.builds(lambda x0, x1, y, c, w: (x0, y, x1, y, c, w),
                COORD, COORD, COORD, COLOR, WIDTH)
)

#: name -> (strategy for the arguments after the canvas, reference function)
PRIMITIVES = {
    "draw_line": (LINE, ref.draw_line),
    "fill_rect": (st.tuples(COORD, COORD, COORD, COORD, COLOR), ref.fill_rect),
    "draw_circle": (
        st.tuples(COORD, COORD, st.floats(0.0, 30.0) | st.just(0.0), COLOR, WIDTH),
        ref.draw_circle,
    ),
    "draw_text": (st.tuples(COORD, COORD, TEXT, COLOR), ref.draw_text),
}

CALL = st.one_of(*[
    st.tuples(st.just(name), args) for name, (args, _) in PRIMITIVES.items()
])


def _pair(width, height, background):
    return (Canvas(width, height, background), Canvas(width, height, background))


def _assert_same(fast: Canvas, slow: Canvas, context) -> None:
    assert fast.draw_ops == slow.draw_ops, context
    assert np.array_equal(fast.pixels, slow.pixels), context


@settings(max_examples=400, deadline=None)
@given(SIZE, SIZE, BACKGROUND, CALL)
def test_primitive_matches_reference(width, height, background, call):
    name, args = call
    fast, slow = _pair(width, height, background)
    getattr(fast, name)(*args)
    PRIMITIVES[name][1](slow, *args)
    _assert_same(fast, slow, call)


@settings(max_examples=100, deadline=None)
@given(SIZE, SIZE, BACKGROUND, st.lists(CALL, max_size=8), st.booleans())
def test_primitive_sequence_matches_reference(width, height, background,
                                              calls, clear_at_end):
    fast, slow = _pair(width, height, background)
    for name, args in calls:
        getattr(fast, name)(*args)
        PRIMITIVES[name][1](slow, *args)
    if clear_at_end:
        fast.clear()
        ref.clear(slow)
    _assert_same(fast, slow, calls)


@pytest.mark.parametrize("name, args", [
    ("draw_text", ("Ag?", (0, 0, 0))),
    ("draw_circle", (3, (0, 0, 0), 2)),
    ("draw_line", (4, (0, 0, 0), 3)),
])
def test_every_clip_offset_matches_reference(name, args):
    """Anchor the primitive at every position across and past all four
    edges of a small canvas: each clip offset on each side occurs."""
    for x in range(-20, 16):
        for y in range(-10, 14):
            fast, slow = _pair(12, 10, (10, 20, 30))
            if name == "draw_line":
                length, color, width = args
                call = (x, y, x + length, y + length // 2, color, width)
            else:
                call = (x, y) + args
            getattr(fast, name)(*call)
            PRIMITIVES[name][1](slow, *call)
            _assert_same(fast, slow, call)


@pytest.mark.parametrize("background", [(255, 255, 255), (10, 20, 30)])
def test_clear_matches_reference(background):
    fast, slow = _pair(17, 9, background)
    fast.fill_rect(2, 2, 30, 5, (1, 2, 3))
    ref.fill_rect(slow, 2, 2, 30, 5, (1, 2, 3))
    fast.clear()
    ref.clear(slow)
    _assert_same(fast, slow, background)
    assert fast.count_nonbackground() == 0


@pytest.mark.parametrize("text", ["", "Ab", "q☃", " "])
def test_text_mask_spells_the_glyph_rows(text):
    mask = text_mask(text)
    assert mask.shape == (CHAR_HEIGHT, len(text) * (CHAR_WIDTH + 1))
    assert not mask.flags.writeable
    assert text_mask(text) is mask
    for index, char in enumerate(text):
        cell = mask[:, index * (CHAR_WIDTH + 1):(index + 1) * (CHAR_WIDTH + 1)]
        assert not cell[:, CHAR_WIDTH].any()
        for row, bits in zip(cell, glyph_rows(char)):
            assert int("".join("1" if b else "0" for b in row[:CHAR_WIDTH]), 2) == bits


def test_copy_keeps_pixels_and_starts_a_fresh_op_count():
    canvas = Canvas(6, 5, (10, 20, 30))
    canvas.draw_circle(2, 2, 2, (200, 0, 0))
    clone = canvas.copy()
    assert np.array_equal(clone.pixels, canvas.pixels)
    assert clone.pixels is not canvas.pixels
    assert (clone.width, clone.height, clone.background) == (6, 5, (10, 20, 30))
    assert clone.draw_ops == 0
