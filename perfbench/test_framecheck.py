"""Tests for the frame checker: it must reject planted wrong, stale and
malformed frames, and accept every PNG filter an encoder may choose.

    python3 -m pytest perfbench/test_framecheck.py
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from framecheck import (  # noqa: E402
    Frame,
    FrameError,
    Toggle,
    acceptable_states,
    check_frames,
    decode_png,
)

WIDTH, HEIGHT = 8, 5


def _paeth(left: int, up: int, upper_left: int) -> int:
    estimate = left + up - upper_left
    pa, pb, pc = (abs(estimate - left), abs(estimate - up),
                  abs(estimate - upper_left))
    if pa <= pb and pa <= pc:
        return left
    return up if pb <= pc else upper_left


def _filter_row(kind: int, row: bytes, prev: bytes) -> bytes:
    out = bytearray()
    for i, value in enumerate(row):
        left = row[i - 3] if i >= 3 else 0
        up = prev[i]
        upper_left = prev[i - 3] if i >= 3 else 0
        predictor = (0, left, up, (left + up) // 2,
                     _paeth(left, up, upper_left))[kind]
        out.append((value - predictor) & 0xFF)
    return bytes(out)


def encode_png(pixels: np.ndarray, kind: int = 0) -> bytes:
    """A minimal PNG encoder using one filter type for every row."""
    height, width, _ = pixels.shape

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    raw, prev = b"", bytes(width * 3)
    for y in range(height):
        row = pixels[y].tobytes()
        raw += bytes([kind]) + _filter_row(kind, row, prev)
        prev = row
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2,
                                         0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b""))


def _image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, (HEIGHT, WIDTH, 3), dtype=np.uint8)


@pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
def test_decode_every_filter_type(kind):
    pixels = _image(kind)
    assert np.array_equal(decode_png(encode_png(pixels, kind), WIDTH, HEIGHT),
                          pixels)


def test_decode_rejects_wrong_size_and_corruption():
    data = encode_png(_image(0))
    with pytest.raises(FrameError, match="window is"):
        decode_png(data, WIDTH + 1, HEIGHT)
    corrupt = bytearray(data)
    corrupt[40] ^= 0xFF
    with pytest.raises(FrameError):
        decode_png(bytes(corrupt), WIDTH, HEIGHT)
    with pytest.raises(FrameError):
        decode_png(data[:-20], WIDTH, HEIGHT)


# Two data states: state 0 before the update, state 1 after it.
STATES = {0: _image(10), 1: _image(11)}
TOGGLE = Toggle(requested=10.0, applied=11.0)


def _reference(view, phase):
    del view
    return STATES[phase]


def _frame(state: int, sent: float, received: float) -> Frame:
    return Frame(0, "v", sent, received, encode_png(STATES[state]))


def _check(frames):
    return check_frames(frames, WIDTH, HEIGHT, _reference, None, [TOGGLE])


def test_correct_frames_pass():
    assert _check([_frame(0, 1.0, 2.0), _frame(1, 12.0, 13.0)]) == []


def test_frame_overlapping_the_update_may_show_either_state():
    assert acceptable_states(_frame(0, 10.5, 10.7), [TOGGLE]) == {0, 1}
    assert _check([_frame(0, 10.5, 11.5), _frame(1, 10.5, 11.5)]) == []


def test_planted_stale_frame_is_rejected():
    problems = _check([_frame(0, 12.0, 13.0)])
    assert len(problems) == 1 and "stale" in problems[0]


def test_planted_wrong_frame_is_rejected():
    wrong = STATES[1].copy()
    wrong[2, 3] = 255 - wrong[2, 3]
    frame = Frame(0, "v", 12.0, 13.0, encode_png(wrong))
    problems = _check([frame])
    assert len(problems) == 1 and "wrong pixels" in problems[0]


def test_malformed_frame_is_rejected_even_outside_the_sample():
    bad = Frame(0, "v", 1.0, 2.0, b"not a png")
    problems = check_frames([_frame(0, 1.0, 2.0), bad], WIDTH, HEIGHT,
                            _reference, {0}, [TOGGLE])
    assert len(problems) == 1 and "malformed" in problems[0]
