"""Output checks for delivered frames, run after the timed window.

Frames are compared as pixels, never as PNG bytes, so an encoder change
(filters, compression level) stays comparable.  This module only needs
numpy: the reference pixels come from the caller.

- :func:`decode_png` is the structural check: signature, chunk CRCs, an
  8-bit RGB ``IHDR`` of the window's size, and image data that inflates to
  exactly one filtered scanline per row.  It returns the pixels.
- :func:`acceptable_states` decides which data states a frame may show
  when updates run beside the reads: every state current at some instant
  between the frame's request and its reply.
- :func:`check_frames` applies both to a run's frames and returns one
  violation message per bad frame.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class FrameError(ValueError):
    """A frame that is not a valid PNG of the expected size."""


@dataclass
class Frame:
    """One delivered frame, as the client saw it."""

    client: int
    view: Hashable       #: the view the client asked for
    sent: float          #: perf_counter() when Render was sent
    received: float      #: perf_counter() when the FrameReply arrived
    data: bytes          #: the decoded (base64) PNG payload
    trace_id: str | None = None
    #: CPU ms the server and load-generator processes used from send to
    #: receive (see ``run.py``)
    cpu_ms: float = 0.0


@dataclass
class Toggle:
    """One applied update to the data the frames show: requested at
    ``requested`` and acknowledged as applied at ``applied``."""

    requested: float
    applied: float


def decode_png(data: bytes, width: int, height: int) -> np.ndarray:
    """Validate ``data`` as an 8-bit RGB PNG of ``width`` x ``height`` and
    return its pixels as a ``(height, width, 3)`` uint8 array."""
    if not data.startswith(PNG_SIGNATURE):
        raise FrameError("missing PNG signature")
    pos = len(PNG_SIGNATURE)
    header = None
    idat: list[bytes] = []
    ended = False
    while pos < len(data):
        if pos + 8 > len(data):
            raise FrameError("truncated chunk header")
        length, tag = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        crc_bytes = data[pos + 8 + length:pos + 12 + length]
        if len(body) != length or len(crc_bytes) != 4:
            raise FrameError(f"truncated {tag!r} chunk")
        if zlib.crc32(tag + body) & 0xFFFFFFFF != struct.unpack(
                ">I", crc_bytes)[0]:
            raise FrameError(f"bad CRC on {tag!r} chunk")
        pos += 12 + length
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            ended = True
            break
    if header is None or not ended or not idat:
        raise FrameError("missing IHDR, IDAT or IEND")
    got_w, got_h, depth, color, _, _, interlace = header
    if (got_w, got_h) != (width, height):
        raise FrameError(f"frame is {got_w}x{got_h}, window is "
                         f"{width}x{height}")
    if (depth, color, interlace) != (8, 2, 0):
        raise FrameError(f"not 8-bit non-interlaced RGB: depth={depth} "
                         f"color={color} interlace={interlace}")
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise FrameError(f"image data does not inflate: {exc}") from exc
    stride = width * 3
    if len(raw) != height * (stride + 1):
        raise FrameError(f"image data is {len(raw)} bytes, expected "
                         f"{height * (stride + 1)}")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    return _unfilter(rows, width).reshape(height, width, 3)


def _unfilter(rows: np.ndarray, width: int) -> np.ndarray:
    filters = rows[:, 0]
    out = rows[:, 1:].copy()
    if not filters.any():
        return out
    prev = np.zeros(width * 3, dtype=np.uint8)
    for y, kind in enumerate(filters):
        line = out[y]
        if kind == 1:    # Sub: running sum per channel, mod 256
            line[:] = np.cumsum(line.reshape(width, 3), axis=0,
                                dtype=np.uint8).reshape(-1)
        elif kind == 2:  # Up
            line += prev
        elif kind in (3, 4):
            _unfilter_scalar(line, prev, kind)
        elif kind != 0:
            raise FrameError(f"unknown PNG filter type {kind} on row {y}")
        prev = line
    return out


def _unfilter_scalar(line: np.ndarray, prev: np.ndarray, kind: int) -> None:
    """Average (3) and Paeth (4) depend on the byte just decoded."""
    values = [int(v) for v in line]
    above = [int(v) for v in prev]
    for i, value in enumerate(values):
        left = values[i - 3] if i >= 3 else 0
        if kind == 3:
            values[i] = (value + (left + above[i]) // 2) & 0xFF
            continue
        upper_left = above[i - 3] if i >= 3 else 0
        estimate = left + above[i] - upper_left
        pa, pb, pc = (abs(estimate - left), abs(estimate - above[i]),
                      abs(estimate - upper_left))
        if pa <= pb and pa <= pc:
            predictor = left
        elif pb <= pc:
            predictor = above[i]
        else:
            predictor = upper_left
        values[i] = (value + predictor) & 0xFF
    line[:] = values


def acceptable_states(frame: Frame, toggles: Sequence[Toggle]) -> set[int]:
    """Data states a frame may show, numbered by toggles applied (0 = none).

    State ``k`` may be current from the moment toggle ``k`` was requested
    until toggle ``k + 1`` was acknowledged; a frame may show any state
    current at some instant between its request and its reply.  A frame
    requested after a toggle was acknowledged can never show an older state.
    """
    states = set()
    for k in range(len(toggles) + 1):
        begins = toggles[k - 1].requested if k else float("-inf")
        ends = toggles[k].applied if k < len(toggles) else float("inf")
        if begins <= frame.received and ends >= frame.sent:
            states.add(k)
    return states


def check_frames(
    frames: Sequence[Frame],
    width: int,
    height: int,
    reference: Callable[[Hashable, int], np.ndarray],
    sample: set[int] | None,
    toggles: Sequence[Toggle] = (),
    period: int = 2,
) -> list[str]:
    """One message per frame that fails a check.

    Every frame must decode (:func:`decode_png`).  Frames whose index is in
    ``sample`` (all frames when ``sample`` is None) must also equal
    ``reference(view, state % period)`` for one of their
    :func:`acceptable_states`; toggles alternate between ``period`` data
    states.  A frame that instead equals an older state is reported stale.
    """
    problems: list[str] = []
    decoded: dict[bytes, np.ndarray] = {}
    for index, frame in enumerate(frames):
        where = f"frame {index} (client {frame.client}, view {frame.view})"
        pixels = decoded.get(frame.data)
        if pixels is None:
            try:
                pixels = decode_png(frame.data, width, height)
            except FrameError as exc:
                problems.append(f"{where}: malformed: {exc}")
                continue
            decoded[frame.data] = pixels
        if sample is not None and index not in sample:
            continue
        allowed = acceptable_states(frame, toggles)
        phases = {state % period for state in allowed}
        if any(np.array_equal(pixels, reference(frame.view, phase))
               for phase in sorted(phases)):
            continue
        stale = [state for state in range(min(allowed))
                 if state % period not in phases
                 and np.array_equal(pixels,
                                    reference(frame.view, state % period))]
        if stale:
            problems.append(f"{where}: stale: shows data state {stale[-1]}, "
                            f"expected one of {sorted(allowed)}")
        else:
            problems.append(f"{where}: wrong pixels")
    return problems
