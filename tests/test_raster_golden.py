"""Golden pixels: every paper figure window rasterizes to fixed bytes.

The digests were taken from the scalar (per-pixel loop) rasterizer before
its kernels were vectorized, so any kernel change that moves a single pixel
of any figure — canvas or full window with its elevation map and sliders —
fails here.  fig4's PNG digest pins the encoder (zlib level 6, filter None)
too: the server ships those bytes, and the benchmark's ``bytes_per_frame``
compares them across versions.

The database is built here rather than taken from the shared fixture, so a
test elsewhere that mutates the shared one cannot move these digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database

#: (figure, window name) -> (sha256 of window.render().pixels,
#: sha256 of window.render_window().pixels), rendered in that order.
GOLDEN = {
    ("fig1", "window"): (
        "6efcb8728d815811477a99afb80ffe691057ba3636a8c88ea387a0538c93f626",
        "9bdc25d9e9f1765bc4505a818478313d147fa4d1d5bc20368832491c7d8d8c14"),
    ("fig10", "window"): (
        "03eb512cd1be530a931edbb12d100ce0787d29a7194d55b036e6975072a1be48",
        "3cec3bfe727869a4a4b3c39aad3c3257f633967eb1b97a90090fc80e0a17c759"),
    ("fig11", "window"): (
        "947410cef281bd3e4bb3d84ebbd3899d05a0b492cbd7e191bee74efc52ca145b",
        "9ba2fd25ee823455e9c6e33de95f912f2e77940b7766058843e37d2b59374eea"),
    ("fig4", "window"): (
        "1a8d1cab502e6cf0d72c67ac27dd8b6e48daee9945bc7cf4004520ac463fd125",
        "653e973a912dd9c1a286e403bfc441299329554297f100bbef73d95392c43e35"),
    ("fig7", "window"): (
        "cb624afeb698a5a83d8f49e8ae501b8ac0ec2286587a1ca170e5d414bd6dccd7",
        "5cbfb73bd2d2648abef34babfb4ba9fdb7db39227cb2fc3a4ecb7c4d14966c54"),
    ("fig8", "map_window"): (
        "cb624afeb698a5a83d8f49e8ae501b8ac0ec2286587a1ca170e5d414bd6dccd7",
        "066644687dc836bd8c20197b21e72f122ebb0808fcb1b87bf1e697e1676b4686"),
    ("fig8", "series_window"): (
        "ec1d6f1ab6b317aba97c2e373ee3dc1501bf2280ae26079c177ba882ae145754",
        "3f19ff6e27d4e9a45ccb842151c228ab8cfc81a555f142178f185bade94b0f42"),
    ("fig9", "window"): (
        "cf1af70211ab9e4c8157f6ea54a50eb300656188b627b1d9c73e7f47af151cfe",
        "4be18cc5aadef2f4d8273adf2b0a1d369bc75f38737e1c21fd23169a05a9ad12"),
}

FIG4_PNG = "e59fc0b51860bda5873b647134fd32ebe60ac703c6b7de7ae7aff9e8179e430d"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_db():
    return build_weather_database(extra_stations=20, every_days=60)


def _windows(scenario):
    return sorted(
        (name, window) for name, window in scenario.named.items()
        if hasattr(window, "render_window")
    )


def test_golden_covers_every_figure_window(golden_db):
    seen = {
        (figure, name)
        for figure, build in FIGURES.items()
        for name, _ in _windows(build(golden_db))
    }
    assert seen == set(GOLDEN)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_pixels_match_golden(golden_db, figure):
    for name, window in _windows(FIGURES[figure](golden_db)):
        canvas_digest, window_digest = GOLDEN[(figure, name)]
        assert _sha(window.render().pixels.tobytes()) == canvas_digest, \
            f"{figure}/{name}: canvas pixels moved"
        assert _sha(window.render_window().pixels.tobytes()) == window_digest, \
            f"{figure}/{name}: window furniture pixels moved"


def test_fig4_png_bytes_match_golden(golden_db):
    window = FIGURES["fig4"](golden_db).window()
    assert _sha(window.render().png_bytes()) == FIG4_PNG
