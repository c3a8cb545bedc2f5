"""The three traffic mixes, generated from the workload seed.

Each workload gives every client an endless, seeded script of interactions.
An interaction is the commands one gesture sends (moves, then a ``Render``)
plus the view it asks for, which the output check renders again in-process.
Only these generated commands (and, for the write mix, the §8 updates)
reach the server.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

from repro.core.scenarios import LOUISIANA_CENTER, SERIES_X_SCALE, band_center
from repro.protocol import Command, PanTo, Render, SetElevation

#: fig11's time axis: x = days since 1985-01-01 scaled; 1985-1995 inclusive.
SERIES_X_MAX = 11 * 365.25 * SERIES_X_SCALE
#: Elevations of the fig4 views.  The range straddles NAME_MAX_ELEVATION
#: (12), where fig7-style programs switch to drawing station names.
FIG4_ELEVATIONS = (2.0, 14.0)
#: How far the write mix moves its station, in degrees of longitude.
STATION_SHIFT = 0.1


@dataclass(frozen=True)
class Update:
    """One toggle, sent to the server process's control channel."""

    table: str
    index: int
    field: str
    delta: float


class Toggler:
    """Applies :class:`Update` toggles to a database through the §8 generic
    update procedure: each (table, row, field) flips between its original
    value and original + delta."""

    def __init__(self, database):
        self.database = database
        #: (table, index, field) -> [original value, current row, flipped]
        self.state: dict[tuple, list] = {}

    def flipped(self, update: Update) -> bool:
        state = self.state.get((update.table, update.index, update.field))
        return bool(state and state[2])

    def toggle(self, update: Update) -> bool:
        """Flip one value; returns whether it now differs from the original."""
        from repro.dbms import update as dbms_update

        table = self.database.table(update.table)
        key = (update.table, update.index, update.field)
        state = self.state.get(key)
        if state is None:
            row = list(table)[update.index]
            state = self.state[key] = [row[update.field], row, False]
        original, row, flipped = state
        value = original if flipped else original + update.delta
        # Looked up on the module so the traced run's wrapper applies.
        result = dbms_update.generic_update(
            table, row, dbms_update.ScriptedDialog({update.field: repr(value)}))
        if not result.applied:
            raise RuntimeError(f"update of {key} was a no-op")
        state[1] = result.new
        state[2] = not flipped
        return state[2]


@dataclass
class Workload:
    name: str
    program: str
    window: str
    width: int
    height: int
    #: ``script(client)`` -> endless (commands, view) interactions.
    script: Callable[[int], Iterator[tuple[list[Command], Hashable]]]
    #: ``apply_view(session, view)`` sets a reference session's view.
    apply_view: Callable[[object, Hashable], None]
    #: client 0 applies ``updates[k % len]`` after every ``update_every``-th
    #: interaction of the timed window (0: no updates).
    update_every: int = 0
    updates: list[Update] = field(default_factory=list)
    #: the one update that changes what the frames show, if any.
    visible_update: Update | None = None
    #: frames whose pixels are compared per run (None: every frame).
    pixel_sample: int | None = None
    #: interactions per client before the timed window (not measured)
    warmup: int = 2


def _fig4_interaction(window: str, view: tuple[float, float, float]):
    cx, cy, elevation = view
    return ([PanTo(window=window, cx=cx, cy=cy),
             SetElevation(window=window, elevation=elevation),
             Render(window=window, format="png")], view)


def _fig4_apply(session, view) -> None:
    cx, cy, elevation = view
    session.pan_to("stations", cx, cy)
    session.set_elevation("stations", elevation)


def explore_fig4(seed: int, database) -> Workload:
    """Every gesture a fresh view near Louisiana: frame-cache misses only."""
    del database

    def script(client: int):
        rng = random.Random(f"explore_fig4:{seed}:{client}")
        while True:
            view = (LOUISIANA_CENTER[0] + rng.uniform(-3.0, 3.0),
                    LOUISIANA_CENTER[1] + rng.uniform(-2.0, 2.0),
                    rng.uniform(*FIG4_ELEVATIONS))
            yield _fig4_interaction("stations", view)

    return Workload("explore_fig4", "fig4", "stations", 640, 480, script,
                    _fig4_apply, pixel_sample=24)


def _in_view(view: tuple[float, float, float], x: float, y: float) -> bool:
    """Whether (x, y) lies well inside a 4:3 fig4 view (elevation = world
    width), leaving room for the station's circle."""
    cx, cy, elevation = view
    return (abs(x - cx) <= 0.45 * elevation
            and abs(y - cy) <= 0.45 * elevation * 0.75)


def shared_fig4_writes(seed: int, database) -> Workload:
    """Two clients cycling 8 shared views beside a stream of §8 updates."""
    rng = random.Random(f"shared_fig4_writes:{seed}")
    low, high = FIG4_ELEVATIONS
    views = []
    for slot in range(8):
        # One elevation per eighth of the range and small offsets from the
        # state's center keep the per-frame cost alike across seeds.
        elevation = low + (high - low) * (slot + 0.5) / 8
        views.append((
            LOUISIANA_CENTER[0] + rng.uniform(-0.1, 0.1) * elevation,
            LOUISIANA_CENTER[1] + rng.uniform(-0.1, 0.1) * elevation * 0.75,
            elevation))
    rng.shuffle(views)
    # The moved station stays in every view in both of its positions.
    stations = list(database.table("Stations"))
    candidates = [
        i for i, row in enumerate(stations) if row["state"] == "LA" and all(
            _in_view(view, row["longitude"] + shift, row["latitude"])
            for view in views for shift in (0.0, STATION_SHIFT))]
    if not candidates:
        raise ValueError(f"seed {seed}: no station is in all eight views")
    observations = len(database.table("Observations"))
    updates = [Update("Observations", rng.randrange(observations),
                      "temperature", 1.0) for _ in range(3)]
    visible = Update("Stations", rng.choice(candidates), "longitude",
                     STATION_SHIFT)
    updates.append(visible)

    def script(client: int):
        for view in itertools.cycle(views):
            yield _fig4_interaction("stations", view)

    return Workload("shared_fig4_writes", "fig4", "stations", 640, 480,
                    script, _fig4_apply, update_every=8, updates=updates,
                    visible_update=visible, warmup=8)


def series_fig11(seed: int, database) -> Workload:
    """Pan fig11's first member along the time axis: per-tuple location."""
    del database
    cy = band_center(1)[1]

    def script(client: int):
        rng = random.Random(f"series_fig11:{seed}:{client}")
        while True:
            cx = rng.uniform(0.0, SERIES_X_MAX)
            yield ([PanTo(window="replicated", cx=cx, cy=cy, member="part1"),
                    Render(window="replicated", format="png")], cx)

    def apply_view(session, cx) -> None:
        session.pan_to("replicated", cx, cy, member="part1")

    return Workload("series_fig11", "fig11", "replicated", 800, 400, script,
                    apply_view, pixel_sample=6, warmup=1)


WORKLOADS = {
    "explore_fig4": explore_fig4,
    "shared_fig4_writes": shared_fig4_writes,
    "series_fig11": series_fig11,
}
