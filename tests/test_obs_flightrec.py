"""Flight recorder: ring retention, tracer taps, auto-dump on engine errors."""

from __future__ import annotations

import json

import pytest

from repro.errors import TiogaError
from repro.obs import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    Tracer,
    current_flight_recorder,
    install_flight_recorder,
    note_engine_error,
    push_tracer,
)


@pytest.fixture(autouse=True)
def _no_installed_recorder():
    """Tests must not leak an installed recorder into the process."""
    previous = install_flight_recorder(None)
    yield
    install_flight_recorder(previous)


def test_ring_retention_and_drop_accounting():
    recorder = FlightRecorder(capacity=3)
    for i in range(7):
        recorder.record({"kind": "event", "name": f"e{i}"})
    assert len(recorder) == 3
    assert recorder.dropped == 4
    assert [r["name"] for r in recorder.records()] == ["e4", "e5", "e6"]


def test_tracer_tap_records_spans_and_events():
    recorder = FlightRecorder(capacity=32)
    tracer = Tracer(enabled=True)
    recorder.attach(tracer)
    with tracer.span("outer", job="x"):
        tracer.event("mark", n=1)
        with tracer.span("inner"):
            pass
    spans = recorder.records("span")
    events = recorder.records("event")
    assert [s["name"] for s in spans] == ["inner", "outer"]
    assert spans[1]["attrs"] == {"job": "x"}
    assert [e["name"] for e in events] == ["mark"]
    recorder.detach()
    with tracer.span("after-detach"):
        pass
    assert len(recorder.records("span")) == 2


def test_dump_jsonl_format(tmp_path):
    recorder = FlightRecorder(capacity=8)
    tracer = Tracer(enabled=True)
    recorder.attach(tracer)
    with tracer.span("work"):
        pass
    recorder.note_error(ValueError("boom"), where="test")
    path = recorder.dump_jsonl(tmp_path / "flight.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    header, records = lines[0], lines[1:]
    assert header["schema"] == FLIGHT_SCHEMA
    assert header["records"] == len(records) == 2
    assert records[0]["kind"] == "span"
    assert records[1] == {
        "kind": "error", "ts_ns": records[1]["ts_ns"],
        "error": "ValueError", "message": "boom",
        "context": {"where": "test"},
    }


def test_engine_error_auto_dumps_installed_recorder(tmp_path, monkeypatch):
    """A failing demand through the real engine lands in the black box."""
    from repro.api import Session, open_db

    dump = tmp_path / "flight.jsonl"
    monkeypatch.setenv("REPRO_FLIGHT_DUMP", str(dump))
    recorder = FlightRecorder(capacity=128)
    install_flight_recorder(recorder)
    assert current_flight_recorder() is recorder

    tracer = Tracer(enabled=True)
    recorder.attach(tracer)
    session = Session(open_db("weather"))
    stations = session.add_table("Stations")
    bad = session.add_box("Restrict", {"predicate": "no_such_field > 1"})
    session.connect(stations, "out", bad, "in")
    with push_tracer(tracer):
        with pytest.raises(TiogaError):
            session.inspect(bad)

    assert dump.exists()
    lines = [json.loads(line) for line in dump.read_text().splitlines()]
    errors = [r for r in lines[1:] if r["kind"] == "error"]
    assert len(errors) == 1
    assert errors[0]["context"]["type"] == "Restrict"
    assert errors[0]["context"]["box"] == bad
    # The spans leading up to the failure are in the same window.
    assert any(r["kind"] == "span" for r in lines[1:])


def test_note_engine_error_without_recorder_is_noop(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FLIGHT_DUMP", str(tmp_path / "f.jsonl"))
    install_flight_recorder(None)
    note_engine_error(ValueError("ignored"), box=1)
    assert not (tmp_path / "f.jsonl").exists()


def test_install_from_env():
    from repro.config import configure_process, use_config

    with use_config():
        configure_process({})
        assert current_flight_recorder() is None
        configure_process({"REPRO_FLIGHT": "1"})
    assert isinstance(current_flight_recorder(), FlightRecorder)
