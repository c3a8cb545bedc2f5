"""Unit tests for the span tracer (repro.obs.trace)."""

from __future__ import annotations

import threading

from repro.config import configure_process, use_config
from repro.obs import NULL_SPAN, Tracer, current_tracer, push_tracer, tracing


class TestSpans:
    def test_nesting_assigns_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]
        assert tracer.roots() == [outer]
        assert tracer.children_of(outer) == [inner]

    def test_attrs_at_open_and_via_set(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", box=3) as span:
            assert span.set(rows=7) is span  # chainable
        assert span.attrs == {"box": 3, "rows": 7}

    def test_current_is_innermost_open_span(self):
        tracer = Tracer(enabled=True)
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_duration_is_monotonic_nonnegative(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s") as span:
            pass
        assert span.end_ns is not None
        assert span.duration_ns >= 0
        assert span.duration_ms >= 0.0

    def test_exception_records_error_attr_and_propagates(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("boom") as span:
                raise ValueError("x")
        except ValueError:
            pass
        assert span.attrs["error"] == "ValueError"
        assert tracer.finished("boom") == [span]

    def test_out_of_order_finalization(self):
        # Generator-driven spans (plan nodes) can close after their parent;
        # the stack removal is by identity, so neither span corrupts the
        # other's bookkeeping.
        tracer = Tracer(enabled=True)
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        outer.__exit__(None, None, None)  # parent closes first
        assert tracer.current() is inner
        inner.__exit__(None, None, None)
        assert tracer.current() is None
        assert inner.parent_id == outer.span_id

    def test_threads_build_separate_trees(self):
        tracer = Tracer(enabled=True)
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = span

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(3)]
        with tracer.span("main"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Worker spans are roots of their own threads, not children of main.
        for name, span in seen.items():
            assert span.parent_id is None
        assert len(tracer.roots()) == 4

    def test_max_spans_cap_counts_dropped(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished()) == 2
        assert tracer.dropped == 3

    def test_clear(self):
        tracer = Tracer(enabled=True, max_spans=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.event("e")
        tracer.clear()
        assert tracer.finished() == []
        assert tracer.events == []
        assert tracer.dropped == 0
        assert tracer.origin_ns is None


class TestEvents:
    def test_event_records_parent_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            tracer.event("hit", box=2)
        (event,) = tracer.events
        assert event.name == "hit"
        assert event.attrs == {"box": 2}
        assert event.parent_id == outer.span_id

    def test_event_outside_any_span(self):
        tracer = Tracer(enabled=True)
        tracer.event("lonely")
        assert tracer.events[0].parent_id is None


class TestDisabled:
    def test_span_returns_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN
        assert tracer.span("y", a=1) is NULL_SPAN

    def test_null_span_protocol_is_inert(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN
            assert span.set(rows=3) is NULL_SPAN
        assert NULL_SPAN.attrs == {}

    def test_nothing_recorded(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            tracer.event("e")
        assert tracer.finished() == []
        assert tracer.events == []


class TestInstallation:
    def test_global_tracer_tracks_env_activation(self):
        import os

        expected = os.environ.get("REPRO_TRACE", "") not in ("", "0")
        assert current_tracer().enabled is expected

    def test_push_tracer_scopes_and_restores(self):
        previous = current_tracer()
        fresh = Tracer(enabled=True)
        with push_tracer(fresh) as installed:
            assert installed is fresh
            assert current_tracer() is fresh
        assert current_tracer() is previous

    def test_push_tracer_restores_on_exception(self):
        previous = current_tracer()
        try:
            with push_tracer(Tracer(enabled=True)):
                raise RuntimeError
        except RuntimeError:
            pass
        assert current_tracer() is previous

    def test_tracing_convenience(self):
        with tracing() as tracer:
            assert current_tracer() is tracer
            with tracer.span("s"):
                pass
        assert len(tracer.finished()) == 1

    def test_install_from_env(self):
        previous = current_tracer()
        fresh = Tracer(enabled=False)
        with push_tracer(fresh), use_config():
            configure_process({})
            assert fresh.enabled is False
            configure_process({"REPRO_TRACE": "0"})
            assert fresh.enabled is False
            configure_process({"REPRO_TRACE": "true"})
            assert fresh.enabled is True
        assert current_tracer() is previous
