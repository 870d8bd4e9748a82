"""Tests for the observability layer: tracer spans, metrics, journals."""

import json
import os
import time

import pytest

from repro.apps.hashes import standard_registry
from repro.context import current, use_context
from repro.lang import parse_program
from repro.obs import (
    NULL_JOURNAL,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullJournal,
    NullRegistry,
    Observability,
    RunJournal,
    Tracer,
)
from repro.search import DirectedSearch, SearchConfig
from repro.solver.sat import SatSolver, SatStats
from repro.symbolic import ConcretizationMode

FOO_MINIC = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "programs", "foo.minic"
)


class TestTracerSpans:
    def test_span_aggregates_count_and_elapsed(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                pass
        stats = tracer.stats()["work"]
        assert stats.count == 3
        assert stats.total >= stats.self_total >= 0.0
        assert stats.min <= stats.mean <= stats.max

    def test_nested_spans_split_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.02)
        outer = tracer.stats()["outer"]
        inner = tracer.stats()["inner"]
        # inner's elapsed is charged to inner, not to outer's self time
        assert outer.self_total < outer.total
        assert outer.self_total + inner.self_total == pytest.approx(
            outer.total, rel=0.05
        )

    def test_self_time_total_equals_root_inclusive_time(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                time.sleep(0.01)
            with tracer.span("b"):
                with tracer.span("c"):
                    time.sleep(0.01)
        assert tracer.self_time_total() == pytest.approx(root.elapsed, rel=0.05)

    def test_span_exposes_elapsed_after_exit(self):
        tracer = Tracer()
        with tracer.span("t") as span:
            time.sleep(0.005)
        assert span.elapsed >= 0.005

    def test_render_table_mentions_every_label(self):
        tracer = Tracer()
        with tracer.span("solve", kind="euf"):
            with tracer.span("propagate"):
                pass
        table = tracer.render_table()
        assert "solve" in table and "propagate" in table

    def test_reset_clears_stats(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.stats() == {}

    def test_spans_emit_journal_events(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with RunJournal(path) as journal:
            tracer = Tracer(journal=journal)
            with tracer.span("outer", phase="gen"):
                with tracer.span("inner"):
                    pass
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert [e["label"] for e in events] == ["inner", "outer"]
        # depth counts enclosing spans: inner sits under outer
        assert events[0]["depth"] == 1
        assert events[1]["depth"] == 0
        assert events[1]["phase"] == "gen"


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc()
        reg.counter("queries").inc(4)
        reg.gauge("depth").set(7)
        reg.histogram("seconds").observe(0.25)
        reg.histogram("seconds").observe(0.75)
        snap = reg.snapshot()
        assert snap["counters"]["queries"] == 5
        assert snap["gauges"]["depth"] == 7
        hist = snap["histograms"]["seconds"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(1.0)
        assert hist["mean"] == pytest.approx(0.5)

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_render_table_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("sat.queries").inc(3)
        assert "sat.queries" in reg.render_table()
        reg.reset()
        assert len(reg) == 0

    def test_default_registry_is_null_and_restorable(self):
        assert current().registry is NULL_REGISTRY
        live = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_context(registry=live):
                assert current().registry is live
                raise RuntimeError("boom")
        assert current().registry is NULL_REGISTRY

    def test_use_registry_context_manager(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_context(registry=outer) as context:
            assert context is current()
            assert context.registry is outer
            with use_context(registry=inner):
                assert current().registry is inner
            assert current().registry is outer
        assert current().registry is NULL_REGISTRY


class TestDisabledMode:
    """With observability off, nothing is recorded anywhere."""

    def test_null_registry_records_nothing(self):
        reg = NullRegistry()
        assert not reg.enabled
        reg.counter("c").inc(10)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_journal_emits_nothing(self, tmp_path):
        journal = NullJournal()
        assert not journal.enabled
        assert journal.emit("test_generated", inputs={}) is None
        assert journal.events_written == 0

    def test_null_tracer_spans_are_free(self):
        with NULL_TRACER.span("anything") as span:
            pass
        assert NULL_TRACER.stats() == {}
        assert span.elapsed == 0.0

    def test_current_journal_defaults_to_null(self):
        assert current().journal is NULL_JOURNAL

    def test_search_without_obs_touches_no_global_state(self):
        program = parse_program(open(FOO_MINIC, encoding="utf-8").read())
        search = DirectedSearch.for_mode(
            program, "main", standard_registry(width=4),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
        )
        result = search.run({"x": 0, "y": 0})
        assert result.found_error
        # the run context's default registry stayed untouched (null)
        assert current().registry is NULL_REGISTRY
        assert len(current().registry) == 0
        assert current().journal is NULL_JOURNAL
        # backward compatibility: timings still populated by the tracer
        assert result.time_total > 0.0


class TestRunJournal:
    def test_events_round_trip_through_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with RunJournal(path) as journal:
            journal.emit("solver_query", solver="smt", sat=True)
            journal.emit("branch_flipped", parent=0, child=1)
        lines = open(path, encoding="utf-8").read().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["kind"] for e in events] == ["solver_query", "branch_flipped"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all("ts" in e for e in events)

    def test_non_serializable_fields_fall_back_to_str(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with RunJournal(path) as journal:
            journal.emit("note", obj=object())
        event = json.loads(open(path, encoding="utf-8").read())
        assert isinstance(event["obj"], str)

    def test_emit_after_close_is_dropped(self, tmp_path):
        journal = RunJournal(str(tmp_path / "e.jsonl"))
        journal.close()
        assert journal.emit("late") is None

    def test_install_journal_restores_previous(self, tmp_path):
        journal = RunJournal(str(tmp_path / "e.jsonl"))
        with use_context(journal=journal):
            assert current().journal is journal
        assert current().journal is NULL_JOURNAL
        journal.close()


class TestSatStats:
    def test_to_dict_and_repr(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve().sat
        stats = solver.stats
        d = stats.to_dict()
        assert set(d) >= {"decisions", "propagations", "conflicts"}
        assert d["propagations"] == stats.propagations
        assert "decisions=" in repr(stats)
        assert isinstance(stats, SatStats)


class TestDirectedSearchJournal:
    def test_foo_search_emits_expected_event_kinds(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        program = parse_program(open(FOO_MINIC, encoding="utf-8").read())
        journal = RunJournal(path)
        obs = Observability.collecting(journal=journal)
        search = DirectedSearch.for_mode(
            program, "main", standard_registry(width=4),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
            obs=obs,
        )
        result = search.run({"x": 0, "y": 0})
        journal.close()
        assert result.found_error

        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        kinds = {e["kind"] for e in events}
        assert {
            "search_started",
            "test_generated",
            "solver_query",
            "branch_flipped",
            "sample_recorded",
            "error_found",
            "search_finished",
            "span",
        } <= kinds
        # seq is contiguous and monotone
        assert [e["seq"] for e in events] == list(range(len(events)))

        # the metrics registry saw the same session
        snap = obs.metrics.snapshot()["counters"]
        assert snap["search.sessions"] == 1
        assert snap["search.runs"] == result.runs
        assert snap["smt.checks"] >= 1
        assert snap["sat.queries"] >= 1

        # profile acceptance: self-time sum within 10% of time_total
        assert obs.tracer.self_time_total() == pytest.approx(
            result.time_total, rel=0.10
        )

    def test_divergence_event_on_unsound_mode(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        src = """
        int g(int y) {
            if (y == hash(y)) { return 1; }
            return 0;
        }
        """
        program = parse_program(src)
        natives = standard_registry(width=4)
        journal = RunJournal(path)
        obs = Observability.collecting(journal=journal)
        search = DirectedSearch.for_mode(
            program, "g", natives,
            ConcretizationMode.UNSOUND, SearchConfig(max_runs=10),
            obs=obs,
        )
        result = search.run({"y": 0})
        journal.close()
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        kinds = [e["kind"] for e in events]
        if result.divergences:
            assert "divergence_detected" in kinds
        assert kinds[0] == "search_started"
        assert kinds[-1] == "search_finished"
