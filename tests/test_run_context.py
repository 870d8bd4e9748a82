"""Concurrent runs in one process do not leak ambient state into each other.

Every piece of per-run ambient state — journal, metrics registry, fault
plan, query cache, solver budget, stop request, hang flag — lives in one
:class:`repro.context.RunContext` held by a ``ContextVar``.  These tests
run campaigns and searches side by side and require each to behave
exactly as it does alone.
"""

import contextvars
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Client
from repro.context import current, use_context
from repro.errors import SearchInterrupted
from repro.faults import NULL_PLAN, FaultPlan
from repro.interrupt import StopRequest
from repro.lang.randprog import generate_program
from repro.obs.metrics import MetricsRegistry
from repro.search import DirectedSearch, SearchConfig
from repro.search.report import suite_digest
from repro.solver.cache import QueryCache
from repro.store import ContentStore
from repro.symbolic import ConcretizationMode

PAPER_DIGEST_PREFIX = "fa94767d"

#: a clean plan, a seeded random one that also crashes the interpreter,
#: and a periodic solver-exhaustion plan
CAMPAIGN_PLANS = ("", "solver:rate=0.5,seed=3;interp:every=2", "solver:every=3")


def _run_in_thread(fn):
    """Start ``fn`` on a thread inside a copy of the caller's context."""
    outcome = {}

    def _target():
        outcome["value"] = fn()

    thread = threading.Thread(target=contextvars.copy_context().run, args=(_target,))
    thread.start()
    return thread, outcome


class TestStopRequest:
    def test_parent_request_reaches_child_but_not_the_reverse(self):
        parent = StopRequest()
        child, sibling = StopRequest(parent), StopRequest(parent)
        child.request("cancel")
        assert child.reason == "cancel"
        assert parent.reason is None and sibling.reason is None
        parent.request("SIGTERM")
        assert sibling.reason == "SIGTERM"
        assert child.reason == "cancel"  # the first reason stays
        with pytest.raises(SearchInterrupted, match="SIGTERM"):
            sibling.check()

    def test_new_thread_starts_from_the_defaults(self):
        with use_context(fault_plan=FaultPlan.parse("solver:at=1")):
            seen = {}
            thread = threading.Thread(
                target=lambda: seen.update(plan=current().fault_plan)
            )
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
        assert seen["plan"] is NULL_PLAN


class TestConcurrentCampaigns:
    def _campaigns(self, root, concurrent):
        handles = []
        for i, plan in enumerate(CAMPAIGN_PLANS):
            telemetry = os.path.join(root, f"telemetry{i}")
            store = os.path.join(root, f"store{i}")
            handle = Client(
                telemetry=telemetry, store_dir=store, fault_plan=plan
            ).submit("paper")
            if not concurrent:
                handle.wait(timeout=120)
            handles.append((handle, telemetry, store))
        outcomes = []
        for handle, telemetry, store in handles:
            report = handle.wait(timeout=120)
            path = os.path.join(telemetry, "campaign.jsonl")
            with open(path, encoding="utf-8") as stream:
                events = sum(1 for _ in stream)
            outcomes.append(
                (
                    report.campaign_digest,
                    events,
                    ContentStore(store).stats()["namespaces"],
                )
            )
        return outcomes

    def test_concurrent_campaigns_match_their_solo_runs(self, tmp_path):
        solo = self._campaigns(str(tmp_path / "solo"), concurrent=False)
        assert solo[0][0].startswith(PAPER_DIGEST_PREFIX)
        assert solo[0][1] == 213
        assert solo[0][2]["solver"]["entries"] == 17
        assert solo[0][2]["corpus"]["entries"] == 18
        together = self._campaigns(str(tmp_path / "together"), concurrent=True)
        for plan, alone, beside in zip(CAMPAIGN_PLANS, solo, together):
            assert beside == alone, plan

    def test_cancel_stops_only_its_own_campaign(self):
        kept = Client().submit("paper")
        cancelled = Client().submit("paper")
        cancelled.cancel()
        assert kept.wait(timeout=120).campaign_digest.startswith(
            PAPER_DIGEST_PREFIX
        )
        assert kept.status() == "done"

    def test_submitter_stop_reaches_every_campaign(self):
        with use_context(stop=StopRequest()) as context:
            handles = [Client().submit("paper") for _ in range(2)]
            context.stop.request("SIGTERM")
            for handle in handles:
                with pytest.raises(SearchInterrupted, match="SIGTERM"):
                    handle.wait(timeout=120)
                assert handle.status() == "cancelled"


_MODES = (
    ConcretizationMode.UNSOUND,
    ConcretizationMode.SOUND,
    ConcretizationMode.SOUND_DELAYED,
)

_session = st.tuples(
    st.integers(min_value=0, max_value=299),  # generate_program seed
    st.sampled_from(_MODES),
    st.sampled_from(("", "solver:every=3")),
)


def _search(seed, mode, plan):
    """One first-order session in a run context of its own."""
    prog = generate_program(seed)
    inputs = prog.random_inputs(random.Random(seed))
    fault_plan = FaultPlan.parse(plan) if plan else NULL_PLAN
    with use_context(
        fault_plan=fault_plan, registry=MetricsRegistry(), cache=QueryCache()
    ):
        search = DirectedSearch.for_mode(
            prog.program, prog.entry, prog.natives(), mode,
            SearchConfig(max_runs=20),
        )
        result = search.run(inputs)
    return suite_digest(result), dict(fault_plan.fired)


class TestDifferentialSoak:
    @settings(max_examples=15, deadline=None)
    @given(first=_session, second=_session)
    def test_concurrent_sessions_match_their_solo_runs(self, first, second):
        alone = [_search(*first), _search(*second)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two sessions finely
        try:
            running = [_run_in_thread(lambda s=s: _search(*s)) for s in (first, second)]
            for thread, _ in running:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [outcome["value"] for _, outcome in running] == alone
