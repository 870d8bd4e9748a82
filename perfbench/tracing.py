"""Span tracing from outside the program: wrap public entry points, time calls.

The traced run patches the public functions and methods listed in
:data:`SPANS` with a wrapper that records one span per call: its name,
start, end and parent span.  Spans stay in memory (compact arrays) until
:meth:`Tracer.layer_report` folds them into per-layer call counts, self
times (a span's duration minus the time its direct children cover) and
maxima.  Nothing in ``src/`` is modified; :meth:`Tracer.uninstall`
restores every patched attribute.

A few layers also count work from the objects the wrapped calls return
(validity verdicts, branch-and-bound branches, SAT conflicts); those
hooks live beside the span table in :data:`COUNTERS`.
"""

from __future__ import annotations

import importlib
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) — the layer boundaries the traced
#: run times.  A module-level function is patched in every ``repro``
#: module that holds a reference to it, so ``from x import f`` callers
#: are covered too.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("lang.compile", "repro.lang.bytecode", "compile_program"),
    ("lang.run", "repro.lang.interp", "Interpreter.run"),
    ("symbolic.run", "repro.symbolic.concolic", "ConcolicEngine.run"),
    ("search.session", "repro.search.directed", "DirectedSearch.run"),
    ("search.derive", "repro.search.kernel", "SearchKernel.derive_flips"),
    ("search.schedule", "repro.search.kernel", "SearchKernel.schedule"),
    ("search.generate", "repro.search.kernel", "SearchKernel.solve_flip"),
    ("search.import_request", "repro.search.parallel", "import_request"),
    ("search.backend", "repro.search.backends", "QuantifierFreeBackend.generate"),
    ("search.backend", "repro.search.backends", "ExistentialBackend.generate"),
    ("core.plan_validity", "repro.core.hotg", "plan_validity"),
    ("solver.validity", "repro.solver.validity", "ValidityChecker.check"),
    ("solver.smt", "repro.solver.smt", "Solver.check"),
    ("solver.session", "repro.solver.session", "SolverSession.check"),
    ("solver.prefix", "repro.solver.session", "PrefixSession.solve"),
    ("solver.euf", "repro.solver.smt", "ackermannize"),
    ("solver.euf", "repro.solver.euf", "CongruenceClosure.check"),
    ("solver.cnf", "repro.solver.cnf", "CnfConverter.assert_formula"),
    ("solver.cnf", "repro.solver.cnf", "CnfConverter.literal_for"),
    ("solver.sat", "repro.solver.sat", "SatSolver.solve"),
    ("solver.lia", "repro.solver.lia", "LiaSolver.check"),
    ("solver.simplex", "repro.solver.simplex", "Simplex.check"),
    ("engine.plan", "repro.api", "Client.submit"),
    ("engine.run", "repro.engine.runner", "ProcessPoolRunner.run"),
    ("engine.merge", "repro.engine.merger", "ResultMerger.merge"),
)


def _validity_counts(args, result, before, counts: Dict[str, float]) -> None:
    status = getattr(result.status, "value", "")
    if status == "unknown":
        counts["solver.validity.unknown"] += 1
    elif status == "valid":
        counts["solver.validity.valid"] += 1


def _lia_counts(args, result, before, counts: Dict[str, float]) -> None:
    counts["solver.lia.branches"] += result.branches


def _sat_before(args) -> int:
    return args[0].stats.conflicts


def _sat_counts(args, result, before, counts: Dict[str, float]) -> None:
    counts["solver.sat.conflicts"] += args[0].stats.conflicts - before


#: span name -> (optional pre-call probe, post-call counter hook)
COUNTERS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "solver.validity": (None, _validity_counts),
    "solver.lia": (None, _lia_counts),
    "solver.sat": (_sat_before, _sat_counts),
}

#: counter names the hooks above may bump (always reported, 0 if unused)
COUNTER_NAMES = (
    "solver.validity.unknown",
    "solver.validity.valid",
    "solver.lia.branches",
    "solver.sat.conflicts",
)


class _Recorder:
    """The spans of one thread: parallel arrays plus the open-span stack."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []


class Tracer:
    """Records spans around the :data:`SPANS` entry points while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.recorders: List[_Recorder] = []
        self.counts: Dict[str, float] = {name: 0 for name in COUNTER_NAMES}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point in :data:`SPANS` (idempotent per tracer)."""
        if self._patches:
            return
        for span, module_name, path in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(span, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for name, holder in list(sys.modules.items()):
                if (
                    (name == "repro" or name.startswith("repro."))
                    and getattr(holder, attr, None) is original
                ):
                    self._patch(holder, attr, original, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def _recorder(self) -> _Recorder:
        recorder = self._local.__dict__.get("recorder")
        if recorder is None:
            recorder = self._local.recorder = _Recorder()
            with self._lock:
                self.recorders.append(recorder)
        return recorder

    def _wrap(self, span: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        pre, post = COUNTERS.get(span, (None, None))
        recorder_for = self._recorder
        lock = self._lock
        counts = self.counts

        def traced(*args, **kwargs):
            rec = recorder_for()
            stack = rec.stack
            index = len(rec.name)
            rec.name.append(name_id)
            rec.parent.append(stack[-1] if stack else -1)
            rec.end.append(0.0)
            before = pre(args) if pre is not None else None
            stack.append(index)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[index] = perf_counter()
                stack.pop()
            if post is not None:
                with lock:
                    post(args, result, before, counts)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reporting -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return sum(len(rec.name) for rec in self.recorders)

    def layer_report(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``max_ms``, plus
        ``roots``: the time covered by spans without a parent, summed
        over threads."""
        layers: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "max_ms": 0.0} for name in self.names
        }
        roots = 0.0
        for rec in self.recorders:
            n = len(rec.name)
            child = [0.0] * n
            for i in range(n):
                if rec.parent[i] >= 0:
                    child[rec.parent[i]] += rec.end[i] - rec.start[i]
            for i in range(n):
                entry = layers[self.names[rec.name[i]]]
                duration = rec.end[i] - rec.start[i]
                entry["calls"] += 1
                entry["self_s"] += duration - child[i]
                entry["max_ms"] = max(entry["max_ms"], duration * 1e3)
                if rec.parent[i] < 0:
                    roots += duration
        layers["roots"] = {"self_s": roots}
        return layers
