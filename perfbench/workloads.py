"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload has two parts:

- ``setup()`` builds the inputs from scratch (parse and compile the
  programs, draw the random programs, plan the campaign); the runner
  times it on its own as ``setup_s``;
- ``run_pass(verify)`` executes one fixed unit of work and returns a
  :class:`Pass` with its timed seconds, per-session latencies, work
  counts and a digest of every output.  With ``verify`` set it also
  checks each output against the reference tree walker and the digests
  recorded in ``expected.json``, outside the timed regions.

Every search session and every campaign cycle starts from a fresh query
cache or a fresh store directory, so no pass reads answers a previous
pass computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Tuple

from repro.api import Client, TestCorpus, suite_digest
from repro.apps import build_lexer_program, build_protocol_app, build_tinyvm_app
from repro.baselines import RandomFuzzer
from repro.engine.planner import BatchPlanner, CampaignSpec
from repro.errors import DeadlineExceeded
from repro.lang.bytecode import clear_compile_cache, compile_program
from repro.lang.randprog import generate_program
from repro.search import DirectedSearch, SearchConfig
from repro.solver.cache import QueryCache, use_cache
from repro.store import ContentStore
from repro.symbolic import ConcretizationMode

HERE = os.path.dirname(os.path.abspath(__file__))

#: the three section-7 style applications, in the order every pass visits them
APPS = (
    ("lexer", build_lexer_program),
    ("protocol", build_protocol_app),
    ("tinyvm", build_tinyvm_app),
)

#: first-order concretization modes of the random draw (HOTG is left out:
#: see README.md for the unbounded seeds that motivate this)
FIRST_ORDER_MODES = (
    ConcretizationMode.UNSOUND,
    ConcretizationMode.SOUND,
    ConcretizationMode.SOUND_DELAYED,
)


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The gated timings are CPU time, not wall time: on a virtual machine
    shared with other tenants, the time the host gives them (steal) swells
    wall time by up to a factor of two but is not charged to the process.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reap_workers() -> None:
    """Wait for the pool workers a campaign terminated, so that their CPU
    time is counted in ``RUSAGE_CHILDREN``."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(10.0)


@dataclass
class Pass:
    """What one measured pass produced."""

    #: timed seconds: the sessions' sum, or the campaign cycle's wall time
    seconds: float = 0.0
    #: CPU seconds of the same timed work, a campaign's worker processes
    #: included (see :func:`cpu_seconds`)
    cpu_s: float = 0.0
    #: session key -> wall seconds (a search session, fuzz session or job)
    sessions: Dict[str, float] = field(default_factory=dict)
    #: program executions
    runs: int = 0
    #: branch flips handed to the solver (searches and campaigns)
    flips: int = 0
    #: operations the failure count is taken over (flips, executions, jobs)
    attempted: int = 0
    #: per-layer counts taken from result objects
    layers: Dict[str, float] = field(default_factory=dict)
    #: workload-specific end-to-end figures (time_to_bug_s, campaign_*_s)
    extra: Dict[str, float] = field(default_factory=dict)
    #: digest over every output of the pass; equal across passes of a run
    digest: str = ""
    #: failed operations: crashed or timed-out sessions, failed jobs
    failures: List[str] = field(default_factory=list)
    #: keys of the sessions that produced no result (left out of ``digest``)
    lost: List[str] = field(default_factory=list)
    #: failed correctness checks: digest, replay or bug-index mismatches
    mismatches: List[str] = field(default_factory=list)


def _expected(workload: str):
    """The recorded digests and bug run indices of one workload."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def _replay_mismatches(result, program, entry, natives) -> int:
    corpus = TestCorpus()
    corpus.add_from_search(result)
    report = corpus.replay(program, entry, natives, exec_backend="tree")
    return len(report.mismatches)


def _search_pass(plan, verify: bool, check) -> Pass:
    """Run the search sessions of ``plan``, each on a fresh query cache.

    ``plan`` yields ``(key, program, entry, make_natives, mode, inputs,
    options)``.  Only the sessions are timed; digests and, when
    ``verify`` is set, ``check(key, result, digest, program, entry,
    make_natives)`` run between them, and no result outlives its check.
    """
    out = Pass()
    layers = dict.fromkeys(
        (
            "search.deferred",
            "search.downgrades",
            "search.abandoned",
            "solver.cache.hits",
            "solver.cache.misses",
        ),
        0,
    )
    digests = []
    for key, program, entry, make_natives, mode, inputs, options in plan:
        cache = QueryCache()
        cpu_start = cpu_seconds()
        start = perf_counter()
        try:
            with use_cache(cache):
                search = DirectedSearch.for_mode(
                    program, entry, make_natives(), mode,
                    SearchConfig.from_options(**options),
                )
                result = search.run(inputs)
        except DeadlineExceeded as exc:
            out.failures.append(f"{key}: session gave up: {exc}")
            result = None
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            out.failures.append(f"{key}: session crashed: {exc!r}")
            result = None
        seconds = perf_counter() - start
        out.cpu_s += cpu_seconds() - cpu_start
        out.seconds += seconds
        out.sessions[key] = seconds
        if result is None:
            out.lost.append(key)
            continue
        out.runs += result.runs
        out.flips += result.solver_calls
        layers["search.deferred"] += result.deferred_flips
        layers["search.downgrades"] += sum(result.downgrades.values())
        layers["search.abandoned"] += result.abandoned_flips
        layers["solver.cache.hits"] += cache.hits
        layers["solver.cache.misses"] += cache.misses
        digest = suite_digest(result)
        digests.append((key, digest))
        if verify:
            out.mismatches.extend(
                check(key, result, digest, program, entry, make_natives)
            )
    out.attempted = out.flips
    out.layers = layers
    out.digest = _digest(digests)
    return out


def _build_apps():
    clear_compile_cache()
    apps = {name: build() for name, build in APPS}
    for app in apps.values():
        compile_program(app.program)
    return apps


class HotgApps:
    """Higher-order dfs search on the lexer, protocol and tinyvm apps.

    A pass runs one bug hunt per app (``stop_on_first_error``), then a
    full tinyvm exploration to ``EXPLORE_RUNS`` runs.
    """

    HUNT_RUNS = 150
    EXPLORE_RUNS = 150

    def __init__(self, seed: int, workdir: str) -> None:
        self.expected = _expected("hotg-apps")

    def setup(self) -> None:
        self.apps = _build_apps()

    def _plan(self):
        mode = ConcretizationMode.HIGHER_ORDER
        sessions = [
            (f"{name}.hunt", app, dict(max_runs=self.HUNT_RUNS, stop_on_first_error=True))
            for name, app in self.apps.items()
        ]
        sessions.append(
            ("tinyvm.explore", self.apps["tinyvm"], dict(max_runs=self.EXPLORE_RUNS))
        )
        for key, app, options in sessions:
            yield (key, app.program, app.entry, app.fresh_natives, mode,
                   app.initial_inputs(), options)

    def run_pass(self, verify: bool) -> Pass:
        out = _search_pass(self._plan(), verify, self._check)
        if verify and out.failures:
            out.mismatches.append("a session has no result to check")
        out.extra["time_to_bug_s"] = sum(
            s for k, s in out.sessions.items() if k.endswith(".hunt")
        )
        return out

    def _check(self, key, result, digest, program, entry, make_natives) -> List[str]:
        failures = []
        want = self.expected["suite_digests"][key]
        if digest != want:
            failures.append(f"{key}: suite digest {digest[:12]} != {want[:12]}")
        if key.endswith(".hunt"):
            want_run = self.expected["bug_run_index"][key.split(".")[0]]
            got_run = result.errors[0].run_index if result.errors else None
            if got_run != want_run:
                failures.append(f"{key}: bug found at run {got_run}, recorded {want_run}")
        bad = _replay_mismatches(result, program, entry, make_natives())
        if bad:
            failures.append(f"{key}: {bad} replay mismatches vs the tree walker")
        return failures


class FirstOrderRand:
    """A seeded draw of random programs under the three first-order modes."""

    PROGRAMS = 1200
    MAX_RUNS = 60
    #: per-session wall-clock deadline (normal sessions take under 0.5 s).
    #: Some programs make concolic execution grow without bound, e.g.
    #: ``generate_program(2128694160)`` under unsound concretization: 15
    #: runs in 37 s, memory past 2.5 GB within minutes.  Such a session
    #: stops at its next run boundary and counts as a failed operation.
    DEADLINE_S = 2.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.expected = _expected("firstorder-rand")

    def setup(self) -> None:
        clear_compile_cache()
        rng = random.Random(self.seed)
        self.draw = []
        for _ in range(self.PROGRAMS):
            prog = generate_program(rng.randrange(1 << 31))
            compile_program(prog.program)
            self.draw.append((prog, prog.random_inputs(rng)))

    def _plan(self):
        options = dict(max_runs=self.MAX_RUNS, job_deadline=self.DEADLINE_S)
        for index, (prog, inputs) in enumerate(self.draw):
            for mode in FIRST_ORDER_MODES:
                yield (f"{index}/{prog.seed}.{mode.value}", prog.program, prog.entry,
                       prog.natives, mode, dict(inputs), options)

    def run_pass(self, verify: bool) -> Pass:
        out = _search_pass(self._plan(), verify, self._check)
        want = self.expected["draws"].get(str(self.seed))
        # a session lost here but not when recorded (or the reverse) is
        # already a failed operation; the digests are then incomparable
        if verify and want is not None and out.lost == want["lost"]:
            if out.digest != want["digest"]:
                out.mismatches.append(
                    f"draw digest {out.digest[:12]} != recorded "
                    f"{want['digest'][:12]} for seed {self.seed}"
                )
        return out

    @staticmethod
    def _check(key, result, digest, program, entry, make_natives) -> List[str]:
        bad = _replay_mismatches(result, program, entry, make_natives())
        return [f"{key}: {bad} replay mismatches vs the tree walker"] if bad else []


class CampaignStore:
    """The paper suite under every strategy and scheduler, cold then warm.

    One cycle submits the campaign twice through ``Client(workers=2)``
    against a fresh store directory: the cold pass writes the store, the
    warm pass reads it.
    """

    WORKERS = 2
    STRATEGIES = ("higher_order", "unsound", "sound", "delayed")
    SCHEDULERS = ("dfs", "generational", "coverage")

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.expected = _expected("campaign-store")
        self._cycle = 0

    def setup(self) -> None:
        self.spec = CampaignSpec.paper_suite(
            strategies=self.STRATEGIES, schedulers=self.SCHEDULERS
        )
        # planning validates the spec; ``submit`` plans again for itself
        BatchPlanner().expand(self.spec)

    def run_pass(self, verify: bool) -> Pass:
        self._cycle += 1
        store_dir = os.path.join(self.workdir, f"store-{self._cycle}")
        client = Client(workers=self.WORKERS, store_dir=store_dir)
        out = Pass()
        cpu_start = cpu_seconds()
        start = perf_counter()
        cold = client.submit(self.spec).wait()
        middle = perf_counter()
        reap_workers()
        warm = client.submit(self.spec).wait()
        end = perf_counter()
        reap_workers()
        out.cpu_s = cpu_seconds() - cpu_start
        out.seconds = end - start
        stats = ContentStore(store_dir).stats()
        shutil.rmtree(store_dir, ignore_errors=True)
        job_s = 0.0
        for label, report in (("cold", cold), ("warm", warm)):
            for job in report.jobs:
                out.sessions[f"{label}.{job.key}"] = job.seconds
                job_s += job.seconds
                if not job.ok or job.quarantined:
                    out.failures.append(f"{label} {job.key}: {job.error or 'quarantined'}")
            out.runs += report.total_runs
            out.flips += report.total_solver_calls
        out.attempted = len(cold.jobs) + len(warm.jobs)
        cache = {
            name: cold.cache_totals().get(name, 0) + warm.cache_totals().get(name, 0)
            for name in ("hits", "misses")
        }
        out.layers = {
            "engine.jobs": out.attempted,
            "engine.job_s": job_s,
            "engine.overhead_s": out.seconds - job_s / self.WORKERS,
            "store.solver.hits": stats["hits"].get("solver", 0),
            "store.solver.misses": stats["misses"].get("solver", 0),
            "store.solver.stores": stats["stores"].get("solver", 0),
            "store.bytes": stats["total_bytes"],
            "solver.cache.hits": cache["hits"],
            "solver.cache.misses": cache["misses"],
        }
        out.extra = {
            "campaign_cold_s": middle - start,
            "campaign_warm_s": end - middle,
        }
        out.digest = _digest((cold.campaign_digest, warm.campaign_digest))
        if verify:
            out.mismatches.extend(self._check(cold, warm))
        return out

    def _check(self, cold, warm) -> List[str]:
        failures = []
        want = self.expected["campaign_digest"]
        for label, report in (("cold", cold), ("warm", warm)):
            if report.campaign_digest != want:
                failures.append(
                    f"{label} campaign digest {report.campaign_digest[:12]} "
                    f"!= {want[:12]}"
                )
        totals = warm.cache_totals()
        if totals.get("disk_hits", 0) <= 0 or totals.get("disk_misses", 0) != 0:
            failures.append(
                f"warm pass did not read the store: disk hits "
                f"{totals.get('disk_hits', 0)}, misses {totals.get('disk_misses', 0)}"
            )
        with open(
            os.path.join(HERE, "..", "benchmarks", "paper_suite_digests.json"),
            encoding="utf-8",
        ) as handle:
            dfs_digests = json.load(handle)
        for job in cold.jobs:
            program, _, strategy, scheduler = job.key.split("//")
            if (strategy, scheduler) == ("higher_order", "dfs"):
                if job.suite_digest != dfs_digests.get(program):
                    failures.append(
                        f"{job.key}: suite digest differs from "
                        "benchmarks/paper_suite_digests.json"
                    )
        paper = Client().submit("paper").wait().campaign_digest
        if paper != self.expected["paper_digest"]:
            failures.append(f"paper campaign digest {paper[:12]} != recorded")
        return failures


class FuzzExec:
    """Seeded blackbox random fuzzing of the three apps."""

    EXECUTIONS = 20_000
    PER_SESSION = 500

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.apps = _build_apps()
        rng = random.Random(self.seed)
        self.plan = [
            (name, j, rng.randrange(1 << 31))
            for name in self.apps
            for j in range(self.EXECUTIONS // self.PER_SESSION)
        ]

    def _fuzz(self, name: str, fuzz_seed: int, backend: str):
        app = self.apps[name]
        fuzzer = RandomFuzzer(
            app.program,
            app.entry,
            app.fresh_natives(),
            seed=fuzz_seed,
            exec_backend=backend,
        )
        return fuzzer.run(max_runs=self.PER_SESSION)

    @staticmethod
    def _fingerprint(result) -> Tuple:
        return (
            result.runs,
            result.distinct_paths,
            tuple(sorted(result.coverage.covered)),
            tuple((e.run_index, e.line, e.message) for e in result.errors),
        )

    def run_pass(self, verify: bool) -> Pass:
        out = Pass()
        prints = []
        for name, j, fuzz_seed in self.plan:
            key = f"{name}.{j}"
            cpu_start = cpu_seconds()
            start = perf_counter()
            try:
                result = self._fuzz(name, fuzz_seed, "bytecode")
            except Exception as exc:  # noqa: BLE001 - a crash is a failure
                out.failures.append(f"{key}: fuzz session crashed: {exc!r}")
                out.lost.append(key)
                continue
            seconds = perf_counter() - start
            out.cpu_s += cpu_seconds() - cpu_start
            out.seconds += seconds
            out.sessions[key] = seconds
            out.runs += result.runs
            fingerprint = self._fingerprint(result)
            prints.append((key, fingerprint))
            if verify and fingerprint != self._fingerprint(
                self._fuzz(name, fuzz_seed, "tree")
            ):
                out.mismatches.append(f"{key}: fuzz outcome differs on the tree walker")
        out.attempted = out.runs
        out.digest = _digest(prints)
        return out


WORKLOADS = {
    "hotg-apps": HotgApps,
    "firstorder-rand": FirstOrderRand,
    "campaign-store": CampaignStore,
    "fuzz-exec": FuzzExec,
}
