"""Campaign supervision: deadlines, watchdog, bounded retry, quarantine.

:class:`~repro.engine.runner.ProcessPoolRunner` owns *where* jobs run
(in-process or a spawn-safe pool); this module owns *whether they keep
running*.  :class:`CampaignSupervisor` wraps every job dispatch in a
recovery ladder, cheapest reclaim first:

1. **deadline** — the worker reclaims itself: the search kernel checks
   its wall-clock budget at every run boundary and raises
   :class:`~repro.errors.DeadlineExceeded`, salvaging the partial suite
   (see :meth:`repro.search.kernel.SearchKernel._check_deadline`);
2. **watchdog** — the parent reclaims a non-cooperative worker: it tails
   the telemetry shards' ``run_executed`` heartbeats and declares a job
   that ships shards *stalled* after ``stall_timeout`` seconds of
   silence, plus a defensive per-future timeout of ``2 × deadline +
   grace`` for workers wedged past even that;
3. **retry** — a deadline-blown/killed/stalled attempt is retried up to
   ``max_attempts`` with deterministic (no-jitter) backoff.  Every
   failed attempt is persisted to the campaign checkpoint's attempt
   ledger, so a killed-and-resumed campaign continues the count instead
   of re-firing spent attempts.  Retries are **answer-preserving**: the
   dispatch-time fault decisions (``hang``, ``pool``, ``worker-proc``)
   are consumed once per *job*, never per attempt, so a retried job
   reproduces the fault-free result and campaign digests stay
   byte-identical at every ``--workers`` value.  Only *infrastructure*
   failures spend attempts — a job whose search fails deterministically
   (``ok=False``) is a result, not a fault, and is recorded directly;
4. **quarantine** — a job that exhausts its budget is recorded
   ``quarantined`` with its last salvaged partial result and the
   campaign completes without it, surfaced in the report and in
   ``repro stats`` instead of taking the campaign down.

A broken pool (:class:`BrokenProcessPool`, a wedged worker the watchdog
had to kill) is **rebuilt** up to ``max_pool_rebuilds`` times — every
job in flight on the old pool is an innocent bystander (which job
poisoned a genuinely broken pool is unknowable) and is re-dispatched
without spending attempts; only the *injected* ``pool`` fault, decided
at dispatch time, charges its target's attempt so the retry path stays
deterministic.  Past the rebuild budget the campaign downgrades to
in-process execution.  In-process dispatches (worker-proc containment,
post-kill retries, the downgraded pool) block this supervision loop
while they run, so they are deferred until nothing is in flight —
heartbeat and timeout supervision of pooled jobs is never suspended.

Shutdown: the supervisor polls the run context's stop request
(``current().stop``, see :mod:`repro.interrupt`) between dispatches.  On SIGINT/SIGTERM it
drains in-flight jobs for ``drain_timeout`` seconds (completed results
are checkpointed), abandons the rest, and raises
:class:`~repro.errors.SearchInterrupted` so the CLI exits 3 with a
resume hint.  Partial results produced *by* the shutdown itself are
discarded, never checkpointed — resume re-runs those jobs and the
resumed digest matches an uninterrupted run.

Everything is metered (``engine.supervisor.*`` counters) and journaled
(``job_retried`` / ``job_stalled`` / ``job_quarantined`` /
``pool_rebuilt`` events to the current journal).

One loop drives every job: :meth:`CampaignSupervisor.serve` pulls
:class:`JobLease` objects from a :class:`JobLeaseSource` one at a time
as fleet slots free up, each lease carrying its own campaign's
checkpoint, telemetry directory and tenant, so one worker fleet serves
jobs interleaved from many campaigns (the campaign service,
:mod:`repro.service`).  A batch campaign (:meth:`CampaignSupervisor.run`)
is the same loop over a source that leases its job list in order.  A
fleet of one (``workers=1``, or a one-job batch) has no pool: every job
runs in-process, which is the reference execution.  The whole recovery
ladder applies per job, and a shutdown hands un-run leases back to their
source (:meth:`JobLeaseSource.released`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..context import current
from ..errors import ReproError, SearchInterrupted
from ..faults import FaultPlan
from .planner import SearchJob
from .runner import JobResult, run_job

__all__ = [
    "SupervisorConfig",
    "CampaignSupervisor",
    "JobLease",
    "JobLeaseSource",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs; validated, deterministic, picklable."""

    #: attempts per job before quarantine (1 = never retry)
    max_attempts: int = 2
    #: seconds slept before attempt N: ``retry_backoff * (N - 1)``
    #: (deterministic, no jitter — jitter would make campaign wall time
    #: a random variable for nothing: jobs never thundering-herd a
    #: shared resource the way clients of one server do)
    retry_backoff: float = 0.05
    #: per-job wall-clock deadline the *parent* supervises against
    #: (mirrors the jobs' ``SearchConfig.job_deadline``); 0 disables
    job_deadline: float = 0.0
    #: slack added to the defensive parent-side future timeout
    #: (``2 * job_deadline + deadline_grace``) so a worker that is
    #: merely slow to reach its cooperative check is not shot
    deadline_grace: float = 5.0
    #: heartbeat silence (seconds) before the watchdog declares a worker
    #: stalled; 0 disables.  Needs telemetry shards to tail, and should
    #: comfortably exceed one shard flush interval (shards buffer
    #: :data:`~repro.obs.shipper.SHARD_FLUSH_EVERY` events)
    stall_timeout: float = 0.0
    #: broken/wedged pools rebuilt before downgrading to in-process
    max_pool_rebuilds: int = 1
    #: seconds granted to in-flight jobs when a shutdown is requested
    drain_timeout: float = 5.0
    #: event-loop wait quantum (watchdog resolution)
    poll_interval: float = 0.2

    def validate(self) -> "SupervisorConfig":
        if self.max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.retry_backoff < 0:
            raise ReproError(
                f"retry_backoff must be >= 0 (got {self.retry_backoff})"
            )
        if self.job_deadline < 0:
            raise ReproError(f"job_deadline must be >= 0 (got {self.job_deadline})")
        if self.stall_timeout < 0:
            raise ReproError(
                f"stall_timeout must be >= 0 (got {self.stall_timeout})"
            )
        if self.max_pool_rebuilds < 0:
            raise ReproError(
                f"max_pool_rebuilds must be >= 0 (got {self.max_pool_rebuilds})"
            )
        if self.drain_timeout < 0:
            raise ReproError(
                f"drain_timeout must be >= 0 (got {self.drain_timeout})"
            )
        if self.poll_interval <= 0:
            raise ReproError(
                f"poll_interval must be > 0 (got {self.poll_interval})"
            )
        return self


@dataclass(frozen=True)
class JobLease:
    """One job granted to the fleet, with its campaign's surroundings.

    The lease is the unit of the supervisor's dispatch loop: the source
    decides *which* job runs next (the service's scheduler by priority,
    fair share and quotas; a batch in job order); the lease pins *where
    its side effects go* — the owning campaign's attempt ledger and
    telemetry directory — so jobs from different campaigns interleave
    on one fleet without sharing state.
    """

    job: SearchJob
    #: the owning campaign's :class:`~repro.engine.runner.CampaignCheckpoint`
    #: (results and failed attempts are journaled there), or None
    checkpoint: Optional[object] = None
    #: the owning campaign's telemetry directory (heartbeat shards), or None
    telemetry_dir: Optional[str] = None
    #: the owning campaign's tenant — tags content-store journal lines so
    #: one shared store accounts per tenant
    tenant: str = ""


class JobLeaseSource:
    """Protocol for :meth:`CampaignSupervisor.serve` lease sources.

    A duck-typed base (subclassing is optional): the supervisor only
    calls these four methods.  ``lease`` may raise
    :class:`~repro.errors.SearchInterrupted` (e.g. the injected
    ``service`` fault site) — the supervisor tears the fleet down and
    lets it propagate, exactly like an operator shutdown.
    """

    def lease(self) -> Optional[JobLease]:
        """The next job to dispatch, or None when nothing is ready."""
        raise NotImplementedError

    def outstanding(self) -> bool:
        """Is there (or could there be) more work?  False ends serving."""
        raise NotImplementedError

    def completed(self, result: JobResult) -> None:
        """One leased job finished (ok, failed, or quarantined)."""
        raise NotImplementedError

    def released(self, job: SearchJob) -> None:
        """A granted lease was abandoned un-run (shutdown); re-queue it."""
        raise NotImplementedError


class _JobListSource(JobLeaseSource):
    """A batch campaign as a lease source: its job list, leased in order.

    Every lease carries the batch's checkpoint and telemetry directory;
    results are kept by job key (unique within a campaign).
    """

    def __init__(
        self, jobs: List[SearchJob], checkpoint, telemetry_dir: Optional[str]
    ) -> None:
        self._leases: Deque[JobLease] = deque(
            JobLease(job, checkpoint, telemetry_dir) for job in jobs
        )
        self.results: Dict[str, JobResult] = {}

    def lease(self) -> Optional[JobLease]:
        return self._leases.popleft() if self._leases else None

    def outstanding(self) -> bool:
        return bool(self._leases)

    def completed(self, result: JobResult) -> None:
        self.results[result.key] = result

    def released(self, job: SearchJob) -> None:
        pass  # a batch is not re-queued: resume re-runs it from the checkpoint


class _JobState:
    """Supervision bookkeeping for one job across its attempts."""

    __slots__ = (
        "job",
        "index",
        "killed",
        "kill_counted",
        "hang",
        "pool",
        "attempts",
        "stalled",
        "inprocess",
        "result",
        "last_outcome",
        "last_error",
        "last_partial",
        "dispatched_at",
        "last_seen",
        "limit_at",
        "checkpoint",
        "telemetry",
        "tenant",
    )

    def __init__(
        self,
        job: SearchJob,
        index: int,
        killed: bool,
        hang: bool,
        pool: bool,
        spent: int,
        checkpoint=None,
        telemetry: Optional[str] = None,
        tenant: str = "",
    ) -> None:
        self.job = job
        self.index = index
        #: dispatch-time ``worker-proc`` decision (legacy containment)
        self.killed = killed
        self.kill_counted = False
        #: injected ``hang`` — armed for the first attempt only
        self.hang = hang
        #: injected ``pool`` break — first attempt only
        self.pool = pool
        #: failed attempts spent (includes prior runs via the ledger)
        self.attempts = spent
        self.stalled = False
        #: force in-process execution (worker-proc containment, or a
        #: worker death whose retry must be guaranteed to complete)
        self.inprocess = killed
        self.result: Optional[JobResult] = None
        self.last_outcome = ""
        self.last_error = ""
        self.last_partial: Optional[JobResult] = None
        self.dispatched_at = 0.0
        self.last_seen = 0.0
        self.limit_at: Optional[float] = None
        #: where this job's results/attempts are journaled (its campaign)
        self.checkpoint = checkpoint
        #: where this job's heartbeat shards land (its campaign)
        self.telemetry = telemetry
        #: per-tenant accounting tag for the shared content store
        self.tenant = tenant


class CampaignSupervisor:
    """Drive jobs to completion under the recovery ladder.

    Built per :meth:`ProcessPoolRunner.run` / :meth:`ProcessPoolRunner.serve`
    call; exposes its tallies (``retries``, ``quarantined_jobs``,
    ``stalled_jobs``, ``pool_rebuilds``) for the merger to surface.
    """

    def __init__(
        self,
        runner,
        config: Optional[SupervisorConfig] = None,
        checkpoint=None,
    ) -> None:
        self.runner = runner
        self.config = (config or SupervisorConfig()).validate()
        self.checkpoint = checkpoint
        #: retry dispatches performed (attempts beyond each job's first)
        self.retries = 0
        #: keys quarantined this run, in quarantine order
        self.quarantined_jobs: List[str] = []
        #: jobs the watchdog declared stalled at least once
        self.stalled_jobs = 0
        #: pools rebuilt after a break or a wedged worker
        self.pool_rebuilds = 0
        #: jobs in flight at once; 1 means no pool (every job in-process)
        self._fleet = runner.workers
        #: run every dispatch in-process: a fleet of one, or a pool
        #: downgraded after its rebuild budget ran out
        self._serial_only = False
        self._executor = None
        self._progress: Optional[Callable[[JobResult], None]] = None
        self._by_key: Dict[str, _JobState] = {}
        #: jobs settled (finished or quarantined) by this session
        self._settled = 0

    # -- entry points ------------------------------------------------------

    def run(
        self,
        jobs: Sequence[SearchJob],
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Run ``jobs`` to completion; results in the given job order.

        The batch is served as a lease source over the job list, with a
        fleet no larger than the batch (a one-job batch runs in-process).
        Raises :class:`SearchInterrupted` on a requested shutdown after
        draining; everything finished by then is checkpointed.
        """
        jobs = list(jobs)
        source = _JobListSource(jobs, self.checkpoint, self.runner.telemetry_dir)
        self._serve(source, progress, min(self.runner.workers, len(jobs)))
        return [source.results[job.key] for job in jobs if job.key in source.results]

    def serve(
        self,
        source: "JobLeaseSource",
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> int:
        """Serve leases from ``source`` until it has nothing outstanding.

        Jobs are pulled one :class:`JobLease` at a time as fleet slots
        free up (which is what makes priority preemption job-granular —
        a higher-priority campaign submitted mid-run wins the *next*
        slot, never an occupied one), each carrying its own campaign's
        checkpoint and telemetry directory.  Finished jobs are handed
        to ``source.completed`` before ``progress``; a shutdown drains
        in-flight jobs, hands un-run leases back via
        ``source.released``, and raises :class:`SearchInterrupted`.
        Returns the number of jobs settled this session.
        """
        self._serve(source, progress, self.runner.workers)
        return self._settled

    def _serve(
        self,
        source: "JobLeaseSource",
        progress: Optional[Callable[[JobResult], None]],
        fleet: int,
    ) -> None:
        """The one dispatch loop: retries first, then fresh leases, until
        the source runs dry; a fleet of one runs every job in-process."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from ..obs.shipper import ShardReaderGroup

        def _on_result(result: JobResult) -> None:
            source.completed(result)
            if progress is not None:
                progress(result)

        self._progress = _on_result
        self._settled = 0
        self._fleet = fleet
        self._serial_only = fleet == 1
        # dispatch-time fault decisions (worker-proc, hang, pool) are
        # consulted once per lease in lease order: the plan counts each
        # site separately, so this fires on the same jobs at any fleet
        # size and attempt count
        plan = (
            FaultPlan.parse(self.runner.fault_spec)
            if self.runner.fault_spec
            else current().fault_plan
        )
        cfg = self.config
        queue: Deque[_JobState] = deque()  # retries only; fresh work is leased
        inflight: Dict[object, _JobState] = {}
        deferred: List[_JobState] = []
        reader = ShardReaderGroup() if cfg.stall_timeout > 0 else None
        try:
            while True:
                # every exit from this loop passes through this check: a
                # shutdown flagged anywhere — including by an in-process
                # dispatch or a collected shutdown artifact — raises here
                # instead of falling out with jobs silently dropped
                if current().stop.reason:
                    self._shutdown(source, queue, deferred, inflight)
                # top up the fleet: internal retries first, then fresh
                # leases, until every slot is claimed
                while len(inflight) < fleet and not current().stop.reason:
                    if queue:
                        state = queue.popleft()
                    else:
                        state = self._lease_state(source, plan)
                        if state is None:
                            break
                    if (state.inprocess or self._serial_only) and inflight:
                        # an in-process job runs synchronously right
                        # here, suspending heartbeat/timeout supervision
                        # of everything already in flight: hold it until
                        # the pool is idle
                        deferred.append(state)
                        continue
                    self._dispatch(state, queue, inflight)
                queue.extend(deferred)
                deferred.clear()
                if current().stop.reason:
                    self._shutdown(source, queue, deferred, inflight)
                if reader is not None:
                    for state in inflight.values():
                        reader.watch(state.telemetry)
                if not inflight:
                    if queue:
                        continue
                    if not source.outstanding():
                        return
                    time.sleep(cfg.poll_interval)
                    continue
                done, _ = wait(
                    list(inflight),
                    timeout=cfg.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                pool_broke = False
                for future in done:
                    state = inflight.pop(future, None)
                    if state is None:
                        continue  # already reassigned by a pool rebuild
                    if self._collect(state, future, queue, inflight):
                        pool_broke = True
                        break
                if inflight and not pool_broke:
                    self._watch(inflight, queue, reader)
        finally:
            self._teardown_pool()

    def _lease_state(self, source, plan) -> Optional[_JobState]:
        """Pull one lease and wrap it in supervision bookkeeping."""
        lease = source.lease()
        if lease is None:
            return None
        job = lease.job
        checkpoint = lease.checkpoint
        state = _JobState(
            job,
            len(self._by_key),
            plan.should_fire("worker-proc"),
            plan.should_fire("hang"),
            plan.should_fire("pool"),
            spent=checkpoint.attempts(job.key) if checkpoint is not None else 0,
            checkpoint=checkpoint,
            telemetry=lease.telemetry_dir,
            tenant=lease.tenant,
        )
        # heartbeat routing for the watchdog; a key is leased by at most
        # one campaign at a time, so the map is unambiguous (entries are
        # dropped again once the job settles)
        self._by_key[job.key] = state
        return state

    def _settle_hook(self, state: _JobState) -> None:
        """Bookkeeping common to finish and quarantine: the job no
        longer needs heartbeat routing, and the session counts it."""
        self._by_key.pop(state.job.key, None)
        self._settled += 1

    def _shutdown(
        self,
        source,
        queue: Deque[_JobState],
        deferred: List[_JobState],
        inflight: Dict[object, _JobState],
    ) -> None:
        """Drain, hand un-run leases back to the source, raise."""
        pending = list(queue) + list(deferred) + list(inflight.values())
        self._drain(inflight)
        for state in pending:
            if state.result is None:
                source.released(state.job)
        self._raise_shutdown()

    def _dispatch(
        self,
        state: _JobState,
        queue: Deque[_JobState],
        inflight: Dict[object, _JobState],
    ) -> None:
        cfg = self.config
        if state.result is not None:
            return
        if state.attempts >= cfg.max_attempts:
            self._quarantine(state)
            return
        attempt = state.attempts + 1
        if state.pool:
            # injected pool break "while the job runs": the attempt dies
            # with the pool, jobs in flight are innocent bystanders —
            # re-dispatched on the fresh pool without spending attempts
            state.pool = False
            self._fail_attempt(
                state, attempt, "pool", "injected pool break (fault plan)"
            )
            queue.append(state)
            if self._executor is not None:
                for other in inflight.values():
                    queue.append(other)
                inflight.clear()
                self._rebuild_pool("injected pool break")
            return
        hang = state.hang
        state.hang = False
        if hang and state.killed:
            hang = False
        if hang and not self._hang_reclaimable(state):
            # nothing is armed to reclaim the wedge (no deadline, and no
            # watchdog over a pooled job with heartbeats): spend the
            # attempt rather than hang the whole campaign
            self._fail_attempt(
                state,
                attempt,
                "hang",
                "injected hang with no deadline or watchdog to reclaim it",
            )
            queue.append(state)
            return
        self._count_legacy_kill(state)
        self._backoff(attempt)
        executor = None if (state.inprocess or self._serial_only) else (
            self._ensure_executor()
        )
        if executor is None:
            # a fleet of one / worker-proc containment / post-kill
            # retry / downgraded pool: run in the parent, which
            # guarantees completion
            if hang and cfg.job_deadline <= 0:
                # in the parent only the deadline can reclaim a wedge
                # (the watchdog cannot kill its own process); spend the
                # attempt rather than hang the whole campaign
                self._fail_attempt(
                    state,
                    attempt,
                    "hang",
                    "injected hang with no deadline to reclaim it in-process",
                )
                queue.append(state)
                return
            result = run_job(
                state.job,
                self.runner.cache_dir,
                self.runner.fault_spec,
                state.telemetry,
                hang=hang,
                store_dir=self.runner.store_dir,
                seed_from_store=self.runner.seed_from_store,
                store_tenant=state.tenant,
            )
            if result.interrupted and current().stop.reason:
                # shutdown artifact: the job stays un-run (resume re-runs
                # it) and the loop's post-dispatch check raises
                queue.append(state)
                return
            self._settle(state, attempt, result, queue)
            return
        future = executor.submit(
            run_job,
            state.job,
            self.runner.cache_dir,
            self.runner.fault_spec,
            state.telemetry,
            hang,
            self.runner.store_dir,
            self.runner.seed_from_store,
            state.tenant,
        )
        now = time.monotonic()
        state.dispatched_at = now
        state.last_seen = now
        state.limit_at = (
            now + 2.0 * cfg.job_deadline + cfg.deadline_grace
            if cfg.job_deadline > 0
            else None
        )
        inflight[future] = state

    def _collect(
        self,
        state: _JobState,
        future,
        queue: Deque[_JobState],
        inflight: Dict[object, _JobState],
    ) -> bool:
        """Fold one finished future; True when the pool broke under it."""
        from concurrent.futures.process import BrokenProcessPool

        attempt = state.attempts + 1
        try:
            result = future.result()
        except BrokenProcessPool:
            # the pool died, but *which* in-flight job poisoned it is
            # unknowable from here — this future merely surfaced first.
            # Every in-flight job (this one included) is an innocent
            # bystander: re-dispatch all of them without spending
            # attempts.  A genuinely poisonous job is still bounded,
            # because rebuilds are capped and the downgraded in-process
            # path has no pool to break
            queue.append(state)
            for other in inflight.values():
                queue.append(other)
            inflight.clear()
            self._rebuild_pool("broken process pool")
            return True
        except Exception as exc:  # noqa: BLE001 - per-future containment
            # the worker died or its result could not cross the process
            # boundary; count the kill (legacy containment metric) and
            # guarantee the retry completes by running it in-process
            self.runner._count_kill()
            state.inprocess = True
            self._fail_attempt(
                state, attempt, "killed", f"{type(exc).__name__}: {exc}"
            )
            queue.append(state)
            return False
        if result.interrupted and current().stop.reason:
            # shutdown artifact: not settled, and the loop's
            # top-of-iteration check raises even when this was the last
            # in-flight future
            queue.append(state)
            return False
        self._settle(state, attempt, result, queue)
        return False

    def _watch(
        self,
        inflight: Dict[object, _JobState],
        queue: Deque[_JobState],
        reader,
    ) -> None:
        """Stall + defensive-timeout pass over the in-flight jobs."""
        cfg = self.config
        now = time.monotonic()
        if reader is not None:
            for job_key, _event in reader.poll():
                seen = self._by_key.get(job_key)
                if seen is not None:
                    seen.last_seen = now
        wedged = []
        for future, state in inflight.items():
            silent_for = now - max(state.dispatched_at, state.last_seen)
            # only a job that ships heartbeats can fall silent
            stalled = reader is not None and state.telemetry
            if stalled and silent_for > cfg.stall_timeout:
                wedged.append((future, state, "stalled"))
            elif state.limit_at is not None and now > state.limit_at:
                wedged.append((future, state, "timeout"))
        if not wedged:
            return
        # a wedged worker can only be reclaimed by killing its process,
        # which takes the whole pool down: fail the culprits' attempts,
        # re-dispatch the innocents for free, rebuild
        for future, state, outcome in wedged:
            inflight.pop(future, None)
            future.cancel()
            if outcome == "stalled":
                state.stalled = True
                self.stalled_jobs += 1
                self._count("engine.supervisor.stalled")
                self._emit(
                    "job_stalled",
                    job=state.job.key,
                    silence=round(cfg.stall_timeout, 3),
                )
                detail = (
                    f"no heartbeat for {cfg.stall_timeout:g}s; worker killed"
                )
            else:
                detail = (
                    "worker overran the defensive deadline "
                    f"({2 * cfg.job_deadline + cfg.deadline_grace:g}s); killed"
                )
            self._fail_attempt(state, state.attempts + 1, outcome, detail)
            queue.append(state)
        for other in inflight.values():
            queue.append(other)
        inflight.clear()
        self._rebuild_pool("wedged worker")

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_executor(self):
        if self._serial_only:
            return None
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing as mp
            from .runner import _ensure_importable_by_children

            _ensure_importable_by_children()
            self._executor = ProcessPoolExecutor(
                max_workers=self._fleet,
                mp_context=mp.get_context("spawn"),
            )
        return self._executor

    def _teardown_pool(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = list(getattr(executor, "_processes", {}).values() or [])
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - teardown is best effort
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001
                pass

    def _rebuild_pool(self, reason: str) -> None:
        self._teardown_pool()
        if self.pool_rebuilds >= self.config.max_pool_rebuilds:
            # rebuild budget exhausted: the rest of the campaign runs
            # in-process — same results, slower wall clock
            self._serial_only = True
            self._emit("pool_downgraded", reason=reason)
            return
        self.pool_rebuilds += 1
        self._count("engine.supervisor.pool_rebuilds")
        self._emit("pool_rebuilt", reason=reason, rebuilds=self.pool_rebuilds)
        # the executor itself is rebuilt lazily on the next dispatch

    # -- attempt accounting ------------------------------------------------

    def _failure(self, result: JobResult) -> Optional[str]:
        """The failure outcome of an attempt, or None when it stands.

        Only *infrastructure* failures (deadline here; killed / stalled /
        timeout at their detection sites; the injected ``pool`` fault at
        dispatch — a *real* pool break charges nobody) spend attempts.
        A job
        whose search fails deterministically (``ok=False``) is a result,
        not a fault: the execution model makes re-running it
        answer-preserving by construction, so a retry could only
        reproduce the same error — it is recorded directly, exactly as
        an unsupervised campaign would.
        """
        if result.deadline_exceeded:
            return "deadline"
        return None

    def _settle(
        self,
        state: _JobState,
        attempt: int,
        result: JobResult,
        queue: Optional[Deque[_JobState]] = None,
    ) -> None:
        outcome = self._failure(result)
        if outcome is None:
            self._finish(state, attempt, result)
            return
        if outcome == "deadline":
            self._count("engine.supervisor.deadline_exceeded")
            error = f"job deadline exceeded after {result.runs} runs"
        else:
            error = result.error
        self._fail_attempt(state, attempt, outcome, error, partial=result)
        if queue is not None:
            queue.append(state)

    def _fail_attempt(
        self,
        state: _JobState,
        attempt: int,
        outcome: str,
        error: str = "",
        partial: Optional[JobResult] = None,
    ) -> None:
        state.attempts = attempt
        state.last_outcome = outcome
        state.last_error = error
        if partial is not None:
            state.last_partial = partial
        if state.checkpoint is not None:
            state.checkpoint.record_attempt(
                state.job.key, attempt, outcome, error=error, partial=partial
            )
        if attempt < self.config.max_attempts:
            self.retries += 1
            self._count("engine.supervisor.retries")
            self._emit(
                "job_retried",
                job=state.job.key,
                attempt=attempt + 1,
                outcome=outcome,
                error=error,
            )

    def _finish(self, state: _JobState, attempt: int, result: JobResult) -> None:
        result.attempts = attempt
        result.stalled = state.stalled
        if state.killed:
            result.killed_worker = True
        state.result = result
        self._settle_hook(state)
        if self._progress is not None:
            self._progress(result)

    def _quarantine(self, state: _JobState) -> None:
        """Exhausted attempts: record the poison job and move on."""
        outcome, error = state.last_outcome, state.last_error
        partial = state.last_partial
        if partial is None and state.checkpoint is not None:
            # resume path: rebuild the salvage from the attempt ledger
            ledger = state.checkpoint.last_attempt(state.job.key)
            if ledger:
                outcome = outcome or str(ledger.get("outcome", ""))
                error = error or str(ledger.get("error", ""))
                saved = ledger.get("partial")
                if isinstance(saved, dict):
                    try:
                        partial = JobResult.from_payload(saved)
                    except (ReproError, KeyError, ValueError, TypeError):
                        partial = None
        result = partial if partial is not None else JobResult(
            key=state.job.key,
            scheduler=str(state.job.config.get("scheduler", "dfs")),
        )
        result.ok = False
        result.quarantined = True
        result.attempts = state.attempts
        result.stalled = state.stalled or result.stalled
        if state.killed:
            result.killed_worker = True
        result.error = (
            f"quarantined after {state.attempts} attempts "
            f"(last failure: {outcome or 'unknown'}"
            + (f": {error}" if error else "")
            + ")"
        )
        state.result = result
        self._settle_hook(state)
        self.quarantined_jobs.append(state.job.key)
        self._count("engine.supervisor.quarantined")
        self._emit(
            "job_quarantined",
            job=state.job.key,
            attempts=state.attempts,
            outcome=outcome,
            error=result.error,
        )
        if self._progress is not None:
            self._progress(result)

    # -- shutdown ----------------------------------------------------------

    def _raise_shutdown(self) -> None:
        reason = current().stop.reason or "signal"
        self._count("engine.supervisor.shutdowns")
        directory = (
            self.checkpoint.directory if self.checkpoint is not None else None
        )
        message = f"campaign interrupted by {reason}"
        if directory:
            message += "; finished jobs are checkpointed"
        raise SearchInterrupted(message, checkpoint_dir=directory)

    def _drain(self, inflight: Dict[object, _JobState]) -> None:
        """Give in-flight jobs ``drain_timeout`` seconds to land."""
        if not inflight:
            return
        from concurrent.futures import FIRST_COMPLETED, wait

        deadline = time.monotonic() + self.config.drain_timeout
        while inflight and time.monotonic() < deadline:
            done, _ = wait(
                list(inflight), timeout=0.1, return_when=FIRST_COMPLETED
            )
            for future in done:
                state = inflight.pop(future, None)
                if state is None:
                    continue
                try:
                    result = future.result()
                except Exception:  # noqa: BLE001 - draining is best effort
                    continue
                if result.interrupted:
                    continue  # shutdown artifact; resume re-runs it
                if self._failure(result) is None:
                    self._finish(state, state.attempts + 1, result)
        inflight.clear()

    # -- small helpers -----------------------------------------------------

    def _hang_reclaimable(self, state: _JobState) -> bool:
        """Can *anything* reclaim a wedged search for this dispatch?"""
        cfg = self.config
        if cfg.job_deadline > 0:
            return True  # the kernel reclaims itself at the deadline
        # the watchdog only guards a fleet with a pool, and only jobs
        # that ship heartbeats
        return bool(self._fleet > 1 and cfg.stall_timeout > 0 and state.telemetry)

    def _count_legacy_kill(self, state: _JobState) -> None:
        """The dispatch-time ``worker-proc`` kill, counted once per job."""
        if state.killed and not state.kill_counted:
            state.kill_counted = True
            self.runner._count_kill()

    def _backoff(self, attempt: int) -> None:
        if attempt > 1 and self.config.retry_backoff > 0:
            time.sleep(self.config.retry_backoff * (attempt - 1))

    def _count(self, name: str) -> None:
        registry = current().registry
        if registry.enabled:
            registry.counter(name).inc()

    def _emit(self, kind: str, **fields: object) -> None:
        current().journal.emit(kind, **fields)
