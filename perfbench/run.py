"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hotg-apps --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced cycles and reports
the per-layer metrics.  The metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every correctness
check passed, 1 when one failed and 2 when the program cannot be found.
A failed operation (a crashed or timed-out session, a failed job) counts
in ``failed`` but leaves ``correct`` true when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-ups run in batches of at least ``SETUP_BATCH_S`` seconds, one batch
#: before the first pass and one after every pass, and at least
#: ``SETUP_REPEATS`` in all; ``setup_s`` is their median.  Spreading them
#: over the run keeps a few seconds of slow host from setting the median
SETUP_BATCH_S = 0.1
SETUP_REPEATS = 3

#: solver timings depend on str hash order (up to 40% on tinyvm), so every
#: run uses one fixed hash seed; search answers do not depend on it
HASH_SEED = "0"


def _pin_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _child_pids() -> List[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"{task_dir}/{task}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return pids


def stop_children() -> None:
    """End and reap every process this run started.

    The campaign's pool workers are terminated but not joined by the
    engine, and multiprocessing's resource tracker would outlive this
    process; either would still run after the benchmark exits.  What is
    left after waiting for them is killed.
    """
    from workloads import reap_workers

    reap_workers()
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _unit(name: str) -> str:
    """Unit of a metric, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("ratio", "ratio"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """Timed set-ups and passes of one workload, with their checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.passes = []
        self.failures: List[str] = []
        self.mismatches: List[str] = []
        self._first = None

    def timed_setup(self) -> float:
        """CPU seconds of one set-up."""
        from workloads import cpu_seconds

        start = cpu_seconds()
        self.workload.setup()
        return cpu_seconds() - start

    def measured_pass(self):
        """One pass; checked in full the first time, by digest after."""
        out = self.workload.run_pass(verify=self._first is None)
        return self.record(out)

    def record(self, out):
        self.failures.extend(out.failures)
        self.mismatches.extend(out.mismatches)
        if self._first is None:
            self._first = out
        elif out.lost == self._first.lost and out.digest != self._first.digest:
            # passes that lost different sessions differ by failed
            # operations, which are counted already
            self.mismatches.append(
                f"pass {len(self.passes) + 1} output digest differs from pass 1"
            )
        self.passes.append(out)
        return out

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)


def end_to_end(workload, seconds: float) -> Tuple[Dict[str, float], Dict, Run]:
    run = Run(workload)
    setups: List[float] = []

    def setup_batch() -> None:
        spent = 0.0
        while spent < SETUP_BATCH_S:
            setups.append(run.timed_setup())
            spent += setups[-1]

    setup_batch()
    measured = 0.0
    while measured < seconds:
        measured += run.measured_pass().seconds
        setup_batch()
    while len(setups) < SETUP_REPEATS:
        setups.append(run.timed_setup())
    passes = run.passes
    total_s = sum(p.seconds for p in passes)
    keys = passes[0].sessions
    sessions = [
        _median([p.sessions[k] for p in passes if k in p.sessions]) for k in keys
    ]
    metrics = {
        "cpu_s": _median([p.cpu_s for p in passes]),
        "wall_s": _median([p.seconds for p in passes]),
        "setup_s": _median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "runs_per_s": sum(p.runs for p in passes) / total_s,
        "session_p50_ms": _median(sessions) * 1e3,
        "session_p90_ms": _percentile(sessions, 90) * 1e3,
        "session_p99_ms": _percentile(sessions, 99) * 1e3,
    }
    flips = sum(p.flips for p in passes)
    if flips:
        metrics["flips_per_s"] = flips / total_s
    for name in sorted({n for p in passes for n in p.extra}):
        metrics[name] = _median([p.extra[name] for p in passes])
    if "engine.jobs" in passes[0].layers:
        metrics["jobs_per_s"] = sum(p.layers["engine.jobs"] for p in passes) / total_s
    layers = _layer_sums(passes)
    lost = layers.get("search.abandoned", 0) + len(run.failures) + len(run.mismatches)
    info = {
        "passes": " ".join(f"{p.seconds:.3f}" for p in passes),
        "sessions": len(sessions),
        "digest": passes[0].digest[:12],
        "failed_ratio": f"{lost}/{run.attempted}",
    }
    return metrics, info, run


def _layer_sums(passes) -> Dict[str, float]:
    sums: Dict[str, float] = {}
    for p in passes:
        for name, value in p.layers.items():
            sums[name] = sums.get(name, 0) + value
    return sums


def per_layer(workload, seconds: float) -> Tuple[Dict[str, float], Dict, Run]:
    """Alternate untraced and traced cycles (set-up plus pass), after one
    untimed warm-up cycle."""
    from tracing import Tracer

    run = Run(workload)
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    traced_cycle_s = 0.0
    traced_passes = []
    elapsed = 0.0
    warm = False
    while not (warm and traced and untraced) or elapsed < seconds:
        trace_this = warm and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
        start = perf_counter()
        try:
            workload.setup()
            out = workload.run_pass(verify=not warm)
        finally:
            cycle = perf_counter() - start
            tracer.uninstall()
        elapsed += cycle
        run.record(out)
        if trace_this:
            traced.append(out.seconds)
            traced_cycle_s += cycle
            traced_passes.append(out)
        elif warm:
            untraced.append(out.seconds)
        warm = True
    n = len(traced)
    layers = tracer.layer_report()
    metrics: Dict[str, float] = {}
    for name, entry in layers.items():
        if name == "roots":
            continue
        metrics[f"{name}.calls"] = entry["calls"] / n
        metrics[f"{name}.self_s"] = entry["self_s"] / n
        metrics[f"{name}.max_ms"] = entry["max_ms"]
    for name, value in tracer.counts.items():
        metrics[name] = value / n
    validity_calls = metrics.get("solver.validity.calls", 0)
    metrics["solver.validity.valid_ratio"] = (
        metrics["solver.validity.valid"] / validity_calls if validity_calls else 0.0
    )
    for name, value in _layer_sums(traced_passes).items():
        metrics[name] = value / n
    hits = metrics.get("solver.cache.hits", 0)
    lookups = hits + metrics.get("solver.cache.misses", 0)
    metrics["solver.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.wall_s"] = _median(traced)
    metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
    metrics["trace.unattributed_s"] = (traced_cycle_s - layers["roots"]["self_s"]) / n
    metrics["trace.spans"] = tracer.span_count / n
    info = {"cycles": f"{len(untraced)} untraced + {n} traced"}
    return metrics, info, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: the program sources are missing: {src}/repro", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    _pin_hash_seed()
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, info, run = measure(workload, args.seconds)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # a layer the workload never enters (the engine on a search, the
        # solver on fuzzing) reads 0
        for m in wanted:
            metrics.setdefault(m["name"], 0.0)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:.6g} {_unit(name)}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for mismatch in run.mismatches:
        print(f"MISMATCH: {mismatch}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    misnamed = [m["name"] for m in wanted if m["unit"] != _unit(m["name"])]
    if misnamed:
        print(f"error: units disagree with names: {', '.join(misnamed)}", file=sys.stderr)
        return 1
    result = {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": len(run.failures) + len(run.mismatches),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
