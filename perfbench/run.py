"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chengdu-dense --seed 1 --seconds 30 --trace 0

Replays whole rounds of the workload's seeded stream — each round a freshly
set-up session — until ``--seconds`` of serving time have been measured, then
checks the first round's outputs against computations made apart from the
program. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
span wrappers around the layers' public calls and prints the per-layer
metrics instead. Diagnostic lines start with ``#``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SETUPS = 7
"""Set-ups per run; ``setup_s`` is their median."""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_speed_ms() -> str:
    """Median wall and CPU time of a fixed pure-Python loop (diagnosis only, never a scale)."""
    walls, cpus = [], []
    for _ in range(3):
        started, started_cpu = time.perf_counter(), time.thread_time()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        cpus.append((time.thread_time() - started_cpu) * 1e3)
        walls.append((time.perf_counter() - started) * 1e3)
    return f"{statistics.median(walls):.2f}/{statistics.median(cpus):.2f}"


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, min(len(sorted_values), int(-(-fraction * len(sorted_values) // 1))))
    return sorted_values[rank - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import serve
    import tracing
    from distances import IndependentDistances
    from workloads import WORKLOADS, make_inputs, start_session

    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, seed)
    speed_before = machine_speed_ms()
    tracer = tracing.Tracer() if trace else None
    setups: list[float] = []
    replays: list[serve.Replay] = []
    recorded = samples = None
    serving = 0.0
    with contextlib.ExitStack() as installed:
        if tracer is not None:
            tracer.install()
            installed.callback(tracer.uninstall)
        installed.enter_context(serve.sequenced_records())
        while serving < seconds or not replays:
            session = start_session(workload, inputs)
            setups.append(session.setup_s)
            recorder = None
            if workload.spot_checks and not trace:
                recorder = serve.SpotCheckRecorder(
                    serve.sample_ids(session.instance, seed, workload.spot_checks)
                )
            if tracer is not None:
                tracer.begin_round()
            with recorder or contextlib.nullcontext():
                result = serve.replay(session, recorder)
            if tracer is not None:
                tracer.end_round(session, result)
            replays.append(result)
            serving += result.wall_s
            print(
                f"# round {len(replays)}: {len(result.latencies)} decisions in "
                f"{result.wall_s:.3f}s, setup {session.setup_s:.3f}s, "
                f"served {result.result.served_requests}",
                flush=True,
            )
            if recorded is None:
                # keep round 1 as plain values only, so that no two sessions
                # are alive at once and ru_maxrss is that of one session
                recorded = serve.record(session, result)
                samples = recorder.samples if recorder is not None else None
            del session, recorder
            gc.collect()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while len(setups) < MIN_SETUPS:
            setups.append(start_session(workload, inputs).setup_s)
    speed_after = machine_speed_ms()

    # ---------------------------------------------------------------- checks
    first = replays[0]
    failures: list[str] = []
    reference = serve.fingerprint(first.result)
    for index, other in enumerate(replays[1:], start=2):
        failures += checks.check_identical(
            f"round {index} vs round 1", serve.fingerprint(other.result), reference
        )
    base = IndependentDistances(inputs.base_edges)
    failures += check_recorded("round 1", recorded, base)
    if samples is not None:
        failures += check_spot_samples(samples, inputs, base)
    layer_tracers: dict[str, tracing.Tracer] = {}
    if workload.differential is not None:
        layer_tracers, differential_failures = replay_differential(
            workload.differential, seed, trace
        )
        failures += differential_failures
    for failure in failures:
        print(f"# CHECK FAILED: {failure}", flush=True)

    attempted = sum(result.attempted for result in replays)
    failed = sum(result.failed for result in replays)
    requests = len(inputs.requests) * len(replays)
    latencies = sorted(value for result in replays for value in result.latencies)
    wall_latencies = sorted(value for result in replays for value in result.wall_latencies)
    print(
        f"# machine loop_ms wall/cpu before={speed_before} after={speed_after}; "
        f"rounds={len(replays)} setups={len(setups)}; "
        f"throughput_rps={requests / serving:.2f} traced={int(trace)}; "
        f"wall-clock decision p50 {percentile(wall_latencies, 0.50) * 1e3:.3f} ms, "
        f"p99 {percentile(wall_latencies, 0.99) * 1e3:.3f} ms",
        flush=True,
    )
    if trace:
        metrics = tracer.metrics()
        for prefix, layer_tracer in layer_tracers.items():
            metrics.update(
                (name, value)
                for name, value in layer_tracer.metrics().items()
                if name.startswith(prefix)
            )
    else:
        metrics = {
            "throughput_rps": (requests / serving, "req/s"),
            "decision_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "decision_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
            "served_requests": (first.result.served_requests, "count"),
            "unified_cost": (first.result.unified_cost, "travel-s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MiB"),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def check_recorded(label: str, recorded, base) -> list[str]:
    """The independent checks of one recorded replay, on base-network distances."""
    import checks

    base.prefetch(checks.travel_pairs(recorded))
    failures = checks.check_accounting(recorded)
    failures += checks.check_time_windows(recorded)
    failures += checks.check_capacity(recorded)
    failures += checks.check_travel_lower_bounds(recorded, base)
    failures += checks.check_unified_cost(recorded, base)
    short, legs, worst = checks.clamped_legs(recorded, base)
    print(
        f"# {label}: legs recorded shorter than the shortest travel time: {short} of {legs} "
        f"(worst by {worst:.3f}s)",
        flush=True,
    )
    return failures


def replay_differential(workload, seed: int, trace: bool):
    """Replay ``workload``'s inputs sharded in-process and on the cluster, after timing.

    Both replays must pass the independent checks (the sharded one also the
    optimality spot-check, on its inner shard decisions), and the cluster's result
    must be bit-identical to the in-process sharded one. Their rates and
    latencies are printed as ``#`` lines and not gated: on a 2-CPU machine
    they do not hold still between runs of the same code. In a traced run
    each replay is traced on its own; the ``sharding.*`` per-layer metrics
    come from the first, the ``cluster.*`` ones from the second.
    """
    import checks
    import serve
    import tracing
    from distances import IndependentDistances
    from workloads import make_inputs, start_session

    inputs = make_inputs(workload, seed)
    base = IndependentDistances(inputs.base_edges)
    tracers: dict[str, tracing.Tracer] = {}
    replays = {}
    failures: list[str] = []
    for mode, prefix, processes in (
        ("sharded", "sharding.", 0),
        ("cluster", "cluster.", workload.shards),
    ):
        tracer = tracing.Tracer(worker_processes=processes) if trace else None
        with contextlib.ExitStack() as installed:
            if tracer is not None:
                tracer.install()
                installed.callback(tracer.uninstall)
                tracers[prefix] = tracer
            installed.enter_context(serve.sequenced_records())
            session = start_session(workload, inputs, mode=mode)
            if mode == "cluster":
                installed.callback(session.service.close)
            recorder = None
            if mode == "sharded" and workload.spot_checks and not trace:
                recorder = serve.SpotCheckRecorder(
                    serve.sample_ids(session.instance, seed, workload.spot_checks)
                )
            with recorder or contextlib.nullcontext():
                replay = serve.replay(session, recorder)
            if recorder is not None:
                failures += [
                    f"{mode} replay: {failure}"
                    for failure in check_spot_samples(recorder.samples, inputs, base)
                ]
            if tracer is not None:
                tracer.end_round(session, replay)
            recorded = serve.record(session, replay)
            del session
        replays[mode] = replay, recorded
        # cluster decisions are made in other processes: wall clock only
        latencies = sorted(replay.wall_latencies)
        print(
            f"# {mode} replay of the {workload.name} inputs (K={workload.shards}, not gated, "
            f"wall clock): {len(inputs.requests) / replay.wall_s:.2f} req/s, "
            f"p50 {percentile(latencies, 0.50) * 1e3:.3f} ms, "
            f"p99 {percentile(latencies, 0.99) * 1e3:.3f} ms, "
            f"served {replay.result.served_requests}, failed {replay.failed}",
            flush=True,
        )
    for mode, (replay, recorded) in replays.items():
        label = f"{mode} replay"
        failures += [f"{label}: {failure}" for failure in check_recorded(label, recorded, base)]
        if replay.failed:
            failures.append(f"{mode} replay: {replay.failed} operations failed")
    failures += checks.check_identical(
        "cluster vs in-process sharded",
        serve.fingerprint(replays["cluster"][0].result),
        serve.fingerprint(replays["sharded"][0].result),
    )
    return tracers, failures


def check_spot_samples(samples, inputs, base) -> list[str]:
    """Optimality spot-check, with distances of the network at each decision."""
    import checks
    from distances import IndependentDistances

    versions = {0: base}
    edges = {(min(u, v), max(u, v)): (u, v, cost) for u, v, cost in inputs.base_edges}
    for number, action in enumerate(inputs.timeline, start=1):
        for spec in action.edges:
            key = (min(spec.u, spec.v), max(spec.u, spec.v))
            if action.kind == "close":
                edges.pop(key, None)
            else:
                edges[key] = (spec.u, spec.v, spec.length / spec.speed)
        if any(sample.network_version == number for sample in samples):
            versions[number] = IndependentDistances(tuple(edges.values()))
    for sample in samples:
        versions[sample.network_version].prefetch(checks.insertion_pairs(sample))
    return checks.check_optimality(samples, versions.__getitem__)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
