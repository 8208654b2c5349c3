"""Per-layer spans, recorded from the benchmark's own files.

:class:`Tracer` replaces the public calls into each layer with wrappers that
time them, for the length of a traced run, and restores them afterwards.
Nothing in the program changes. Spans nest on one stack per process: a
span's *self* time is its duration minus the time of the spans it encloses.
Calls of one family (for example the ``DistanceOracle.distance*`` calls)
count once when they nest inside each other.

The cluster's shard workers are forked after the wrappers are installed, so
they run the same wrappers; their busy, decide and prep times go to a shared
memory block the front door reads after each round.

Per-layer metrics are reported per round (totals divided by the number of
rounds), so runs with different round counts compare.
"""

from __future__ import annotations

import mmap
import multiprocessing.connection
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import repro.dispatch.greedy_dp as greedy_dp
from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.worker import ShardWorkerRuntime
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.dispatch.base import Dispatcher
from repro.index.grid import GridIndex
from repro.network.oracle import DistanceOracle
from repro.service.facade import MatchingService
from repro.sharding.dispatcher import ShardedDispatcher
from repro.simulation.engine import EventEngine
from repro.simulation.fleet import FleetState, WorkerState

_MAX_SHARDS = 16
_WORKER_FIELDS = ("busy", "decide", "prep")
_WORKER_HANDLERS = (
    "handle_dispatch",
    "handle_flush",
    "handle_cancel",
    "handle_add_worker",
    "handle_network_update",
    "handle_stats",
)

PER_LAYER = {
    "network.query_calls": "count",
    "network.query_s": "s",
    "network.path_calls": "count",
    "network.path_s": "s",
    "network.refresh_calls": "count",
    "network.refresh_s": "s",
    "network.build_s": "s",
    "network.cache_hit_ratio": "ratio",
    "insertion.lb_calls": "count",
    "insertion.lb_s": "s",
    "insertion.dp_calls": "count",
    "insertion.dp_s": "s",
    "insertion.dp_per_candidate": "ratio",
    "dispatch.decide_self_s": "s",
    "dispatch.candidates_s": "s",
    "dispatch.candidates_per_decision": "count",
    "dispatch.insertions_per_decision": "count",
    "index.query_calls": "count",
    "index.query_s": "s",
    "fleet.advance_calls": "count",
    "fleet.advance_s": "s",
    "engine.self_s": "s",
    "engine.drain_s": "s",
    "service.update_calls": "count",
    "service.update_p50_ms": "ms",
    "sharding.route_self_s": "s",
    "sharding.escalations": "count",
    "cluster.ipc_wait_s": "s",
    "cluster.send_s": "s",
    "cluster.bytes_sent": "bytes",
    "cluster.bytes_received": "bytes",
    "cluster.commands": "count",
    "cluster.frontdoor_self_s": "s",
    "cluster.worker_busy_s": "s",
    "cluster.worker_decide_s": "s",
    "cluster.worker_prep_s": "s",
    "cluster.worker_idle_ratio": "ratio",
}
"""Every per-layer metric with its unit; a layer a workload does not reach reads 0."""


class Tracer:
    """Span and count wrappers around the layers' public calls."""

    def __init__(self, worker_processes: int = 0) -> None:
        self.worker_processes = worker_processes
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.update_ms: list[float] = []
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._rounds = 0
        self._serving_s = 0.0
        self._cache_ratios: list[float] = []
        self._shared = mmap.mmap(-1, _MAX_SHARDS * len(_WORKER_FIELDS) * 8)
        self._workers = np.frombuffer(self._shared, dtype=np.float64).reshape(
            _MAX_SHARDS, len(_WORKER_FIELDS)
        )
        self._worker_totals = np.zeros(len(_WORKER_FIELDS))
        self._parent = os.getpid()

    # ---------------------------------------------------------------- wrappers

    def _span(self, name: str, function):
        """Wrap ``function`` in a span; calls nested in a span of the same name count once."""
        stack, spans, active = self._stack, self.spans, self._active
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[name]:
                return function(*args, **kwargs)
            active[name] += 1
            frame = [0.0]
            stack.append(frame)
            started = perf()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf() - started
                stack.pop()
                active[name] -= 1
                entry = spans[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _counted(self, name: str, function):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, make) -> None:
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def install(self) -> None:
        span, patch = self._span, self._patch
        for method in ("distance", "distances_many", "distance_pairs", "endpoint_distances"):
            patch(DistanceOracle, method, lambda f: span("network.query", f))
        patch(DistanceOracle, "path", lambda f: span("network.path", f))
        patch(DistanceOracle, "refresh_topology", lambda f: span("network.refresh", f))
        patch(DistanceOracle, "__init__", lambda f: span("network.build", f))
        for function in ("euclidean_insertion_lower_bounds", "euclidean_idle_lower_bounds"):
            patch(greedy_dp, function, lambda f: span("insertion.lb", f))
        patch(LinearDPInsertion, "best_insertion", lambda f: span("insertion.dp", f))
        patch(greedy_dp._GreedyDPBase, "dispatch", lambda f: span("dispatch.decide", f))
        patch(Dispatcher, "candidate_worker_ids", self._candidates)
        patch(GridIndex, "members_near_vertex", lambda f: span("index.query", f))
        patch(WorkerState, "advance_to", lambda f: self._counted("fleet.advance_calls", f))
        for method in ("advance_all", "states_of"):
            patch(FleetState, method, lambda f: span("fleet.advance", f))
        patch(EventEngine, "submit", lambda f: span("engine.submit", f))
        patch(EventEngine, "apply_network_update", lambda f: span("engine.update", f))
        patch(EventEngine, "finish", lambda f: span("engine.drain", f))
        patch(MatchingService, "apply_network_update", self._update)
        patch(ShardedDispatcher, "dispatch", lambda f: span("sharding.route", f))
        patch(ClusterDispatcher, "dispatch", lambda f: span("cluster.frontdoor", f))
        patch(
            ClusterDispatcher,
            "apply_network_update",
            lambda f: span("cluster.frontdoor", f),
        )
        patch(ClusterDispatcher, "_recv", lambda f: span("cluster.ipc_wait", f))
        patch(ClusterDispatcher, "_send", lambda f: span("cluster.send", f))
        connection = multiprocessing.connection.Connection
        patch(connection, "_send_bytes", self._bytes_sent)
        patch(connection, "_recv_bytes", self._bytes_received)
        patch(ShardWorkerRuntime, "__init__", self._worker_start)
        patch(ShardWorkerRuntime, "_prepare", lambda f: span("worker.prep", f))
        for handler in _WORKER_HANDLERS:
            patch(ShardWorkerRuntime, handler, self._worker_busy)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _candidates(self, function):
        timed = self._span("dispatch.candidates", function)
        counts = self.counts

        def wrapper(*args, **kwargs):
            ids = timed(*args, **kwargs)
            counts["dispatch.candidates"] += len(ids)
            return ids

        return wrapper

    def _update(self, function):
        timed = self._span("service.update", function)
        samples = self.update_ms
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            started = perf()
            try:
                return timed(*args, **kwargs)
            finally:
                samples.append((perf() - started) * 1e3)

        return wrapper

    def _bytes_sent(self, function):
        counts, parent = self.counts, self._parent

        def wrapper(connection, buffer):
            if os.getpid() == parent:
                counts["cluster.bytes_sent"] += len(buffer)
            return function(connection, buffer)

        return wrapper

    def _bytes_received(self, function):
        counts, parent = self.counts, self._parent

        def wrapper(connection, *args, **kwargs):
            buffer = function(connection, *args, **kwargs)
            if os.getpid() == parent:
                counts["cluster.bytes_received"] += buffer.getbuffer().nbytes
            return buffer

        return wrapper

    # ------------------------------------------------------- cluster workers

    def _worker_start(self, function):
        spans, parent = self.spans, self._parent

        def wrapper(runtime, init):
            if os.getpid() != parent:
                spans.clear()  # a forked worker starts from the front door's totals
            return function(runtime, init)

        return wrapper

    def _worker_busy(self, function):
        spans, workers = self.spans, self._workers
        perf = time.perf_counter

        def wrapper(runtime, command):
            started = perf()
            try:
                return function(runtime, command)
            finally:
                row = workers[runtime.shard_id]
                row[0] += perf() - started
                row[1] = spans["dispatch.decide"][1]
                row[2] = spans["worker.prep"][1]

        return wrapper

    # ----------------------------------------------------------------- rounds

    def begin_round(self) -> None:
        self._workers[:] = 0.0

    def end_round(self, session, replay) -> None:
        """Fold one round's dispatcher counters and worker times in."""
        self._rounds += 1
        self._serving_s += replay.wall_s
        dispatcher = session.service.dispatcher
        if isinstance(dispatcher, ShardedDispatcher):
            self.counts["sharding.escalations"] += dispatcher.escalations
        if isinstance(dispatcher, ClusterDispatcher):
            self.counts["cluster.commands"] += dispatcher.commands_sent
            self._worker_totals += self._workers.sum(axis=0)
        ratio = session.instance.oracle.cache_statistics()["distance_cache_hit_rate"]
        self._cache_ratios.append(ratio if isinstance(ratio, float) else 0.0)

    def metrics(self) -> dict[str, tuple[float, str]]:
        rounds = max(self._rounds, 1)
        spans, counts = self.spans, self.counts

        def calls(name: str) -> float:
            return spans[name][0] / rounds

        def total(name: str) -> float:
            return spans[name][1] / rounds

        def self_time(name: str) -> float:
            return spans[name][2] / rounds

        decisions = spans["dispatch.decide"][0]
        candidates = counts["dispatch.candidates"]
        builds = spans["network.build"][0]
        busy, decide, prep = (self._worker_totals / rounds).tolist()
        shards = self.worker_processes
        serving = self._serving_s / rounds
        values = {
            "network.query_calls": calls("network.query"),
            "network.query_s": total("network.query"),
            "network.path_calls": calls("network.path"),
            "network.path_s": total("network.path"),
            "network.refresh_calls": calls("network.refresh"),
            "network.refresh_s": total("network.refresh"),
            "network.build_s": spans["network.build"][1] / builds if builds else 0.0,
            "network.cache_hit_ratio": statistics.fmean(self._cache_ratios or [0.0]),
            "insertion.lb_calls": calls("insertion.lb"),
            "insertion.lb_s": total("insertion.lb"),
            "insertion.dp_calls": calls("insertion.dp"),
            "insertion.dp_s": total("insertion.dp"),
            "insertion.dp_per_candidate": (
                spans["insertion.dp"][0] / candidates if candidates else 0.0
            ),
            "dispatch.decide_self_s": self_time("dispatch.decide"),
            "dispatch.candidates_s": total("dispatch.candidates"),
            "dispatch.candidates_per_decision": candidates / decisions if decisions else 0.0,
            "dispatch.insertions_per_decision": (
                spans["insertion.dp"][0] / decisions if decisions else 0.0
            ),
            "index.query_calls": calls("index.query"),
            "index.query_s": total("index.query"),
            "fleet.advance_calls": counts["fleet.advance_calls"] / rounds,
            "fleet.advance_s": total("fleet.advance"),
            "engine.self_s": self_time("engine.submit") + self_time("engine.update"),
            "engine.drain_s": total("engine.drain"),
            "service.update_calls": calls("service.update"),
            "service.update_p50_ms": (
                statistics.median(self.update_ms) if self.update_ms else 0.0
            ),
            "sharding.route_self_s": self_time("sharding.route"),
            "sharding.escalations": counts["sharding.escalations"] / rounds,
            "cluster.ipc_wait_s": total("cluster.ipc_wait"),
            "cluster.send_s": total("cluster.send"),
            "cluster.bytes_sent": counts["cluster.bytes_sent"] / rounds,
            "cluster.bytes_received": counts["cluster.bytes_received"] / rounds,
            "cluster.commands": counts["cluster.commands"] / rounds,
            "cluster.frontdoor_self_s": self_time("cluster.frontdoor"),
            "cluster.worker_busy_s": busy,
            "cluster.worker_decide_s": decide,
            "cluster.worker_prep_s": prep,
            "cluster.worker_idle_ratio": (
                1.0 - busy / (shards * serving) if shards and serving else 0.0
            ),
        }
        return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
