"""The closed-loop caller: replay a workload through the session API.

One caller submits the seeded request stream — applying each timed network
action when its time comes — as fast as decisions come back, then drains.
An operation is one ``submit`` or one network update; it fails when it
raises, or (for a ``submit``) when no decision ever comes back. A rejection
is a valid decision.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.simulation.fleet as fleet_module

from checks import (
    CandidateRow,
    DecisionSample,
    Recorded,
    RequestRow,
    ServiceRow,
    StopRow,
    WorkerRow,
)
from repro.dispatch.greedy_dp import _GreedyDPBase
from repro.service.responses import DecisionStatus
from repro.simulation.fleet import ServiceRecord

_SEQUENCE = itertools.count()


class SequencedRecord(ServiceRecord):
    """A service record that notes when its pickup and drop-off times are set.

    Workers complete their stops in route order, so the order of these
    notes is each worker's execution order — which the recorded times alone
    do not give, because a pickup time is clamped up to the release.
    """

    pickup_order: int | None = None
    dropoff_order: int | None = None

    def __setattr__(self, name, value) -> None:
        object.__setattr__(self, name, value)
        if value is not None and name in ("pickup_time", "dropoff_time"):
            object.__setattr__(self, f"{name[:-5]}_order", next(_SEQUENCE))


@contextmanager
def sequenced_records():
    """Have the fleet create :class:`SequencedRecord` service records."""
    original = fleet_module.ServiceRecord
    fleet_module.ServiceRecord = SequencedRecord
    try:
        yield
    finally:
        fleet_module.ServiceRecord = original


@dataclass
class Replay:
    """What one replay measured and recorded."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    """Per decision, seconds of the caller thread's CPU clock."""
    wall_latencies: list[float] = field(default_factory=list)
    """Per decision, wall-clock seconds (a diagnostic: these include stalls)."""
    decisions: dict[int, str] = field(default_factory=dict)
    failed_ids: set[int] = field(default_factory=set)
    result: object = None


def request_row(request) -> RequestRow:
    return RequestRow(
        id=request.id,
        origin=request.origin,
        destination=request.destination,
        release=request.release_time,
        deadline=request.deadline,
        capacity=request.capacity,
        penalty=request.penalty,
    )


class SpotCheckRecorder:
    """Captures the candidates' routes of a seeded sample of decisions.

    While installed, every ``pruneGreedyDP`` decision on a sampled request
    first materialises the workers the candidate filter returns and copies
    their routes, then runs unchanged while the candidate list it computes is
    captured. The capture's own time is kept in :attr:`overhead_s` (wall
    clock) and :attr:`overhead_cpu_s` (thread CPU clock) so the caller can
    take it out of what it measures.
    """

    def __init__(self, sample_ids) -> None:
        self.sample_ids = set(sample_ids)
        self.samples: list[DecisionSample] = []
        self.overhead_s = 0.0
        self.overhead_cpu_s = 0.0
        self.network_version = 0
        self._original = None

    def __enter__(self) -> "SpotCheckRecorder":
        self._original = original = _GreedyDPBase.dispatch
        recorder = self

        def dispatch(dispatcher, request, now):
            if request.id not in recorder.sample_ids:
                return original(dispatcher, request, now)
            return recorder._capture(original, dispatcher, request, now)

        _GreedyDPBase.dispatch = dispatch
        return self

    def __exit__(self, *exc_info) -> None:
        _GreedyDPBase.dispatch = self._original

    def _capture(self, original, dispatcher, request, now):
        started, started_cpu = time.perf_counter(), time.thread_time()
        dispatcher.sync_grid()
        fleet = dispatcher.fleet
        candidates = [
            CandidateRow(
                worker_id=state.worker.id,
                origin=state.route.origin,
                start_time=state.route.start_time,
                capacity=state.worker.capacity,
                stops=tuple(
                    StopRow(
                        vertex=stop.vertex,
                        pickup=stop.is_pickup,
                        request_id=stop.request.id,
                        deadline=stop.request.deadline,
                        capacity=stop.request.capacity,
                        partner=(
                            stop.request.destination if stop.is_pickup else stop.request.origin
                        ),
                    )
                    for stop in state.route.stops
                ),
            )
            for state in fleet.states_of(dispatcher.candidate_worker_ids(request, now))
        ]
        considered: list[int] = []
        filter_candidates = dispatcher.candidate_worker_ids

        def capture_candidates(req, at):
            ids = filter_candidates(req, at)
            considered.extend(ids)
            return ids

        dispatcher.candidate_worker_ids = capture_candidates
        self.overhead_cpu_s += time.thread_time() - started_cpu
        self.overhead_s += time.perf_counter() - started
        try:
            outcome = original(dispatcher, request, now)
        finally:
            del dispatcher.candidate_worker_ids
        self.samples.append(
            DecisionSample(
                request=request_row(request),
                now=now,
                alpha=dispatcher.instance.objective.alpha,
                network_version=self.network_version,
                candidates=candidates,
                considered=considered,
                served=outcome.served,
                worker_id=outcome.worker_id,
                increased_cost=outcome.increased_cost,
            )
        )
        return outcome


def sample_ids(instance, seed: int, count: int) -> list[int]:
    """A seeded sample of request ids for the optimality spot-check."""
    ids = sorted(request.id for request in instance.requests)
    return random.Random(seed).sample(ids, min(count, len(ids)))


def replay(session, recorder: SpotCheckRecorder | None = None) -> Replay:
    """Submit the stream and the network actions in time order, then drain.

    A decision's latency runs from its ``submit`` until the caller has it
    (from ``submit``, or from ``poll_decisions`` if deferred). It is taken on
    the caller thread's CPU clock, which is where every in-process decision
    is computed, so time the thread spends off the CPU while another process
    or the hypervisor holds it does not count. The wall-clock latencies are
    kept beside them.
    """
    service = session.service
    timeline = session.timeline
    out = Replay()
    decisions = out.decisions
    pending: dict[int, tuple[float, float]] = {}
    perf, cpu = time.perf_counter, time.thread_time

    def overhead() -> tuple[float, float]:
        if recorder is None:
            return 0.0, 0.0
        return recorder.overhead_s, recorder.overhead_cpu_s

    def decided(request_id, status, submitted, returned) -> None:
        out.wall_latencies.append(returned[0] - submitted[0])
        out.latencies.append(returned[1] - submitted[1])
        decisions[request_id] = status.value

    def resolve(resolved) -> None:
        now = perf(), cpu()
        for decision in resolved:
            submitted = pending.pop(decision.request_id, None)
            if submitted is None:
                continue
            if decision.status in (DecisionStatus.ACCEPTED, DecisionStatus.REJECTED):
                decided(decision.request_id, decision.status, submitted, now)

    def network_action(action) -> None:
        out.attempted += 1
        try:
            resolve(service.advance_to(action.time))
            service.apply_network_update(action.apply)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            out.failed += 1
        if recorder is not None:
            recorder.network_version += 1

    overhead_before = overhead()[0]
    cursor = 0
    started = perf()
    for request in session.instance.requests:
        while cursor < len(timeline) and timeline[cursor].time <= request.release_time:
            network_action(timeline[cursor])
            cursor += 1
        out.attempted += 1
        captured = overhead()
        submitted = perf(), cpu()
        try:
            decision = service.submit(request)
        except Exception:  # noqa: BLE001
            decision = None
        returned = perf(), cpu()
        returned = tuple(r - (o - c) for r, o, c in zip(returned, overhead(), captured))
        if decision is None:
            out.failed += 1
            out.failed_ids.add(request.id)
        elif decision.status is DecisionStatus.DEFERRED:
            pending[request.id] = submitted
        else:
            decided(request.id, decision.status, submitted, returned)
        if pending:
            resolve(service.poll_decisions())
    while cursor < len(timeline):
        network_action(timeline[cursor])
        cursor += 1
    out.result = service.drain()
    resolve(service.poll_decisions())
    out.wall_s = perf() - started - (overhead()[0] - overhead_before)
    out.failed += len(pending)  # deferred decisions that never came back
    out.failed_ids.update(pending)
    return out


def record(session, run: Replay) -> Recorded:
    """The replay as plain values for the checks (after timing)."""
    instance = session.instance
    fleet = session.service.fleet
    services = [
        ServiceRow(
            request_id=service_record.request.id,
            worker_id=worker_id,
            pickup_time=service_record.pickup_time,
            dropoff_time=service_record.dropoff_time,
            pickup_order=service_record.pickup_order,
            dropoff_order=service_record.dropoff_order,
        )
        for worker_id, state in sorted(fleet.states.items())
        for service_record in state.assigned_requests.values()
    ]
    workers = {
        worker.id: WorkerRow(
            id=worker.id,
            start_vertex=worker.initial_location,
            capacity=worker.capacity,
            travelled=fleet.states[worker.id].travelled_cost,
        )
        for worker in instance.workers
    }
    return Recorded(
        alpha=instance.objective.alpha,
        penalty_factor=instance.objective.penalty_value,
        requests={request.id: request_row(request) for request in instance.requests},
        submitted=[r.id for r in instance.requests if r.id not in run.failed_ids],
        decisions=dict(run.decisions),
        services=services,
        workers=workers,
        closure_times=tuple(action.time for action in session.timeline if action.kind == "close"),
        longest_edge_s=max(cost for _, _, cost in session.base_edges),
        served_requests=run.result.served_requests,
        unified_cost=run.result.unified_cost,
    )


def fingerprint(result) -> dict:
    return {
        "served": result.served_requests,
        "unified_cost": result.unified_cost,
        "mean_wait_s": result.mean_wait_seconds,
        "mean_detour_ratio": result.mean_detour_ratio,
    }
