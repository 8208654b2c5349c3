"""Independent output checks, run after timing on a recorded replay.

A :class:`Recorded` replay holds plain values only — what the caller
submitted, what the service decided, and what the fleet executed — so the
checks depend on nothing but these values and on distances recomputed with
scipy (:mod:`distances`). Every check returns a list of failure messages; an
empty list means it passed. The benchmark's tests plant faults in a recorded
replay to show that each check can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TIME_TOL = 1e-6
"""Slack on time comparisons (travel-seconds), above float noise."""

COST_RTOL = 1e-9
"""Relative slack on recomputed sums of distances."""

DELTA_TOL = 1e-6
"""Slack on the optimality spot-check (travel-seconds)."""

_MAX_MESSAGES = 5


@dataclass(frozen=True)
class RequestRow:
    id: int
    origin: int
    destination: int
    release: float
    deadline: float
    capacity: int
    penalty: float


@dataclass(frozen=True)
class ServiceRow:
    """One accepted request as the fleet executed it."""

    request_id: int
    worker_id: int
    pickup_time: float | None
    dropoff_time: float | None
    pickup_order: int | None
    dropoff_order: int | None
    """Position of the stop in the fleet's execution order (``None`` with its time)."""


@dataclass(frozen=True)
class WorkerRow:
    id: int
    start_vertex: int
    capacity: int
    travelled: float


@dataclass
class Recorded:
    """One replay as plain values."""

    alpha: float
    penalty_factor: float
    requests: dict[int, RequestRow]
    submitted: list[int]
    decisions: dict[int, str]
    """request id -> ``"accepted"`` / ``"rejected"`` as the caller saw it."""
    services: list[ServiceRow]
    workers: dict[int, WorkerRow]
    closure_times: tuple[float, ...]
    longest_edge_s: float
    """Travel time of the longest street of the base network."""
    served_requests: int
    unified_cost: float


@dataclass(frozen=True)
class StopRow:
    vertex: int
    pickup: bool
    request_id: int
    deadline: float
    capacity: int
    partner: int
    """The other endpoint of the stop's request."""


@dataclass(frozen=True)
class CandidateRow:
    """A candidate worker's route at decision time."""

    worker_id: int
    origin: int
    start_time: float
    capacity: int
    stops: tuple[StopRow, ...]


@dataclass
class DecisionSample:
    """One sampled decision: the candidates' routes and what was decided."""

    request: RequestRow
    now: float
    alpha: float
    network_version: int
    candidates: list[CandidateRow]
    considered: list[int]
    served: bool
    worker_id: int | None
    increased_cost: float


def _limit(messages: list[str]) -> list[str]:
    if len(messages) <= _MAX_MESSAGES:
        return messages
    return messages[:_MAX_MESSAGES] + [f"... and {len(messages) - _MAX_MESSAGES} more"]


# ------------------------------------------------------------------ accounting


def check_accounting(rec: Recorded) -> list[str]:
    """accepted + rejected = submitted, and no request is served twice."""
    failures: list[str] = []
    if len(set(rec.submitted)) != len(rec.submitted):
        failures.append("a request id was submitted twice")
    missing = [rid for rid in rec.submitted if rid not in rec.decisions]
    if missing:
        failures.append(f"{len(missing)} submitted requests got no decision, e.g. {missing[:3]}")
    accepted = {rid for rid, status in rec.decisions.items() if status == "accepted"}
    rejected = {rid for rid, status in rec.decisions.items() if status == "rejected"}
    if len(accepted) + len(rejected) != len(rec.submitted):
        failures.append(
            f"accepted {len(accepted)} + rejected {len(rejected)} != submitted "
            f"{len(rec.submitted)}"
        )
    seen: dict[int, int] = {}
    for row in rec.services:
        seen[row.request_id] = seen.get(row.request_id, 0) + 1
    twice = sorted(rid for rid, count in seen.items() if count > 1)
    if twice:
        failures.append(f"requests served more than once: {twice[:5]}")
    unserved = sorted(accepted - set(seen))
    if unserved:
        failures.append(f"accepted requests never executed: {unserved[:5]}")
    stray = sorted(set(seen) - accepted)
    if stray:
        failures.append(f"executed requests that were not accepted: {stray[:5]}")
    undelivered = sorted(row.request_id for row in rec.services if row.dropoff_time is None)
    if undelivered:
        failures.append(f"accepted requests never delivered: {undelivered[:5]}")
    if rec.served_requests != len(accepted):
        failures.append(
            f"reported served_requests {rec.served_requests} != accepted {len(accepted)}"
        )
    return failures


# ---------------------------------------------------------------- time windows


def check_time_windows(rec: Recorded) -> list[str]:
    """release <= pickup <= dropoff <= deadline.

    A late dropoff is allowed only when a network closure fell between the
    request's acceptance (its release) and its dropoff.
    """
    failures: list[str] = []
    for row in rec.services:
        if row.pickup_time is None or row.dropoff_time is None:
            continue  # reported by the accounting check
        request = rec.requests[row.request_id]
        if row.pickup_time < request.release - TIME_TOL:
            failures.append(
                f"request {request.id} picked up at {row.pickup_time:.3f} before its "
                f"release {request.release:.3f}"
            )
        if row.dropoff_time < row.pickup_time - TIME_TOL:
            failures.append(
                f"request {request.id} dropped off at {row.dropoff_time:.3f} before its "
                f"pickup {row.pickup_time:.3f}"
            )
        if row.dropoff_time > request.deadline + TIME_TOL:
            excused = any(
                request.release <= when <= row.dropoff_time for when in rec.closure_times
            )
            if not excused:
                failures.append(
                    f"request {request.id} delivered at {row.dropoff_time:.3f} after its "
                    f"deadline {request.deadline:.3f} with no closure in between"
                )
    return _limit(failures)


# -------------------------------------------------------------------- capacity


def _worker_events(rec: Recorded) -> dict[int, list[tuple[float, int, int, float]]]:
    """Per worker, executed stops as ``(time, vertex, load change, floor)``.

    In execution order. ``floor`` is the time the service record is clamped
    up to: a pickup is never recorded before the request's release, a
    drop-off never before its pickup.
    """
    events: dict[int, list] = {}
    for row in rec.services:
        request = rec.requests[row.request_id]
        stops = events.setdefault(row.worker_id, [])
        if row.pickup_time is not None:
            stops.append(
                (row.pickup_order, row.pickup_time, request.origin, request.capacity,
                 request.release)
            )
        if row.dropoff_time is not None:
            floor = row.pickup_time if row.pickup_time is not None else -math.inf
            stops.append(
                (row.dropoff_order, row.dropoff_time, request.destination, -request.capacity,
                 floor)
            )
    return {
        worker_id: [stop[1:] for stop in sorted(stops, key=lambda stop: stop[0])]
        for worker_id, stops in events.items()
    }


def check_capacity(rec: Recorded) -> list[str]:
    """Replaying each worker's stops in order never exceeds its capacity."""
    failures: list[str] = []
    for worker_id, stops in sorted(_worker_events(rec).items()):
        capacity = rec.workers[worker_id].capacity
        load = 0
        for when, _, change, _ in stops:
            load += change
            if load > capacity:
                failures.append(
                    f"worker {worker_id} carries {load} > capacity {capacity} at t={when:.3f}"
                )
                break
    return _limit(failures)


# -------------------------------------------------- shortest-path lower bounds


def travel_pairs(rec: Recorded) -> list[tuple[int, int]]:
    """Every vertex pair the lower-bound and cost checks will read."""
    pairs = [(r.origin, r.destination) for r in rec.requests.values()]
    for worker_id, stops in _worker_events(rec).items():
        previous = rec.workers[worker_id].start_vertex
        for _, vertex, _, _ in stops:
            pairs.append((previous, vertex))
            previous = vertex
    return pairs


def check_travel_lower_bounds(rec: Recorded, base) -> list[str]:
    """Stops are no closer in time than the shortest travel time between them.

    ``base(u, v)`` is the independent shortest travel time on the network
    before any closure; closures only lengthen trips, so it bounds every leg.
    The service records clamp a stop's time up to its floor (pickup >=
    release, drop-off >= pickup) while the schedule may have reached the stop
    earlier, so a stop recorded exactly at its floor only tells that it was
    scheduled at or before it — and, since a re-plan starts at most one
    street traversal behind the clock, no sooner than the floor less the
    longest street's travel time. The check walks each worker's stops
    carrying the earliest schedule time consistent with the legs so far and
    with that limit, and fails when a stop is recorded earlier than that.
    Each worker's reported travel must also be at least the sum of those
    shortest legs, and at most the time of its last stop (workers start at
    t=0).
    """
    failures: list[str] = []
    events = _worker_events(rec)
    for worker_id, worker in sorted(rec.workers.items()):
        stops = events.get(worker_id, [])
        previous_vertex, earliest = worker.start_vertex, 0.0
        legs = 0.0
        for when, vertex, _, floor in stops:
            shortest = base(previous_vertex, vertex)
            legs += shortest
            earliest += shortest
            if when < earliest - TIME_TOL:
                failures.append(
                    f"worker {worker_id} recorded at vertex {vertex} at t={when:.3f}, "
                    f"but the shortest legs from its start reach it at t={earliest:.3f} "
                    f"at the earliest"
                )
                break
            if when > floor + TIME_TOL:
                earliest = when  # recorded above its floor: the schedule time itself
            else:
                earliest = max(earliest, floor - rec.longest_edge_s)
            previous_vertex = vertex
        slack = TIME_TOL + COST_RTOL * legs
        if worker.travelled < legs - slack:
            failures.append(
                f"worker {worker_id} reports travel {worker.travelled:.3f}s below the "
                f"shortest tour through its stops {legs:.3f}s"
            )
        if stops and worker.travelled > stops[-1][0] + slack:
            failures.append(
                f"worker {worker_id} reports travel {worker.travelled:.3f}s beyond its "
                f"last stop at t={stops[-1][0]:.3f}"
            )
    return _limit(failures)


def clamped_legs(rec: Recorded, base) -> tuple[int, int, float]:
    """Consecutive stops recorded closer in time than the shortest travel time.

    Returns ``(legs, total legs, largest shortfall in seconds)``. A non-zero
    count means a schedule reached a pickup before its release (the record
    was clamped to the release) and the worker's next stop kept the earlier
    schedule time.
    """
    short = total = 0
    worst = 0.0
    for worker_id, stops in _worker_events(rec).items():
        previous_vertex, previous_time = rec.workers[worker_id].start_vertex, 0.0
        for when, vertex, _, _ in stops:
            total += 1
            shortfall = base(previous_vertex, vertex) - (when - previous_time)
            if shortfall > TIME_TOL:
                short += 1
                worst = max(worst, shortfall)
            previous_vertex, previous_time = vertex, when
    return short, total, worst


# -------------------------------------------------------------- unified cost


def check_unified_cost(rec: Recorded, base) -> list[str]:
    """unified_cost = alpha * travel + sum of penalties of rejected requests.

    Every penalty is recomputed as ``penalty_factor * dis(o, d)`` from the
    independent distances and compared with the request's; the rejected set
    comes from the caller's decisions, the travel from the fleet's workers.
    """
    failures: list[str] = []
    penalties = 0.0
    for rid, status in rec.decisions.items():
        request = rec.requests[rid]
        expected = rec.penalty_factor * base(request.origin, request.destination)
        if not math.isclose(request.penalty, expected, rel_tol=COST_RTOL, abs_tol=TIME_TOL):
            failures.append(
                f"request {rid} carries penalty {request.penalty:.6f}, recomputed "
                f"{expected:.6f}"
            )
        if status == "rejected":
            penalties += expected
    travel = sum(worker.travelled for worker in rec.workers.values())
    expected_cost = rec.alpha * travel + penalties
    if not math.isclose(rec.unified_cost, expected_cost, rel_tol=COST_RTOL, abs_tol=TIME_TOL):
        failures.append(
            f"unified_cost {rec.unified_cost:.6f} != alpha*travel + penalties "
            f"{expected_cost:.6f} (travel {travel:.6f}, penalties {penalties:.6f})"
        )
    return _limit(failures)


# --------------------------------------------------------- optimality spot-check


def insertion_pairs(sample: DecisionSample) -> list[tuple[int, int]]:
    """Every vertex pair :func:`cheapest_insertions` will read for ``sample``."""
    o, d = sample.request.origin, sample.request.destination
    pairs = [(o, d)]
    for candidate in sample.candidates:
        vertices = [candidate.origin] + [stop.vertex for stop in candidate.stops]
        pairs.extend(zip(vertices, vertices[1:]))
        pairs.extend((stop.vertex, stop.partner) for stop in candidate.stops if stop.pickup)
        for vertex in vertices:
            pairs.append((vertex, o))
            pairs.append((vertex, d))
    return pairs


def _latest_arrival(stop: StopRow, dist) -> float:
    """A drop-off must arrive by its deadline; a pickup early enough to make it."""
    if stop.pickup:
        return stop.deadline - dist(stop.vertex, stop.partner)
    return stop.deadline


def cheapest_insertions(
    candidate: CandidateRow, request: RequestRow, dist
) -> tuple[float, float]:
    """Exhaustive insertion of ``request`` into ``candidate``'s route.

    Tries every pickup/dropoff position pair. An insertion is feasible when
    the load never exceeds the capacity, every stop that was on time still
    arrives in time, and a stop that was already late (a closure lengthened
    its trip) is not delayed further. Returns the cheapest route cost
    increase among insertions feasible with ``DELTA_TOL`` to spare, and the
    cheapest among those feasible within ``DELTA_TOL`` (``inf`` when none).
    """
    base_stops = list(candidate.stops)
    pending = {stop.request_id for stop in base_stops if stop.pickup}
    onboard = sum(
        stop.capacity for stop in base_stops if not stop.pickup and stop.request_id not in pending
    )
    clock, previous = candidate.start_time, candidate.origin
    # (stop, latest arrival, arrival before the insertion or None if on time)
    planned = []
    for stop in base_stops:
        clock += dist(previous, stop.vertex)
        previous = stop.vertex
        latest = _latest_arrival(stop, dist)
        planned.append((stop, latest, clock if clock > latest else None))
    base_cost = clock - candidate.start_time
    direct = dist(request.origin, request.destination)
    pickup = (
        StopRow(request.origin, True, request.id, request.deadline, request.capacity,
                request.destination),
        request.deadline - direct,
        None,
    )
    dropoff = (
        StopRow(request.destination, False, request.id, request.deadline, request.capacity,
                request.origin),
        request.deadline,
        None,
    )
    strict = lenient = math.inf
    n = len(planned)
    for i in range(n + 1):
        for j in range(i, n + 1):
            sequence = planned[:i] + [pickup] + planned[i:j] + [dropoff] + planned[j:]
            clock, load, previous = candidate.start_time, onboard, candidate.origin
            margin = math.inf
            for stop, latest, late_arrival in sequence:
                clock += dist(previous, stop.vertex)
                previous = stop.vertex
                load += stop.capacity if stop.pickup else -stop.capacity
                if load > candidate.capacity:
                    margin = -math.inf
                    break
                if late_arrival is None:
                    margin = min(margin, latest - clock)
                elif clock > late_arrival + DELTA_TOL:
                    margin = -math.inf
                    break
            if margin < -DELTA_TOL:
                continue
            delta = (clock - candidate.start_time) - base_cost
            lenient = min(lenient, delta)
            if margin > DELTA_TOL:
                strict = min(strict, delta)
    return strict, lenient


def check_optimality(samples: list[DecisionSample], dist_of_version) -> list[str]:
    """Accepted: minimal cost increase; rejected: nothing cheaper than the penalty.

    ``dist_of_version(v)`` returns the independent distance function of the
    network as it stood at version ``v`` (after ``v`` network actions).
    """
    failures: list[str] = []
    for sample in samples:
        dist = dist_of_version(sample.network_version)
        request = sample.request
        by_worker = {candidate.worker_id: candidate for candidate in sample.candidates}
        missing = [wid for wid in sample.considered if wid not in by_worker]
        if missing:
            failures.append(f"request {request.id}: considered workers {missing[:3]} not captured")
            continue
        strict_best = lenient_best = math.inf
        for worker_id in sample.considered:
            strict, lenient = cheapest_insertions(by_worker[worker_id], request, dist)
            strict_best = min(strict_best, strict)
            lenient_best = min(lenient_best, lenient)
        if sample.served:
            if sample.worker_id not in sample.considered:
                failures.append(
                    f"request {request.id} assigned to worker {sample.worker_id}, "
                    "which was not a candidate"
                )
            elif sample.increased_cost > strict_best + DELTA_TOL:
                failures.append(
                    f"request {request.id} accepted at cost increase "
                    f"{sample.increased_cost:.6f}, but {strict_best:.6f} was feasible"
                )
            elif sample.increased_cost < lenient_best - DELTA_TOL:
                failures.append(
                    f"request {request.id} accepted at cost increase "
                    f"{sample.increased_cost:.6f}, below any feasible insertion "
                    f"({lenient_best:.6f})"
                )
        elif sample.alpha * strict_best < request.penalty - DELTA_TOL:
            failures.append(
                f"request {request.id} rejected, but an insertion costing "
                f"{sample.alpha * strict_best:.6f} < penalty {request.penalty:.6f} was feasible"
            )
    return _limit(failures)


# ---------------------------------------------------------------- differential


FINGERPRINT_KEYS = ("served", "unified_cost", "mean_wait_s", "mean_detour_ratio")


def check_identical(label: str, ours: dict, reference: dict) -> list[str]:
    """Bit-identity of two result fingerprints (cluster vs in-process sharded)."""
    return [
        f"{label}: {key} {ours[key]!r} != {reference[key]!r}"
        for key in FINGERPRINT_KEYS
        if ours[key] != reference[key]
    ]
