"""The benchmark's own tests: every check passes a clean replay and catches a
fault planted in a recorded result.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import serve
from distances import IndependentDistances
from run import check_spot_samples
from workloads import Workload, make_inputs, start_session

ROOT = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="tiny",
    mode="in-process",
    city="small-grid",
    backend="apsp",
    workers=6,
    requests=90,
    horizon_hours=1.0,
    deadline_minutes=15.0,
    spot_checks=30,
)


@pytest.fixture(scope="module")
def replay():
    inputs = make_inputs(TINY, seed=3)
    session = start_session(TINY, inputs)
    ids = serve.sample_ids(session.instance, 3, TINY.spot_checks)
    with serve.sequenced_records(), serve.SpotCheckRecorder(ids) as recorder:
        run = serve.replay(session, recorder)
    recorded = serve.record(session, run)
    base = IndependentDistances(inputs.base_edges)
    base.prefetch(checks.travel_pairs(recorded))
    return inputs, run, recorded, recorder.samples, base


@pytest.fixture
def rec(replay):
    return copy.deepcopy(replay[2])


def _served_row(rec, predicate=lambda row, request: True) -> int:
    for index, row in enumerate(rec.services):
        if predicate(row, rec.requests[row.request_id]):
            return index
    raise AssertionError("no served request matches")


def test_clean_replay_passes_every_check(replay):
    inputs, run, recorded, samples, base = replay
    assert run.failed == 0 and run.attempted == TINY.requests
    assert recorded.services, "the tiny workload should serve requests"
    assert checks.check_accounting(recorded) == []
    assert checks.check_time_windows(recorded) == []
    assert checks.check_capacity(recorded) == []
    assert checks.check_travel_lower_bounds(recorded, base) == []
    assert checks.check_unified_cost(recorded, base) == []
    assert len(samples) == TINY.spot_checks
    assert check_spot_samples(samples, inputs, base) == []


def test_request_served_twice_is_caught(rec):
    row = rec.services[0]
    other = next(worker for worker in rec.workers if worker != row.worker_id)
    rec.services.append(dataclasses.replace(row, worker_id=other))
    assert any("more than once" in failure for failure in checks.check_accounting(rec))


def test_missing_decision_is_caught(rec):
    del rec.decisions[rec.submitted[0]]
    assert checks.check_accounting(rec)


def test_served_count_mismatch_is_caught(rec):
    rec.served_requests += 1
    assert checks.check_accounting(rec)


def test_late_dropoff_is_caught_unless_a_closure_excuses_it(rec):
    index = _served_row(rec)
    row = rec.services[index]
    request = rec.requests[row.request_id]
    rec.services[index] = dataclasses.replace(row, dropoff_time=request.deadline + 30.0)
    assert any("after its deadline" in f for f in checks.check_time_windows(rec))
    rec.closure_times = (request.release + 1.0,)
    assert checks.check_time_windows(rec) == []


def test_pickup_before_release_is_caught(rec):
    index = _served_row(rec)
    row = rec.services[index]
    request = rec.requests[row.request_id]
    rec.services[index] = dataclasses.replace(row, pickup_time=request.release - 5.0)
    assert any("before its release" in f for f in checks.check_time_windows(rec))


def test_over_capacity_stop_is_caught(rec):
    index = _served_row(rec)
    row = rec.services[index]
    capacity = rec.workers[row.worker_id].capacity
    request = rec.requests[row.request_id]
    rec.requests[request.id] = dataclasses.replace(request, capacity=capacity + 1)
    assert any("capacity" in failure for failure in checks.check_capacity(rec))


def test_stop_sooner_than_shortest_travel_is_caught(rec, replay):
    base = replay[4]

    def unclamped_trip(row, request):
        return (
            row.pickup_time > request.release + 1.0
            and base(request.origin, request.destination) > 10.0
        )

    index = _served_row(rec, unclamped_trip)
    row = rec.services[index]
    request = rec.requests[row.request_id]
    too_soon = row.pickup_time + 0.5 * base(request.origin, request.destination)
    rec.services[index] = dataclasses.replace(row, dropoff_time=too_soon)
    assert any("at the earliest" in f for f in checks.check_travel_lower_bounds(rec, base))


def test_stop_too_soon_after_a_clamped_pickup_is_caught():
    # One worker starting at vertex 0 at t=0 picks up a request released at
    # t=1000, recorded at that floor. A re-plan lags the clock by at most the
    # longest street (20 s), so the pickup was scheduled no sooner than 980
    # and the drop-off, 50 s on, can come no sooner than 1030.
    legs = {(0, 1): 10.0, (1, 2): 50.0}

    def dist(u, v):
        return legs[(min(u, v), max(u, v))]

    def recorded(dropoff_time):
        return checks.Recorded(
            alpha=1.0,
            penalty_factor=10.0,
            requests={7: checks.RequestRow(7, 1, 2, 1000.0, 2000.0, 1, 500.0)},
            submitted=[7],
            decisions={7: "accepted"},
            services=[checks.ServiceRow(7, 0, 1000.0, dropoff_time, 0, 1)],
            workers={0: checks.WorkerRow(0, 0, 4, 60.0)},
            closure_times=(),
            longest_edge_s=20.0,
            served_requests=1,
            unified_cost=60.0,
        )

    assert checks.check_travel_lower_bounds(recorded(1030.0), dist) == []
    failures = checks.check_travel_lower_bounds(recorded(1010.0), dist)
    assert any("at the earliest" in failure for failure in failures)


def test_travel_below_shortest_tour_is_caught(rec, replay):
    base = replay[4]
    worker_id = rec.services[0].worker_id
    rec.workers[worker_id] = dataclasses.replace(rec.workers[worker_id], travelled=0.0)
    assert any("below the" in f for f in checks.check_travel_lower_bounds(rec, base))


def test_wrong_unified_cost_is_caught(rec, replay):
    rec.unified_cost += 1.0
    assert any("unified_cost" in f for f in checks.check_unified_cost(rec, replay[4]))


def test_wrong_penalty_is_caught(rec, replay):
    rid = rec.submitted[0]
    request = rec.requests[rid]
    rec.requests[rid] = dataclasses.replace(request, penalty=request.penalty * 1.01 + 1.0)
    assert any("penalty" in f for f in checks.check_unified_cost(rec, replay[4]))


def test_suboptimal_acceptance_is_caught(replay):
    inputs, _, _, samples, base = replay
    planted = copy.deepcopy(samples)
    accepted = next(sample for sample in planted if sample.served)
    accepted.increased_cost += 1.0
    failures = check_spot_samples(planted, inputs, base)
    assert any("was feasible" in failure for failure in failures)


def test_acceptance_below_any_insertion_is_caught(replay):
    inputs, _, _, samples, base = replay
    planted = copy.deepcopy(samples)
    accepted = next(sample for sample in planted if sample.served)
    accepted.increased_cost -= 1.0
    failures = check_spot_samples(planted, inputs, base)
    assert any("below any feasible" in failure for failure in failures)


def test_rejection_with_a_cheap_insertion_is_caught(replay):
    inputs, _, _, samples, base = replay
    planted = copy.deepcopy(samples)
    accepted = next(
        sample
        for sample in planted
        if sample.served and sample.alpha * sample.increased_cost < sample.request.penalty - 1.0
    )
    accepted.served = False
    failures = check_spot_samples(planted, inputs, base)
    assert any("rejected, but" in failure for failure in failures)


def test_fingerprint_difference_is_caught():
    ours = {"served": 10, "unified_cost": 1.0, "mean_wait_s": 2.0, "mean_detour_ratio": 1.5}
    other = dict(ours, unified_cost=1.0 + 2**-52)
    assert checks.check_identical("planted", ours, other)
    assert checks.check_identical("same", ours, dict(ours)) == []


def test_independent_distances_match_a_line():
    dist = IndependentDistances(((0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0), (0, 1, 1.5)))
    assert dist(0, 2) == pytest.approx(4.5)
    assert dist(2, 0) == pytest.approx(4.5)
    assert dist(1, 1) == 0.0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0], *command[1:],
         "--workload", "chengdu-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
