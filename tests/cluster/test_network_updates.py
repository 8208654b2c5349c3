"""Fault-tolerant live network updates on the cluster serving path.

The properties gated here:

* a timed close→reopen plan broadcast through
  :meth:`MatchingService.apply_network_update` reaches every shard worker —
  each replica rebuilds and acknowledges under the update barrier;
* the replay is deterministic and, under kills anchored **before**,
  **during**, or **after** an update window, bit-identical to the fault-free
  run with the same plan — recovery rebuilds replicas from the authoritative
  fleet plus the cumulative mutation journal;
* a respawn scheduled *before* an update but adopted *after* it replays the
  missed mutation from the journal (``update_replayed``) instead of serving
  a stale map;
* a shard serving degraded (restart budget exhausted) keeps following
  updates through the authoritative network it shares with the front door;
* the replica ordinal cursor is exactly-once: a duplicated update command is
  refused, never silently re-applied;
* update telemetry flows end to end (dispatcher counters → snapshot →
  ``SimulationResult.extra``);
* with shard-local contraction hierarchies, a replica respawned between a
  closure and its reopening holds the survivors' incrementally refreshed
  hierarchy, so the replay stays bit-identical to the fault-free run and to
  the in-process ``sharded:`` run.
"""

import pickle
from dataclasses import replace

import pytest

from repro.cluster.messages import NetworkUpdateCommand, UpdateReply
from repro.cluster.recovery import ShardHealth
from repro.cluster.service import ClusterMatchingService
from repro.cluster.worker import make_shard_oracle
from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.service.facade import MatchingService
from repro.workloads.scenarios import build_instance

from tests.cluster.chaos import (
    DEFAULT_SCENARIO,
    DEFAULT_SHARDS,
    Fault,
    closure_plan,
    replay_with_updates,
    result_fingerprint,
    run_chaos,
)


@pytest.fixture(scope="module")
def plan():
    # derived from a throwaway instance: closure_plan only reads edge
    # metadata and release times, so the runs can build fresh instances
    return closure_plan(build_instance(DEFAULT_SCENARIO))


@pytest.fixture(scope="module")
def baseline(plan):
    """The fault-free run with the update plan — the bit-identity anchor."""
    return run_chaos("pruneGreedyDP", updates=plan)


def _events(log, name):
    return [entry for entry in log if entry[0] == name]


# ------------------------------------------------------------ broadcast path


def test_broadcast_reaches_every_shard(baseline, plan):
    assert baseline.network_updates == len(plan) == 2
    assert baseline.replica_rebuilds == (2,) * DEFAULT_SHARDS
    assert baseline.worker_failures == 0
    assert baseline.shard_health == (ShardHealth.UP,) * DEFAULT_SHARDS
    assert baseline.orphans == []
    # one update_sent + one update_ack per shard per update, nothing dropped
    for shard in range(DEFAULT_SHARDS):
        sent = [e for e in _events(baseline.recovery_log, "update_sent") if e[1] == shard]
        acked = [e for e in _events(baseline.recovery_log, "update_ack") if e[1] == shard]
        assert len(sent) == len(plan)
        assert len(acked) == len(plan)


def test_update_run_rerun_is_deterministic(baseline, plan):
    again = run_chaos("pruneGreedyDP", updates=plan)
    assert again.fingerprint == baseline.fingerprint
    assert again.replica_rebuilds == baseline.replica_rebuilds


def test_update_telemetry_flows_to_result_extra(baseline):
    extra = baseline.result.extra
    assert extra["cluster_network_updates"] == 2.0
    assert "cluster_update_ack_retries" in extra
    for shard in range(DEFAULT_SHARDS):
        assert extra[f"cluster_shard{shard}_replica_rebuilds"] == 2.0
    row = baseline.result.as_row()
    assert row["cluster_network_updates"] == 2.0


# ------------------------------------------- kills anchored to update windows


@pytest.mark.parametrize("window", ["before", "during", "after"])
def test_kill_in_update_window_bit_identical(baseline, plan, window):
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("kill", shard=1, at_update=0, window=window)],
        updates=plan,
    )
    assert chaos.fired == [(f"kill_{window}_update", 1, 0)]
    assert chaos.worker_failures == 1
    assert chaos.worker_restarts == 1
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


def test_respawn_replays_missed_update_from_journal(baseline, plan):
    # killed long before the closure; the respawn only becomes ready after
    # the closure landed, so adoption must replay it from the journal
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("kill", shard=0, at_command=1)],
        updates=plan,
        restart_delay_s=plan[0].time + 1.0,
    )
    assert chaos.fired == [("kill", 0, 1)]
    assert ("update_replayed", 0) in chaos.recovery_log
    assert chaos.fingerprint == baseline.fingerprint
    # the replayed update counts as a rebuild: totals match the clean run
    assert chaos.replica_rebuilds == baseline.replica_rebuilds
    assert chaos.orphans == []


def test_degraded_shard_follows_updates(baseline, plan):
    # no restart budget: shard 2 serves degraded through both updates
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("kill", shard=2, at_command=1)],
        updates=plan,
        max_restarts=0,
    )
    assert chaos.shard_health[2] == ShardHealth.DEGRADED
    assert ("update_degraded", 2) in chaos.recovery_log
    assert chaos.degraded_dispatches >= 1
    # degraded serving shares the authoritative (already-updated) network:
    # the outcome stays bit-identical to the fault-free run
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


def test_kill_during_update_batch_windows_bit_identical(plan):
    base = run_chaos("batch", batch_interval=30.0, updates=plan)
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_update=1, window="during")],
        batch_interval=30.0,
        updates=plan,
    )
    assert chaos.fired == [("kill_during_update", 0, 1)]
    assert chaos.fingerprint == base.fingerprint
    assert chaos.orphans == []


# ---------------------------------------------------------------- exactly-once


def test_worker_rejects_duplicate_update():
    instance = build_instance(DEFAULT_SCENARIO)
    service = ClusterMatchingService.build(
        instance,
        inner="pruneGreedyDP",
        num_shards=2,
        config=DispatcherConfig(
            grid_cell_metres=DEFAULT_SCENARIO.grid_km * 1000.0
        ),
        seed=DEFAULT_SCENARIO.seed,
    )
    with service:
        for request in instance.requests[:5]:
            service.submit(request)
        edge = next(iter(instance.network.edges()))
        service.close_edge(edge.u, edge.v)
        dispatcher = service.dispatcher
        update = dispatcher._applied_updates[0]
        handle = dispatcher._handles[0]
        # re-send the already-applied update raw over the pipe: the replica
        # ordinal cursor must refuse it rather than mutate twice
        handle.connection.send(
            NetworkUpdateCommand(dispatcher.fleet.clock, update)
        )
        reply = handle.connection.recv()
        assert isinstance(reply, UpdateReply)
        assert reply.error is not None and "out of sync" in reply.error


# ------------------------------------------ shard-local CH across a respawn

CH_SCENARIO = replace(DEFAULT_SCENARIO, oracle_backend="ch")


def _in_process_sharded_ch(plan) -> dict:
    instance = build_instance(CH_SCENARIO)
    config = DispatcherConfig(
        grid_cell_metres=CH_SCENARIO.grid_km * 1000.0,
        num_shards=DEFAULT_SHARDS,
        shard_oracle_backend="ch",
    )
    dispatcher = make_dispatcher("sharded:pruneGreedyDP", config)
    return result_fingerprint(
        replay_with_updates(MatchingService(instance, dispatcher), instance, plan)
    )


@pytest.fixture(scope="module")
def ch_plan():
    # three streets: on this grid a fresh build of the closed network then
    # answers some distances a few ULP apart from the incremental refresh
    return closure_plan(build_instance(CH_SCENARIO), closures=3)


def test_ch_shard_respawn_between_close_and_reopen_bit_identical(ch_plan):
    plan = ch_plan
    kwargs = {"scenario": CH_SCENARIO, "updates": plan, "shard_oracle_backend": "ch"}
    clean = run_chaos("pruneGreedyDP", **kwargs)
    assert clean.network_updates == len(plan) == 6
    # killed once the closure is acknowledged: the respawned replica is built
    # on the closed network and must then follow the reopening like the rest
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("kill", shard=1, at_update=0, window="after")],
        **kwargs,
    )
    assert chaos.fired == [("kill_after_update", 1, 0)]
    assert chaos.worker_restarts == 1
    assert chaos.fingerprint == clean.fingerprint
    assert clean.fingerprint == _in_process_sharded_ch(plan)
    assert chaos.orphans == []


def test_respawned_ch_shard_oracle_holds_the_survivors_hierarchy(ch_plan):
    instance = build_instance(CH_SCENARIO)
    config = DispatcherConfig(shard_oracle_backend="ch")
    survivor = make_shard_oracle(instance, config, DEFAULT_SHARDS)
    for action in ch_plan:
        if action.kind == "close":
            action.apply(instance.network)
    instance.oracle.refresh_topology()
    survivor.refresh_topology()
    # a respawn unpickles the live instance and builds its shard oracle there
    respawned = make_shard_oracle(
        pickle.loads(pickle.dumps(instance)), config, DEFAULT_SHARDS
    )
    expected = survivor.contraction_hierarchy
    actual = respawned.contraction_hierarchy
    assert actual.rank == expected.rank
    assert actual.up_indptr == expected.up_indptr
    assert actual.up_indices == expected.up_indices
    assert actual.up_costs == expected.up_costs
