"""The benchmark's workloads: seeded inputs and the session each one serves.

Every workload replays a timestamped request stream (plus, on
``metro-closures``, a timed close/reopen program) through the online session
API. A workload's city and its demand model — where the hotspots are — are
fixed. ``--seed`` draws the individual trips and release times, the fleet's
start positions and capacities, and which streets close, so the same seed
always gives the same inputs and different seeds give samples of one day.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cluster.service import ClusterMatchingService
from repro.core.instance import URPSMInstance
from repro.core.types import Request, Worker
from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.scenarios.compile import compile_program
from repro.scenarios.program import NetworkDisruption, ScenarioProgram
from repro.service.facade import MatchingService
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.distributions import (
    HotspotModel,
    RushHourProfile,
    sample_request_capacity,
    sample_worker_capacity,
)
from repro.workloads.requests import RequestGeneratorConfig
from repro.workloads.scenarios import ScenarioConfig, build_network, make_oracle
from repro.workloads.workers import WorkerGeneratorConfig

CITY_SEED = 2018
"""Every workload keeps one road network across seeds (the city is not input noise)."""

ALGORITHM = "pruneGreedyDP"

METRO_CLOSURES = (
    NetworkDisruption(name="bridge", start_hours=0.25, duration_minutes=30.0, edge_count=3),
    NetworkDisruption(name="roadworks", start_hours=0.5, duration_minutes=45.0, edge_count=2),
    NetworkDisruption(name="collapse", start_hours=1.0, edge_count=2),
    NetworkDisruption(name="parade", start_hours=1.25, duration_minutes=20.0, edge_count=3),
)
"""Seven timed network actions: four closures, three of which reopen."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the workload's name on the command line.
        mode: ``"in-process"`` or ``"sharded"`` (``"cluster"`` serves the
            same inputs on shard-worker processes).
        city: a city of :data:`repro.workloads.scenarios.CITY_BUILDERS`.
        backend: distance-oracle backend.
        workers: fleet size.
        requests: requests per replay.
        horizon_hours: span of the release times.
        deadline_minutes: service window of every request.
        disruptions: the timed close/reopen program.
        shards: shard count of the sharded and cluster modes.
        spot_checks: decisions sampled for the optimality spot-check.
        differential: inputs replayed after timing, sharded in-process and
            on the cluster, for the cluster ≡ sharded check.
    """

    name: str
    mode: str
    city: str
    backend: str
    workers: int
    requests: int
    horizon_hours: float
    deadline_minutes: float
    disruptions: tuple[NetworkDisruption, ...] = ()
    shards: int = 1
    spot_checks: int = 0
    differential: "Workload | None" = None

    def scenario(self, seed: int) -> ScenarioConfig:
        """The scenario of one seed: its city, sizes, deadlines and closures."""
        return ScenarioConfig(
            city=self.city,
            num_workers=self.workers,
            num_requests=self.requests,
            deadline_minutes=self.deadline_minutes,
            horizon_hours=self.horizon_hours,
            seed=derive_seed(seed, "perfbench", self.name),
            city_seed=CITY_SEED,
            oracle_backend=self.backend,
        )

    def program(self) -> ScenarioProgram:
        return ScenarioProgram(name=self.name, disruptions=self.disruptions)

    def dispatcher_name(self, mode: str | None = None) -> str:
        mode = mode or self.mode
        return ALGORITHM if mode == "in-process" else f"{mode}:{ALGORITHM}"


SHARDED_K2 = Workload(
    name="sharded-k2",
    mode="sharded",
    city="chengdu-like",
    backend="apsp",
    workers=300,
    requests=1500,
    horizon_hours=4.0,
    deadline_minutes=10.0,
    shards=2,
    spot_checks=24,
)
"""The inputs of the cluster ≡ in-process sharded check.

Every ``chengdu-dense`` run replays them after timing, once in-process at
K=2 and once on two shard-worker processes, and the two results must be
bit-identical. Neither replay is a gated workload: on a 2-CPU machine
their timings did not hold still between runs of the same code (see the
README, *Workloads*)."""

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="chengdu-dense",
            mode="in-process",
            city="chengdu-like",
            backend="apsp",
            workers=500,
            requests=2500,
            horizon_hours=2.0,
            deadline_minutes=10.0,
            spot_checks=24,
            differential=SHARDED_K2,
        ),
        Workload(
            name="metro-closures",
            mode="in-process",
            city="metro-grid",
            backend="ch",
            workers=300,
            requests=1500,
            horizon_hours=3.0,
            deadline_minutes=30.0,
            disruptions=METRO_CLOSURES,
            spot_checks=16,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one seed draws; the program receives only these values."""

    workers: tuple[Worker, ...]
    requests: tuple[Request, ...]
    timeline: tuple
    base_edges: tuple


def base_edge_list(network) -> tuple:
    """``(u, v, travel seconds)`` of every street, as plain values."""
    return tuple((edge.u, edge.v, edge.length / edge.speed) for edge in network.edges())


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Draw one seed's fleet, request stream and closure program.

    Hotspot centres come from a fixed seed, so every seed samples the same
    demand model; trips, release times, capacities and start positions come
    from ``seed``. Penalties are ``penalty_factor * dis(o, d)`` with the
    program's own oracle, as its generator computes them.
    """
    config = workload.scenario(seed)
    network = build_network(config)
    oracle = make_oracle(network, config)
    fixed = derive_seed(CITY_SEED, "perfbench", "demand", config.city)
    draws = make_rng(config.seed)

    fleet = WorkerGeneratorConfig(count=workload.workers)
    placement = HotspotModel(network=network, rng=make_rng(fixed))
    placement.rng = draws
    vertices = sorted(network.vertices())
    workers = []
    for index in range(workload.workers):
        if draws.random() < fleet.hotspot_share:
            location = placement.sample_vertex()
        else:
            location = int(vertices[int(draws.integers(len(vertices)))])
        capacity = sample_worker_capacity(draws, fleet.nominal_capacity)
        workers.append(Worker(id=index, initial_location=location, capacity=capacity))

    stream = RequestGeneratorConfig(count=workload.requests)
    demand = HotspotModel(
        network=network,
        num_hotspots=stream.num_hotspots,
        uniform_share=stream.uniform_share,
        rng=make_rng(fixed + 1),
    )
    demand.rng = draws
    objective = config.objective()
    horizon = workload.horizon_hours * 3600.0
    releases = RushHourProfile(horizon_seconds=horizon).sample_release_times(
        workload.requests, draws
    )
    requests = []
    for index, release in enumerate(releases.tolist()):
        for _ in range(20):
            origin, destination = demand.sample_pair()
            direct = oracle.distance(origin, destination)
            if direct >= stream.min_direct_seconds:
                break
        requests.append(
            Request(
                id=index,
                origin=origin,
                destination=destination,
                release_time=release,
                deadline=release + workload.deadline_minutes * 60.0,
                penalty=objective.penalty_for(direct),
                capacity=sample_request_capacity(draws),
            )
        )

    timeline = ()
    if workload.disruptions:
        # the scenario compiler picks connectivity-safe streets for the program
        tiny = config.with_overrides(num_workers=1, num_requests=1)
        timeline = compile_program(tiny, workload.program(), network=network).timeline
    return Inputs(
        workers=tuple(workers),
        requests=tuple(requests),
        timeline=timeline,
        base_edges=base_edge_list(network),
    )


@dataclass
class Session:
    """A started service over one seed's inputs."""

    service: MatchingService
    instance: URPSMInstance
    timeline: tuple
    base_edges: tuple
    setup_s: float


def start_session(workload: Workload, inputs: Inputs, mode: str | None = None) -> Session:
    """Build network, oracle, instance and service, timing the whole set-up."""
    mode = mode or workload.mode
    config = workload.scenario(seed=0)  # city, backend and grid only
    started = time.perf_counter()
    network = build_network(config)
    oracle = make_oracle(network, config)
    instance = URPSMInstance(
        network=network,
        oracle=oracle,
        workers=list(inputs.workers),
        requests=list(inputs.requests),
        objective=config.objective(),
        name=f"{workload.name}-W{workload.workers}-R{workload.requests}",
    )
    instance.validate()
    dispatcher = make_dispatcher(
        workload.dispatcher_name(mode),
        DispatcherConfig(
            grid_cell_metres=config.grid_km * 1000.0,
            num_shards=workload.shards if mode != "in-process" else 1,
        ),
    )
    service_class = ClusterMatchingService if mode == "cluster" else MatchingService
    service = service_class(instance, dispatcher)
    return Session(
        service=service,
        instance=instance,
        timeline=inputs.timeline,
        base_edges=inputs.base_edges,
        setup_s=time.perf_counter() - started,
    )
