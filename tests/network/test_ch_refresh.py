"""Incremental contraction-hierarchy refresh after live street closures.

The contracts gated here:

* contracting a network in the order its lazy-heap build chose reproduces
  that build bit for bit;
* :func:`refresh_contraction_hierarchy` equals a full contraction of the
  new network in the old order (identical upward CSR arrays), for random
  close/reopen sequences, and reopening every street restores the original
  hierarchy bit for bit;
* fresh and refreshed hierarchies answer within 1e-12 relative of the
  Dijkstra reference on a grid whose mixed speeds make costs non-integer;
* a hierarchy without a step record, or a vertex-set change, falls back to
  a full build; the oracle refreshes incrementally only without a store.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.ch import (
    ContractionHierarchy,
    build_contraction_hierarchy,
    refresh_contraction_hierarchy,
)
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.network.shortest_path import dijkstra_reference
from repro.utils.geometry import Point

#: speeds in m/s; with 97 m blocks no travel time is an integer
_SPEEDS = (7.3, 8.9, 11.1, 13.9, 16.7)
_REL = 1e-12


def mixed_speed_grid(rows: int, columns: int, seed: int) -> RoadNetwork:
    rng = np.random.default_rng(seed)
    network = RoadNetwork(name="mixed-speed-grid")
    for row in range(rows):
        for column in range(columns):
            network.add_vertex(row * columns + column, Point(column * 97.0, row * 97.0))
    for row in range(rows):
        for column in range(columns):
            here = row * columns + column
            if column + 1 < columns:
                network.add_edge(here, here + 1, speed=float(rng.choice(_SPEEDS)))
            if row + 1 < rows:
                network.add_edge(here, here + columns, speed=float(rng.choice(_SPEEDS)))
    return network


def _order(hierarchy: ContractionHierarchy) -> list[int]:
    return np.argsort(np.asarray(hierarchy.rank)).tolist()


def _assert_same(actual: ContractionHierarchy, expected: ContractionHierarchy) -> None:
    assert actual.rank == expected.rank
    assert actual.up_indptr == expected.up_indptr
    assert actual.up_indices == expected.up_indices
    assert actual.up_costs == expected.up_costs
    assert actual.num_shortcuts == expected.num_shortcuts


def _reopen(network: RoadNetwork, edge) -> None:
    network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed,
                     road_class=edge.road_class)


def _assert_within_bound(hierarchy: ContractionHierarchy, network: RoadNetwork) -> None:
    csr = network.csr
    for source in csr.vertex_ids_list:
        truth = dijkstra_reference(network, source)
        for target, expected in truth.items():
            got = hierarchy.query_positions(csr.position[source], csr.position[target])
            assert abs(got - expected) <= _REL * expected, (source, target)


def test_fixed_order_contraction_reproduces_the_lazy_build():
    network = mixed_speed_grid(7, 7, seed=3)
    built = build_contraction_hierarchy(network)
    _assert_same(build_contraction_hierarchy(network, order=_order(built)), built)


def test_fresh_and_refreshed_distances_within_bound_of_dijkstra():
    network = mixed_speed_grid(8, 8, seed=5)
    hierarchy = build_contraction_hierarchy(network)
    _assert_within_bound(hierarchy, network)
    for u, v in ((9, 10), (27, 35), (44, 45)):
        network.remove_edge(u, v)
    refreshed = refresh_contraction_hierarchy(hierarchy, network)
    assert refreshed.rank == hierarchy.rank
    _assert_within_bound(refreshed, network)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(3, 6),
    columns=st.integers(3, 6),
    seed=st.integers(0, 10_000),
    toggles=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
)
def test_incremental_refresh_equals_full_fixed_order_contraction(
    rows, columns, seed, toggles
):
    network = mixed_speed_grid(rows, columns, seed)
    edges = list(network.edges())
    original = build_contraction_hierarchy(network)
    order = _order(original)
    closed: dict[tuple[int, int], object] = {}
    hierarchy = original
    for toggle in toggles:
        edge = edges[toggle % len(edges)]
        key = (edge.u, edge.v)
        if key in closed:
            _reopen(network, closed.pop(key))
        else:
            closed[key] = network.remove_edge(edge.u, edge.v)
        hierarchy = refresh_contraction_hierarchy(hierarchy, network)
        _assert_same(hierarchy, build_contraction_hierarchy(network, order=order))
    for edge in closed.values():
        _reopen(network, edge)
    _assert_same(refresh_contraction_hierarchy(hierarchy, network), original)


def test_without_step_record_falls_back_to_full_build():
    network = mixed_speed_grid(5, 5, seed=8)
    built = build_contraction_hierarchy(network)
    loaded = ContractionHierarchy(
        num_vertices=built.num_vertices, rank=built.rank, up_indptr=built.up_indptr,
        up_indices=built.up_indices, up_costs=built.up_costs,
        num_shortcuts=built.num_shortcuts, build_seconds=0.0,
    )
    network.remove_edge(0, 1)
    _assert_same(
        refresh_contraction_hierarchy(loaded, network), build_contraction_hierarchy(network)
    )


def test_vertex_set_change_falls_back_to_full_build():
    network = mixed_speed_grid(5, 5, seed=9)
    built = build_contraction_hierarchy(network)
    network.add_vertex(100, Point(-97.0, 0.0))
    network.add_edge(100, 0, speed=9.7)
    refreshed = refresh_contraction_hierarchy(built, network)
    _assert_same(refreshed, build_contraction_hierarchy(network))
    assert refreshed.steps is not None


def test_oracle_refreshes_incrementally_only_without_a_store(tmp_path):
    network = mixed_speed_grid(6, 6, seed=4)
    plain = DistanceOracle(network, backend="ch")
    stored = DistanceOracle(network, backend="ch", artifact_dir=tmp_path)
    order = _order(plain.contraction_hierarchy)
    network.remove_edge(7, 8)
    plain.refresh_topology()
    stored.refresh_topology()
    _assert_same(
        plain.contraction_hierarchy, build_contraction_hierarchy(network, order=order)
    )
    # the store keeps its content hash -> canonical build contract
    _assert_same(stored.contraction_hierarchy, build_contraction_hierarchy(network))
