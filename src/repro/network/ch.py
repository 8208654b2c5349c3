"""Contraction hierarchy over the CSR road network.

A contraction hierarchy (Geisberger et al., WEA 2008) preprocesses the graph
by repeatedly *contracting* the least important remaining vertex: the vertex
is removed and, for every pair of its remaining neighbours whose shortest
path runs through it, a **shortcut** edge preserving that distance is added.
Importance is the classic edge-difference heuristic (shortcuts added minus
edges removed, plus a deleted-neighbour term that spreads contractions
evenly), maintained lazily in a heap.

Queries then run on the **upward graph** only — the edges (original +
shortcuts) leading from each vertex to higher-ranked vertices, frozen into
flat CSR arrays at build time:

* **point-to-point** — a bidirectional *upward* search from both endpoints;
  the answer is the minimum over meeting vertices of the two upward
  distances (exact: some vertex of a shortest path is reachable upward from
  both sides by the CH construction invariant);
* **many-to-many** — the bucket technique: every target's full upward search
  space is scattered into per-vertex buckets, then **one** upward sweep from
  the source joins against the buckets, answering a whole
  ``distances_many``/``endpoint_distances`` batch with a single search per
  endpoint. Target search spaces are memoised (bounded), since dispatch
  batches re-query the same request origins/destinations continuously.

Upward search spaces on road-like networks are tiny (tens to a few hundred
vertices), so a query settles orders of magnitude fewer vertices than the
fallback point-to-point Dijkstra; the per-backend ``settled`` counters of
:class:`~repro.network.oracle.OracleCounters` make that visible.

Distances agree with Dijkstra to within 1e-12 relative (the equivalence
property tests assert this bound pair by pair). They are not bit-exact: a
shortcut's cost is the sum of its two halves, so a path's cost is summed in
a different association than a Dijkstra relaxation sums it along the path,
and the last bits can differ (on the metro grid about a fifth of sampled
pairs do, by up to ~4e-16 relative).

After a live network change, :func:`refresh_contraction_hierarchy`
re-contracts the hierarchy incrementally in its existing order: every
build records, per contraction step, the shortcuts it added and the overlay
rows its witness searches read, so only the steps that can see the change
run again.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.network.graph import CSRAdjacency, RoadNetwork

INFINITY = math.inf

#: witness searches stop after settling this many vertices (conservative:
#: an exhausted budget adds the shortcut, never drops one).
WITNESS_SETTLE_BUDGET = 60


class ContractionHierarchy:
    """A built contraction hierarchy answering exact distance queries.

    Build with :func:`build_contraction_hierarchy`. All query entry points
    work on CSR *positions*; the :class:`~repro.network.backends.CHBackend`
    translates vertex ids at the oracle boundary.

    Attributes:
        rank: ``(N,)`` contraction rank per position (higher = more important).
        num_shortcuts: shortcut edges added during construction.
        build_seconds: wall-clock construction time.
        searches: upward searches run so far (queries + bucket scans).
        settled: vertices settled across all upward searches.
        steps: the per-step record of the contraction that produced it
            (``None`` for a hierarchy loaded from an artifact store).
    """

    def __init__(
        self,
        num_vertices: int,
        rank: list[int],
        up_indptr: list[int],
        up_indices: list[int],
        up_costs: list[float],
        num_shortcuts: int,
        build_seconds: float,
        steps: "ContractionSteps | None" = None,
    ) -> None:
        self.num_vertices = num_vertices
        self.rank = rank
        self.up_indptr = up_indptr
        self.up_indices = up_indices
        self.up_costs = up_costs
        self.num_shortcuts = num_shortcuts
        self.build_seconds = build_seconds
        self.steps = steps
        self.searches = 0
        self.settled = 0
        # bounded memo of upward search spaces as (nodes, dists) arrays —
        # the bucket side of every many-to-many join; worker positions and
        # request origins/destinations recur across dispatch batches
        self._search_space_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._search_space_cache_capacity = 50_000

    def copy(self) -> "ContractionHierarchy":
        """The same hierarchy with its own search counters and memo.

        The frozen arrays and the step record are shared, never mutated.
        """
        return ContractionHierarchy(
            num_vertices=self.num_vertices,
            rank=self.rank,
            up_indptr=self.up_indptr,
            up_indices=self.up_indices,
            up_costs=self.up_costs,
            num_shortcuts=self.num_shortcuts,
            build_seconds=self.build_seconds,
            steps=self.steps,
        )

    # ------------------------------------------------------------------ search

    def _upward_search(self, source: int) -> tuple[list[int], list[float]]:
        """Full upward Dijkstra from ``source``; returns settled (nodes, dists)."""
        indptr = self.up_indptr
        indices = self.up_indices
        costs = self.up_costs
        dist: dict[int, float] = {source: 0.0}
        done: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, source)]
        nodes: list[int] = []
        dists: list[float] = []
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            cost, node = pop(heap)
            if node in done:
                continue
            done.add(node)
            nodes.append(node)
            dists.append(cost)
            for slot in range(indptr[node], indptr[node + 1]):
                neighbour = indices[slot]
                candidate = cost + costs[slot]
                if candidate < dist.get(neighbour, INFINITY):
                    dist[neighbour] = candidate
                    push(heap, (candidate, neighbour))
        self.searches += 1
        self.settled += len(nodes)
        return nodes, dists

    def search_space(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """Memoised full upward search space of ``position`` as flat arrays."""
        cached = self._search_space_cache.get(position)
        if cached is not None:
            return cached
        nodes, dists = self._upward_search(position)
        space = (
            np.asarray(nodes, dtype=np.int64),
            np.asarray(dists, dtype=np.float64),
        )
        cache = self._search_space_cache
        if len(cache) >= self._search_space_cache_capacity:
            # drop the oldest entry (insertion order); plain FIFO is enough
            cache.pop(next(iter(cache)))
        cache[position] = space
        return space

    def _dense_search_space(self, position: int) -> np.ndarray:
        """The upward search space of ``position`` scattered into a dense row.

        This is the array form of the classic CH *bucket* technique: entry
        ``x`` of the row is the bucket "``x`` is reachable upward from
        ``position`` at this distance" (``inf`` = no bucket), so a whole
        batch is answered by per-target gathers against one row.
        """
        nodes, dists = self.search_space(position)
        dense = np.full(self.num_vertices, INFINITY, dtype=np.float64)
        dense[nodes] = dists
        return dense

    def query_positions(self, source: int, target: int) -> float:
        """Exact distance between two CSR positions (``inf`` if disconnected).

        The answer is the minimum over all meeting vertices of the two full
        upward search spaces — by the CH invariant some vertex of a shortest
        path is reachable upward from both endpoints with exact distances.
        The same gather + minimum the batched queries run, so scalar and
        batched answers are bit-for-bit identical.
        """
        if source == target:
            return 0.0
        dense = self._dense_search_space(source)
        nodes, dists = self.search_space(target)
        return float(np.min(dense[nodes] + dists))

    def distances_many_positions(
        self, source: int, targets: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """Distances from ``source`` to many positions via the bucket join.

        One upward sweep from ``source`` (scattered dense), then one small
        gather + minimum per *unique* target search space (served from the
        bounded memo) — the whole batch costs ``#unique_targets + 1`` tiny
        upward searches instead of ``len(targets)`` point-to-point Dijkstras.
        """
        targets = np.asarray(targets, dtype=np.int64)
        count = targets.size
        result = np.full(count, INFINITY, dtype=np.float64)
        if count == 0:
            return result
        dense = self._dense_search_space(source)
        memo: dict[int, float] = {}
        for slot in range(count):
            t = int(targets[slot])
            if t == source:
                result[slot] = 0.0
                continue
            value = memo.get(t)
            if value is None:
                nodes, dists = self.search_space(t)
                value = float(np.min(dense[nodes] + dists))
                memo[t] = value
            result[slot] = value
        return result

    def stats(self) -> dict[str, float]:
        """Build/search statistics for benchmarks and reports."""
        return {
            "vertices": float(self.num_vertices),
            "shortcuts": float(self.num_shortcuts),
            "upward_edges": float(len(self.up_indices)),
            "build_seconds": self.build_seconds,
            "searches": float(self.searches),
            "settled_vertices": float(self.settled),
        }


@dataclass(frozen=True)
class ContractionSteps:
    """What every contraction step of one build read and wrote, by rank.

    Step ``i`` contracted the vertex of rank ``i``. Its *reads* are the
    overlay rows the step looked at: the contracted vertex itself plus every
    vertex its witness searches settled. Its *shortcuts* are the
    ``(a, b, cost)`` edges it spliced in. A step whose reads all hold the
    same rows on a changed network does exactly the same thing there, which
    is what :func:`refresh_contraction_hierarchy` exploits. Only the
    simulation that actually contracts a vertex is recorded, and everything
    is stored flat with per-step offsets.

    Attributes:
        csr: the CSR snapshot the hierarchy was contracted from.
        witness_settle_budget: the witness-search budget of the build.
        read_indptr: ``(N+1,)`` int64 — step ``i`` read
            ``reads[read_indptr[i]:read_indptr[i+1]]``.
        reads: int32 positions.
        shortcut_indptr: ``(N+1,)`` int64 offsets into the shortcut arrays.
        shortcut_a, shortcut_b: int32 shortcut endpoints.
        shortcut_costs: float64 shortcut costs.
    """

    csr: CSRAdjacency
    witness_settle_budget: int
    read_indptr: np.ndarray
    reads: np.ndarray
    shortcut_indptr: np.ndarray
    shortcut_a: np.ndarray
    shortcut_b: np.ndarray
    shortcut_costs: np.ndarray


class _Contraction:
    """The mutable overlay graph of one contraction run, and what it froze.

    The lazy-heap build and the fixed-order refresh both drive this class:
    :meth:`shortcuts` simulates a step, :meth:`contract` performs and records
    it, :meth:`freeze` turns the finished run into a hierarchy.
    """

    def __init__(self, csr: CSRAdjacency, witness_settle_budget: int) -> None:
        n = csr.num_vertices
        indptr = csr.indptr_list
        indices = csr.indices_list
        costs = csr.costs_list
        # position -> {neighbour position: cost}
        adjacency: list[dict[int, float]] = [{} for _ in range(n)]
        for u in range(n):
            row = adjacency[u]
            for slot in range(indptr[u], indptr[u + 1]):
                v = indices[slot]
                cost = costs[slot]
                current = row.get(v)
                if current is None or cost < current:
                    row[v] = cost
        self.csr = csr
        self.adjacency = adjacency
        self.witness_settle_budget = witness_settle_budget
        self.rank = [-1] * n
        self.deleted_neighbours = [0] * n
        # frozen upward rows per position: sorted neighbours and their costs
        self.up_neighbours: list[list[int]] = [[] for _ in range(n)]
        self.up_costs: list[list[float]] = [[] for _ in range(n)]
        self.num_shortcuts = 0
        self._reads = array("i")
        self._read_indptr = array("q", [0])
        self._shortcut_a = array("i")
        self._shortcut_b = array("i")
        self._shortcut_costs = array("d")
        self._shortcut_indptr = array("q", [0])

    def shortcuts(
        self, v: int, settled: list[set[int]] | None = None
    ) -> list[tuple[int, int, float]]:
        """Shortcuts contracting ``v`` would add now.

        When ``settled`` is given, the vertices each witness search settles
        are appended to it as one set.
        """
        adjacency = self.adjacency
        neighbours = sorted(adjacency[v].items())
        shortcuts: list[tuple[int, int, float]] = []
        for i, (a, cost_a) in enumerate(neighbours):
            rest = neighbours[i + 1:]
            if not rest:
                continue
            bounds = {b: cost_a + cost_b for b, cost_b in rest}
            witness, done = _witness_search(
                adjacency, a, v, set(bounds), max(bounds.values()),
                self.witness_settle_budget,
            )
            if settled is not None:
                settled.append(done)
            for b, bound in bounds.items():
                if witness.get(b, INFINITY) > bound:
                    shortcuts.append((a, b, bound))
        return shortcuts

    def contract(
        self,
        v: int,
        shortcuts: Iterable[tuple[int, int, float]],
        reads: "array | np.ndarray",
    ) -> None:
        """Contract ``v``: freeze its upward edges, detach it, splice in
        ``shortcuts``, and record the step with its ``reads`` (an int32
        buffer: an ``array("i")`` or a numpy slice of a record)."""
        adjacency = self.adjacency
        self.rank[v] = len(self._read_indptr) - 1  # steps recorded so far
        row = adjacency[v]
        upward = self.up_neighbours[v] = sorted(row)
        self.up_costs[v] = list(map(row.__getitem__, upward))
        for neighbour in row:
            del adjacency[neighbour][v]
            self.deleted_neighbours[neighbour] += 1
        adjacency[v] = {}
        for a, b, cost in shortcuts:
            current = adjacency[a].get(b)
            if current is None or cost < current:
                adjacency[a][b] = cost
                adjacency[b][a] = cost
                self.num_shortcuts += 1
            self._shortcut_a.append(a)
            self._shortcut_b.append(b)
            self._shortcut_costs.append(cost)
        self._shortcut_indptr.append(len(self._shortcut_a))
        self._reads.frombytes(reads.tobytes())
        self._read_indptr.append(len(self._reads))

    def freeze(self, started: float) -> ContractionHierarchy:
        """The finished run as a hierarchy carrying its step record."""
        n = len(self.rank)
        up_indptr = [0] * (n + 1)
        up_indices: list[int] = []
        up_costs: list[float] = []
        for v in range(n):
            up_indices += self.up_neighbours[v]
            up_costs += self.up_costs[v]
            up_indptr[v + 1] = len(up_indices)
        # the record's arrays are views of the run's buffers, not copies
        steps = ContractionSteps(
            csr=self.csr,
            witness_settle_budget=self.witness_settle_budget,
            read_indptr=np.frombuffer(self._read_indptr, dtype=np.int64),
            reads=np.frombuffer(self._reads, dtype=np.int32),
            shortcut_indptr=np.frombuffer(self._shortcut_indptr, dtype=np.int64),
            shortcut_a=np.frombuffer(self._shortcut_a, dtype=np.int32),
            shortcut_b=np.frombuffer(self._shortcut_b, dtype=np.int32),
            shortcut_costs=np.frombuffer(self._shortcut_costs, dtype=np.float64),
        )
        return ContractionHierarchy(
            num_vertices=n,
            rank=self.rank,
            up_indptr=up_indptr,
            up_indices=up_indices,
            up_costs=up_costs,
            num_shortcuts=self.num_shortcuts,
            build_seconds=time.perf_counter() - started,
            steps=steps,
        )


def _reads(v: int, settled: list[set[int]]) -> array:
    """A step's reads: ``v`` itself and every vertex its searches settled."""
    return array("i", {v}.union(*settled))


def build_contraction_hierarchy(
    network: RoadNetwork,
    witness_settle_budget: int = WITNESS_SETTLE_BUDGET,
    order: Sequence[int] | None = None,
) -> ContractionHierarchy:
    """Contract ``network`` into a :class:`ContractionHierarchy`.

    Deterministic: the lazy priority queue breaks ties by position, witness
    searches are plain Dijkstras with a settle budget (exhausting the budget
    conservatively adds the shortcut), and each contracted vertex freezes its
    remaining adjacency — by construction all higher-ranked — as its upward
    edges.

    With ``order`` (CSR positions, lowest rank first) the vertices are
    contracted in exactly that order instead; contracting a network in the
    order its lazy-heap build chose reproduces that build bit for bit.
    """
    started = time.perf_counter()
    run = _Contraction(network.csr, witness_settle_budget)
    if order is not None:
        for v in order:
            settled: list[set[int]] = []
            run.contract(v, run.shortcuts(v, settled), _reads(v, settled))
        return run.freeze(started)

    def priority(v: int, shortcuts: list) -> int:
        """Edge difference plus the deleted-neighbour spreading term."""
        return len(shortcuts) - len(run.adjacency[v]) + run.deleted_neighbours[v]

    heap = [(priority(v, run.shortcuts(v)), v) for v in range(network.csr.num_vertices)]
    heapq.heapify(heap)
    rank = run.rank
    while heap:
        _, v = heapq.heappop(heap)
        if rank[v] >= 0:
            continue
        settled = []
        shortcuts = run.shortcuts(v, settled)
        current = priority(v, shortcuts)
        if heap and current > heap[0][0]:
            heapq.heappush(heap, (current, v))
            continue
        run.contract(v, shortcuts, _reads(v, settled))
    return run.freeze(started)


def refresh_contraction_hierarchy(
    hierarchy: ContractionHierarchy, network: RoadNetwork
) -> ContractionHierarchy:
    """Re-contract ``hierarchy`` for the current topology of ``network``.

    The result is exactly what contracting the new network in the old rank
    order produces (``build_contraction_hierarchy(network, order=...)``), so
    a network that returns to its built topology gets the original
    hierarchy back bit for bit. Only the steps that can see the change run
    again. The changed edges mark their endpoints' rows dirty; walking the
    old order, a step whose recorded reads are all clean sees exactly the
    rows it saw at build time, so it replays its recorded shortcuts without
    a witness search. A dirty step is re-run, and every row it now changes
    differently from before — a vertex that gained or lost it as a
    neighbour, or whose shortcut splices differ (:func:`_splices_differ`) —
    is marked dirty for the steps after it.

    A hierarchy without a step record (one loaded from an artifact store) or
    a change of the vertex set falls back to a full lazy-heap build.
    """
    steps = hierarchy.steps
    csr = network.csr
    if steps is None or not np.array_equal(steps.csr.vertex_ids, csr.vertex_ids):
        budget = WITNESS_SETTLE_BUDGET if steps is None else steps.witness_settle_budget
        return build_contraction_hierarchy(network, budget)
    started = time.perf_counter()
    dirty = _changed_rows(steps.csr, csr)
    run = _Contraction(csr, steps.witness_settle_budget)
    # memoryviews hand out Python scalars one slice at a time, so neither
    # the order nor the record is expanded into lists of boxed numbers
    order = memoryview(np.argsort(np.asarray(hierarchy.rank, dtype=np.int64)))
    read_indptr = memoryview(steps.read_indptr)
    reads = steps.reads
    shortcut_indptr = memoryview(steps.shortcut_indptr)
    shortcut_a = memoryview(steps.shortcut_a)
    shortcut_b = memoryview(steps.shortcut_b)
    shortcut_costs = memoryview(steps.shortcut_costs)
    up_indptr = hierarchy.up_indptr
    up_indices = hierarchy.up_indices
    # replayed endpoints reuse the CSR's own int objects, as a build's do:
    # upward searches run measurably slower over freshly boxed ones
    interned = list(range(csr.num_vertices))
    for x in csr.indices_list:
        interned[x] = x
    intern = interned.__getitem__
    for step, v in enumerate(order):
        low, high = shortcut_indptr[step], shortcut_indptr[step + 1]
        recorded = zip(
            map(intern, shortcut_a[low:high].tolist()),
            map(intern, shortcut_b[low:high].tolist()),
            shortcut_costs[low:high].tolist(),
        )
        step_reads = reads[read_indptr[step]:read_indptr[step + 1]]
        if not dirty[step_reads].any():
            run.contract(v, recorded, step_reads)
            continue
        recorded = list(recorded)
        settled: list[set[int]] = []
        shortcuts = run.shortcuts(v, settled)
        neighbours = set(run.adjacency[v])
        before = set(up_indices[up_indptr[v]:up_indptr[v + 1]])
        for x in neighbours.symmetric_difference(before):
            dirty[x] = True
        if shortcuts != recorded:
            for x in _splices_differ(shortcuts, recorded):
                dirty[x] = True
        run.contract(v, shortcuts, _reads(v, settled))
    return run.freeze(started)


def _splices_differ(
    now: list[tuple[int, int, float]], before: list[tuple[int, int, float]]
) -> set[int]:
    """Vertices whose rows two shortcut lists splice differently.

    Contracting a step changes a row ``x`` by detaching the contracted
    vertex (when ``x`` is its neighbour) and by a minimum-splice of every
    shortcut ending at ``x``. So a row that was equal before the step stays
    equal unless ``x`` gained or lost the contracted vertex as a neighbour
    or the multiset of ``(other end, cost)`` shortcuts at ``x`` changed.
    """
    ends = Counter()
    for a, b, cost in now:
        ends[a, b, cost] += 1
        ends[b, a, cost] += 1
    for a, b, cost in before:
        ends[a, b, cost] -= 1
        ends[b, a, cost] -= 1
    return {x for (x, _, _), count in ends.items() if count}


def _changed_rows(old: CSRAdjacency, new: CSRAdjacency) -> np.ndarray:
    """``(N,)`` bool mask of the positions whose adjacency rows differ.

    Both layouts share one vertex set. Rows of different lengths differ;
    rows of equal length are compared slot by slot (neighbours are sorted,
    so equal rows line up).
    """
    lengths = np.diff(old.indptr)
    dirty = lengths != np.diff(new.indptr)
    rows = np.repeat(np.arange(old.num_vertices, dtype=np.int32), lengths)
    old_slots = np.flatnonzero(~dirty[rows])
    rows = rows[old_slots]
    new_slots = old_slots + (new.indptr[rows] - old.indptr[rows])
    differs = old.indices[old_slots] != new.indices[new_slots]
    differs |= old.costs[old_slots] != new.costs[new_slots]
    dirty[rows[differs]] = True
    return dirty


def _witness_search(
    adjacency: list[dict[int, float]],
    source: int,
    skip: int,
    targets: set[int],
    max_cost: float,
    settle_budget: int,
) -> tuple[dict[int, float], set[int]]:
    """Bounded Dijkstra over the overlay graph avoiding ``skip``.

    Returns the distances of the settled targets — a target missing from
    them was not certified within the budget (so the caller adds the
    shortcut — conservative, never wrong) — and the settled vertices, the
    only ones whose overlay rows the search read.
    """
    dist: dict[int, float] = {source: 0.0}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    found: dict[int, float] = {}
    remaining = len(targets)
    budget = settle_budget
    pop = heapq.heappop
    push = heapq.heappush
    while heap and budget > 0 and remaining > 0:
        cost, node = pop(heap)
        if node in done:
            continue
        if cost > max_cost:
            break
        done.add(node)
        budget -= 1
        if node in targets:
            found[node] = cost
            remaining -= 1
        for neighbour, edge_cost in adjacency[node].items():
            if neighbour == skip or neighbour in done:
                continue
            candidate = cost + edge_cost
            if candidate < dist.get(neighbour, INFINITY) and candidate <= max_cost:
                dist[neighbour] = candidate
                push(heap, (candidate, neighbour))
    return found, done
