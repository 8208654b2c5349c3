"""Shortest travel times computed apart from the program, with scipy.

The checks never ask ``repro.network`` for a distance: they take the street
list as plain ``(u, v, seconds)`` values and run :mod:`scipy.sparse.csgraph`
Dijkstra over it. Callers announce the vertex pairs they will read
(:meth:`IndependentDistances.prefetch`); those are answered by a few batched
Dijkstra calls, keeping only the requested entries, so memory stays
proportional to the pairs asked for and not to sources times vertices.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

_CHUNK = 128


class IndependentDistances:
    """Exact shortest travel times over an undirected street list."""

    def __init__(self, edges) -> None:
        vertices = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
        self._index = {vertex: position for position, vertex in enumerate(vertices)}
        size = len(vertices)
        # keep the cheapest of parallel streets; coo would sum duplicates
        cheapest: dict[tuple[int, int], float] = {}
        for u, v, seconds in edges:
            key = (self._index[u], self._index[v])
            if key[0] > key[1]:
                key = (key[1], key[0])
            cheapest[key] = min(seconds, cheapest.get(key, np.inf))
        rows = np.fromiter((key[0] for key in cheapest), dtype=np.int64, count=len(cheapest))
        cols = np.fromiter((key[1] for key in cheapest), dtype=np.int64, count=len(cheapest))
        data = np.fromiter(cheapest.values(), dtype=np.float64, count=len(cheapest))
        self._graph = coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()
        self._known: dict[tuple[int, int], float] = {}

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def prefetch(self, pairs) -> None:
        """Compute the distances of many ``(u, v)`` pairs in batched calls.

        Each pair is answered from whichever endpoint occurs in more pairs,
        so a star of pairs around one vertex costs one Dijkstra row.
        """
        wanted = {self._key(u, v) for u, v in pairs if u != v} - set(self._known)
        if not wanted:
            return
        frequency = Counter(vertex for pair in wanted for vertex in pair)
        targets_of: dict[int, list[int]] = defaultdict(list)
        for u, v in wanted:
            source, target = (u, v) if frequency[u] >= frequency[v] else (v, u)
            targets_of[source].append(target)
        sources = sorted(targets_of)
        index = self._index
        for start in range(0, len(sources), _CHUNK):
            chunk = sources[start:start + _CHUNK]
            table = dijkstra(self._graph, directed=False, indices=[index[s] for s in chunk])
            for source, row in zip(chunk, table):
                for target in targets_of[source]:
                    self._known[self._key(source, target)] = float(row[index[target]])

    def __call__(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        key = self._key(u, v)
        value = self._known.get(key)
        if value is None:
            self.prefetch([key])
            value = self._known[key]
        return value
