"""PBQP problem representation.

A PBQP instance is an undirected graph.  Every node ``u`` carries a cost
vector ``c_u`` with one entry per alternative; every edge ``(u, v)`` carries a
cost matrix ``C_uv`` indexed by the pair of alternatives chosen for ``u`` and
``v``.  A solution assigns one alternative to every node; its cost is

    sum_u c_u[x_u]  +  sum_{(u,v)} C_uv[x_u, x_v].

Infinite matrix entries encode illegal pairs (the paper's incompatible
primitives whose connection would produce garbage); a finite-cost solution
never selects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class PBQPNode:
    """One decision variable of a PBQP instance.

    Attributes
    ----------
    node_id:
        Unique integer id assigned by the owning graph.
    name:
        Optional human-readable name (the DNN layer name in our encoding).
    costs:
        Cost vector, one entry per alternative.  May contain ``inf`` for
        alternatives that are individually illegal.
    labels:
        Optional human-readable names of the alternatives (primitive names in
        our encoding); if given, must have the same length as ``costs``.

    A node adopts the cost array it is given (the solver's reductions update
    it in place); :class:`PBQPGraph` hands every node a private copy.
    """

    node_id: int
    name: str
    costs: np.ndarray
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=float)
        if self.costs.ndim != 1 or self.costs.size == 0:
            raise ValueError(f"node {self.name!r} needs a non-empty 1D cost vector")
        if self.labels is not None and len(self.labels) != self.costs.size:
            raise ValueError(
                f"node {self.name!r}: {len(self.labels)} labels for {self.costs.size} alternatives"
            )

    @property
    def degree_of_freedom(self) -> int:
        """Number of alternatives for this node."""
        return int(self.costs.size)

    def label_of(self, index: int) -> str:
        """Human-readable name of an alternative."""
        if self.labels is not None:
            return self.labels[index]
        return str(index)


@dataclass
class PBQPEdge:
    """An undirected PBQP edge with its pairwise cost matrix.

    The matrix is stored oriented from ``u`` to ``v``: ``matrix[i, j]`` is the
    cost of selecting alternative ``i`` at ``u`` and ``j`` at ``v``.  Like
    :class:`PBQPNode`, an edge adopts the array it is given.
    """

    u: int
    v: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("edge cost matrix must be 2D")
        if self.u == self.v:
            raise ValueError("self edges are not allowed in PBQP")

    def oriented(self, source: int, target: int) -> np.ndarray:
        """The cost matrix oriented from ``source`` to ``target``."""
        if (source, target) == (self.u, self.v):
            return self.matrix
        if (source, target) == (self.v, self.u):
            return self.matrix.T
        raise ValueError(f"edge ({self.u}, {self.v}) does not connect {source} and {target}")


class PBQPGraph:
    """A mutable PBQP instance.

    Nodes are identified by the integer ids returned from :meth:`add_node`.
    Adding an edge between two nodes that are already connected accumulates
    (adds) the cost matrices, which is the standard PBQP convention and is
    what the selection encoder relies on when several cost contributions land
    on the same DNN edge.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, PBQPNode] = {}
        self._edges: Dict[Tuple[int, int], PBQPEdge] = {}
        self._adjacency: Dict[int, set] = {}
        self._next_id = 0

    # -- construction ---------------------------------------------------------

    def add_node(
        self,
        costs: Sequence[float],
        name: Optional[str] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> int:
        """Add a node and return its id."""
        node_id = self._next_id
        self._next_id += 1
        node = PBQPNode(
            node_id=node_id,
            name=name if name is not None else f"n{node_id}",
            costs=np.array(costs, dtype=float),
            labels=tuple(labels) if labels is not None else None,
        )
        self._nodes[node_id] = node
        self._adjacency[node_id] = set()
        return node_id

    def add_edge(self, u: int, v: int, matrix: Sequence[Sequence[float]]) -> None:
        """Add (or accumulate onto) the edge between ``u`` and ``v``.

        ``matrix[i][j]`` must be the pairwise cost of alternative ``i`` at
        ``u`` and alternative ``j`` at ``v``.
        """
        if u not in self._nodes or v not in self._nodes:
            raise KeyError(f"both endpoints must exist before adding edge ({u}, {v})")
        if u == v:
            raise ValueError("self edges are not allowed in PBQP")
        matrix = np.array(matrix, dtype=float)
        expected = (self._nodes[u].degree_of_freedom, self._nodes[v].degree_of_freedom)
        if matrix.shape != expected:
            raise ValueError(
                f"edge ({u}, {v}) cost matrix has shape {matrix.shape}, expected {expected}"
            )
        key = self._edge_key(u, v)
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = PBQPEdge(u=key[0], v=key[1], matrix=self._orient(u, v, matrix, key))
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
        else:
            existing.matrix = existing.matrix + self._orient(u, v, matrix, key)

    @staticmethod
    def _edge_key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    @staticmethod
    def _orient(u: int, v: int, matrix: np.ndarray, key: Tuple[int, int]) -> np.ndarray:
        return matrix if (u, v) == key else matrix.T

    # -- removal (used by the solver's reductions) ------------------------------

    def remove_node(self, node_id: int) -> None:
        """Remove a node and all its incident edges."""
        if node_id not in self._nodes:
            raise KeyError(f"no node {node_id}")
        for neighbor in list(self._adjacency[node_id]):
            self.remove_edge(node_id, neighbor)
        del self._adjacency[node_id]
        del self._nodes[node_id]

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge between ``u`` and ``v``."""
        key = self._edge_key(u, v)
        if key not in self._edges:
            raise KeyError(f"no edge between {u} and {v}")
        del self._edges[key]
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)

    # -- queries ----------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        return list(self._nodes.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> PBQPNode:
        return self._nodes[node_id]

    def nodes(self) -> List[PBQPNode]:
        return list(self._nodes.values())

    def edges(self) -> List[PBQPEdge]:
        return list(self._edges.values())

    def has_edge(self, u: int, v: int) -> bool:
        return self._edge_key(u, v) in self._edges

    def edge(self, u: int, v: int) -> PBQPEdge:
        return self._edges[self._edge_key(u, v)]

    def edge_matrix(self, source: int, target: int) -> np.ndarray:
        """The edge cost matrix oriented from ``source`` to ``target``."""
        return self.edge(source, target).oriented(source, target)

    def neighbors(self, node_id: int) -> List[int]:
        return sorted(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    # -- evaluation ---------------------------------------------------------------

    def solution_cost(self, assignment: Dict[int, int]) -> float:
        """Total cost of a full assignment (node costs + edge costs)."""
        missing = set(self._nodes) - set(assignment)
        if missing:
            raise ValueError(f"assignment is missing nodes {sorted(missing)}")
        total = 0.0
        for node_id, node in self._nodes.items():
            total += float(node.costs[assignment[node_id]])
        for edge in self._edges.values():
            total += float(edge.matrix[assignment[edge.u], assignment[edge.v]])
        return total

    def copy(self) -> "PBQPGraph":
        """Deep copy of the instance (node ids are preserved)."""
        clone = PBQPGraph()
        clone._next_id = self._next_id
        for node_id, node in self._nodes.items():
            clone._nodes[node_id] = PBQPNode(
                node_id=node_id, name=node.name, costs=node.costs.copy(), labels=node.labels
            )
            clone._adjacency[node_id] = set(self._adjacency[node_id])
        for key, edge in self._edges.items():
            clone._edges[key] = PBQPEdge(u=edge.u, v=edge.v, matrix=edge.matrix.copy())
        return clone

    def __repr__(self) -> str:
        return f"PBQPGraph(nodes={self.num_nodes}, edges={self.num_edges})"
