"""The PBQP solver: reductions, branch-and-bound on irreducible cores, back-propagation.

The solving strategy mirrors Hames & Scholz's "nearly optimal register
allocation with PBQP" solver, which the paper uses off the shelf:

1. apply the optimality-preserving reductions R0/R1/R2 exhaustively;
2. if the graph is empty, back-propagate to obtain a provably optimal
   solution;
3. otherwise an *irreducible core* (every remaining node has degree >= 3)
   remains.  If the core is small enough, solve it exactly by depth-first
   branch-and-bound (the solution stays provably optimal); if it is too
   large, fall back to the RN heuristic interleaved with further reductions,
   and mark the solution as not provably optimal.  The branch-and-bound
   branches only over part of the core: an independent set of its widest
   nodes is decided in closed form once their neighbours are fixed, which
   keeps the fan-out encoding's wide auxiliary conversion nodes out of the
   search space.

The paper reports that the solver found (and proved) the optimal solution for
every network in under one second; on the networks in this reproduction the
irreducible core is empty or tiny, so the same holds here.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.pbqp.graph import PBQPGraph
from repro.pbqp.reductions import (
    ReductionRecord,
    apply_r0,
    apply_r1,
    apply_r2,
    apply_rn,
)
from repro.pbqp.solution import PBQPSolution

# Process-wide solve accounting.  The planning service's /v1/metrics surfaces
# this to prove its warm path performs *zero* solves (a warm daemon serving
# cached plans holds the counter flat); a plain module global with a lock is
# enough because solves are counted, never reset, and read rarely.
_SOLVE_COUNT_LOCK = threading.Lock()
_SOLVE_COUNT = 0


def solve_count() -> int:
    """Total number of PBQP solves performed by this process (thread-safe)."""
    with _SOLVE_COUNT_LOCK:
        return _SOLVE_COUNT


def _count_solve() -> None:
    global _SOLVE_COUNT
    with _SOLVE_COUNT_LOCK:
        _SOLVE_COUNT += 1


@dataclass
class SolverStats:
    """Counters describing one solver run (used by the overhead experiment)."""

    r0_count: int = 0
    r1_count: int = 0
    r2_count: int = 0
    rn_count: int = 0
    core_nodes: int = 0
    core_assignments_explored: int = 0
    solve_seconds: float = 0.0

    def total_reductions(self) -> int:
        return self.r0_count + self.r1_count + self.r2_count + self.rn_count


class PBQPSolver:
    """Reduction-based PBQP solver with an exact branch-and-bound core search.

    Parameters
    ----------
    exact_core_limit:
        Maximum size (number of assignment combinations) of the irreducible
        core that will be solved exactly; larger cores fall back to the RN
        heuristic.  The default comfortably covers every DNN selection
        instance in the reproduction.
    """

    def __init__(self, exact_core_limit: int = 2_000_000) -> None:
        if exact_core_limit < 1:
            raise ValueError("exact_core_limit must be positive")
        self.exact_core_limit = exact_core_limit
        self.last_stats: Optional[SolverStats] = None

    # -- public API -------------------------------------------------------------

    def solve(self, graph: PBQPGraph) -> PBQPSolution:
        """Solve a PBQP instance; the input graph is not modified."""
        _count_solve()
        stats = SolverStats()
        start = time.perf_counter()
        work = graph.copy()
        stack: List[ReductionRecord] = []
        optimal = True

        self._reduce(work, stack, stats)

        assignment: Dict[int, int] = {}
        if work.num_nodes > 0:
            stats.core_nodes = work.num_nodes
            closed = self._closed_form_nodes(work)
            core_size = 1
            for node in work.nodes():
                if node.node_id not in closed:
                    core_size *= node.degree_of_freedom
                if core_size > self.exact_core_limit:
                    break
            if core_size <= self.exact_core_limit:
                assignment = self._solve_core_exact(work, closed, stats)
            else:
                optimal = False
                self._solve_core_heuristic(work, stack, stats)
                assignment = {}

        full_assignment = self._back_propagate(assignment, stack)
        cost = graph.solution_cost(full_assignment)
        stats.solve_seconds = time.perf_counter() - start
        self.last_stats = stats
        return PBQPSolution(assignment=full_assignment, cost=cost, optimal=optimal)

    # -- reduction loop -----------------------------------------------------------

    def _reduce(self, work: PBQPGraph, stack: List[ReductionRecord], stats: SolverStats) -> None:
        """Apply R0/R1/R2 until no node of degree <= 2 remains."""
        progress = True
        while progress:
            progress = False
            for node_id in list(work.node_ids):
                if node_id not in work.node_ids:
                    continue
                degree = work.degree(node_id)
                if degree == 0:
                    stack.append(apply_r0(work, node_id))
                    stats.r0_count += 1
                    progress = True
                elif degree == 1:
                    stack.append(apply_r1(work, node_id))
                    stats.r1_count += 1
                    progress = True
                elif degree == 2:
                    stack.append(apply_r2(work, node_id))
                    stats.r2_count += 1
                    progress = True

    def _solve_core_heuristic(
        self, work: PBQPGraph, stack: List[ReductionRecord], stats: SolverStats
    ) -> None:
        """Reduce the remaining core with RN steps interleaved with R0-R2."""
        while work.num_nodes > 0:
            node_id = max(work.node_ids, key=work.degree)
            stack.append(apply_rn(work, node_id))
            stats.rn_count += 1
            self._reduce(work, stack, stats)

    # -- exact core search ----------------------------------------------------------

    @staticmethod
    def _closed_form_nodes(core: PBQPGraph) -> List[int]:
        """An independent set of the core, picked greedily widest first.

        No two of these nodes share an edge, so once every other node is
        decided each one's best alternative is a plain minimum over its own
        cost vector plus its (now fixed) edge rows.
        """
        closed: List[int] = []
        for node_id in sorted(
            core.node_ids, key=lambda nid: core.node(nid).degree_of_freedom, reverse=True
        ):
            if not any(core.has_edge(node_id, other) for other in closed):
                closed.append(node_id)
        return closed

    def _solve_core_exact(
        self, core: PBQPGraph, closed: List[int], stats: SolverStats
    ) -> Dict[int, int]:
        """Depth-first branch-and-bound over the irreducible core.

        The search branches over every node outside ``closed``, ordered by
        decreasing degree so that edge costs become concrete early and the
        bound is tight; each complete branch then decides the ``closed``
        nodes by their exact minimum.  The lower bound for the undecided
        nodes is the sum of their minimum node costs plus, for every edge
        with at least one undecided endpoint, the minimum compatible entry of
        its cost matrix.
        """
        node_order = sorted(
            (nid for nid in core.node_ids if nid not in closed), key=core.degree, reverse=True
        )
        edges = core.edges()

        best_cost = math.inf
        best_assignment: Dict[int, int] = {}
        current: Dict[int, int] = {}

        # Precompute per-node minimum costs for bounding.
        node_min = {nid: float(np.min(core.node(nid).costs)) for nid in core.node_ids}

        def lower_bound(partial_cost: float) -> float:
            bound = partial_cost
            for nid in core.node_ids:
                if nid not in current:
                    bound += node_min[nid]
            for edge in edges:
                u_decided = edge.u in current
                v_decided = edge.v in current
                if u_decided and v_decided:
                    continue
                if u_decided:
                    bound += float(np.min(edge.matrix[current[edge.u], :]))
                elif v_decided:
                    bound += float(np.min(edge.matrix[:, current[edge.v]]))
                else:
                    bound += float(np.min(edge.matrix))
            return bound

        def partial_cost() -> float:
            total = 0.0
            for nid, idx in current.items():
                total += float(core.node(nid).costs[idx])
            for edge in edges:
                if edge.u in current and edge.v in current:
                    total += float(edge.matrix[current[edge.u], current[edge.v]])
            return total

        def closed_form(node_id: int) -> int:
            costs = core.node(node_id).costs.copy()
            for neighbour in core.neighbors(node_id):
                costs += core.edge_matrix(node_id, neighbour)[:, current[neighbour]]
            return int(np.argmin(costs))

        def search(depth: int) -> None:
            nonlocal best_cost, best_assignment
            if depth == len(node_order):
                for node_id in closed:
                    current[node_id] = closed_form(node_id)
                cost = partial_cost()
                stats.core_assignments_explored += 1
                if cost < best_cost:
                    best_cost = cost
                    best_assignment = dict(current)
                for node_id in closed:
                    del current[node_id]
                return
            node_id = node_order[depth]
            node = core.node(node_id)
            # Order the alternatives by their node cost so good solutions are
            # found early and pruning kicks in sooner.
            order = np.argsort(node.costs)
            for index in order:
                current[node_id] = int(index)
                stats.core_assignments_explored += 1
                if lower_bound(partial_cost()) < best_cost:
                    search(depth + 1)
                del current[node_id]

        search(0)
        if not best_assignment:
            # Every branch was pruned against an infinite bound: the instance
            # has no finite-cost solution; return an arbitrary assignment.
            best_assignment = {nid: 0 for nid in core.node_ids}
        return best_assignment

    # -- back-propagation --------------------------------------------------------------

    @staticmethod
    def _back_propagate(
        core_assignment: Dict[int, int], stack: List[ReductionRecord]
    ) -> Dict[int, int]:
        """Decide every reduced node in reverse reduction order."""
        assignment = dict(core_assignment)
        for record in reversed(stack):
            assignment[record.node_id] = record.back_propagate(assignment)
        return assignment
