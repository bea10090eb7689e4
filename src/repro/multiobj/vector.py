"""Vector-valued costs: time, peak workspace and an energy proxy.

The paper's PBQP formulation optimizes a single scalar — execution time — but
real deployments select primitives under memory and energy budgets too: the
FFT and im2col families buy speed with huge scratch workspaces, so an
embedded memory cap should flip layers back to the direct and Winograd
families.  :class:`CostVector` is the three-objective value the multi-
objective layer reasons about:

* ``time_ms`` — whole-network (or per-decision) modelled execution time;
  additive across layers and conversions.
* ``peak_workspace_bytes`` — the largest per-layer scratch footprint.  Peak
  memory is a *max*, not a sum: two layers never hold their workspaces at the
  same time, because the executor runs layers sequentially and workspaces are
  released between them.
* ``energy_proxy_j`` — an analytical energy proxy (operations times a
  per-flop energy plus memory traffic times a per-byte energy); additive.
  Deliberately *not* proportional to time: FFT spends few operations on much
  traffic while the direct loops spend many operations on little traffic, so
  the energy ordering of candidates differs from the time ordering.
* ``accuracy_proxy`` — modelled top-1 accuracy *loss* of running layers
  below fp32 (see :data:`repro.cost.analytical.DTYPE_ACCURACY_LOSS`);
  additive across layers, zero for pure-fp32 plans.  Minimized like the
  rest, which makes accuracy-vs-speed a genuine front axis once plans of
  several precisions compete.

This module has no dependency on the rest of :mod:`repro` so the cost layer
can import it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

#: Objective names, in canonical (lexicographic default) order.  All four
#: are minimized.
OBJECTIVES = ("time_ms", "peak_workspace_bytes", "energy_proxy_j", "accuracy_proxy")


@dataclass(frozen=True)
class CostVector:
    """One point in the (time, workspace, energy, accuracy-loss) space."""

    time_ms: float = 0.0
    peak_workspace_bytes: float = 0.0
    energy_proxy_j: float = 0.0
    accuracy_proxy: float = 0.0

    # -- composition ------------------------------------------------------------

    def combine(self, other: "CostVector") -> "CostVector":
        """Sequential composition: times, energies and accuracy losses add,
        workspaces max.

        This is the whole-network accumulation rule — layers execute one
        after another, so their scratch buffers never coexist (while every
        layer's quantization noise compounds into the final output).
        """
        return CostVector(
            time_ms=self.time_ms + other.time_ms,
            peak_workspace_bytes=max(
                self.peak_workspace_bytes, other.peak_workspace_bytes
            ),
            energy_proxy_j=self.energy_proxy_j + other.energy_proxy_j,
            accuracy_proxy=self.accuracy_proxy + other.accuracy_proxy,
        )

    @staticmethod
    def total(vectors: Sequence["CostVector"]) -> "CostVector":
        """Sequential composition of many decision vectors."""
        result = CostVector()
        for vector in vectors:
            result = result.combine(vector)
        return result

    # -- ordering ---------------------------------------------------------------

    def as_tuple(self) -> tuple:
        """The objective values in canonical order (all minimized)."""
        return (
            self.time_ms,
            self.peak_workspace_bytes,
            self.energy_proxy_j,
            self.accuracy_proxy,
        )

    def dominates(self, other: "CostVector", epsilon: float = 0.0) -> bool:
        """Pareto dominance: no worse in every objective, better in one.

        ``epsilon`` absorbs floating-point noise: objectives within
        ``epsilon`` (relative) of each other count as equal.
        """
        mine = self.as_tuple()
        theirs = other.as_tuple()
        better = False
        for a, b in zip(mine, theirs):
            slack = epsilon * max(abs(a), abs(b), 1.0)
            if a > b + slack:
                return False
            if a < b - slack:
                better = True
        return better

    def satisfies(self, constraints: Dict[str, float]) -> bool:
        """Whether this vector meets every ``<objective>_max`` constraint.

        Constraint keys follow the ``{objective}_max`` convention, e.g.
        ``{"peak_workspace_bytes_max": 1 << 20, "time_ms_max": 40.0}``.
        Unknown keys raise, so typos never silently pass; so do non-finite
        bounds (a NaN bound compares false, so it would pass everything).
        Every key is checked before any bound is compared.
        """
        for key, bound in constraints.items():
            if not key.endswith("_max") or key[: -len("_max")] not in OBJECTIVES:
                raise ValueError(
                    f"unknown constraint {key!r}; expected one of "
                    f"{[name + '_max' for name in OBJECTIVES]}"
                )
            if not math.isfinite(bound):
                raise ValueError(f"constraint {key!r} needs a finite bound, got {bound!r}")
        values = self.to_dict()
        return not any(
            values[key[: -len("_max")]] > bound for key, bound in constraints.items()
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, float]:
        return {
            "time_ms": self.time_ms,
            "peak_workspace_bytes": self.peak_workspace_bytes,
            "energy_proxy_j": self.energy_proxy_j,
            "accuracy_proxy": self.accuracy_proxy,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, float]) -> "CostVector":
        return cls(
            time_ms=float(document.get("time_ms", 0.0)),
            peak_workspace_bytes=float(document.get("peak_workspace_bytes", 0.0)),
            energy_proxy_j=float(document.get("energy_proxy_j", 0.0)),
            accuracy_proxy=float(document.get("accuracy_proxy", 0.0)),
        )

    def __repr__(self) -> str:
        return (
            f"CostVector(time={self.time_ms:.3f} ms, "
            f"workspace={self.peak_workspace_bytes / 1024.0:.1f} KiB, "
            f"energy={self.energy_proxy_j * 1e3:.3f} mJ, "
            f"accuracy_loss={self.accuracy_proxy:.5f})"
        )
