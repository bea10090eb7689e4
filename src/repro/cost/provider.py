"""Pluggable cost providers: where a session's cost tables come from.

The paper's workflow is "profile once, select many": the cost tables for one
(network, platform, threads, batch, dtype) context are produced ahead of time
and then drive any number of selection queries.  A :class:`CostProvider`
abstracts the *producing* side of that workflow behind one call — given a
:class:`CostQuery` describing the context (plus the components needed to
build tables), return :class:`~repro.cost.tables.CostTables`.

Three providers ship with the reproduction:

* :class:`AnalyticalCostProvider` — prices primitives on a modelled platform
  (:class:`~repro.cost.analytical.AnalyticalCostModel`); this regenerates the
  paper's figures and is the default of :class:`repro.api.Session`;
* :class:`ProfiledCostProvider` — measures the numpy-backed primitives on the
  host machine (:class:`~repro.cost.profiler.WallClockProfiler`), the paper's
  original layerwise-profiling methodology;
* :class:`~repro.cost.store.CostStore` — a disk-backed decorator around any
  other provider that persists produced tables as JSON keyed by a
  :class:`~repro.cost.store.StoreKey` (the query's context key plus the
  provider's name and version, the components digest and the platform
  version), so warm selections survive process restarts.

:class:`CostModelProvider` adapts an arbitrary
:class:`~repro.cost.model.CostModel` (used by the ablation experiments to
inject scaled cost models).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.cost.analytical import AnalyticalCostModel
from repro.cost.model import CostModel
from repro.cost.platform import Platform
from repro.cost.profiler import WallClockProfiler
from repro.cost.tables import CostTables, build_cost_tables
from repro.graph.network import Network
from repro.layouts.dt_graph import DTGraph
from repro.primitives.registry import PrimitiveLibrary


@dataclass(frozen=True, eq=False)
class CostQuery:
    """One request for cost tables.

    ``(fingerprint, platform_name, threads, batch, dtype)`` identifies the
    tuple the tables describe; the remaining fields carry the live components
    a provider needs to build (or rebuild) them.
    """

    network: Network
    fingerprint: str
    platform: Optional[Platform]
    platform_name: str
    threads: int
    library: PrimitiveLibrary
    dt_graph: DTGraph
    batch: int = 1
    dtype: str = "fp32"

    @property
    def context_key(self) -> Tuple[str, str, int, int, str]:
        """The (fingerprint, platform, threads, batch, dtype) tuple of this query."""
        return (
            self.fingerprint,
            self.platform_name,
            self.threads,
            self.batch,
            self.dtype,
        )

    def with_threads(self, threads: int) -> "CostQuery":
        """The same query at a different thread count."""
        return dataclasses.replace(self, threads=threads)


@runtime_checkable
class CostProvider(Protocol):
    """Anything that can produce cost tables for a query.

    Attributes
    ----------
    name:
        Short identifier used in reports and cache keys.
    version:
        Version tag of the provider's cost data.  A persistent
        :class:`~repro.cost.store.CostStore` includes it in the on-disk key,
        so bumping the version invalidates previously stored tables.
    """

    name: str
    version: str

    def tables(self, query: CostQuery) -> CostTables:
        """Produce the cost tables for one query."""
        ...

    def cost_model(self, platform: Optional[Platform]) -> CostModel:
        """The underlying cost model for a platform (for ad-hoc re-pricing)."""
        ...


class AnalyticalCostProvider:
    """Price primitives on a modelled platform (the figure-generating default)."""

    name = "analytical"
    #: Bump when the analytical model's pricing changes incompatibly.
    version = "1"

    def __init__(self) -> None:
        self._models: Dict[str, AnalyticalCostModel] = {}

    def cost_model(self, platform: Optional[Platform]) -> CostModel:
        if platform is None:
            raise ValueError("the analytical cost provider requires a platform")
        if platform.name not in self._models:
            self._models[platform.name] = AnalyticalCostModel(platform)
        return self._models[platform.name]

    def tables(self, query: CostQuery) -> CostTables:
        return build_cost_tables(
            query.network,
            query.library,
            query.dt_graph,
            self.cost_model(query.platform),
            threads=query.threads,
            batch=query.batch,
            platform=query.platform,
            dtype=query.dtype,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"AnalyticalCostProvider(version={self.version!r})"


class ProfiledCostProvider:
    """Measure the numpy-backed primitives on the host machine.

    This is the paper's original methodology end to end: tables come from
    wall-clock timings of each primitive on tensors of each layer's size.
    The ``platform`` of a query is ignored — measurements describe the host.
    """

    name = "profiled"
    version = "1"

    def __init__(
        self,
        profiler: Optional[WallClockProfiler] = None,
        repetitions: int = 3,
        warmup: int = 1,
        seed: int = 0,
    ) -> None:
        self.profiler = (
            profiler
            if profiler is not None
            else WallClockProfiler(repetitions=repetitions, warmup=warmup, seed=seed)
        )

    def cost_model(self, platform: Optional[Platform]) -> CostModel:
        return self.profiler

    def tables(self, query: CostQuery) -> CostTables:
        # The profiler measures the host, which can run every variant, so no
        # modelled-platform gating is applied (``platform`` stays ``None``).
        return build_cost_tables(
            query.network,
            query.library,
            query.dt_graph,
            self.profiler,
            threads=query.threads,
            batch=query.batch,
            dtype=query.dtype,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ProfiledCostProvider(profiler={self.profiler!r})"


class CostModelProvider:
    """Adapt an arbitrary :class:`~repro.cost.model.CostModel` as a provider.

    Used by the ablation harnesses to drive a session with modified cost
    models (e.g. scaled layout-transformation costs).
    """

    def __init__(
        self, cost_model: CostModel, name: Optional[str] = None, version: str = "0"
    ) -> None:
        self._cost_model = cost_model
        self.name = name if name is not None else type(cost_model).__name__
        self.version = version

    def cost_model(self, platform: Optional[Platform]) -> CostModel:
        return self._cost_model

    def tables(self, query: CostQuery) -> CostTables:
        return build_cost_tables(
            query.network,
            query.library,
            query.dt_graph,
            self._cost_model,
            threads=query.threads,
            batch=query.batch,
            platform=query.platform,
            dtype=query.dtype,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CostModelProvider(name={self.name!r}, version={self.version!r})"
