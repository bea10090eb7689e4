"""Fan-out-aware conversion pricing: solver objective == executor cost.

The executor deduplicates conversion chains by (producer, target layout) —
a producer fanning out into several consumers demanding the same layout
converts once and reuses the cached tensor — and the fan-out-aware PBQP
encoding prices exactly that objective through per-producer auxiliary
conversion nodes.  These tests pin the whole pipeline to the grouped
formula: PBQP equals the exhaustive network-level reference, the plan's
predicted conversion accounting equals the executed trace, the RV140
double-pricing tripwire reports zero on fresh plans (ResNet-18's ``pool1``
fan-out, the motivating case, pinned on both paper platforms), legacy
double-priced documents are transparently re-attributed on load, and random
small DAGs hold all of this as properties.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.plan_verifier import verify_document, verify_plan
from repro.api import Session
from repro.core.legalize import finalize_plan
from repro.core.selector import PBQPSelector, SelectionContext
from repro.cost.serialize import (
    LEGACY_PLAN_FORMATS,
    PLAN_FORMAT,
    plan_from_dict,
    plan_to_dict,
)
from repro.graph.layer import ConcatLayer, ConvLayer, EltwiseAddLayer, InputLayer
from repro.graph.network import Network
from repro.layouts.dt_graph import DTGraph
from repro.layouts.transforms import default_transform_library
from repro.pbqp.bruteforce import brute_force_network_select
from repro.primitives.registry import PrimitiveLibrary, default_primitive_library
from repro.runtime import NetworkExecutor, WeightStore

#: A small mixed-layout library keeping the brute-force space enumerable:
#: one CHW, one CHWc4, one CHWc8, one HWC and one HCW primitive.
SMALL_LIBRARY_NAMES = [
    "sum2d",
    "direct_mchw_vf4",
    "direct_mchw_vf8",
    "im2row_vf1",
    "winograd_1d_m2_r3_vf1",
]


@pytest.fixture(scope="module")
def small_library():
    full = default_primitive_library()
    return PrimitiveLibrary([full.get(name) for name in SMALL_LIBRARY_NAMES])


@pytest.fixture(scope="module")
def small_dt(small_library):
    return DTGraph(small_library.layouts_used(), default_transform_library())


@pytest.fixture(scope="module")
def session():
    return Session()


def fanout_network(consumers: int, mixed: bool) -> Network:
    """One producer convolution fanning out into 2-4 consumer convolutions.

    ``mixed`` alternates consumer kernels between 3x3 and 1x1, so different
    consumers may end up demanding different input layouts (mixed targets).
    """
    net = Network(f"fanout-{consumers}-{'mixed' if mixed else 'same'}")
    net.add_layer(InputLayer("data", shape=(4, 16, 16)))
    net.add_layer(
        ConvLayer("producer", out_channels=8, kernel=3, padding=1), ["data"]
    )
    names = []
    for index in range(consumers):
        kernel = 1 if mixed and index % 2 else 3
        name = f"consumer{index}"
        net.add_layer(
            ConvLayer(name, out_channels=8, kernel=kernel, padding=kernel // 2),
            ["producer"],
        )
        names.append(name)
    net.add_layer(ConcatLayer("join"), names)
    net.validate()
    return net


def chain_groups(plan):
    """The (producer, target layout) dedup groups of a plan's conversions."""
    groups = {}
    for edge in plan.conversions():
        groups.setdefault((edge.producer, edge.target_layout.name), []).append(edge)
    return groups


# ---------------------------------------------------------------------------
# PBQP == exhaustive reference under the grouped objective


class TestPBQPMatchesBruteforce:
    @pytest.mark.parametrize(
        "consumers,mixed",
        [(2, False), (2, True), (3, False), (3, True), (4, True)],
    )
    def test_solver_equals_grouped_reference(
        self, consumers, mixed, small_library, small_dt, intel
    ):
        context = SelectionContext.create(
            fanout_network(consumers, mixed),
            platform=intel,
            library=small_library,
            dt_graph=small_dt,
        )
        conv, wildcard, reference_cost = brute_force_network_select(context)
        plan = PBQPSelector().select(context)
        assert plan.metadata["pbqp_optimal"] is True
        assert plan.metadata["pbqp_cost"] == pytest.approx(reference_cost, rel=1e-9)
        # The solver's objective IS the plan's (deduplicated) total cost.
        assert plan.total_cost == pytest.approx(plan.metadata["pbqp_cost"], rel=1e-9)
        # Legalizing the reference's choices prices identically.
        reference_plan = finalize_plan(context, "bruteforce", conv, wildcard)
        assert reference_plan.total_cost == pytest.approx(reference_cost, rel=1e-9)
        assert plan.total_cost <= reference_plan.total_cost + 1e-12

    def test_wide_conversion_nodes_in_an_irreducible_core(
        self, small_library, small_dt, intel
    ):
        """Two fan-out producers meeting in joins leave their 92-way conversion
        nodes in the irreducible core; the search must stay exact there."""
        net = Network("two-fanouts")
        net.add_layer(InputLayer("data", shape=(4, 8, 8)))
        for name, producer in (("conv0", "data"), ("conv1", "data")):
            net.add_layer(ConvLayer(name, out_channels=8, kernel=1), [producer])
        net.add_layer(ConcatLayer("concat1"), ["data", "conv0"])
        net.add_layer(ConvLayer("conv2", out_channels=8, kernel=1), ["conv0"])
        net.add_layer(ConcatLayer("concat2"), ["conv0", "conv1"])
        net.add_layer(ConcatLayer("head"), ["concat1", "conv2", "concat2"])
        net.validate()
        context = SelectionContext.create(
            net, platform=intel, library=small_library, dt_graph=small_dt
        )
        selector = PBQPSelector()
        plan = selector.select(context)
        assert selector.solver.last_stats.core_nodes > 0
        assert plan.metadata["pbqp_optimal"] is True
        _, _, reference_cost = brute_force_network_select(context)
        assert plan.metadata["pbqp_cost"] == pytest.approx(reference_cost, rel=1e-9)

    def test_shared_chain_priced_once_in_plan(self, small_library, small_dt, intel):
        """Force a fan-out conversion and check exactly one edge carries it."""
        context = SelectionContext.create(
            fanout_network(2, mixed=False),
            platform=intel,
            library=small_library,
            dt_graph=small_dt,
        )
        layouts = {layout.name: layout for layout in context.dt_graph.layouts}
        # Producer emits CHW; both consumers demand CHWc8: one shared chain.
        plan = finalize_plan(
            context,
            "forced",
            {
                "producer": "sum2d",
                "consumer0": "direct_mchw_vf8",
                "consumer1": "direct_mchw_vf8",
            },
            {
                "data": layouts["CHW"],
                "join": layouts["CHWc8"],
            },
        )
        groups = chain_groups(plan)
        shared = groups[("producer", "CHWc8")]
        assert len(shared) == 2
        carried = [edge for edge in shared if edge.cost > 0]
        zeroed = [edge for edge in shared if edge.cost == 0.0]
        assert len(carried) == 1 and len(zeroed) == 1
        # Both edges keep their chain so the executor finds the cached tensor.
        assert all(edge.chain is not None and len(edge.chain) for edge in shared)
        shape = context.tables.shapes["producer"]
        assert carried[0].cost == pytest.approx(
            context.tables.dt_costs[shape][("CHW", "CHWc8")], rel=1e-12
        )


# ---------------------------------------------------------------------------
# predicted conversion accounting == executed trace


class TestPlanMatchesTrace:
    @pytest.mark.parametrize("consumers,mixed", [(2, False), (3, True), (4, True)])
    def test_trace_executes_one_chain_per_group(
        self, consumers, mixed, small_library, small_dt, intel
    ):
        network = fanout_network(consumers, mixed)
        context = SelectionContext.create(
            network, platform=intel, library=small_library, dt_graph=small_dt
        )
        plan = PBQPSelector().select(context)
        weights = WeightStore(network, seed=5)
        x = np.random.default_rng(3).standard_normal((4, 16, 16)).astype(np.float32)
        executor = NetworkExecutor(network, plan, small_library, weights)
        _, trace = executor.run_traced(x)
        groups = chain_groups(plan)
        assert trace.conversions_executed == len(groups)
        # Exactly one member of every group carries the chain cost.
        for members in groups.values():
            assert sum(1 for edge in members if edge.cost > 0) <= 1
        # The plan's conversion total is the grouped total, nothing more.
        assert plan.dt_cost == pytest.approx(
            sum(max(edge.cost for edge in members) for members in groups.values()),
            rel=1e-12,
        )

    def test_execution_report_accounts_per_group(self, session):
        """API layer: ExecutionReport attributes a deduped chain to one consumer."""
        plan = session.plan(fanout_network(3, mixed=False), "intel-haswell")
        report = plan.execute()
        groups = chain_groups(plan.network_plan)
        assert report.conversions_planned == len(groups)
        assert report.conversions_executed == report.conversions_planned
        duplicates = [entry for entry in report.conversions if entry.deduplicated]
        assert len(duplicates) == len(plan.network_plan.conversions()) - len(groups)
        assert all(entry.predicted_ms == 0.0 for entry in duplicates)
        assert all(entry.measured_ms == 0.0 for entry in duplicates)

    def test_fresh_fanout_plans_verify_without_rv140(
        self, small_library, small_dt, intel
    ):
        for consumers, mixed in [(2, False), (3, True)]:
            context = SelectionContext.create(
                fanout_network(consumers, mixed),
                platform=intel,
                library=small_library,
                dt_graph=small_dt,
            )
            doc = plan_to_dict(PBQPSelector().select(context))
            report = verify_document(doc)
            fanout = [f for f in report.findings if f.rule == "RV140"]
            assert not fanout, [f.message for f in fanout]


# ---------------------------------------------------------------------------
# the motivating regression, pinned on both paper platforms


class TestResNet18Pool1Regression:
    @pytest.mark.parametrize("platform", ["intel-haswell", "arm-cortex-a57"])
    def test_pool1_gap_is_zero(self, session, platform):
        plan = session.plan("resnet18", platform).network_plan
        doc = plan_to_dict(plan)
        report = verify_document(doc, source=f"resnet18/{platform}")
        assert report.ok
        assert not [f for f in report.findings if f.rule == "RV140"], report.to_json()
        # pool1 fans out into the first residual block; its shared chain must
        # be carried by exactly one edge.
        groups = chain_groups(plan)
        pool1_groups = {
            key: members for key, members in groups.items() if key[0] == "pool1"
        }
        assert pool1_groups, "resnet18 pool1 must still require a conversion"
        for members in pool1_groups.values():
            assert len(members) >= 2
            assert sum(1 for edge in members if edge.cost > 0) == 1

    def test_solver_objective_equals_plan_total(self, session):
        for platform in ("intel-haswell", "arm-cortex-a57"):
            plan = session.plan("resnet18", platform).network_plan
            assert plan.metadata["pbqp_optimal"] is True
            assert plan.total_cost == pytest.approx(
                plan.metadata["pbqp_cost"], rel=1e-9
            )


# ---------------------------------------------------------------------------
# legacy double-priced documents


def make_legacy_document(doc: dict) -> dict:
    """Rebuild the pre-fix serialization: every group member fully priced."""
    legacy = copy.deepcopy(doc)
    legacy["format"] = LEGACY_PLAN_FORMATS[0]
    carriers = {}
    energies = {}
    for edge in legacy["edges"]:
        if edge["hops"]:
            key = (edge["producer"], edge["target_layout"])
            carriers[key] = max(carriers.get(key, 0.0), edge["cost"])
            energies[key] = max(energies.get(key, 0.0), edge["energy_j"])
    extra = 0.0
    for edge in legacy["edges"]:
        if edge["hops"] and edge["cost"] == 0.0:
            key = (edge["producer"], edge["target_layout"])
            edge["cost"] = carriers[key]
            edge["energy_j"] = energies[key]
            extra += carriers[key]
    legacy["total_ms"] = doc["total_ms"] + 1e3 * extra
    legacy["cost_vector"] = dict(doc["cost_vector"])
    legacy["cost_vector"]["time_ms"] = legacy["total_ms"]
    return legacy


class TestLegacyUpgrade:
    @pytest.fixture()
    def fresh_doc(self, small_library, small_dt, intel):
        """A plan with a genuinely shared chain: both consumers demand CHWc8."""
        context = SelectionContext.create(
            fanout_network(2, mixed=False),
            platform=intel,
            library=small_library,
            dt_graph=small_dt,
        )
        layouts = {layout.name: layout for layout in context.dt_graph.layouts}
        plan = finalize_plan(
            context,
            "forced",
            {
                "producer": "sum2d",
                "consumer0": "direct_mchw_vf8",
                "consumer1": "direct_mchw_vf8",
            },
            {"data": layouts["CHW"], "join": layouts["CHWc8"]},
        )
        return plan_to_dict(plan)

    def test_plan_from_dict_reattributes_and_recomputes(self, session, fresh_doc):
        legacy = make_legacy_document(fresh_doc)
        assert legacy["total_ms"] > fresh_doc["total_ms"]
        upgraded = plan_to_dict(plan_from_dict(legacy, session.dt_graph))
        assert upgraded["format"] == PLAN_FORMAT
        assert json.dumps(upgraded, sort_keys=True) == json.dumps(fresh_doc, sort_keys=True)

    def test_current_documents_round_trip_unchanged(self, session, fresh_doc):
        reloaded = plan_to_dict(plan_from_dict(fresh_doc, session.dt_graph))
        assert json.dumps(reloaded, sort_keys=True) == json.dumps(fresh_doc, sort_keys=True)

    def test_plan_from_dict_refuses_unknown_formats(self, session):
        with pytest.raises(ValueError, match="repro/plan"):
            plan_from_dict({"format": "repro/plan/v0"}, session.dt_graph)

    @pytest.mark.parametrize("model", ["googlenet", "resnet18", "resnet50", "mobilenet_v2"])
    @pytest.mark.parametrize("platform", ["intel-haswell", "arm-cortex-a57"])
    def test_zoo_v1_documents_reload_to_fresh_bytes(self, session, model, platform):
        fresh = plan_to_dict(session.plan(model, platform, verify=False).network_plan)
        legacy = make_legacy_document(fresh)
        reloaded = plan_to_dict(plan_from_dict(legacy, session.dt_graph))
        assert json.dumps(reloaded, sort_keys=True) == json.dumps(fresh, sort_keys=True)

    def test_v1_reload_follows_execution_order(self, small_library, small_dt, intel):
        """The join consuming ``conv0`` is inserted before ``conv2`` but runs
        after it; the reloaded chain must sit on the edge the executor runs."""
        net = Network("late-join")
        net.add_layer(InputLayer("data", shape=(4, 8, 8)))
        net.add_layer(ConvLayer("conv0", out_channels=8, kernel=3, padding=1), ["data"])
        net.add_layer(ConvLayer("conv1", out_channels=8, kernel=3, padding=1), ["conv0"])
        net.add_layer(ConcatLayer("join"), ["conv0", "conv1"])
        net.add_layer(ConvLayer("conv2", out_channels=8, kernel=3, padding=1), ["conv0"])
        net.validate()
        context = SelectionContext.create(
            net, platform=intel, library=small_library, dt_graph=small_dt
        )
        layouts = {layout.name: layout for layout in small_dt.layouts}
        plan = finalize_plan(
            context,
            "forced",
            {"conv0": "sum2d", "conv1": "sum2d", "conv2": "direct_mchw_vf8"},
            {"data": layouts["CHW"], "join": layouts["CHWc8"]},
        )
        (shared,) = [group for group in plan.shared_chains() if len(group) > 1]
        assert [edge.consumer for edge in shared] == ["conv2", "join"]
        doc = plan_to_dict(plan)
        reloaded = plan_to_dict(plan_from_dict(make_legacy_document(doc), small_dt))
        assert json.dumps(reloaded, sort_keys=True) == json.dumps(doc, sort_keys=True)

    def test_plan_from_dict_transparently_upgrades(self, session, fresh_doc):
        legacy = make_legacy_document(fresh_doc)
        plan = plan_from_dict(legacy, session.dt_graph)
        reference = plan_from_dict(fresh_doc, session.dt_graph)
        assert plan.total_cost == pytest.approx(reference.total_cost, rel=1e-9)

    def test_plan_from_file_upgrades_stale_documents(self, session, fresh_doc, tmp_path):
        legacy = make_legacy_document(fresh_doc)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy, sort_keys=True))
        network = fanout_network(2, mixed=False)
        plan = session.plan_from_file(path, network=network)
        assert plan.network_plan.total_cost == pytest.approx(
            1e-3 * fresh_doc["total_ms"], rel=1e-9
        )

    def test_verifier_names_the_stale_format(self, session, fresh_doc):
        """Without the upgrade path, a stale document is refused clearly."""
        legacy = make_legacy_document(fresh_doc)
        report = verify_document(legacy)
        assert not report.ok
        stale = [f for f in report.findings if f.rule == "RV100"]
        assert stale, report.to_json()
        assert "stale plan format" in stale[0].message
        assert "plan_from_dict" in stale[0].message
        assert "Session.plan_from_file" in stale[0].message

    def test_truncated_v1_file_is_a_value_error(self, session, fresh_doc, tmp_path):
        legacy = make_legacy_document(fresh_doc)
        del legacy["edges"]
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(legacy, sort_keys=True))
        with pytest.raises(ValueError, match="edges"):
            session.plan_from_file(path, network=fanout_network(2, mixed=False))


# ---------------------------------------------------------------------------
# properties over random fan-out DAGs

#: Upper bound on the brute-force search space of one generated network.
PROPERTY_SEARCH_SPACE = 60_000


@st.composite
def fanout_dags(draw):
    """A random small DAG: one input, 2-6 convolutions, fan-out 2-3.

    Convolutions mix 1x1 and 3x3 kernels (padded, so every tensor is 8x8);
    concat joins take two or three open layers, eltwise joins convolution
    outputs (same 8-channel shape).  A join is only drawn while the
    brute-force search space (5 primitives per 3x3 convolution, 4 per 1x1,
    one per DT-graph layout per join) stays under the bound.
    """
    net = Network("random-fanout-dag")
    net.add_layer(InputLayer("data", shape=(4, 8, 8)))
    fanout = {"data": 0}
    convs = []
    space = 1
    layouts = 8

    def add(layer, inputs, alternatives):
        nonlocal space
        net.add_layer(layer, inputs)
        for name in inputs:
            fanout[name] += 1
        fanout[layer.name] = 0
        space *= alternatives

    count = draw(st.integers(2, 6))
    for index in range(count):
        producer = draw(st.sampled_from([n for n, uses in fanout.items() if uses < 3]))
        kernel = draw(st.sampled_from((1, 3)))
        name = f"conv{index}"
        conv = ConvLayer(name, out_channels=8, kernel=kernel, padding=kernel // 2)
        add(conv, [producer], 4 if kernel == 1 else 5)
        convs.append(name)
        join = draw(st.sampled_from((None, "concat", "eltwise")))
        pool = [n for n, uses in fanout.items() if uses < 3]
        if join == "eltwise":
            pool = [n for n in pool if n in convs]
        remaining = 5 ** (count - index - 1)
        if join is None or len(pool) < 2 or space * layouts * remaining > PROPERTY_SEARCH_SPACE:
            continue
        inputs = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True))
        layer_type = ConcatLayer if join == "concat" else EltwiseAddLayer
        add(layer_type(f"{join}{index}"), inputs, layouts)
    assume(max(fanout.values()) >= 2)
    net.validate()
    return net


class TestRandomFanoutProperties:
    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(network=fanout_dags())
    def test_pricing_agrees_everywhere(self, network, small_library, small_dt, intel):
        context = SelectionContext.create(
            network, platform=intel, library=small_library, dt_graph=small_dt
        )
        conv, wildcard, reference_cost = brute_force_network_select(context)
        plan = PBQPSelector().select(context)
        reference_plan = finalize_plan(context, "bruteforce", conv, wildcard)
        assert plan.metadata["pbqp_optimal"] is True
        assert plan.metadata["pbqp_cost"] == pytest.approx(reference_cost, rel=1e-9)
        assert reference_plan.total_cost == pytest.approx(reference_cost, rel=1e-9)
        assert plan.total_cost == pytest.approx(plan.metadata["pbqp_cost"], rel=1e-9)

        report = verify_plan(
            plan, network=network, library=small_library, dt_graph=small_dt
        )
        assert not report.errors, report.to_json()

        doc = plan_to_dict(plan)
        reloaded = plan_to_dict(plan_from_dict(make_legacy_document(doc), small_dt))
        assert json.dumps(reloaded, sort_keys=True) == json.dumps(doc, sort_keys=True)
