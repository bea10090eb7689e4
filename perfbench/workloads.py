"""The four workloads, each driven through the public ``repro`` API.

A workload is set up (timed, repeatable), prepared (untimed: references for
the output checks), measured for a number of seconds, and closed.  Ops are
timed from outside; checks run after the clock stops, with tracing paused.
Keys come from ``design.json`` and are cycled in an order shuffled by the
seed, so every key recurs many times in a run.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import build_model
from repro.analysis.plan_verifier import verify_plan
from repro.api import Session
from repro.cost.serialize import plan_to_dict
from repro.service.app import PlannerApp, make_server

from checks import Checker, key_label

#: Where the service workload keeps its cache directories (inside the
#: checkout, removed on close).
SCRATCH_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_tmp"

Samples = Dict[str, List[float]]
Op = Tuple[str, Callable[[], object], Callable[[object], None]]


#: Median time of one :class:`HostProbe` loop on the reference host (a
#: two-vCPU Intel Xeon VM, CPython 3.11).  Reported times are scaled to it.
PROBE_REFERENCE_MS = 1.6

#: Seconds between probes while ops run, and how many recent probes scale
#: an op.
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW = 5


class HostProbe:
    """A fixed pure-Python loop, timed between ops to track the host's speed.

    On a shared host the whole machine runs 20-60% slower for stretches of
    seconds to minutes, which moves every op of a run alike.  The probe runs
    on the op's own thread while no op is in flight (between ops, or between
    load segments on the service), so the ratio of op time to probe time
    cancels that common slowdown.  A change that adds background work to the
    process would slow the probe too, so the raw times stay in the report.
    """

    def __init__(self) -> None:
        self.times: List[float] = []

    def run(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i * i
            self.times.append(time.perf_counter() - start)

    def speed(self, last: int = 0) -> float:
        """Factor taking a time to the reference host's speed.

        Uses the median of the ``last`` probes (all probes when 0), so an op
        is scaled by the host's speed around the time it ran.
        """
        return PROBE_REFERENCE_MS / (1e3 * statistics.median(self.times[-last:]))


class Measurement:
    """Op times per op key, the time the load ran, and the host's speed."""

    def __init__(
        self, samples: Samples, scaled: Samples, wall_s: float, load_s: float, speed: float
    ) -> None:
        #: Op times as measured, per op key.
        self.samples = samples
        #: The same times, each scaled by the host's speed when it ran.
        self.scaled = scaled
        self.wall_s = wall_s
        #: The time the load ran, scaled like the ops: summed op time for one
        #: in-process client, wall time for the concurrent service clients.
        self.load_s = load_s
        #: :meth:`HostProbe.speed` over the whole measured phase.
        self.speed = speed

    @property
    def ops(self) -> int:
        return sum(len(times) for times in self.samples.values())


class Workload:
    name = ""

    def __init__(self, design: dict, seed: int, checker: Checker) -> None:
        self.spec = design["workloads"][self.name]
        self.seed = seed
        self.checker = checker
        self.keys = [tuple(key) for key in self.spec["keys"]]
        self.networks = {key[0]: build_model(key[0]) for key in self.keys}
        self._cycle_rng = random.Random(seed)

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        """Build everything a user would build before the first op (timed)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work for the checks (references), after the last setup."""

    def close(self) -> None:
        """Release what setup acquired (idempotent)."""

    def label_request(self, method: str, path: str, body) -> str:
        """The op key a service request is attributed to (service only)."""
        return f"{method} {path}"

    def counters(self) -> Dict[str, float]:
        """Counts read at layer boundaries outside any span."""
        info = self.session.cache_info()
        return {
            "api.session.context_hits": info.hits,
            "api.session.context_misses": info.misses,
        }

    # -- measuring -------------------------------------------------------------

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def measure(self, seconds: float, recorder=None) -> Measurement:
        """Run ops back to back for ``seconds``; one client, this thread."""
        samples: Samples = defaultdict(list)
        scaled: Samples = defaultdict(list)
        ops = self.ops()
        probe = HostProbe()
        probe.run(5)
        start = probed = time.perf_counter()
        deadline = start + seconds
        load = 0.0
        while time.perf_counter() < deadline:
            if time.perf_counter() - probed >= PROBE_INTERVAL_S:
                probe.run()
                probed = time.perf_counter()
            label, run, check = next(ops)
            self.checker.begin()
            scope = recorder.op(label) if recorder else contextlib.nullcontext()
            try:
                with scope:
                    begin = time.perf_counter()
                    value = run()
                    elapsed = time.perf_counter() - begin
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                self.checker.fail(f"{label}: {type(exc).__name__}: {exc}")
            else:
                samples[label].append(elapsed)
                scaled[label].append(elapsed * probe.speed(last=PROBE_WINDOW))
                load += scaled[label][-1]
                with recorder.paused() if recorder else contextlib.nullcontext():
                    check(value)
            self.checker.end()
        return Measurement(
            dict(samples), dict(scaled), time.perf_counter() - start, load, probe.speed()
        )

    def _shuffled_cycles(self, items: list) -> Iterator:
        while True:
            order = list(items)
            self._cycle_rng.shuffle(order)
            yield from order

    def _check_select(self, label: str, model: str, plan) -> None:
        document = plan_to_dict(plan)
        report = verify_plan(
            plan,
            network=self.networks[model],
            library=self.session.library,
            dt_graph=self.session.dt_graph,
        )
        self.checker.plan_document(label, document, report)
        self.checker.pbqp_cost(label, plan)


class ColdPlan(Workload):
    name = "cold-plan"

    def setup(self) -> None:
        self.session = Session()
        # One pass loads every lazily imported module on the path.
        for key in self.keys:
            self._plan(key)
        self.session.clear_cache()
        self._context_counts = {"hits": 0, "misses": 0}

    def _plan(self, key):
        model, platform, dtype, batch = key
        self.session.clear_cache()
        plan = self.session.plan(model, platform, dtype=dtype, batch=batch)
        document = plan_to_dict(plan.network_plan)
        return plan, document, json.dumps(document, sort_keys=True)

    def counters(self) -> Dict[str, float]:
        # clear_cache() resets the session's statistics before every op, so
        # they are read after each op and summed here.
        return {
            "api.session.context_hits": self._context_counts["hits"],
            "api.session.context_misses": self._context_counts["misses"],
        }

    def ops(self) -> Iterator[Op]:
        for key in self._shuffled_cycles(self.keys):
            label = key_label(key)

            def check(value, label=label):
                info = self.session.cache_info()
                self._context_counts["hits"] += info.hits
                self._context_counts["misses"] += info.misses
                plan, document, _text = value
                self.checker.plan_document(label, document)
                self.checker.pbqp_cost(label, plan.network_plan)

            yield label, (lambda key=key: self._plan(key)), check


class WarmReplan(Workload):
    name = "warm-replan"

    def __init__(self, design, seed, checker) -> None:
        super().__init__(design, seed, checker)
        self.frontier_keys = [tuple(key) for key in self.spec["frontier_keys"]]

    def setup(self) -> None:
        self.session = Session()
        for model, platform, dtype, batch in self.keys:
            self.session.context_for(model, platform, dtype=dtype, batch=batch)
            self.session.select(model, platform, dtype=dtype, batch=batch)
        for key in self.frontier_keys:
            self._frontier(key)

    def _select(self, key):
        model, platform, dtype, batch = key
        return self.session.select(model, platform, strategy="pbqp", dtype=dtype, batch=batch)

    def _frontier(self, key):
        model, platform, dtype, batch = key
        return self.session.plan_frontier(model, platform, batch=batch, dtypes=(dtype,))

    def _check_frontier(self, label: str, frontier) -> None:
        expected = self.checker.expected.get(f"frontier:{label}")
        if expected is None:
            self.checker.fail(f"frontier:{label}: no stored frontier")
            return
        if len(frontier.points) != expected["points"]:
            self.checker.fail(
                f"frontier:{label}: {len(frontier.points)} points, stored {expected['points']}"
            )
        fastest = plan_to_dict(frontier.min_time().plan)
        self.checker.plan_document(label, fastest)

    def ops(self) -> Iterator[Op]:
        frontiers = itertools.cycle(self.frontier_keys)
        while True:
            cycle = [("select", key) for key in self.keys]
            cycle.append(("frontier", next(frontiers)))
            self._cycle_rng.shuffle(cycle)
            for kind, key in cycle:
                label = key_label(key)
                if kind == "select":

                    def check(result, label=label, model=key[0]):
                        self._check_select(label, model, result.plan)

                    yield label, (lambda key=key: self._select(key)), check
                else:

                    def check(frontier, label=label):
                        self._check_frontier(label, frontier)

                    yield f"frontier:{label}", (lambda key=key: self._frontier(key)), check


class Execute(Workload):
    name = "execute"
    inputs_per_key = 2

    def setup(self) -> None:
        self.session = Session()
        self.plans = {
            key_label(key): self.session.plan(key[0], key[1], dtype=key[2], batch=key[3])
            for key in self.keys
        }

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs: Dict[str, List[np.ndarray]] = {}
        self.references: Dict[str, List[np.ndarray]] = {}
        strategy = self.spec["reference_strategy"]
        for key in self.keys:
            label = key_label(key)
            plan = self.plans[label]
            self.checker.begin()
            self.checker.plan_document(label, plan_to_dict(plan.network_plan))
            self.checker.end()
            reference_plan = self.session.plan(
                key[0], key[1], strategy=strategy, dtype=key[2], batch=key[3]
            )
            shape = plan.input_shape()
            self.inputs[label] = [
                rng.standard_normal(shape).astype(np.float32)
                for _ in range(self.inputs_per_key)
            ]
            self.references[label] = [
                reference_plan.execute(input=x).primary_output for x in self.inputs[label]
            ]

    def ops(self) -> Iterator[Op]:
        turns = itertools.count()
        for key in self._shuffled_cycles(self.keys):
            label = key_label(key)
            index = next(turns) % self.inputs_per_key
            x = self.inputs[label][index]

            def check(report, label=label, index=index):
                self.checker.output(label, report.primary_output, self.references[label][index])
                if report.conversions_executed != report.conversions_planned:
                    self.checker.fail(
                        f"{label}: {report.conversions_executed} conversions executed, "
                        f"{report.conversions_planned} planned"
                    )

            yield label, (lambda label=label, x=x: self.plans[label].execute(input=x)), check


class ServiceMixed(Workload):
    name = "service-mixed"
    segment_s = 1.0

    def __init__(self, design, seed, checker) -> None:
        super().__init__(design, seed, checker)
        # The daemon, its handler threads and both clients share one CPU, the
        # one the probe times: under the interpreter lock they run one at a
        # time anyway, and a stall on a second CPU the probe never sees made
        # whole runs lose a third of their throughput.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.grid = {key_label(key): key for key in self.keys}
        self.miss_model, self.miss_platform, self.miss_dtype, _ = self.spec["miss_key"]
        self.misses_per_s = int(self.spec["misses_per_s"])
        self.clients = int(self.spec["clients"])
        # Misses ask for batch sizes no request used before; the seed picks
        # where the run starts counting.
        self._miss_batches = itertools.count(2 + seed % 7)
        self._miss_lock = threading.Lock()
        self.app: Optional[PlannerApp] = None
        self.server = None
        self._serving: Optional[threading.Thread] = None
        self._cache_dir: Optional[str] = None

    # -- server lifecycle -------------------------------------------------------

    def setup(self) -> None:
        self.close()
        SCRATCH_ROOT.mkdir(exist_ok=True)
        self._cache_dir = tempfile.mkdtemp(prefix="service-", dir=SCRATCH_ROOT)
        self.app = PlannerApp(cache_dir=self._cache_dir)
        self.session = self.app.session
        self.server = make_server(self.app)
        self.port = self.server.server_address[1]
        self._serving = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._serving.start()
        for key in self.keys:
            status, _ = self._post(self._body(key))
            if status != 200:
                raise RuntimeError(f"warming {key_label(key)} answered HTTP {status}")

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._serving.join()
            self.app.close()
            self.server = self.app = self._serving = None
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()

    # -- HTTP ------------------------------------------------------------------

    @staticmethod
    def _body(key) -> dict:
        model, platform, dtype, batch = key
        return {"model": model, "platform": platform, "dtype": dtype, "batch": batch}

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        """One round trip on a fresh connection; returns (status, raw bytes)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _post(self, body: dict):
        return self._request("POST", "/v1/plan", body)

    def _metrics(self) -> dict:
        status, raw = self._request("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered HTTP {status}")
        return json.loads(raw)

    # -- checks ----------------------------------------------------------------

    def prepare(self) -> None:
        """Check each grid answer once against a direct Session.plan; keep its bytes."""
        direct = Session()
        self.hit_bytes: Dict[str, bytes] = {}
        for label, key in self.grid.items():
            model, platform, dtype, batch = key
            expected = plan_to_dict(direct.plan(model, platform, dtype=dtype, batch=batch).network_plan)
            status, raw = self._post(self._body(key))
            self.checker.begin()
            document = json.loads(raw) if status == 200 else {}
            if status != 200 or document.get("from_cache") is not True:
                self.checker.fail(f"{label}: warm answer HTTP {status}, not from cache")
            elif json.dumps(document["plan"], sort_keys=True) != json.dumps(expected, sort_keys=True):
                self.checker.fail(f"{label}: service plan differs from Session.plan")
            else:
                self.checker.plan_document(label, document["plan"])
            self.checker.end()
            self.hit_bytes[label] = raw

    def label_request(self, method: str, path: str, body) -> str:
        if method != "POST" or not isinstance(body, dict):
            return f"{method} {path}"
        key = (body.get("model"), body.get("platform"), body.get("dtype"), body.get("batch"))
        label = key_label(key)
        return label if label in self.grid else "miss"

    def counters(self) -> Dict[str, float]:
        metrics = self._metrics()
        counters = metrics.get("counters", {})
        store = metrics.get("store", {})
        session = metrics.get("session", {})
        return {
            "api.session.context_hits": session.get("context_hits", 0),
            "api.session.context_misses": session.get("context_misses", 0),
            "cost.store.hits": store.get("hits", 0),
            "cost.store.misses": store.get("misses", 0),
            "service.app.doc_hits": counters.get("plan_cache_hits", 0),
            "service.app.doc_misses": counters.get("plan_cache_misses", 0),
            "service.app.plan_disk_hits": counters.get("plan_disk_hits", 0),
        }

    # -- load ------------------------------------------------------------------

    def _take_miss(self, schedule: List[float]) -> Optional[int]:
        """The batch of the next miss if one is due now, else None."""
        with self._miss_lock:
            if not schedule or schedule[0] > time.perf_counter():
                return None
            schedule.pop(0)
            return next(self._miss_batches)

    def _client(
        self, state: dict, until: float, schedule: List[float], samples: Samples, lock
    ) -> None:
        """One closed-loop client until ``until``; ``state`` carries over segments."""
        labels = sorted(self.grid)
        local: Samples = defaultdict(list)
        outcomes = []
        while time.perf_counter() < until:
            batch = self._take_miss(schedule)
            if batch is not None:
                label = "miss"
                key = (self.miss_model, self.miss_platform, self.miss_dtype, batch)
            else:
                if not state["order"]:
                    state["order"] = list(labels)
                    state["rng"].shuffle(state["order"])
                label = state["order"].pop()
                key = self.grid[label]
            begin = time.perf_counter()
            try:
                status, raw = self._post(self._body(key))
            except OSError as exc:
                outcomes.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            local[label].append(time.perf_counter() - begin)
            if label != "miss":
                ok = status == 200 and raw == self.hit_bytes[label]
                outcomes.append(None if ok else f"{label}: hit answer differs (HTTP {status})")
            else:
                outcomes.append(self._miss_problem(status, raw, key))
        with lock:
            for label, times in local.items():
                samples[label].extend(times)
            self._outcomes.extend(outcomes)

    @staticmethod
    def _miss_problem(status: int, raw: bytes, key) -> Optional[str]:
        if status != 200:
            return f"miss: HTTP {status}"
        document = json.loads(raw)
        if document.get("from_cache") is not False or document.get("batch") != key[3]:
            return "miss: answer was cached or for another batch"
        if not document.get("total_ms", 0) > 0:
            return "miss: non-positive total_ms"
        return None

    def measure(self, seconds: float, recorder=None) -> Measurement:
        samples: Samples = defaultdict(list)
        scaled: Samples = defaultdict(list)
        self._outcomes: List[Optional[str]] = []
        lock = threading.Lock()
        before = self._metrics()["pbqp_solves_total"]
        states = [
            {"rng": random.Random(f"{self.seed}/{index}"), "order": []}
            for index in range(self.clients)
        ]
        # The load runs in one-second segments; between them, with no request
        # in flight, the probe times the host.  Misses are due on a fixed
        # schedule, so a run makes the same number of them (and grows the
        # daemon's caches by the same amount) however fast the host is.
        probe = HostProbe()
        wall = load = 0.0
        while wall < seconds:
            probe.run(10)
            start = time.perf_counter()
            length = min(self.segment_s, seconds - wall)
            until = start + length
            gap = 1.0 / self.misses_per_s
            schedule = [start + gap * (i + 0.5) for i in range(int(length / gap))]
            segment: Samples = defaultdict(list)
            clients = [
                threading.Thread(
                    target=self._client, args=(state, until, schedule, segment, lock)
                )
                for state in states
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            elapsed = time.perf_counter() - start
            speed = probe.speed(last=10)
            wall += elapsed
            load += elapsed * speed
            for label, times in segment.items():
                samples[label].extend(times)
                scaled[label].extend(t * speed for t in times)
        for problem in self._outcomes:
            self.checker.begin()
            if problem is not None:
                self.checker.fail(problem)
            self.checker.end()
        solves = self._metrics()["pbqp_solves_total"] - before
        misses = len(samples.get("miss", []))
        if solves > misses:
            self.checker.begin()
            self.checker.fail(f"{solves} solves for {misses} misses")
            self.checker.end()
        return Measurement(dict(samples), dict(scaled), wall, load, probe.speed())


WORKLOADS = {cls.name: cls for cls in (ColdPlan, WarmReplan, ServiceMixed, Execute)}
