"""Background warming workers: a job queue drained by a pluggable executor.

The shape follows cf-scripts' ``executors.py``: one :func:`executor` context
manager yields a :class:`concurrent.futures`-compatible pool for a *kind*
string — ``"serial"`` (in-line, deterministic, no threads), ``"thread"`` (the
default; warming shares the daemon's session and plan cache) or ``"process"``
(true parallelism for picklable work, e.g. planning into the shared disk
tiers from independent worker processes via :func:`warm_plan_job`).

:class:`WarmingQueue` is the service's background profiling/warming pump:
``repro serve --warm zoo`` enqueues the whole zoo x platform x batch grid and
returns immediately — a dispatcher thread drains the queue through the pool
while foreground requests keep being served.  Every completed job lands in
the shared plan cache and the cost store, so the grid converges to a state
where any ``POST /v1/plan`` is a dictionary read.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, List, Optional, Sequence

from repro.api import SelectionRequest, Session

#: Executor kinds accepted by :func:`executor` and :class:`WarmingQueue`.
EXECUTOR_KINDS = ("serial", "thread", "process")


class SerialExecutor:
    """A degenerate executor running each submission in the calling thread.

    Useful for deterministic tests and debugging: same interface, no
    concurrency, exceptions captured on the returned future exactly like the
    real pools.
    """

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirror pool behaviour
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002
        """Nothing to tear down."""


@contextmanager
def executor(kind: str = "thread", max_workers: Optional[int] = None):
    """Yield a pool for ``kind``: ``"serial"``, ``"thread"`` or ``"process"``."""
    if kind == "serial":
        yield SerialExecutor()
    elif kind == "thread":
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            yield pool
    elif kind == "process":
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            yield pool
    else:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of {', '.join(EXECUTOR_KINDS)}"
        )


# ---------------------------------------------------------------------------
# Warm jobs
# ---------------------------------------------------------------------------


def grid_jobs(
    models: Optional[Sequence[str]] = None,
    platforms: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = ("pbqp",),
    threads: Sequence[int] = (1,),
    batches: Sequence[int] = (1,),
    dtypes: Sequence[str] = ("fp32",),
) -> List[SelectionRequest]:
    """The zoo x platform x strategy x threads x batch x dtype warming grid.

    ``models`` defaults to the whole model zoo and ``platforms`` to every
    currently registered platform — the full grid the ROADMAP's serving item
    calls for.
    """
    from repro.cost.platform import list_platforms
    from repro.models import MODEL_BUILDERS

    chosen_models = list(models) if models is not None else sorted(MODEL_BUILDERS)
    chosen_platforms = (
        list(platforms) if platforms is not None else list_platforms()
    )
    return [
        SelectionRequest(model, platform, strategy, thread_count, batch, dtype)
        for model in chosen_models
        for platform in chosen_platforms
        for strategy in strategies
        for thread_count in threads
        for batch in batches
        for dtype in dtypes
    ]


def warm_plan_job(cache_dir: str, request: SelectionRequest) -> str:
    """Plan one request in a *worker process*, persisting the response document.

    Module-level (hence picklable) so a ``"process"`` warming executor can
    solve in true parallel: the worker builds its own session over the shared
    ``cache_dir``, plans (populating the cost store as a side effect), and
    writes the finished plan document into the disk document tier — which the
    daemon consults on a :class:`~repro.api.DocumentCache` miss, so a
    process-warmed combination is served with zero solves in the daemon
    process.  Returns the document path for logging.
    """
    from repro.service.app import build_plan_document, write_plan_document

    document = build_plan_document(Session(cache_dir=cache_dir), request)
    return write_plan_document(cache_dir, document, request)


# ---------------------------------------------------------------------------
# The warming queue
# ---------------------------------------------------------------------------


class WarmingQueue:
    """A background queue of plan requests drained through an executor.

    Parameters
    ----------
    run_job:
        Callback executing one job (the app passes its plan-building entry
        point, so completed jobs land in the shared caches).
    metrics:
        Optional :class:`~repro.service.metrics.Metrics`; completed/failed
        jobs are counted as ``warm_jobs_completed`` / ``warm_jobs_failed``.
    kind / max_workers:
        Executor selection, per :func:`executor`.

    The dispatcher thread starts lazily on the first :meth:`enqueue` and
    exits on :meth:`stop`.  :meth:`join` blocks until every enqueued job has
    finished — tests and ``--warm`` smoke runs use it; the daemon never does.
    """

    def __init__(
        self,
        run_job: Callable[[SelectionRequest], object],
        metrics=None,
        kind: str = "thread",
        max_workers: Optional[int] = None,
    ) -> None:
        if kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {kind!r}; expected one of {', '.join(EXECUTOR_KINDS)}"
            )
        self.run_job = run_job
        self.metrics = metrics
        self.kind = kind
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._jobs: List[SelectionRequest] = []
        self._pending = 0
        self._completed = 0
        self._failed = 0
        self._dispatcher: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stopping = False

    # -- public API --------------------------------------------------------------

    def enqueue(self, jobs: Iterable[SelectionRequest]) -> int:
        """Add jobs and ensure the dispatcher is running; returns the count."""
        added = list(jobs)
        with self._lock:
            if self._stopping:
                raise RuntimeError("warming queue is stopped")
            self._jobs.extend(added)
            self._pending += len(added)
            if self._dispatcher is None and added:
                self._dispatcher = threading.Thread(
                    target=self._drain, name="repro-warmer", daemon=True
                )
                self._dispatcher.start()
        self._wake.set()
        return len(added)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every enqueued job has finished; True if drained."""
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout=timeout)

    def stop(self) -> None:
        """Stop the dispatcher after in-flight jobs finish (idempotent)."""
        with self._lock:
            self._stopping = True
            dispatcher = self._dispatcher
        self._wake.set()
        if dispatcher is not None:
            dispatcher.join()
        with self._lock:
            self._dispatcher = None

    def state(self) -> dict:
        """Queue state for ``/v1/healthz``."""
        with self._lock:
            return {
                "executor": self.kind,
                "pending": self._pending,
                "completed": self._completed,
                "failed": self._failed,
                "running": self._dispatcher is not None and not self._stopping,
            }

    # -- dispatcher --------------------------------------------------------------

    def _drain(self) -> None:
        with executor(self.kind, self.max_workers) as pool:
            while True:
                with self._lock:
                    batch = self._jobs
                    self._jobs = []
                    stopping = self._stopping
                if not batch and stopping:
                    return
                if not batch:
                    self._wake.wait(timeout=0.1)
                    self._wake.clear()
                    continue
                futures = [pool.submit(self.run_job, job) for job in batch]
                for future in futures:
                    error = future.exception()
                    with self._idle:
                        self._pending -= 1
                        if error is None:
                            self._completed += 1
                        else:
                            self._failed += 1
                        self._idle.notify_all()
                    if self.metrics is not None:
                        self.metrics.inc(
                            "warm_jobs_failed" if error else "warm_jobs_completed"
                        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = self.state()
        return (
            f"WarmingQueue(kind={self.kind!r}, pending={state['pending']}, "
            f"completed={state['completed']}, failed={state['failed']})"
        )
