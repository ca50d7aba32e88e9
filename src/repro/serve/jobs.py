"""The async job layer: campaign grids on a worker pool, memoized by the cache.

A job is a :class:`repro.lab.campaign.Campaign` submitted over HTTP.  The
manager expands it into the same deterministic, content-addressed cells an
in-process ``Workbench.campaign`` run would produce — **the whole point**: a
job cell and a local campaign cell with the same descriptor share a cache
key, per-cell derived seed, and cell id, so their results are interchangeable
and mutually memoizing.

Jobs and ``/v1/simulate`` cells go through the campaign's own
:class:`~repro.lab.campaign.CellPipeline` with no sink, so a serve job is a
campaign with an in-memory store: cache hits land without touching the pool
and successful seeded rows are published, exactly as in ``run_campaign``.
Only executing the misses is serve's own (one asyncio task per job):

* **pool**: all misses are submitted to the ``ProcessPoolExecutor`` at once
  and land as they complete;
* **shared-dir**: the misses are enqueued on a
  :class:`~repro.lab.backends.SharedDirQueue` and land as external workers'
  ``done/`` markers appear;
* **cancellation** sets an event the task races against: pending pool
  futures are cancelled, in-flight cells are abandoned (their results
  discarded), and the job settles as ``"cancelled"`` with its partial
  results intact.

**Backpressure** is cell-granular: the manager tracks the number of cells not
yet finished across all live jobs, and a submission that would push the total
past ``queue_limit`` is rejected with :class:`QueueFullError` — the HTTP
layer renders that as ``429 Too Many Requests`` with a ``Retry-After`` hint.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.lab.backends import SharedDirQueue
from repro.lab.cache import ResultCache
from repro.lab.campaign import Campaign, Cell, CellPipeline
from repro.lab.executor import run_cell
from repro.lab.store import CellResult
from repro.serve.metrics import ServerMetrics

#: Terminal job states.
DONE_STATES = ("done", "cancelled", "failed")


class QueueFullError(Exception):
    """The job queue is at capacity; retry later (HTTP 429)."""

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def single_cell(spec_name: str, strategy: str, x: Sequence[int], config: RunConfig) -> Cell:
    """The one campaign cell a simulate request denotes.

    Built through a one-cell :class:`~repro.lab.campaign.Campaign` expansion
    rather than by hand, so the cell id, cache key, and ``"auto"`` engine
    resolution are *definitionally* identical to what a campaign over the
    same descriptor produces — the serve memo and the lab memo are one memo.
    """
    campaign = Campaign(
        name="serve",
        specs=[(spec_name, strategy)],
        inputs=[tuple(int(v) for v in x)],
        engines=(config.engine,),
        configs=(config,),
        seed=None,  # the request config's own seed is the cell seed
    )
    return campaign.expand()[0]


class Job:
    """One submitted campaign: its cells and the pipeline its rows land in."""

    def __init__(
        self,
        job_id: str,
        name: str,
        cells: List[Cell],
        pipeline: CellPipeline,
        queue_dir: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.name = name
        self.cells = cells
        self.pipeline = pipeline
        self.queue_dir = queue_dir
        self.worker_stats: Dict[str, Dict[str, Any]] = {}
        self.state = "queued"
        self.error: Optional[str] = None
        self.created = time.time()
        self.finished: Optional[float] = None
        self.cancel_event = asyncio.Event()

    # -- progress ---------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def remaining(self) -> int:
        return self.total - self.pipeline.done

    @property
    def active(self) -> bool:
        return self.state not in DONE_STATES

    def results_iter(self) -> Iterator[CellResult]:
        """Stream rows so far in deterministic cell order (never a list).

        The NDJSON results endpoint serializes straight off this iterator, so
        a million-cell job's results are never buffered as one response body.
        """
        return self.pipeline.results(self.cells)

    def to_dict(self, include_results: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "error": self.error,
            "progress": {
                "total": self.total,
                "done": self.pipeline.done,
                "from_cache": self.pipeline.from_cache,
                "executed": self.pipeline.executed,
                "errors": self.pipeline.errors,
            },
        }
        if self.queue_dir is not None:
            payload["backend"] = {
                "name": "shared-dir",
                "queue_dir": self.queue_dir,
                "workers": self.worker_stats,
            }
        if include_results:
            payload["results"] = [row.to_dict() for row in self.results_iter()]
        return payload


class JobManager:
    """Owns the job table, the worker pool handle, and the queue bound."""

    def __init__(
        self,
        pool,  # ProcessPoolExecutor, or None for the loop's thread executor
        cache: Optional[ResultCache],
        metrics: ServerMetrics,
        queue_limit: int = 10_000,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.pool = pool
        self.cache = cache
        self.metrics = metrics
        self.queue_limit = queue_limit
        #: Poll interval for shared-dir jobs (workers signal via the filesystem).
        self.shared_dir_poll = 0.2
        self.jobs: Dict[str, Job] = {}
        self._tasks: Dict[str, asyncio.Task] = {}

    # -- queue accounting ---------------------------------------------------------

    @property
    def pending_cells(self) -> int:
        return sum(job.remaining for job in self.jobs.values() if job.active)

    # -- the cell pipeline, shared by the simulate endpoint and jobs ---------------

    def _on_land(self, cell: Cell, row: CellResult, source: str) -> None:
        if source == "cache":
            self.metrics.record_engine_request(cell.engine)
            self.metrics.record_cache(True)
        else:
            self.metrics.record_engine_executed(cell.engine)

    def _on_job_land(self, cell: Cell, row: CellResult, source: str) -> None:
        self._on_land(cell, row, source)
        self.metrics.record_job_event(
            "cells_from_cache" if source == "cache" else "cells_executed"
        )

    def _triage(self, pipeline: CellPipeline, cells: List[Cell]) -> List[Cell]:
        """The cells the memo could not answer; every cell counts as requested."""
        misses = pipeline.triage(cells)
        for cell in misses:
            self.metrics.record_engine_request(cell.engine)
        if pipeline.cache_misses:
            self.metrics.record_cache(False, pipeline.cache_misses)
        return misses

    async def execute_cell(self, cell: Cell) -> Tuple[CellResult, bool]:
        """Run one cell through the memo: ``(row, was_cache_hit)``."""
        pipeline = CellPipeline(cache=self.cache, on_land=self._on_land)
        if self._triage(pipeline, [cell]):
            loop = asyncio.get_running_loop()
            pipeline.land(cell, await loop.run_in_executor(self.pool, run_cell, cell))
        return pipeline.rows[cell.cell_id], pipeline.from_cache == 1

    # -- job lifecycle --------------------------------------------------------------

    def submit(
        self,
        campaign: Campaign,
        cells: Optional[List[Cell]] = None,
        queue_dir: Optional[str] = None,
    ) -> Job:
        """Admit a campaign as a job, or raise :class:`QueueFullError`.

        With ``queue_dir`` the job's cache misses are *enqueued* on a
        :class:`~repro.lab.backends.SharedDirQueue` instead of fanned out to
        the server's own pool: external ``python -m repro worker`` processes
        claim and execute them, and the job task folds rows in as shards
        complete.  Same cells, same cache keys — just a different executor.
        """
        if cells is None:
            cells = campaign.expand()
        backlog = self.pending_cells
        if backlog + len(cells) > self.queue_limit:
            self.metrics.record_job_event("rejected")
            raise QueueFullError(
                f"job queue is full: {backlog} cells pending, job adds "
                f"{len(cells)}, limit is {self.queue_limit}",
                retry_after=max(1, backlog // 100),
            )
        pipeline = CellPipeline(cache=self.cache, on_land=self._on_job_land)
        job = Job(uuid.uuid4().hex[:12], campaign.name, cells, pipeline, queue_dir=queue_dir)
        self.jobs[job.id] = job
        self.metrics.record_job_event("submitted")
        self._tasks[job.id] = asyncio.get_running_loop().create_task(self._run(job))
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; settled jobs keep their terminal state."""
        job = self.jobs.get(job_id)
        if job is not None and job.active:
            job.cancel_event.set()
        return job

    async def _run(self, job: Job) -> None:
        try:
            job.state = "running"
            if not job.cancel_event.is_set():
                misses = self._triage(job.pipeline, job.cells)
                if job.queue_dir is not None:
                    await self._run_shared_dir(job, misses)
                else:
                    await self._run_pool(job, misses)
            if job.cancel_event.is_set():
                job.state = "cancelled"
                self.metrics.record_job_event("cancelled")
            else:
                job.state = "done"
                self.metrics.record_job_event("completed")
        except Exception as exc:  # noqa: BLE001 — a job failure is a recorded state
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.metrics.record_job_event("failed")
        finally:
            job.finished = time.time()

    async def _run_pool(self, job: Job, misses: List[Cell]) -> None:
        """Fan a job's cache misses out to the pool; land rows as they complete."""
        loop = asyncio.get_running_loop()
        by_future = {loop.run_in_executor(self.pool, run_cell, cell): cell for cell in misses}
        pending = set(by_future)
        waiter = asyncio.ensure_future(job.cancel_event.wait())
        try:
            while pending:
                done, still_pending = await asyncio.wait(
                    pending | {waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                pending = still_pending - {waiter}
                for future in done - {waiter}:
                    if not future.cancelled():
                        job.pipeline.land(by_future[future], future.result())  # never raises
                if job.cancel_event.is_set():
                    for future in pending:
                        future.cancel()
                    if pending:
                        await asyncio.gather(*pending, return_exceptions=True)
                    pending = set()
        finally:
            waiter.cancel()

    async def _run_shared_dir(self, job: Job, misses: List[Cell]) -> None:
        """Drive a job's cache misses through a shared-dir work queue.

        The server never executes these cells itself: it enqueues them and
        polls the queue's ``done/`` markers, landing merged rows as external
        workers complete shards.  All filesystem traffic runs on the loop's
        thread executor so the event loop stays responsive.  Rows land in the
        job's pipeline incrementally, so ``GET .../results`` observes partial
        progress exactly as it does for pool jobs.
        """
        loop = asyncio.get_running_loop()
        queue = SharedDirQueue(job.queue_dir)
        waiting = {cell.cell_id: cell for cell in misses}
        await loop.run_in_executor(None, queue.enqueue, misses)
        while waiting and not job.cancel_event.is_set():
            done = await loop.run_in_executor(None, queue.done_ids)
            fresh = done & set(waiting)
            if fresh:
                rows = await loop.run_in_executor(None, queue.merged_rows, fresh)
                for cell_id in sorted(fresh):
                    if cell_id in rows:  # else the marker beat the row flush; next poll
                        job.pipeline.land(waiting.pop(cell_id), rows[cell_id])
                job.worker_stats = await loop.run_in_executor(None, queue.worker_stats)
                continue  # something landed; re-poll immediately
            try:
                await asyncio.wait_for(
                    job.cancel_event.wait(), timeout=self.shared_dir_poll
                )
            except asyncio.TimeoutError:
                pass
        job.worker_stats = await loop.run_in_executor(None, queue.worker_stats)

    async def shutdown(self) -> None:
        """Cancel every live job and wait for their tasks to settle."""
        for job in self.jobs.values():
            if job.active:
                job.cancel_event.set()
        tasks = [task for task in self._tasks.values() if not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
