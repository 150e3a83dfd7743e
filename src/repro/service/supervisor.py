"""The supervisor loop: dispatch, retry, reap, quarantine, drain.

One :class:`Supervisor` owns a :class:`~repro.service.spool.Spool` and
drives its queue to completion:

* **Dispatch** — jobs run FIFO in WAL submit order, in one loop over
  a :mod:`repro.runtime.worker` runner.  ``workers=1``
  (the default on this 1-CPU class of machine) evaluates jobs inline
  in the supervisor process — the path that honours an active chaos
  injector, which is what makes every failure mode below
  deterministically testable.  ``workers>1`` (or ``isolate=True``)
  runs each job in its own forked worker process, which buys real
  crash isolation and hung-worker reaping at fork cost.
* **Ledger protocol** — the supervisor is the sole WAL writer while
  running (``submit``/``cancel`` CLI appends are safe concurrently:
  single-line O_APPEND writes), and the sole writer of results: a
  worker sends its record back over a pipe.  Every transition is
  committed *before* the action it records completes, so replay after
  a kill at any point reconstructs the exact queue; a ``running`` job
  whose result file survived the crash is adopted as ``done`` without
  re-evaluation (results are content-addressed, so adoption is exact).
* **Retry with capped exponential backoff** — a failed job re-enters
  the queue *at the tail* (one poison job can never starve the rest)
  after ``base * 2^(failures-1)`` seconds, capped, plus deterministic
  jitter derived from SHA-256 of (job id, attempt) — reproducible runs,
  no thundering herd.
* **Quarantine circuit breaker** — after ``max_attempts`` consecutive
  failures the job is parked ``quarantined`` and the queue moves on.
* **Reaping** — in process mode a worker that outlives its deadline ×
  grace horizon is terminated and the miss is charged as a failure
  (so a persistently hanging job also quarantines).  Inline jobs are
  bounded by their cooperative :class:`~repro.runtime.budget.Budget`
  instead — they degrade, not hang.
* **Graceful drain** — :meth:`Supervisor.request_stop` (wired to
  SIGTERM/SIGINT by ``repro-hlts serve``) stops dequeuing; running
  work finishes (inline: the current job; process mode: live
  workers), every transition is already fsynced, and :meth:`run`
  returns with ``stopped_reason`` set so the CLI exits 0.

Chaos seams: ``service.dequeue`` (job picked), ``service.dispatch``
(just before evaluation — the canonical transient failure point),
``service.worker_reap`` (a finished job, after its result is spooled
and before ``done`` is ledgered) and ``service.ledger_write`` (inside
every WAL commit, via :class:`~repro.service.ledger.Ledger`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..runtime.budget import Budget
from ..runtime.chaos import ChaosCrash, chaos_point
from ..runtime.worker import (DEADLINE_GRACE, REAP_FLOOR_SECONDS, Finished,
                              InlineRunner, ProcessRunner)
from .ledger import (CANCELLED, DONE, FAILED, QUARANTINED, RUNNING,
                     SUBMITTED, JobState)
from .spool import JobRequest, Spool


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/quarantine knobs.

    Attributes:
        max_attempts: consecutive failures before quarantine.
        backoff_base: first retry delay in seconds (0 = immediate).
        backoff_cap: ceiling on any single delay.
        jitter: extra delay as a fraction of the base delay, scaled by
            a deterministic per-(job, attempt) hash — spreads retries
            without sacrificing reproducibility.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    jitter: float = 0.25


def backoff_delay(job_id: str, failures: int, policy: RetryPolicy) -> float:
    """Capped exponential backoff with deterministic jitter.

    ``failures`` is the consecutive-failure count *including* the one
    just recorded (so the first retry uses ``backoff_base``).
    """
    if policy.backoff_base <= 0:
        return 0.0
    base = min(policy.backoff_base * (2 ** max(0, failures - 1)),
               policy.backoff_cap)
    digest = hashlib.sha256(f"{job_id}:{failures}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return min(base * (1.0 + policy.jitter * fraction), policy.backoff_cap)


@dataclass
class ServiceOutcome:
    """Everything one supervisor run did (counters over *this* run)."""

    processed: int = 0          #: dispatch attempts started
    done: int = 0               #: jobs reaching ``done`` (incl. recovered)
    recovered: int = 0          #: adopted from spooled results at startup
    retried: int = 0            #: failures that scheduled a retry
    quarantined: int = 0        #: circuit breakers tripped
    reaped: int = 0             #: hung workers terminated
    skipped_cancelled: int = 0  #: dequeued jobs found cancelled
    stopped_reason: str = ""    #: why the loop stopped early ("" = drained)
    drained: bool = False       #: queue empty at exit
    elapsed_seconds: float = 0.0

    @property
    def stopped(self) -> bool:
        return bool(self.stopped_reason)

    def ok(self) -> bool:
        """True when nothing was lost: no quarantine this run."""
        return self.quarantined == 0


# ----------------------------------------------------------------------
# Job evaluation
# ----------------------------------------------------------------------
def _execute_request(request: JobRequest, cache: Any) -> dict:
    """Evaluate one job into a journal-style cell record.

    The job's budgets become one :class:`Budget` (deadline + step
    ceiling) that rides the whole pipeline, so an over-budget job
    returns a valid, explicitly degraded partial record instead of
    hanging.
    """
    from ..harness.cache import evaluate_cell

    budget = None
    if request.deadline_seconds is not None or request.max_steps is not None:
        budget = Budget(wall_seconds=request.deadline_seconds,
                        max_steps=request.max_steps)
    _cell, record = evaluate_cell(request.benchmark, request.flow,
                                  request.config(), cache=cache,
                                  budget=budget)
    return record


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Crash-recoverable dispatch loop over one spool directory."""

    def __init__(self, spool: Spool, *,
                 workers: int = 1,
                 isolate: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 default_deadline: Optional[float] = None,
                 deadline_grace: float = DEADLINE_GRACE,
                 reap_floor_seconds: float = REAP_FLOOR_SECONDS,
                 poll_seconds: float = 0.05,
                 cache: Any = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        self.spool = spool
        self.workers = max(1, workers)
        self.isolate = isolate or self.workers > 1
        self.retry = retry or RetryPolicy()
        self.default_deadline = default_deadline
        self.deadline_grace = deadline_grace
        self.reap_floor_seconds = reap_floor_seconds
        self.poll_seconds = poll_seconds
        self.cache = cache
        self.progress = progress
        self._stop_reason = ""
        self._queue: list[str] = []
        self._due: dict[str, float] = {}
        self._seen: set[str] = set()
        self._states: dict[str, JobState] = {}

    # ------------------------------------------------------------------
    def request_stop(self, reason: str = "stop") -> None:
        """Ask the loop to drain gracefully (signal-handler safe)."""
        if not self._stop_reason:
            self._stop_reason = reason

    def _log(self, message: str) -> None:
        if self.progress:
            self.progress(message)

    def _ledger(self, job_id: str, state: str, *,
                attempt: Optional[int] = None,
                reason: Optional[str] = None,
                recovered: bool = False) -> None:
        self.spool.ledger.append(job_id, state, attempt=attempt,
                                 reason=reason, recovered=recovered)
        detail = f" ({reason})" if reason else ""
        self._log(f"{job_id[:12]} -> {state}{detail}")

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Fold the WAL and pick up newly submitted jobs (FIFO)."""
        self._states = self.spool.states()
        for job_id, state in self._states.items():
            if state.state == SUBMITTED and job_id not in self._seen:
                self._seen.add(job_id)
                self._queue.append(job_id)

    def _pop_due(self, now: float) -> Optional[str]:
        for index, job_id in enumerate(self._queue):
            if self._due.get(job_id, 0.0) <= now:
                del self._queue[index]
                self._due.pop(job_id, None)
                return job_id
        return None

    def _earliest_wait(self, now: float) -> Optional[float]:
        """Seconds until the next queued job is due (None = queue empty)."""
        if not self._queue:
            return None
        return max(0.0, min(self._due.get(j, 0.0) for j in self._queue)
                   - now)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _recover(self, outcome: ServiceOutcome) -> None:
        """Replay the WAL and repair interrupted state.

        * ``running`` + spooled result → adopt as ``done`` (recovered);
          content-addressed ids make adoption exact, so a completed job
          is never evaluated twice.
        * ``running`` without a result → the crash interrupted the
          attempt; re-queue (not charged as a job failure).
        * ``failed`` → re-queue behind its backoff, or quarantine if
          the WAL already shows the circuit-breaker threshold.
        """
        self.spool.ledger.compact()  # repair a torn tail from a hard kill
        for job_id, state in self.spool.states().items():
            if state.state == RUNNING:
                if self.spool.read_result(job_id) is not None:
                    self._ledger(job_id, DONE, recovered=True,
                                 reason="adopted spooled result on restart")
                    outcome.done += 1
                    outcome.recovered += 1
                else:
                    self._ledger(job_id, SUBMITTED,
                                 reason="requeued: interrupted mid-run")
            elif state.state == FAILED:
                if state.failures >= self.retry.max_attempts:
                    self._ledger(job_id, QUARANTINED,
                                 reason=f"{state.failures} consecutive "
                                        f"failures; last: {state.reason}")
                    outcome.quarantined += 1
                else:
                    self._ledger(job_id, SUBMITTED,
                                 reason="requeued: retry pending at restart")
                    self._due[job_id] = (time.monotonic() + backoff_delay(
                        job_id, state.failures, self.retry))

    # ------------------------------------------------------------------
    # Failure path (shared)
    # ------------------------------------------------------------------
    def _failure(self, job_id: str, reason: str,
                 outcome: ServiceOutcome) -> None:
        failures = self._states[job_id].failures + 1 \
            if job_id in self._states else 1
        if failures >= self.retry.max_attempts:
            self._ledger(job_id, QUARANTINED,
                         reason=f"{failures} consecutive failures; "
                                f"last: {reason}")
            outcome.quarantined += 1
            return
        self._ledger(job_id, FAILED, reason=reason)
        delay = backoff_delay(job_id, failures, self.retry)
        self._due[job_id] = time.monotonic() + delay
        self._queue.append(job_id)  # tail: poison cannot starve the rest
        outcome.retried += 1

    # ------------------------------------------------------------------
    # Dispatch (one loop, inline or process runner)
    # ------------------------------------------------------------------
    def _start(self, job_id: str, runner: InlineRunner | ProcessRunner,
               outcome: ServiceOutcome) -> None:
        chaos_point("service.dequeue", job_id)
        state = self._states.get(job_id)
        if state is not None and state.state == CANCELLED:
            outcome.skipped_cancelled += 1
            self._log(f"{job_id[:12]} skipped (cancelled)")
            return
        attempt = (state.attempts if state else 0) + 1
        self._ledger(job_id, RUNNING, attempt=attempt)
        outcome.processed += 1
        try:
            request = self.spool.request(job_id)
            chaos_point("service.dispatch", job_id)
            deadline = (request.deadline_seconds
                        if request.deadline_seconds is not None
                        else self.default_deadline)
            runner.start((job_id, attempt), _execute_request,
                         (request, self.cache), deadline)
        except ChaosCrash:
            raise  # simulated process death must escape, never be absorbed
        except KeyboardInterrupt:
            self.request_stop("interrupt")
            self._ledger(job_id, SUBMITTED,
                         reason="requeued: interrupted by operator")
            self._seen.discard(job_id)
        except Exception as exc:  # noqa: BLE001 - the retry barrier
            self._failure(job_id, f"{type(exc).__name__}: {exc}", outcome)

    def _finish(self, finished: Finished, outcome: ServiceOutcome) -> None:
        job_id, attempt = finished.key
        if finished.error:
            outcome.reaped += finished.reaped
            self._failure(job_id, finished.error, outcome)
            return
        self.spool.write_result(job_id, finished.value)
        chaos_point("service.worker_reap", job_id)
        self._ledger(job_id, DONE, attempt=attempt)
        outcome.done += 1

    def _dispatch(self, runner: InlineRunner | ProcessRunner,
                  outcome: ServiceOutcome,
                  max_jobs: Optional[int],
                  idle_seconds: Optional[float]) -> None:
        idle_deadline: Optional[float] = None
        while True:
            for finished in runner.poll():
                self._finish(finished, outcome)
            if self._stop_reason:
                if not runner.busy:
                    break  # graceful drain: running work has finished
                runner.wait(self.poll_seconds)
                continue
            capped = max_jobs is not None and outcome.processed >= max_jobs
            while runner.has_room() and not capped and not self._stop_reason:
                # Fold the WAL before every pick: a job that failed in
                # ``_start`` may be due again at once, and its retry
                # must see the failure it just ledgered.
                self._refresh()
                job_id = self._pop_due(time.monotonic())
                if job_id is None:
                    break
                self._start(job_id, runner, outcome)
                capped = max_jobs is not None and outcome.processed >= max_jobs
            if runner.busy:
                idle_deadline = None
                runner.wait(self.poll_seconds)
                continue
            if capped or self._stop_reason:
                break
            now = time.monotonic()
            wait = self._earliest_wait(now)
            if wait is None:  # nothing queued at all
                if idle_seconds is not None:
                    if idle_deadline is None:
                        idle_deadline = now + idle_seconds
                    if now >= idle_deadline:
                        break
                time.sleep(self.poll_seconds)
            else:  # jobs exist but are waiting out a backoff
                idle_deadline = None
                time.sleep(min(wait, self.poll_seconds))

    # ------------------------------------------------------------------
    def run(self, *, max_jobs: Optional[int] = None,
            idle_seconds: Optional[float] = 0.0) -> ServiceOutcome:
        """Recover, then supervise the queue.

        Args:
            max_jobs: stop after this many dispatch attempts (None =
                unbounded) — the chaos scenarios' safety net.
            idle_seconds: once the queue drains, keep polling the spool
                for new submissions this long before exiting (0 = exit
                on drain, None = serve forever / until a signal).

        Returns:
            A :class:`ServiceOutcome` with this run's counters;
            ``stopped_reason`` is set when a stop request (signal)
            ended the run before the queue drained.
        """
        outcome = ServiceOutcome()
        started = time.perf_counter()
        self._stop_reason = ""
        self._queue.clear()
        self._due.clear()
        self._seen.clear()
        self._recover(outcome)
        runner: InlineRunner | ProcessRunner = (
            ProcessRunner(self.workers, grace=self.deadline_grace,
                          floor=self.reap_floor_seconds)
            if self.isolate else InlineRunner())
        try:
            self._dispatch(runner, outcome, max_jobs, idle_seconds)
        finally:
            runner.close()
        self._refresh()
        outcome.drained = not self._queue
        outcome.stopped_reason = self._stop_reason
        outcome.elapsed_seconds = time.perf_counter() - started
        return outcome


# Re-exported for tests that patch the evaluation seam.
__all__ = ["RetryPolicy", "ServiceOutcome", "Supervisor", "backoff_delay",
           "_execute_request"]
