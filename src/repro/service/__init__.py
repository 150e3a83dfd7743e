"""Durable synthesis-as-a-service: spool + WAL ledger + supervisor.

The service turns the one-shot experiment harness into a
crash-recoverable job queue (DESIGN.md §15):

* :mod:`repro.service.spool` — a filesystem spool directory is the
  whole transport; job ids are content hashes, so resubmission is
  idempotent and results are shared.
* :mod:`repro.service.ledger` — every state transition is one fsynced
  line in a write-ahead JSONL ledger; replaying it reconstructs the
  queue after a kill at any instant.
* :mod:`repro.service.supervisor` — FIFO dispatch with per-job
  budgets, capped-exponential retry with deterministic jitter, a
  consecutive-failure quarantine circuit breaker, hung-worker reaping
  in process mode, and SIGTERM graceful drain.
* :mod:`repro.service.metrics` — WAL-derived operator stats
  (``repro-hlts serve --stats``).
"""

from .ledger import (CANCELLED, DONE, FAILED, QUARANTINED, RUNNING,
                     SUBMITTED, JobState, Ledger, fold_transitions)
from .metrics import render_stats, service_stats
from .spool import JobRequest, Spool, is_terminal, job_id
from .supervisor import (RetryPolicy, ServiceOutcome, Supervisor,
                         backoff_delay)

__all__ = [
    "CANCELLED", "DONE", "FAILED", "QUARANTINED", "RUNNING", "SUBMITTED",
    "JobState", "Ledger", "fold_transitions",
    "render_stats", "service_stats",
    "JobRequest", "Spool", "is_terminal", "job_id",
    "RetryPolicy", "ServiceOutcome", "Supervisor", "backoff_delay",
]
