"""The supervisor's dispatch loop between picks: a job that fails
before it reaches the runner, and a stop request raised by one job
while others are queued.

Both failure points sit in the inline loop's inner pick loop, where
nothing occupies the runner after the failure, so the loop must fold
the WAL and honour a stop before it picks again.
"""

from __future__ import annotations

from repro.runtime.chaos import ChaosInjector, Injection
from repro.service import RetryPolicy, Spool
from repro.service import supervisor as supervisor_module

from .test_service_supervisor import _fake_record, _fast, _submit


def _running_attempts(spool, job_id):
    return [t.get("attempt") for t in spool.ledger.transitions()
            if t["job"] == job_id and t["state"] == "running"]


class TestFailureBeforeTheRunner:
    def test_persistent_dispatch_raise_quarantines(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(supervisor_module, "_execute_request",
                            lambda request, cache: _fake_record(request))
        spool = Spool(tmp_path)
        jid = _submit(spool)
        supervisor = _fast(spool, retry=RetryPolicy(backoff_base=0.0,
                                                    max_attempts=2))
        with ChaosInjector(Injection("service.dispatch", "raise",
                                     count=100)):
            outcome = supervisor.run(max_jobs=10)
        assert outcome.processed == 2 and outcome.quarantined == 1
        assert spool.states()[jid].state == "quarantined"
        assert _running_attempts(spool, jid) == [1, 2]

    def test_retry_after_a_dispatch_raise_is_the_second_attempt(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_module, "_execute_request",
                            lambda request, cache: _fake_record(request))
        spool = Spool(tmp_path)
        jid = _submit(spool)
        with ChaosInjector(Injection("service.dispatch", "raise")):
            outcome = _fast(spool).run(max_jobs=10)
        assert outcome.done == 1 and outcome.retried == 1
        assert _running_attempts(spool, jid) == [1, 2]
        assert spool.states()[jid].state == "done"

    def test_unreadable_job_file_quarantines(self, tmp_path):
        spool = Spool(tmp_path)
        jid = _submit(spool)
        (spool.jobs_dir / f"{jid}.json").write_text("{not json")
        supervisor = _fast(spool, retry=RetryPolicy(backoff_base=0.0,
                                                    max_attempts=3))
        outcome = supervisor.run(max_jobs=10)
        assert outcome.processed == 3 and outcome.quarantined == 1
        assert spool.states()[jid].state == "quarantined"


class TestStopBetweenPicks:
    def test_keyboard_interrupt_leaves_the_next_job_queued(
            self, tmp_path, monkeypatch):
        spool = Spool(tmp_path)
        first, second = _submit(spool, bits=4), _submit(spool, bits=8)
        ran = []

        def interrupted(request, cache):
            ran.append(request.bits)
            if request.bits == 4:
                raise KeyboardInterrupt
            return _fake_record(request)

        monkeypatch.setattr(supervisor_module, "_execute_request",
                            interrupted)
        outcome = _fast(spool).run()
        assert outcome.stopped_reason == "interrupt"
        assert ran == [4] and outcome.processed == 1
        states = spool.states()
        assert states[first].state == "submitted"
        assert states[second].state == "submitted"
