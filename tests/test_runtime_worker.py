"""Task runners: worker count, inline and per-task process runners."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import ChaosCrash
from repro.runtime.worker import (InlineRunner, ProcessRunner, run_tasks,
                                  worker_count)


def _echo(value):
    return value


def _boom(message):
    raise ValueError(message)


def _exit_quietly():
    os._exit(3)


#: Process tasks get a deadline: a child that never finishes (say, one
#: blocked on a pipe nobody drains) is reaped and fails the test
#: instead of hanging it.
DEADLINE = 15.0


def _run(runner, tasks):
    try:
        return {f.key: f for f in run_tasks(runner, tasks)}
    finally:
        runner.close()


class TestWorkerCount:
    def test_default_follows_the_affinity_set(self, monkeypatch):
        # pinned to one CPU of a two-CPU host (taskset -c 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert worker_count() == 1
        assert worker_count(None) == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert worker_count() == 3

    def test_an_explicit_count_wins(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert worker_count(4) == 4


class TestInlineRunner:
    def test_values_and_errors_come_back_as_finished(self):
        finished = _run(InlineRunner(), [("a", _echo, (1,), None),
                                         ("b", _boom, ("bad",), None)])
        assert finished["a"].value == 1 and not finished["a"].error
        assert finished["b"].error == "ValueError: bad"

    def test_chaos_crash_escapes(self):
        def crash():
            raise ChaosCrash("this process died")

        with pytest.raises(ChaosCrash):
            _run(InlineRunner(), [("a", crash, (), None)])


class TestProcessRunner:
    def test_payload_larger_than_a_pipe_buffer_comes_back(self):
        payload = "x" * (4 << 20)  # far beyond the 64 KiB pipe buffer
        finished = _run(ProcessRunner(2), [
            (n, _echo, (payload,), DEADLINE) for n in range(3)])
        assert all(finished[n].value == payload for n in range(3))

    def test_child_error_names_exit_code_and_exception(self):
        finished = _run(ProcessRunner(1),
                        [("a", _boom, ("bad",), DEADLINE)])
        assert finished["a"].error == \
            "worker exited with code 1: ValueError: bad"

    def test_silent_death_reports_the_exit_code(self):
        finished = _run(ProcessRunner(1),
                        [("a", _exit_quietly, (), DEADLINE)])
        assert finished["a"].error == "worker exited with code 3"

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_workers_of_a_killed_parent_do_not_block_forever(self,
                                                             tmp_path):
        # The parent dies (no unwinding) while two workers are about to
        # send payloads larger than a pipe buffer; nobody will read them.
        # A younger sibling that outlives them all holds inherited
        # copies of their pipes unless it closed them.
        pids = tmp_path / "pids"
        script = (
            "import os, sys, time\n"
            "from repro.runtime.worker import ProcessRunner\n"
            "def big():\n"
            "    time.sleep(0.5)\n"
            "    return 'x' * (4 << 20)\n"
            "runner = ProcessRunner(3)\n"
            "runner.start('a', big)\n"
            "runner.start('b', big)\n"
            "runner.start('sleeper', time.sleep, (600,))\n"
            "with open(sys.argv[1], 'w') as out:\n"
            "    out.write(' '.join(str(t.process.pid)\n"
            "                       for t in runner._running))\n"
            "os._exit(9)\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", script, str(pids)],
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=60)
        assert done.returncode == 9
        *senders, sleeper = [int(pid) for pid in pids.read_text().split()]

        def running(pid):
            try:
                state = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return state.rsplit(")", 1)[1].split()[0] != "Z"

        try:
            deadline = time.monotonic() + 20
            while (any(map(running, senders))
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            left = [pid for pid in senders if running(pid)]
            assert running(sleeper)     # the senders exited while it lived
        finally:
            for pid in senders + [sleeper]:
                if running(pid):
                    os.kill(pid, 9)
        assert left == []
