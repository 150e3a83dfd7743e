"""Task runners: inline, or one worker process per task.

The grid runner (:func:`~repro.runtime.checkpoint.run_journaled_grid`)
and the ``explore`` sweep run their work through one of two runners
with the same small interface, so each writes its dispatch loop once.
This is the only module that starts processes.

* :class:`InlineRunner` runs a task in the calling process when it
  starts: the path that honours a shared :class:`~repro.runtime.budget.
  Budget` and an active chaos injector.  A task that raises finishes
  with an error that keeps the exception itself, except a
  :class:`~repro.runtime.chaos.ChaosCrash` (a simulated death of
  *this* process) and ``KeyboardInterrupt``, which propagate.
* :class:`ProcessRunner` forks one process per task, at most ``slots``
  at once.  The task's return value comes back over a pipe that the
  parent drains *before* it joins the child: a child blocked writing a
  payload larger than the pipe buffer never exits.  A task with a
  ``deadline`` is terminated once it outlives ``max(deadline *
  DEADLINE_GRACE, REAP_FLOOR_SECONDS)`` seconds and reported as
  reaped; a child that raises or dies is reported with its exit code.

``multiprocessing`` is imported only when a process runner is made.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from .chaos import ChaosCrash, clear_injector

#: A task's reap horizon is ``max(deadline * DEADLINE_GRACE,
#: REAP_FLOOR_SECONDS)`` seconds after it starts.
DEADLINE_GRACE = 2.0
REAP_FLOOR_SECONDS = 1.0

#: (key, function, args, deadline seconds or None) — one unit of work.
Task = tuple[Any, Callable[..., Any], tuple, Optional[float]]


def worker_count(requested: Optional[int] = None) -> int:
    """The worker count to use: ``requested``, else the CPUs this
    process may run on (its affinity set, which ``taskset`` and cgroup
    CPU pinning narrow), else ``os.cpu_count()``."""
    if requested:
        return requested
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@dataclass
class Finished:
    """One task's end: its return value, or why it produced none."""

    key: Any
    value: Any = None
    #: "" when the task returned normally.
    error: str = ""
    #: The exception an inline task raised, traceback included (a
    #: worker process can only report it as ``error``).
    exception: Optional[BaseException] = None


class InlineRunner:
    """Runs each task in the calling process when it starts.  Deadlines
    are not enforced: inline work is bounded by its cooperative
    :class:`~repro.runtime.budget.Budget`."""

    def __init__(self) -> None:
        self._finished: list[Finished] = []

    @property
    def busy(self) -> bool:
        return bool(self._finished)

    def has_room(self) -> bool:
        # One task at a time: the next starts once this one is polled.
        return not self._finished

    def start(self, key: Any, fn: Callable[..., Any], args: tuple = (),
              deadline: Optional[float] = None) -> None:
        try:
            value = fn(*args)
        except ChaosCrash:
            raise  # simulated death of this process must not be absorbed
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            self._finished.append(Finished(
                key, error=f"{type(exc).__name__}: {exc}", exception=exc))
            return
        self._finished.append(Finished(key, value=value))

    def poll(self) -> list[Finished]:
        finished, self._finished = self._finished, []
        return finished

    def wait(self) -> None:
        """Nothing runs in the background."""

    def close(self) -> None:
        self._finished.clear()


@dataclass
class _Running:
    key: Any
    process: Any
    conn: Any
    deadline: Optional[float]
    reap_at: Optional[float]


def _child(inherited: list[Any], conn: Any, fn: Callable[..., Any],
           args: tuple) -> None:
    """Worker-process entry: run the task, send its outcome, exit."""
    # Close the inherited copies of the parent's ends, this task's and
    # those of the siblings already running: then a parent that died
    # makes each worker's send fail instead of blocking on a full pipe.
    for reader in inherited:
        reader.close()
    clear_injector()  # a fork must not replay the parent's chaos plan
    with conn:
        try:
            message = ("ok", fn(*args))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            sys.exit(1)
        conn.send(message)


class ProcessRunner:
    """One forked worker process per task, at most ``slots`` at once."""

    def __init__(self, slots: int) -> None:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        # fork: children inherit the parent's module state (test
        # monkeypatches included) and need nothing pickled to start.
        # The program starts no threads, which is what makes fork safe.
        self._context: Any = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self.slots = max(1, slots)
        self._running: list[_Running] = []

    @property
    def busy(self) -> bool:
        return bool(self._running)

    def has_room(self) -> bool:
        return len(self._running) < self.slots

    def start(self, key: Any, fn: Callable[..., Any], args: tuple = (),
              deadline: Optional[float] = None) -> None:
        reader, writer = self._context.Pipe(duplex=False)
        inherited = [reader] + [task.conn for task in self._running]
        process = self._context.Process(target=_child,
                                        args=(inherited, writer, fn, args),
                                        daemon=True)
        try:
            process.start()
        except BaseException:
            reader.close()
            raise
        finally:
            # Only the child may hold the write end: its exit is then
            # visible as end-of-file on the reader.
            writer.close()
        reap_at = (None if deadline is None else time.monotonic()
                   + max(deadline * DEADLINE_GRACE, REAP_FLOOR_SECONDS))
        self._running.append(_Running(key, process, reader, deadline,
                                      reap_at))

    def poll(self) -> list[Finished]:
        now = time.monotonic()
        finished = []
        for task in list(self._running):
            if task.conn.poll():  # a payload, an error report or EOF
                finished.append(self._collect(task))
            elif task.reap_at is not None and now >= task.reap_at:
                self._kill(task)
                finished.append(Finished(
                    task.key,
                    error=f"reaped: exceeded deadline {task.deadline:g}s "
                          f"x grace {DEADLINE_GRACE:g}"))
            else:
                continue
            self._running.remove(task)
        return finished

    def wait(self) -> None:
        """Block until a task reports or the next reap horizon passes."""
        if not self._running:
            return
        from multiprocessing.connection import wait

        horizons = [t.reap_at for t in self._running if t.reap_at is not None]
        timeout = (max(0.0, min(horizons) - time.monotonic())
                   if horizons else None)
        wait([task.conn for task in self._running], timeout)

    def close(self) -> None:
        """Terminate every task still running."""
        while self._running:
            self._kill(self._running.pop())

    @staticmethod
    def _collect(task: _Running) -> Finished:
        try:
            status, value = task.conn.recv()
        except EOFError:  # died without a word
            status, value = "died", None
        task.process.join()
        task.conn.close()
        if status == "ok":
            return Finished(task.key, value=value)
        reason = f"worker exited with code {task.process.exitcode}"
        return Finished(task.key, error=reason + (
            f": {value}" if status == "error" else ""))

    @staticmethod
    def _kill(task: _Running) -> None:
        task.process.kill()
        task.process.join()
        task.conn.close()


def run_tasks(runner: "InlineRunner | ProcessRunner",
              tasks: Iterable[Task]) -> Iterator[Finished]:
    """Run ``tasks`` on ``runner``, yielding each as it finishes.

    Tasks are pulled from ``tasks`` only when the runner has room, so a
    generator can announce each one as it starts.  The caller closes
    the runner (a ``finally``) to reap what is still running when it
    stops early.
    """
    queue = iter(tasks)
    more = True
    while more or runner.busy:
        while more and runner.has_room():
            task = next(queue, None)
            more = task is not None
            if task is not None:
                runner.start(*task)
        yield from runner.poll()
        runner.wait()
