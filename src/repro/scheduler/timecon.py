"""Time-constrained transaction scheduling (extension).

The paper's project "has also begun work on time-constrained scheduling of
database transactions [BUC88]" — integrating deadlines into transaction
scheduling so that rule firings with timing constraints (e.g. SAA trading
rules) are serviced before their value expires.  The paper gives no design,
so this module implements the classic real-time-scheduling substrate that
line of work built on:

* a deterministic **simulator**: jobs (transactions) with arrival time,
  service demand, and deadline are dispatched to ``servers`` worker slots
  under a policy — FIFO, EDF (earliest deadline first), or LSF (least slack
  first) — and the miss rate / lateness are measured;
* a real :class:`DeadlineExecutor` that runs Python callables on worker
  threads in deadline order: where separate-coupling rule firings run.

The A2 benchmark reproduces the qualitative claim of the time-constrained
scheduling literature: under load, deadline-aware policies miss far fewer
deadlines than FIFO.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

FIFO = "fifo"
EDF = "edf"
LSF = "lsf"

POLICIES = (FIFO, EDF, LSF)


@dataclass(frozen=True)
class Job:
    """One transaction to schedule: arrives, needs service, has a deadline."""

    job_id: int
    arrival: float
    service: float
    deadline: float
    priority: int = 0

    def slack(self, now: float) -> float:
        """Remaining slack at time ``now`` (deadline - now - service)."""
        return self.deadline - now - self.service


@dataclass
class Completion:
    """The outcome of one scheduled job."""

    job: Job
    start: float
    finish: float

    @property
    def missed(self) -> bool:
        """True if the job finished after its deadline."""
        return self.finish > self.job.deadline

    @property
    def lateness(self) -> float:
        """finish - deadline (negative when early)."""
        return self.finish - self.job.deadline

    @property
    def response(self) -> float:
        """finish - arrival."""
        return self.finish - self.job.arrival


@dataclass
class ScheduleResult:
    """Aggregate outcome of one simulation run."""

    policy: str
    completions: List[Completion] = field(default_factory=list)

    @property
    def miss_rate(self) -> float:
        """Fraction of jobs that missed their deadline."""
        if not self.completions:
            return 0.0
        return sum(1 for c in self.completions if c.missed) / len(self.completions)

    @property
    def mean_lateness(self) -> float:
        """Mean lateness over all jobs (negative = typically early)."""
        if not self.completions:
            return 0.0
        return sum(c.lateness for c in self.completions) / len(self.completions)

    @property
    def mean_response(self) -> float:
        """Mean response time."""
        if not self.completions:
            return 0.0
        return sum(c.response for c in self.completions) / len(self.completions)


def _ready_key(policy: str, job: Job, now: float, seq: int) -> Tuple:
    if policy == FIFO:
        return (job.arrival, seq)
    if policy == EDF:
        return (job.deadline, job.arrival, seq)
    if policy == LSF:
        return (job.slack(now), job.arrival, seq)
    raise ValueError("unknown policy %r" % policy)


def simulate(jobs: Sequence[Job], policy: str = EDF,
             servers: int = 1) -> ScheduleResult:
    """Simulate non-preemptive scheduling of ``jobs`` on ``servers`` slots.

    Event-driven: at each dispatch point the ready job minimizing the
    policy's key is started on the free server.  Deterministic — ties break
    by arrival then submission order.
    """
    if policy not in POLICIES:
        raise ValueError("unknown policy %r" % policy)
    if servers < 1:
        raise ValueError("servers must be >= 1")
    pending = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
    result = ScheduleResult(policy)
    #: (free_at, server_index) heap
    free_at: List[Tuple[float, int]] = [(0.0, i) for i in range(servers)]
    heapq.heapify(free_at)
    ready: List[Job] = []
    index = 0
    seq = itertools.count()
    while index < len(pending) or ready:
        slot_time, server = heapq.heappop(free_at)
        # Admit everything that has arrived by the time this slot frees.
        now = slot_time
        while index < len(pending) and pending[index].arrival <= now:
            ready.append(pending[index])
            index += 1
        if not ready:
            # Idle until the next arrival.
            now = pending[index].arrival
            while index < len(pending) and pending[index].arrival <= now:
                ready.append(pending[index])
                index += 1
        ready.sort(key=lambda j: _ready_key(policy, j, now, j.job_id))
        job = ready.pop(0)
        start = max(now, job.arrival)
        finish = start + job.service
        result.completions.append(Completion(job, start, finish))
        heapq.heappush(free_at, (finish, server))
    result.completions.sort(key=lambda c: c.job.job_id)
    return result


def compare_policies(jobs: Sequence[Job], servers: int = 1,
                     policies: Sequence[str] = POLICIES) -> Dict[str, ScheduleResult]:
    """Run the same job set under several policies (the A2 experiment)."""
    return {policy: simulate(jobs, policy, servers) for policy in policies}


#: how long a worker with nothing to run stays before it leaves
IDLE_SECONDS = 5.0


class DeadlineExecutor:
    """Run callables on worker threads in earliest-deadline-first order.

    The dispatch path of separate-coupling rule firings: submit with a
    deadline, workers always pick the most urgent queued task.  A worker is
    started only when a task arrives and none is idle, up to ``workers`` of
    them, and leaves after :data:`IDLE_SECONDS` without work.
    """

    def __init__(self, workers: int = 2, name: str = "deadline-worker") -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        mutex = threading.Lock()
        self._work = threading.Condition(mutex)     # workers wait for a task
        self._quiet = threading.Condition(mutex)    # drain() waits for none
        self._shutdown = False
        self._outstanding = 0
        self._workers, self._name = workers, name
        self._live = self._idle = 0
        self._roused = False        # a woken or new worker is on its way
        self.stats = {"submitted": 0, "completed": 0, "errors": 0}

    def submit(self, deadline: float, task: Callable[[], None]) -> None:
        """Queue ``task`` with the given deadline."""
        with self._work:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            heapq.heappush(self._heap, (deadline, next(self._seq), task))
            self._outstanding += 1
            self.stats["submitted"] += 1
            self._rouse()

    def _rouse(self) -> None:
        """Send a worker to the queue (mutex held): wake an idle one, else
        start one if the bound allows.  Only one is on its way at a time —
        it sends the next if it leaves tasks behind — so a burst that one
        worker clears under the GIL does not wake them all."""
        if self._heap and not self._roused:
            if self._idle:
                self._work.notify()
            elif self._live < self._workers:
                threading.Thread(target=self._run, daemon=True,
                                 name=self._name).start()
                self._live += 1
            else:
                return
            self._roused = True

    def _run(self) -> None:
        with self._work:
            self._roused = False                    # the new worker is here
        while True:
            with self._work:
                woken = True
                while not self._heap:
                    if self._shutdown or not woken:     # or idle too long
                        self._live -= 1
                        return
                    self._idle += 1
                    woken = self._work.wait(IDLE_SECONDS)
                    self._idle -= 1
                    self._roused = False            # the woken worker is here
                task = heapq.heappop(self._heap)[2]
                self._rouse()
            ok = None
            try:
                task()
                ok = True
            except Exception:
                ok = False
            finally:
                with self._work:
                    self.stats["completed" if ok else "errors"] += 1
                    self._outstanding -= 1
                    if ok is None:
                        # A BaseException is on its way out and ends this
                        # thread: its slot goes to whatever is queued.
                        self._live -= 1
                        self._rouse()
                    if not self._outstanding:
                        self._quiet.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for all submitted tasks, queued or running, to finish."""
        with self._quiet:
            return self._quiet.wait_for(lambda: not self._outstanding, timeout)

    def shutdown(self) -> None:
        """Stop the workers after the queue drains."""
        with self._work:
            self._shutdown = True
            self._work.notify_all()
