"""Engine runtime: the shared simulation substrate plus background scheduling.

:class:`EngineRuntime` is the one ``SimClock``/``SimDisk``/``CostModel``/
``StatCounters`` set of a simulated engine: every component that charges
simulated time, touches the disk or registers maintenance is constructed
from it and has no other way to get a substrate.
:class:`BackgroundScheduler` gives all background maintenance (pre-cleaning,
subtree release, LSM compaction, buffer-pool write-back, re-homing
migration) a single, uniform seam:

* a :class:`MaintenanceTask` registers a *runner* plus a priority, a pacing
  interval (in foreground operations — the simulation's only clock) and a
  backpressure threshold;
* producers **request** work instead of running it inline; the scheduler
  runs it when the task's pacing allows (immediately, for the default
  pacing of 0, which preserves the paper's semantics exactly);
* when a task's queue has reached its backpressure threshold the request
  runs synchronously on the foreground path instead — the paper's stall
  semantics;
* every run is measured (foreground CPU, background CPU, and disk time
  deltas) and recorded on the runtime's stats bus as ``task_<name>_*``
  counters, so benchmarks can report background utilization per slice.

Simulated-time charges stay exactly where the component put them: release
stalls deliberately hit the foreground clock, compaction charges
background.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Callable, Optional

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sim.effects import Probe
from repro.sim.stats import StatCounters
from repro.sim.threads import ThreadModel


class MaintenanceTask:
    """One registered background-maintenance activity.

    Tasks come in two flavours:

    * **queued** (default): producers submit work items (thunks); the
      scheduler runs them when the task's pacing interval has elapsed.
    * **periodic**: the task's own ``runner`` fires once every
      ``pacing_interval_ops`` scheduler ticks (the pre-cleaner's
      insert-count timer, generalized).
    """

    def __init__(
        self,
        name: str,
        runner: Optional[Callable[[], object]] = None,
        *,
        priority: int = 10,
        pacing_interval_ops: int = 0,
        backpressure_threshold: int = 8,
        periodic: bool = False,
    ) -> None:
        if periodic and runner is None:
            raise ValueError("a periodic task needs a runner")
        if pacing_interval_ops < 0:
            raise ValueError("pacing_interval_ops must be >= 0")
        self.name = name
        self.runner = runner
        self.priority = priority
        self.pacing_interval_ops = pacing_interval_ops
        self.backpressure_threshold = backpressure_threshold
        self.periodic = periodic
        self.queue: deque[Callable[[], object]] = deque()
        #: scheduler-op count at the task's last run (pacing reference).
        self.last_run_ops = 0
        #: reentrancy guard: True while the scheduler is inside the runner.
        self.running = False

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def due(self, ops_now: int) -> bool:
        """True when the pacing interval since the last run has elapsed."""
        return ops_now - self.last_run_ops >= self.pacing_interval_ops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "periodic" if self.periodic else "queued"
        return (
            f"MaintenanceTask({self.name!r}, {kind}, prio={self.priority}, "
            f"pace={self.pacing_interval_ops}, depth={self.queue_depth})"
        )


class BackgroundScheduler:
    """Priority-ordered, paced dispatch of registered maintenance tasks.

    The scheduler is deliberately synchronous — there are no real threads
    in the simulation — but it is the single point where *when* background
    work runs is decided, which is the seam later asynchronous or sharded
    executions plug into.  ``tick`` advances the pacing clock (one tick per
    foreground operation the caller deems maintenance-relevant) and drains
    whatever became due; ``request`` is the one call producers make —
    it enqueues one work item (drained immediately when the task is
    unpaced) or runs it inline under backpressure.
    """

    def __init__(self, runtime: "EngineRuntime") -> None:
        self.runtime = runtime
        self._tasks: list[MaintenanceTask] = []
        self._ops = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        runner: Optional[Callable[[], object]] = None,
        *,
        priority: int = 10,
        pacing_interval_ops: int = 0,
        backpressure_threshold: int = 8,
        periodic: bool = False,
    ) -> MaintenanceTask:
        task = MaintenanceTask(
            name,
            runner,
            priority=priority,
            pacing_interval_ops=pacing_interval_ops,
            backpressure_threshold=backpressure_threshold,
            periodic=periodic,
        )
        task.last_run_ops = self._ops
        self._tasks.append(task)
        self._tasks.sort(key=lambda t: t.priority)
        return task

    @property
    def tasks(self) -> list[MaintenanceTask]:
        return list(self._tasks)

    def task_names(self) -> list[str]:
        return [t.name for t in self._tasks]

    # ------------------------------------------------------------------
    # producing work
    # ------------------------------------------------------------------
    def request(
        self, task: MaintenanceTask, work: Optional[Callable[[], object]] = None
    ) -> None:
        """The producer call: schedule one work item, or stall on it.

        Below the task's backpressure threshold the item is submitted (and
        runs at once when the task is unpaced); a saturated task runs it
        inline on the foreground path instead — the synchronous fallback
        that preserves the paper's stall semantics under overload.
        """
        if self.saturated(task):
            self.run_inline(task, work)
        else:
            self.submit(task, work)

    def saturated(self, task: MaintenanceTask) -> bool:
        """True when the task cannot absorb more deferred work."""
        return len(task.queue) >= task.backpressure_threshold

    def submit(self, task: MaintenanceTask, work: Optional[Callable[[], object]] = None) -> None:
        """Enqueue one work item (``work`` or the task's own runner).

        The item runs immediately when the task's pacing allows and the
        task is not already mid-run; otherwise it stays queued until a
        later ``tick`` (counted as deferred).
        """
        item = work if work is not None else task.runner
        if item is None:
            raise ValueError(f"task {task.name!r} has no runner and no work was given")
        task.queue.append(item)
        stats = self.runtime.stats
        stats.bump(f"task_{task.name}_submits")
        stats.record_max(f"task_{task.name}_queue_peak", task.queue_depth)
        if task.running:
            # Reentrant submit while the runner is active: the drain loop
            # in ``_drain_queued`` picks the item up when the run returns.
            stats.bump(f"task_{task.name}_deferred")
            return
        if task.due(self._ops):
            self._drain_queued(task)
        else:
            stats.bump(f"task_{task.name}_deferred")

    def run_inline(
        self, task: MaintenanceTask, work: Optional[Callable[[], object]] = None
    ) -> None:
        """Run one work item synchronously on the foreground path.

        The backpressure fallback of :meth:`request`, and the seam for
        work that is synchronous by design; the run is counted as inline
        rather than scheduled.
        """
        item = work if work is not None else task.runner
        if item is None:
            raise ValueError(f"task {task.name!r} has no runner and no work was given")
        self._run_one(task, item, inline=True)

    # ------------------------------------------------------------------
    # advancing time
    # ------------------------------------------------------------------
    def tick(self, ops: int = 1) -> None:
        """Advance the pacing clock by ``ops`` and run whatever became due."""
        self._ops += ops
        ops_now = self._ops
        for task in self._tasks:
            # Inlined ``task.due(ops_now)``: tick runs once per foreground
            # insert, so the common became-nothing-due case must not pay a
            # method call per task.
            if task.running or ops_now - task.last_run_ops < task.pacing_interval_ops:
                continue
            if task.queue:
                self._drain_queued(task)
            elif task.periodic:
                assert task.runner is not None  # enforced at registration
                self._run_one(task, task.runner, inline=False)

    def drain(self) -> None:
        """Run every queued item now, ignoring pacing (checkpoint/shutdown)."""
        for task in self._tasks:
            if not task.running:
                self._drain_queued(task, force=True)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _drain_queued(self, task: MaintenanceTask, force: bool = False) -> None:
        while task.queue and (force or task.due(self._ops)):
            item = task.queue.popleft()
            self._run_one(task, item, inline=False)

    def _run_one(
        self, task: MaintenanceTask, item: Callable[[], object], inline: bool
    ) -> None:
        clock = self.runtime.clock
        disk = self.runtime.disk
        cpu_before = clock.cpu_ns
        bg_before = clock.background_ns
        disk_before = disk.busy_ns
        task.running = True
        try:
            item()
        finally:
            task.running = False
        task.last_run_ops = self._ops
        fg_ns = clock.cpu_ns - cpu_before
        bg_ns = clock.background_ns - bg_before
        disk_ns = disk.busy_ns - disk_before
        stats = self.runtime.stats
        stats.bump(f"task_{task.name}_runs")
        stats.bump(f"task_{task.name}_inline" if inline else f"task_{task.name}_scheduled")
        if fg_ns:
            stats.bump(f"task_{task.name}_cpu_ns", fg_ns)
        if bg_ns:
            stats.bump(f"task_{task.name}_background_ns", bg_ns)
        if disk_ns:
            stats.bump(f"task_{task.name}_disk_ns", disk_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackgroundScheduler(ops={self._ops}, tasks={self.task_names()})"


class EngineRuntime:
    """The shared substrate of one simulated engine.

    Owns the clock, disk, cost model, thread model, the stats bus, and the
    background scheduler.  Every component of one system receives (pieces
    of) the same runtime instead of constructing its own plumbing, so
    cross-layer mechanisms — pacing, backpressure, utilization accounting —
    see one consistent world.  The machine profile is the one the paper
    runs: the default ``CostModel``, ``ThreadModel`` and ``SimDisk`` spec.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self.disk = SimDisk()
        self.costs = CostModel()
        self.thread_model = ThreadModel()
        self.stats = StatCounters()
        self.scheduler = BackgroundScheduler(self)
        self._probes: list[Probe] = []

    def subscribe(self, probe: Probe) -> Callable[[], None]:
        """Call ``probe(effect, amount)`` before every substrate mutation.

        The one observer seam of the simulated substrate.  ``effect`` is
        one of ``sim.effects.EFFECT_NAMES`` with ``amount`` the
        nanoseconds about to be added to that account, or ``"stat"`` for
        a ``bump``/``record_max`` on ``stats`` or ``disk.stats``.  A
        probe that raises vetoes the mutation.  Subscribers fire in
        subscription order; the returned callable unsubscribes.  The
        clock, the disk and the two stats buses read their slot at call
        time, so a probe attached after the components were built sees
        every later charge, and with no subscriber each slot is None.
        """

        def publish() -> None:
            slot = self._fan_out if self._probes else None
            self.clock._probe = self.disk._probe = slot
            self.stats._probe = self.disk.stats._probe = slot

        def unsubscribe() -> None:
            self._probes.remove(probe)
            publish()

        self._probes.append(probe)
        publish()
        return unsubscribe

    def _fan_out(self, effect: str, amount: float) -> None:
        for probe in self._probes:
            probe(effect, amount)

    @contextmanager
    def observation(self) -> Iterator[None]:
        """Walk cost-charged paths without perturbing simulated results.

        Observers — the ``repro.check`` sanitizers, debug probes — need to
        call real read paths (``get``, page walks) whose cost charging
        would otherwise leak into the measurement.  On exit every
        simulated-time account (foreground/background CPU, disk busy time)
        and the stats bus are restored to their entry values.  Cache
        *state* touched by the probes (block cache, buffer pool frames) is
        not rolled back; see EXPERIMENTS.md for the residual effect.
        """
        cpu_ns = self.clock.cpu_ns
        background_ns = self.clock.background_ns
        disk_busy_ns = self.disk.busy_ns
        counters = self.stats.snapshot()
        try:
            yield
        finally:
            self.clock.cpu_ns = cpu_ns
            self.clock.background_ns = background_ns
            self.disk.busy_ns = disk_busy_ns
            self.stats.restore(counters)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    _METRIC_KEYS = (
        "runs",
        "scheduled",
        "inline",
        "deferred",
        "submits",
        "queue_peak",
        "cpu_ns",
        "background_ns",
        "disk_ns",
    )

    def task_metrics(
        self, earlier: dict[str, float] | None = None
    ) -> dict[str, dict[str, float]]:
        """Per-task scheduler metrics, optionally as a delta since
        ``earlier`` (a prior ``stats.snapshot()``)."""
        counts = self.stats.delta(earlier) if earlier is not None else self.stats.as_dict()
        out: dict[str, dict[str, float]] = {}
        for task in self.scheduler.tasks:
            metrics: dict[str, float] = {}
            for key in self._METRIC_KEYS:
                value = counts.get(f"task_{task.name}_{key}", 0)
                if value:
                    metrics[key] = value
            metrics["queue_depth"] = task.queue_depth
            out[task.name] = metrics
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineRuntime(cpu={self.clock.cpu_ns:.0f}ns, "
            f"bg={self.clock.background_ns:.0f}ns, "
            f"tasks={self.scheduler.task_names()})"
        )
