"""The discrete-event scheduler binding workers and the GPU manager.

This is the virtual-time engine that executes task graphs with the
paper's scheduling disciplines:

* CPU workers run a Cilk-style work-stealing loop: pop from the top of
  the own deque, steal from the bottom of a random victim when empty
  (paper Section 4.1).
* The GPU management thread processes its FIFO one task at a time and
  never blocks on device operations (Section 4.2).
* Newly runnable tasks are pushed according to Figure 5: GPU tasks to
  the bottom of the GPU queue; CPU tasks made runnable by a GPU task
  to the bottom of a *random* worker's deque; CPU tasks made runnable
  by a CPU task to the top of the executing worker's own deque.

Determinism: the only randomness (victim selection, worker choice for
GPU-caused pushes) comes from one seeded ``random.Random``.

Hot-path layout (this loop runs once per simulated event, hundreds of
thousands of times per tuning session):

* agenda entries are flat ``(time, seq, kind, a, b, c)`` tuples — the
  heap only ever compares ``(time, seq)``, and flattening avoids one
  nested payload tuple per event;
* event kinds are small ints dispatched by an ``if`` chain instead of
  a dict of closures;
* per-worker victim tuples (and actor tuples) are precomputed, and
  worker deques are ``collections.deque`` subclasses, so the steal
  scan's ``len()`` costs no Python call;
* busy/dormant worker counts are maintained incrementally so
  ``active_workers`` and the thief-wakeup scan are O(1) when nothing
  is parked, and a push wakes nobody without a call when no worker
  is dormant;
* a spawn's children are wired in one :meth:`Task.spawn` pass and
  pushed in one :meth:`WorkDeque.push_top_all` call instead of
  ``depend_on``/``finish_dependency_creation``/``admit`` per child;
* a finished task's wake-up of its worker (or of the GPU manager)
  runs at once when no other event is due by then, since it would be
  the next event popped anyway;
* the seeded ``random.Random`` instances are pooled and re-seeded
  instead of constructed per run (bit-identical streams — ``seed()``
  re-derives the exact state ``Random(seed)`` would build).
"""

from __future__ import annotations

import random
from collections import deque as _deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.configuration import Configuration, ConfigurationView
from repro.compiler.compile import CompiledProgram
from repro.errors import RuntimeFault
from repro.hardware.machines import MachineSpec
from repro.hardware.opencl import OpenCLRuntimeModel
from repro.runtime.gpu_manager import GpuState
from repro.runtime.memory_manager import GpuMemoryManager
from repro.runtime.payload import EMPTY_RESULT, PayloadResult
from repro.runtime.stats import RunStats
from repro.runtime.task import Task, TaskKind, TaskState, make_barrier
from repro.runtime.worker import STEAL_COST_S, Worker

#: Event kinds in the agenda (ints: compared never, dispatched often).
_WAKE_WORKER = 0
_DONE_WORKER = 1
_WAKE_GPU = 2
_DONE_GPU = 3

#: Pool of seeded RNGs recycled across runs.  ``Random.seed(n)``
#: rebuilds the exact state ``Random(n)`` constructs, so reuse cannot
#: perturb any stream; the pool only saves the per-run allocation of
#: the 2.5 KB Mersenne state.  Thread-safe via deque's atomic ops.
_RNG_POOL: "_deque[random.Random]" = _deque()
_RNG_POOL_CAP = 32


def _acquire_rng(seed: int) -> random.Random:
    try:
        rng = _RNG_POOL.pop()
    except IndexError:
        return random.Random(seed)
    rng.seed(seed)
    return rng


class RuntimeState:
    """All mutable state of one simulated program run.

    The run reads its configuration only through :attr:`config`, a
    recording :class:`~repro.core.configuration.ConfigurationView`
    built from the :class:`Configuration` it is given; the state keeps
    no reference to the configuration itself.
    """

    __slots__ = (
        "compiled",
        "config",
        "charge_compile_in_run",
        "dedup_copy_ins",
        "numeric",
        "machine",
        "memory",
        "stats",
        "rng",
        "jit",
        "workers",
        "worker_count",
        "gpu",
        "plans",
        "composite_memo",
        "now",
        "_victims",
        "_actors",
        "_agenda",
        "_seq",
        "_live_tasks",
        "_busy_workers",
        "_dormant_workers",
        "_rng_pooled",
    )

    def __init__(
        self,
        compiled: CompiledProgram,
        config: Configuration,
        seed: int = 0,
        jit: Optional[OpenCLRuntimeModel] = None,
        worker_count: Optional[int] = None,
        charge_compile_in_run: bool = False,
        dedup_copy_ins: bool = True,
        numeric: bool = True,
    ) -> None:
        self.compiled = compiled
        self.config = ConfigurationView(config)
        self.charge_compile_in_run = charge_compile_in_run
        self.dedup_copy_ins = dedup_copy_ins
        self.numeric = numeric
        self.machine: MachineSpec = compiled.machine
        self.memory = GpuMemoryManager(
            self.machine.transfer, dedup_copy_ins=dedup_copy_ins, numeric=numeric
        )
        self.stats = RunStats()
        self.rng = _acquire_rng(seed)
        self._rng_pooled = False
        self.jit = jit if jit is not None else self.machine.fresh_jit()
        count = worker_count if worker_count is not None else self.machine.worker_count
        count = max(1, count)
        self.worker_count = count
        self.workers: List[Worker] = [Worker(index=i) for i in range(count)]
        self._victims: Tuple[Tuple[Worker, ...], ...] = tuple(
            tuple(w for w in self.workers if w.index != i) for i in range(count)
        )
        self._actors = tuple(("worker", i) for i in range(count))
        self.gpu: Optional[GpuState] = (
            GpuState(self.machine.opencl_device)
            if self.machine.opencl_device is not None
            else None
        )
        self.plans = compiled.plans
        self.composite_memo: Dict[tuple, object] = {}
        self._agenda: List[tuple] = []
        self._seq = 0
        self._live_tasks = 0
        self._busy_workers = 0
        self._dormant_workers = count  # workers start parked
        self.now = 0.0

    # ------------------------------------------------------------------
    # Agenda
    # ------------------------------------------------------------------

    def active_workers(self) -> int:
        """Number of busy CPU workers (for the shared-bandwidth model)."""
        busy = self._busy_workers
        return busy if busy > 0 else 1

    def select_index(self, transform_name: str, size: int, num_choices: int) -> int:
        """Selector resolution for this run's configuration (memoised by
        the view), clamped to the transform's choices."""
        index = self.config.select_index(transform_name, size)
        return index if index < num_choices else num_choices - 1

    # ------------------------------------------------------------------
    # Task admission and the push rules of Figure 5
    # ------------------------------------------------------------------

    def admit(self, task: Task, actor: Tuple[str, int], now: float) -> None:
        """Enqueue a runnable task according to the Figure 5 push rules.

        Args:
            task: A RUNNABLE task.
            actor: ``("worker", i)`` or ``("gpu", 0)`` — who caused the
                task to become runnable.
            now: Current virtual time.
        """
        if task.state is not TaskState.RUNNABLE:
            raise RuntimeFault(f"cannot admit a {task.state.value} task")
        if task.kind is TaskKind.GPU:
            self._push_gpu(task, now)
        else:
            self._push_cpu([task], actor, now)

    def _push_gpu(self, task: Task, now: float) -> None:
        """Figure 5(a): a runnable GPU task goes to the bottom of the
        GPU queue."""
        if self.gpu is None:
            raise RuntimeFault("GPU task admitted on a machine with no GPU")
        self.gpu.push(task)
        self._wake_gpu(now)

    def _push_cpu(self, tasks: List[Task], actor: Tuple[str, int], now: float) -> None:
        """Figure 5(b) and (c) for runnable CPU tasks, in order: each
        made runnable by the GPU goes to the bottom of a random worker's
        deque; those made runnable by a worker go to the top of its own
        deque, all in one push."""
        if actor[0] == "gpu":
            for task in tasks:
                worker = self.rng.choice(self.workers)
                worker.deque.push_bottom(task)
                self._wake_worker(worker, now)
                self._wake_idle_thieves(now)
            return
        worker = self.workers[actor[1]]
        worker.deque.push_top_all(tasks)
        # Both wakes only act on dormant workers, and each is
        # idempotent until the next park, so one call per push does
        # what one call per task would.
        if self._dormant_workers:
            self._wake_worker(worker, now)
            self._wake_idle_thieves(now)

    def _wake_worker(self, worker: Worker, now: float) -> None:
        if worker.dormant and not worker.busy:
            worker.dormant = False
            self._dormant_workers -= 1
            self._seq += 1
            heappush(self._agenda, (now, self._seq, _WAKE_WORKER, worker.index, None, None))

    def _wake_idle_thieves(self, now: float) -> None:
        """Wake dormant workers so they can attempt steals."""
        if self._dormant_workers == 0:
            return
        agenda = self._agenda
        for worker in self.workers:
            if worker.dormant and not worker.busy:
                worker.dormant = False
                self._dormant_workers -= 1
                self._seq += 1
                heappush(agenda, (now, self._seq, _WAKE_WORKER, worker.index, None, None))

    def _wake_gpu(self, now: float) -> None:
        gpu = self.gpu
        if gpu is not None and gpu.dormant and not gpu.busy:
            gpu.dormant = False
            self._seq += 1
            heappush(self._agenda, (now, self._seq, _WAKE_GPU, None, None, None))

    # ------------------------------------------------------------------
    # Spawning and completion plumbing
    # ------------------------------------------------------------------

    def _handle_result(
        self, task: Task, result: PayloadResult, actor: Tuple[str, int], now: float
    ) -> None:
        """Apply a finished payload's effects (spawn or complete)."""
        if result.requeue_at is not None:
            # Only GPU copy-out completion polls requeue.
            if self.gpu is None:
                raise RuntimeFault("requeue outside the GPU manager")
            self.gpu.requeue(task)
            return

        children = result.children
        if children or result.continuation is not None:
            continuation = result.continuation or make_barrier(f"{task.name}#join")
            ready = task.spawn(children, continuation, result.sequential)
            # The children and the continuation enter the system; the
            # continued task leaves it.
            self._live_tasks += len(children)
            if continuation.state is TaskState.RUNNABLE:
                self.admit(continuation, actor, now)
            # GPU children keep quartet order in the FIFO; CPU children
            # are pushed in reverse so the first spawned sits on top of
            # the deque and runs first (Cilk order).
            ready_cpu: List[Task] = []
            for child in ready:
                if child.kind is TaskKind.GPU:
                    self._push_gpu(child, now)
                else:
                    ready_cpu.append(child)
            if ready_cpu:
                ready_cpu.reverse()
                self._push_cpu(ready_cpu, actor, now)
            return

        released = task.complete()
        self._live_tasks -= 1
        for dependent in released:
            self.admit(dependent, actor, now)

    # ------------------------------------------------------------------
    # Actor loops
    # ------------------------------------------------------------------

    def _on_wake_worker(self, index: int, now: float) -> None:
        worker = self.workers[index]
        if worker.busy:
            return
        task = worker.deque.pop_top()
        start = now
        if task is None:
            task, start = self._try_steal(worker, now)
            if task is None:
                return
        worker.busy = True
        self._busy_workers += 1
        payload = task.payload
        result = payload.run(self, start) if payload is not None else EMPTY_RESULT
        self._seq += 1
        heappush(
            self._agenda,
            (start + result.duration, self._seq, _DONE_WORKER, index, task, result),
        )

    def _try_steal(self, worker: Worker, now: float) -> Tuple[Optional[Task], float]:
        """One steal attempt; returns (task, time-after-attempt)."""
        victims = self._victims[worker.index]
        for victim in victims:
            if len(victim.deque):
                break
        else:
            worker.dormant = True
            self._dormant_workers += 1
            return None, now
        victim = self.rng.choice(victims)
        after = now + STEAL_COST_S
        task = victim.deque.steal_bottom()
        if task is None:
            self.stats.failed_steals += 1
            self._seq += 1
            heappush(
                self._agenda, (after, self._seq, _WAKE_WORKER, worker.index, None, None)
            )
            return None, now
        self.stats.steals += 1
        return task, after

    def _on_done_worker(
        self, index: int, task: Task, result: PayloadResult, now: float
    ) -> None:
        worker = self.workers[index]
        worker.busy = False
        self._busy_workers -= 1
        self._handle_result(task, result, self._actors[index], now)
        self._seq += 1
        agenda = self._agenda
        if agenda and agenda[0][0] <= now:
            heappush(agenda, (now, self._seq, _WAKE_WORKER, index, None, None))
        else:
            # Nothing else is due by ``now``, so this wake-up would be
            # the next event popped: run it without the round trip.
            self._on_wake_worker(index, now)

    def _on_wake_gpu(self, now: float) -> None:
        gpu = self.gpu
        if gpu is None or gpu.busy:
            return
        task = gpu.pop()
        if task is None:
            gpu.dormant = True
            return
        payload = task.payload
        result = payload.run(self, now) if payload is not None else EMPTY_RESULT
        self._seq += 1
        heappush(
            self._agenda, (now + result.duration, self._seq, _DONE_GPU, task, result, None)
        )
        gpu.busy = True

    def _on_done_gpu(self, task: Task, result: PayloadResult, now: float) -> None:
        gpu = self.gpu
        assert gpu is not None
        gpu.busy = False
        self._handle_result(task, result, ("gpu", 0), now)
        if result.requeue_at is not None and len(gpu.fifo) == 1:
            # Nothing else to do until the read lands: sleep till then.
            self._seq += 1
            heappush(
                self._agenda,
                (max(now, result.requeue_at), self._seq, _WAKE_GPU, None, None, None),
            )
        else:
            self._seq += 1
            agenda = self._agenda
            if agenda and agenda[0][0] <= now:
                heappush(agenda, (now, self._seq, _WAKE_GPU, None, None, None))
            else:
                self._on_wake_gpu(now)  # the next event due, as above

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def submit_root(self, root: Task) -> None:
        """Admit the root task of a run (always to worker 0)."""
        if root.state is TaskState.NEW:
            root.finish_dependency_creation()
        self._live_tasks += 1
        worker = self.workers[0]
        worker.deque.push_top(root)
        if worker.dormant:
            worker.dormant = False
            self._dormant_workers -= 1
        self._seq += 1
        heappush(self._agenda, (0.0, self._seq, _WAKE_WORKER, 0, None, None))

    def run_to_completion(self) -> float:
        """Drain the agenda; returns the final virtual time.

        Raises:
            RuntimeFault: On deadlock (events exhausted while tasks
                remain incomplete).
        """
        agenda = self._agenda
        on_wake_worker = self._on_wake_worker
        on_done_worker = self._on_done_worker
        on_wake_gpu = self._on_wake_gpu
        on_done_gpu = self._on_done_gpu
        now = self.now
        while agenda:
            time, _, kind, a, b, c = heappop(agenda)
            if time < now - 1e-12:
                raise RuntimeFault("agenda time went backwards")
            if time > now:
                now = time
            self.now = now
            if kind == _WAKE_WORKER:
                on_wake_worker(a, time)
            elif kind == _DONE_WORKER:
                on_done_worker(a, b, c, time)
            elif kind == _WAKE_GPU:
                on_wake_gpu(time)
            else:
                on_done_gpu(a, b, time)
        if self._live_tasks != 0:
            raise RuntimeFault(
                f"deadlock: {self._live_tasks} task(s) incomplete at time {self.now}"
            )
        if not self._rng_pooled:
            # Recycle the RNG for the next run's RuntimeState; this
            # state's stream is fully consumed (agenda drained).
            self._rng_pooled = True
            if len(_RNG_POOL) < _RNG_POOL_CAP:
                _RNG_POOL.append(self.rng)
        return self.now
