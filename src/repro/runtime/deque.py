"""THE-protocol work-stealing deque (paper Section 4.1).

Each CPU worker owns one deque: the owner pushes and pops at the *top*
(LIFO, preserving locality) while thieves steal from the *bottom*
(FIFO, taking the oldest — usually largest — work).  The simulation is
single-threaded, so the protocol's atomicity is trivially satisfied;
the class still enforces the owner/thief access discipline so that the
scheduling behaviour matches the real runtime's.
"""

from __future__ import annotations

from collections import deque as _deque
from typing import Optional, Sequence

from repro.errors import RuntimeFault
from repro.runtime.task import Task, TaskKind, TaskState


class WorkDeque(_deque):
    """A double-ended task queue with owner-top / thief-bottom access.

    It is a :class:`collections.deque` (top = right end), so ``len()``
    and truth tests, which the scheduler's steal scan makes on every
    victim, cost no Python call; tasks enter only through the checked
    push methods below.

    Attributes:
        owner_id: Worker index owning this deque (for diagnostics).
    """

    __slots__ = ("owner_id", "pushes", "steals_suffered")

    def __init__(self, owner_id: int) -> None:
        super().__init__()
        self.owner_id = owner_id
        self.pushes = 0
        self.steals_suffered = 0

    def push_top(self, task: Task) -> None:
        """Owner pushes a runnable CPU task onto the top.

        Raises:
            RuntimeFault: For GPU tasks or non-runnable tasks — CPU
                deques may only contain runnable CPU tasks.
        """
        self.push_top_all((task,))

    def push_top_all(self, tasks: Sequence[Task]) -> None:
        """Owner pushes ``tasks`` onto the top, in order (the last ends
        on top): :meth:`push_top` for each, in one call.

        Raises:
            RuntimeFault: As :meth:`push_top`, before any is pushed.
        """
        for task in tasks:
            if task.kind is not TaskKind.CPU:
                raise RuntimeFault("CPU worker deques may only contain CPU tasks")
            if task.state is not TaskState.RUNNABLE:
                raise RuntimeFault(f"cannot enqueue a {task.state.value} task")
        self.extend(tasks)
        self.pushes += len(tasks)

    def push_bottom(self, task: Task) -> None:
        """The GPU manager pushes a newly runnable CPU task at the bottom.

        Paper Figure 5(b): when a GPU task causes a CPU task to become
        runnable, the GPU management thread pushes it to the *bottom*
        of a random worker's deque.
        """
        if task.kind is not TaskKind.CPU:
            raise RuntimeFault("CPU worker deques may only contain CPU tasks")
        if task.state is not TaskState.RUNNABLE:
            raise RuntimeFault(f"cannot enqueue a {task.state.value} task")
        self.appendleft(task)
        self.pushes += 1

    def pop_top(self) -> Optional[Task]:
        """Owner pops its most recently pushed task (LIFO)."""
        return self.pop() if self else None

    def steal_bottom(self) -> Optional[Task]:
        """A thief steals the oldest task (FIFO end)."""
        if not self:
            return None
        self.steals_suffered += 1
        return self.popleft()
