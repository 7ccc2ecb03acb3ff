"""The PetaBricks task model (paper Section 4.1).

Tasks form an arbitrary non-cyclic dependency graph (unlike Cilk's
strict fork/join).  Each task keeps a dependency count and a list of
dependent tasks; a task that finishes with a continuation transfers its
dependents to the continuation, and later attempts to depend on it
follow the continuation pointer (recursively).

The five states and their transitions are implemented exactly as the
paper describes:

* ``NEW`` — dependencies may only be added in this state, and only on
  tasks that are not yet complete; finishing dependency creation moves
  the task to ``RUNNABLE`` (count zero) or ``NON_RUNNABLE``.
* ``NON_RUNNABLE`` — waiting; stored only in dependents lists.
* ``RUNNABLE`` — in exactly one deque (or the GPU FIFO) or executing.
* ``COMPLETE`` — decrements dependents, clears its list; subsequent
  ``depend_on`` calls are no-ops.
* ``CONTINUED`` — finished but replaced by a continuation task.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import RuntimeFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.payload import Payload


class TaskState(enum.Enum):
    """Lifecycle states of a task (paper Section 4.1)."""

    NEW = "new"
    NON_RUNNABLE = "non_runnable"
    RUNNABLE = "runnable"
    COMPLETE = "complete"
    CONTINUED = "continued"


class TaskKind(enum.Enum):
    """Whether a task runs on a CPU worker or the GPU manager.

    CPU worker deques may only hold CPU tasks; the GPU management
    thread's FIFO may only hold GPU tasks (paper Section 4.2).
    """

    CPU = "cpu"
    GPU = "gpu"


_task_ids = itertools.count(1)


class Task:
    """One schedulable unit of work.

    Attributes:
        task_id: Unique id (creation order), useful in traces.
        name: Debug label.
        kind: CPU or GPU task.
        state: Current :class:`TaskState`.
        payload: The executable payload (None = pure synchronisation
            barrier that completes instantly when it runs).
        dependents: Tasks waiting on this one.
        dependency_count: Unsatisfied dependencies.
        continuation: Set when the task finished with a continuation.
    """

    __slots__ = (
        "task_id",
        "name",
        "kind",
        "state",
        "payload",
        "dependents",
        "dependency_count",
        "continuation",
    )

    def __init__(
        self,
        name: str,
        kind: TaskKind = TaskKind.CPU,
        payload: Optional["Payload"] = None,
    ) -> None:
        self.task_id = next(_task_ids)
        self.name = name
        self.kind = kind
        self.state = TaskState.NEW
        self.payload = payload
        self.dependents: List[Task] = []
        self.dependency_count = 0
        self.continuation: Optional[Task] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.task_id} {self.name!r} {self.state.value}>"

    def resolve_continuations(self) -> "Task":
        """Follow continuation pointers to the live task.

        Attempts to depend on a ``CONTINUED`` task must instead depend
        on its continuation (possibly recursively).
        """
        task: Task = self
        seen = 0
        while task.state is TaskState.CONTINUED:
            if task.continuation is None:
                raise RuntimeFault(f"{task!r} continued without a continuation")
            task = task.continuation
            seen += 1
            if seen > 10_000:
                raise RuntimeFault("continuation chain too long; cycle suspected")
        return task

    def depend_on(self, dependency: "Task") -> bool:
        """Make this task wait for ``dependency``.

        Only legal while this task is ``NEW``.  Depending on a complete
        task is a no-op (returns False); depending on a continued task
        follows the continuation chain.

        Args:
            dependency: Task that must complete first.

        Returns:
            True when a dependency edge was actually created.

        Raises:
            RuntimeFault: If this task is no longer in the NEW state.
        """
        if self.state is not TaskState.NEW:
            raise RuntimeFault(
                f"dependencies may only be added to NEW tasks, not {self.state.value}"
            )
        target = dependency.resolve_continuations()
        if target.state is TaskState.COMPLETE:
            return False
        self.dependency_count += 1
        target.dependents.append(self)
        return True

    def finish_dependency_creation(self) -> bool:
        """Transition out of NEW once all dependencies are declared.

        Returns:
            True when the task became RUNNABLE, False when it became
            NON_RUNNABLE.
        """
        if self.state is not TaskState.NEW:
            raise RuntimeFault(f"finish_dependency_creation on {self.state.value} task")
        if self.dependency_count == 0:
            self.state = TaskState.RUNNABLE
            return True
        self.state = TaskState.NON_RUNNABLE
        return False

    def complete(self) -> List["Task"]:
        """Mark complete and release dependents.

        Returns:
            Dependents whose dependency count reached zero — the caller
            (worker or GPU manager) is responsible for enqueuing them,
            which is where the push rules of paper Figure 5 apply.
        """
        if self.state not in (TaskState.RUNNABLE, TaskState.NEW):
            raise RuntimeFault(f"cannot complete a {self.state.value} task")
        self.state = TaskState.COMPLETE
        ready: List[Task] = []
        for dependent in self.dependents:
            dependent.dependency_count -= 1
            if dependent.dependency_count < 0:
                raise RuntimeFault(f"negative dependency count on {dependent!r}")
            if dependent.dependency_count == 0:
                if dependent.state is TaskState.NON_RUNNABLE:
                    dependent.state = TaskState.RUNNABLE
                    ready.append(dependent)
                # NEW dependents with count zero become runnable when
                # their own finish_dependency_creation runs.
        self.dependents.clear()
        return ready

    def continue_with(self, continuation: "Task") -> None:
        """Finish this task by replacing it with a continuation.

        The dependents list is transferred to the continuation, so
        anything waiting on this task now waits on the continuation
        (paper Section 4.1, *continued* state).

        Args:
            continuation: The replacement task (any state but COMPLETE).
        """
        if self.state is not TaskState.RUNNABLE:
            raise RuntimeFault(f"cannot continue a {self.state.value} task")
        self.state = TaskState.CONTINUED
        self.continuation = continuation
        if self.dependents:
            if continuation.state is TaskState.COMPLETE:
                raise RuntimeFault("continuation completed before dependents moved")
            continuation.dependents.extend(self.dependents)
            self.dependents.clear()

    def spawn(
        self, children: Sequence["Task"], continuation: "Task", sequential: bool
    ) -> List["Task"]:
        """Finish this running task by spawning ``children`` and
        replacing it with ``continuation``, which waits for them all.

        One pass does what these calls would, with the same edges in
        the same order: ``continuation.depend_on(child)`` for each
        child (preceded, when ``sequential``, by
        ``child.depend_on(previous_child)``), then
        :meth:`continue_with`, then :meth:`finish_dependency_creation`
        on every child and on the continuation.  Every child and the
        continuation must be ``NEW``.

        Returns:
            The children that became RUNNABLE, in spawn order.  The
            continuation is RUNNABLE afterwards exactly when there were
            no children (and it had no dependencies of its own).

        Raises:
            RuntimeFault: If this task is not RUNNABLE, or a child or
                the continuation is not NEW.
        """
        if self.state is not TaskState.RUNNABLE:
            raise RuntimeFault(f"cannot continue a {self.state.value} task")
        if continuation.state is not TaskState.NEW:
            raise RuntimeFault(
                f"dependencies may only be added to NEW tasks, not "
                f"{continuation.state.value}"
            )
        ready: List[Task] = []
        previous: Optional[Task] = None
        for child in children:
            if child.state is not TaskState.NEW:
                raise RuntimeFault(
                    f"finish_dependency_creation on {child.state.value} task"
                )
            if sequential and previous is not None:
                child.dependency_count += 1
                previous.dependents.append(child)
            child.dependents.append(continuation)
            if child.dependency_count == 0:
                child.state = TaskState.RUNNABLE
                ready.append(child)
            else:
                child.state = TaskState.NON_RUNNABLE
            previous = child
        if continuation.state is not TaskState.NEW:  # it was also a child
            raise RuntimeFault(
                f"finish_dependency_creation on {continuation.state.value} task"
            )
        continuation.dependency_count += len(children)
        self.state = TaskState.CONTINUED
        self.continuation = continuation
        if self.dependents:
            continuation.dependents.extend(self.dependents)
            self.dependents.clear()
        continuation.state = (
            TaskState.RUNNABLE
            if continuation.dependency_count == 0
            else TaskState.NON_RUNNABLE
        )
        return ready


def make_barrier(name: str, kind: TaskKind = TaskKind.CPU) -> Task:
    """A dependency-only task that completes instantly when executed."""
    return Task(name=name, kind=kind, payload=None)
