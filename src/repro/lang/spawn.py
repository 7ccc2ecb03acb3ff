"""Structured-parallelism descriptors returned by rule bodies.

The PetaBricks runtime supports tasks that return *continuation tasks*
(paper Section 4.1): a recursive rule splits its problem, spawns child
work, and finishes in a combine step that runs after the children.  In
this embedding, a rule body expresses that shape by returning a
:class:`Spawn` whose children are :class:`SubInvoke` descriptors; the
runtime turns each child into an invocation of the named transform —
resolving the autotuned *selector* at the child's input size, which is
exactly how poly-algorithms form at recursive call sites (Section 5.1).

Bodies that complete inline simply return ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LanguageError


@dataclass(slots=True, init=False)
class SubInvoke:
    """A request to invoke a transform on a concrete environment.

    Recursive bodies build one per child on every spawn, so the class
    has slots and one hand-written ``__init__`` that also checks it.

    Attributes:
        transform: Name of the transform to invoke.
        env: Matrix environment for the callee: maps the callee's
            matrix names to numpy arrays (typically views into the
            caller's arrays, so results land in place).
        params: Parameter mapping for the callee (e.g. kernel width);
            empty when omitted.
        size_hint: Problem size used by the selector to pick the
            callee's algorithm; defaults to the element count of the
            callee's first output when omitted.
    """

    transform: str
    env: Dict[str, np.ndarray]
    params: Dict[str, float]
    size_hint: Optional[int]

    def __init__(
        self,
        transform: str,
        env: Dict[str, np.ndarray],
        params: Optional[Dict[str, float]] = None,
        size_hint: Optional[int] = None,
    ) -> None:
        if not transform:
            raise LanguageError("SubInvoke.transform must be non-empty")
        for name, arr in env.items():
            if not isinstance(arr, np.ndarray):
                raise LanguageError(
                    f"SubInvoke env entry {name!r} must be a numpy array"
                )
        self.transform = transform
        self.env = env
        self.params = {} if params is None else params
        self.size_hint = size_hint


@dataclass
class Spawn:
    """Continuation-style result of a rule body.

    The runtime creates one task per child, plus a continuation task
    running ``combine`` once every child has completed.  ``combine``
    receives the original rule context and may itself return another
    :class:`Spawn` (arbitrarily deep recursion).

    Attributes:
        children: Sub-invocations to run (potentially in parallel —
            they are pushed onto the spawning worker's deque and may be
            stolen).
        combine: Optional continuation body; ``None`` means the spawn
            completes when its children do.
        sequential: When True the children must run one after another
            (e.g. iterative phases); they are chained by dependencies
            instead of being made concurrently runnable.
    """

    children: Sequence[SubInvoke]
    combine: Optional[Callable[[object], Optional["Spawn"]]] = None
    sequential: bool = False

    def __post_init__(self) -> None:
        if not self.children and self.combine is None:
            raise LanguageError("Spawn must have children or a combine body")
