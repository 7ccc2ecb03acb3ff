"""Property-based tests: row chunking and deque discipline."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.prepared import row_chunks
from repro.runtime.deque import WorkDeque
from repro.runtime.task import Task, TaskState


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=512))
def test_row_chunks_partition_exactly(height, count):
    chunks = row_chunks(height, count)
    # Non-empty, contiguous, covering, disjoint.
    assert chunks[0][0] == 0
    assert chunks[-1][1] == height
    for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
        assert a1 == b0
        assert a0 < a1
    assert all(r0 < r1 for r0, r1 in chunks)
    assert len(chunks) <= min(count, height)


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=512))
def test_row_chunks_balanced(height, count):
    chunks = row_chunks(height, count)
    sizes = [r1 - r0 for r0, r1 in chunks]
    assert max(sizes) - min(sizes) <= 1


@given(st.lists(st.sampled_from(["push", "pop", "steal"]), max_size=200),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60)
def test_deque_is_a_consistent_sequence(ops, seed):
    """Under any interleaving of owner pushes/pops and thief steals,
    every task is returned exactly once and the owner sees LIFO order
    among the tasks it gets back."""
    deque = WorkDeque(0)
    rng = random.Random(seed)
    pushed = []
    returned = []
    counter = 0
    for op in ops:
        if op == "push":
            task = Task(f"t{counter}")
            counter += 1
            task.finish_dependency_creation()
            deque.push_top(task)
            pushed.append(task)
        elif op == "pop":
            task = deque.pop_top()
            if task is not None:
                returned.append(task)
        else:
            task = deque.steal_bottom()
            if task is not None:
                returned.append(task)
    # Drain.
    while True:
        task = deque.pop_top()
        if task is None:
            break
        returned.append(task)
    assert len(returned) == len(pushed)
    assert {t.task_id for t in returned} == {t.task_id for t in pushed}
