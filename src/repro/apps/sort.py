"""Sort benchmark (paper Section 6.2, Figure 7(d)).

The paper's Sort contains seven algorithms — merge sort, parallel
merge sort, quick sort, insertion sort, selection sort, radix sort and
bitonic sort — with 2-way/4-way variants of the merge sorts.  The
autotuned configurations are *poly-algorithms* that switch technique
at recursive call sites (e.g. Desktop: 2-way merge sort with parallel
merge at the top, quick sort below 64294, 4-way merge sort below that,
insertion sort under 341), and none of the tuned configurations use
OpenCL for the main sorting routine — sorting is one task where the
CPU wins.

Program structure::

    Sort (entry)          copy In -> Out, then sort Out in place
      Copy                data-parallel copy (gets an OpenCL kernel —
                          "some helper functions, such as copy, are
                          mapped to OpenCL")
      SortInPlace         9 choices:
        insertion_sort    sequential base case
        selection_sort    sequential base case (worse constant)
        quick_sort        recursive partition (vectorised)
        merge_sort_2      2-way recursion + sequential merge
        merge_sort_2pm    2-way recursion + parallel (chunked) merge
        merge_sort_4      4-way recursion + sequential merges
        merge_sort_4pm    4-way recursion + parallel merges
        radix_sort        LSD radix passes (sequential pattern)
        bitonic_sort      log^2(n) data-parallel stages — the GPU
                          candidate used by the GPU-only baseline
      ParallelMerge       data-parallel merge of two sorted runs

Cost accounting: recursive bodies charge their split/partition/merge
work through ``ctx.charge``; base cases charge their quadratic cost
and *execute* ``np.sort`` on the region (a correctness-preserving
substitution — the algorithmic identity lives in the charged cost).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.lang import (
    Choice,
    CostSpec,
    Pattern,
    Rule,
    Spawn,
    Step,
    SubInvoke,
    Transform,
    make_program,
)
from repro.lang.program import Program

#: Paper Figure 8: testing input size 2^20.
TESTING_SIZE = 2**20

#: Cost constants (virtual flops per element operation).
_CMP = 1.0
_MOVE_BYTES = 8.0
#: Below this size recursive bodies stop spawning and sort inline
#: (charged at the quadratic base-case cost).  Bounds task-graph size.
_MIN_RECURSE = 64


# ----------------------------------------------------------------------
# Helpers: real merges of sorted runs
# ----------------------------------------------------------------------


def merge_runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two sorted arrays: where an element of ``a`` and
    one of ``b`` compare equal, ``a``'s comes first.

    A stable sort of the concatenation does exactly that, and timsort
    (NumPy's stable sort for floats) finds the two runs and merges them
    in one linear pass.  It gives the same bytes as placing each
    element at its ``searchsorted`` rank (``-0.0``/``0.0`` pairs and
    NaNs included), in a few calls instead of six.  Runs that are
    adjacent in one array merge the same way in place:
    ``array.sort(kind="stable")``.
    """
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


# ----------------------------------------------------------------------
# Base cases (sequential sorts)
# ----------------------------------------------------------------------


def _insertion_body(ctx) -> None:
    """Insertion sort (cost comes from the rule's CostSpec)."""
    ctx.array("Data").sort()


def _selection_body(ctx) -> None:
    """Selection sort (cost comes from the rule's CostSpec)."""
    ctx.array("Data").sort()


def _radix_body(ctx) -> None:
    """LSD radix sort over 8-bit digits (cost from the CostSpec)."""
    ctx.array("Data").sort(kind="stable")


# ----------------------------------------------------------------------
# Recursive sorts
# ----------------------------------------------------------------------


def _quick_body(ctx):
    """Quick sort: vectorised three-way partition, recurse on sides."""
    data = ctx.array("Data")
    n = len(data)
    if n <= _MIN_RECURSE:
        ctx.charge(flops=_CMP * n * n / 4.0, sequential=True)
        data.sort()
        return None
    # Median-of-three pivot and a three-way partition.
    pivot = float(sorted((data[0], data[n // 2], data[-1]))[1])
    less = data[data < pivot]
    equal = data[data == pivot]
    greater = data[data > pivot]
    ctx.charge(flops=2.0 * _CMP * n, mem_bytes=4.0 * _MOVE_BYTES * n)
    data[: len(less)] = less
    data[len(less) : len(less) + len(equal)] = equal
    data[len(less) + len(equal) :] = greater
    children = []
    if len(less) > 1:
        children.append(
            SubInvoke("SortInPlace", {"Data": data[: len(less)]})
        )
    if len(greater) > 1:
        children.append(
            SubInvoke("SortInPlace", {"Data": data[len(less) + len(equal) :]})
        )
    if not children:
        return None
    return Spawn(children=children)


def _split_points(n: int, ways: int) -> List[int]:
    """Even split offsets [0, ..., n] for a k-way merge sort."""
    return [round(i * n / ways) for i in range(ways + 1)]


def _merge_sort_body(ctx, ways: int, parallel_merge: bool):
    """k-way merge sort body: recurse on k runs, then merge them."""
    data = ctx.array("Data")
    n = len(data)
    if n <= max(_MIN_RECURSE, ways):
        ctx.charge(flops=_CMP * n * n / 4.0, sequential=True)
        data.sort()
        return None
    edges = _split_points(n, ways)
    ctx.charge(flops=_CMP * ways, mem_bytes=0.0)
    children = [
        SubInvoke("SortInPlace", {"Data": data[edges[i] : edges[i + 1]]})
        for i in range(ways)
        if edges[i + 1] - edges[i] > 1
    ]

    def combine(cctx):
        # The children sorted the runs in place, side by side in
        # ``data``: merging runs 0..k is one stable sort of their
        # prefix, charged as the run-by-run merges it stands for (each
        # merge costs the length of its result).
        if parallel_merge and n > 64:
            # Merge all but the last run, then hand the final merge to
            # the data-parallel ParallelMerge transform.
            head = edges[ways - 1]
            for merged in edges[2:ways]:
                cctx.charge(flops=_CMP * merged, mem_bytes=3 * _MOVE_BYTES * merged)
            a = data[:head].copy()
            a.sort(kind="stable")
            b = data[head:].copy()
            return Spawn(
                children=[
                    SubInvoke("ParallelMerge", {"A": a, "B": b, "Out": data})
                ]
            )
        for merged in edges[2:]:
            cctx.charge(
                flops=_CMP * merged,
                mem_bytes=3 * _MOVE_BYTES * merged,
                sequential=True,
            )
        data.sort(kind="stable")
        cctx.charge(mem_bytes=_MOVE_BYTES * n)
        return None

    return Spawn(children=children, combine=combine)


def _merge2_body(ctx):
    return _merge_sort_body(ctx, ways=2, parallel_merge=False)


def _merge2pm_body(ctx):
    return _merge_sort_body(ctx, ways=2, parallel_merge=True)


def _merge4_body(ctx):
    return _merge_sort_body(ctx, ways=4, parallel_merge=False)


def _merge4pm_body(ctx):
    return _merge_sort_body(ctx, ways=4, parallel_merge=True)


def _bitonic_body(ctx) -> None:
    """Bitonic sorting network: n/2 compare-exchanges per stage,
    log2(n)*(log2(n)+1)/2 stages (cost from the CostSpec)."""
    data = ctx.array("Data")
    r0, r1 = ctx.rows
    data[r0:r1] = np.sort(data[r0:r1])


def _bitonic_launches(params) -> int:
    n = max(2, int(params.get("_size", 2)))
    stages = int(math.log2(n))
    return stages * (stages + 1) // 2


# ----------------------------------------------------------------------
# Parallel merge (data parallel, chunkable, OpenCL-mappable)
# ----------------------------------------------------------------------


def _parallel_merge_body(ctx) -> None:
    """Merge-path chunk of the output of merging sorted A and B."""
    a = ctx.input("A")
    b = ctx.input("B")
    out = ctx.array("Out")
    r0, r1 = ctx.rows
    ia0 = _merge_path(a, b, r0)
    ia1 = _merge_path(a, b, r1)
    ib0, ib1 = r0 - ia0, r1 - ia1
    out[r0:r1] = merge_runs(a[ia0:ia1], b[ib0:ib1])


def _merge_path(a: np.ndarray, b: np.ndarray, k: int) -> int:
    """Number of elements of ``a`` among the first ``k`` merged items.

    Binary search on the merge path (the classic parallel-merge
    partitioning step).
    """
    lo = max(0, k - len(b))
    hi = min(k, len(a))
    while lo < hi:
        mid = (lo + hi) // 2
        if mid < len(a) and k - mid - 1 >= 0 and a[mid] < b[k - mid - 1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# Rules and transforms
# ----------------------------------------------------------------------


def _copy_body(ctx) -> None:
    src = ctx.input("In")
    out = ctx.array("Out")
    r0, r1 = ctx.rows
    out[r0:r1] = src[r0:r1]


def _seq_sort_rule(name: str, body, flops_factor: float) -> Rule:
    """A sequential base-case sort rule (insertion/selection style)."""
    return Rule(
        name=name,
        reads=("Data",),
        writes=("Data",),
        body=body,
        pattern=Pattern.SEQUENTIAL,
        divisible=False,
        cost=CostSpec(
            flops_per_item=lambda p, f=flops_factor: f * p.get("_size", 1.0),
            bytes_read_per_item=_MOVE_BYTES,
            bytes_written_per_item=_MOVE_BYTES,
            sequential_fraction=1.0,
        ),
    )


def _recursive_sort_rule(name: str, body) -> Rule:
    return Rule(
        name=name,
        reads=("Data",),
        writes=("Data",),
        body=body,
        pattern=Pattern.RECURSIVE,
        divisible=False,
    )


_RULES = {
    "insertion_sort": _seq_sort_rule("insertion_sort", _insertion_body, 0.25),
    "selection_sort": _seq_sort_rule("selection_sort", _selection_body, 0.5),
    "quick_sort": _recursive_sort_rule("quick_sort", _quick_body),
    "merge_sort_2": _recursive_sort_rule("merge_sort_2", _merge2_body),
    "merge_sort_2pm": _recursive_sort_rule("merge_sort_2pm", _merge2pm_body),
    "merge_sort_4": _recursive_sort_rule("merge_sort_4", _merge4_body),
    "merge_sort_4pm": _recursive_sort_rule("merge_sort_4pm", _merge4pm_body),
    "radix_sort": Rule(
        name="radix_sort",
        reads=("Data",),
        writes=("Data",),
        body=_radix_body,
        pattern=Pattern.SEQUENTIAL,
        divisible=False,
        cost=CostSpec(
            flops_per_item=24.0,
            bytes_read_per_item=16.0 * 8,
            bytes_written_per_item=16.0 * 8,
            kernel_launches=8,
            # The scatter phase of each pass is a serial pointer-chase
            # in this formulation; writing a *parallel* GPU radix sort
            # takes heroic effort (Section 6.2 discusses exactly this),
            # so the generated kernel runs at scalar rate.
            sequential_fraction=1.0,
        ),
    ),
    "bitonic_sort": Rule(
        name="bitonic_sort",
        reads=("Data",),
        writes=("Data",),
        body=_bitonic_body,
        pattern=Pattern.SEQUENTIAL,
        divisible=False,
        cost=CostSpec(
            flops_per_item=lambda p: 0.5 * _bitonic_launches(p),
            bytes_read_per_item=lambda p: _MOVE_BYTES * _bitonic_launches(p),
            bytes_written_per_item=lambda p: _MOVE_BYTES * _bitonic_launches(p),
            kernel_launches=_bitonic_launches,
        ),
    ),
}

#: Order of the authored SortInPlace choices (selector algorithm 0 is
#: insertion sort — a safe, if slow, default at any size).
CHOICE_ORDER = (
    "insertion_sort",
    "selection_sort",
    "quick_sort",
    "merge_sort_2",
    "merge_sort_2pm",
    "merge_sort_4",
    "merge_sort_4pm",
    "radix_sort",
    "bitonic_sort",
)

_COPY_RULE = Rule(
    name="copy",
    reads=("In",),
    writes=("Out",),
    body=_copy_body,
    pattern=Pattern.DATA_PARALLEL,
    cost=CostSpec(
        flops_per_item=1.0, bytes_read_per_item=8.0, bytes_written_per_item=8.0
    ),
)

_PMERGE_RULE = Rule(
    name="parallel_merge",
    reads=("A", "B"),
    writes=("Out",),
    body=_parallel_merge_body,
    pattern=Pattern.DATA_PARALLEL,
    cost=CostSpec(
        flops_per_item=lambda p: 2.0 * math.log2(max(2.0, p.get("_size", 2.0))),
        bytes_read_per_item=16.0,
        bytes_written_per_item=8.0,
    ),
)


def build_program() -> Program:
    """The Sort program with its nine-algorithm choice space."""
    copy = Transform(
        name="Copy",
        inputs=("In",),
        outputs=("Out",),
        choices=(Choice(name="copy", rule=_COPY_RULE),),
    )
    sort_in_place = Transform(
        name="SortInPlace",
        inputs=("Data",),
        outputs=("Data",),
        choices=tuple(Choice(name=name, rule=_RULES[name]) for name in CHOICE_ORDER),
    )
    parallel_merge = Transform(
        name="ParallelMerge",
        inputs=("A", "B"),
        outputs=("Out",),
        choices=(Choice(name="merge", rule=_PMERGE_RULE),),
    )
    entry = Transform(
        name="Sort",
        inputs=("In",),
        outputs=("Out",),
        choices=(
            Choice(
                name="copy_then_sort",
                steps=(
                    Step(transform="Copy"),
                    Step(
                        transform="SortInPlace",
                        bindings={"Data": "Out"},
                        dynamic_consumer=True,
                    ),
                ),
            ),
        ),
    )
    return make_program(
        "Sort", [entry, copy, sort_in_place, parallel_merge], "Sort"
    )


def make_env(size: int, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic random input + preallocated output."""
    rng = np.random.default_rng(seed)
    return {"In": rng.random(size), "Out": np.zeros(size)}


def reference(env: Dict[str, np.ndarray]) -> np.ndarray:
    """Reference sorted output."""
    return np.sort(env["In"])
