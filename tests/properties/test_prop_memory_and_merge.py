"""Property-based tests: memory-manager consistency and the sort
benchmark's merge helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps import sort
from repro.apps.sort import _merge_path, merge_runs
from repro.hardware.transfer import TransferModel
from repro.lang.rule import RuleContext
from repro.runtime.memory_manager import GpuMemoryManager


sorted_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=64),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
).map(np.sort)


@given(sorted_arrays, sorted_arrays)
def test_merge_runs_is_a_sorted_permutation(a, b):
    merged = merge_runs(a, b)
    assert len(merged) == len(a) + len(b)
    np.testing.assert_array_equal(np.sort(merged), merged)
    np.testing.assert_array_equal(
        np.sort(merged), np.sort(np.concatenate([a, b]))
    )


def reference_merge_runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The merge ``merge_runs`` replaced, kept as its byte reference:
    each element placed at its ``searchsorted`` rank, ``a`` first on
    ties."""
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    idx_a = np.arange(len(a)) + np.searchsorted(b, a, side="left")
    idx_b = np.arange(len(b)) + np.searchsorted(a, b, side="right")
    out[idx_a] = a
    out[idx_b] = b
    return out


#: Floats that sort awkwardly, drawn often enough to repeat: signed
#: zeros compare equal, NaNs sort last.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)
edge_sorted_arrays = hnp.arrays(
    dtype=np.float64, shape=st.integers(min_value=0, max_value=300), elements=edge_floats
).map(np.sort)


@given(edge_sorted_arrays, edge_sorted_arrays)
@settings(max_examples=300)
def test_merge_runs_matches_the_searchsorted_merge_byte_for_byte(a, b):
    assert merge_runs(a, b).tobytes() == reference_merge_runs(a, b).tobytes()


def reference_combine(data, ways, parallel_merge, cctx):
    """The k-way merge-sort combine before it merged by stable sort:
    copy the runs, merge them one by one, charge each merge."""
    n = len(data)
    edges = sort._split_points(n, ways)
    runs = [data[edges[i] : edges[i + 1]].copy() for i in range(ways)]
    if parallel_merge and n > 64:
        while len(runs) > 2:
            merged = reference_merge_runs(runs[0], runs[1])
            cctx.charge(
                flops=sort._CMP * len(merged),
                mem_bytes=3 * sort._MOVE_BYTES * len(merged),
            )
            runs = [merged] + runs[2:]
        return tuple(runs)  # what the ParallelMerge child receives
    merged = runs[0]
    for run in runs[1:]:
        merged = reference_merge_runs(merged, run)
        cctx.charge(
            flops=sort._CMP * len(merged),
            mem_bytes=3 * sort._MOVE_BYTES * len(merged),
            sequential=True,
        )
    data[:] = merged
    cctx.charge(mem_bytes=sort._MOVE_BYTES * n)
    return None


@given(
    hnp.arrays(
        dtype=np.float64, shape=st.integers(min_value=65, max_value=300), elements=edge_floats
    ),
    st.sampled_from([2, 4]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_merge_sort_combines_match_the_run_by_run_merges(values, ways, parallel_merge):
    """Sort's combines merge their sorted runs by one stable sort of
    ``data``: same bytes, same spawned ParallelMerge inputs and the
    same charges as merging the runs one by one."""
    data = values.copy()
    spawn = sort._merge_sort_body(
        RuleContext({"Data": data}, {}, (0, len(data))), ways, parallel_merge
    )
    for child in spawn.children:
        child.env["Data"].sort()  # each child sorts its run in place
    expected = data.copy()
    reference_ctx = RuleContext({"Data": expected}, {}, (0, len(data)))
    reference = reference_combine(expected, ways, parallel_merge, reference_ctx)

    ctx = RuleContext({"Data": data}, {}, (0, len(data)))
    result = spawn.combine(ctx)
    assert ctx.charged == reference_ctx.charged
    assert data.tobytes() == expected.tobytes()
    if reference is None:
        assert result is None
        return
    (merge,) = result.children
    assert merge.transform == "ParallelMerge" and merge.env["Out"] is data
    assert merge.env["A"].tobytes() == reference[0].tobytes()
    assert merge.env["B"].tobytes() == reference[1].tobytes()


@given(sorted_arrays, sorted_arrays, st.data())
def test_merge_path_partitions_consistently(a, b, data):
    k = data.draw(st.integers(min_value=0, max_value=len(a) + len(b)))
    ia = _merge_path(a, b, k)
    ib = k - ia
    assert 0 <= ia <= len(a)
    assert 0 <= ib <= len(b)
    # Everything taken must not exceed anything left behind.
    if ia > 0 and ib < len(b):
        assert a[ia - 1] <= b[ib] or np.isclose(a[ia - 1], b[ib])
    if ib > 0 and ia < len(a):
        assert b[ib - 1] <= a[ia] or np.isclose(b[ib - 1], a[ia])


@given(sorted_arrays, sorted_arrays, st.integers(min_value=1, max_value=5))
def test_chunked_merge_equals_full_merge(a, b, chunks):
    """Merging chunk-by-chunk along merge paths reproduces the full
    merge (this is what the ParallelMerge rule does per work chunk)."""
    total = len(a) + len(b)
    out = np.empty(total)
    edges = [round(i * total / chunks) for i in range(chunks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        ia0, ia1 = _merge_path(a, b, lo), _merge_path(a, b, hi)
        out[lo:hi] = merge_runs(a[ia0:ia1], b[lo - ia0 : hi - ia1])
    np.testing.assert_array_equal(out, merge_runs(a, b))


host_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 16), st.integers(1, 8)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@given(host_arrays, st.data())
@settings(max_examples=50)
def test_memory_manager_roundtrip_preserves_data(host, data):
    """Any sequence of copy-in / device-write / copy-out operations
    leaves host equal to the logical latest values."""
    manager = GpuMemoryManager(TransferModel(latency_s=1e-6, bandwidth_gbs=10))
    manager.copy_in(host)
    buffer = manager.lookup(host)
    np.testing.assert_array_equal(buffer.device, host)

    rows = host.shape[0]
    r0 = data.draw(st.integers(0, rows - 1))
    r1 = data.draw(st.integers(r0 + 1, rows))
    buffer.device[r0:r1] += 1.0
    manager.record_device_write(host, (r0, r1))

    expected = host.copy()
    expected[r0:r1] += 1.0
    manager.ensure_host(host)
    np.testing.assert_array_equal(host, expected)
    # Idempotent once synced.
    assert manager.ensure_host(host) == 0.0


@given(host_arrays)
@settings(max_examples=30)
def test_dedup_never_loses_host_updates(host):
    """Invalidate-then-copy-in must always re-upload fresh host data."""
    manager = GpuMemoryManager(TransferModel(latency_s=1e-6, bandwidth_gbs=10))
    manager.copy_in(host)
    host += 5.0
    manager.invalidate_device(host)
    manager.copy_in(host)
    np.testing.assert_array_equal(manager.lookup(host).device, host)
