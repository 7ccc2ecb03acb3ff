"""Property tests: a changed byte of a stored report or a graph node is
never served.

The checkpoint store and the derivation-graph store seal every entry
with a checksum of its content (:func:`repro.core.atomic_json.sealed`).
Whichever byte of a written file changes, and to whatever value, a read
returns the payload that was written or nothing — never a different
payload that happens to parse.
"""

from __future__ import annotations

import tempfile

import pytest

pytest.importorskip("hypothesis")  # optional test-only dependency

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts.store import DerivationStore
from repro.core.driver import CHECKPOINT_VERSION, CheckpointStore
from repro.core.result_cache import execution_model_hash

#: JSON values as reports and graph nodes hold them: finite or infinite
#: floats (NaN never equals itself), integers, text, nested dicts and
#: lists.
_json = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=12,
)

_payloads = st.dictionaries(st.text(max_size=10), _json, max_size=6)

#: A report payload as the driver stores it.
REPORT = {
    "best": '{"label":"Desktop Config","program":"Sort","selectors":{}}',
    "best_time_s": 5.7068e-05,
    "tuning_time_s": 0.0123,
    "evaluations": 102,
    "sizes": [64, 256, 1024, 4096],
    "history": [1.5e-06, 6.25e-06, 2.4e-05, 5.7068e-05],
    "computed_evaluations": 39,
    "strategy": "evolutionary",
    "seed": 1,
}

IDENTITY = {
    "version": CHECKPOINT_VERSION,
    "model": execution_model_hash(),
    "program": "Sort",
    "machine": "Desktop",
    "seed": 1,
}

LOCATION = {"graph": 2, "node": "report", "program": "Sort", "seed": 1}


def _change_one_byte(path: str, data) -> None:
    with open(path, "rb") as handle:
        content = handle.read()
    at = data.draw(st.integers(min_value=0, max_value=len(content) - 1))
    mask = data.draw(st.integers(min_value=1, max_value=255))
    with open(path, "wb") as handle:
        handle.write(content[:at] + bytes([content[at] ^ mask]) + content[at + 1 :])


@given(report=st.one_of(st.just(REPORT), _payloads), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_stored_report_with_a_changed_byte_is_never_served(report, data):
    with tempfile.TemporaryDirectory() as directory:
        store = CheckpointStore(directory)
        store.save(IDENTITY, {"complete": True, "report": report})
        _change_one_byte(store.path_for(IDENTITY), data)
        scanned = [payload for _identity, payload in store.finished_reports()]
        assert scanned in ([], [report])
        entry = store.load(IDENTITY)
        assert entry is None or (entry["complete"] and entry["report"] == report)


@given(payload=st.one_of(st.just({"digest": "ab" * 8, "report": REPORT}), _payloads),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_graph_node_with_a_changed_byte_is_never_served(payload, data):
    with tempfile.TemporaryDirectory() as directory:
        store = DerivationStore(directory)
        store.put(LOCATION, payload)
        _change_one_byte(store._path_for(LOCATION), data)
        assert store.get(LOCATION) in (None, payload)
