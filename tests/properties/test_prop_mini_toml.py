"""Property test: the mini-TOML fallback never reads a file differently
from :mod:`tomllib`.

On interpreters without :mod:`tomllib` a ``repro.toml`` is read by
``_parse_mini_toml``, which may refuse valid TOML outside its subset
but must never accept a file :mod:`tomllib` rejects, nor return other
values than it does.  The alphabet is what the subset's grammar turns
on: brackets, quotes, ``=``, ``#``, dots, digits, signs, exponents,
boolean letters, line endings (CR included), escapes and a few control
and non-ASCII characters.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # optional test-only dependency
tomllib = pytest.importorskip("tomllib")  # Python 3.11+: the reference

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import _parse_mini_toml
from repro.errors import ConfigError

_ALPHABET = 'ab_-=[]"#.\t \n\r01+e5xtrufalsE\\\'\x00\x7fé'


@given(st.text(alphabet=_ALPHABET, max_size=40))
@settings(max_examples=2000, deadline=None)
def test_the_fallback_refuses_or_agrees_with_tomllib(text):
    try:
        fallback = _parse_mini_toml(text, "test.toml")
    except ConfigError:
        return
    # repr, not ==: True == 1 and 1 == 1.0, but a bool, an int and a
    # float are three different readings.
    assert repr(fallback) == repr(tomllib.loads(text))
