"""Property: a fault spec is refused when it is parsed, or every action
it installs can fire.

``REPRO_FAULTS`` and ``TunerConfig.fault_spec`` are read from outside
the program.  A clause whose argument cannot be used (seconds that
``time.sleep`` refuses, an ``errno`` name that does not exist) must
raise :class:`ConfigError` at parse time, not when its fault fires deep
inside a worker.
"""

import errno
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.errors import ConfigError

#: Argument texts: good and bad seconds, errno names, and the number
#: spellings the config grammar refuses.
ARGS = st.one_of(
    st.sampled_from(
        [
            "", "0.05", "1", "5e-3", "-5", "0", "1e-400", "1e400", "inf",
            "nan", "abc", "1_0", "٣", "ENOSPC", "eio", "EBOGUS",
            "errorcode", "9e9", "9.3e9",
        ]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.eE+-_nafiEIOSP٣", max_size=6),
)

NUMBERS = st.one_of(
    st.sampled_from(["1", "0.5", "0", "1.5", "1_0", "inf", "nan", "٠.5", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-3, max_value=10**20).map(str),
)


@st.composite
def clauses(draw):
    if draw(st.booleans()) and draw(st.booleans()):
        return "seed=" + draw(NUMBERS)
    point = draw(st.sampled_from(["p", "worker.compute", "cache.put"]))
    kind = draw(st.sampled_from(sorted(faults.ACTION_KINDS) + ["DELAY", "bogus"]))
    text = f"{point}={kind}"
    arg = draw(st.none() | ARGS)
    if arg is not None:
        text += ":" + arg
    if draw(st.booleans()):
        text += "@" + draw(NUMBERS)
    if draw(st.booleans()):
        text += "#" + draw(NUMBERS)
    return text


SPECS = st.one_of(
    st.lists(clauses(), max_size=4).map(";".join),
    st.text(alphabet="seed=;:@#.0123456789-_aylopsrcwEIONSPinf٣ ", max_size=40),
)


@given(SPECS)
@settings(max_examples=400, deadline=None)
def test_a_spec_is_refused_or_every_action_can_fire(spec):
    try:
        plan = faults.parse_fault_plan(spec)
    except ConfigError:
        return
    for action in plan.actions.values():
        if action.kind in ("delay", "slow"):
            seconds = action.seconds
            assert 0 < seconds <= threading.TIMEOUT_MAX  # finite, not nan
        elif action.kind == "oserror":
            name = (action.arg or "ENOSPC").upper()
            assert faults.injected_oserror(action).errno == getattr(errno, name)
        else:
            assert action.arg is None
