"""``EventLog.digest`` equals the hash of the log's canonical JSON.

The streamed pass hashes the stored prefix and the columns chunk by
chunk; the oracle is the one-shot formula it replaced, which encodes
the whole ``as_dict()`` document at once.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventLog, TelemetryEvent
from repro.obs.events import _DIGEST_CHUNK


def oracle(log: EventLog) -> str:
    text = json.dumps(log.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=8),
    st.sampled_from(["é", "ß→", "ノード", " ", '"\\']),
)
values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
events = st.tuples(
    st.sampled_from(["link.xfer", "dvs.switch", "frame.emit", "ノード.x"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "node1", "host", "é"]),
    st.dictionaries(st.text(max_size=5), values, max_size=4),
)


def _fill(log: EventLog, stream, read_at: int | None, record_at: int | None) -> None:
    for i, (kind, ts, actor, data) in enumerate(stream):
        if i == read_at:
            _ = log.records
        if i == record_at:
            log.record(TelemetryEvent(kind, ts, actor, dict(data)))
        else:
            log.emit(kind, ts, actor, **data)


def test_empty_log():
    for log in (EventLog(), EventLog(max_events=0), EventLog(enabled=False)):
        assert log.digest() == oracle(log)


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(events, max_size=12),
    cap=st.integers(min_value=0, max_value=14),
    read_at=st.none() | st.integers(min_value=0, max_value=12),
    record_at=st.none() | st.integers(min_value=0, max_value=12),
    seal=st.booleans(),
)
def test_digest_matches_canonical_json(stream, cap, read_at, record_at, seal):
    log = EventLog(max_events=cap)
    _fill(log, stream, read_at, record_at)
    if seal:
        log.seal(99.5)
    assert log.digest() == oracle(log)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("materialized", ["none", "half", "all"])
def test_lengths_around_the_chunk_size(delta, materialized):
    """Stored length (truncation marker included) is chunk -1, +0, +1."""
    stored = _DIGEST_CHUNK + delta
    log = EventLog(max_events=stored - 1)
    read_at = stored // 2 if materialized == "half" else None
    for i in range(stored + 1):  # the last two are dropped
        if i == read_at:
            _ = log.records
        log.emit("k", i * 0.25, "a" if i % 2 else "", i=i, x=[i, {"s": "é"}], f=math.nan)
    log.seal(stored * 0.25)
    if materialized == "all":
        _ = log.records
    assert len(log) == stored and log.dropped == 2
    assert log.digest() == oracle(log)
