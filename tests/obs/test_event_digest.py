"""``EventLog.digest`` is equal exactly when the canonical JSON is equal.

The digest hashes a typed, columnar encoding of the stored events, so it
is not the hash of any JSON text. Its contract is an equivalence: two
logs share a digest exactly when the canonical JSON of their
``as_dict()`` forms is equal. Canonical JSON is therefore the oracle for
*equality*, and every way of building or shipping a log (emit, a read
mid-fill, a merge that re-emits another log's events, pickle, JSON,
``from_dict``) must land on the same digest.
"""

from __future__ import annotations

import json
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventLog
from repro.obs.events import _CHUNK


def canonical(log: EventLog) -> str:
    return json.dumps(log.as_dict(), sort_keys=True, separators=(",", ":"))


def nan_with_payload(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


NANS = [math.nan, -math.nan, nan_with_payload(0x7FF0000000000001),
        nan_with_payload(0xFFF8000000000123)]

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([*NANS, math.inf, -math.inf, -0.0, 0.0, 1.0]),
    st.text(max_size=8),
    st.sampled_from(["", "a", "ab", "bc", "c", "é", "ß→", "ノード", '"\\']),
)
values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
events = st.tuples(
    st.sampled_from(["link.xfer", "dvs.switch", "frame.emit", "ノード.x"]),
    st.one_of(st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from([0, 1, -0.0, *NANS])),
    st.sampled_from(["", "node1", "host", "é", "a", "ab", "bc", "c"]),
    st.dictionaries(st.sampled_from(["a", "b", "frame", "é", ""]), values,
                    max_size=4),
)


def _fill(log: EventLog, stream, read_at=None, merge_at=None) -> EventLog:
    """Emit ``stream`` into ``log``, reading the log at ``read_at``. From
    ``merge_at`` on, the events are read back from another log and
    re-emitted, as a batch sweep merges its child logs."""
    if merge_at is not None:
        tail = _fill(EventLog(), stream[merge_at:])
        stream = [*stream[:merge_at], *((e.kind, e.ts, e.actor, e.data) for e in tail)]
    for i, (kind, ts, actor, data) in enumerate(stream):
        if i == read_at:
            _ = list(log)
        log.emit(kind, ts, actor, **data)
    return log


def _twin(value, choice: int):
    """A value whose canonical JSON may or may not equal ``value``'s."""
    if isinstance(value, float) and math.isnan(value):
        return NANS[choice % len(NANS)]
    if isinstance(value, bool) or value in (0, 1):
        return [True, 1, 1.0, False, 0, 0.0, -0.0][choice % 7]
    if isinstance(value, int) and abs(value) >= 2**62:
        return [value, value + 1, float(value), value - 1][choice % 4]
    if isinstance(value, str) and value:
        return [value, value[:-1], value + "c", "a" + value][choice % 4]
    if isinstance(value, (list, tuple)):
        return [list(value), tuple(value), [*value, None]][choice % 3]
    return value


@st.composite
def log_pairs(draw):
    """A log and a rebuilt twin that may or may not be JSON-equal."""
    stream = draw(st.lists(events, min_size=1, max_size=12))
    cap = draw(st.integers(min_value=1, max_value=14))
    read_at = draw(st.none() | st.integers(min_value=0, max_value=12))
    merge_at = draw(st.none() | st.integers(min_value=0, max_value=12))
    seal = draw(st.booleans())
    log = _fill(EventLog(max_events=cap), stream, read_at, merge_at)
    if seal:
        log.seal(99.5)
    how = draw(st.sampled_from(["json", "pickle", "from_dict", "edit", "edit"]))
    if how == "pickle":
        return log, pickle.loads(pickle.dumps(log))
    if how == "json":
        return log, EventLog.from_dict(json.loads(json.dumps(log.as_dict())))
    if how == "from_dict":
        return log, EventLog.from_dict(log.as_dict())
    # Rebuild with shuffled data-key order and some values twinned.
    twin = EventLog(max_events=cap)
    _fill(twin, [
        (kind, ts if draw(st.booleans()) else _twin(ts, draw(st.integers(0, 6))),
         actor if draw(st.booleans()) else _twin(actor, draw(st.integers(0, 3))),
         {key: data[key] if draw(st.booleans())
          else _twin(data[key], draw(st.integers(0, 6)))
          for key in draw(st.permutations(list(data)))})
        for kind, ts, actor, data in stream
    ], draw(st.none() | st.integers(0, 12)), draw(st.none() | st.integers(0, 12)))
    if seal:
        twin.seal(99.5)
    return log, twin


def test_empty_log():
    logs = [EventLog(), EventLog(max_events=0), EventLog(enabled=False)]
    for log in logs:
        assert log.digest() == EventLog.from_dict(log.as_dict()).digest()
    assert len({log.digest() for log in logs}) == 3


@settings(max_examples=300, deadline=None)
@given(pair=log_pairs())
def test_digest_matches_canonical_json(pair):
    """Equal digests exactly when the canonical JSON is equal."""
    a, b = pair
    same = a.digest() == b.digest()
    assert same == (canonical(a) == canonical(b))


def test_nan_payloads_share_a_digest():
    logs = [
        _fill(EventLog(), [("k", nan, "n", {"x": nan, "y": [nan]})])
        for nan in NANS
    ]
    assert len({log.digest() for log in logs}) == 1


@pytest.mark.parametrize("left, right", [
    (-0.0, 0.0),
    (True, 1),
    (1, 1.0),
    (True, 1.0),
    (2**63, 2**63 + 1),
    (2**63, float(2**63)),
    (-(2**63) - 1, -(2**63)),
    (2**63 - 1, 2**63),
    ((1, 2), (1, 2.0)),
])
def test_distinct_json_values_differ(left, right):
    def log(value):
        return _fill(EventLog(), [("k", 1.0, "", {"v": value, "w": 2})] * 2)

    assert canonical(log(left)) != canonical(log(right))
    assert log(left).digest() != log(right).digest()


@pytest.mark.parametrize("field", ["kind", "actor", "data", "column"])
def test_string_splits_do_not_collide(field):
    def log(first, second):
        if field == "kind":
            return _fill(EventLog(), [(first, 0.0, second, {})])
        if field == "actor":
            return _fill(EventLog(), [("k", 0.0, first, {}), ("k", 0.0, second, {})])
        if field == "data":
            return _fill(EventLog(), [("k", 0.0, "", {"a": first, "b": second})])
        return _fill(EventLog(), [("k", 0.0, "", {"a": first}),
                                  ("k", 0.0, "", {"a": second})])

    assert log("ab", "c").digest() != log("a", "bc").digest()


def _chunk_stream(stored: int):
    return [
        ("k" if i % 3 else "j", i * 0.25, "a" if i % 2 else "",
         {"i": i, "x": [i, {"s": "é"}], "f": math.nan} if i % 3
         else {"s": str(i), "t": i % 2 == 0})
        for i in range(stored)
    ]


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("read", ["none", "half", "all"])
def test_lengths_around_the_chunk_size(delta, read):
    """Stored length (truncation marker included) is chunk -1, +0, +1;
    a read mid-fill or after the seal changes nothing."""
    stored = _CHUNK + delta
    stream = _chunk_stream(stored + 1)  # the last two are dropped
    read_at = stored // 2 if read == "half" else None
    log = _fill(EventLog(max_events=stored - 1), stream, read_at)
    log.seal(stored * 0.25)
    if read == "all":
        assert len(list(log)) == stored
    assert len(log) == stored and log.dropped == 2
    digest = log.digest()
    assert digest == EventLog.from_dict(log.as_dict()).digest()
    assert digest == pickle.loads(pickle.dumps(log)).digest()
    twin = _fill(EventLog(max_events=stored - 1), stream)
    twin.seal(stored * 0.5)  # only the marker's timestamp differs
    assert twin.digest() != digest


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_prefix_record_and_seal_around_a_chunk_boundary(delta):
    """Where a read lands, where a merged log's re-emitted records begin
    and seal() all agree around a chunk boundary."""
    split = _CHUNK + delta
    stream = _chunk_stream(2 * _CHUNK + 1)
    baseline = _fill(EventLog(max_events=2 * _CHUNK), stream)
    baseline.seal(1e6)
    for read_at, merge_at in [(split, None), (None, split), (split, split),
                              (split - 1, split + 1)]:
        log = _fill(EventLog(max_events=2 * _CHUNK), stream, read_at, merge_at)
        log.seal(1e6)
        assert log.digest() == baseline.digest(), (read_at, merge_at)
    shifted = _fill(EventLog(max_events=2 * _CHUNK), stream[1:] + stream[:1])
    shifted.seal(1e6)
    assert shifted.digest() != baseline.digest()


def test_pinned_digest():
    """The encoding is a file format: this literal holds on every Python."""
    log = EventLog(max_events=4)
    _fill(log, [
        ("link.xfer", 0.5, "node1", {"to": "node2", "bytes": 1024,
                                     "duration_s": 0.125, "frame": 3}),
        ("frame.result", 1.25, "", {"frame": 3, "late": False,
                                    "latency_s": math.nan}),
        ("ff.epoch", 2.0, "", {"t1": 9.5, "charge_fraction": {"node1": 0.5}}),
        ("dvs.switch", -0.0, "ノード", {"mode": "idle", "to_mhz": 59.0,
                                        "big": 2**64}),
        ("dropped", 3.0, "", {}),
    ])
    log.seal(3.5)
    assert log.digest() == (
        "a2d1a44923822a2fd00b997e29ff78cd0145f68c7e10a1911f4fb6f01b5a2404"
    )
