"""``EventLog.as_dict`` is a typed column codec that replays exactly.

The stored stream travels as per-chunk shape tables (kind plus data keys
in emission order, as JSON objects) and one compressed blob of typed
columns. A decoded log must not be distinguishable from the original:
same values and types (bool, int, float, ``-0.0``, NaN, ints beyond
int64, strings), same data key order, same nested dict order, and so the
same digest and the same JSONL export.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import PAPER_EXPERIMENTS, run_paper_suite
from repro.exec import ResultCache
from repro.obs import EventLog, write_jsonl
from repro.obs import events as events_mod

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, 1.0, math.inf]),
    st.text(max_size=6),
    st.sampled_from(["", "é", "ノード", '"\\', "\ud800"]),
)
values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
# A few kinds and keys so that columns are shared, and their types mix.
events = st.tuples(
    st.sampled_from(["link.xfer", "ff.epoch", "ノード.x", ""]),
    st.one_of(st.floats(allow_nan=True), st.sampled_from([0, 2, -0.0])),
    st.sampled_from(["", "node1", "é"]),
    st.dictionaries(st.sampled_from(["a", "b", "frame", "é", ""]),
                    st.one_of(atoms, values), max_size=4),
)


def _one_order_per_shape(stream):
    """Reorder each event's keys as the first event of its kind and key
    set emitted them, as every emitter in the program does."""
    first: dict = {}
    out = []
    for kind, ts, actor, data in stream:
        order = first.setdefault((kind, frozenset(data)), list(data))
        out.append((kind, ts, actor, {key: data[key] for key in order}))
    return out


def _build(stream, cap, seal, enabled=True) -> EventLog:
    log = EventLog(enabled=enabled, max_events=cap)
    for kind, ts, actor, data in stream:
        log.emit(kind, ts, actor, **data)
    if seal:
        log.seal(99.5)
    return log


def _assert_same_lines(left: list, right: list) -> None:
    """Line by line, so a failure names the first differing line quickly."""
    for i, (a, b) in enumerate(zip(left, right)):
        assert a == b, f"line {i}"
    assert len(left) == len(right)


def _assert_same_events(a: EventLog, b: EventLog) -> None:
    """Exact JSON text per event: types, -0.0, NaN and key order show."""
    lines = [[json.dumps(e.as_dict()) for e in log.stream()] for log in (a, b)]
    _assert_same_lines(*lines)


def _round_trip(log: EventLog) -> EventLog:
    return EventLog.from_dict(json.loads(json.dumps(log.as_dict())))


@settings(max_examples=300, deadline=None)
@given(
    stream=st.lists(events, max_size=12).map(_one_order_per_shape),
    cap=st.integers(min_value=0, max_value=14),
    seal=st.booleans(),
    enabled=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, events_mod._CHUNK]),
)
def test_round_trip_is_exact(stream, cap, seal, enabled, chunk):
    with mock.patch.object(events_mod, "_CHUNK", chunk):
        log = _build(stream, cap, seal, enabled)
        clone = _round_trip(log)
        assert clone.digest() == log.digest()
        _assert_same_events(clone, log)
        assert (clone.enabled, clone.max_events, clone.dropped) == (
            log.enabled, log.max_events, log.dropped)
        text = json.dumps(log.as_dict())
        assert json.dumps(clone.as_dict()) == text  # deterministic
        assert json.dumps(log.as_dict()) == text


def test_mixed_key_orders_replay_the_first():
    log = EventLog()
    log.emit("k", 0.0, "", a=1, b=2.0)
    log.emit("k", 1.0, "", b=3.0, a=4)
    clone = _round_trip(log)
    assert clone.digest() == log.digest()
    assert [list(e.data.items()) for e in clone] == [
        [("a", 1), ("b", 2.0)], [("a", 4), ("b", 3.0)]]


def test_nested_dict_order_is_kept():
    log = EventLog()
    log.emit("ff.epoch", 1.0, "", t1=2.0,
             charge_fraction={"node2": 0.5, "node1": 0.25})
    (event,) = _round_trip(log)
    assert list(event.data["charge_fraction"]) == ["node2", "node1"]


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_lengths_around_the_chunk_size(delta):
    stored = events_mod._CHUNK + delta
    stream = [
        ("k" if i % 3 else "j", i * 0.25, "a" if i % 2 else "",
         {"i": i, "x": [i, {"s": "é"}], "f": math.nan} if i % 3
         else {"t": i % 2 == 0, "s": str(i)})
        for i in range(stored + 1)
    ]
    log = _build(stream, stored - 1, seal=True)
    assert len(log) == stored and log.dropped == 2
    clone = _round_trip(log)
    assert clone.digest() == log.digest()
    _assert_same_events(clone, log)


def test_paper_experiments_export_identically_from_the_cache(tmp_path):
    """All eight experiments, fast mode: JSONL of cold run == replay."""
    cache = ResultCache(tmp_path / "cache")
    passes = []
    for name in ("cold", "replay"):
        runs = run_paper_suite(mode="fast", telemetry=True, cache=cache)
        assert sorted(runs) == sorted(PAPER_EXPERIMENTS)
        passes.append({
            label: write_jsonl(tmp_path / f"{name}-{label}.jsonl",
                               events=run.obs.events, metrics=run.obs.metrics,
                               energy=run.obs.energy).read_bytes()
            for label, run in runs.items()
        })
    assert (cache.hits, cache.misses) == (8, 8)
    for label, cold in passes[0].items():
        _assert_same_lines(cold.splitlines(), passes[1][label].splitlines())
