"""A cache hit whose payload does not decode is a miss, then recomputed.

Payload formats identify themselves (the event log's ``codec`` tag), so
an entry written in an older form, or damaged in a way the JSON envelope
does not show, raises :class:`~repro.errors.PayloadFormatError` on
decode. The executor recounts that hit as a miss, unlinks the entry,
executes the item and rewrites it, without bumping the cache salt.
"""

from __future__ import annotations

import base64
import json
import zlib

import pytest

from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    _run_from_payload,
    _run_payload,
    run_paper_suite,
)
from repro.errors import PayloadFormatError
from repro.exec import ResultCache
from repro.obs import EventLog, Telemetry
from repro.obs.flight import FlightRecorder

from tests.conftest import tiny_battery_factory

_KW = dict(battery_factory=tiny_battery_factory, max_frames=10, telemetry=True)


def _records_form(events: dict) -> dict:
    """The per-event JSON form earlier releases cached."""
    log = EventLog.from_dict(events)
    return {"enabled": log.enabled, "max_events": log.max_events,
            "dropped": log.dropped, "records": [e.as_dict() for e in log]}


def _recolumn(events: dict, edit) -> dict:
    blob = zlib.decompress(base64.b64decode(events["columns"]))
    return {**events, "columns": base64.b64encode(edit(blob)).decode()}


def _fault(kind: str, payload: dict):
    events = payload["obs"]["events"]
    if kind == "records-form":
        events = _records_form(events)
    elif kind == "unknown-codec":
        events = {**events, "codec": "repro-columns/999"}
    elif kind == "truncated-base64":
        events = {**events, "columns": events["columns"][:-3]}
    elif kind == "truncated-zlib":
        raw = base64.b64decode(events["columns"])
        events = {**events, "columns": base64.b64encode(raw[: len(raw) // 2]).decode()}
    elif kind == "truncated-pieces":
        events = _recolumn(events, lambda blob: zlib.compress(blob[:-5]))
    elif kind == "wrong-shape-list":
        return [1, 2, 3]
    elif kind == "wrong-shape-run":
        return {"frames": 3}
    elif kind == "wrong-shape-events":
        events = {**events, "shapes": {"not": "a list"}}
    return {**payload, "obs": {**payload["obs"], "events": events}}


FAULTS = ["records-form", "unknown-codec", "truncated-base64", "truncated-zlib",
          "truncated-pieces", "wrong-shape-list", "wrong-shape-run",
          "wrong-shape-events"]


def _plant(root, kind: str) -> None:
    (path,) = root.rglob("*.json")
    entry = json.loads(path.read_text())
    entry["payload"] = _fault(kind, entry["payload"])
    path.write_text(json.dumps(entry))


@pytest.mark.parametrize("kind", FAULTS)
def test_undecodable_hit_is_a_miss_and_recomputes(tmp_path, kind):
    fresh = run_paper_suite(["2"], **_KW)["2"]
    run_paper_suite(["2"], cache=ResultCache(tmp_path), **_KW)
    _plant(tmp_path, kind)

    cache = ResultCache(tmp_path)
    replay = run_paper_suite(["2"], cache=cache, **_KW)["2"]
    assert (cache.hits, cache.misses) == (0, 1)
    assert _run_payload(replay) == _run_payload(fresh)

    again = run_paper_suite(["2"], cache=cache, **_KW)["2"]  # rewritten
    assert (cache.hits, cache.misses) == (1, 1)
    assert _run_payload(again) == _run_payload(fresh)


@pytest.mark.parametrize("kind", FAULTS)
def test_decoders_raise_one_typed_error(tmp_path, kind):
    run_paper_suite(["2"], cache=ResultCache(tmp_path), **_KW)
    _plant(tmp_path, kind)
    (path,) = tmp_path.rglob("*.json")
    payload = json.loads(path.read_text())["payload"]
    with pytest.raises(PayloadFormatError):
        _run_from_payload(PAPER_EXPERIMENTS["2"], payload)
    if isinstance(payload, dict) and "obs" in payload:
        with pytest.raises(PayloadFormatError):
            Telemetry.from_dict(payload["obs"])


def test_recomputed_entry_is_journaled_as_executed(tmp_path):
    def journal(cache):
        flight = FlightRecorder(label="t")
        run_paper_suite(["1", "2"], cache=cache, flight=flight, **_KW)
        flight.finish()
        return flight.records

    cold = journal(ResultCache(tmp_path))
    path = sorted(tmp_path.rglob("*.json"))[0]
    entry = json.loads(path.read_text())
    entry["payload"] = _fault("records-form", entry["payload"])
    path.write_text(json.dumps(entry))

    cache = ResultCache(tmp_path)
    replay = journal(cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert sorted(r.status for r in replay) == ["cache_hit", "executed"]
    assert [r.content() for r in replay] == [r.content() for r in cold]
    assert all(r.status == "executed" for r in cold)
